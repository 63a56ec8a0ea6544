"""One workload execution in a fresh process (started by run.py).

Usage: python3 perfbench/child.py '<json spec>'

The spec names the work (`compute` through the command-line entry point, or
`scan` for the family scan and its moment reports), the output file, the
result file, and whether to trace.  The child writes the program's output
to the output file and its own timestamps (CLOCK_MONOTONIC, shared with the
parent) and the trace summary to the result file.  Its exit code is the
program's.
"""

from __future__ import annotations

import json
import sys
import time


class FirstRecordStamp:
    """Text stream that notes when the first record after the header is written."""

    def __init__(self, fh, header_lines: int = 1):
        self._fh = fh
        self._need = header_lines + 1
        self.t_first = None

    def write(self, text: str) -> int:
        self._need -= text.count("\n")
        if self._need <= 0:
            self.t_first = time.monotonic()
            self.write = self._fh.write  # stop inspecting once stamped
        return self._fh.write(text)

    def flush(self) -> None:
        self._fh.flush()


def run_compute(spec) -> tuple[int, float | None]:
    from selmerlab import cli

    with open(spec["out"], "w", newline="\n") as fh:
        stamp = FirstRecordStamp(fh)
        sys.stdout = stamp
        try:
            rc = cli.main(spec["argv"])
        finally:
            sys.stdout = sys.__stdout__
    return rc, stamp.t_first


def run_scan(spec) -> tuple[int, float]:
    import numpy  # noqa: F401  (an import the scan needs: part of set-up)
    from selmerlab import statistics as stats

    t_first = time.monotonic()
    scan = stats.family_scan(spec["xmax"], spec["zcut"])
    reports = [
        stats.moment_report_from_scan(scan, k1, k2) for k1 in range(5) for k2 in range(5 - k1)
    ]
    out = {
        "n_total": scan["n_total"],
        "n_square_disc": scan["n_square_disc"],
        "density_counts": {str(p): list(v) for p, v in scan["density_counts"].items()},
        "power_sums": sorted([i, j, v] for (i, j), v in scan["power_sums"].items()),
        "moments": [
            [r.k1, r.k2, r.empirical, r.model, r.centering, r.sampleSize] for r in reports
        ],
    }
    with open(spec["out"], "w") as fh:
        json.dump(out, fh)
    return 0, t_first


def main() -> int:
    spec = json.loads(sys.argv[1])
    tracer = None
    if spec["trace"]:
        from tracer import Tracer, install

        tracer = Tracer()
        install(tracer)
    rc, t_first = (run_compute if spec["kind"] == "compute" else run_scan)(spec)
    t_end = time.monotonic()
    result = {"rc": rc, "t_first": t_first, "t_end": t_end}
    if tracer is not None:
        result["trace"] = tracer.summary()
        tracer.write_spans(spec["spans"])
    with open(spec["result"], "w") as fh:
        json.dump(result, fh)
    return rc


if __name__ == "__main__":
    sys.exit(main())
