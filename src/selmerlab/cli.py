"""Command-line orchestration: enumerate, compute, stats, verify.

Work is partitioned by B columns and mapped over a process pool; results are
merged back in (B, A) order before writing, so output files are byte
identical for any thread count.  Exit codes: 0 success, 1 verification or
assertion failure, 2 bad configuration, 3 I/O failure.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import random
import sys
from dataclasses import dataclass

from . import statistics as stats
from .curve_family import (
    CurvePair,
    FamilyWindow,
    column_count,
    column_unrank,
    count_window,
    enumerate_window,
    window_columns,
)
from .descent import INF_PLACE, selmer_phi, selmer_phihat
from .local_analysis import classify_reduction, tamagawa_exponent

__all__ = ["RunConfig", "OutputRecord", "main", "entrypoint", "run_verification", "curve_record"]

RECORD_FIELDS = (
    "A",
    "B",
    "t_total",
    "t_descent",
    "dim_sel_phi",
    "dim_sel_phihat",
    "g1",
    "g2",
    "n_additive",
    "square_disc_flag",
)


@dataclass(frozen=True)
class RunConfig:
    xmax: int
    zcut: int = 100
    threads: int = 0
    sample: int | None = None
    seed: int = 0
    format: str = "csv"
    includeSquareDisc: bool = True
    outPath: str | None = None
    with_descent: bool = False

    def __post_init__(self):
        if self.xmax < 1:
            raise ValueError("xmax must be >= 1")
        if self.zcut < 3:
            raise ValueError("zcut must be >= 3")
        if self.threads < 0:
            raise ValueError("threads must be >= 0 (0 = auto)")
        if self.sample is not None and self.sample < 0:
            raise ValueError("sample must be >= 0")
        if self.format not in ("csv", "json", "tsv"):
            raise ValueError(f"unknown format {self.format!r}")


@dataclass(frozen=True)
class OutputRecord:
    A: int
    B: int
    t_total: int
    t_descent: int | None = None
    dim_sel_phi: int | None = None
    dim_sel_phihat: int | None = None
    g1: int = 0
    g2: int = 0
    n_additive: int = 0
    square_disc_flag: bool = False

    def __post_init__(self):
        if self.t_descent is not None and self.t_descent != self.t_total:
            raise AssertionError(
                f"product formula violated at ({self.A}, {self.B}): "
                f"ledger {self.t_total} != descent {self.t_descent}"
            )

    def as_tuple(self):
        return tuple(getattr(self, f) for f in RECORD_FIELDS)


def curve_record(c: CurvePair, with_descent: bool = False) -> OutputRecord:
    ledger = tamagawa_exponent(c)
    n_add = sum(
        1
        for e in ledger.entries
        if e.place not in (2, INF_PLACE) and not classify_reduction(c.A, c.B, e.place).is_multiplicative
    )
    t_descent = dim_phi = dim_phihat = None
    if with_descent:
        sphi, sphihat = selmer_phi(c.A, c.B), selmer_phihat(c.A, c.B)
        dim_phi, dim_phihat = sphi.dim, sphihat.dim
        t_descent = dim_phi - dim_phihat
    return OutputRecord(
        A=c.A,
        B=c.B,
        t_total=ledger.total,
        t_descent=t_descent,
        dim_sel_phi=dim_phi,
        dim_sel_phihat=dim_phihat,
        g1=stats.g1(c.A, c.B),
        g2=stats.g2(c.A, c.B),
        n_additive=n_add,
        square_disc_flag=c.twoTorsionFull,
    )


# ---------------------------------------------------------------------------
# parallel record pipeline (B-column stripes, ordered merge)
# ---------------------------------------------------------------------------

_worker_cfg: dict = {}


def _pool_init(cfg):
    _worker_cfg.update(cfg)


def _column_records(B: int):
    cfg = _worker_cfg
    X, with_descent = cfg["xmax"], cfg["with_descent"]
    keep = cfg.get("keep")
    if keep is None:
        curves = _column_curves(B, X, cfg["include_square_disc"])
    else:  # sampled A's of this column: already window members, ascending
        curves = (CurvePair(A, B) for A in keep.get(B, ()))
    out = []
    skipped = []
    for c in curves:
        try:
            out.append(curve_record(c, with_descent).as_tuple())
        except (ValueError, RuntimeError) as exc:  # solver exhaustion / overflow
            skipped.append((c.A, c.B, str(exc)))
    return B, out, skipped


def _column_curves(B, X, include_square_disc):
    # column-restricted enumeration, same order and filters as enumerate_window
    from .curve_family import _fourth_power_primes

    moduli = [p * p for p in _fourth_power_primes(B)]
    for A in range(-X, X + 1):
        if moduli and (A == 0 or any(A % m == 0 for m in moduli)):
            continue
        if A * A == 4 * B:
            continue
        c = CurvePair(A, B)
        if not include_square_disc and c.twoTorsionFull:
            continue
        yield c


def _resolve_threads(config: RunConfig) -> int:
    t = config.threads
    if t == 0:
        env = os.environ.get("SELMERLAB_THREADS", "")
        t = int(env) if env.strip() else (os.cpu_count() or 1)
    return max(1, t)


def sample_keys(X: int, include_square_disc: bool, n: int, seed: int) -> dict[int, list[int]]:
    """A seeded uniform n-subset of the window: {B: [A, ...]}, both ascending.

    `random.sample` draws indices from the population's length and the RNG
    alone, so sampling ranks from range(family size) selects the same members
    as sampling the (B, A)-ordered list of every window key.  Each sorted rank
    is mapped to its column by the cumulative column counts, and each
    column unranks its ranks in one forward walk of about one column count
    per rank: O((sqrt(X) + n) 2^k) time and O(n) memory.
    """
    cols = window_columns(X)
    sizes = [column_count(B, X, include_square_disc) for B in cols]
    total = sum(sizes)
    if n > total:
        raise ValueError("sample larger than the family")
    ranks: dict[int, list[int]] = {}
    col = start = 0
    for r in sorted(random.Random(seed).sample(range(total), n)):
        while r >= start + sizes[col]:
            start += sizes[col]
            col += 1
        ranks.setdefault(cols[col], []).append(r - start)
    return {B: column_unrank(B, X, include_square_disc, rs) for B, rs in ranks.items()}


def stream_records(config: RunConfig):
    """Yield (record tuples, skipped) per B column, in (B, A) order."""
    X = config.xmax
    keep = None
    if config.sample is not None:
        keep = sample_keys(X, config.includeSquareDisc, config.sample, config.seed)
    cfg = {
        "xmax": X,
        "with_descent": config.with_descent,
        "include_square_disc": config.includeSquareDisc,
        "keep": keep,
    }
    bcols = window_columns(X)
    threads = _resolve_threads(config)
    if threads == 1:
        _pool_init(cfg)
        for B in bcols:
            yield _column_records(B)
        _worker_cfg.clear()
        return
    import multiprocessing as mp

    ctx = mp.get_context("fork")
    with ctx.Pool(threads, initializer=_pool_init, initargs=(cfg,)) as pool:
        yield from pool.imap(_column_records, bcols, chunksize=4)


_TSV_RECORDS = "tsv is reserved for histograms; use csv or json for records"


def _format_cell(v) -> str:
    if v is None:
        return ""
    if isinstance(v, bool):
        return "1" if v else "0"
    return str(v)


def write_records(config: RunConfig, out) -> tuple[int, list]:
    """Write all records in the configured format; returns (count, skipped)."""
    n = 0
    skipped_all = []
    if config.format == "csv":
        out.write(",".join(RECORD_FIELDS) + "\n")
        for _, recs, skipped in stream_records(config):
            skipped_all += skipped
            for r in recs:
                out.write(",".join(_format_cell(v) for v in r) + "\n")
                n += 1
    elif config.format == "json":
        out.write("[\n")
        first = True
        for _, recs, skipped in stream_records(config):
            skipped_all += skipped
            for r in recs:
                rec = dict(zip(RECORD_FIELDS, r))
                text = json.dumps(rec, separators=(", ", ": "))
                out.write(("" if first else ",\n") + text)
                first = False
                n += 1
        out.write("\n]\n")
    else:
        raise ValueError(_TSV_RECORDS)
    return n, skipped_all


# ---------------------------------------------------------------------------
# commands
# ---------------------------------------------------------------------------


def cmd_enumerate(config: RunConfig) -> int:
    count, predicted = count_window(config.xmax)
    ratio = count / predicted if predicted else float("nan")
    print(f"count={count} predicted={predicted:.6g} ratio={ratio:.6f}")
    return 0


def cmd_compute(config: RunConfig) -> int:
    try:
        if config.outPath:
            with open(config.outPath, "w", newline="\n") as fh:
                n, skipped = write_records(config, fh)
        else:
            n, skipped = write_records(config, sys.stdout)
    except OSError as exc:
        print(f"I/O failure: {exc}", file=sys.stderr)
        return 3
    if skipped:
        print(f"skipped {len(skipped)} curves:", file=sys.stderr)
        for A, B, msg in skipped[:20]:
            print(f"  ({A}, {B}): {msg}", file=sys.stderr)
    print(f"wrote {n} records", file=sys.stderr)
    return 0


def histogram_lines(values, X: int) -> list[str]:
    """TSV rows (bin_left, bin_right, count, density) of standardized values."""
    scale = math.sqrt(2.0 * math.log(math.log(X)))
    width = 0.25
    counts: dict[int, int] = {}
    for v in values:
        counts[math.floor(v / scale / width)] = counts.get(math.floor(v / scale / width), 0) + 1
    n = len(values)
    lines = []
    for k in sorted(counts):
        left, right = k * width, (k + 1) * width
        dens = counts[k] / (n * width)
        lines.append(f"{left:.2f}\t{right:.2f}\t{counts[k]}\t{dens:.6f}")
    return lines


def _t_values(config: RunConfig) -> tuple[list[int], int]:
    vals = []
    nsq = 0
    for _, recs, skipped in stream_records(config):
        if skipped:
            raise RuntimeError(f"solver failures on {len(skipped)} curves")
        for r in recs:
            rec = dict(zip(RECORD_FIELDS, r))
            if rec["square_disc_flag"]:
                nsq += 1
                continue
            vals.append(rec["t_total"])
    return vals, nsq


def cmd_stats(config: RunConfig) -> int:
    X, z = config.xmax, config.zcut
    scan = stats.family_scan(X, z)
    if scan["n_stats"] == 0:
        print("empty family", file=sys.stderr)
        return 1
    print(f"family X={X} members={scan['n_total']} square_disc_excluded={scan['n_square_disc']}")
    for k1 in range(5):
        for k2 in range(5 - k1):
            rep = stats.moment_report_from_scan(scan, k1, k2)
            print(
                f"moment k1={k1} k2={k2} empirical={rep.empirical:.6f} "
                f"model={rep.model:.6f} centering={rep.centering:.6f} n={rep.sampleSize}"
            )
    sums = scan["power_sums"]
    mean_diff = (sums[(1, 0)] - sums[(0, 1)]) / scan["n_stats"]
    print(f"mean g1-g2 = {mean_diff:.6f}")
    tvals, _ = _t_values(config)
    dist = stats.cdf_distance(tvals, X)
    print(f"cdf_distance={dist:.6f} n={len(tvals)}")
    if config.outPath:
        try:
            with open(config.outPath, "w", newline="\n") as fh:
                for line in histogram_lines(tvals, X):
                    fh.write(line + "\n")
        except OSError as exc:
            print(f"I/O failure: {exc}", file=sys.stderr)
            return 3
    return 0


# ---------------------------------------------------------------------------
# verification suites
# ---------------------------------------------------------------------------


def run_verification(
    xmax: int,
    sample: int | None = None,
    seed: int = 0,
    zcut: int = 100,
    swap_orientation: bool = False,
    report=print,
) -> bool:
    """Run the invariant suites over the window (or a seeded sample of it).

    Returns True iff everything passed; prints one line per suite.
    """
    from . import descent
    from .local_analysis import mult_factor, tamagawa_number, decompose_total, repeated_prime_count

    if sample is not None and sample < count_window(xmax)[0]:
        keep = sample_keys(xmax, True, sample, seed)
        curves = [CurvePair(A, B) for B, As in keep.items() for A in As]
    else:
        curves = list(enumerate_window(FamilyWindow(xmax)))
    if not curves:
        report("nothing verified: empty curve selection")
        return False

    sides = ("phi", "phihat")
    ok = True

    def suite(name, failures, checked):
        nonlocal ok
        status = "ok" if not failures else "FAIL"
        report(f"suite {name}: checked={checked} failures={len(failures)} {status}")
        for f in failures[:10]:
            report(f"  offending {f}")
        if failures:
            ok = False

    def image(c, v, side):
        a, b = descent._side_coefficients(c.A, c.B, side)
        if swap_orientation:
            a, b = descent._side_coefficients(c.A, c.B, "phihat" if side == "phi" else "phi")
        return descent._local_image_tags(a, b, v)

    # local duality: the two images multiply to the full local square-class group
    fails, checked = [], 0
    full = {INF_PLACE: 2, 2: 8}
    for c in curves:
        for v in descent.relevant_places(c.A, c.B):
            want = full.get(v, 4)
            got = len(image(c, v, "phi")) * len(image(c, v, "phihat"))
            checked += 1
            if got != want:
                fails.append((c.A, c.B, v))
    suite("local_duality", fails, checked)

    # orientation anchor: at an odd prime exactly dividing A^2-4B the forward
    # image must be everything (size 4)
    fails, checked = [], 0
    for c in curves:
        for p in descent.relevant_places(c.A, c.B)[2:]:
            if c.dualB % p == 0 and c.dualB % (p * p) != 0 and c.B % p != 0:
                checked += 1
                if len(image(c, p, "phi")) != 4:
                    fails.append((c.A, c.B, p))
                break
    suite("orientation_anchor", fails, checked)

    # product formula against the descent ranks, membership and closure
    fails, mfails, checked = [], [], 0
    for c in curves:
        ledger = tamagawa_exponent(c)
        try:
            sphi, sphihat = selmer_phi(c.A, c.B), selmer_phihat(c.A, c.B)
        except AssertionError:
            mfails.append((c.A, c.B, "membership"))
            continue
        checked += 1
        if ledger.total != sphi.dim - sphihat.dim:
            fails.append((c.A, c.B, ledger.total, sphi.dim - sphihat.dim))
    suite("product_formula", fails, checked)
    suite("membership_closure", mfails, checked)

    # closed-form multiplicative factors against the Tate oracle
    fails, checked = [], 0
    for c in curves:
        for p in descent.relevant_places(c.A, c.B)[2:]:
            if classify_reduction(c.A, c.B, p).is_multiplicative:
                checked += 1
                cp = tamagawa_number(c.A, c.B, p)
                cpd = tamagawa_number(c.dualA, c.dualB, p)
                if mult_factor(c.A, c.B, p) * cp != 2 * cpd:
                    fails.append((c.A, c.B, p))
    suite("factor_table_vs_tate", fails, checked)

    # decomposition bound
    fails, checked = [], 0
    for c in curves:
        ledger = tamagawa_exponent(c)
        parts = decompose_total(c, ledger)
        lhs = abs(
            ledger.total
            - (stats.g1(c.A, c.B) - stats.g2(c.A, c.B))
            - parts["t_add"]
            - parts["e2"]
            - parts["einf"]
        )
        checked += 1
        if lhs > repeated_prime_count(c.A, c.B):
            fails.append((c.A, c.B, lhs))
    suite("decomposition_bound", fails, checked)

    # residue-class densities against the exact local model; tolerances carry
    # a B-granularity term since the window only holds ~2 sqrt(X)/p multiples
    fails, checked = [], 0
    scan = stats.family_scan(xmax, zcut)
    n = scan["n_total"]
    bmax = math.isqrt(xmax)
    from .curve_family import density_rho

    for p, (nB, nD, nBoth) in scan["density_counts"].items():
        rho = float(density_rho(p))
        both = (p**4 - 1) / (p**6 - 1)
        for name, got, want, tol in (
            ("B", nB, rho, 0.02 + 1.0 / bmax),
            ("D", nD, rho, 0.02 + p / (2.0 * xmax)),
            ("both", nBoth, both, 0.01 + 0.5 / bmax),
        ):
            checked += 1
            if abs(got / n - want) > tol:
                fails.append((p, name, got / n, want))
    suite("densities", fails, checked)

    return ok


def cmd_verify(config: RunConfig) -> int:
    ok = run_verification(config.xmax, config.sample, config.seed, config.zcut)
    return 0 if ok else 1


# ---------------------------------------------------------------------------
# argument parsing
# ---------------------------------------------------------------------------


def _family_size(config: RunConfig) -> int:
    X = config.xmax
    return sum(column_count(B, X, config.includeSquareDisc) for B in window_columns(X))


def _check_command(command: str, config: RunConfig) -> None:
    """Raise ValueError for settings that are invalid for this command only."""
    if command == "compute":
        if config.format == "tsv":
            raise ValueError(_TSV_RECORDS)
        if config.sample is not None and config.sample > _family_size(config):
            raise ValueError(f"sample {config.sample} larger than the family at xmax={config.xmax}")
    if command == "stats" and config.xmax < 16:
        raise ValueError("stats needs xmax >= 16 so that log log X is positive")


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="selmerlab",
        description="Tamagawa-ratio exponents over the two-torsion family: "
        "enumeration, local factors, descent, statistics.",
    )
    sub = ap.add_subparsers(dest="command", required=True)
    for name in ("enumerate", "compute", "stats", "verify"):
        sp = sub.add_parser(name)
        sp.add_argument("--xmax", type=int, required=True)
        sp.add_argument("--zcut", type=int, default=100)
        sp.add_argument("--threads", type=int, default=0)
        sp.add_argument("--sample", type=int, default=None)
        sp.add_argument("--seed", type=int, default=0)
        sp.add_argument("--format", choices=("csv", "json", "tsv"), default="csv")
        sp.add_argument("--out", dest="out", default=None)
        sp.add_argument("--with-descent", action="store_true")
        sp.add_argument("--include-square-disc", action=argparse.BooleanOptionalAction, default=True)
    return ap


def main(argv=None) -> int:
    try:
        ns = build_parser().parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code not in (0, None) else 0
    try:
        config = RunConfig(
            xmax=ns.xmax,
            zcut=ns.zcut,
            threads=ns.threads,
            sample=ns.sample,
            seed=ns.seed,
            format=ns.format,
            includeSquareDisc=ns.include_square_disc,
            outPath=ns.out,
            with_descent=ns.with_descent,
        )
        _check_command(ns.command, config)
    except ValueError as exc:
        print(f"bad configuration: {exc}", file=sys.stderr)
        return 2
    try:
        return {
            "enumerate": cmd_enumerate,
            "compute": cmd_compute,
            "stats": cmd_stats,
            "verify": cmd_verify,
        }[ns.command](config)
    except AssertionError as exc:
        print(f"verification failure: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:
        print(f"I/O failure: {exc}", file=sys.stderr)
        return 3


def entrypoint() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entrypoint()
