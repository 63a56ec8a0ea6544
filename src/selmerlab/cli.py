"""Command-line orchestration: enumerate, compute, stats, verify.

Work is partitioned by B columns and mapped over a process pool (under
`--sample`, only the columns that hold a sampled curve), and results are
merged back in (B, A) order before writing, so output files are byte
identical for any thread count.  A full-window column (`compute` without
`--sample`, and so the t-values of `stats`) is walked by
`local_analysis.column_ledger`, which gives every member's ledger row from
one sieve over the whole column; a sampled column builds each record with
`curve_record` from the per-curve ledger, whose places, in
`descent.relevant_places` order, also give g1, g2 and the descent's place
list.
`--with-descent` runs the descent per curve (`descent.local_masks`: one
duality loop finds both sides' images at each finite place, 2 included),
and `_record`, the one function that turns a ledger row into its record
tuple, asserts that the descent's t equals the ledger total.  The ledgers
read place 2 from Tate's algorithm at 2, the class sieve too, so there the
check compares two independent computations.  `verify` visits each
curve once and every per-curve suite reads its ledger and its exhaustive
images (every class tested on each side), so its duality suites test
duality instead of assuming it.

Each command's parser declares only the flags that command honours
(`COMMAND_FLAGS`, drawn from the one table `FLAGS`, whose dests are the
`RunConfig` fields; an undeclared flag keeps the `RunConfig` default).
Exit codes: 0 success; 1 verification or assertion failure, or a curve's
solver failed (`compute`, `stats` and `verify` go on without it and list it
on stderr); 2 bad configuration: a flag the command does not declare, a bad
value, or `--sample` above the family, each reported as one
`bad configuration:` line before any output; 3 I/O failure.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import os
import random
import sys
from collections import Counter
from dataclasses import dataclass

from . import statistics as stats
from .core_arith import is_square
from .curve_family import (
    CurvePair,
    column_count,
    column_unrank,
    count_window,
    enumerate_window,
    window_columns,
)
from .descent import local_masks, relevant_places, selmer_phi, selmer_phihat
from .local_analysis import column_ledger, tamagawa_exponent

__all__ = ["RunConfig", "main", "entrypoint", "run_verification", "curve_record"]

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
        if self.format not in ("csv", "json"):
            raise ValueError(f"unknown format {self.format!r}")


def _odd_place_counts(c: CurvePair, odd) -> tuple[int, int, int]:
    """(g1, g2, repeated): how many of a ledger's odd places, the odd primes
    of B (A^2-4B), divide A^2-4B, divide B, and divide either one twice."""
    g1 = g2 = repeated = 0
    for e in odd:
        p = e.place
        g1 += c.dualB % p == 0
        g2 += c.B % p == 0
        repeated += c.dualB % (p * p) == 0 or c.B % (p * p) == 0
    return g1, g2, repeated


def curve_record(c: CurvePair, with_descent: bool = False) -> tuple:
    """The record of one curve from its ledger, whose places the descent
    reads."""
    ledger = tamagawa_exponent(c)
    odd = ledger.entries[2:]  # after inf and 2
    g1, g2, _ = _odd_place_counts(c, odd)
    places = [e.place for e in ledger.entries] if with_descent else None
    return _record(c.A, c.B, (ledger.total, g1, g2, sum(e.additive for e in odd)), places)


def _record(A: int, B: int, row: tuple, places: list | None = None) -> tuple:
    """The record tuple (RECORD_FIELDS order) of a ledger row (t_total, g1,
    g2, n_additive).  Given the curve's places, the descent runs over them
    with its own local images, and its t must equal the ledger's (the
    product formula)."""
    t_total, g1, g2, n_add = row
    t_descent = dim_phi = dim_phihat = None
    if places is not None:
        masks = local_masks(A, B, places)
        dim_phi, dim_phihat = selmer_phi(A, B, masks).dim, selmer_phihat(A, B, masks).dim
        t_descent = dim_phi - dim_phihat
        if t_descent != t_total:
            raise AssertionError(f"product formula violated at ({A}, {B}): ledger {t_total} != descent {t_descent}")
    return (A, B, t_total, t_descent, dim_phi, dim_phihat, g1, g2, n_add, is_square(A * A - 4 * B))


# ---------------------------------------------------------------------------
# parallel record pipeline (B-column stripes, ordered merge)
# ---------------------------------------------------------------------------


def _column_records(X: int, with_descent: bool, include_square_disc: bool, task: tuple):
    """(B, records, skipped) of one column task (B, As): As are its sampled
    A's (window members, ascending), or None for the whole column."""
    B, As = task
    if As is None:  # the whole column: one sieve for its odd places
        rows = column_ledger(B, X, include_square_disc)
    else:  # each sampled curve reads its own ledger
        rows = [(A, None) for A in As]
    out = []
    skipped = []
    for A, row in rows:
        try:
            if isinstance(row, Exception):
                raise row
            if row is None:
                out.append(curve_record(CurvePair(A, B), with_descent))
            else:
                out.append(_record(A, B, row, relevant_places(A, B) if with_descent else None))
        except (ValueError, RuntimeError) as exc:  # solver exhaustion / overflow
            skipped.append((A, B, str(exc)))
    return B, out, skipped


def _resolve_threads(config: RunConfig) -> int:
    return config.threads or os.cpu_count() or 1


@functools.lru_cache(maxsize=1)
def _column_sizes(X: int, include_square_disc: bool) -> tuple[int, ...]:
    """Each column's member count: one pass for the sample-size check and the sampler."""
    return tuple(column_count(B, X, include_square_disc) for B in window_columns(X))


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
    sizes = _column_sizes(X, include_square_disc)
    ranks: dict[int, list[int]] = {}
    col = start = 0
    for r in sorted(random.Random(seed).sample(range(sum(sizes)), n)):
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
    tasks = [(B, None) for B in window_columns(X)] if keep is None else list(keep.items())
    column = functools.partial(_column_records, X, config.with_descent, config.includeSquareDisc)
    workers = min(_resolve_threads(config), len(tasks))  # no idle worker
    if workers <= 1:
        yield from map(column, tasks)
        return
    import multiprocessing as mp

    with mp.get_context("fork").Pool(workers) as pool:
        yield from pool.imap(column, tasks)  # each column as soon as it is done


# the two CSV line templates: a ledger-only record leaves its three descent
# cells empty, a --with-descent record fills all ten; %d writes the
# square-discriminant flag as 1 or 0
_CSV_LEDGER = "%d,%d,%d,,,,%d,%d,%d,%d\n"
_CSV_DESCENT = ",".join(["%d"] * len(RECORD_FIELDS)) + "\n"


def _csv_lines(recs: list, with_descent: bool) -> str:
    """The CSV lines of one column's records, as one string."""
    if with_descent:
        return "".join([_CSV_DESCENT % r for r in recs])
    return "".join([_CSV_LEDGER % (A, B, t, g1, g2, n, sq) for A, B, t, _, _, _, g1, g2, n, sq in recs])


def write_records(config: RunConfig, out) -> tuple[int, list]:
    """Write all records in the configured format; returns (count, skipped)."""
    n = 0
    skipped_all = []
    csv = config.format == "csv"
    out.write(",".join(RECORD_FIELDS) + "\n" if csv else "[\n")
    for _, recs, skipped in stream_records(config):
        skipped_all += skipped
        if csv:
            out.write(_csv_lines(recs, config.with_descent))
            n += len(recs)
        else:
            for r in recs:
                text = json.dumps(dict(zip(RECORD_FIELDS, r)), separators=(", ", ": "))
                out.write(("" if n == 0 else ",\n") + text)
                n += 1
    if not csv:
        out.write("\n]\n")
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
    if config.outPath:
        with open(config.outPath, "w", newline="\n") as fh:
            n, skipped = write_records(config, fh)
    else:
        n, skipped = write_records(config, sys.stdout)
    _report_skipped(skipped)
    print(f"wrote {n} records", file=sys.stderr)
    return 1 if skipped else 0


def _report_skipped(skipped: list) -> bool:
    """List on stderr the (A, B, reason) of the curves whose solver failed;
    True iff there are any."""
    if skipped:
        print(f"skipped {len(skipped)} curves:", file=sys.stderr)
        for A, B, msg in skipped[:20]:
            print(f"  ({A}, {B}): {msg}", file=sys.stderr)
    return bool(skipped)


def histogram_lines(values, X: int) -> list[str]:
    """TSV rows (bin_left, bin_right, count, density) of standardized values,
    given as any iterable or as a Counter {value: count}."""
    scale = math.sqrt(2.0 * math.log(math.log(X)))
    width = 0.25
    counts = Counter()
    for v, c in Counter(values).items():
        counts[math.floor(v / scale / width)] += c
    n = counts.total()
    lines = []
    for k in sorted(counts):
        left, right = k * width, (k + 1) * width
        dens = counts[k] / (n * width)
        lines.append(f"{left:.2f}\t{right:.2f}\t{counts[k]}\t{dens:.6f}")
    return lines


def _t_values(config: RunConfig) -> tuple[Counter, list]:
    """The multiset {t: count} of t_total over the curves without a square
    discriminant, and the (A, B, reason) of the skipped curves."""
    t, square = RECORD_FIELDS.index("t_total"), RECORD_FIELDS.index("square_disc_flag")
    counts = Counter()
    skipped_all = []
    for _, recs, skipped in stream_records(config):
        skipped_all += skipped
        counts.update(r[t] for r in recs if not r[square])
    return counts, skipped_all


def cmd_stats(config: RunConfig) -> int:
    X, z = config.xmax, config.zcut
    out = config.outPath
    if out:  # fail before any output, as compute does, but create no file yet
        where = out if os.path.exists(out) else os.path.dirname(os.path.abspath(out))
        if os.path.isdir(out) or not os.access(where, os.W_OK):
            raise OSError(f"cannot write {out}")
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
    tvals, skipped = _t_values(config)
    if _report_skipped(skipped):
        return 1
    if not tvals:
        print("no t-values: empty curve selection", file=sys.stderr)
        return 1
    dist = stats.cdf_distance(tvals, X)
    print(f"cdf_distance={dist:.6f} n={tvals.total()}")
    if config.outPath:
        with open(config.outPath, "w", newline="\n") as fh:
            for line in histogram_lines(tvals, X):
                fh.write(line + "\n")
    return 0


# ---------------------------------------------------------------------------
# verification suites
# ---------------------------------------------------------------------------


def run_verification(xmax: int, sample: int | None = None, seed: int = 0, report=print) -> bool:
    """Run the invariant suites over the window (or a seeded sample of it).

    Each curve is visited once: its ledger (which also names its odd bad
    places) and both exhaustive local images at every one of its places are
    computed once, and every per-curve suite, the descent groups too, reads
    them.
    Returns True iff everything passed; prints one line per suite.
    """
    from .curve_family import density_rho
    from .descent import _ORTH, _class_count, _exhaustive_masks
    from .local_analysis import decompose_total, tamagawa_number

    if sample is None:
        curves = enumerate_window(xmax)
    else:
        keep = sample_keys(xmax, True, sample, seed)
        curves = (CurvePair(A, B) for B, As in keep.items() for A in As)

    names = (  # in report order
        "local_duality",
        "orientation_anchor",
        "product_formula",
        "membership_closure",
        "factor_table_vs_tate",
        "decomposition_bound",
        "densities",
        "place_two_duality",
    )
    fails = {name: [] for name in names}
    checked = dict.fromkeys(names, 0)
    ncurves = 0
    skipped = []
    for c in curves:
        ncurves += 1
        A, B = c.A, c.B
        try:  # the images are class masks (descent's square-class encoding)
            ledger = tamagawa_exponent(c)
            odd = ledger.entries[2:]  # the odd bad places, ascending, after inf and 2
            images = _exhaustive_masks(A, B, [e.place for e in ledger.entries])
        except (ValueError, RuntimeError) as exc:  # solver exhaustion / overflow
            skipped.append((A, B, str(exc)))
            continue

        # local duality: the two images multiply to the full local square-class group
        for v, (w, what) in images.items():
            checked["local_duality"] += 1
            if w.bit_count() * what.bit_count() != _class_count(v):
                fails["local_duality"].append((A, B, v))

        # orientation anchor: at an odd prime exactly dividing A^2-4B the
        # forward image must be everything
        for e in odd:
            p = e.place
            if c.dualB % p == 0 and c.dualB % (p * p) != 0 and B % p != 0:
                checked["orientation_anchor"] += 1
                if images[p][0].bit_count() != _class_count(p):
                    fails["orientation_anchor"].append((A, B, p))
                break

        # product formula against the descent ranks, membership and closure
        try:
            sphi, sphihat = selmer_phi(A, B, images), selmer_phihat(A, B, images)
        except AssertionError:
            fails["membership_closure"].append((A, B, "membership"))
        else:
            checked["product_formula"] += 1
            if ledger.total != sphi.dim - sphihat.dim:
                fails["product_formula"].append((A, B, ledger.total, sphi.dim - sphihat.dim))

        # the ledger's closed-form multiplicative factors against the Tate oracle
        for e in odd:
            if not e.additive:
                checked["factor_table_vs_tate"] += 1
                cp = tamagawa_number(A, B, e.place)
                cpd = tamagawa_number(c.dualA, c.dualB, e.place)
                if e.size * cp != 2 * cpd:
                    fails["factor_table_vs_tate"].append((A, B, e.place))

        # decomposition bound
        parts = decompose_total(ledger)
        g1, g2, repeated = _odd_place_counts(c, odd)
        lhs = abs(ledger.total - (g1 - g2) - parts["t_add"] - parts["e2"] - parts["einf"])
        checked["decomposition_bound"] += 1
        if lhs > repeated:
            fails["decomposition_bound"].append((A, B, lhs))

        # the exhaustive images at 2 are each other's annihilators under the
        # Hilbert symbol (W is a subgroup, so W^perp = W^ gives W^^perp = W),
        # and the ledger's size at 2 (factor_at_two, from Tate's algorithm at
        # 2 on both curves) matches the scanned image
        w, what = images[2]
        checked["place_two_duality"] += 1
        if _ORTH[w] != what or ledger.entries[1].size != w.bit_count():
            fails["place_two_duality"].append((A, B))

    if not ncurves:
        report("nothing verified: empty curve selection")
        return False

    # residue-class densities against the exact local model; tolerances carry
    # a B-granularity term since the window only holds ~2 sqrt(X)/p multiples
    scan = stats.family_scan(xmax, 3)  # density counts do not depend on z; at 3 no g1 update is made
    n = scan["n_total"]
    bmax = math.isqrt(xmax)
    for p, (nB, nD, nBoth) in scan["density_counts"].items():
        rho = float(density_rho(p))
        both = (p**4 - 1) / (p**6 - 1)
        for name, got, want, tol in (
            ("B", nB, rho, 0.02 + 1.0 / bmax),
            ("D", nD, rho, 0.02 + p / (2.0 * xmax)),
            ("both", nBoth, both, 0.01 + 0.5 / bmax),
        ):
            checked["densities"] += 1
            if abs(got / n - want) > tol:
                fails["densities"].append((p, name, got / n, want))

    # membership failures are the curves product_formula could not check
    checked["membership_closure"] = checked["product_formula"]
    for name, failures in fails.items():
        report(f"suite {name}: checked={checked[name]} failures={len(failures)} {'FAIL' if failures else 'ok'}")
        for f in failures[:10]:
            report(f"  offending {f}")
    return not (_report_skipped(skipped) or any(fails.values()))


def cmd_verify(config: RunConfig) -> int:
    return 0 if run_verification(config.xmax, config.sample, config.seed) else 1


# ---------------------------------------------------------------------------
# argument parsing
# ---------------------------------------------------------------------------


# every flag a command can declare: option -> add_argument keywords, whose
# dest is the RunConfig field the flag sets
FLAGS = {
    "--xmax": dict(dest="xmax", type=int, required=True),
    "--zcut": dict(dest="zcut", type=int),
    "--threads": dict(dest="threads", type=int),
    "--sample": dict(dest="sample", type=int),
    "--seed": dict(dest="seed", type=int),
    "--format": dict(dest="format", choices=("csv", "json")),
    "--out": dict(dest="outPath", metavar="PATH"),
    "--with-descent": dict(dest="with_descent", action="store_true"),
    "--include-square-disc": dict(dest="includeSquareDisc", action=argparse.BooleanOptionalAction),
}

# the flags each command honours; any other flag is a bad configuration
COMMAND_FLAGS = {
    "enumerate": ("--xmax",),
    "compute": tuple("--xmax --threads --sample --seed --format --out --with-descent --include-square-disc".split()),
    "stats": ("--xmax", "--zcut", "--threads", "--sample", "--seed", "--with-descent", "--out"),
    "verify": ("--xmax", "--sample", "--seed"),
}


class _Parser(argparse.ArgumentParser):
    """Reports an argument error as one `bad configuration:` line, exit 2."""

    def error(self, message):
        self.exit(2, f"bad configuration: {message}\n")


def build_parser() -> argparse.ArgumentParser:
    ap = _Parser(
        prog="selmerlab",
        description="Tamagawa-ratio exponents over the two-torsion family: "
        "enumeration, local factors, descent, statistics.",
    )
    sub = ap.add_subparsers(dest="command", required=True)
    for name, flags in COMMAND_FLAGS.items():
        # a flag left out is left out of the namespace: RunConfig's default holds
        sp = sub.add_parser(name, argument_default=argparse.SUPPRESS)
        for flag in flags:
            sp.add_argument(flag, **FLAGS[flag])
    return ap


def _check_command(command: str, config: RunConfig) -> None:
    """Raise ValueError for values that are invalid only for this window or command."""
    X, n = config.xmax, config.sample
    if n is not None and n > sum(_column_sizes(X, config.includeSquareDisc)):
        raise ValueError(f"sample {n} larger than the family at xmax={X}")
    if command == "stats" and X < 16:
        raise ValueError("stats needs xmax >= 16 so that log log X is positive")


def main(argv=None) -> int:
    try:
        args = vars(build_parser().parse_args(argv))
    except SystemExit as exc:
        return 2 if exc.code not in (0, None) else 0
    command = args.pop("command")
    try:
        config = RunConfig(**args)
        _check_command(command, config)
    except ValueError as exc:
        print(f"bad configuration: {exc}", file=sys.stderr)
        return 2
    try:
        return {
            "enumerate": cmd_enumerate,
            "compute": cmd_compute,
            "stats": cmd_stats,
            "verify": cmd_verify,
        }[command](config)
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
