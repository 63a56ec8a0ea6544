import bisect
import csv
import functools
import hashlib
import io
import itertools
import json
import os
import random
import subprocess
import sys
import types
from collections import Counter
from pathlib import Path

import pytest

from selmerlab import cli, descent, local_analysis
from selmerlab.cli import (
    COMMAND_FLAGS,
    FLAGS,
    RECORD_FIELDS,
    RunConfig,
    build_parser,
    histogram_lines,
    main,
    run_verification,
    sample_keys,
    stream_records,
    write_records,
)
from selmerlab.curve_family import column_count, column_members, enumerate_window, window_columns
from selmerlab.descent import SolverPrecisionError, descent_exponent, relevant_places


def _records_text(config):
    buf = io.StringIO()
    write_records(config, buf)
    return buf.getvalue()


def test_enumerate_command(capsys):
    assert main(["enumerate", "--xmax", "4"]) == 0
    out = capsys.readouterr().out
    assert "count=34" in out


def test_bad_config_exit_code(capsys):
    assert main(["enumerate", "--xmax", "0"]) == 2
    assert main(["stats", "--xmax", "50", "--zcut", "1"]) == 2


OUT = "{out}"  # stands for a fresh path that must not be written


def _exits_2_before_output(argv, tmp_path, capsys):
    out = tmp_path / "out.txt"
    assert main([str(out) if a == OUT else a for a in argv]) == 2
    captured = capsys.readouterr()
    assert captured.err.startswith("bad configuration:")
    assert captured.out == "" and not out.exists()


@pytest.mark.parametrize(
    "argv",
    [
        ["compute", "--xmax", "4", "--sample", "35", "--out", OUT],  # the family has 34 members
        ["compute", "--xmax", "4", "--format", "tsv", "--out", OUT],
        ["stats", "--xmax", "10", "--out", OUT],
        ["compute", "--xmax", "4", "--threads", "-5", "--out", OUT],
        ["stats", "--xmax", "50", "--no-include-square-disc", "--out", OUT],  # stats always drops them
        ["verify", "--xmax", "4", "--out", OUT],  # verify and enumerate write no file
        ["enumerate", "--xmax", "4", "--out", OUT],
        ["stats", "--xmax", "20", "--sample", "100000", "--out", OUT],
        ["verify", "--xmax", "4", "--sample", "100000"],
    ],
    ids=[
        "sample-above-family",
        "compute-tsv",
        "stats-low-xmax",
        "negative-threads",
        "stats-no-square-disc",
        "verify-out",
        "enumerate-out",
        "stats-sample-above-family",
        "verify-sample-above-family",
    ],
)
def test_invalid_inputs_exit_2_before_output(argv, tmp_path, capsys):
    _exits_2_before_output(argv, tmp_path, capsys)


# the flags each command honours, as README's "Command line" lists them
_DECLARED = {
    "enumerate": {"--xmax"},
    "compute": {
        "--xmax",
        "--threads",
        "--sample",
        "--seed",
        "--format",
        "--out",
        "--with-descent",
        "--include-square-disc",
    },
    "stats": {"--xmax", "--zcut", "--threads", "--sample", "--seed", "--with-descent", "--out"},
    "verify": {"--xmax", "--sample", "--seed"},
}

# (table flag, arguments that use it) for every option string but --xmax,
# which every command requires
_FLAG_USES = [
    ("--zcut", ["--zcut", "50"]),
    ("--threads", ["--threads", "1"]),
    ("--sample", ["--sample", "5"]),
    ("--seed", ["--seed", "3"]),
    ("--format", ["--format", "json"]),
    ("--out", ["--out", OUT]),
    ("--with-descent", ["--with-descent"]),
    ("--include-square-disc", ["--include-square-disc"]),
    ("--include-square-disc", ["--no-include-square-disc"]),
]


def test_flag_uses_cover_every_flag():
    assert {flag for flag, _ in _FLAG_USES} | {"--xmax"} == set(FLAGS)
    assert set(COMMAND_FLAGS) == set(_DECLARED)


@pytest.mark.parametrize("command", list(_DECLARED))
@pytest.mark.parametrize("flag, uses", _FLAG_USES, ids=[" ".join(u) for _, u in _FLAG_USES])
def test_flag_table(command, flag, uses, tmp_path, capsys):
    argv = [command, "--xmax", "20"] + uses
    if flag not in _DECLARED[command]:
        _exits_2_before_output(argv, tmp_path, capsys)
        return
    ns = vars(build_parser().parse_args(argv))  # parsing writes no file
    assert ns.pop("command") == command
    assert FLAGS[flag]["dest"] in ns  # the flag sets its RunConfig field
    RunConfig(**ns)


def _readme_command_lines():
    text = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    block = text.split("## Command line", 1)[1].split("```")[1]
    return [line.split()[1:] for line in block.splitlines() if line.startswith("selmerlab ")]


def test_readme_command_lines_parse():
    lines = _readme_command_lines()
    assert {argv[0] for argv in lines} == set(COMMAND_FLAGS)
    for argv in lines:
        build_parser().parse_args(argv)
    # and every declared flag of a command shows up in one of its lines
    for command, flags in COMMAND_FLAGS.items():
        used = {a.replace("--no-", "--") for argv in lines if argv[0] == command for a in argv}
        assert set(flags) <= used, command


def test_sample_of_whole_family_matches_full_window():
    full = _records_text(RunConfig(xmax=4, threads=1))
    assert _records_text(RunConfig(xmax=4, sample=34, seed=5, threads=1)) == full


@functools.lru_cache(maxsize=None)
def _window_keys(X, include_square_disc):
    return [(c.B, c.A) for c in enumerate_window(X, include_square_disc)]


def _reference_sample_keys(X, include_square_disc, n, seed):
    # the former key pass: sample the (B, A)-ordered list of every window key
    keep = {}
    for B, A in sorted(random.Random(seed).sample(_window_keys(X, include_square_disc), n)):
        keep.setdefault(B, []).append(A)
    return keep


@pytest.mark.parametrize("X", [1, 4, 60, 300, 1000])
@pytest.mark.parametrize("include", [True, False])
def test_sample_keys_match_key_list_sampling(X, include):
    size = len(_window_keys(X, include))
    for n in sorted({0, 1, min(40, size), size}):
        # the whole family sorts to the same keys under every seed
        for seed in (0,) if n == size else (0, 3, 20260810):
            got = sample_keys(X, include, n, seed)
            assert got == _reference_sample_keys(X, include, n, seed)
            assert list(got) == sorted(got)
    with pytest.raises(ValueError):
        sample_keys(X, include, size + 1, 0)


def test_sampled_run_sizes_the_window_once(monkeypatch, capsys):
    # the sample-size check and the sampler share one count per column
    calls = []
    honest = cli.column_count

    def counted(*args, **kwargs):
        calls.append(args)
        return honest(*args, **kwargs)

    monkeypatch.setattr(cli, "column_count", counted)
    cli._column_sizes.cache_clear()
    assert main(["compute", "--xmax", "300", "--sample", "50", "--seed", "1", "--threads", "1"]) == 0
    assert len(calls) == len(window_columns(300)) == 34


def _per_rank_sample_keys(X, include_square_disc, n, seed):
    # the former unranking: bisect each rank alone on its column's count

    @functools.lru_cache(maxsize=None)
    def upto(B, a):
        return column_count(B, X, include_square_disc, upto=a)

    cols = window_columns(X)
    starts = list(itertools.accumulate((upto(B, X) for B in cols), initial=0))
    keep = {}
    for r in sorted(random.Random(seed).sample(range(starts[-1]), n)):
        col = bisect.bisect_right(starts, r) - 1
        B, r = cols[col], r - starts[col]
        lo, hi = -X, X
        while lo < hi:
            mid = (lo + hi) // 2
            if upto(B, mid) > r:
                hi = mid
            else:
                lo = mid + 1
        keep.setdefault(B, []).append(lo)
    return keep


@pytest.mark.parametrize("X, ns", [(300, (1, 40, 5000, None)), (10**4, (1, 3000))])
@pytest.mark.parametrize("include", [True, False])
def test_sample_keys_match_per_rank_unranking(X, ns, include):
    size = sum(column_count(B, X, include) for B in window_columns(X))
    for n in ns:
        n = size if n is None else n
        for seed in (0,) if n == size else (0, 3, 20260810):
            assert sample_keys(X, include, n, seed) == _per_rank_sample_keys(X, include, n, seed)


@pytest.mark.parametrize("xmax, sample, seed", [(40, 60, 3), (300, 80, 1)])
def test_verify_sample_lines_match_key_list_sampling(xmax, sample, seed, monkeypatch):
    new = []
    assert run_verification(xmax, sample, seed, report=new.append)
    old = []
    monkeypatch.setattr(cli, "sample_keys", _reference_sample_keys)
    assert run_verification(xmax, sample, seed, report=old.append)
    assert new == old
    assert new[0].startswith("suite local_duality: checked=")


@pytest.mark.parametrize("extra", [[], ["--sample", "200", "--seed", "4"]], ids=["full", "sample"])
def test_no_include_square_disc_drops_flagged_rows(extra, tmp_path):
    flagged = {}
    for flag in ("--include-square-disc", "--no-include-square-disc"):
        out = tmp_path / f"{flag}.csv"
        argv = ["compute", "--xmax", "60", "--threads", "1", flag, "--out", str(out)]
        assert main(argv + extra) == 0
        rows = list(csv.DictReader(out.read_text().splitlines()))
        assert rows
        flagged[flag] = sum(r["square_disc_flag"] == "1" for r in rows)
    assert flagged["--no-include-square-disc"] == 0
    assert flagged["--include-square-disc"] > 0


def test_no_include_square_disc_shrinks_the_family(capsys):
    # E(4) has 34 members, 5 of them with a square A^2 - 4B
    assert main(["compute", "--xmax", "4", "--sample", "30", "--no-include-square-disc"]) == 2
    assert capsys.readouterr().err.startswith("bad configuration:")
    assert main(["compute", "--xmax", "4", "--sample", "29", "--no-include-square-disc"]) == 0


def _fail_place_two_at(monkeypatch, A0, B0):
    """Place 2 raises for (A0, B0) wherever it runs: Tate's algorithm at 2
    for the ledgers, in the column sieve (full windows) and in the per-curve
    accessor (sampled runs, verify), and the duality loop at 2 for the
    descent."""
    tate, loop = local_analysis._size_at_two, descent._dual_images

    def flaky_tate(A, B):
        if (A, B) == (A0, B0):
            raise SolverPrecisionError("injected precision exhaustion")
        return tate(A, B)

    def flaky_loop(A, B, v):
        if (A, B, v) == (A0, B0, 2):
            raise SolverPrecisionError("injected precision exhaustion")
        return loop(A, B, v)

    monkeypatch.setattr(local_analysis, "_size_at_two", flaky_tate)
    monkeypatch.setattr(descent, "_dual_images", flaky_loop)


@pytest.mark.parametrize("extra", [[], ["--sample", "34"]], ids=["full", "sample"])
def test_compute_exits_1_after_skipping_curves(extra, tmp_path, capsys, monkeypatch):
    # place 2 is run by the column sieve (full window; (1, 2) is the first A
    # of its class in column 2) and by the per-curve ledger (sampled runs; 34
    # is all of E(4)) alike
    _fail_place_two_at(monkeypatch, 1, 2)
    out = tmp_path / "records.csv"
    assert main(["compute", "--xmax", "4", "--threads", "1", "--out", str(out)] + extra) == 1
    assert len(out.read_text().splitlines()) == 1 + 33  # header and every other member of E(4)
    err = capsys.readouterr().err
    assert "skipped 1 curves:" in err and "(1, 2): injected precision exhaustion" in err


def test_a_failing_descent_skips_only_its_curve_in_a_full_window(tmp_path, capsys, monkeypatch):
    # the ledger of (1, 2) holds, its descent raises: the column's records
    # come from the lists less that curve, which is listed as skipped
    loop = descent._dual_images

    def flaky_loop(A, B, v):
        if (A, B, v) == (1, 2, 2):
            raise SolverPrecisionError("injected precision exhaustion")
        return loop(A, B, v)

    monkeypatch.setattr(descent, "_dual_images", flaky_loop)
    out = tmp_path / "records.csv"
    assert main(["compute", "--xmax", "4", "--threads", "1", "--with-descent", "--out", str(out)]) == 1
    lines = out.read_text().splitlines()
    assert len(lines) == 1 + 33 and not any(line.startswith("1,2,") for line in lines)
    err = capsys.readouterr().err
    assert "skipped 1 curves:" in err and "(1, 2): injected precision exhaustion" in err


@pytest.mark.parametrize("extra", [[], ["--with-descent"]], ids=["ledger", "descent"])
def test_compute_reports_a_curve_past_the_factoring_limit(extra, capsys, monkeypatch):
    # (2^64, 1) has |A^2 - 4B| > 2^127, past what `factor` takes: the curve
    # is listed as skipped with the reason, not dropped
    monkeypatch.setattr(cli, "sample_keys", lambda *args: {1: [2**64]})
    assert main(["compute", "--xmax", "4", "--sample", "1", "--threads", "1"] + extra) == 1
    err = capsys.readouterr().err
    assert "skipped 1 curves:" in err
    assert "(18446744073709551616, 1): operand magnitude out of supported range" in err


def test_stats_exits_1_after_skipping_curves(capsys, monkeypatch):
    # in column 2 of E(20) the sieve runs place 2 for the class A = 3 (mod 8)
    # at its first A, -13, and fills the rest of the class from that run
    _fail_place_two_at(monkeypatch, -13, 2)
    assert main(["stats", "--xmax", "20", "--threads", "1"]) == 1
    out, err = capsys.readouterr()
    assert "moment k1=0 k2=0" in out and "cdf_distance" not in out  # no t-distribution from a partial window
    assert "skipped 1 curves:" in err and "(-13, 2): injected precision exhaustion" in err


def test_a_failing_class_run_skips_only_its_curve(tmp_path, capsys, monkeypatch):
    # E(100): the first A of column -3 is the first of its 2-adic class, so
    # the sieve runs Tate's algorithm at 2 there; when that run raises, that
    # curve alone is skipped, and each class-mate runs its own to the same
    # record
    B = -3
    As = list(column_members(B, 100))
    A0, n = As[0], local_analysis._size_at_two(As[0], B)[1]
    mates = [A for A in As[1:] if (A - A0) % (1 << n) == 0]
    assert len(mates) >= 5, (A0, n, mates)
    clean = tmp_path / "clean.csv"
    assert main(["compute", "--xmax", "100", "--threads", "1", "--out", str(clean)]) == 0
    runs = []
    honest = local_analysis._size_at_two

    def recording(A, B):
        runs.append((A, B))
        return honest(A, B)

    monkeypatch.setattr(local_analysis, "_size_at_two", recording)
    _fail_place_two_at(monkeypatch, A0, B)
    out = tmp_path / "records.csv"
    assert main(["compute", "--xmax", "100", "--threads", "1", "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert "skipped 1 curves:" in err and f"({A0}, {B}): injected precision exhaustion" in err
    lines = clean.read_text().splitlines()
    assert out.read_text().splitlines() == [line for line in lines if not line.startswith(f"{A0},{B},")]
    assert any((A, B) in runs for A in mates)  # a class-mate ran its own


def test_stats_without_t_values_exits_1(tmp_path, capsys):
    # a sample with no curve gives no t-distribution: one line on stderr,
    # no cdf_distance line and no histogram file, as verify --sample 0 fails
    hist = tmp_path / "hist.tsv"
    assert main(["stats", "--xmax", "16", "--sample", "0", "--out", str(hist)]) == 1
    out, err = capsys.readouterr()
    assert "moment k1=0 k2=0" in out and "cdf_distance" not in out
    assert err == "no t-values: empty curve selection\n"
    assert not hist.exists()


def test_verify_exits_1_after_skipping_curves(capsys, monkeypatch):
    assert main(["verify", "--xmax", "20"]) == 0
    clean = capsys.readouterr().out
    _fail_place_two_at(monkeypatch, 3, 2)
    assert main(["verify", "--xmax", "20"]) == 1
    out, err = capsys.readouterr()
    # the other curves are still verified, and every suite passes on them
    assert "FAIL" not in out and out != clean and len(out.splitlines()) == len(clean.splitlines())
    assert "skipped 1 curves:" in err and "(3, 2): injected precision exhaustion" in err


def test_compute_csv_roundtrip(tmp_path):
    out = tmp_path / "records.csv"
    code = main(["compute", "--xmax", "30", "--with-descent", "--out", str(out), "--threads", "1"])
    assert code == 0
    rows = list(csv.DictReader(out.read_text().splitlines()))
    assert len(rows) > 100
    assert list(rows[0].keys()) == list(RECORD_FIELDS)
    for r in rows:
        assert r["t_total"] == r["t_descent"]
    spot = [r for r in rows if r["A"] == "0" and r["B"] == "1"]
    assert spot and spot[0]["dim_sel_phi"] == "2" and spot[0]["dim_sel_phihat"] == "0"
    assert spot[0]["t_total"] == "2"


def test_compute_json(tmp_path):
    out = tmp_path / "records.json"
    assert main(["compute", "--xmax", "12", "--format", "json", "--out", str(out)]) == 0
    data = json.loads(out.read_text())
    assert isinstance(data, list) and data
    assert set(data[0]) == set(RECORD_FIELDS)
    keys = [(r["B"], r["A"]) for r in data]
    assert keys == sorted(keys)


def test_thread_count_determinism():
    texts = []
    for threads in (1, 2, 5):
        cfg = RunConfig(xmax=60, threads=threads, format="csv", with_descent=False)
        texts.append(_records_text(cfg))
    assert texts[0] == texts[1] == texts[2]


def test_sampling_reproducible_and_seed_sensitive():
    a = _records_text(RunConfig(xmax=60, sample=40, seed=7, threads=1))
    b = _records_text(RunConfig(xmax=60, sample=40, seed=7, threads=2))
    c = _records_text(RunConfig(xmax=60, sample=40, seed=8, threads=1))
    assert a == b
    assert a != c
    assert len(a.strip().splitlines()) == 41  # header + 40 records


def test_records_sorted_and_flagged():
    text = _records_text(RunConfig(xmax=25, threads=1))
    rows = list(csv.DictReader(io.StringIO(text)))
    keys = [(int(r["B"]), int(r["A"])) for r in rows]
    assert keys == sorted(keys)
    flagged = [r for r in rows if r["square_disc_flag"] == "1"]
    assert flagged  # e.g. (0, -1) has A^2-4B = 4


def test_exclude_square_disc_switch():
    base = _records_text(RunConfig(xmax=25, threads=1))
    # include_square_disc=False drops exactly the flagged rows
    cfg = RunConfig(xmax=25, threads=1, includeSquareDisc=False)
    rows = list(csv.DictReader(io.StringIO(_records_text(cfg))))
    assert rows and all(r["square_disc_flag"] == "0" for r in rows)
    nflagged = sum(1 for r in csv.DictReader(io.StringIO(base)) if r["square_disc_flag"] == "1")
    assert len(rows) + nflagged == len(list(csv.DictReader(io.StringIO(base))))


def test_stats_command(tmp_path, capsys):
    hist = tmp_path / "hist.tsv"
    assert main(["stats", "--xmax", "120", "--zcut", "20", "--out", str(hist), "--threads", "2"]) == 0
    out = capsys.readouterr().out
    assert "moment k1=1 k2=1" in out and "model=" in out and "empirical=" in out
    assert "cdf_distance=" in out and "mean g1-g2" in out
    lines = hist.read_text().splitlines()
    assert lines
    for line in lines:
        left, right, count, dens = line.split("\t")
        assert float(right) - float(left) == pytest.approx(0.25)
        assert int(count) > 0 and float(dens) > 0


def test_histogram_lines_format():
    lines = histogram_lines([0, 1, 1, 2, -1], 100)
    total = sum(int(l.split("\t")[2]) for l in lines)
    assert total == 5
    assert all("\t" in l and "." in l for l in lines)


def test_verify_command_small_window(capsys):
    assert main(["verify", "--xmax", "40", "--sample", "60", "--seed", "3"]) == 0
    out = capsys.readouterr().out
    for name in (
        "local_duality",
        "orientation_anchor",
        "product_formula",
        "membership_closure",
        "factor_table_vs_tate",
        "decomposition_bound",
        "densities",
        "place_two_duality",
    ):
        assert f"suite {name}:" in out


def test_verify_swapped_orientation_fails(capsys, monkeypatch):
    # the fault injection reads each side's image off the other side
    honest = descent._exhaustive_masks

    def swapped(A, B, places):
        return {v: (what, w) for v, (w, what) in honest(A, B, places).items()}

    monkeypatch.setattr(descent, "_exhaustive_masks", swapped)
    ok = run_verification(40, sample=40, seed=3)
    out = capsys.readouterr().out
    assert not ok
    assert "suite orientation_anchor:" in out
    anchor_line = [l for l in out.splitlines() if l.startswith("suite orientation_anchor")][0]
    assert "FAIL" in anchor_line


def test_verify_empty_window():
    # xmax=1 has members; use a sample-0-like degenerate case instead
    assert main(["verify", "--xmax", "1", "--sample", "0", "--seed", "1"]) == 1


def test_output_record_consistency_guard():
    t = descent_exponent(1, 3)
    with pytest.raises(AssertionError, match=rf"product formula violated at \(1, 3\): ledger {t + 1} != descent {t}"):
        cli._descent_dims(1, 3, t + 1, relevant_places(1, 3))


@pytest.mark.parametrize(
    "flags",
    [["--xmax", "30", "--threads", "1"], ["--xmax", "300", "--sample", "20", "--seed", "1", "--threads", "2"]],
    ids=["full", "sample"],
)
def test_pipeline_enforces_the_product_formula(flags, tmp_path, capsys, monkeypatch):
    # a descent off by one on the phihat side fails the run on its first curve
    honest = cli.selmer_phihat

    def off_by_one(A, B, masks):
        return types.SimpleNamespace(dim=honest(A, B, masks).dim + 1)

    monkeypatch.setattr(cli, "selmer_phihat", off_by_one)
    out = tmp_path / "records.csv"
    assert main(["compute", "--with-descent", "--out", str(out)] + flags) == 1
    assert "verification failure: product formula violated" in capsys.readouterr().err


def test_pipeline_checks_the_column_sieve_at_two(tmp_path, capsys, monkeypatch):
    # a sieve told that Tate's algorithm at 2 read one 2-adic digit of A
    # fewer than it did fills a class mod 2^(N-1) with one size; the descent
    # finds its own images at 2, so a full-window run meets a curve whose
    # ledger is wrong
    tate = local_analysis._size_at_two

    def short(A, B):
        size, n = tate(A, B)
        return size, n - 1

    monkeypatch.setattr(local_analysis, "_size_at_two", short)
    out = tmp_path / "records.csv"
    assert main(["compute", "--xmax", "30", "--threads", "1", "--with-descent", "--out", str(out)]) == 1
    assert "verification failure: product formula violated" in capsys.readouterr().err


def test_parser_unknown_format():
    with pytest.raises(SystemExit):
        build_parser().parse_args(["compute", "--xmax", "5", "--format", "xml"])


def test_threads_zero_means_cpu_count():
    from selmerlab.cli import _resolve_threads

    assert _resolve_threads(RunConfig(xmax=10, threads=2)) == 2
    assert _resolve_threads(RunConfig(xmax=10, threads=0)) >= 1


def _count_calls(monkeypatch, original):
    """Rebind the function `original`, in every selmerlab namespace that
    binds it, to a wrapper that counts its calls; returns the one-element
    counter."""
    calls = [0]

    def counting(*args):
        calls[0] += 1
        return original(*args)

    for name, mod in list(sys.modules.items()):
        if name == "selmerlab" or name.startswith("selmerlab."):
            for attr, value in list(vars(mod).items()):
                if value is original:
                    monkeypatch.setattr(mod, attr, counting)
    return calls


def test_factor_call_budget(e60_sample, monkeypatch):
    # B (A^2-4B) is factored once per curve; each descent side factors only
    # its kernel, to enumerate the candidate classes
    from selmerlab import core_arith

    calls = _count_calls(monkeypatch, core_arith.factor)

    def total(run):
        calls[0] = 0
        for c in e60_sample:
            run(c)
        return calls[0]

    n = len(e60_sample)
    assert total(lambda c: cli.curve_record(c, True)) == 3 * n
    assert total(cli.curve_record) == n
    assert total(lambda c: descent_exponent(c.A, c.B)) == 3 * n
    calls[0] = 0
    assert run_verification(20, report=lambda line: None)
    assert calls[0] == 3 * sum(1 for _ in enumerate_window(20))


def test_tate_call_budget(e60_sample, monkeypatch):
    # every ledger reads additive_factor, so Tate runs only in verify's
    # factor_table_vs_tate suite: once on each curve of the pair at every
    # multiplicative odd place
    calls = _count_calls(monkeypatch, local_analysis.tate_local_data)
    for c in e60_sample:
        cli.curve_record(c, True)
    assert calls[0] == 0
    assert any(e.additive for c in e60_sample for e in local_analysis.tamagawa_exponent(c).entries)
    for argv in (
        ["--xmax", "300", "--sample", "500", "--seed", "1", "--with-descent"],
        ["--xmax", "100"],
    ):
        assert main(["compute", "--threads", "1"] + argv) == 0
        assert calls[0] == 0, argv
    assert run_verification(20, report=lambda line: None)
    mult = sum(
        local_analysis.classify_reduction(c.A, c.B, p).is_multiplicative
        for c in enumerate_window(20)
        for p in relevant_places(c.A, c.B)[2:]
    )
    assert calls[0] == 2 * mult > 0


@pytest.fixture
def fake_pool(monkeypatch):
    # a fake fork context records each pool's size and tasks and maps in this
    # process; the fixture's value is the list of (size, tasks) of each pool
    import multiprocessing

    pools = []

    class Pool:
        def __init__(self, n):
            self.n = n

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def imap(self, fn, tasks):
            pools.append((self.n, list(tasks)))
            return map(fn, pools[-1][1])

    monkeypatch.setattr(multiprocessing, "get_context", lambda method: types.SimpleNamespace(Pool=Pool))
    return pools


def test_pool_starts_no_more_workers_than_columns(fake_pool, capsys):
    assert main(["compute", "--xmax", "4", "--threads", "64"]) == 0
    pooled = capsys.readouterr().out
    assert len(fake_pool) == 1 and 1 < fake_pool[0][0] <= len(window_columns(4)), fake_pool
    assert main(["compute", "--xmax", "4", "--threads", "1"]) == 0
    assert capsys.readouterr().out == pooled
    assert len(fake_pool) == 1  # the serial run started no pool


def test_sampled_pool_maps_only_the_sampled_columns(fake_pool, capsys):
    # 200 columns hold the 5 sampled curves of E(10^4): the pool gets the
    # sampled columns alone, and no more workers than those
    argv = ["compute", "--xmax", "10000", "--sample", "5", "--seed", "1"]
    assert main(argv + ["--threads", "64"]) == 0
    pooled = capsys.readouterr().out
    keep = sample_keys(10000, True, 5, 1)
    assert 1 < len(keep) and [(n, tasks) for n, tasks in fake_pool] == [(len(keep), list(keep.items()))]
    assert main(argv + ["--threads", "1"]) == 0
    assert capsys.readouterr().out == pooled and len(fake_pool) == 1


def test_io_failure_exit_code(tmp_path):
    missing = tmp_path / "no" / "such" / "dir" / "out.csv"
    assert main(["compute", "--xmax", "5", "--out", str(missing)]) == 3


def test_stats_io_failure_exits_3_before_any_output(tmp_path, capsys):
    # an unwritable histogram path fails up front: no moment line, no t pass
    for out in (tmp_path / "no" / "such" / "dir" / "h.tsv", tmp_path):
        assert main(["stats", "--xmax", "20", "--out", str(out)]) == 3
        stdout, err = capsys.readouterr()
        assert stdout == "" and err.startswith("I/O failure:"), (stdout, err)
    assert not (tmp_path / "no").exists()
    hist = tmp_path / "hist.tsv"  # a writable path is written as before
    assert main(["stats", "--xmax", "20", "--out", str(hist)]) == 0
    assert hist.read_text()


# SHA-256 of outputs that every refactor must reproduce byte for byte; the
# window-ledger value is the one in perfbench/expected.json
_GOLDEN = {
    "compute-100": "c5c0dc2f8046ab4839b2c87052160cd36b3c55f1908be119226630c863148fde",
    "compute-1000": "c85e05c45053433889a99a95b5355e6adba5cbe85c8add47364ebf557f049a51",
    "compute-100-no-square-disc": "5d93eed9b5a4f15dcb13ded4c953ab58e89f09e9a29178c967ed19895b171b6e",
    "stats-300": "5b9ca4c9c226aafe7a29faae7fa590a3048e7f21032eb350908f9e79b7ba3a03",
    "stats-300-hist": "2b785d28e7a5234166e36cc4b06a8b133d38bf2d07ad0b6d1ffbd1757a8b091c",
    "stats-1000-sample-descent": "54d74513bdac49a899c56e45ca4815ac5263e2ff4586ba3c1d680754f84fb940",
    "verify-60": "63b4fc0bef0e62a3f4698af65e74bafcf25c74651d1625a8bdc6d4b6253d284e",
    "compute-100-json": "4ce5cf21c1b62b8e4e87e2813feaf9f7b9d85a4fe37ab6e0d2e7248dd8a4ae32",
    "compute-30-descent": "37a730efea27ecaa49ea6c43329659ee7fba9f8fe3efef4c8f9e6b1f0d65ebe7",
    "compute-1000-sample-descent": "c16a2cea221005426d4d6d0c47cce06c8351e45b9f2a8c28b165e5c69549ae5c",
    "compute-2000-sample-json": "4d4eb65085ae7d6a3018e8b7ecf094baf56a17fb2031e99afc068d37e4cfb1d1",
}


def _sha256(text):
    return hashlib.sha256(text.encode()).hexdigest()


@pytest.mark.parametrize(
    "flags, key",
    [
        (["--xmax", "100"], "compute-100"),
        (["--xmax", "1000"], "compute-1000"),
        (["--xmax", "100", "--no-include-square-disc"], "compute-100-no-square-disc"),
        (["--xmax", "100", "--format", "json"], "compute-100-json"),
        (["--xmax", "30", "--with-descent"], "compute-30-descent"),
        (["--xmax", "1000", "--sample", "400", "--seed", "1000", "--with-descent"], "compute-1000-sample-descent"),
        (
            ["--xmax", "2000", "--sample", "500", "--seed", "1", "--threads", "2", "--format", "json"],
            "compute-2000-sample-json",
        ),
    ],
    ids=["full", "full-1000", "no-square-disc", "json", "descent", "sample-descent", "sample-json"],
)
def test_golden_compute_csv(flags, key, tmp_path):
    out = tmp_path / "records.csv"
    assert main(["compute", "--threads", "1", "--out", str(out)] + flags) == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == _GOLDEN[key]


def test_golden_stats_stdout(tmp_path, capsys):
    hist = tmp_path / "hist.tsv"
    assert main(["stats", "--xmax", "300", "--threads", "1", "--out", str(hist)]) == 0
    out = capsys.readouterr().out
    assert _sha256(out) == _GOLDEN["stats-300"]
    assert hashlib.sha256(hist.read_bytes()).hexdigest() == _GOLDEN["stats-300-hist"]
    # two independent counts of the non-square members: the column rule and
    # the ledger (the t-values) against family_scan's mask (the family line)
    family = dict(kv.split("=") for kv in out.splitlines()[0].split()[1:])
    n = int(out.split("cdf_distance=", 1)[1].split()[1].removeprefix("n="))
    assert n == int(family["members"]) - int(family["square_disc_excluded"]) == 20_027


def test_golden_stats_stdout_on_two_workers(tmp_path, capsys):
    # the t-values of a full window come from the column lists, with no
    # record built, on a pool as on one worker
    hist = tmp_path / "hist.tsv"
    assert main(["stats", "--xmax", "300", "--threads", "2", "--out", str(hist)]) == 0
    assert _sha256(capsys.readouterr().out) == _GOLDEN["stats-300"]
    assert hashlib.sha256(hist.read_bytes()).hexdigest() == _GOLDEN["stats-300-hist"]


@pytest.mark.parametrize("include", [True, False])
def test_t_values_from_lists_match_the_records(include):
    # a full-window _t_values counts t from column_ledger's lists, leaving
    # out the square-discriminant members by the column rule's flags; the
    # records path reads the same multiset off every record of E(300)
    config = RunConfig(xmax=300, threads=1, includeSquareDisc=include)
    counts, skipped = cli._t_values(config)
    t, square = RECORD_FIELDS.index("t_total"), RECORD_FIELDS.index("square_disc_flag")
    want = Counter(r[t] for _, recs, _ in stream_records(config) for r in recs if not r[square])
    assert skipped == [] and counts == want and counts.total() == 20_027


def test_golden_stats_sample_descent_stdout(capsys):
    argv = ["stats", "--xmax", "1000", "--sample", "2000", "--seed", "7", "--threads", "2", "--with-descent"]
    assert main(argv) == 0
    assert _sha256(capsys.readouterr().out) == _GOLDEN["stats-1000-sample-descent"]


def test_golden_verify_lines():
    lines = []
    assert run_verification(60, report=lines.append)
    assert _sha256("\n".join(lines) + "\n") == _GOLDEN["verify-60"]


def test_product_formula_through_the_additive_closed_form(tmp_path, capsys):
    # every curve of E(300): the descent's t against the ledger's, whose
    # additive places come from additive_factor; _record raises on a
    # mismatch, which main reports as exit 1
    argv = ["compute", "--xmax", "300", "--with-descent", "--threads", "2", "--out", str(tmp_path / "r.csv")]
    assert main(argv) == 0
    assert capsys.readouterr().err == "wrote 20126 records\n"


def test_compute_and_enumerate_leave_numpy_unimported():
    # importing numpy costs about 0.1 s of setup; only family_scan (stats,
    # verify) needs it
    root = Path(__file__).resolve().parents[1]
    code = (
        "import sys; from selmerlab.cli import main; "
        "assert main(['compute', '--xmax', '30', '--threads', '1']) == 0; "
        "assert main(['compute', '--xmax', '300', '--sample', '50', '--seed', '1', '--with-descent', '--threads', '1']) == 0; "
        "assert main(['enumerate', '--xmax', '30']) == 0; "
        "assert 'numpy' not in sys.modules, 'numpy imported'"
    )
    env = dict(os.environ, PYTHONPATH=str(root / "src"))
    run = subprocess.run([sys.executable, "-c", code], cwd=root, env=env, capture_output=True, text=True)
    assert run.returncode == 0, run.stderr
