import bisect
import csv
import functools
import io
import itertools
import json
import random

import pytest

from selmerlab import cli
from selmerlab.cli import (
    RECORD_FIELDS,
    OutputRecord,
    RunConfig,
    build_parser,
    histogram_lines,
    main,
    run_verification,
    sample_keys,
    stream_records,
    write_records,
)
from selmerlab.curve_family import FamilyWindow, column_count, enumerate_window, window_columns


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


@pytest.mark.parametrize(
    "argv",
    [
        ["compute", "--xmax", "4", "--sample", "35"],  # the family has 34 members
        ["compute", "--xmax", "4", "--format", "tsv"],
        ["stats", "--xmax", "10"],
        ["compute", "--xmax", "4", "--threads", "-5"],
    ],
    ids=["sample-above-family", "compute-tsv", "stats-low-xmax", "negative-threads"],
)
def test_invalid_inputs_exit_2_before_output(argv, tmp_path, capsys):
    out = tmp_path / "out.txt"
    assert main(argv + ["--out", str(out)]) == 2
    captured = capsys.readouterr()
    assert captured.err.startswith("bad configuration:")
    assert captured.out == "" and not out.exists()


def test_sample_of_whole_family_matches_full_window():
    full = _records_text(RunConfig(xmax=4, threads=1))
    assert _records_text(RunConfig(xmax=4, sample=34, seed=5, threads=1)) == full


@functools.lru_cache(maxsize=None)
def _window_keys(X, include_square_disc):
    return [(c.B, c.A) for c in enumerate_window(FamilyWindow(X, include_square_disc))]


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
        rows = list(csv.DictReader(out.open()))
        assert rows
        flagged[flag] = sum(r["square_disc_flag"] == "1" for r in rows)
    assert flagged["--no-include-square-disc"] == 0
    assert flagged["--include-square-disc"] > 0


def test_no_include_square_disc_shrinks_the_family(capsys):
    # E(4) has 34 members, 5 of them with a square A^2 - 4B
    assert main(["compute", "--xmax", "4", "--sample", "30", "--no-include-square-disc"]) == 2
    assert capsys.readouterr().err.startswith("bad configuration:")
    assert main(["compute", "--xmax", "4", "--sample", "29", "--no-include-square-disc"]) == 0


def test_compute_csv_roundtrip(tmp_path):
    out = tmp_path / "records.csv"
    code = main(["compute", "--xmax", "30", "--with-descent", "--out", str(out), "--threads", "1"])
    assert code == 0
    rows = list(csv.DictReader(out.open()))
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
    ):
        assert f"suite {name}:" in out


def test_verify_swapped_orientation_fails(capsys):
    ok = run_verification(40, sample=40, seed=3, swap_orientation=True)
    out = capsys.readouterr().out
    assert not ok
    assert "suite orientation_anchor:" in out
    anchor_line = [l for l in out.splitlines() if l.startswith("suite orientation_anchor")][0]
    assert "FAIL" in anchor_line


def test_verify_empty_window():
    # xmax=1 has members; use a sample-0-like degenerate case instead
    assert main(["verify", "--xmax", "1", "--sample", "0", "--seed", "1"]) == 1


def test_output_record_consistency_guard():
    with pytest.raises(AssertionError):
        OutputRecord(A=1, B=3, t_total=1, t_descent=0)


def test_parser_unknown_format():
    with pytest.raises(SystemExit):
        build_parser().parse_args(["compute", "--xmax", "5", "--format", "xml"])


def test_threads_env_fallback(monkeypatch):
    from selmerlab.cli import _resolve_threads

    monkeypatch.setenv("SELMERLAB_THREADS", "3")
    assert _resolve_threads(RunConfig(xmax=10, threads=0)) == 3
    assert _resolve_threads(RunConfig(xmax=10, threads=2)) == 2
    monkeypatch.delenv("SELMERLAB_THREADS")
    assert _resolve_threads(RunConfig(xmax=10, threads=0)) >= 1


def test_io_failure_exit_code(tmp_path):
    missing = tmp_path / "no" / "such" / "dir" / "out.csv"
    assert main(["compute", "--xmax", "5", "--out", str(missing)]) == 3
