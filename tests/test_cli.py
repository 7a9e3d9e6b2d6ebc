import io
import json
import os
import re
import subprocess
import sys
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

import citesim
from citesim import cli, fixtures
from citesim.cli import main
from citesim.engine import MEASURES, MeasureConfig, compute
from citesim.evaluate import convergence_trace
from citesim.graph import CitationGraph, load_graph_files
from citesim.matrix import SCORE_FORMAT, write_matrix_csv


@pytest.fixture()
def shared_files(tmp_path):
    g = fixtures.shared_neighbor_graph()
    edge = tmp_path / "shared.tsv"
    meta = tmp_path / "shared.csv"
    fixtures.write_edge_file(g, edge)
    fixtures.write_meta_file(g, meta)
    return str(edge), str(meta)


@pytest.fixture()
def gap_files(tmp_path):
    g = fixtures.generation_gap_graph()
    edge = tmp_path / "gap.tsv"
    meta = tmp_path / "gap.csv"
    fixtures.write_edge_file(g, edge)
    fixtures.write_meta_file(g, meta)
    return str(edge), str(meta)


# -- validate ----------------------------------------------------------------


def test_validate_reports_graph_shape(shared_files, capsys):
    edge, meta = shared_files
    assert main(["validate", "--graph", edge, "--meta", meta]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["graph"]["nodes"] == 10
    assert payload["graph"]["edges"] == 9
    assert payload["graph"]["sources"] == 2
    assert payload["graph"]["sinks"] == 3
    assert payload["command"] == "validate"


def test_validate_optionally_writes_report(shared_files, tmp_path, capsys):
    edge, meta = shared_files
    out = tmp_path / "report.json"
    assert main(["validate", "--graph", edge, "--meta", meta, "--out", str(out)]) == 0
    printed = capsys.readouterr().out
    assert out.read_text() == printed


def test_validate_without_meta(shared_files):
    edge, _ = shared_files
    assert main(["validate", "--graph", edge]) == 0


# -- compute and verification round trip -------------------------------------


def _compute_argv(edge, meta, out, *extra):
    return ["compute", "--graph", edge, "--meta", meta, "--measure", "crank",
            "--kmax", "8", "--epsilon", "1e-12", "--out", out, *extra]


def test_compute_verify_round_trip(shared_files, tmp_path, capsys):
    edge, meta = shared_files
    out = str(tmp_path / "scores.csv")
    assert main(_compute_argv(edge, meta, out)) == 0
    assert main(["validate", "--graph", edge, "--meta", meta, "--measure", "crank",
                 "--kmax", "8", "--epsilon", "1e-12", "--out", out]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["verified"] is True
    assert payload["missing_pairs"] == 0
    assert payload["mismatched_scores"] == 0
    assert payload["entries_checked"] > 0


def test_verify_catches_tampering(shared_files, tmp_path, capsys):
    edge, meta = shared_files
    out = tmp_path / "scores.csv"
    assert main(_compute_argv(edge, meta, str(out))) == 0
    lines = out.read_text().splitlines()
    p, q, score = lines[1].split(",")
    lines[1] = f"{p},{q},{float(score) * 0.5}"
    out.write_text("\n".join(lines) + "\n")
    code = main(["validate", "--graph", edge, "--meta", meta, "--measure", "crank",
                 "--kmax", "8", "--epsilon", "1e-12", "--out", str(out)])
    captured = capsys.readouterr()
    assert code == 2
    assert json.loads(captured.out)["mismatched_scores"] == 1
    assert "mismatch" in captured.err


def _validate_rows(edge, meta, out, rows):
    out.write_text("p,q,score\n" + "".join(f"{r}\n" for r in rows))
    return main(["validate", "--graph", edge, "--meta", meta, "--measure", "crank",
                 "--kmax", "8", "--epsilon", "1e-12", "--out", str(out)])


def test_verify_rejects_bad_pairs_at_the_first_in_file_order(shared_files, tmp_path, capsys):
    edge, meta = shared_files
    out = tmp_path / "scores.csv"
    assert main(_compute_argv(edge, meta, str(out))) == 0
    rows = out.read_text().splitlines()[1:]
    # the added rows start on line 8, after the header and six rows
    cases = [
        (["3,10,0.5"], "8: pair (3, 10) out of range for n=10"),
        (["-1,2,0.5"], "8: pair (-1, 2) out of range for n=10"),
        (["5,2,0.5"], "8: pair (5, 2) out of range for n=10"),
        ([rows[4]], "8: duplicate pair ({}, {})".format(*rows[4].split(",")[:2])),
        ([rows[4], "5,2,0.5"], "8: duplicate pair ({}, {})".format(*rows[4].split(",")[:2])),
        (["5,2,0.5", rows[4]], "8: pair (5, 2) out of range for n=10"),
        # blank lines count; the repeat is the later row, here rows[10]'s own
        (["", "", rows[4]], "10: duplicate pair ({}, {})".format(*rows[4].split(",")[:2])),
        ([rows[10]], "13: duplicate pair ({}, {})".format(*rows[10].split(",")[:2])),
        (["99999999999999999999,1,0.5"], "8: id out of range"),
    ]
    for added, message in cases:
        assert _validate_rows(edge, meta, out, rows[:6] + added + rows[6:]) == 2, added
        err = capsys.readouterr().err
        assert err == f"citesim: error: {out}:{message}\n", (added, err)


def test_verify_lists_missing_then_unexpected_then_mismatched(shared_files, tmp_path, capsys):
    edge, meta = shared_files
    out = tmp_path / "scores.csv"
    assert main(_compute_argv(edge, meta, str(out))) == 0
    rows = out.read_text().splitlines()[1:]
    pairs = [tuple(int(v) for v in r.split(",")[:2]) for r in rows]
    exported = set(pairs)
    missing = [pairs[i] for i in (9, 2, 5)]
    unexpected = [(p, q) for p in range(10) for q in range(p, 10)
                  if (p, q) not in exported][:3]
    mismatched = [pairs[i] for i in (12, 1, 7, 3, 10)]
    kept = [f"{p},{q},0.5" if (p, q) in mismatched else r
            for (p, q), r in zip(pairs, rows) if (p, q) not in missing]
    added = [f"{p},{q},0.25" for p, q in reversed(unexpected)]
    assert _validate_rows(edge, meta, out, added + kept[::-1]) == 2
    captured = capsys.readouterr()
    report = json.loads(captured.out)
    assert (report["missing_pairs"], report["unexpected_pairs"],
            report["mismatched_scores"]) == (3, 3, 5)
    expected = (sorted(missing) + sorted(unexpected) + sorted(mismatched))[:10]
    assert captured.err.splitlines() == [f"mismatch at pair ({p}, {q})" for p, q in expected]


def test_compute_matches_library_output(shared_files, tmp_path):
    edge, meta = shared_files
    cli_out = tmp_path / "cli.csv"
    lib_out = tmp_path / "lib.csv"
    assert main(_compute_argv(edge, meta, str(cli_out))) == 0
    g, _ = load_graph_files(edge, meta)
    cfg = MeasureConfig("crank", k_max=8, epsilon=1e-12)
    mat, _ = compute(g, cfg)
    write_matrix_csv(mat, lib_out)
    assert cli_out.read_bytes() == lib_out.read_bytes()


def test_threads_flag_output_is_byte_identical(shared_files, tmp_path):
    edge, meta = shared_files
    a = tmp_path / "t1.csv"
    b = tmp_path / "t3.csv"
    assert main(_compute_argv(edge, meta, str(a), "--threads", "1")) == 0
    assert main(_compute_argv(edge, meta, str(b), "--threads", "3")) == 0
    assert a.read_bytes() == b.read_bytes()


def test_compute_summary_sidecar(shared_files, tmp_path):
    edge, meta = shared_files
    out = tmp_path / "scores.csv"
    assert main(_compute_argv(edge, meta, str(out))) == 0
    payload = json.loads((tmp_path / "scores.csv.summary.json").read_text())
    assert payload["command"] == "compute"
    assert payload["config"]["measure"] == "crank"
    assert payload["config"]["normalization"] == "jaccard"
    assert payload["config"]["lambda"] == 0.5
    assert payload["graph"]["nodes"] == 10
    assert payload["iteration"]["iterations_run"] == payload["k"] == 8
    assert payload["na_pairs"] == 0
    # the per-iteration deltas are the library report's, bit for bit
    g, _ = load_graph_files(edge, meta)
    _, report = compute(g, MeasureConfig("crank", k_max=8, epsilon=1e-12))
    assert payload["iteration"]["max_delta_per_iteration"] == list(report.max_delta_per_iteration)


@pytest.mark.parametrize("fail", ["csv", "summary", "interrupt"])
def test_a_failed_run_leaves_no_partial_output(shared_files, tmp_path, monkeypatch, capsys,
                                               fail):
    # the CSV writer or the summary's fails once its file is written, as on a
    # full disk, or the run is interrupted there: a fresh path gets no file
    # and no temporary one, and the last run's outputs keep their bytes
    edge, meta = shared_files
    old = tmp_path / "old.csv"
    assert main(_compute_argv(edge, meta, str(old))) == 0
    kept = {p: p.read_bytes() for p in tmp_path.iterdir()}
    fresh = tmp_path / "fresh"
    fresh.mkdir()
    owner, name = (json, "dump") if fail == "summary" else (cli, "write_matrix_csv")
    write = getattr(owner, name)
    error = KeyboardInterrupt if fail == "interrupt" else OSError

    def failing(*args, **kwargs):
        write(*args, **kwargs)
        raise error("No space left on device")

    monkeypatch.setattr(owner, name, failing)
    for out in (fresh / "scores.csv", old):
        # --kmax 2 would change both files, were they replaced
        argv = _compute_argv(edge, meta, str(out), "--kmax", "2")
        if error is OSError:
            assert main(argv) == 2
            assert capsys.readouterr().err == "citesim: error: No space left on device\n"
        else:
            with pytest.raises(KeyboardInterrupt):
                main(argv)
    assert list(fresh.iterdir()) == []
    assert {p: p.read_bytes() for p in tmp_path.iterdir() if p != fresh} == kept


def test_one_shot_summary_has_no_iteration_block(shared_files, tmp_path):
    edge, meta = shared_files
    out = tmp_path / "cocit.csv"
    assert main(["compute", "--graph", edge, "--meta", meta, "--measure",
                 "cocitation", "--out", str(out)]) == 0
    payload = json.loads((tmp_path / "cocit.csv.summary.json").read_text())
    assert payload["iteration"] is None
    assert payload["k"] == 0


# -- exit statuses -----------------------------------------------------------


def test_usage_problems_exit_1(shared_files, tmp_path, capsys):
    edge, meta = shared_files
    out = str(tmp_path / "x.csv")
    bad_argvs = [
        ["compute", "--graph", edge, "--measure", "crank", "--out", out, "--bogus"],
        ["compute", "--measure", "crank", "--out", out],
        ["compute", "--graph", edge, "--out", out],  # measure required here
        ["compute", "--graph", edge, "--measure", "crank", "--out", out, "--C", "1.5"],
        ["compute", "--graph", edge, "--measure", "simrank",
         "--normalization", "raw_count", "--out", out],
        ["eval", "--graph", edge, "--corpus", "c.txt", "--out", out,
         "--normalization", "jaccard"],
        ["compute", "--graph", edge, "--measure", "crank", "--out", out,
         "--threads", "0"],
        ["compute", "--graph", edge, "--measure", "crank", "--out", out,
         "--kmax", "0"],
        ["compute", "--graph", edge, "--measure", "crank", "--out", out,
         "--epsilon", "inf"],  # the summary is JSON, which has no Infinity
        ["topk", "--graph", edge, "--measure", "crank", "--query", "a",
         "--out", out, "--count", "0"],
        ["eval", "--graph", edge, "--corpus", "c.txt", "--out", out, "--m", "x"],
        # numbers are plain ASCII: no digit separator, no non-ASCII digit
        ["compute", "--graph", edge, "--measure", "crank", "--out", out, "--kmax", "1_0"],
        ["compute", "--graph", edge, "--measure", "crank", "--out", out, "--threads", "\uff12"],
        ["compute", "--graph", edge, "--measure", "crank", "--out", out, "--C", "0.8_0"],
        ["eval", "--graph", edge, "--corpus", "c.txt", "--out", out, "--m", "1_0,\uff12\uff10"],
        ["validate", "--graph", edge, "--measure", "crank"],  # no --out to verify
        ["frobnicate", "--graph", edge],
    ]
    for argv in bad_argvs:
        assert main(argv) == 1, argv
        capsys.readouterr()


def test_empty_m_list_is_a_usage_error(shared_files, tmp_path, capsys):
    edge, _ = shared_files
    assert main(["eval", "--graph", edge, "--corpus", "c.txt", "--m", ",",
                 "--out", str(tmp_path / "p.csv")]) == 1
    err = capsys.readouterr().err
    assert err.endswith("error: argument --m: at least one m value required\n")


def test_nonpositive_m_is_a_usage_error(shared_files, tmp_path, capsys):
    edge, meta = shared_files
    corpus = tmp_path / "corpus.txt"
    corpus.write_text("[alpha]\na\nb\n")
    out = tmp_path / "p.csv"
    for m_text, bad in (("0", "0"), ("10,-5", "-5")):
        assert main(["eval", "--graph", edge, "--meta", meta, "--corpus", str(corpus),
                     "--m", m_text, "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("usage: citesim eval ")
        assert err.endswith(f"error: argument --m: m values must be >= 1, got {bad}\n")
    assert not out.exists() and not (tmp_path / "p.csv.summary.json").exists()


def test_usage_error_names_the_flag(shared_files, tmp_path, capsys):
    edge, meta = shared_files
    argv = ["compute", "--graph", edge, "--measure", "crank",
            "--out", str(tmp_path / "x.csv"), "--C", "1.5"]
    assert main(argv) == 1
    assert "C" in capsys.readouterr().err


def test_data_problems_exit_2(shared_files, tmp_path, capsys):
    edge, meta = shared_files
    out = str(tmp_path / "x.csv")
    assert main(["validate", "--graph", str(tmp_path / "absent.tsv")]) == 2
    capsys.readouterr()

    broken = tmp_path / "broken.tsv"
    broken.write_text("a\tb\nc d\n")  # second line is not tab-separated
    assert main(["validate", "--graph", str(broken)]) == 2
    assert ":2:" in capsys.readouterr().err

    assert main(["topk", "--graph", edge, "--meta", meta, "--measure", "crank",
                 "--query", "zz", "--out", out]) == 2
    assert "zz" in capsys.readouterr().err

    corpus = tmp_path / "corpus.txt"
    corpus.write_text("[only]\nzz\nqq\n")
    assert main(["eval", "--graph", edge, "--meta", meta,
                 "--corpus", str(corpus), "--out", out]) == 2
    capsys.readouterr()

    pairs = tmp_path / "pairs.tsv"
    for text, message in [
        ("a\tb\tP7\n", f"{pairs}:1: unknown tag 'P7' (expected one of P1, P2, P3)"),
        ("# key\n\na\tb\tP1\r\nc\td\n", f"{pairs}:4: expected 'p<TAB>q<TAB>tag'"),
        ("# only a comment\n\n", f"{pairs}: no case pairs found"),
    ]:
        pairs.write_text(text)
        assert main(["cases", "--graph", edge, "--meta", meta,
                     "--pairs", str(pairs), "--out", out]) == 2
        assert capsys.readouterr().err == f"citesim: error: {message}\n"


def test_help_exits_0(capsys):
    assert main(["--help"]) == 0
    assert "{compute,topk,eval,histogram,trace,cases,validate}" in capsys.readouterr().out
    # the parser builds only the command it runs: each lists its own flags
    common = {"--help", "--graph", "--meta", "--measure", "--normalization", "--C",
              "--lambda", "--kmax", "--epsilon", "--out", "--threads"}
    own = {"topk": {"--query", "--count"}, "eval": {"--corpus", "--m"}, "cases": {"--pairs"}}
    for command in ("compute", "topk", "eval", "histogram", "trace", "cases", "validate"):
        assert main([command, "--help"]) == 0
        out = capsys.readouterr().out
        assert out.startswith(f"usage: citesim {command} ")
        assert set(re.findall(r"--[a-zA-Z]+", out)) == common | own.get(command, set()), command


# -- per-command outputs -----------------------------------------------------


def test_topk_command(shared_files, tmp_path):
    edge, meta = shared_files
    out = tmp_path / "top.csv"
    assert main(["topk", "--graph", edge, "--meta", meta, "--measure", "crank",
                 "--query", "e", "--count", "3", "--out", str(out)]) == 0
    lines = out.read_text().splitlines()
    assert lines[0] == "rank,external_id,score,zero_fill,title"
    first = lines[1].split(",")
    assert first[0] == "1" and first[1] == "f"
    assert float(first[2]) == pytest.approx(0.8)
    assert first[3] == "0"
    payload = json.loads((tmp_path / "top.csv.summary.json").read_text())
    assert payload["query"] == "e" and payload["returned"] == 3


def test_eval_command_all_measures_and_single(shared_files, tmp_path):
    edge, meta = shared_files
    corpus = tmp_path / "corpus.txt"
    corpus.write_text("[left]\na\nb\nc\n[right]\nd\ng\n")
    out_all = tmp_path / "all.csv"
    assert main(["eval", "--graph", edge, "--meta", meta, "--corpus", str(corpus),
                 "--m", "5,10", "--out", str(out_all)]) == 0
    rows = out_all.read_text().splitlines()
    assert rows[0] == "measure,m,precision"
    assert len(rows) == 1 + 7 * 2
    payload = json.loads((tmp_path / "all.csv.summary.json").read_text())
    assert len(payload["configs"]) == 7
    assert payload["m_values"] == [5, 10]
    assert payload["query_count"] == 5
    assert payload["fields"] == {"left": 3, "right": 2}

    out_one = tmp_path / "one.csv"
    assert main(["eval", "--graph", edge, "--meta", meta, "--corpus", str(corpus),
                 "--measure", "crank", "--m", "5,10", "--out", str(out_one)]) == 0
    assert len(out_one.read_text().splitlines()) == 1 + 1 * 2


def test_histogram_command(shared_files, tmp_path):
    edge, meta = shared_files
    out = tmp_path / "hist.csv"
    assert main(["histogram", "--graph", edge, "--meta", meta, "--measure",
                 "simrank", "--out", str(out)]) == 0
    lines = out.read_text().splitlines()
    assert lines[0] == "bucket,count"
    counts = [int(line.rsplit(",", 1)[1]) for line in lines[1:]]
    assert len(counts) == 11
    assert sum(counts) == 45
    assert counts[10] == 17  # pairs with no in-link evidence on either side
    payload = json.loads((tmp_path / "hist.csv.summary.json").read_text())
    assert payload["na_pairs"] == 17 and payload["total_pairs"] == 45


def test_histogram_rejects_raw_counts(shared_files, tmp_path, capsys):
    edge, meta = shared_files
    assert main(["histogram", "--graph", edge, "--meta", meta, "--measure",
                 "cocitation", "--out", str(tmp_path / "h.csv")]) == 1
    assert "raw" in capsys.readouterr().err


def test_histogram_rejects_raw_counts_before_reading_the_graph(shared_files, tmp_path,
                                                               capsys, monkeypatch):
    edge, meta = shared_files
    calls = []
    monkeypatch.setattr(cli, "load_graph_files", lambda *args: calls.append(args))
    monkeypatch.setattr(cli, "compute", lambda *args: calls.append(args))
    out = tmp_path / "h.csv"
    for measure in ("cocitation", "coupling", "amsler"):
        assert main(["histogram", "--graph", edge, "--meta", meta, "--measure",
                     measure, "--out", str(out)]) == 1
        assert capsys.readouterr().err == (
            "citesim: error: histogram requires [0,1] scores; raw counts are unbounded\n")
    assert calls == []
    assert not out.exists() and not (tmp_path / "h.csv.summary.json").exists()


_FLAG_ONLY_REFUSALS = [  # (argv, is a usage error, stderr message)
    (["histogram", "--measure", "coupling", "--normalization", "raw_count"], False,
     "histogram requires [0,1] scores; raw counts are unbounded"),
    *[(["trace", "--measure", m], False, f"{m} is not an iterative measure")
      for m in MEASURES if not MeasureConfig(m).iterative],
    *[([command, *extra, flag, value], True, message)
      for command, extra in [("validate", []), ("eval", ["--corpus", "c.txt"]),
                             ("cases", ["--pairs", "p.tsv"])]
      for flag, value, message in [("--C", "1.5", "C must be in [0,1], got 1.5"),
                                   ("--kmax", "0", "k_max must be an integer >= 1, got 0")]],
]


@pytest.mark.parametrize("argv, usage, message", _FLAG_ONLY_REFUSALS,
                         ids=[" ".join(argv) for argv, _, _ in _FLAG_ONLY_REFUSALS])
def test_flag_only_refusals_exit_1_before_reading_the_graph(shared_files, tmp_path, capsys,
                                                            monkeypatch, argv, usage, message):
    # the configs come from the flags alone, so these need no graph
    edge, meta = shared_files
    calls = []
    monkeypatch.setattr(cli, "load_graph_files", lambda *args: calls.append(args))
    out = tmp_path / "x.csv"
    assert main([*argv, "--graph", edge, "--meta", meta, "--out", str(out)]) == 1
    lines = capsys.readouterr().err.splitlines()
    assert lines[-1] == f"citesim: error: {message}"
    assert len(lines) == 1 + usage  # a usage error prints the usage line first
    assert calls == []
    assert not out.exists() and not (tmp_path / "x.csv.summary.json").exists()


def test_trace_command_matches_library(shared_files, tmp_path):
    edge, meta = shared_files
    out = tmp_path / "trace.csv"
    assert main(["trace", "--graph", edge, "--meta", meta, "--measure", "crank",
                 "--kmax", "5", "--out", str(out)]) == 0
    lines = out.read_text().splitlines()
    assert lines[0] == "k,mean_top10"
    assert len(lines) == 6
    g, _ = load_graph_files(edge, meta)
    points = convergence_trace(g, MeasureConfig("crank", k_max=5))
    for line, pt in zip(lines[1:], points):
        k, mean = line.split(",")
        assert int(k) == pt.k
        assert mean == SCORE_FORMAT % pt.mean_top10


def test_cases_command(gap_files, tmp_path):
    edge, meta = gap_files
    pairs = tmp_path / "pairs.tsv"
    pairs.write_text("# tag key: P1 old-old, P2 recent-recent, P3 old-recent\n"
                     "a\tb\tP1\nk\tl\tP2\ne\tl\tP3\n")
    out = tmp_path / "cases.csv"
    assert main(["cases", "--graph", edge, "--meta", meta, "--pairs", str(pairs),
                 "--out", str(out)]) == 0
    lines = out.read_text().splitlines()
    assert lines[0] == "measure,p,q,tag,score"
    assert len(lines) == 1 + 7 * 3
    assert any(line.endswith(",NA") for line in lines[1:])

    single = tmp_path / "single.csv"
    assert main(["cases", "--graph", edge, "--meta", meta, "--pairs", str(pairs),
                 "--measure", "simrank", "--out", str(single)]) == 0
    assert len(single.read_text().splitlines()) == 1 + 3


# -- one summary per command -------------------------------------------------

BASE_KEYS = {"command", "graph_file", "meta_file", "threads", "graph"}
CONFIG_KEYS = {"measure", "normalization", "C", "lambda", "k_max", "epsilon"}


def test_summary_key_sets_per_command(gap_files, tmp_path, capsys):
    edge, meta = gap_files
    corpus = tmp_path / "corpus.txt"
    corpus.write_text("[old]\na\nb\nc\n[new]\nk\nl\n")
    pairs = tmp_path / "pairs.tsv"
    pairs.write_text("a\tb\tP1\nk\tl\tP2\n")
    G = ["--graph", edge, "--meta", meta]
    runs = {
        "compute": (["--measure", "crank"], {"config", "iteration", "k", "na_pairs"}),
        "topk": (["--measure", "crank", "--query", "e"],
                 {"config", "iteration", "query", "count", "returned"}),
        "eval": (["--corpus", str(corpus), "--m", "2"],
                 {"configs", "corpus_file", "fields", "unresolved_ids",
                  "dropped_fields", "m_values", "query_count"}),
        "histogram": (["--measure", "simrank"], {"config", "iteration", "na_pairs", "total_pairs"}),
        "trace": (["--measure", "crank", "--kmax", "3"], {"config", "pairs_used"}),
        "cases": (["--pairs", str(pairs)], {"configs", "pairs_file", "pairs"}),
    }
    for command, (extra, keys) in runs.items():
        out = tmp_path / f"{command}.csv"
        assert main([command, *G, *extra, "--out", str(out)]) == 0, command
        payload = json.loads((tmp_path / f"{command}.csv.summary.json").read_text())
        assert set(payload) == BASE_KEYS | keys, command
        assert payload["command"] == command
        for cfg in payload.get("configs", [payload.get("config")]):
            assert set(cfg) == CONFIG_KEYS, command
    assert capsys.readouterr().out == ""

    assert main(["validate", *G]) == 0
    assert set(json.loads(capsys.readouterr().out)) == BASE_KEYS
    assert main(["validate", *G, "--measure", "crank", "--out", str(tmp_path / "compute.csv")]) == 0
    report = json.loads(capsys.readouterr().out)
    assert set(report) == BASE_KEYS | {"config", "matrix_file", "entries_checked", "missing_pairs",
                                       "unexpected_pairs", "mismatched_scores", "verified"}
    assert set(report["config"]) == CONFIG_KEYS and report["verified"] is True


def test_compute_records_the_measure_config_defaults(shared_files, tmp_path):
    edge, meta = shared_files
    for measure in MEASURES:
        out = tmp_path / f"{measure}.csv"
        assert main(["compute", "--graph", edge, "--meta", meta, "--measure", measure,
                     "--out", str(out)]) == 0
        recorded = json.loads((tmp_path / f"{measure}.csv.summary.json").read_text())["config"]
        cfg = MeasureConfig(measure)
        assert recorded == {"measure": measure, "normalization": cfg.normalization, "C": cfg.C,
                            "lambda": cfg.lam, "k_max": cfg.k_max, "epsilon": cfg.epsilon}


def test_topk_rejects_an_unknown_query_before_computing(shared_files, tmp_path, capsys,
                                                         monkeypatch):
    edge, meta = shared_files
    calls = []
    monkeypatch.setattr(cli, "compute", lambda *args: calls.append(args))
    out = tmp_path / "top.csv"
    assert main(["topk", "--graph", edge, "--meta", meta, "--measure", "crank",
                 "--query", "zz", "--out", str(out)]) == 2
    assert calls == []
    assert capsys.readouterr().err == "citesim: error: unknown paper id 'zz'\n"
    assert not out.exists() and not (tmp_path / "top.csv.summary.json").exists()


def test_undecodable_input_exits_2(shared_files, tmp_path, capsys):
    edge, meta = shared_files
    bad = tmp_path / "bad"
    bad.write_bytes(b"a\tb\nc\t\xff\n")
    assert main(["validate", "--graph", str(bad)]) == 2
    assert capsys.readouterr().err == f"citesim: error: {bad}:2: byte 0xff is not UTF-8\n"

    bad.write_bytes(b"external_id,title,year\na,\xe9t\xe9,1999\n")
    assert main(["validate", "--graph", edge, "--meta", str(bad)]) == 2
    assert capsys.readouterr().err == f"citesim: error: {bad}:2: byte 0xe9 is not UTF-8\n"

    bad.write_bytes(b"p,q,score\n0,0,1\n\x80\n")
    assert main(["validate", "--graph", edge, "--meta", meta, "--measure", "crank",
                 "--out", str(bad)]) == 2
    assert capsys.readouterr().err == f"citesim: error: {bad}:3: byte 0x80 is not UTF-8\n"


def test_duplicate_metadata_names_its_line(shared_files, tmp_path, capsys):
    edge, meta = shared_files
    dup = tmp_path / "dup.csv"
    dup.write_text(Path(meta).read_text() + "a,again,2001\n")  # header and 10 papers before it
    assert main(["validate", "--graph", edge, "--meta", str(dup)]) == 2
    assert capsys.readouterr().err == f"citesim: error: {dup}:12: duplicate metadata for 'a'\n"


@pytest.mark.parametrize("text, message", [
    ("a\tb\tP1\n\nzz\tb\tP2\n", ":3: unknown paper id 'zz'"),
    ("# c twice\nc\tc\tP3\n", ":2: case pair ('c', 'c') must name two distinct papers"),
], ids=["unknown id", "one paper twice"])
def test_pairs_errors_name_the_line_and_the_external_ids(shared_files, tmp_path, capsys,
                                                          text, message):
    edge, meta = shared_files
    pairs = tmp_path / "pairs.tsv"
    pairs.write_text(text)
    assert main(["cases", "--graph", edge, "--meta", meta, "--pairs", str(pairs),
                 "--out", str(tmp_path / "x.csv")]) == 2
    assert capsys.readouterr().err == f"citesim: error: {pairs}{message}\n"


# -- no input file ends in a traceback ---------------------------------------

# per input file: the separator of its fields, and the command that reads it
# ({file}) beside the shared graph's edge list ({edge})
INPUTS = {
    "edge list": ("\t", "compute --graph {file} --measure crank --kmax 2 --out {out}"),
    "metadata": (",", "validate --graph {edge} --meta {file}"),
    "pairs": ("\t", "cases --graph {edge} --pairs {file} --measure crank --kmax 2 --out {out}"),
    "corpus": ("\t", "eval --graph {edge} --corpus {file} --measure crank --kmax 2 --m 2 "
                     "--out {out}"),
    "matrix": (",", "validate --graph {edge} --measure crank --kmax 2 --out {file}"),
}
# drawn fields: ids of the shared graph, one it lacks, numbers, tags and junk
FIELDS = st.sampled_from(["a", "b", "c", "j", "zz", "", " ", "-1", "0", "3", "9", "10", "0.5",
                          "1e400", "nan", "1999", "1492", "99999999999999999999", '"',
                          '"x,y"', "#", "[f]", "[]", "P1", "P3", "P9"])
ODD_LINES = st.sampled_from([b"", b"\xff", b"a\xc3(", b"x\t\xe2\x82", b"a\rb"])


@pytest.fixture(scope="module")
def valid_inputs(tmp_path_factory):
    """The directory of the shared graph's files, and each input file's
    lines (bytes) in a form every command accepts."""
    root = tmp_path_factory.mktemp("inputs")
    g = fixtures.shared_neighbor_graph()
    fixtures.write_edge_file(g, root / "edge")
    fixtures.write_meta_file(g, root / "meta")
    assert main(["compute", "--graph", str(root / "edge"), "--measure", "crank", "--kmax", "2",
                 "--out", str(root / "matrix")]) == 0
    lines = {kind: (root / name).read_bytes().splitlines()
             for kind, name in (("edge list", "edge"), ("metadata", "meta"), ("matrix", "matrix"))}
    lines["pairs"] = [b"# pairs", b"a\tb\tP1", b"c\tj\tP3"]
    lines["corpus"] = [b"[one]", b"a", b"b", b"[two]", b"c", b"j"]
    return root, lines


def edited(lines, sep):
    """A file of ``lines`` with up to four lines replaced or inserted, ended
    by LF or CRLF.  A new line is a row of 1-4 drawn fields, an odd line
    (blank, not UTF-8, a lone CR), or a copy of one of ``lines`` with one
    field drawn anew or none (a repeated id)."""
    sep = sep.encode()

    def copy(line, i, field):
        fields = line.split(sep)
        if i < len(fields):
            fields[i] = field.encode()
        return sep.join(fields)

    row = st.lists(FIELDS.map(str.encode), min_size=1, max_size=4).map(sep.join)
    copied = st.builds(copy, st.sampled_from(lines), st.integers(0, 3), FIELDS)
    edit = st.tuples(st.integers(0, len(lines)), st.booleans(), row | ODD_LINES | copied)

    def build(edits, end):
        out = list(lines)
        for at, insert, line in edits:
            out[at:at + (not insert)] = [line]
        return end.join(out) + end

    return st.builds(build, st.lists(edit, max_size=4), st.sampled_from([b"\n", b"\r\n"]))


@pytest.mark.parametrize("kind", sorted(INPUTS))
@settings(max_examples=100, deadline=None)
@given(data=st.data())
def test_no_input_file_ends_in_a_traceback(valid_inputs, kind, data):
    root, lines = valid_inputs
    sep, command = INPUTS[kind]
    path = root / f"drawn-{kind.replace(' ', '-')}"
    path.write_bytes(data.draw(edited(lines[kind], sep)))
    argv = command.format(file=path, edge=root / "edge", out=root / "out.csv").split()
    with redirect_stdout(io.StringIO()) as out, redirect_stderr(io.StringIO()) as err:
        code = main(argv)
    err = err.getvalue()
    assert code in (0, 2), err
    if code == 0:
        assert err == ""
    elif kind == "matrix" and err.startswith("mismatch at pair"):
        # validate's report: the JSON names the file, stderr lists the pairs
        assert json.loads(out.getvalue())["matrix_file"] == str(path)
        assert all(line.startswith("mismatch at pair (") for line in err.splitlines())
    else:
        assert err.startswith(f"citesim: error: {path}") and len(err.splitlines()) == 1, err
        assert err.endswith("\n")


# -- the process entry point -------------------------------------------------


@pytest.fixture()
def blocks_files(tmp_path):
    # 130 papers: three row blocks, so a second thread gets a helper
    g = fixtures.random_graph(130, 5 / 130, 1)
    edge = tmp_path / "blocks.tsv"
    meta = tmp_path / "blocks.csv"
    fixtures.write_edge_file(g, edge)
    fixtures.write_meta_file(g, meta)
    return str(edge), str(meta)


def run_python(*args):
    """``python -X dev *args`` in a fresh interpreter that imports citesim
    from where this process found it, installed or not.  Dev mode reports
    files never closed; stderr must hold no such report and no traceback."""
    src = os.path.dirname(os.path.dirname(citesim.__file__))
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-X", "dev", *args],
        capture_output=True, text=True, env=dict(os.environ, PYTHONPATH=path), timeout=120,
    )
    for marker in ("ResourceWarning", "Exception ignored", "Traceback"):
        assert marker not in proc.stderr, proc.stderr
    return proc


def test_module_entry_point(shared_files, blocks_files, tmp_path, capsys):
    edge, meta = shared_files
    proc = run_python("-m", "citesim", "validate", "--graph", edge, "--meta", meta)
    assert proc.returncode == 0
    assert main(["validate", "--graph", edge, "--meta", meta]) == 0
    assert proc.stdout == capsys.readouterr().out  # whole on the pipe
    assert json.loads(proc.stdout)["graph"]["nodes"] == 10

    proc = run_python("-m", "citesim", "validate", "--graph", edge, "--kmax", "0")
    assert proc.returncode == 1 and proc.stdout == ""
    assert "citesim: error: " in proc.stderr

    bad = tmp_path / "bad.tsv"
    bad.write_bytes(b"a\tb\n\xff\tc\n")
    for graph, message in ((str(tmp_path / "absent.tsv"), "No such file"),
                           (str(bad), f"{bad}:2: byte 0xff is not UTF-8")):
        proc = run_python("-m", "citesim", "validate", "--graph", graph)
        assert proc.returncode == 2
        assert proc.stderr.startswith("citesim: error: ") and message in proc.stderr
        assert proc.stderr.count("\n") == 1

    edge, meta = blocks_files
    for threads in ("1", "2"):
        argv = ["compute", "--graph", edge, "--meta", meta, "--measure", "crank",
                "--threads", threads, "--out"]
        child, parent = tmp_path / f"child{threads}.csv", tmp_path / f"main{threads}.csv"
        assert run_python("-m", "citesim", *argv, str(child)).returncode == 0
        assert main([*argv, str(parent)]) == 0
        for suffix in ("", ".summary.json"):
            assert (child.with_name(child.name + suffix).read_bytes()
                    == parent.with_name(parent.name + suffix).read_bytes())


def test_interrupted_entry_exits_130_with_one_line(monkeypatch, capsys):
    def interrupted(argv=None):
        raise KeyboardInterrupt

    monkeypatch.setattr(cli, "main", interrupted)
    monkeypatch.setattr(cli.gc, "freeze", lambda: None)  # keep this process's collector
    with pytest.raises(SystemExit) as exc:
        cli.entry()
    assert exc.value.code == 130
    assert capsys.readouterr() == ("", "citesim: interrupted\n")


def test_no_run_imports_a_thread_pool(blocks_files, tmp_path):
    # helpers are plain threads: neither thread count loads concurrent.futures
    # or the logging it imports
    edge, meta = blocks_files
    code = ("import sys, citesim.cli; code = citesim.cli.main(sys.argv[1:]); "
            "print(code, 'concurrent.futures' in sys.modules, 'logging' in sys.modules)")
    for threads in ("1", "2"):
        proc = run_python("-c", code, "compute", "--graph", edge, "--meta", meta,
                          "--measure", "crank", "--threads", threads,
                          "--out", str(tmp_path / f"t{threads}.csv"))
        assert proc.stdout.split() == ["0", "False", "False"]
    assert (tmp_path / "t1.csv").read_bytes() == (tmp_path / "t2.csv").read_bytes()


@pytest.mark.skipif(not os.path.isdir("/proc/self/task"), reason="needs /proc/self/task")
def test_import_starts_no_blas_worker_and_keeps_a_set_value():
    # each child sets OPENBLAS_NUM_THREADS as it likes before anything loads
    # numpy: this process's own import may have set it for its children
    report = ("import citesim; print(len(os.listdir('/proc/self/task')), "
              "os.environ.get('OPENBLAS_NUM_THREADS'))")

    def run(setup):
        proc = run_python("-c", f"import os; {setup}; {report}")
        assert proc.returncode == 0
        return proc.stdout.split()

    unset = "os.environ.pop('OPENBLAS_NUM_THREADS', None)"
    assert run(unset) == ["1", "1"]
    assert run("os.environ['OPENBLAS_NUM_THREADS'] = '2'")[1] == "2"
    # OpenBLAS read the variable when numpy loaded, so citesim sets nothing
    assert run(unset + "; import numpy")[1] == "None"


def test_compute_reads_no_neighbor_set(blocks_files, tmp_path, monkeypatch):
    # the CLI and the engine read the graph's CSR arrays alone: with every
    # set-valued accessor refusing, compute writes the same bytes
    edge, meta = blocks_files
    argv = ["compute", "--graph", edge, "--meta", meta, "--measure"]
    expected = {}
    for measure in ("crank", "prank"):
        out = tmp_path / f"{measure}.csv"
        assert main([*argv, measure, "--out", str(out)]) == 0
        expected[measure] = out.read_bytes()

    def refuse(*args):
        raise AssertionError("a set-valued graph accessor was called")

    for name in ("neighbor_sets", "neighbors", "has_edge"):
        monkeypatch.setattr(CitationGraph, name, refuse)
    monkeypatch.setattr(CitationGraph, "edges", property(refuse))
    for measure in ("crank", "prank"):
        for threads in ("1", "2"):
            out = tmp_path / f"{measure}-t{threads}.csv"
            assert main([*argv, measure, "--threads", threads, "--out", str(out)]) == 0
            assert out.read_bytes() == expected[measure]
