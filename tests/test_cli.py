from __future__ import annotations

import hashlib
import json
import subprocess
import sys
import time
from pathlib import Path

import pytest

from drt import cli
from drt.cli import main

GOLDEN_DIR = Path(__file__).parent / "golden"

GOLDEN_CASES = {
    "pipeline_z3": ["pipeline", "paley", "--p", "3"],
    "pipeline_z7": ["pipeline", "paley", "--p", "7"],
    "pipeline_z11": ["pipeline", "paley", "--p", "11"],
    "pipeline_z19": ["pipeline", "paley", "--p", "19"],
    "pipeline_z23": ["pipeline", "paley", "--p", "23"],
    "pipeline_z3pow3": ["pipeline", "paley", "--p", "3", "--k", "3"],
}


def run(capsys, argv):
    code = main(argv)
    return code, capsys.readouterr().out


def report_of(capsys, argv):
    code, out = run(capsys, argv)
    return code, json.loads(out)


# ------------------------------------------------------------------- reports


# Every report command, run on the Paley 7 files {d7}, {neg7} and {t7}.
REPORT_COMMANDS = {
    "diffset-verify": ["diffset", "verify", "{d7}"],
    "diffset-classify": ["diffset", "classify", "{d7}", "{neg7}"],
    "tourney-verify": ["tourney", "verify", "{t7}"],
    "rank-exact": ["rank", "exact", "{t7}"],
    "rank-heuristic": ["rank", "heuristic", "{t7}"],
    "rank-baseline": ["rank", "baseline", "--n", "5", "--trials", "2"],
    "discrepancy-sweep": ["discrepancy", "sweep", "{t7}"],
    "discrepancy-sample": ["discrepancy", "sample", "{t7}", "--samples", "100"],
    "discrepancy-bounds": ["discrepancy", "bounds", "{t7}"],
    "pipeline-paley": ["pipeline", "paley", "--p", "7"],
}


@pytest.mark.parametrize("name", sorted(REPORT_COMMANDS))
def test_report_envelope(capsys, tmp_path, name):
    files = {"d7": "Z7\n1 2 4\n", "neg7": "Z7\n3 5 6\n"}
    for key, text in files.items():
        (tmp_path / key).write_text(text)
    paths = {k: str(tmp_path / k) for k in ("d7", "neg7", "t7")}
    assert main(["tourney", "cayley", paths["d7"], "-o", paths["t7"]]) == 0
    argv = [a.format(**paths) for a in REPORT_COMMANDS[name]]
    code, rep = report_of(capsys, argv)
    assert code == 0
    assert sorted(rep) == ["command", "inputs", "results", "schema_version",
                           "tool_version", "wall_time_ms"]
    assert rep["schema_version"] == 1
    assert rep["command"] == " ".join(argv[:2])
    assert isinstance(rep["wall_time_ms"], float)
    read = [a for a in argv if a.startswith(str(tmp_path))]
    assert rep["inputs"] == {
        path: hashlib.sha256(Path(path).read_bytes()).hexdigest() for path in read
    }
    if name in ("pipeline-paley", "rank-baseline"):
        assert rep["inputs"] == {}


@pytest.mark.parametrize("name", sorted(GOLDEN_CASES))
def test_pipeline_matches_golden(capsys, name, monkeypatch):
    monkeypatch.delenv("DRT_THREADS", raising=False)
    code, rep = report_of(capsys, GOLDEN_CASES[name])
    assert code == 0
    with open(GOLDEN_DIR / f"{name}.json") as fh:
        assert rep["results"] == json.load(fh)


def test_results_identical_across_thread_counts(capsys, monkeypatch):
    payloads = []
    for threads in ("1", "4"):
        monkeypatch.setenv("DRT_THREADS", threads)
        _, rep = report_of(capsys, GOLDEN_CASES["pipeline_z3pow3"])
        payloads.append(json.dumps(rep["results"], sort_keys=True))
    assert payloads[0] == payloads[1]


# --------------------------------------------------------------- round trips


def test_paley_to_verify_to_cayley(capsys, tmp_path):
    dpath = tmp_path / "d7.txt"
    assert main(["diffset", "paley", "--p", "7", "-o", str(dpath)]) == 0
    assert dpath.read_text() == "Z7\n1 2 4\n"

    code, rep = report_of(capsys, ["diffset", "verify", str(dpath)])
    assert code == 0
    assert rep["results"]["shds"]["ok"] is True
    assert str(dpath) in rep["inputs"]
    assert len(rep["inputs"][str(dpath)]) == 64  # sha256 hex

    tpath = tmp_path / "t7.txt"
    assert main(["tourney", "cayley", str(dpath), "-o", str(tpath)]) == 0
    code, rep = report_of(capsys, ["tourney", "verify", str(tpath)])
    assert code == 0
    assert rep["results"]["doubly_regular"]["ok"] is True
    assert rep["results"]["gram"]["ok"] is True


def test_paley_writes_stdout_by_default(capsys):
    assert main(["diffset", "paley", "--p", "11"]) == 0
    assert capsys.readouterr().out == "Z11\n1 3 4 5 9\n"


def test_verify_failure_exits_1(capsys, tmp_path):
    path = tmp_path / "bad.txt"
    path.write_text("Z7\n1 2 3\n")
    code, rep = report_of(capsys, ["diffset", "verify", str(path)])
    assert code == 1
    assert rep["results"]["shds"]["ok"] is False


def test_cayley_rejects_non_skew_with_exit_1(tmp_path, capsys):
    path = tmp_path / "notskew.txt"
    path.write_text("Z7\n2 3 5\n")
    assert main(["tourney", "cayley", str(path)]) == 1
    assert capsys.readouterr().err == (
        "drt: set is not skew: both (2,) and -(2,) = (5,) present\n"
    )


@pytest.mark.parametrize("exc", [MemoryError, AssertionError, RuntimeError])
def test_any_exception_exits_2_with_one_line(monkeypatch, capsys, exc):
    # exit 1 is a verdict; a crash inside a command must never read as one
    def boom(*args):
        raise exc("boom")

    monkeypatch.setattr(cli, "random_tournament", boom)
    with pytest.raises(SystemExit) as info:
        main(["tourney", "random", "--n", "5"])
    assert info.value.code == 2
    err = capsys.readouterr().err
    assert err == f"drt: error: {exc.__name__}: boom\n"
    assert "Traceback" not in err


def test_parse_error_exits_2(tmp_path):
    path = tmp_path / "mangled.txt"
    path.write_text("Z7\n1 2 99\n")
    with pytest.raises(SystemExit) as exc:
        main(["diffset", "verify", str(path)])
    assert exc.value.code == 2


def test_missing_file_exits_2():
    with pytest.raises(SystemExit) as exc:
        main(["rank", "exact", "no/such/file.txt"])
    assert exc.value.code == 2


def test_unknown_subcommand_exits_2():
    with pytest.raises(SystemExit) as exc:
        main(["rank", "psychic"])
    assert exc.value.code == 2


def test_bad_inputs_exit_2_without_traceback(tmp_path):
    t25, t17 = tmp_path / "t25.txt", tmp_path / "t17.txt"
    assert main(["tourney", "random", "--n", "25", "-o", str(t25)]) == 0
    assert main(["tourney", "random", "--n", "17", "-o", str(t17)]) == 0
    huge = tmp_path / "huge.txt"
    huge.write_text("Z3^1000000000\n1\n")
    cases = [
        ["pipeline", "paley", "--p", "31", "--rank-cap", "31"],
        ["pipeline", "paley", "--p", "31", "--samples", "0"],
        ["rank", "baseline", "--n", "1"],
        ["tourney", "random", "--n", "5", "-o", str(tmp_path / "missing" / "x")],
        ["rank", "exact", str(t25)],  # over DP_CAP = 24
        ["discrepancy", "sweep", str(t17)],  # over SWEEP_CAP = 16
        # over the sampled check's n <= 900: refused before the tournament is built
        ["pipeline", "paley", "--p", "907"],
        # over ORDER_CAP = 2^16: refused before the field or group is built
        ["pipeline", "paley", "--p", "3", "--k", str(10**9)],
        ["diffset", "paley", "--p", "3", "--k", str(10**9)],
        ["diffset", "verify", str(huge)],
        # refused before the n-row list is allocated
        ["tourney", "random", "--n", str(10**9)],
    ]
    for argv in cases:
        started = time.perf_counter()
        proc = subprocess.run(
            [sys.executable, "-m", "drt.cli", *argv],
            capture_output=True, text=True, timeout=60,
        )
        assert time.perf_counter() - started < 5, argv
        assert proc.returncode == 2, (argv, proc.stderr)
        assert proc.stderr.startswith("drt: error:"), (argv, proc.stderr)
        assert "Traceback" not in proc.stderr, argv


# ------------------------------------------------------------------ commands


def test_tourney_random_deterministic(capsys):
    main(["tourney", "random", "--n", "9", "--seed", "4"])
    first = capsys.readouterr().out
    main(["tourney", "random", "--n", "9", "--seed", "4"])
    assert capsys.readouterr().out == first
    assert first.splitlines()[0] == "9"


def test_rank_exact_report(capsys, tmp_path):
    tpath = tmp_path / "t.txt"
    main(["diffset", "paley", "--p", "7", "-o", str(tmp_path / "d.txt")])
    main(["tourney", "cayley", str(tmp_path / "d.txt"), "-o", str(tpath)])
    code, rep = report_of(capsys, ["rank", "exact", str(tpath)])
    assert code == 0
    res = rep["results"]
    assert res["value"] == 14
    assert res["method"] == "exact-dp"
    assert sorted(res["ranking"]) == list(range(1, 8))
    assert res["ratio"] == pytest.approx(14 / 21)


def test_rank_heuristic_strategies(capsys, tmp_path):
    tpath = tmp_path / "t.txt"
    main(["tourney", "random", "--n", "12", "--seed", "0", "-o", str(tpath)])
    values = {}
    for strategy in ("out-degree", "local-search"):
        code, rep = report_of(capsys, ["rank", "heuristic", str(tpath), "--strategy", strategy])
        assert code == 0
        values[strategy] = rep["results"]["value"]
    assert values["local-search"] >= values["out-degree"] >= 33  # half of 66


def test_rank_baseline_report(capsys):
    code, rep = report_of(capsys, ["rank", "baseline", "--n", "8", "--trials", "6", "--seed", "3"])
    assert code == 0
    res = rep["results"]
    assert res["trials"] == 6
    assert 0.5 <= res["min_ratio"] <= res["mean_ratio"] <= res["max_ratio"] <= 1.0
    code2, rep2 = report_of(capsys, ["rank", "baseline", "--n", "8", "--trials", "6", "--seed", "3"])
    assert rep2["results"] == res


def test_discrepancy_sweep_violation_exits_1(capsys, tmp_path):
    # transitive tournament: mixing fails somewhere
    tpath = tmp_path / "trans.txt"
    rows = ["".join("1" if j > i else "0" for j in range(8)) for i in range(8)]
    tpath.write_text("8\n" + "\n".join(rows) + "\n")
    code, rep = report_of(capsys, ["discrepancy", "sweep", str(tpath)])
    assert code == 1
    assert rep["results"]["violations"] > 0


def test_discrepancy_sample_and_bounds(capsys, tmp_path):
    dpath, tpath = tmp_path / "d.txt", tmp_path / "t.txt"
    main(["diffset", "paley", "--p", "19", "-o", str(dpath)])
    main(["tourney", "cayley", str(dpath), "-o", str(tpath)])
    code, rep = report_of(
        capsys, ["discrepancy", "sample", str(tpath), "--samples", "400", "--seed", "2"]
    )
    assert code == 0
    assert rep["results"]["violations"] == 0
    assert rep["results"]["pairs_checked"] == 400
    assert rep["results"]["seed"] == 2

    code, rep = report_of(capsys, ["discrepancy", "bounds", str(tpath)])
    assert code == 0
    res = rep["results"]
    assert res["c_method"] == "exact-dp"
    assert res["sigma_gap"]["holds"] and res["theorem"]["holds"]
    assert res["theorem"]["vacuous"] is True

    code, rep = report_of(
        capsys, ["discrepancy", "bounds", str(tpath), "--c-value", "100"]
    )
    assert rep["results"]["c_method"] == "given"
    assert rep["results"]["c_value"] == 100


def test_discrepancy_bounds_past_dp_cap_uses_local_search(capsys, tmp_path):
    dpath, tpath = tmp_path / "d.txt", tmp_path / "t.txt"
    main(["diffset", "paley", "--p", "3", "--k", "3", "-o", str(dpath)])
    main(["tourney", "cayley", str(dpath), "-o", str(tpath)])
    code, rep = report_of(capsys, ["discrepancy", "bounds", str(tpath)])
    assert code == 0
    res = rep["results"]
    assert res["n"] == 27
    assert res["c_method"] == "local-search"
    assert 2 * res["c_value"] >= 27 * 26 // 2
    assert res["sigma_gap"]["holds"] and res["theorem"]["holds"]


def test_classify_cli(capsys, tmp_path):
    paths = []
    for i, indices in enumerate(["1 2 4", "3 5 6", "1 2 3"]):
        path = tmp_path / f"s{i}.txt"
        path.write_text(f"Z7\n{indices}\n")
        paths.append(str(path))
    code, rep = report_of(capsys, ["diffset", "classify", *paths])
    assert code == 0
    assert rep["results"]["class_count"] == 2
    assert rep["results"]["classes"] == [[0, 1], [2]]


def test_classify_rejects_mixed_groups(tmp_path):
    a = tmp_path / "a.txt"
    b = tmp_path / "b.txt"
    a.write_text("Z7\n1 2 4\n")
    b.write_text("Z11\n1 3 4 5 9\n")
    with pytest.raises(SystemExit) as exc:
        main(["diffset", "classify", str(a), str(b)])
    assert exc.value.code == 2


# -------------------------------------------------------------------- pretty


def test_pretty_rendering(capsys, tmp_path):
    dpath = tmp_path / "d.txt"
    main(["diffset", "paley", "--p", "7", "-o", str(dpath)])
    capsys.readouterr()
    code = main(["diffset", "verify", str(dpath), "--pretty"])
    out = capsys.readouterr().out
    assert code == 0
    assert "results.shds.ok" in out
    assert "True" in out
    # pretty mode is a rendering of the same payload, not JSON
    with pytest.raises(json.JSONDecodeError):
        json.loads(out)


# --------------------------------------------------------------- entry point


def test_console_script_runs():
    proc = subprocess.run(
        [sys.executable, "-m", "drt.cli", "pipeline", "paley", "--p", "3"],
        capture_output=True, text=True,
    )
    assert proc.returncode == 0
    rep = json.loads(proc.stdout)
    assert rep["results"]["n"] == 3


def test_version_flag(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["--version"])
    assert exc.value.code == 0
    assert "drt" in capsys.readouterr().out
