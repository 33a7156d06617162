from __future__ import annotations

import argparse
import ast
import gc
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


def _paley7_files(tmp_path: Path) -> dict[str, str]:
    """Paths of the Paley 7 diffset file {d7} and its tournament file {t7}."""
    paths = {k: str(tmp_path / k) for k in ("d7", "t7")}
    Path(paths["d7"]).write_text("Z7\n1 2 4\n")
    assert main(["tourney", "cayley", paths["d7"], "-o", paths["t7"]]) == 0
    return paths


def _openssl_digests(argv: list[str], tmp_path: Path) -> dict[str, str]:
    """What a report's `inputs` must hold: hashlib's sha256 of each file read."""
    read = [a for a in argv if a.startswith(str(tmp_path))]
    return {path: hashlib.sha256(Path(path).read_bytes()).hexdigest() for path in read}


@pytest.mark.parametrize("name", sorted(REPORT_COMMANDS))
def test_report_envelope(capsys, tmp_path, name):
    paths = _paley7_files(tmp_path)
    paths["neg7"] = str(tmp_path / "neg7")
    Path(paths["neg7"]).write_text("Z7\n3 5 6\n")
    argv = [a.format(**paths) for a in REPORT_COMMANDS[name]]
    code, rep = report_of(capsys, argv)
    assert code == 0
    assert sorted(rep) == ["command", "inputs", "results", "schema_version",
                           "tool_version", "wall_time_ms"]
    assert rep["schema_version"] == 1
    assert rep["command"] == " ".join(argv[:2])
    assert isinstance(rep["wall_time_ms"], float)
    assert rep["inputs"] == _openssl_digests(argv, tmp_path)
    if name in ("pipeline-paley", "rank-baseline"):
        assert rep["inputs"] == {}


@pytest.mark.parametrize("name", sorted(GOLDEN_CASES))
def test_pipeline_matches_golden(capsys, name):
    code, rep = report_of(capsys, GOLDEN_CASES[name])
    assert code == 0
    with open(GOLDEN_DIR / f"{name}.json") as fh:
        assert rep["results"] == json.load(fh)


def test_drt_threads_is_ignored(capsys, monkeypatch):
    payloads = []
    for threads in ("1", "4"):
        monkeypatch.setenv("DRT_THREADS", threads)
        _, rep = report_of(capsys, GOLDEN_CASES["pipeline_z3pow3"])
        payloads.append(json.dumps(rep["results"], sort_keys=True))
    assert payloads[0] == payloads[1]


@pytest.mark.parametrize("q", [7, 11, 19, 23])
def test_pipeline_sections_are_the_single_commands_results(capsys, tmp_path, q):
    dpath, tpath = str(tmp_path / "d.txt"), str(tmp_path / "t.txt")
    assert main(["diffset", "paley", "--p", str(q), "-o", dpath]) == 0
    assert main(["tourney", "cayley", dpath, "-o", tpath]) == 0

    def results(*argv):
        code, rep = report_of(capsys, list(argv))
        assert code == 0
        return rep["results"]

    pipe = results("pipeline", "paley", "--p", str(q))
    shds = results("diffset", "verify", dpath)
    for key in ("group", "n", "shds"):
        assert pipe[key] == shds[key]
    verify = results("tourney", "verify", tpath)
    assert {key: pipe[key] for key in verify} == verify
    if q <= cli.PIPELINE_RANK_CAP:
        assert pipe["rank"] == results("rank", "exact", tpath)
        # both rank exactly here, so the bounds are checked on the same ranking
        c_value = str(pipe["rank"]["value"])
        bounds = results("discrepancy", "bounds", tpath, "--c-value", c_value)
        for key in ("sigma_gap", "theorem"):
            assert pipe[key] == bounds[key]
    else:
        assert pipe["rank"]["lower_bound"] == results("rank", "heuristic", tpath)
    if q <= cli.SWEEP_CAP:
        assert pipe["mixing"] == results("discrepancy", "sweep", tpath)
    else:
        sample = results("discrepancy", "sample", tpath,
                         "--samples", str(cli.PIPELINE_SAMPLES), "--seed", "0")
        assert sample.pop("seed") == 0
        assert pipe["mixing"] == sample


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


def test_tourney_verify_failure_exits_1(capsys, tmp_path):
    tpath = str(tmp_path / "r9.txt")
    assert main(["tourney", "random", "--n", "9", "--seed", "3", "-o", tpath]) == 0
    code, rep = report_of(capsys, ["tourney", "verify", tpath])
    assert code == 1
    assert rep["results"]["doubly_regular"]["ok"] is False
    assert rep["results"]["gram"]["ok"] is False


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


def test_non_ascii_group_spec_exits_2(tmp_path, capsys):
    # \d and int() both read Z\u0667 as Z7, a group that would verify.
    path = tmp_path / "z7.txt"
    path.write_text("Z\u0667\n1 2 4\n", encoding="utf-8")
    with pytest.raises(SystemExit) as exc:
        main(["diffset", "verify", str(path)])
    assert exc.value.code == 2
    assert "line 1: bad group spec token" in capsys.readouterr().err


def test_missing_file_exits_2():
    with pytest.raises(SystemExit) as exc:
        main(["rank", "exact", "no/such/file.txt"])
    assert exc.value.code == 2


def test_unknown_subcommand_exits_2():
    with pytest.raises(SystemExit) as exc:
        main(["rank", "psychic"])
    assert exc.value.code == 2


USAGES = [
    "usage: drt diffset paley [-h] --p P [--k K] [-o OUTPUT]",
    "usage: drt diffset verify [-h] [--pretty] file",
    "usage: drt diffset classify [-h] [--pretty] files [files ...]",
    "usage: drt tourney cayley [-h] [-o OUTPUT] file",
    "usage: drt tourney verify [-h] [--pretty] file",
    "usage: drt tourney random [-h] --n N [--seed SEED] [-o OUTPUT]",
    "usage: drt rank exact [-h] [--pretty] file",
    "usage: drt rank heuristic [-h] [--strategy {out-degree,local-search}]"
    " [--pretty] file",
    "usage: drt rank baseline [-h] --n N [--trials TRIALS] [--seed SEED] [--pretty]",
    "usage: drt discrepancy sweep [-h] [--pretty] file",
    "usage: drt discrepancy sample [-h] [--samples SAMPLES] [--seed SEED]"
    " [--pretty] file",
    "usage: drt discrepancy bounds [-h] [--c-value C_VALUE] [--pretty] file",
    "usage: drt pipeline paley [-h] --p P [--k K] [--samples SAMPLES]"
    " [--rank-cap RANK_CAP] [--seed SEED] [--pretty]",
]


def test_subcommand_usages(monkeypatch):
    # wide enough that no usage wraps, so the lines do not depend on how a
    # Python version wraps them
    monkeypatch.setenv("COLUMNS", "200")

    def subparsers(parser):
        action = next(a for a in parser._actions
                      if isinstance(a, argparse._SubParsersAction))
        return action.choices.values()

    usages = [sub.format_usage() for group in subparsers(cli.build_parser())
              for sub in subparsers(group)]
    assert usages == [f"{usage}\n" for usage in USAGES]


def _typed_options(parser: argparse.ArgumentParser, path: tuple[str, ...] = ()):
    """(argv, action) for every option of `parser` and its subparsers that
    converts its value: argv names the subcommand and fills its positionals
    and required options with valid values, so only the option tried fails."""
    argv = list(path)
    typed = []
    for action in parser._actions:
        if isinstance(action, argparse._SubParsersAction):
            for name, sub in action.choices.items():
                yield from _typed_options(sub, (*path, name))
        elif not action.option_strings:
            argv.append("x")
        elif action.required:
            argv += [action.option_strings[-1], "7"]
        if action.type is not None:
            typed.append(action)
    for action in typed:
        yield argv, action


TYPED_OPTIONS = list(_typed_options(cli.build_parser()))
INTEGER_OPTIONS = [(argv, action.option_strings[-1]) for argv, action in TYPED_OPTIONS]


def test_every_typed_option_is_an_ascii_integer():
    # A new option with type=int would be collected here and fail.
    assert all(action.type is cli.integer for _, action in TYPED_OPTIONS)
    assert {option for _, option in INTEGER_OPTIONS} == {
        "--p", "--k", "--n", "--seed", "--samples", "--trials", "--c-value",
        "--rank-cap",
    }


@pytest.mark.parametrize(
    "argv, option", INTEGER_OPTIONS,
    ids=[f"{' '.join(argv[:2])} {option}" for argv, option in INTEGER_OPTIONS],
)
def test_integer_options_take_ascii_decimals_only(capsys, argv, option):
    # int() would read all three as 7 or 10.
    for bad in ("+7", "1_0", "٧"):
        with pytest.raises(SystemExit) as exc:
            main([*argv, option, bad])
        assert exc.value.code == 2, bad
        err = capsys.readouterr().err
        assert f"argument {option}: invalid integer value: {bad!r}" in err
        assert "Traceback" not in err
    dest = option.lstrip("-").replace("-", "_")
    args = cli.build_parser().parse_args([*argv, option, "-3"])
    assert getattr(args, dest) == -3


def test_bad_inputs_exit_2_without_traceback(tmp_path):
    t25, t17 = tmp_path / "t25.txt", tmp_path / "t17.txt"
    assert main(["tourney", "random", "--n", "25", "-o", str(t25)]) == 0
    assert main(["tourney", "random", "--n", "17", "-o", str(t17)]) == 0
    huge = tmp_path / "huge.txt"
    huge.write_text("Z3^1000000000\n1\n")
    good, malformed = tmp_path / "d7.txt", tmp_path / "bad7.txt"
    good.write_text("Z7\n1 2 4\n")
    malformed.write_text("Z7\n1 2 x\n")
    cases = [
        ["pipeline", "paley", "--p", "31", "--rank-cap", "31"],
        ["pipeline", "paley", "--p", "31", "--samples", "0"],
        # q <= SWEEP_CAP never samples, and q = 27 is over DP_CAP = 24: both
        # refused before the tournament is built
        ["pipeline", "paley", "--p", "7", "--samples", "-5"],
        ["pipeline", "paley", "--p", "3", "--k", "3", "--rank-cap", "30"],
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
        ["diffset", "classify", str(good), str(malformed)],  # a bad file after a good one
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


def test_pipeline_refuses_a_negative_rank_cap_before_the_field(monkeypatch, capsys):
    def boom(*args):
        raise AssertionError("field built")

    monkeypatch.setattr(cli, "make_field", boom)
    with pytest.raises(SystemExit) as info:
        main(["pipeline", "paley", "--p", "7", "--rank-cap", "-1"])
    assert info.value.code == 2
    err = capsys.readouterr().err
    assert err == "drt: error: --rank-cap must be at least 0, got -1\n"


@pytest.mark.parametrize("argv, message", [
    (["--p", "907"], "pipeline paley supports q = p^k <= 900, got q = 907"),
    (["--p", "7", "--samples", "0"], "need at least one sample, got 0"),
    (["--p", "3", "--k", "3", "--rank-cap", "30"],
     "exact DP capped at n = 24, its memory doubling per vertex;"
     " use heuristic_rank for n = 27"),
], ids=["q907", "samples0", "rank-cap30"])
def test_pipeline_refuses_before_the_paley_set(monkeypatch, capsys, argv, message):
    reached = []

    def boom(*args):
        reached.append(args)
        raise AssertionError("Paley set built")

    monkeypatch.setattr(cli, "paley_set", boom)
    with pytest.raises(SystemExit) as info:
        main(["pipeline", "paley", *argv])
    assert info.value.code == 2
    assert capsys.readouterr().err == f"drt: error: {message}\n"
    assert reached == []


def test_rank_exact_enters_the_dp_once(monkeypatch, capsys, tmp_path):
    # A tracer wraps every binding of exact_max_consistent in the drt modules;
    # the DP's own recursion at n = 23 must not go back through that name.
    path = tmp_path / "t23.txt"
    assert main(["tourney", "random", "--n", "23", "--seed", "5", "-o", str(path)]) == 0
    original = cli.exact_max_consistent
    calls = []

    def counted(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    for name, mod in list(sys.modules.items()):
        if name == "drt" or name.startswith("drt."):
            for attr, value in list(vars(mod).items()):
                if value is original:
                    monkeypatch.setattr(mod, attr, counted)
    assert main(["rank", "exact", str(path)]) == 0
    assert json.loads(capsys.readouterr().out)["results"]["method"] == "exact-dp"
    assert len(calls) == 1


def test_main_parses_each_input_file_once_through_the_module_names(
        monkeypatch, capsys, tmp_path):
    # perfbench's tracer rebinds drt.cli.parse_tournament, so main must reach
    # the parsers through cli's module-level names, once per file read
    paths = _paley7_files(tmp_path)
    calls = []
    for name in ("parse_tournament", "parse_diffset"):
        def counted(text, name=name, original=getattr(cli, name)):
            calls.append(name)
            return original(text)
        monkeypatch.setattr(cli, name, counted)
    assert main(["rank", "exact", paths["t7"]]) == 0
    assert calls == ["parse_tournament"]
    calls.clear()
    assert main(["diffset", "classify", paths["d7"], paths["d7"]]) == 0
    assert calls == ["parse_diffset"] * 2
    capsys.readouterr()


def test_pipeline_rank_cap_at_or_below_dp_cap_still_ranks_exactly(capsys):
    code, rep = report_of(capsys, ["pipeline", "paley", "--p", "23", "--rank-cap", "23"])
    assert code == 0
    rank = rep["results"]["rank"]
    assert (rank["method"], rank["value"]) == ("exact-dp", 161)


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


def _transitive_file(tmp_path: Path, n: int) -> str:
    """Path of a file holding the transitive tournament on n vertices."""
    path = tmp_path / f"trans{n}.txt"
    rows = ["".join("1" if j > i else "0" for j in range(n)) for i in range(n)]
    path.write_text(f"{n}\n" + "\n".join(rows) + "\n")
    return str(path)


def test_discrepancy_sweep_violation_exits_1(capsys, tmp_path):
    # transitive tournament: mixing fails somewhere
    code, rep = report_of(capsys, ["discrepancy", "sweep", _transitive_file(tmp_path, 8)])
    assert code == 1
    assert rep["results"]["violations"] > 0


def test_discrepancy_sample_violation_exits_1(capsys, tmp_path):
    argv = ["discrepancy", "sample", _transitive_file(tmp_path, 12), "--samples", "2000"]
    code, rep = report_of(capsys, argv)
    assert code == 1
    assert rep["results"]["violations"] > 0


def test_discrepancy_bounds_gap_failure_exits_1(capsys, tmp_path):
    # Past DP_CAP local search ranks the transitive tournament in its own
    # order, and the mirror puts every arc backwards: the gap is binom(n, 2),
    # above n^1.5 log2(2n) at n = 400.
    code, rep = report_of(capsys, ["discrepancy", "bounds", _transitive_file(tmp_path, 400)])
    assert code == 1
    res = rep["results"]
    assert res["c_method"] == "local-search"
    assert res["sigma_gap"]["gap"] == 400 * 399 // 2
    assert res["sigma_gap"]["holds"] is False


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


@pytest.mark.parametrize("n, c_value", [(7, "-1"), (7, "22"), (27, "352")])
def test_discrepancy_bounds_refuses_c_value_before_ranking(
    monkeypatch, capsys, tmp_path, n, c_value
):
    def boom(*args, **kwargs):
        raise AssertionError("ranked before the --c-value range check")

    monkeypatch.setattr(cli, "exact_max_consistent", boom)
    monkeypatch.setattr(cli, "heuristic_rank", boom)
    tpath = tmp_path / "t.txt"
    assert main(["tourney", "random", "--n", str(n), "-o", str(tpath)]) == 0
    with pytest.raises(SystemExit) as info:
        main(["discrepancy", "bounds", str(tpath), "--c-value", c_value])
    assert info.value.code == 2
    total = n * (n - 1) // 2
    assert capsys.readouterr().err == (
        f"drt: error: c_value {c_value} outside 0..{total}\n"
    )


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


def test_discrepancy_bounds_states_the_paper_bound_at_paley_2399(capsys, tmp_path):
    # n = 2,394 is the first order where the paper's bound says more than
    # C(T) <= binom(n, 2), and 2,399 is the first Paley order past it
    dpath, tpath = tmp_path / "d.txt", tmp_path / "t.txt"
    assert main(["diffset", "paley", "--p", "2399", "-o", str(dpath)]) == 0
    assert main(["tourney", "cayley", str(dpath), "-o", str(tpath)]) == 0
    code, rep = report_of(capsys, ["discrepancy", "bounds", str(tpath)])
    assert code == 0
    res = rep["results"]
    assert res["c_method"] == "local-search"
    assert res["c_value"] == 1_508_971
    theorem = res["theorem"]
    assert not theorem["vacuous"] and theorem["holds"]
    assert theorem["rhs"] < 2399 * 2398 // 2 == 2_876_401
    assert res["sigma_gap"]["holds"]


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


def test_classify_refuses_a_scan_past_the_cap(capsys, tmp_path):
    # two skew Hadamard difference sets share their difference profile, so
    # only the scan could tell them apart, and on Z2003 it is too long
    paths = [str(tmp_path / name) for name in ("d.txt", "neg.txt")]
    assert main(["diffset", "paley", "--p", "2003", "-o", paths[0]]) == 0
    members = Path(paths[0]).read_text().split("\n")[1].split()
    negated = sorted((-int(x)) % 2003 for x in members)
    Path(paths[1]).write_text(f"Z2003\n{' '.join(map(str, negated))}\n")
    with pytest.raises(SystemExit) as exc:
        main(["diffset", "classify", *paths])
    assert exc.value.code == 2
    assert capsys.readouterr().err == (
        "drt: error: an equivalence scan in Z2003 tries 4010006 maps,"
        " above the scan cap of 1048576\n"
    )


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


def _pretty_values(out: str) -> dict[str, str]:
    """Each `--pretty` line's key and its rendered value."""
    return {key: value.strip()
            for key, _, value in (line.partition(" ") for line in out.splitlines())}


def test_pretty_renders_an_empty_dict_as_braces(capsys):
    code, out = run(capsys, ["pipeline", "paley", "--p", "3", "--pretty"])
    assert code == 0
    assert _pretty_values(out)["inputs"] == "{}"


@pytest.mark.parametrize("argv, key", [
    (["rank", "exact"], "results.ratio"),
    (["discrepancy", "sweep"], "results.worst_pair"),
])
def test_pretty_renders_none_on_one_vertex(capsys, tmp_path, argv, key):
    tpath = tmp_path / "t1.txt"
    tpath.write_text("1\n0\n")
    code, out = run(capsys, [*argv, str(tpath), "--pretty"])
    assert code == 0
    assert _pretty_values(out)[key] == "None"


# --------------------------------------------------------------- entry point


ROOT = Path(__file__).parent.parent

# Runs one launch line in a fresh interpreter; an exit handler then reports
# whether the process froze its import-time objects and whether it loaded
# OpenSSL, after the command has run.
ENTRY_PROBE = """
import atexit, gc, runpy, sys
atexit.register(lambda: print(gc.get_freeze_count() > 0,
                              "_hashlib" in sys.modules, file=sys.stderr))
{launch}
"""


def _console_script() -> tuple[str, str]:
    """Module and function that pyproject.toml's `drt` script runs."""
    tomllib = pytest.importorskip("tomllib")  # Python 3.11+
    meta = tomllib.loads((ROOT / "pyproject.toml").read_text())
    module, _, func = meta["project"]["scripts"]["drt"].partition(":")
    return module, func


# What each probed command reads, as files under the test's tmp directory.
ENTRY_COMMANDS = {
    "version": ["--version"],
    "pipeline": ["pipeline", "paley", "--p", "3"],
    "rank-exact": ["rank", "exact", "{t7}"],
    "sweep": ["discrepancy", "sweep", "{t7}"],
    "sample": ["discrepancy", "sample", "{t7}", "--samples", "100"],
    "tourney-verify": ["tourney", "verify", "{t7}"],
    "diffset-verify": ["diffset", "verify", "{d7}"],
}


@pytest.mark.parametrize("name", list(ENTRY_COMMANDS))
@pytest.mark.parametrize("launch", ["module", "script"])
def test_entry_freezes_imports_and_leaves_openssl_unloaded(name, launch, tmp_path):
    if launch == "module":  # what `python -m drt.cli` does
        line = "runpy.run_module('drt.cli', run_name='__main__', alter_sys=True)"
    else:  # what the installed `drt` wrapper does
        module, func = _console_script()
        line = f"from {module} import {func}; sys.exit({func}())"
    paths = _paley7_files(tmp_path)
    argv = [a.format(**paths) for a in ENTRY_COMMANDS[name]]
    proc = subprocess.run(
        [sys.executable, "-c", ENTRY_PROBE.format(launch=line), *argv],
        capture_output=True, text=True,
    )
    assert proc.returncode == 0, proc.stderr
    if name == "version":
        assert proc.stdout.startswith("drt ")
    else:
        assert json.loads(proc.stdout)["inputs"] == _openssl_digests(argv, tmp_path)
    assert proc.stderr == "True False\n"


@pytest.mark.parametrize("blocked", [("_sha2",), ("_sha2", "_sha256")],
                         ids=["sha256", "hashlib"])
def test_load_falls_back_to_hashlib(capsys, monkeypatch, tmp_path, blocked):
    # A None entry in sys.modules makes an import of that name fail.
    for name in blocked:
        monkeypatch.setitem(sys.modules, name, None)
    paths = _paley7_files(tmp_path)
    for argv in (["diffset", "verify", paths["d7"]], ["rank", "exact", paths["t7"]]):
        code, rep = report_of(capsys, argv)
        assert code == 0
        assert rep["inputs"] == _openssl_digests(argv, tmp_path)


def test_console_script_is_the_module_entry():
    module, func = _console_script()
    assert module == "drt.cli"
    tree = ast.parse(Path(cli.__file__).read_text())
    guards = [node for node in tree.body if isinstance(node, ast.If)
              and ast.unparse(node.test) == "__name__ == '__main__'"]
    assert [ast.unparse(s) for g in guards for s in g.body] == [f"{func}()"]


def test_only_the_entry_freezes(monkeypatch):
    # main runs many times in one process (tests, the traced benchmark), so
    # it must leave each call's garbage collectable
    frozen = gc.get_freeze_count()
    assert main(["pipeline", "paley", "--p", "3"]) == 0
    assert gc.get_freeze_count() == frozen
    monkeypatch.setattr(sys, "argv", ["drt", "--version"])
    try:
        with pytest.raises(SystemExit) as exc:
            cli.entry()
        assert exc.value.code == 0
        assert gc.get_freeze_count() > frozen
    finally:
        gc.unfreeze()


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
