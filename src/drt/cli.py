"""drt: construct, verify, rank, and stress-test doubly regular tournaments.

Report-emitting subcommands print a single JSON object to stdout:

    {schema_version, tool_version, command, inputs, results, wall_time_ms}

`main` reads, hashes and parses every input file a command names, and
passes the parsed objects to its handler.  A handler returns its `results`
(None when it writes a file instead) and whether its verdicts passed; `main`
times it and wraps the results in this envelope.  `main` alone sets the
exit code: 0 when every check passes, 1 when a verdict fails or a violation
is found, 2 for usage errors and every exception, printed as one
`drt: error:` line.

`inputs` maps each input path to its sha256; `results` is deterministic given
the same inputs and seed (wall_time_ms is the one field outside that
contract).  `--pretty` renders the same payload as aligned text.  `drt`
starts no threads of its own; numpy's BLAS may use several for the float32
matrix products, whose results are the same in any summation order (see
`tourney._F32_EXACT`).
"""

from __future__ import annotations

import argparse
import dataclasses
import gc
import json
import sys
import time
from pathlib import Path
from typing import Optional

from . import __version__
from .diffset import (
    classify,
    format_diffset,
    is_shds,
    is_skew,
    paley_set,
    parse_diffset,
)
from .discrepancy import (
    SAMPLE_CAP,
    SWEEP_CAP,
    check_sigma_gap,
    check_theorem_bound,
    exhaustive_mixing_check,
    mask_vertices,
    sampled_mixing_check,
)
from .groups import _decimal, format_group_spec, make_field
from .ranking import (
    DP_CAP,
    RankingResult,
    _check_dp_cap,
    exact_max_consistent,
    heuristic_rank,
    random_baseline,
)
from .tourney import (
    Tournament,
    cayley_tournament,
    format_tournament,
    is_doubly_regular,
    parse_tournament,
    random_tournament,
    verify_gram_identities,
)

PIPELINE_RANK_CAP = 20
PIPELINE_SAMPLES = 20_000

# A handler's report `results` (None when it writes a file instead) and whether
# its verdicts passed, given the objects `main` parsed from its input files;
# `main` maps that to exit 0 or 1, and any exception to 2.
Outcome = tuple[Optional[dict], bool]


def _load(path: str, inputs: dict[str, str], parse):
    """`parse` applied to the file's text; its sha256 goes into `inputs`."""
    # CPython's built-in SHA-256 (`_sha2` from 3.12, `_sha256` before), so
    # that no command maps OpenSSL's libcrypto: `hashlib` would, and it is
    # imported here only where neither built-in exists.
    try:
        from _sha2 import sha256
    except ImportError:
        try:
            from _sha256 import sha256
        except ImportError:
            from hashlib import sha256

    data = Path(path).read_bytes()
    inputs[path] = sha256(data).hexdigest()
    try:
        return parse(data.decode("utf-8"))  # a UnicodeDecodeError is a ValueError
    except ValueError as e:
        raise ValueError(f"{path}: {e}") from None


def _write_output(text: str, path: str | None) -> None:
    if path is None:
        sys.stdout.write(text)
    else:
        Path(path).write_text(text)


def _emit(command: str, inputs: dict[str, str], results: dict,
          started: float, pretty: bool) -> None:
    report = {
        "schema_version": 1,
        "tool_version": __version__,
        "command": command,
        "inputs": inputs,
        "results": results,
        "wall_time_ms": round((time.perf_counter() - started) * 1000, 3),
    }
    if pretty:
        lines: list[tuple[str, object]] = []
        _flatten("", report, lines)
        width = max(len(k) for k, _ in lines)
        for key, value in lines:
            print(f"{key:<{width}}  {value}")
    else:
        print(json.dumps(report, sort_keys=True))


def _flatten(prefix: str, obj, lines: list[tuple[str, object]]) -> None:
    if isinstance(obj, dict):
        if not obj:
            lines.append((prefix.rstrip("."), "{}"))
        for key in sorted(obj):
            _flatten(f"{prefix}{key}.", obj[key], lines)
    elif isinstance(obj, (list, tuple)):
        lines.append((prefix.rstrip("."), " ".join(str(v) for v in obj)))
    else:
        lines.append((prefix.rstrip("."), obj))


def _shds_dict(d) -> tuple[dict, bool]:
    """The group, order and skew Hadamard verdict of `d`, and whether it holds."""
    shds = is_shds(d)
    results = {"group": format_group_spec(d.group.moduli), "n": d.group.order,
               "shds": dataclasses.asdict(shds)}
    return results, shds.ok


def _verify_dict(t: Tournament) -> tuple[dict, bool]:
    """The double regularity and Gram verdicts of `t`, and whether both hold."""
    dr = is_doubly_regular(t)
    gram = verify_gram_identities(t)
    results = {"n": t.n, "doubly_regular": dataclasses.asdict(dr),
               "gram": dataclasses.asdict(gram)}
    return results, dr.ok and gram.ok


def _rank_dict(t: Tournament, r: RankingResult) -> tuple[dict, bool]:
    """The ranking `r` of `t` as a report entry; a ranking has no verdict."""
    total = t.n * (t.n - 1) // 2
    results = {
        "n": t.n,
        "value": r.value,
        "ratio": r.value / total if total else None,
        "method": r.method,
        "ranking": list(r.ranking),
        "work": r.work,
    }
    return results, True


def _mixing_dict(t: Tournament, report) -> tuple[dict, bool]:
    """The mixing report as a report entry, and whether it found no violation."""
    worst = None
    if report.worst_pair is not None:
        worst = {
            "A": mask_vertices(report.worst_pair[0]),
            "B": mask_vertices(report.worst_pair[1]),
        }
    results = {
        "n": t.n,
        "method": report.method,
        "pairs_checked": report.pairs_checked,
        "violations": report.violations,
        "max_normalized": {
            "numerator": report.max_numerator,
            "denominator": report.max_denominator,
            "value": report.max_normalized,
        },
        "worst_pair": worst,
    }
    return results, report.violations == 0


def _bounds_dict(t: Tournament, ranking, c_value: int) -> tuple[dict, bool]:
    """The sigma_gap and theorem checks as report entries, and whether both hold."""
    gap = check_sigma_gap(t, ranking)
    theorem = check_theorem_bound(t, c_value)
    results = {"sigma_gap": gap._asdict(), "theorem": theorem._asdict()}
    return results, gap.holds and theorem.holds


# ---------------------------------------------------------------- diffset


def cmd_diffset_paley(args) -> Outcome:
    d = paley_set(make_field(args.p, args.k))
    _write_output(format_diffset(d), args.output)
    return None, True


def cmd_diffset_verify(args, d) -> Outcome:
    results, ok = _shds_dict(d)
    results.update(size=len(d.elements), indices=list(d.indices))
    return results, ok


def cmd_diffset_classify(args, *sets) -> Outcome:
    classes = classify(sets)
    results = {
        "files": list(args.paths),
        "class_count": len(classes),
        "classes": classes,
    }
    return results, True


# ---------------------------------------------------------------- tourney


def cmd_tourney_cayley(args, d) -> Outcome:
    skew = is_skew(d)
    if skew:
        _write_output(format_tournament(cayley_tournament(d)), args.output)
    else:
        print(f"drt: set is not skew: {skew.reason}", file=sys.stderr)
    return None, skew.ok


def cmd_tourney_verify(args, t: Tournament) -> Outcome:
    return _verify_dict(t)


def cmd_tourney_random(args) -> Outcome:
    t = random_tournament(args.n, args.seed)
    _write_output(format_tournament(t), args.output)
    return None, True


# ---------------------------------------------------------------- rank


def cmd_rank_exact(args, t: Tournament) -> Outcome:
    return _rank_dict(t, exact_max_consistent(t))


def cmd_rank_heuristic(args, t: Tournament) -> Outcome:
    return _rank_dict(t, heuristic_rank(t, strategy=args.strategy))


def cmd_rank_baseline(args) -> Outcome:
    results = dataclasses.asdict(random_baseline(args.n, args.trials, args.seed))
    del results["values"]
    return results, True


# ---------------------------------------------------------------- discrepancy


def cmd_discrepancy_sweep(args, t: Tournament) -> Outcome:
    return _mixing_dict(t, exhaustive_mixing_check(t))


def cmd_discrepancy_sample(args, t: Tournament) -> Outcome:
    results, ok = _mixing_dict(t, sampled_mixing_check(t, args.samples, args.seed))
    results["seed"] = args.seed
    return results, ok


def cmd_discrepancy_bounds(args, t: Tournament) -> Outcome:
    if args.c_value is not None:
        check_theorem_bound(t, args.c_value)  # refuse its range before ranking
    r = (exact_max_consistent(t) if t.n <= DP_CAP
         else heuristic_rank(t, strategy="local-search"))
    c_value = args.c_value if args.c_value is not None else r.value
    bounds, holds = _bounds_dict(t, r.ranking, c_value)
    results = {
        "n": t.n,
        "c_value": c_value,
        "c_method": "given" if args.c_value is not None else r.method,
        **bounds,
    }
    return results, holds


# ---------------------------------------------------------------- pipeline


def cmd_pipeline_paley(args) -> Outcome:
    if args.samples < 1:  # refused whether or not q is sampled
        raise ValueError(f"need at least one sample, got {args.samples}")
    if args.rank_cap < 0:
        raise ValueError(f"--rank-cap must be at least 0, got {args.rank_cap}")
    field = make_field(args.p, args.k)
    n = field.order
    exact = n <= args.rank_cap
    # Every q above SWEEP_CAP is sampled, and the sampler stops at SAMPLE_CAP;
    # q up to --rank-cap is ranked exactly, and the DP stops at DP_CAP: refuse
    # either before the Paley set and the tournament are built.
    if n > SAMPLE_CAP:
        raise ValueError(f"pipeline paley supports q = p^k <= {SAMPLE_CAP},"
                         f" got q = {n}")
    if exact:
        _check_dp_cap(n)
    d = paley_set(field)
    shds, shds_ok = _shds_dict(d)
    t = cayley_tournament(d)
    verify, verify_ok = _verify_dict(t)
    r = exact_max_consistent(t) if exact else heuristic_rank(t, strategy="local-search")
    rank, _ = _rank_dict(t, r)
    if not exact:
        rank = {"skipped": f"exact ranking skipped (n = {n} > cap {args.rank_cap})",
                "lower_bound": rank}
    mixing, mixing_ok = _mixing_dict(
        t, exhaustive_mixing_check(t) if n <= SWEEP_CAP
        else sampled_mixing_check(t, args.samples, args.seed))
    bounds, holds = _bounds_dict(t, r.ranking, r.value)
    results = {**shds, **verify, "q": n, "rank": rank, "mixing": mixing, **bounds}
    return results, shds_ok and verify_ok and mixing_ok and holds


# ---------------------------------------------------------------- parser


def integer(text: str) -> int:
    """The argparse type of every integer option: an optional '-' and ASCII
    digits, as the file parsers read them.  Anything else ('+7', '1_0', a
    non-ASCII digit) is a usage error, exit 2, which argparse reports as an
    "invalid integer value" after this function's name."""
    return _decimal(text)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="drt",
        description="doubly regular tournaments: construction, verification,"
        " ranking, and mixing checks",
    )
    parser.add_argument(
        "--version", action="version", version=f"drt {__version__}"
    )
    sub = parser.add_subparsers(dest="command", required=True)
    reports: list[argparse.ArgumentParser] = []

    def command(group, name: str, help: str, func, parse=None, file: str = "",
                nargs: int | str = 1, report: bool = True) -> argparse.ArgumentParser:
        """Subcommand `name` of `group`, run by `func`.  A command that reads
        input files names the `parse` function of their text and takes `nargs`
        paths (help `file`); `main` reads, hashes and parses each path in
        order and calls `func(args, *parsed)`.  A report command takes
        `--pretty` after its other options."""
        p = group.add_parser(name, help=help)
        p.set_defaults(func=func, parse=parse, paths=())
        if parse is not None:
            p.add_argument("paths", nargs=nargs, help=file,
                           metavar="file" if nargs == 1 else "files")
        if report:
            reports.append(p)
        return p

    diffset = sub.add_parser("diffset", help="difference-set construction and checks")
    dsub = diffset.add_subparsers(dest="subcommand", required=True)
    p = command(dsub, "paley", "emit the Paley set of F_{p^k} as a diffset file",
                cmd_diffset_paley, report=False)
    p.add_argument("--p", type=integer, required=True, help="prime characteristic")
    p.add_argument("--k", type=integer, default=1,
                   help="extension degree (default %(default)s)")
    p.add_argument("-o", "--output", help="write here instead of stdout")
    command(dsub, "verify", "full skew-difference-set check", cmd_diffset_verify,
            parse_diffset)
    command(dsub, "classify", "group diffset files into equivalence classes",
            cmd_diffset_classify, parse_diffset, nargs="+")

    tourney = sub.add_parser("tourney", help="tournament construction and checks")
    tsub = tourney.add_subparsers(dest="subcommand", required=True)
    p = command(tsub, "cayley", "build the Cayley tournament of a skew set",
                cmd_tourney_cayley, parse_diffset, "diffset file", report=False)
    p.add_argument("-o", "--output")
    command(tsub, "verify", "double regularity and product identities",
            cmd_tourney_verify, parse_tournament, "tournament file")
    p = command(tsub, "random", "seeded uniform random tournament",
                cmd_tourney_random, report=False)
    p.add_argument("--n", type=integer, required=True)
    p.add_argument("--seed", type=integer, default=0)
    p.add_argument("-o", "--output")

    rank = sub.add_parser("rank", help="maximum-consistency rankings")
    rsub = rank.add_subparsers(dest="subcommand", required=True)
    command(rsub, "exact", "exact optimum by subset DP", cmd_rank_exact,
            parse_tournament, "tournament file")
    p = command(rsub, "heuristic", "out-degree order or local search",
                cmd_rank_heuristic, parse_tournament, "tournament file")
    p.add_argument(
        "--strategy", choices=["out-degree", "local-search"], default="local-search"
    )
    p = command(rsub, "baseline", "exact optima of seeded random tournaments",
                cmd_rank_baseline)
    p.add_argument("--n", type=integer, required=True)
    p.add_argument("--trials", type=integer, default=100)
    p.add_argument("--seed", type=integer, default=0)

    disc = sub.add_parser("discrepancy", help="subset mixing and global bounds")
    csub = disc.add_subparsers(dest="subcommand", required=True)
    command(csub, "sweep", "every (A, B, neither) assignment", cmd_discrepancy_sweep,
            parse_tournament, "tournament file")
    p = command(csub, "sample", "seeded random assignments", cmd_discrepancy_sample,
                parse_tournament, "tournament file")
    p.add_argument("--samples", type=integer, default=100_000)
    p.add_argument("--seed", type=integer, default=0)
    p = command(csub, "bounds", "ranking-gap and maximum-consistency bounds",
                cmd_discrepancy_bounds, parse_tournament, "tournament file")
    p.add_argument("--c-value", type=integer, default=None,
                   help="use this C(T) value (or lower bound) instead of computing one")

    pipe = sub.add_parser("pipeline", help="end-to-end construction and verification")
    psub = pipe.add_subparsers(dest="subcommand", required=True)
    p = command(psub, "paley", "Paley set -> Cayley tournament -> all checks",
                cmd_pipeline_paley)
    p.add_argument("--p", type=integer, required=True)
    p.add_argument("--k", type=integer, default=1)
    p.add_argument("--samples", type=integer, default=PIPELINE_SAMPLES,
                   help="sampled mixing checks above the sweep cap"
                   " (default %(default)s)")
    p.add_argument("--rank-cap", type=integer, default=PIPELINE_RANK_CAP,
                   help="largest n ranked exactly in the pipeline"
                   " (default %(default)s)")
    p.add_argument("--seed", type=integer, default=0)

    for p in reports:
        p.add_argument(
            "--pretty", action="store_true", help="render the report as aligned text"
        )
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    started = time.perf_counter()
    inputs: dict[str, str] = {}
    try:
        parsed = [_load(path, inputs, args.parse) for path in args.paths]
        results, passed = args.func(args, *parsed)
        if results is not None:
            _emit(f"{args.command} {args.subcommand}", inputs, results, started,
                  args.pretty)
        return 0 if passed else 1
    except Exception as e:  # exit 1 belongs to a failed verdict alone
        kind = "" if isinstance(e, (ValueError, OSError)) else f"{type(e).__name__}: "
        print(f"drt: error: {kind}{e}", file=sys.stderr)
        raise SystemExit(2) from None


def entry() -> None:
    """Process entry of `drt` and `python -m drt.cli`: objects made by imports
    are frozen, so that the collections at interpreter exit skip them."""
    gc.freeze()
    sys.exit(main())


if __name__ == "__main__":
    entry()
