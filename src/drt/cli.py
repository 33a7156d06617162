"""drt: construct, verify, rank, and stress-test doubly regular tournaments.

Report-emitting subcommands print a single JSON object to stdout:

    {schema_version, tool_version, command, inputs, results, wall_time_ms}

A command returns only its `results` and exit code; `main` times it, records
the files it reads and wraps the results in this envelope.

`inputs` maps each input path to its sha256; `results` is deterministic given
the same inputs and seed (wall_time_ms is the one field outside that
contract).  `--pretty` renders the same payload as aligned text.  Exit codes:
0 all checks pass, 1 only a failed verdict or violation, 2 usage errors and
every exception, as one `drt: error:` line.  `drt` starts no threads of its
own; numpy's BLAS may use several for the float32 matrix products, whose
results are the same in any summation order (see `tourney._F32_EXACT`).
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

# A command's report `results` (None when it writes a file instead) and exit code.
Outcome = tuple[Optional[dict], int]


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


def _verdict_dict(v) -> dict:
    return {"ok": v.ok, "reason": v.reason}


def _shds_dict(d) -> tuple[dict, bool]:
    """The group, order and skew Hadamard verdict of `d`, and whether it holds."""
    shds = is_shds(d)
    results = {"group": format_group_spec(d.group.moduli), "n": d.group.order,
               "shds": _verdict_dict(shds)}
    return results, shds.ok


def _verify_dict(t: Tournament) -> tuple[dict, bool]:
    """The double regularity and Gram verdicts of `t`, and whether both hold."""
    dr = is_doubly_regular(t)
    gram = verify_gram_identities(t)
    results = {"n": t.n, "doubly_regular": _verdict_dict(dr),
               "gram": _verdict_dict(gram)}
    return results, dr.ok and gram.ok


def _rank_dict(t: Tournament, r: RankingResult) -> dict:
    total = t.n * (t.n - 1) // 2
    return {
        "n": t.n,
        "value": r.value,
        "ratio": r.value / total if total else None,
        "method": r.method,
        "ranking": list(r.ranking),
        "work": r.work,
    }


def _mixing_dict(t: Tournament, report) -> dict:
    worst = None
    if report.worst_pair is not None:
        worst = {
            "A": mask_vertices(report.worst_pair[0]),
            "B": mask_vertices(report.worst_pair[1]),
        }
    return {
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


def _bounds_dict(t: Tournament, ranking, c_value: int) -> tuple[dict, bool]:
    """The sigma_gap and theorem checks as report entries, and whether both hold."""
    gap = check_sigma_gap(t, ranking)
    theorem = check_theorem_bound(t, c_value)
    results = {"sigma_gap": gap._asdict(), "theorem": theorem._asdict()}
    return results, gap.holds and theorem.holds


# ---------------------------------------------------------------- diffset


def cmd_diffset_paley(args, inputs: dict[str, str]) -> Outcome:
    d = paley_set(make_field(args.p, args.k))
    _write_output(format_diffset(d), args.output)
    return None, 0


def cmd_diffset_verify(args, inputs: dict[str, str]) -> Outcome:
    d = _load(args.file, inputs, parse_diffset)
    results, ok = _shds_dict(d)
    results.update(size=len(d.elements), indices=list(d.indices))
    return results, 0 if ok else 1


def cmd_diffset_classify(args, inputs: dict[str, str]) -> Outcome:
    classes = classify([_load(path, inputs, parse_diffset) for path in args.files])
    results = {
        "files": list(args.files),
        "class_count": len(classes),
        "classes": classes,
    }
    return results, 0


# ---------------------------------------------------------------- tourney


def cmd_tourney_cayley(args, inputs: dict[str, str]) -> Outcome:
    d = _load(args.file, inputs, parse_diffset)
    skew = is_skew(d)
    if not skew:
        print(f"drt: set is not skew: {skew.reason}", file=sys.stderr)
        return None, 1
    _write_output(format_tournament(cayley_tournament(d)), args.output)
    return None, 0


def cmd_tourney_verify(args, inputs: dict[str, str]) -> Outcome:
    results, ok = _verify_dict(_load(args.file, inputs, parse_tournament))
    return results, 0 if ok else 1


def cmd_tourney_random(args, inputs: dict[str, str]) -> Outcome:
    t = random_tournament(args.n, args.seed)
    _write_output(format_tournament(t), args.output)
    return None, 0


# ---------------------------------------------------------------- rank


def cmd_rank_exact(args, inputs: dict[str, str]) -> Outcome:
    t = _load(args.file, inputs, parse_tournament)
    r = exact_max_consistent(t)
    return _rank_dict(t, r), 0


def cmd_rank_heuristic(args, inputs: dict[str, str]) -> Outcome:
    t = _load(args.file, inputs, parse_tournament)
    r = heuristic_rank(t, strategy=args.strategy)
    return _rank_dict(t, r), 0


def cmd_rank_baseline(args, inputs: dict[str, str]) -> Outcome:
    results = dataclasses.asdict(random_baseline(args.n, args.trials, args.seed))
    del results["values"]
    return results, 0


# ---------------------------------------------------------------- discrepancy


def cmd_discrepancy_sweep(args, inputs: dict[str, str]) -> Outcome:
    t = _load(args.file, inputs, parse_tournament)
    report = exhaustive_mixing_check(t)
    return _mixing_dict(t, report), 1 if report.violations else 0


def cmd_discrepancy_sample(args, inputs: dict[str, str]) -> Outcome:
    t = _load(args.file, inputs, parse_tournament)
    report = sampled_mixing_check(t, args.samples, args.seed)
    results = _mixing_dict(t, report)
    results["seed"] = args.seed
    return results, 1 if report.violations else 0


def cmd_discrepancy_bounds(args, inputs: dict[str, str]) -> Outcome:
    t = _load(args.file, inputs, parse_tournament)
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
    return results, 0 if holds else 1


# ---------------------------------------------------------------- pipeline


def cmd_pipeline_paley(args, inputs: dict[str, str]) -> Outcome:
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
    rank = _rank_dict(t, r)
    if not exact:
        rank = {"skipped": f"exact ranking skipped (n = {n} > cap {args.rank_cap})",
                "lower_bound": rank}
    mixing = _mixing_dict(t, exhaustive_mixing_check(t) if n <= SWEEP_CAP
                          else sampled_mixing_check(t, args.samples, args.seed))
    bounds, holds = _bounds_dict(t, r.ranking, r.value)
    results = {**shds, **verify, "q": n, "rank": rank, "mixing": mixing, **bounds}
    ok = shds_ok and verify_ok and mixing["violations"] == 0 and holds
    return results, 0 if ok else 1


# ---------------------------------------------------------------- parser


def integer(text: str) -> int:
    """The argparse type of every integer option: an optional '-' and ASCII
    digits, as the file parsers read them.  Anything else ('+7', '1_0', a
    non-ASCII digit) is a usage error, exit 2, which argparse reports as an
    "invalid integer value" after this function's name."""
    return _decimal(text)


def _add_pretty(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--pretty", action="store_true", help="render the report as aligned text"
    )


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

    diffset = sub.add_parser("diffset", help="difference-set construction and checks")
    dsub = diffset.add_subparsers(dest="subcommand", required=True)
    p = dsub.add_parser("paley", help="emit the Paley set of F_{p^k} as a diffset file")
    p.add_argument("--p", type=integer, required=True, help="prime characteristic")
    p.add_argument("--k", type=integer, default=1, help="extension degree (default 1)")
    p.add_argument("-o", "--output", help="write here instead of stdout")
    p.set_defaults(func=cmd_diffset_paley)
    p = dsub.add_parser("verify", help="full skew-difference-set check")
    p.add_argument("file")
    _add_pretty(p)
    p.set_defaults(func=cmd_diffset_verify)
    p = dsub.add_parser("classify", help="group diffset files into equivalence classes")
    p.add_argument("files", nargs="+")
    _add_pretty(p)
    p.set_defaults(func=cmd_diffset_classify)

    tourney = sub.add_parser("tourney", help="tournament construction and checks")
    tsub = tourney.add_subparsers(dest="subcommand", required=True)
    p = tsub.add_parser("cayley", help="build the Cayley tournament of a skew set")
    p.add_argument("file", help="diffset file")
    p.add_argument("-o", "--output")
    p.set_defaults(func=cmd_tourney_cayley)
    p = tsub.add_parser("verify", help="double regularity and product identities")
    p.add_argument("file", help="tournament file")
    _add_pretty(p)
    p.set_defaults(func=cmd_tourney_verify)
    p = tsub.add_parser("random", help="seeded uniform random tournament")
    p.add_argument("--n", type=integer, required=True)
    p.add_argument("--seed", type=integer, default=0)
    p.add_argument("-o", "--output")
    p.set_defaults(func=cmd_tourney_random)

    rank = sub.add_parser("rank", help="maximum-consistency rankings")
    rsub = rank.add_subparsers(dest="subcommand", required=True)
    p = rsub.add_parser("exact", help="exact optimum by subset DP")
    p.add_argument("file", help="tournament file")
    _add_pretty(p)
    p.set_defaults(func=cmd_rank_exact)
    p = rsub.add_parser("heuristic", help="out-degree order or local search")
    p.add_argument("file", help="tournament file")
    p.add_argument(
        "--strategy", choices=["out-degree", "local-search"], default="local-search"
    )
    _add_pretty(p)
    p.set_defaults(func=cmd_rank_heuristic)
    p = rsub.add_parser("baseline", help="exact optima of seeded random tournaments")
    p.add_argument("--n", type=integer, required=True)
    p.add_argument("--trials", type=integer, default=100)
    p.add_argument("--seed", type=integer, default=0)
    _add_pretty(p)
    p.set_defaults(func=cmd_rank_baseline)

    disc = sub.add_parser("discrepancy", help="subset mixing and global bounds")
    csub = disc.add_subparsers(dest="subcommand", required=True)
    p = csub.add_parser("sweep", help="every (A, B, neither) assignment")
    p.add_argument("file", help="tournament file")
    _add_pretty(p)
    p.set_defaults(func=cmd_discrepancy_sweep)
    p = csub.add_parser("sample", help="seeded random assignments")
    p.add_argument("file", help="tournament file")
    p.add_argument("--samples", type=integer, default=100_000)
    p.add_argument("--seed", type=integer, default=0)
    _add_pretty(p)
    p.set_defaults(func=cmd_discrepancy_sample)
    p = csub.add_parser("bounds", help="ranking-gap and maximum-consistency bounds")
    p.add_argument("file", help="tournament file")
    p.add_argument("--c-value", type=integer, default=None,
                   help="use this C(T) value (or lower bound) instead of computing one")
    _add_pretty(p)
    p.set_defaults(func=cmd_discrepancy_bounds)

    pipe = sub.add_parser("pipeline", help="end-to-end construction and verification")
    psub = pipe.add_subparsers(dest="subcommand", required=True)
    p = psub.add_parser("paley", help="Paley set -> Cayley tournament -> all checks")
    p.add_argument("--p", type=integer, required=True)
    p.add_argument("--k", type=integer, default=1)
    p.add_argument("--samples", type=integer, default=PIPELINE_SAMPLES,
                   help="sampled mixing checks above the sweep cap (default 20000)")
    p.add_argument("--rank-cap", type=integer, default=PIPELINE_RANK_CAP,
                   help="largest n ranked exactly in the pipeline (default 20)")
    p.add_argument("--seed", type=integer, default=0)
    _add_pretty(p)
    p.set_defaults(func=cmd_pipeline_paley)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    started = time.perf_counter()
    inputs: dict[str, str] = {}
    try:
        results, code = args.func(args, inputs)
        if results is not None:
            _emit(f"{args.command} {args.subcommand}", inputs, results, started,
                  args.pretty)
        return code
    except Exception as e:  # exit 1 belongs to the verdicts commands return
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
