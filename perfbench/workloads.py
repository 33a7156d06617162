"""The four benchmark workloads: seeded input files, the drt ops of one pass,
and the check each op's output must pass.

Every check here uses the benchmark's own code (its own Paley and random
tournament generators, its own consistency recount and discrepancy
arithmetic), never `drt`, so a defect in the program cannot vouch for itself.
"""

from __future__ import annotations

import hashlib
import json
import random
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Optional

WORKLOADS = ("golden", "dp", "mixing", "large-field")

# (p, k, golden file stem): ROADMAP's definition of end to end.
GOLDEN_FIELDS = (
    (3, 1, "pipeline_z3"),
    (7, 1, "pipeline_z7"),
    (11, 1, "pipeline_z11"),
    (19, 1, "pipeline_z19"),
    (23, 1, "pipeline_z23"),
    (3, 3, "pipeline_z3pow3"),
)

# Full size, then the reduced size the self-test runs.
SIZES = {
    False: {
        "golden": GOLDEN_FIELDS,
        "dp_random": (20, 22),
        "dp_paley": 23,
        "sweep_n": 14,
        "sample_paley": 43,
        "samples": 250_000,
        "large_fields": ((3, 5), (251, 1)),
    },
    True: {
        "golden": GOLDEN_FIELDS[:2],
        "dp_random": (10, 12),
        "dp_paley": 11,
        "sweep_n": 8,
        "sample_paley": 19,
        "samples": 20_000,
        "large_fields": ((3, 3), (31, 1)),
    },
}

# Check signature: (exit code, results, results of the pass's earlier ops by
# op name) -> None when the output is correct, else the reason it is not.
Check = Callable[[int, dict, dict], Optional[str]]


@dataclass
class Op:
    name: str
    argv: list[str]
    check: Check
    env: dict[str, str] = field(default_factory=dict)
    seeded: bool = False  # do the inputs depend on the workload seed?

    def key(self, workload: str, seed: int) -> str:
        """Identity of this op's inputs, used to look up its pinned digest."""
        return f"{workload}/{self.name}" + (f"@seed{seed}" if self.seeded else "")


def canonical(results: dict) -> str:
    return json.dumps(results, sort_keys=True, separators=(",", ":"))


def digest(results: dict) -> str:
    return hashlib.sha256(canonical(results).encode()).hexdigest()


# ------------------------------------------------------------------ inputs


def paley_rows(q: int) -> list[int]:
    """Paley tournament of a prime q = 3 (mod 4): i -> j iff j - i is a square."""
    squares = {x * x % q for x in range(1, q)}
    return [sum(1 << j for j in range(q) if (j - i) % q in squares) for i in range(q)]


def random_rows(n: int, rng: random.Random) -> list[int]:
    rows = [0] * n
    for i in range(n):
        for j in range(i + 1, n):
            if rng.getrandbits(1):
                rows[i] |= 1 << j
            else:
                rows[j] |= 1 << i
    return rows


def write_tournament(path: Path, rows: list[int]) -> str:
    n = len(rows)
    lines = [str(n)] + ["".join("1" if (r >> j) & 1 else "0" for j in range(n)) for r in rows]
    path.write_text("\n".join(lines) + "\n")
    return str(path)


# ------------------------------------------------------------------ checks


def recount(rows: list[int], ranking: list[int]) -> int:
    """Edges x -> y with ranking[x] < ranking[y]."""
    n = len(rows)
    return sum(
        1
        for x in range(n)
        for y in range(n)
        if (rows[x] >> y) & 1 and ranking[x] < ranking[y]
    )


def discrepancy(rows: list[int], a: list[int], b: list[int]) -> int:
    """d = e(A, B) - e(B, A)."""
    return sum(((rows[x] >> y) & 1) - ((rows[y] >> x) & 1) for x in a for y in b)


def check_rank(rows: list[int]) -> Check:
    n = len(rows)

    def check(code: int, res: dict, _done: dict) -> Optional[str]:
        if code != 0:
            return f"exit {code}, expected 0"
        ranking = res["ranking"]
        if sorted(ranking) != list(range(1, n + 1)):
            return "ranking is not a bijection onto 1..n"
        value = recount(rows, ranking)
        if value != res["value"]:
            return f"reported value {res['value']} but the ranking scores {value}"
        if res["method"] != "exact-dp" or res["work"] != 1 << n:
            return f"unexpected method/work {res['method']}/{res['work']}"
        return None

    return check


def _worst_pair_reason(rows: list[int], res: dict) -> Optional[str]:
    """Recompute the reported worst pair's fraction d_+^2 / (n |A| |B|)."""
    worst, frac = res["worst_pair"], res["max_normalized"]
    a, b = worst["A"], worst["B"]
    if not a or not b or set(a) & set(b):
        return f"worst pair {worst} is not two disjoint nonempty sets"
    d = discrepancy(rows, a, b)
    num, den = max(d, 0) ** 2, len(rows) * len(a) * len(b)
    if (num, den) != (frac["numerator"], frac["denominator"]):
        return f"worst pair gives {num}/{den}, reported {frac['numerator']}/{frac['denominator']}"
    if (res["violations"] > 0) != (num > den):
        return f"{res['violations']} violations but worst fraction {num}/{den}"
    return None


def check_sweep(rows: list[int]) -> Check:
    n = len(rows)

    def check(code: int, res: dict, _done: dict) -> Optional[str]:
        want = 1 if res["violations"] > 0 else 0
        if code != want:
            return f"exit {code} with {res['violations']} violations, expected {want}"
        if res["pairs_checked"] != 3**n - 2 ** (n + 1) + 1:
            return f"swept {res['pairs_checked']} pairs, expected 3^n - 2^(n+1) + 1"
        return _worst_pair_reason(rows, res)

    return check


def check_sample(rows: list[int], samples: int, seed: int, same_as: str | None) -> Check:
    def check(code: int, res: dict, done: dict) -> Optional[str]:
        if code != 0 or res["violations"] != 0:
            return f"exit {code} with {res['violations']} violations on a Paley tournament"
        if res["pairs_checked"] != samples or res["seed"] != seed:
            return "sample count or seed differs from the request"
        if same_as is not None:
            if same_as not in done:
                return f"{same_as} did not produce results to compare with"
            if canonical(done[same_as]) != canonical(res):
                return f"results differ from {same_as}: DRT_THREADS changed the output"
        return _worst_pair_reason(rows, res)

    return check


def paley_verdicts(code: int, res: dict) -> Optional[str]:
    """Every verdict of a Paley pipeline must pass."""
    failed = [
        name
        for name, ok in (
            ("shds", res["shds"]["ok"]),
            ("doubly_regular", res["doubly_regular"]["ok"]),
            ("gram", res["gram"]["ok"]),
            ("mixing", res["mixing"]["violations"] == 0),
            ("sigma_gap", res["sigma_gap"]["holds"]),
            ("theorem", res["theorem"]["holds"]),
        )
        if not ok
    ]
    if failed or code != 0:
        return f"exit {code}; failed verdicts {failed}"
    return None


def check_golden(path: Path) -> Check:
    want = canonical(json.loads(path.read_text()))

    def check(code: int, res: dict, _done: dict) -> Optional[str]:
        reason = paley_verdicts(code, res)
        if reason is None and canonical(res) != want:
            reason = f"results differ from {path.name}"
        return reason

    return check


def check_large(code: int, res: dict, _done: dict) -> Optional[str]:
    reason = paley_verdicts(code, res)
    if reason is None and res["rank"]["lower_bound"]["method"] != "local-search":
        reason = "expected a local-search lower bound above the rank cap"
    return reason


# ------------------------------------------------------------------ plans


def plan(workload: str, seed: int, root: Path, workdir: Path, smoke: bool = False) -> list[Op]:
    """Write the workload's input files into `workdir` and return its ops."""
    size = SIZES[smoke]
    rng = random.Random(f"perfbench/{workload}/{seed}")
    if workload == "golden":
        golden = root / "tests" / "golden"
        return [
            Op(f"pipeline-{stem[9:]}", ["pipeline", "paley", "--p", str(p), "--k", str(k)],
               check_golden(golden / f"{stem}.json"))
            for p, k, stem in size["golden"]
        ]
    if workload == "dp":
        ops = []
        for n in size["dp_random"]:
            rows = random_rows(n, rng)
            path = write_tournament(workdir / f"random{n}.txt", rows)
            ops.append(Op(f"rank-random{n}", ["rank", "exact", path], check_rank(rows), seeded=True))
        q = size["dp_paley"]
        rows = paley_rows(q)
        path = write_tournament(workdir / f"paley{q}.txt", rows)
        ops.append(Op(f"rank-paley{q}", ["rank", "exact", path], check_rank(rows)))
        return ops
    if workload == "mixing":
        n = size["sweep_n"]
        rows = random_rows(n, rng)
        path = write_tournament(workdir / f"random{n}.txt", rows)
        ops = [Op(f"sweep-random{n}", ["discrepancy", "sweep", path], check_sweep(rows), seeded=True)]
        q, samples = size["sample_paley"], size["samples"]
        rows = paley_rows(q)
        path = write_tournament(workdir / f"paley{q}.txt", rows)
        argv = ["discrepancy", "sample", path, "--samples", str(samples), "--seed", str(seed)]
        first = None
        for threads in (1, 2):
            name = f"sample-paley{q}-threads{threads}"
            ops.append(Op(name, argv, check_sample(rows, samples, seed, first),
                          env={"DRT_THREADS": str(threads)}, seeded=True))
            first = first or name
        return ops
    if workload == "large-field":
        return [
            Op(f"pipeline-q{p ** k}", ["pipeline", "paley", "--p", str(p), "--k", str(k)], check_large)
            for p, k in size["large_fields"]
        ]
    raise ValueError(f"unknown workload {workload!r}; expected one of {WORKLOADS}")
