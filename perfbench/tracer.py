"""In-process traced run: spans around drt's public functions, recorded from
the benchmark's side by rebinding each function at the names its callers use.

Nothing in `drt` changes.  `Tracer.install()` replaces every binding of a
listed function inside the `drt.*` modules (for example `drt.cli.
exact_max_consistent` and `drt.discrepancy.trit_block`) with a wrapper that
records one span per call; `uninstall()` puts the originals back.
"""

from __future__ import annotations

import functools
from collections import Counter
import statistics
import sys
import threading
import time
import tracemalloc
from dataclasses import dataclass
from typing import Callable, Optional

# Public functions per module; `verdict` is a plain dataclass and has none.
FUNCTIONS = {
    "cli": ("main",),
    "groups": ("make_field",),
    "diffset": ("paley_set", "is_shds"),
    "tourney": ("parse_tournament", "cayley_tournament", "is_doubly_regular",
                "verify_gram_identities"),
    "ranking": ("exact_max_consistent", "heuristic_rank", "count_consistent"),
    "discrepancy": ("exhaustive_mixing_check", "sampled_mixing_check",
                    "check_sigma_gap", "check_theorem_bound"),
    "rng": ("trit_block",),
}
SPAN_NAMES = tuple(f"{m}.{f}" for m, fs in FUNCTIONS.items() for f in fs)

COUNTERS = (
    "ranking.dp_states", "ranking.dp_states_per_s",
    "ranking.local_search_moves", "ranking.local_search_moves_per_s",
    "discrepancy.sweep_pairs", "discrepancy.sweep_pairs_per_s",
    "discrepancy.sample_pairs", "rng.trits_drawn", "discrepancy.sample_useful_frac",
    "ranking.dp_peak_mib", "ranking.dp_peak_over_table",
)


def layer_metric_units() -> dict[str, str]:
    """Every per-layer metric the traced run emits, with its unit."""
    units = {}
    for name in SPAN_NAMES:
        units[f"{name}.self_ms"] = "ms"
        units[f"{name}.calls"] = "count"
        units[f"{name}.errors"] = "count"
    for name in COUNTERS:
        units[name] = (
            "1/s" if name.endswith("_per_s")
            else "MiB" if name.endswith("_mib")
            else "ratio" if name.endswith(("_frac", "_over_table"))
            else "count"
        )
    units.update({"trace.overhead_ms": "ms", "trace.overhead_frac": "ratio",
                  "trace.spans": "count"})
    return units


@dataclass
class Span:
    id: int
    name: str
    start: float
    end: float
    parent: Optional[int]
    op: str  # the op's name; with `pass_no` it identifies one request
    pass_no: int
    error: bool


def _arg(args: tuple, kwargs: dict, index: int, name: str, default=None):
    if name in kwargs:
        return kwargs[name]
    return args[index] if len(args) > index else default


class Tracer:
    """Records spans and work counters for the ops of one traced run."""

    def __init__(self):
        self.spans: list[Span] = []  # this pass's spans; ids run on across passes
        self.op = ""
        self.pass_no = 0
        self._first_id = 0
        self.counts: Counter[str] = Counter()
        self._lock = threading.Lock()
        self._local = threading.local()
        self._main_stack: list[int] = []
        self._main_thread = threading.main_thread()
        self._saved: list[tuple[object, str, Callable]] = []
        # Work counters, read from each call's arguments or returned object.
        self._counters = {
            "ranking.exact_max_consistent": self._count_dp,
            "ranking.heuristic_rank": self._count_local_search,
            "discrepancy.exhaustive_mixing_check": self._count_sweep,
            "discrepancy.sampled_mixing_check": self._count_sample,
            "rng.trit_block": self._count_trits,
        }

    # ------------------------------------------------------------ patching

    def _originals(self) -> dict[str, Callable]:
        out = {}
        for module, names in FUNCTIONS.items():
            mod = sys.modules[f"drt.{module}"]
            for name in names:
                out[f"{module}.{name}"] = getattr(mod, name)
        return out

    def _rebind(self, make_wrapper: Callable[[str, Callable], Callable],
                only: Optional[set[str]] = None) -> None:
        """Replace every binding of each listed function in the drt modules."""
        for label, fn in self._originals().items():
            if only is not None and label not in only:
                continue
            wrapper = make_wrapper(label, fn)
            for modname, mod in list(sys.modules.items()):
                if not modname.startswith("drt.") or mod is None:
                    continue
                for attr, value in list(vars(mod).items()):
                    if value is fn:
                        self._saved.append((mod, attr, fn))
                        setattr(mod, attr, wrapper)

    def install(self) -> None:
        self._rebind(self._span_wrapper)

    def install_dp_memory(self, peaks: list[tuple[int, int]]) -> None:
        """Wrap only the DP, measuring its tracemalloc peak per call as (n, bytes)."""

        def make(label: str, fn: Callable) -> Callable:
            @functools.wraps(fn)
            def wrapper(*args, **kwargs):
                tracemalloc.start()
                try:
                    return fn(*args, **kwargs)
                finally:
                    peaks.append((args[0].n, tracemalloc.get_traced_memory()[1]))
                    tracemalloc.stop()

            return wrapper

        self._rebind(make, only={"ranking.exact_max_consistent"})

    def uninstall(self) -> None:
        for mod, attr, fn in reversed(self._saved):
            setattr(mod, attr, fn)
        self._saved.clear()

    # ------------------------------------------------------------ spans

    def _stack(self) -> list[int]:
        if threading.current_thread() is self._main_thread:
            return self._main_stack
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _span_wrapper(self, label: str, fn: Callable) -> Callable:
        count = self._counters.get(label)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack = self._stack()
            # A worker thread's first span belongs to the main thread's open
            # span, the call that handed it the work.
            parent = stack[-1] if stack else (
                self._main_stack[-1] if self._main_stack else None)
            with self._lock:
                index = len(self.spans)
                self.spans.append(None)  # reserve the slot
            span_id = self._first_id + index
            stack.append(span_id)
            error = True
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
                error = False
                return result
            finally:
                end = time.perf_counter()
                stack.pop()
                with self._lock:
                    self.spans[index] = Span(span_id, label, start, end, parent,
                                             self.op, self.pass_no, error)
                    if count is not None and not error:
                        count(args, kwargs, result)

        return wrapper

    def _count_dp(self, args, kwargs, result) -> None:
        self.counts["ranking.dp_states"] += result.work

    def _count_local_search(self, args, kwargs, result) -> None:
        if _arg(args, kwargs, 1, "strategy", "local-search") == "local-search":
            self.counts["ranking.local_search_moves"] += result.work

    def _count_sweep(self, args, kwargs, result) -> None:
        self.counts["discrepancy.sweep_pairs"] += result.pairs_checked

    def _count_sample(self, args, kwargs, result) -> None:
        self.counts["discrepancy.sample_pairs"] += result.pairs_checked
        self.counts["discrepancy.sample_trits_used"] += result.pairs_checked * args[0].n

    def _count_trits(self, args, kwargs, result) -> None:
        self.counts["rng.trits_drawn"] += _arg(args, kwargs, 2, "count")

    # ------------------------------------------------------------ summaries

    def pass_metrics(self) -> dict[str, float]:
        """Per-layer metrics of the spans and counters recorded so far."""
        self_s = dict.fromkeys(SPAN_NAMES, 0.0)
        total_s = dict.fromkeys(SPAN_NAMES, 0.0)
        calls = dict.fromkeys(SPAN_NAMES, 0)
        errors = dict.fromkeys(SPAN_NAMES, 0)
        children: dict[int, list[Span]] = {}
        for span in self.spans:
            if span.parent is not None:
                children.setdefault(span.parent, []).append(span)
        for span in self.spans:
            total = span.end - span.start
            self_s[span.name] += total - _covered(span, children.get(span.id, ()))
            total_s[span.name] += total
            calls[span.name] += 1
            errors[span.name] += span.error
        out: dict[str, float] = {}
        for name in SPAN_NAMES:
            out[f"{name}.self_ms"] = self_s[name] * 1000
            out[f"{name}.calls"] = calls[name]
            out[f"{name}.errors"] = errors[name]
        c = self.counts
        out["ranking.dp_states"] = c["ranking.dp_states"]
        out["ranking.dp_states_per_s"] = _rate(c["ranking.dp_states"],
                                               total_s["ranking.exact_max_consistent"])
        out["ranking.local_search_moves"] = c["ranking.local_search_moves"]
        out["ranking.local_search_moves_per_s"] = _rate(
            c["ranking.local_search_moves"], total_s["ranking.heuristic_rank"])
        out["discrepancy.sweep_pairs"] = c["discrepancy.sweep_pairs"]
        out["discrepancy.sweep_pairs_per_s"] = _rate(
            c["discrepancy.sweep_pairs"], total_s["discrepancy.exhaustive_mixing_check"])
        out["discrepancy.sample_pairs"] = c["discrepancy.sample_pairs"]
        out["rng.trits_drawn"] = c["rng.trits_drawn"]
        out["discrepancy.sample_useful_frac"] = _rate(
            c["discrepancy.sample_trits_used"], c["rng.trits_drawn"])
        out["trace.spans"] = len(self.spans)
        return out

    def reset(self) -> None:
        """Start a new pass: fresh spans and counters."""
        self._first_id += len(self.spans)
        self.pass_no += 1
        self.spans = []
        self.counts = Counter()


def _rate(num: float, den: float) -> float:
    return num / den if den else 0.0


def _covered(span: Span, kids) -> float:
    """Length of the union of the child intervals, clipped to the span."""
    covered, reach = 0.0, span.start
    for kid in sorted(kids, key=lambda s: s.start):
        lo, hi = max(kid.start, reach), min(kid.end, span.end)
        if hi > lo:
            covered += hi - lo
            reach = hi
    return covered


def median_metrics(passes: list[dict[str, float]]) -> dict[str, float]:
    return {k: statistics.median(p[k] for p in passes) for k in passes[0]}


def dp_memory_metrics(peaks: list[tuple[int, int]], table_nbytes: Callable[[int], int]) -> dict[str, float]:
    """Peak of the DP span, and its ratio to the value table at the largest n."""
    if not peaks:
        return {"ranking.dp_peak_mib": 0.0, "ranking.dp_peak_over_table": 0.0}
    n, peak = max(peaks)
    return {
        "ranking.dp_peak_mib": max(p for _, p in peaks) / 2**20,
        "ranking.dp_peak_over_table": peak / table_nbytes(n),
    }
