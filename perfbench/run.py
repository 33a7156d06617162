"""drt benchmark: one command, run from the root of a checkout.

    python3 perfbench/run.py --workload golden --seed 0 --seconds 30 --trace 0

It writes the workload's input files from --seed, then runs the workload's ops
as `python -m drt.cli ...` child processes, strictly one at a time (a closed
loop with one client), pass after pass while another fits in --seconds.  Every
op's output is checked; an op fails if it crashes, times out, exits with an
unexpected code or fails its check.  With --trace 0 it prints the end-to-end
metrics, whose times are corrected for CPU drift (see `Clock`); with --trace 1
it runs the same ops in-process under the span tracer and prints the per-layer
metrics.  The last stdout line is the JSON result.

--smoke runs every workload at a reduced size (the self-test uses it); --pin
rewrites perfbench/pinned.json, the results digests of the default seed.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import platform
import resource
import select
import signal
import statistics
import subprocess
import sys
import tempfile
import threading
import time
import traceback
from dataclasses import dataclass
from importlib import metadata
from pathlib import Path
from typing import Callable, Optional

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import tracer  # noqa: E402
from workloads import WORKLOADS, Op, digest, plan  # noqa: E402

DEFAULT_SEED = 0
OP_TIMEOUT_S = 60.0
SETUP_SAMPLES = 9  # `--version` children timed per run; setup_s is their median
# The reference kernel of `Clock`, and its time on an unloaded vCPU of the
# 2-vCPU Intel Xeon VM (Python 3.11.7) the benchmark was written on.
REFERENCE_LOOPS = 400_000
REFERENCE_S = 0.030
TICK_S = 0.5  # a child is paused this often to time the kernel again
PINNED = HERE / "pinned.json"
# The numpy BLAS pool is pinned to one thread, so an op's only extra threads
# are its DRT_THREADS workers, which main() keeps within nproc.
THREAD_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}

END_TO_END_UNITS = {
    "wall_s": "s",
    "wall_s_tail": "s",
    "cpu_s": "s",
    "peak_rss_mib": "MiB",
    "setup_s": "s",
    "ok_frac": "ratio",
}


def nproc() -> int:
    return len(os.sched_getaffinity(0))


def machine_facts() -> dict:
    model = platform.processor() or "unknown"
    with contextlib.suppress(OSError), open("/proc/cpuinfo") as fh:
        for line in fh:
            if line.startswith("model name"):
                model = line.split(":", 1)[1].strip()
                break
    return {
        "nproc": nproc(),
        "cpu_model": model,
        "python": platform.python_version(),
        "numpy": metadata.version("numpy"),
    }


# ------------------------------------------------------------------ children


@dataclass
class Child:
    code: int
    wall_s: float
    cpu_s: float
    rss_mib: float
    stdout: str
    stderr: str
    timed_out: bool
    segments: list[float]  # running stretches between pauses; they sum to wall_s


def child_env(extra: dict[str, str]) -> dict[str, str]:
    env = {k: v for k, v in os.environ.items() if k != "DRT_THREADS"}
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p)
    env.update(THREAD_ENV)
    env.update(extra)
    return env


def run_child(argv: list[str], env: dict[str, str], workdir: Path,
              pause: Optional[Callable[[], None]] = None) -> Child:
    """One `python -m drt.cli` process, timed from spawn to reap, with its rusage.

    With `pause`, the child is stopped (SIGSTOP) after every TICK_S of running
    and `pause()` is called while it stands; the stopped time is not counted.
    """
    with tempfile.TemporaryFile(dir=workdir) as out, tempfile.TemporaryFile(dir=workdir) as err:
        started = time.perf_counter()
        proc = subprocess.Popen([sys.executable, "-m", "drt.cli", *argv],
                                stdout=out, stderr=err, env=env, cwd=ROOT)
        timed_out = threading.Event()

        def kill() -> None:
            timed_out.set()
            os.kill(proc.pid, signal.SIGKILL)

        timer = threading.Timer(OP_TIMEOUT_S, kill)
        timer.start()
        pidfd = os.pidfd_open(proc.pid)
        segments, resumed = [], started
        try:
            # Wait without reaping: the pid stays a zombie, so neither the
            # timer nor a pause can ever signal a reused pid.
            poller = select.poll()
            poller.register(pidfd, select.POLLIN)  # readable once the child has ended
            while pause is not None and not poller.poll(TICK_S * 1000):
                os.kill(proc.pid, signal.SIGSTOP)
                state = os.waitid(os.P_PID, proc.pid, os.WSTOPPED | os.WEXITED | os.WNOWAIT)
                if state.si_code != os.CLD_STOPPED:
                    break  # it ended first
                segments.append(time.perf_counter() - resumed)
                pause()
                resumed = time.perf_counter()
                os.kill(proc.pid, signal.SIGCONT)
            os.waitid(os.P_PID, proc.pid, os.WEXITED | os.WNOWAIT)
        except BaseException:
            os.kill(proc.pid, signal.SIGKILL)  # never leave it stopped or running
            os.wait4(proc.pid, 0)
            raise
        finally:
            timer.cancel()
            timer.join()
            os.close(pidfd)
        _, status, usage = os.wait4(proc.pid, 0)
        segments.append(time.perf_counter() - resumed)
        proc.returncode = os.waitstatus_to_exitcode(status)
        out.seek(0)
        err.seek(0)
        return Child(proc.returncode, sum(segments), usage.ru_utime + usage.ru_stime,
                     usage.ru_maxrss / 1024, out.read().decode(errors="replace"),
                     err.read().decode(errors="replace"), timed_out.is_set(), segments)


# ------------------------------------------------------------------ checks


class Checker:
    """Applies the op checks and the pinned digests; counts attempts and failures."""

    def __init__(self, workload: str, seed: int, use_pins: bool = True):
        self.workload, self.seed = workload, seed
        self.pins = json.loads(PINNED.read_text()) if use_pins and PINNED.exists() else {}
        self.attempted = 0
        self.failed = 0
        self.digests: dict[str, str] = {}

    def __call__(self, op: Op, code: int, stdout: str, done: dict) -> bool:
        self.attempted += 1
        reason, results = None, None
        try:
            report = json.loads(stdout)
            results = report["results"]
        except (ValueError, KeyError, TypeError):
            reason = f"exit {code}; no JSON report on stdout"
        if reason is None:
            try:
                reason = op.check(code, results, done)
            except (KeyError, TypeError, ValueError) as e:
                reason = f"malformed results: {e!r}"
        if reason is None:
            key = op.key(self.workload, self.seed)
            self.digests[key] = digest(results)
            pinned = self.pins.get(key)
            if pinned is not None and pinned != self.digests[key]:
                reason = f"results digest differs from the pinned {key}"
        if reason is None:
            done[op.name] = results
            return True
        self.failed += 1
        print(f"perfbench: {op.name} failed: {reason}", file=sys.stderr)
        return False


# ------------------------------------------------------------------ end to end


def tail(values: list[float]) -> tuple[float, str]:
    """Highest percentile with at least ten passes beyond it.

    Below 22 passes that percentile is the median or lower, which is no tail,
    so the upper quartile is reported instead: the slowest pass alone would
    follow a single burst of load on the host.  A run of --seconds 30 makes
    3 to 20 passes, so today this is always the upper quartile.
    """
    ordered = sorted(values)
    n = len(ordered)
    if n == 1:
        return ordered[0], "the only pass"
    if n < 22:
        return statistics.quantiles(ordered, n=4, method="inclusive")[2], f"p75 of {n} passes"
    return ordered[n - 11], f"p{100 * (n - 10) / n:.1f} of {n} passes"


def another_fits(started: float, seconds: float, durations: list[float]) -> bool:
    """Start another pass only if one as long as the median so far ends in time."""
    return not durations or (
        time.perf_counter() - started + statistics.median(durations) <= seconds)


class Clock:
    """Runs children pinned to known CPUs and corrects their times for CPU drift.

    The vCPUs of a shared host slow down and speed up by up to ~40% for
    seconds to a minute at a time, each on its own, so raw times of the same
    op differ more between runs than any bound could allow.  Every child runs
    on the first CPU of this process's affinity (an op with DRT_THREADS=k on
    the first k), and a fixed reference kernel is timed on the same CPU(s)
    just before the child, just after it and every TICK_S while it is paused.
    A time is then reported as raw * REFERENCE_S / reference: seconds at the
    speed at which the kernel takes REFERENCE_S.  Over ten seeds per workload
    on the 2-vCPU VM named at REFERENCE_S, the quartile spread of wall_s was
    9-47% of its median uncorrected and 5-7% corrected.  Raw times are kept
    in the result record.
    """

    def __init__(self) -> None:
        self.cpus = sorted(os.sched_getaffinity(0))
        self.home = {self.cpus[0]}
        os.sched_setaffinity(0, self.home)
        self.last: tuple[tuple[int, ...], float] = ((), 0.0)

    @staticmethod
    def reference_s() -> float:
        """A fixed pure-Python loop: the speed of this CPU right now.

        It allocates nothing: a child's ru_maxrss includes this process's
        resident set at exec, so a large one here would show in peak_rss_mib.
        """
        started = time.perf_counter()
        acc = 0
        for i in range(REFERENCE_LOOPS):
            acc += i * i & 7
        return time.perf_counter() - started

    def reference_on(self, cpus: tuple[int, ...]) -> float:
        """Mean reference time over `cpus`, measured pinned to each in turn."""
        times = []
        for cpu in cpus:
            os.sched_setaffinity(0, {cpu})
            times.append(self.reference_s())
        os.sched_setaffinity(0, self.home)
        return statistics.fmean(times)

    def run(self, argv: list[str], env: dict[str, str], workdir: Path) -> tuple[Child, float]:
        """One child on its CPUs; returns it with the factor that corrects its times.

        The kernel is timed before the child, after it, and in every pause of
        it, so each running stretch is corrected by the speed at its two ends.
        """
        cpus = tuple(self.cpus[:int(env.get("DRT_THREADS", 1))])
        refs = [self.last[1] if self.last[0] == cpus else self.reference_on(cpus)]
        os.sched_setaffinity(0, set(cpus))  # the child inherits it
        try:
            child = run_child(argv, env, workdir,
                              pause=lambda: refs.append(self.reference_on(cpus)))
        finally:
            os.sched_setaffinity(0, self.home)
        refs.append(self.reference_on(cpus))
        self.last = (cpus, refs[-1])
        corrected = sum(seg * 2 * REFERENCE_S / (r0 + r1)
                        for seg, r0, r1 in zip(child.segments, refs, refs[1:]))
        return child, corrected / child.wall_s


def setup_time(clock: Clock, workdir: Path) -> tuple[list[float], list[float]]:
    """Corrected and raw wall times of `drt --version` children: interpreter
    start, imports, parser."""
    env = child_env({})
    times, raw = [], []
    for i in range(SETUP_SAMPLES + 1):  # the first only warms the bytecode cache
        child, factor = clock.run(["--version"], env, workdir)
        if child.code != 0 or not child.stdout.startswith("drt "):
            raise RuntimeError(f"`drt --version` failed (exit {child.code}): {child.stderr.strip()}")
        if i:
            times.append(child.wall_s * factor)
            raw.append(child.wall_s)
    return times, raw


def end_to_end(ops: list[Op], checker: Checker, seconds: float, workdir: Path) -> tuple[dict, dict]:
    clock = Clock()
    setup_started = time.perf_counter()
    setup, setup_raw = setup_time(clock, workdir)
    setup_total = time.perf_counter() - setup_started
    envs = [child_env(op.env) for op in ops]
    passes, durations = [], []
    started = time.perf_counter()
    timed_out = False
    while not timed_out and another_fits(started, seconds, durations):
        pass_started = time.perf_counter()
        wall = cpu = raw_wall = raw_cpu = rss = 0.0
        done: dict = {}
        for op, env in zip(ops, envs):
            child, factor = clock.run(op.argv, env, workdir)
            checker(op, child.code, child.stdout, done)
            if child.timed_out:
                print(f"perfbench: {op.name} timed out after {OP_TIMEOUT_S} s", file=sys.stderr)
                timed_out = True  # counted as failed; start nothing after it
                break
            wall += child.wall_s * factor
            cpu += child.cpu_s * factor
            raw_wall += child.wall_s
            raw_cpu += child.cpu_s
            rss = max(rss, child.rss_mib)
        if not timed_out:
            passes.append({"wall_s": wall, "cpu_s": cpu, "raw_wall_s": raw_wall,
                           "raw_cpu_s": raw_cpu, "peak_rss_mib": rss})
            durations.append(time.perf_counter() - pass_started)
    if not passes:
        raise RuntimeError("no pass completed, so there is nothing to time")
    walls = [p["wall_s"] for p in passes]
    tail_value, tail_note = tail(walls)
    metrics = {
        "wall_s": statistics.median(walls),
        "wall_s_tail": tail_value,
        "cpu_s": statistics.median(p["cpu_s"] for p in passes),
        "peak_rss_mib": statistics.median(p["peak_rss_mib"] for p in passes),
        "setup_s": statistics.median(setup),
        "ok_frac": (checker.attempted - checker.failed) / checker.attempted,
    }
    detail = {
        "passes": passes,
        "raw_wall_s": statistics.median(p["raw_wall_s"] for p in passes),
        "raw_cpu_s": statistics.median(p["raw_cpu_s"] for p in passes),
        "raw_setup_s": statistics.median(setup_raw),
        "wall_s_tail": tail_note,
        "setup_samples_s": setup,
        "setup_phase_s": setup_total,
        # A child's ru_maxrss counts this resident set at its exec; it must stay below the ops' own peaks.
        "parent_rss_mib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "failed_frac": checker.failed / checker.attempted,
    }
    return metrics, detail


# ------------------------------------------------------------------ traced


def run_inprocess(ops: list[Op], checker: Checker, trace: tracer.Tracer | None) -> float:
    """One pass of `drt.cli.main(argv)` calls in this process; returns its seconds."""
    import drt.cli

    total = 0.0
    done: dict = {}
    for op in ops:
        if trace is not None:
            trace.op = op.name
        saved = {k: os.environ.get(k) for k in ("DRT_THREADS", *op.env)}
        os.environ.pop("DRT_THREADS", None)
        os.environ.update(op.env)
        out = io.StringIO()
        started = time.perf_counter()
        try:
            with contextlib.redirect_stdout(out):
                code = drt.cli.main(op.argv)
        except SystemExit as e:
            code = e.code if isinstance(e.code, int) else 2
        except Exception:  # a crash fails this op, as it would in a child
            traceback.print_exc()
            code = None
        finally:
            total += time.perf_counter() - started
            for k, v in saved.items():
                if v is None:
                    os.environ.pop(k, None)
                else:
                    os.environ[k] = v
        checker(op, code, out.getvalue(), done)
    return total


def traced(ops: list[Op], checker: Checker, seconds: float, spans_path: Path) -> tuple[dict, dict]:
    os.environ.update(THREAD_ENV)  # before numpy is imported, as for the children
    sys.path.insert(0, str(ROOT / "src"))
    import drt.cli  # noqa: F401  (imports every drt module)
    import drt.ranking

    trace = tracer.Tracer()
    plain_s, traced_s, layer_passes, all_spans = [], [], [], []
    started = time.perf_counter()
    run_inprocess(ops, checker, None)  # warm-up: first-touch costs stay out of the overhead
    peaks: list[tuple[int, int]] = []
    durations: list[float] = []
    while another_fits(started, seconds, durations):
        pair_started = time.perf_counter()
        plain_s.append(run_inprocess(ops, checker, None))
        trace.reset()
        trace.install()
        try:
            traced_s.append(run_inprocess(ops, checker, trace))
        finally:
            trace.uninstall()
        durations.append(time.perf_counter() - pair_started)
        layer_passes.append(trace.pass_metrics())
        all_spans.extend(trace.spans)
        if len(layer_passes) == 1:
            # tracemalloc pass, apart from the timed ones: only ops with a DP call.
            dp_ops = {s.op for s in trace.spans if s.name == "ranking.exact_max_consistent"}
            trace.install_dp_memory(peaks)
            try:
                run_inprocess([op for op in ops if op.name in dp_ops], checker, None)
            finally:
                trace.uninstall()
    metrics = tracer.median_metrics(layer_passes)
    metrics.update(tracer.dp_memory_metrics(peaks, drt.ranking.dp_table_nbytes))
    plain, slow = statistics.median(plain_s), statistics.median(traced_s)
    metrics["trace.overhead_ms"] = (slow - plain) * 1000
    metrics["trace.overhead_frac"] = (slow - plain) / plain
    with spans_path.open("w") as fh:
        for s in all_spans:
            fh.write(json.dumps(vars(s)) + "\n")
    detail = {"untraced_pass_s": plain_s, "traced_pass_s": traced_s,
              "dp_peaks": peaks, "spans_file": str(spans_path.relative_to(ROOT))}
    return metrics, detail


# ------------------------------------------------------------------ main


def pin(workdir: Path) -> None:
    """Record the results digest of every op at the default seed."""
    digests = {}
    for workload in WORKLOADS:
        wdir = workdir / f"pin-{workload}"
        wdir.mkdir(parents=True, exist_ok=True)
        checker = Checker(workload, DEFAULT_SEED, use_pins=False)
        done: dict = {}
        for op in plan(workload, DEFAULT_SEED, ROOT, wdir):
            child = run_child(op.argv, child_env(op.env), wdir)
            if not checker(op, child.code, child.stdout, done):
                raise SystemExit(f"perfbench: cannot pin, {op.name} failed")
        digests.update(checker.digests)
    PINNED.write_text(json.dumps(digests, indent=2, sort_keys=True) + "\n")
    print(f"pinned {len(digests)} digests to {PINNED.relative_to(ROOT)}")


def parse_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true", help="reduced sizes, for the self-test")
    parser.add_argument("--pin", action="store_true", help="rewrite pinned.json and exit")
    args = parser.parse_args(argv)
    if not args.pin and args.workload is None:
        parser.error("--workload is required")
    return args


def main(argv=None) -> int:
    # SIGTERM unwinds like Ctrl-C, so run_child kills a child it has paused.
    signal.signal(signal.SIGTERM, lambda signum, _frame: sys.exit(128 + signum))
    args = parse_args(argv)
    if not (ROOT / "src" / "drt" / "cli.py").is_file() or not (ROOT / "tests" / "golden").is_dir():
        print(f"perfbench: no drt source tree under {ROOT}; run from a full checkout",
              file=sys.stderr)
        return 2
    out = ROOT / ".perfbench"
    if args.pin:
        pin(out)
        return 0
    label = f"{args.workload}-seed{args.seed}" + ("-smoke" if args.smoke else "")
    workdir = out / label
    workdir.mkdir(parents=True, exist_ok=True)
    ops = plan(args.workload, args.seed, ROOT, workdir, smoke=args.smoke)
    threads = max(int(op.env.get("DRT_THREADS", 1)) for op in ops)
    if threads > nproc():
        print(f"perfbench: refusing DRT_THREADS={threads} on {nproc()} cpu(s)", file=sys.stderr)
        return 2
    checker = Checker(args.workload, args.seed, use_pins=not args.smoke)
    facts = machine_facts()
    try:
        if args.trace:
            metrics, detail = traced(ops, checker, args.seconds, out / f"spans-{label}.jsonl")
            units = tracer.layer_metric_units()
        else:
            metrics, detail = end_to_end(ops, checker, args.seconds, workdir)
            units = END_TO_END_UNITS
    except RuntimeError as e:
        print(f"perfbench: {e}", file=sys.stderr)
        return 2
    record = {"workload": args.workload, "seed": args.seed, "trace": args.trace,
              "smoke": args.smoke, "machine": facts, "metrics": metrics,
              "attempted": checker.attempted, "failed": checker.failed, "detail": detail}
    (out / f"result-{label}-trace{args.trace}.json").write_text(json.dumps(record, indent=2))

    print(f"machine: nproc={facts['nproc']} cpu={facts['cpu_model']!r}"
          f" python={facts['python']} numpy={facts['numpy']}")
    print(f"workload={args.workload} seed={args.seed} ops attempted={checker.attempted}"
          f" failed={checker.failed} failed_frac={checker.failed / checker.attempted:g}")
    for name, value in metrics.items():
        note = f"  ({detail['wall_s_tail']})" if name == "wall_s_tail" else ""
        print(f"  {name:<44} {value:>16.6f} {units[name]}{note}")
    if not args.trace:  # the same medians in seconds as measured, before the drift correction
        for name in ("raw_wall_s", "raw_cpu_s", "raw_setup_s"):
            print(f"  {name:<44} {detail[name]:>16.6f} s")
    result = {
        "correct": checker.failed == 0,
        "attempted": checker.attempted,
        "failed": checker.failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
