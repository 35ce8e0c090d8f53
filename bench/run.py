"""spherekernel benchmark: closed-loop workloads checked against independent oracles.

Run from the root of a checkout:

    python3 bench/run.py --workload gram --seed 1 --seconds 20 --trace 0

One client runs one task at a time.  Rounds of seeded tasks repeat until
at least ``--seconds`` of task time and at least MIN_TASKS tasks have
run, so the 90th percentile always has ten or more tasks beyond it.
Every output is checked against ``oracles`` after its round, outside the
timed region.

With ``--trace 0`` the last line of stdout carries the end-to-end metrics:

    setup_s        median over up to SETUP_PROBES fresh interpreters, started
                   between rounds, of the time to import the library and
                   build the first round's inputs
    goodput_per_s  correctly completed tasks per second of task time
    task_p50_ms    nearest-rank latency percentiles; a failed task ranks
    task_p90_ms    above every success
    worst_tol_use  largest |computed - reference| / tol of any checked float
    peak_rss_mb    ru_maxrss of the benchmark; for cli, of the largest command

The set-up and task times are scaled to a reference speed of the host.
Its CPU speed changes by up to half within seconds and drifts over
minutes with other tenants' load, far more than the bounds a change is
judged by.  So the fixed work in ``reference.py`` is timed every
REF_EVERY_S between tasks, and each task's time is multiplied by REF_S
over the median of the reference timings up to REF_WINDOW_S before and
after it, and at least the REF_NEAREST nearest on either side.  Work
done in fresh interpreters (the cli commands and the set-up probes) is
scaled the same way by a fresh interpreter that does the reference work,
timed every FRESH_REF_EVERY_S between commands and before each probe,
and FRESH_REF_S.  The scaled times read as times on a host where the
reference work takes REF_S and FRESH_REF_S, about the unloaded speed of
the two-vCPU host the benchmark was written on.  The ``info`` line also
gives the unscaled figures.

With ``--trace 1`` the last line carries the per-layer metrics, per
traced round, plus the tracing overhead measured against untraced rounds
of the same composition run in alternation.  The line before the last
is an ``info`` object with the interpreter version, CPU count, seed,
task and failure counts and span counts.  Spans go to ``.bench_out/``
in the checkout.
"""

from __future__ import annotations

import argparse
import bisect
import json
import math
import os
import resource
import signal
import statistics
import subprocess
import sys
import tempfile
from collections import Counter
from pathlib import Path
from time import perf_counter

import reference

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"

MIN_TASKS = 100
SETUP_PROBES = 10
TASK_DEADLINE_S = 30.0
TRACED_DEADLINE_S = 90.0
CLI_DEADLINE_S = 60.0
TRACE_MIN_S = 2.0
REF_EVERY_S = 0.1
FRESH_REF_EVERY_S = 1.0
REF_WINDOW_S = 2.0
REF_NEAREST = 4
REF_S = 0.0015
FRESH_REF_S = 0.12
FRESH_REF = (sys.executable, str(HERE / "reference.py"), "40")

END_TO_END = (
    ("setup_s", "s"),
    ("goodput_per_s", "1/s"),
    ("task_p50_ms", "ms"),
    ("task_p90_ms", "ms"),
    ("worst_tol_use", "ratio"),
    ("peak_rss_mb", "MB"),
)

VERIFICATION_CHECKS = (
    "table_matches_symbolic_oracle",
    "diagonal_closed_form",
    "edge_cells_are_falling_factorials",
    "binomial_sum_cross_identity",
    "derivative_vs_finite_difference",
    "exact_leading_coefficients",
    "ratio_convergence_to_leading_growth",
    "scaled_sum_convergence_shape",
    "exact_log_crossover_agreement",
    "circle_series_reconstruction",
    "mass_preservation_and_nonnegativity",
    "classifier_fixed_points",
    "classifier_weight_consistency",
    "derivative_series_vs_finite_difference",
    "psd_quadratic_form_spot_checks",
)

PER_LAYER = (
    ("kernels.phi_eval_d.calls", "count"),
    ("kernels.phi_eval_d.self_s", "s"),
    ("kernels.phi_eval_inf.calls", "count"),
    ("kernels.phi_eval_inf.self_s", "s"),
    ("kernels.psd_spot_check.self_s", "s"),
    ("kernels.prefix_cache_hit_ratio", "ratio"),
    ("kernels.prefix_terms", "count"),
    ("sequences.weighted_tail_bound.calls", "count"),
    ("sequences.weighted_tail_bound.self_s", "s"),
    ("sequences.truncation_index.calls", "count"),
    ("sequences.truncation_index.self_s", "s"),
    ("sequences.term.calls", "count"),
    ("transform.circle_coefficient.calls", "count"),
    ("transform.circle_coefficient.self_s", "s"),
    ("transform.circle_sequence.self_s", "s"),
    ("transform.circle_terms", "count"),
    ("transform.reconstruct_error.self_s", "s"),
    ("transform.derivative_at_zero_series.self_s", "s"),
    ("transform.derivative_at_zero_series.terms", "count"),
    ("derivatives.diagonal_closed_form.calls", "count"),
    ("derivatives.diagonal_closed_form.self_s", "s"),
    ("derivatives.build_deriv_table.self_s", "s"),
    ("derivatives.table_cells", "count"),
    ("asymptotics.scaled_sum.exact_calls", "count"),
    ("asymptotics.scaled_sum.log_calls", "count"),
    ("asymptotics.scaled_sum.self_s", "s"),
    ("asymptotics.build_leading_table.calls", "count"),
    ("asymptotics.build_leading_table.self_s", "s"),
    ("exact.binomial.calls", "count"),
    ("exact.log_binomial.calls", "count"),
    ("exact.self_s", "s"),
    ("cli.import_s", "s"),
    ("cli.process_s", "s"),
    ("cli.main.self_s", "s"),
) + tuple((f"verification.{name}.s", "s") for name in VERIFICATION_CHECKS) + (
    ("trace.overhead_frac", "ratio"),
    ("trace.spans", "count"),
)


class TaskDeadline(BaseException):
    """Raised by the interval timer inside a task that ran past its deadline."""


def _on_alarm(signum, frame):
    raise TaskDeadline()


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--probe-setup", action="store_true", help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def require_checkout() -> None:
    if not (SRC / "spherekernel" / "__init__.py").is_file():
        sys.stderr.write(f"benchmark: no library sources at {SRC}; run from a checkout root\n")
        raise SystemExit(2)
    for path in (str(SRC), str(HERE)):
        if path not in sys.path:
            sys.path.insert(0, path)


# ---------------------------------------------------------------------------
# Set-up time: fresh interpreters that import the library and build the
# first round's inputs, then report ready.


def probe_setup(workload: str, seed: int) -> None:
    import workloads

    workloads.round_tasks(workload, seed, 0, {})
    sys.stdout.write("ready\n")
    sys.stdout.flush()


def measure_setup(workload: str, seed: int) -> float:
    """Seconds from starting a fresh interpreter to its first task being
    ready, scaled by the fresh-interpreter reference timed just before."""
    reference_s = _seconds_to_ready(FRESH_REF)
    probe = _seconds_to_ready((sys.executable, str(HERE / "run.py"), "--probe-setup",
                               "--workload", workload, "--seed", str(seed)))
    return probe * FRESH_REF_S / reference_s


def _seconds_to_ready(cmd: tuple) -> float:
    """Seconds from starting ``cmd`` to its first line, which must read ready."""
    t0 = perf_counter()
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, cwd=ROOT, text=True)
    try:
        line = proc.stdout.readline()
        elapsed = perf_counter() - t0
        proc.communicate(timeout=CLI_DEADLINE_S)
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
    if line.strip() != "ready" or proc.returncode != 0:
        raise RuntimeError(f"{cmd[1]} failed with exit code {proc.returncode}")
    return elapsed


# ---------------------------------------------------------------------------
# Task execution.


class Runner:
    """Runs tasks one at a time, checks them and keeps the tallies of a run."""

    def __init__(self):
        self.tracer = None
        self.latencies: list[float] = []   # seconds; math.inf marks a failure
        self.task_times: list[tuple] = []  # (start, seconds) of every task
        self.ref_at: list[float] = []      # start of each reference timing
        self.ref_scale: list[float] = []   # REF_S (FRESH_REF_S) / its seconds
        self.failures: Counter = Counter()
        self.worst_use = 0.0
        self.ok = 0
        self.child_snapshots: list[dict] = []
        self.cli_process_s = 0.0
        self.child_peak_rss_kb = 0
        self._spawner = None  # the process that starts cli commands
        signal.signal(signal.SIGALRM, _on_alarm)

    @property
    def attempted(self) -> int:
        return len(self.latencies)

    def _call(self, task):
        from workloads import CliCall

        if isinstance(task.run, CliCall):
            return self._call_cli(task.run.argv)
        deadline = TRACED_DEADLINE_S if self.tracer else TASK_DEADLINE_S
        signal.setitimer(signal.ITIMER_REAL, deadline)
        try:
            return task.run()
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)

    def _call_cli(self, argv):
        """Run one command in a fresh interpreter; returns (exit code, stdout)."""
        trace_file = None
        if self.tracer:
            OUT.mkdir(exist_ok=True)
            fd, trace_file = tempfile.mkstemp(dir=OUT, suffix=".json")
            os.close(fd)
            cmd = [sys.executable, str(HERE / "cli_child.py"), trace_file, *argv]
        else:
            cmd = [sys.executable, "-m", "spherekernel.cli", *argv]
        try:
            reply, stdout = self._spawn(cmd)
            if trace_file:
                with open(trace_file) as fh:
                    text = fh.read()
                if text:
                    self.child_snapshots.append(json.loads(text))
        finally:
            if trace_file:
                os.unlink(trace_file)
        self.cli_process_s += reply["seconds"]
        if reply["code"] is None:
            raise TaskDeadline()
        self.child_peak_rss_kb = max(self.child_peak_rss_kb, reply["maxrss_kb"])
        return reply["code"], stdout

    def _spawn(self, cmd: list) -> tuple:
        """Run ``cmd`` from the spawner; returns (its reply, stdout).

        The spawner enforces CLI_DEADLINE_S on the command.
        """
        OUT.mkdir(exist_ok=True)
        if self._spawner is None:
            self._spawner = subprocess.Popen(
                [sys.executable, str(HERE / "spawner.py")], cwd=ROOT,
                stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True,
            )
        fd, stdout_path = tempfile.mkstemp(dir=OUT, suffix=".out")
        os.close(fd)
        request = {
            "cmd": cmd, "env": dict(os.environ, PYTHONPATH=str(SRC)), "cwd": str(ROOT),
            "stdout": stdout_path, "timeout": CLI_DEADLINE_S,
        }
        try:
            self._spawner.stdin.write(json.dumps(request) + "\n")
            self._spawner.stdin.flush()
            reply = json.loads(self._spawner.stdout.readline())
            with open(stdout_path) as fh:
                stdout = fh.read()
        finally:
            os.unlink(stdout_path)
        return reply, stdout

    def time_reference(self, fresh_interpreter: bool, due: bool = False) -> None:
        """Time the reference if ``due`` or if the last timing is
        REF_EVERY_S (FRESH_REF_EVERY_S) old."""
        t0 = perf_counter()
        every_s = FRESH_REF_EVERY_S if fresh_interpreter else REF_EVERY_S
        if self.ref_at and not due and t0 - self.ref_at[-1] < every_s:
            return
        if fresh_interpreter:
            reply, stdout = self._spawn(list(FRESH_REF))
            if reply["code"] != 0 or stdout.strip() != "ready":
                raise RuntimeError(f"reference.py failed with exit code {reply['code']}")
            scale = FRESH_REF_S / (perf_counter() - t0)
        else:
            reference.work()
            scale = REF_S / (perf_counter() - t0)
        self.ref_at.append(t0)
        self.ref_scale.append(scale)

    def scaled_times(self) -> list:
        """Seconds of every task, scaled by the median of the reference
        timings within REF_WINDOW_S before and after it, and at least the
        REF_NEAREST last ones before it and first ones after it."""
        at = self.ref_at
        scaled = []
        for start, seconds in self.task_times:
            end = start + seconds
            before = bisect.bisect_right(at, start)
            first = min(bisect.bisect_left(at, start - REF_WINDOW_S), before - REF_NEAREST)
            after = bisect.bisect_left(at, end)
            last = max(bisect.bisect_right(at, end + REF_WINDOW_S), after + REF_NEAREST)
            near = self.ref_scale[max(first, 0):before] + self.ref_scale[after:last]
            scaled.append(seconds * statistics.median(near))
        return scaled

    def close(self) -> None:
        """Stop the spawner, if one was started."""
        if self._spawner is not None:
            self._spawner.stdin.close()
            self._spawner.wait(timeout=CLI_DEADLINE_S)
            self._spawner.stdout.close()
            self._spawner = None

    def _execute(self, task) -> tuple:
        """Run one task; returns (start, wall seconds, output, error or None)."""
        from workloads import CliCall

        self.time_reference(isinstance(task.run, CliCall))
        output = error = None
        t0 = perf_counter()
        try:
            if self.tracer:
                with self.tracer.root("task." + task.kind):
                    output = self._call(task)
            else:
                output = self._call(task)
        except TaskDeadline:
            error = "deadline"
        except Exception as exc:  # a task that raises is a failed task, never a crash
            error = type(exc).__name__
        return t0, perf_counter() - t0, output, error

    def _record(self, task, start: float, elapsed: float, output, error) -> None:
        """Check one task's output and tally it."""
        self.task_times.append((start, elapsed))
        if error is None:
            try:
                uses, exact_ok = task.check(output)
            except Exception as exc:  # malformed output, e.g. unparsable JSON
                error = "check:" + type(exc).__name__
            else:
                self.worst_use = max([self.worst_use, *uses])
                if not exact_ok or any(not u <= 1.0 for u in uses):
                    error = "wrong"
        if error is None:
            self.ok += 1
            self.latencies.append(elapsed)
        else:
            self.failures[f"{task.kind}:{error}"] += 1
            self.latencies.append(math.inf)

    def run_task(self, task) -> float:
        """Run and check one task; returns its wall time in seconds."""
        result = self._execute(task)
        self._record(task, *result)
        return result[1]

    def run_round(self, tasks) -> float:
        """Run the tasks back to back, then check them; returns their total time.

        Checking after the round keeps the oracles' work from disturbing
        the caches between timed tasks.
        """
        from workloads import CliCall

        results = [self._execute(task) for task in tasks]
        # every task needs reference timings after it, as well as before
        self.time_reference(isinstance(tasks[-1].run, CliCall), due=True)
        for task, result in zip(tasks, results):
            self._record(task, *result)
        return sum(result[1] for result in results)


def run_known_failures(workload: str) -> dict:
    """Outcome of each known-failing request: "ok" or the failure reason."""
    import workloads

    outcomes = {}
    for label, task in workloads.known_failures(workload).items():
        probe = Runner()
        probe.run_task(task)
        reason = next(iter(probe.failures), "ok")
        outcomes[label] = reason if reason == "ok" else reason.split(":", 1)[1]
        if probe.worst_use:
            outcomes[label] += f" (tol use {probe.worst_use:.3g})"
    return outcomes


def percentile_ms(latencies: list, q: float, cap_s: float) -> float:
    """Nearest-rank percentile; a failed task ranks above every success."""
    ordered = sorted(latencies)
    value = ordered[max(0, math.ceil(q * len(ordered)) - 1)]
    return 1000.0 * (cap_s if math.isinf(value) else value)


# ---------------------------------------------------------------------------
# The two kinds of run.


def run_end_to_end(workload: str, seed: int, seconds: float, min_tasks: int = MIN_TASKS):
    import workloads

    cache: dict = {}
    runner = Runner()
    cap = CLI_DEADLINE_S if workload == "cli" else TASK_DEADLINE_S
    timed = 0.0
    rounds = 0
    # set-up probes are spread over the run, between rounds, so that their
    # median does not hang on one moment of the machine's load
    setup = [measure_setup(workload, seed)]
    try:
        while timed < seconds or runner.attempted < min_tasks:
            timed += runner.run_round(workloads.round_tasks(workload, seed, rounds, cache))
            rounds += 1
            while len(setup) < SETUP_PROBES * min(1.0, timed / max(seconds, 1e-9)):
                setup.append(measure_setup(workload, seed))
    finally:
        runner.close()
    if workload == "cli":
        peak_rss_mb = runner.child_peak_rss_kb / 1024.0
    else:
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    scaled = runner.scaled_times()
    latencies = [s if math.isfinite(t) else t for s, t in zip(scaled, runner.latencies)]
    metrics = {
        "setup_s": statistics.median(setup),
        "goodput_per_s": runner.ok / sum(scaled),
        "task_p50_ms": percentile_ms(latencies, 0.5, cap),
        "task_p90_ms": percentile_ms(latencies, 0.9, cap),
        "worst_tol_use": runner.worst_use,
        "peak_rss_mb": peak_rss_mb,
    }
    info = {
        "rounds": rounds, "timed_s": timed, "scaled_s": sum(scaled),
        "reference_timings": len(runner.ref_scale),
        "reference_scale_median": statistics.median(runner.ref_scale),
        "setup_probes_s": setup,
        "unscaled": {
            "goodput_per_s": runner.ok / timed,
            "task_p50_ms": percentile_ms(runner.latencies, 0.5, cap),
            "task_p90_ms": percentile_ms(runner.latencies, 0.9, cap),
        },
    }
    return runner, metrics, info


def run_traced(workload: str, seed: int):
    """Untraced and traced rounds in alternation; per-layer totals per round.

    In-process workloads first run an untraced warm-up round, so that the
    measured rounds see the same cache state, and alternate until the
    untraced rounds add up to TRACE_MIN_S.  Each cli task is a fresh
    process, and only round 0 holds ``verify all``, so cli measures round
    0 once each way.
    """
    import tracer as tracing
    import workloads

    cache: dict = {}
    runner = Runner()
    tracer = tracing.Tracer()
    plain_s = traced_s = cli_process_s = 0.0
    pairs = 0
    try:
        if workload != "cli":
            runner.run_round(workloads.round_tasks(workload, seed, 0, cache))
        while pairs == 0 or (workload != "cli" and plain_s < TRACE_MIN_S):
            plain_round = traced_round = 0
            if workload != "cli":
                plain_round, traced_round = 2 * pairs + 1, 2 * pairs + 2
            plain_s += runner.run_round(workloads.round_tasks(workload, seed, plain_round, cache))
            tasks = workloads.round_tasks(workload, seed, traced_round, cache)
            before = runner.cli_process_s
            runner.tracer = tracer
            tracer.install()
            try:
                traced_s += runner.run_round(tasks)
            finally:
                tracer.uninstall()
                runner.tracer = None
            cli_process_s += runner.cli_process_s - before
            pairs += 1
    finally:
        runner.close()
    OUT.mkdir(exist_ok=True)
    snap = tracer.snapshot()
    for child in runner.child_snapshots:
        tracing.merge(snap, child)
    spans_path = OUT / f"spans-{workload}-seed{seed}.jsonl"
    tracer.write_spans(spans_path)

    stats, counters = snap["stats"], snap["counters"]

    def calls(name):
        return stats.get(name, (0, 0.0))[0] / pairs

    def self_s(name):
        return stats.get(name, (0, 0.0))[1] / pairs

    hits = counters.get("kernels.prefix_hits", 0.0)
    misses = counters.get("kernels.prefix_misses", 0.0)
    values = {
        "kernels.prefix_cache_hit_ratio": hits / (hits + misses) if hits + misses else 0.0,
        "exact.self_s": sum(self_s(n) for n in tracing.EXACT_FUNCTIONS),
        "cli.process_s": cli_process_s / pairs,
        "trace.overhead_frac": traced_s / plain_s - 1.0,
        "trace.spans": snap["spans"] / pairs,
    }
    for name, _unit in PER_LAYER:
        if name in values:
            continue
        if name.endswith(".calls") and name not in counters:
            values[name] = calls(name[: -len(".calls")])
        elif name.endswith(".self_s"):
            values[name] = self_s(name[: -len(".self_s")])
        else:
            values[name] = counters.get(name, 0.0) / pairs
    info = {
        "traced_rounds": pairs,
        "plain_s": plain_s,
        "traced_s": traced_s,
        "spans": snap["spans"],
        "spans_dropped": snap["spans_dropped"],
        "spans_file": str(spans_path.relative_to(ROOT)),
    }
    return runner, values, info


def main(argv=None) -> int:
    args = parse_args(argv)
    require_checkout()
    import workloads

    if args.workload not in workloads.WORKLOADS:
        sys.stderr.write(f"benchmark: unknown workload {args.workload!r}; "
                         f"choose from {', '.join(workloads.WORKLOADS)}\n")
        return 2
    if args.probe_setup:
        probe_setup(args.workload, args.seed)
        return 0
    if args.trace:
        runner, values, info = run_traced(args.workload, args.seed)
        units = dict(PER_LAYER)
    else:
        runner, values, info = run_end_to_end(args.workload, args.seed, args.seconds)
        units = dict(END_TO_END)
    info["known_failures"] = run_known_failures(args.workload)
    failed = runner.attempted - runner.ok
    info.update(
        workload=args.workload,
        seed=args.seed,
        trace=args.trace,
        python=sys.version.split()[0],
        nproc=os.cpu_count(),
        attempted=runner.attempted,
        fail_frac=failed / runner.attempted,
        failures=dict(runner.failures),
    )
    print(json.dumps({"info": info}))
    print(json.dumps({
        "correct": failed == 0,
        "attempted": runner.attempted,
        "failed": failed,
        "metrics": {name: {"value": values[name], "unit": unit} for name, unit in units.items()},
    }))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
