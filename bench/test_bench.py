"""Self-tests of the benchmark.  Run from the checkout root:

    python3 -m pytest bench/test_bench.py
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import statistics
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
for path in (str(HERE.parent / "src"), str(HERE)):
    if path not in sys.path:
        sys.path.insert(0, path)

import spherekernel as sk  # noqa: E402

import oracles  # noqa: E402
import run  # noqa: E402
import tracer as tracing  # noqa: E402
import workloads  # noqa: E402


def _main_metrics(*args) -> dict:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert run.main(list(args)) == 0
    return json.loads(out.getvalue().strip().splitlines()[-1])


def test_correct_library_passes_every_check():
    runner, metrics, _ = run.run_end_to_end("gram", 3, seconds=0.0, min_tasks=1)
    assert runner.attempted > 0 and runner.ok == runner.attempted
    assert 0.0 < metrics["worst_tol_use"] <= 1.0


def test_result_off_by_two_tol_raises_fail_frac(monkeypatch):
    # negative control: phi_eval returns its value shifted by 2 tol
    original = sk.phi_eval

    def off_by_two_tol(spec, theta, tol=1e-10):
        return original(spec, theta, tol) + 2.0 * tol

    monkeypatch.setattr(sk, "phi_eval", off_by_two_tol)
    runner, metrics, _ = run.run_end_to_end("gram", 3, seconds=0.0, min_tasks=1)
    failed = runner.attempted - runner.ok
    assert failed / runner.attempted > 0.0
    assert all(key.startswith("phi_eval:wrong") for key in runner.failures)
    assert metrics["worst_tol_use"] >= 2.0 - 1e-6


def test_runaway_task_is_stopped_and_counted(monkeypatch):
    monkeypatch.setattr(run, "TASK_DEADLINE_S", 0.05)

    def forever():
        while True:
            pass

    runner = run.Runner()
    runner.run_task(workloads.Task("runaway", forever, lambda out: ([], True)))
    assert runner.attempted == 1 and runner.ok == 0
    assert runner.failures == {"runaway:deadline": 1}
    assert run.percentile_ms(runner.latencies, 0.9, 0.05) == 50.0


def test_round_sizes_put_percentiles_inside_one_task():
    # see "Round sizes" in workloads.py; cli's round 0 also holds verify all
    for workload in ("gram", "exact-derivs", "cli"):
        assert len(workloads.round_tasks(workload, 4, 1, {})) % 10 == 5


def test_task_times_scale_by_nearby_reference_timings():
    w, n = run.REF_WINDOW_S, run.REF_NEAREST
    runner = run.Runner()
    # dense timings, every w/4 with scale equal to their index: those within
    # w before the start and after the end count; one that starts with the
    # task counts as before it, and one during it does not
    runner.ref_at = [k * w / 4 for k in range(41)]
    runner.ref_scale = [float(k) for k in range(41)]
    runner.task_times = [(5 * w, w / 2)]
    assert runner.scaled_times() == [w / 2 * statistics.median([16, 17, 18, 19, 20, 22, 23, 24, 25, 26])]
    # sparse timings: the n nearest on each side count
    runner.ref_at = [k * 10 * w for k in range(2 * n + 2)]
    runner.ref_scale = [float(k) for k in range(2 * n + 2)]
    runner.task_times = [((n + 0.5) * 10 * w, w)]
    assert runner.scaled_times() == [w * statistics.median(range(1, 2 * n + 1))]


def test_self_times_sum_to_root_durations():
    tasks = workloads.gram_tasks(5)[:24] + workloads.exact_tasks(5, 0)[:8]
    tracer = tracing.Tracer()
    tracer.install()
    try:
        for task in tasks:
            with tracer.root("task." + task.kind):
                task.run()
    finally:
        tracer.uninstall()
    roots = [span for span in tracer.spans if span[4] is None]
    assert len(roots) == len(tasks)
    root_total = sum(t1 - t0 for _, _, t0, t1, _ in roots)
    self_total = sum(self_s for _, self_s in tracer.stats.values())
    assert math.isclose(self_total, root_total, rel_tol=1e-9, abs_tol=1e-9)
    # the library is left exactly as it was found
    assert not hasattr(sk.phi_eval, "__wrapped__")


def test_other_seed_gives_same_metric_names():
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    e2e = {m["name"] for m in spec["end_to_end"]}
    layer = {m["name"] for m in spec["per_layer"]}
    for seed in (1, 2):
        args = ("--workload", "gram", "--seed", str(seed), "--seconds", "0")
        assert set(_main_metrics(*args, "--trace", "0")["metrics"]) == e2e
        assert set(_main_metrics(*args, "--trace", "1")["metrics"]) == layer


def test_oracle_closed_forms_match_direct_sums():
    # S^4 geometric closed form against the normalised Gegenbauer series
    c, r, t = 1.0, 0.6, 0.3
    g_prev, g_cur, total = 1.0, t, 1.0 + r * t
    for k in range(1, 200):
        g_prev, g_cur = g_cur, ((2 * k + 3) * t * g_cur - k * g_prev) / (k + 3)
        total += r ** (k + 1) * g_cur
    ref = oracles.phi_d(("geometric", c, r), 4, ("theta", math.acos(t)), 1e-12)
    assert math.isclose(ref, total, rel_tol=1e-12)
    # even moments of a sum of m random signs, by direct enumeration
    for ell, coeffs in oracles.RADEMACHER_MOMENTS.items():
        for m in range(1, 9):
            direct = sum(math.comb(m, k) * (m - 2 * k) ** (2 * ell) for k in range(m + 1)) / 2 ** m
            assert sum(a * m ** i for i, a in enumerate(coeffs)) == direct
