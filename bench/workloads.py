"""Seeded task lists for the four workloads.

A workload is a sequence of rounds; each round is a list of tasks with a
fixed composition, and the seed draws the angles, point sets, weights,
model scales and the order of the tasks.  A task makes its public-API
calls through the ``spherekernel`` package attributes at call time, so a
tracer or a test can rebind them.  Its check compares the output with
the independent references in ``oracles`` and returns the tolerance uses
|computed - reference| / tol of its float outputs plus whether its exact
outputs matched.

Model grid (from the project roadmap): Geometric r in {0.5, 0.9, 0.99},
Poisson c in {2, 50}, PowerLaw p in {3.5, 4.5, 7}, tol in {1e-5, 1e-10},
spheres d in {inf, 1, 2, 4}.
"""

from __future__ import annotations

import json
import math
import random
import re
from dataclasses import dataclass
from typing import Callable

import spherekernel as sk

WORKLOADS = ("gram", "transform", "exact-derivs", "cli")

GEOMETRIC = (("geometric", 1.0, 0.5), ("geometric", 1.0, 0.9), ("geometric", 1.0, 0.99))
POISSON = (("poisson", 2.0), ("poisson", 50.0))
POWERLAW = (("powerlaw", 1.0, 3.5), ("powerlaw", 1.0, 4.5), ("powerlaw", 1.0, 7.0))
MODELS = GEOMETRIC + POISSON + POWERLAW
TOLS = (1e-5, 1e-10)


@dataclass
class Task:
    kind: str
    run: Callable[[], object]
    check: Callable[[object], tuple]  # output -> (list of tolerance uses, exact outputs ok)


def oracles():
    # imported on first check, so that set-up time and the timed loop
    # never pay for mpmath
    import oracles as module

    return module


def model(desc: tuple):
    kind = desc[0]
    if kind == "geometric":
        return sk.Geometric(desc[1], desc[2])
    if kind == "poisson":
        return sk.PoissonType(desc[1])
    return sk.PowerLaw(desc[1], desc[2])


def _rng(seed: int, *salt) -> random.Random:
    return random.Random(f"{seed}:" + ":".join(map(str, salt)))


def _angles(rng: random.Random, count: int = 7) -> tuple:
    # theta = 0 and pi have closed-form references on every sphere; the
    # interior angles stay 0.1 away from both so S^4 sums converge fast
    return (0.0, math.pi) + tuple(rng.uniform(0.1, math.pi - 0.1) for _ in range(count))


# ---------------------------------------------------------------------------
# Round sizes.  A round of gram, exact-derivs and cli holds N tasks with
# N = 5 (mod 10).  Over R rounds the nearest-rank median then falls half-way
# through the R samples of one task, and so does the 90th percentile, R/2
# samples below the samples of the N // 10 costliest tasks, rather than at
# the edge between two tasks of different cost, where it would read the
# extreme sample of one of them.  transform's tasks come in pairs; there
# both percentiles fall inside a group of tasks of about the same cost.


# ---------------------------------------------------------------------------
# gram: phi_eval batches and psd quadratic forms; inputs are drawn once per
# run, so every model's coefficient prefix is cached after its first task.


def _phi_batch(desc, d, tol, angles) -> Task:
    spec = sk.KernelSpec(d, model(desc))

    def run():
        return [sk.phi_eval(spec, theta, tol) for theta in angles]

    def check(values):
        o = oracles()
        refs = [
            o.phi_inf(desc, th) if d is None else o.phi_d(desc, d, ("theta", th), tol)
            for th in angles
        ]
        return [abs(v - r) / tol for v, r in zip(values, refs)], True

    return Task("phi_eval", run, check)


def _unit_points(rng: random.Random, ambient: int, count: int, separated: bool) -> tuple:
    limit = math.cos(0.1)
    while True:
        points = []
        for _ in range(count):
            raw = [rng.gauss(0.0, 1.0) for _ in range(ambient)]
            norm = math.sqrt(math.fsum(x * x for x in raw))
            points.append(tuple(x / norm for x in raw))
        if not separated or all(
            abs(math.fsum(a * b for a, b in zip(p, q))) <= limit
            for i, p in enumerate(points) for q in points[i + 1:]
        ):
            return tuple(points)


def _psd(desc, d, tol, rng) -> Task:
    ambient = 6 if d is None else d + 1
    # S^4 references for non-geometric models are Gegenbauer sums, which
    # need every pair angle away from 0 and pi
    points = _unit_points(rng, ambient, 8, d == 4)
    weights = tuple(rng.uniform(-1.0, 1.0) for _ in points)
    spec = sk.KernelSpec(d, model(desc))
    vectors = [sk.UnitVector(p) for p in points]

    def run():
        return sk.psd_spot_check(spec, vectors, list(weights), tol)

    def check(verdict):
        o = oracles()
        ref = o.psd_form(desc, d, points, weights, tol)
        mass = o.phi_inf(desc, 0.0)
        scale = tol * mass * math.fsum(abs(w) for w in weights) ** 2
        # Schoenberg: nonnegative coefficients make every form nonnegative
        return [abs(verdict.value - ref) / scale], bool(verdict.passed)

    return Task("psd_spot_check", run, check)


def gram_tasks(seed: int) -> list:
    rng = _rng(seed, "gram")
    tasks = []
    # batches with closed-form references are long enough that their timing
    # is not lost in timer and cache noise; the S^4 batches' references are
    # series sums and keep to a few angles
    for tol in TOLS:
        for desc in MODELS:
            tasks.append(_phi_batch(desc, None, tol, _angles(rng, 31)))
            tasks.append(_phi_batch(desc, 4, tol, _angles(rng)))
        for desc in GEOMETRIC:
            tasks.append(_phi_batch(desc, 1, tol, _angles(rng, 31)))
            tasks.append(_phi_batch(desc, 2, tol, _angles(rng, 31)))
    tol = 1e-10
    for desc in MODELS:
        tasks.append(_psd(desc, None, tol, rng))
    for desc in GEOMETRIC:
        tasks.append(_psd(desc, 1, tol, rng))
        tasks.append(_psd(desc, 2, tol, rng))
    for desc in (GEOMETRIC[1], POISSON[1], POWERLAW[0], POWERLAW[2]):
        tasks.append(_psd(desc, 4, tol, rng))
    for desc in (GEOMETRIC[1], POISSON[1], POWERLAW[1]):
        tasks.append(_psd(desc, None, 1e-5, rng))
    return tasks


# ---------------------------------------------------------------------------
# transform: every round meets new models (scales drawn per task), so each
# circle_sequence and each reconstruct_error starts cold.

TRANSFORM_CELLS = (
    [(("geometric", 1.0 - r, r), tol) for r in (0.9, 0.99) for tol in TOLS]
    + [(("poisson", 50.0), tol) for tol in TOLS]
    + [(("powerlaw", 1.0, 4.5), tol) for tol in TOLS]
    # the fast-decaying models take about a millisecond at either tol, so
    # they run at 1e-10 only
    + [(("geometric", 0.5, 0.5), 1e-10), (("poisson", 2.0), 1e-10), (("powerlaw", 1.0, 7.0), 1e-10)]
    # p = 3.5 at 1e-10 takes about a minute; 1e-6 keeps the slow-decay case
    + [(("powerlaw", 1.0, 3.5), tol) for tol in (1e-5, 1e-6)]
    # two more Geometric(0.1, 0.9) cells at 1e-10: with them the seven tasks of
    # 20 to 50 ms take ranks 12 to 18 of 30, so the median task falls in the
    # middle of one class of similar tasks rather than at a gap between two;
    # likewise the 90th percentile (rank 27) is the middle of the three
    # tasks of about 300 ms, below the two Geometric(0.01, 0.99) 1e-10 tasks
    + [(("geometric", 1.0 - 0.9, 0.9), 1e-10)] * 2
)


def _scaled(desc: tuple, s: float) -> tuple:
    if desc[0] == "poisson":
        return ("poisson", desc[1] * s)
    return (desc[0], desc[1] * s) + desc[2:]


def _transform_pair(desc, tol, angles) -> list:
    m = model(desc)
    holder = {}

    def run_sequence():
        seq = sk.circle_sequence(m, tol)
        holder["max_index"] = seq.max_index
        return seq

    def check_sequence(seq):
        o = oracles()
        uses = [abs(o.rebuilt(seq.terms, th) - o.phi_inf(desc, th)) / tol for th in angles]
        return uses, all(b >= -seq.per_term_tol for b in seq.terms)

    def run_reconstruct():
        return sk.reconstruct_error(m, angles, holder["max_index"], tol)

    def check_reconstruct(err):
        # rebuilt series within tail + tol/4, direct evaluation within tol/4
        return [err / (1.5 * tol)], True

    return [
        Task("circle_sequence", run_sequence, check_sequence),
        Task("reconstruct_error", run_reconstruct, check_reconstruct),
    ]


def transform_tasks(seed: int, round_index: int) -> list:
    rng = _rng(seed, "transform", round_index)
    pairs = [
        _transform_pair(_scaled(desc, rng.uniform(0.95, 1.05)), tol, _angles(rng, 3))
        for desc, tol in TRANSFORM_CELLS
    ]
    rng.shuffle(pairs)
    return [task for pair in pairs for task in pair]


# ---------------------------------------------------------------------------
# exact-derivs: big-integer derivative series, tables and scaled sums.

# values near 1e5 to 1e6 at tol 1e-10 leave no room for float rounding: these
# miss the tolerance today and run as known failures, outside the timed loop
FAILING_SERIES = ((GEOMETRIC[1], 3, 1e-10), (POISSON[1], 3, 1e-10))
SERIES_CELLS = tuple(
    cell for cell in (
        [(desc, ell, tol) for desc in GEOMETRIC[:2] for ell in (1, 2, 3) for tol in TOLS]
        + [(("geometric", 0.05, 0.95), 1, 1e-10), (("geometric", 0.05, 0.95), 2, 1e-5)]
        + [(desc, ell, tol) for desc in POISSON for ell in (1, 2, 3) for tol in TOLS]
        # slow decay: p = 3.5 reaches only 1e-4 in seconds (the O(M^2) path);
        # four scales of it put the 90th percentile inside one class of tasks
        + [(("powerlaw", C, 3.5), 1, 1e-4) for C in (1.0, 0.97, 0.99, 1.03)]
        + [(POWERLAW[1], 1, 1e-5)]
        + [(POWERLAW[2], 1, 1e-10), (POWERLAW[2], 2, 1e-10), (POWERLAW[2], 3, 1e-5)]
    )
    if cell not in FAILING_SERIES
)
TABLE_SIZES = ((1000, 400), (600, 300), (300, 150), (100, 60))
LEADING_SIZES = (50, 200, 400)
TRACE_JS = (256, 512, 1024, 2048, 4096, 8192)
# relative accuracy the library documents for its scaled sums
SCALED_REL_TOL = 1e-9


def _series(desc, ell, tol) -> Task:
    m = model(desc)

    def run():
        return sk.derivative_at_zero_series(m, ell, tol)

    def check(value):
        return [abs(value - oracles().derivative_at_zero(desc, ell)) / tol], True

    return Task("derivative_at_zero_series", run, check)


def _table(power, order) -> Task:
    def run():
        return sk.build_deriv_table(power, order)

    def check(table):
        ref = oracles().deriv_table(power, order)
        return [], all(table.cell(*key) == value for key, value in ref.items())

    return Task("build_deriv_table", run, check)


def _leading(max_n) -> Task:
    def run():
        return sk.build_leading_table(max_n)

    def check(table):
        ref = oracles().leading_table(max_n)
        return [], all(table.cell(*key) == value for key, value in ref.items())

    return Task("build_leading_table", run, check)


def _scaled_uses(js, ell, parity, values) -> list:
    o = oracles()
    uses = []
    for j, value in zip(js, values):
        ref = o.scaled_sum(j, ell, parity)
        uses.append(abs(value - ref) / (SCALED_REL_TOL * abs(ref)))
    return uses


def _scaled_sum(j, ell, parity) -> Task:
    def run():
        return sk.scaled_sum(j, ell, parity)

    def check(value):
        return _scaled_uses((j,), ell, parity, (value,)), True

    return Task("scaled_sum", run, check)


def _trace(ell, parity) -> Task:
    def run():
        return sk.trace_convergence(ell, parity, TRACE_JS)

    def check(trace):
        ok = tuple(trace.sample_js) == TRACE_JS
        return _scaled_uses(TRACE_JS, ell, parity, trace.scaled_values), ok

    return Task("trace_convergence", run, check)


def exact_tasks(seed: int, round_index: int) -> list:
    tasks = [_series(*cell) for cell in SERIES_CELLS]
    tasks += [_table(*size) for size in TABLE_SIZES]
    tasks += [_leading(n) for n in LEADING_SIZES]
    # j = 200 is the last exact-rational power, 201 the first log-domain one;
    # the extra log-domain sums, under a millisecond each, make 65 tasks and
    # put the median in the middle of the 1-2 ms class of the j = 200 sums
    tasks += [
        _scaled_sum(j, ell, parity)
        for j in (200, 201) for ell in (1, 3, 5) for parity in ("even", "odd")
    ]
    tasks += [_scaled_sum(201, ell, parity) for ell in (2, 4, 6) for parity in ("even", "odd")]
    tasks += [_scaled_sum(400, 1, parity) for parity in ("even", "odd")]
    tasks += [_trace(ell, parity) for ell in (1, 3, 5) for parity in ("even", "odd")]
    _rng(seed, "exact-derivs", round_index).shuffle(tasks)
    return tasks


# ---------------------------------------------------------------------------
# cli: each task is one fresh process; ``run`` returns (exit code, stdout).


@dataclass
class CliCall:
    argv: list


def _cli(argv, check_stdout) -> Task:
    def check(result):
        code, stdout = result
        if code != 0:
            return [], False
        return check_stdout(stdout)

    return Task("cli." + argv[0], CliCall(argv), check)


def _model_json(desc) -> str:
    kind = desc[0]
    if kind == "geometric":
        return json.dumps({"variant": "geometric", "c": desc[1], "r": desc[2]})
    if kind == "poisson":
        return json.dumps({"variant": "poisson", "c": desc[1]})
    return json.dumps({"variant": "powerlaw", "C": desc[1], "p": desc[2]})


def _cli_eval(desc, sphere, tol, angles) -> Task:
    argv = ["eval", "--sphere", sphere, "--model", _model_json(desc), "--tol", repr(tol),
            "--theta", *map(repr, angles)]

    def check(stdout):
        o = oracles()
        values = json.loads(stdout)["phi"]
        refs = [
            o.phi_inf(desc, th) if sphere == "inf"
            else o.phi_d(desc, int(sphere), ("theta", th), tol)
            for th in angles
        ]
        return [abs(v - r) / tol for v, r in zip(values, refs)], len(values) == len(angles)

    return _cli(argv, check)


def _cli_btable(power, order) -> Task:
    def check(stdout):
        ref = oracles().deriv_table_strings(power, order)
        cells = json.loads(stdout)["cells"]
        got = {(c["n1"], c["n2"]): c["value"] for c in cells}
        return [], got == ref

    return _cli(["btable", "--j", str(power), "--order", str(order)], check)


def _cli_ctable(max_n) -> Task:
    def check(stdout):
        ref = oracles().leading_table(max_n)
        got = {(c["n1"], c["n2"]): int(c["value"]) for c in json.loads(stdout)["cells"]}
        return [], got == ref

    return _cli(["ctable", "--max-n", str(max_n)], check)


def _cli_asymptotics(ell, js) -> Task:
    def check(stdout):
        uses = []
        for trace in json.loads(stdout)["traces"]:
            uses += _scaled_uses(js, ell, trace["parity"], trace["scaled_values"])
        return uses, len(uses) == 2 * len(js)

    return _cli(["asymptotics", "--ell", str(ell), "--js", *map(str, js)], check)


def _cli_transform(desc, tol, angles) -> Task:
    def check(stdout):
        o = oracles()
        terms = json.loads(stdout)["coefficients"]
        return [abs(o.rebuilt(terms, th) - o.phi_inf(desc, th)) / tol for th in angles], True

    return _cli(["transform", "--model", _model_json(desc), "--tol", repr(tol)], check)


def _cli_classify(desc, sphere) -> Task:
    weight = 1 if sphere == "inf" else 2

    def check(stdout):
        report = json.loads(stdout)
        want = oracles().powerlaw_max_ell(desc[2], weight)
        return [], report["max_ell"] == want and report["derivative_order"] == 2 * want

    return _cli(["classify", "--model", _model_json(desc), "--sphere", sphere], check)


def _cli_verify() -> Task:
    def check(stdout):
        last = stdout.strip().splitlines()[-1] if stdout.strip() else ""
        return [], re.fullmatch(r"(\d+)/\1 checks passed", last) is not None

    return _cli(["verify", "all"], check)


def cli_tasks(seed: int, round_index: int) -> list:
    rng = _rng(seed, "cli", round_index)

    def interior(count):
        return tuple(rng.uniform(0.1, math.pi - 0.1) for _ in range(count))

    tasks = [
        _cli_eval(GEOMETRIC[1], "inf", 1e-10, (0.0,) + interior(3)),
        _cli_eval(POISSON[0], "inf", 1e-10, interior(4)),
        _cli_eval(POWERLAW[1], "inf", 1e-10, interior(4)),
        _cli_eval(GEOMETRIC[2], "1", 1e-8, interior(4)),
        _cli_eval(GEOMETRIC[0], "2", 1e-10, interior(4)),
        _cli_eval(POWERLAW[1], "4", 1e-6, interior(4)),
        _cli_btable(40, 30),
        # two of fifteen: the 90th percentile falls half-way through their samples
        _cli_btable(600, 300),
        _cli_btable(600, 300),
        _cli_ctable(40),
        _cli_asymptotics(2, (64, 256, 1024)),
        _cli_transform(("geometric", 0.5, 0.5), 1e-8, (0.0, math.pi) + interior(2)),
        _cli_classify(POWERLAW[1], "inf"),
        _cli_classify(POWERLAW[2], "2"),
        _cli_classify(POWERLAW[0], "2"),
    ]
    if round_index == 0:
        tasks.append(_cli_verify())
    rng.shuffle(tasks)
    return tasks


# ---------------------------------------------------------------------------
# Requests that fail today.  They run once per run, outside the timed loop
# and outside the attempted/failed counts, and their outcome is reported, so
# that a fix shows up without the timed workloads containing failures.


def known_failures(workload: str) -> dict:
    if workload == "gram":
        # the certified cutoff for p <= 2.2 at 1e-10 lies above 2^26 terms
        return {
            f"phi_eval PowerLaw(1, {p}) inf tol 1e-10":
                _phi_batch(("powerlaw", 1.0, p), None, 1e-10, (0.0, 1.0))
            for p in (1.5, 2.2)
        }
    if workload == "exact-derivs":
        return {
            f"derivative_at_zero_series {desc} ell {ell} tol {tol}": _series(desc, ell, tol)
            for desc, ell, tol in FAILING_SERIES
        }
    return {}


def round_tasks(workload: str, seed: int, round_index: int, cache: dict) -> list:
    """Tasks of one round; ``cache`` keeps the once-per-run gram inputs."""
    if workload == "gram":
        if "gram" not in cache:
            cache["gram"] = gram_tasks(seed)
        tasks = list(cache["gram"])
        _rng(seed, "gram-order", round_index).shuffle(tasks)
        return tasks
    if workload == "transform":
        return transform_tasks(seed, round_index)
    if workload == "exact-derivs":
        return exact_tasks(seed, round_index)
    if workload == "cli":
        return cli_tasks(seed, round_index)
    raise ValueError(f"unknown workload {workload!r}")
