"""Acceptance suite: every verification check at its pinned tolerance.

The checks, with their sizes and tolerances baked in, are the one table
spherekernel.verification.SUITES, which the CLI verify command runs too.
Each case prints one pass/fail line.
"""

import pytest

from spherekernel import verification

CHECKS = [check for checks in verification.SUITES.values() for check in checks]


@pytest.mark.parametrize("name, check", CHECKS, ids=[name for name, _ in CHECKS])
def test_acceptance_check(name, check):
    passed, detail = check()
    print(f"ACCEPTANCE {name}: {'PASS' if passed else 'FAIL'} {detail}")
    assert passed, f"{name}: {detail}"


def test_suite_table_pins_check_names_and_order():
    # verify prints these names, and the benchmark tracer turns them into
    # per-check metric names, so a rename must show up here first
    assert [
        (suite, [name for name, _ in checks])
        for suite, checks in verification.SUITES.items()
    ] == [
        ("identities", [
            "table matches symbolic oracle",
            "diagonal closed form",
            "edge cells are falling factorials",
            "binomial sum cross identity",
            "derivative vs finite difference",
        ]),
        ("asymptotics", [
            "exact leading coefficients",
            "ratio convergence to leading growth",
            "scaled sum convergence shape",
            "scaled sum definition",
        ]),
        ("reconstruction", [
            "circle-series reconstruction",
            "mass preservation and nonnegativity",
            "classifier fixed points",
            "classifier weight consistency",
            "derivative series vs finite difference",
            "psd quadratic form spot checks",
        ]),
    ]
