import contextlib
import hashlib
import importlib
import io
import json
import math
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import spherekernel

from spherekernel import asymptotics, cli, derivatives, verification
from spherekernel.cli import main, to_json


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_eval_hilbert_at_zero(capsys):
    code, out, err = run_cli(
        capsys,
        "eval",
        "--sphere", "inf",
        "--model", '{"variant":"geometric","c":0.5,"r":0.5}',
        "--theta", "0",
    )
    assert code == 0 and err == ""
    payload = json.loads(out)
    assert payload["sphere"] == "inf"
    assert payload["phi"][0] == pytest.approx(1.0, abs=1e-10)


def test_eval_finite_dimension_csv(capsys):
    code, out, _ = run_cli(
        capsys,
        "eval",
        "--sphere", "2",
        "--model", '{"variant":"finite","terms":[0,1]}',
        "--theta", "0.5", "1.0",
        "--format", "csv",
    )
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "theta,phi"
    got = [float(line.split(",")[1]) for line in lines[1:]]
    assert got == pytest.approx([math.cos(0.5), math.cos(1.0)], abs=1e-10)


def test_btable_csv_rows(capsys):
    code, out, _ = run_cli(capsys, "btable", "--j", "4", "--order", "2", "--format", "csv")
    assert code == 0
    rows = out.strip().splitlines()
    assert rows[0] == "j,n1,n2,value"
    assert "4,1,0,4" in rows
    assert "4,2,0,12" in rows
    assert "4,1,1,4" in rows


def test_btable_json_values_are_strings(capsys):
    code, out, _ = run_cli(capsys, "btable", "--j", "6", "--order", "3")
    assert code == 0
    payload = json.loads(out)
    assert all(isinstance(cell["value"], str) for cell in payload["cells"])
    assert {"n1": 1, "n2": 0, "value": "6"} in payload["cells"]


def test_ctable_output(capsys):
    code, out, _ = run_cli(capsys, "ctable", "--max-n", "2", "--format", "csv")
    assert code == 0
    assert "2,1,3" in out.splitlines()


@pytest.mark.parametrize("fmt", ["json", "csv"])
def test_table_outputs_come_in_row_order_with_exact_cells(capsys, fmt):
    def parsed(*argv):
        code, out, _ = run_cli(capsys, *argv, "--format", fmt)
        assert code == 0
        if fmt == "json":
            cells = json.loads(out)["cells"]
            return [(c["n1"], c["n2"], int(c["value"])) for c in cells]
        lines = out.strip().splitlines()[1:]
        return [tuple(int(v) for v in line.split(",")[-3:]) for line in lines]

    table = derivatives.build_deriv_table(40, 30)
    got = parsed("btable", "--j", "40", "--order", "30")
    keys = [(n1, n2) for n1, n2, _ in got]
    assert keys == [
        (level - n2, n2) for level in range(31) for n2 in range(level // 2 + 1)
    ]
    assert all(value == table.cell(n1, n2) for n1, n2, value in got)

    leading = asymptotics.build_leading_table(40)
    got = parsed("ctable", "--max-n", "40")
    assert [(n1, n2) for n1, n2, _ in got] == [
        (n1, n2) for n1 in range(41) for n2 in range(n1 + 1)
    ]
    assert all(value == leading.cell(n1, n2) for n1, n2, value in got)


@pytest.mark.parametrize(
    "argv, sha1",
    [
        (["btable", "--j", "600", "--order", "300"], "f3eb440232c9e7ce885dd8e4db9072241e665fef"),
        (["btable", "--j", "600", "--order", "300", "--format", "csv"],
         "6a29b9aad6f5997441d157b4e8852eccfe3c13ec"),
        (["ctable", "--max-n", "400"], "9fc8909c216076ef8c564b5bb0d4f32976e2ef75"),
        (["ctable", "--max-n", "400", "--format", "csv"],
         "28aaaedab2e89065f9fed7bb32a6d9d47b0cda90"),
    ],
    ids=["btable-json", "btable-csv", "ctable-json", "ctable-csv"],
)
def test_streamed_tables_are_byte_identical_to_whole_documents(capsys, argv, sha1):
    # digests of the output when each table was built, then serialized whole
    code, out, err = run_cli(capsys, *argv)
    assert code == 0 and err == ""
    assert hashlib.sha1(out.encode()).hexdigest() == sha1


_G = '{"variant":"geometric","c":0.5,"r":0.5}'
_P = '{"variant":"powerlaw","C":1,"p":4.5}'
_GOLDEN_ARGV = {
    "eval-hilbert": ["eval", "--sphere", "inf", "--model", _G, "--theta", "0", "0.7", "3.14159"],
    "eval-s2": ["eval", "--sphere", "2", "--model", _P, "--theta", "0", "1", "2"],
    "eval-s4": ["eval", "--sphere", "4", "--model", '{"variant":"poisson","c":2}', "--theta", "0.3", "2.5"],
    "eval-tol": ["eval", "--sphere", "3", "--model", '{"variant":"geometric","c":1,"r":0.9}',
                 "--theta", "1", "--tol", "1e-6"],
    "btable": ["btable", "--j", "40", "--order", "30"],
    "ctable": ["ctable", "--max-n", "40"],
    "asymptotics-js": ["asymptotics", "--ell", "2", "--js", "256", "64", "1024"],
    "asymptotics-max-j": ["asymptotics", "--ell", "3", "--max-j", "64"],
    "asymptotics-odd": ["asymptotics", "--ell", "3", "--max-j", "64", "--parity", "odd"],
    "transform-auto": ["transform", "--model", _G, "--tol", "1e-8"],
    "transform-max-index": ["transform", "--model", _P, "--max-index", "20"],
    "classify-inf": ["classify", "--model", _P],
    "classify-sphere": ["classify", "--model", _G, "--sphere", "2", "--ell-max", "4"],
}
# SHA-256 of stdout, recorded before every command wrote through one writer
_GOLDEN_SHA256 = {
    ("eval-hilbert", "json"): "432b67c327c01339cbf4f325462004e9b0b763e00f6083f7250ee25f0f6fe81c",
    ("eval-hilbert", "csv"): "15ba1f7c10fd59bf46ce05ca095cd8bfd614dfda272c307a9b5f40cb867fbfae",
    ("eval-s2", "json"): "eb4bcee4762e4b94f27cd2ad03b95cea50a30e83798961ae8cd0ac5f4b5925f9",
    ("eval-s2", "csv"): "59b19f1adb76865bbf2c82334e68109acfaf526ac130b2be2fb7cdddd259d686",
    ("eval-s4", "json"): "5d9eb994cd68e75aa28bcfe3bae0bd8d39fc026ac79362085e70081ea1c718c7",
    ("eval-s4", "csv"): "e11cf5989cdb9b312eb413df7530c481c2d0078ce857b24b03fb12ae6e963f8a",
    ("eval-tol", "json"): "6f6561e93b479335a1d7ede99ebbeeb8ceebbc1b6fd0efc95b35abb6010f9adf",
    ("eval-tol", "csv"): "a577bd979c66086f17135f041fbde3c8eec6a1dfebf020e90ebfdd713a5c02f4",
    ("btable", "json"): "446533316177307ac9651c018182aa944a57605d976b0fcb5094a768b5a496e5",
    ("btable", "csv"): "13602a9bc395cc134eff26c0e2051fd54c02954285fd524ee91dd7316c1b32b6",
    ("ctable", "json"): "6c805b0ceb7c5977e4a2928c8d37ea54f9220ced1b35b3a41c0c0484d757074a",
    ("ctable", "csv"): "b5c2c45f5e4818263ca4d78ae2eecafbc48dbd0e0ec9680d6c1e8cc0232866f2",
    ("asymptotics-js", "json"): "2c5e05fe54b1f24e854103da5f06a94fa256f4bea57765818d5a1e9f82da0cd0",
    ("asymptotics-js", "csv"): "4c04073ae2d54d789f5188727517aa688a8351bf6195ac9d9688c7c6c25347a0",
    ("asymptotics-max-j", "json"): "85aa353dc5baebacb895849364444bd6398451e8887a1ce02904e4bc0cf6dfda",
    ("asymptotics-max-j", "csv"): "57e492d8e3c260457f13a5fe837351a4804cc127a9e9a0070b71daadf4db02fb",
    ("asymptotics-odd", "json"): "810fdea6650b7c1630132cbec7bff2e821fd3b6c457c8f6809eeb4f5d6fcf5ba",
    ("asymptotics-odd", "csv"): "024f265f245c1e805e201156f5f7643e0fe3945e65a17f1a1f95f1a52e190562",
    ("transform-auto", "json"): "83b4cc5192edfbe807de60a3da574550a75c77843773fe3eca3d9706bea20846",
    ("transform-auto", "csv"): "19b3fb8e94f86a01ebb5628e92182c05f32fa6b7435609ee0c519fdf7f174e8f",
    ("transform-max-index", "json"): "cba497c7b92430a72d10c0540791a0184df36bd34cb228366464e7545180e3e4",
    ("transform-max-index", "csv"): "562da557b4ad72fde6ee03b936093ea6232393f61f387044831eefaf0ccbd348",
    ("classify-inf", "json"): "f8ea5741b46a1f34cc7d10b5feec5523b89d376dee8c848c31bd3f502c293781",
    ("classify-inf", "csv"): "496e7e5806178965a7ddc70c517e8c954781dd486828d45ffb03707fbb280757",
    # Geometric moments are exact rationals rounded up: here 1, 3, 75, 4683
    # and 545835, each equal to its mpmath polylogarithm
    ("classify-sphere", "json"): "b25cb84f0db65326605552e4621d3fae94bc02b95e5db79b4eb2be10827a7e04",
    ("classify-sphere", "csv"): "51fae4cd0e950f630464ccc2cdd52d742f20c1f432ebce99ea98bc0949b9d2d0",
}


@pytest.mark.parametrize("name, fmt", sorted(_GOLDEN_SHA256), ids="-".join)
def test_every_command_writes_its_pinned_bytes(capsys, name, fmt):
    code, out, err = run_cli(capsys, *_GOLDEN_ARGV[name], "--format", fmt)
    assert code == 0 and err == ""
    assert hashlib.sha256(out.encode()).hexdigest() == _GOLDEN_SHA256[name, fmt]


@pytest.mark.parametrize("power, order", [(2, 1), (6, 3), (9, 8), (40, 30)])
def test_btable_json_is_json_dumps_of_the_cells(capsys, power, order):
    table = derivatives.build_deriv_table(power, order)
    cells = [
        {"n1": n1, "n2": n2, "value": str(value)}
        for level in range(order + 1)
        for (n1, n2), value in table.level(level)
    ]
    expected = json.dumps({"j": power, "max_order": order, "cells": cells}, sort_keys=True)
    code, out, _ = run_cli(capsys, "btable", "--j", str(power), "--order", str(order))
    assert code == 0 and out == expected + "\n"


@pytest.mark.parametrize("max_n", [1, 2, 7, 40])
def test_ctable_json_is_json_dumps_of_the_cells(capsys, max_n):
    table = asymptotics.build_leading_table(max_n)
    cells = [
        {"n1": n1, "n2": n2, "value": str(value)}
        for n1, row in enumerate(table.rows)
        for n2, value in enumerate(row)
    ]
    expected = json.dumps({"max_n": max_n, "cells": cells}, sort_keys=True)
    code, out, _ = run_cli(capsys, "ctable", "--max-n", str(max_n))
    assert code == 0 and out == expected + "\n"


@pytest.mark.parametrize(
    "argv",
    [["btable", "--j", "30", "--order", "20"], ["ctable", "--max-n", "25"]],
    ids=["btable", "ctable"],
)
@pytest.mark.parametrize("fmt", ["json", "csv"])
def test_output_file_holds_the_stdout_bytes(tmp_path, capsys, argv, fmt):
    target = tmp_path / "table.out"
    code, out, _ = run_cli(capsys, *argv, "--format", fmt)
    assert code == 0
    code, quiet, _ = run_cli(capsys, *argv, "--format", fmt, "--output", str(target))
    assert code == 0 and quiet == ""
    assert target.read_bytes() == out.encode()


@pytest.mark.parametrize(
    "argv, exit_code, error",
    [
        (["btable", "--j", "5", "--order", "0"], 2, "UsageError"),
        (["btable", "--j", "5", "--order", "5"], 1, "UnsupportedRange"),
        (["btable", "--j", "5", "--order", "9"], 1, "UnsupportedRange"),
        (["ctable", "--max-n", "0"], 2, "UsageError"),
    ],
    ids=["order-zero", "order-at-power", "order-above-power", "max-n-zero"],
)
def test_bad_table_arguments_write_no_output_file(tmp_path, capsys, argv, exit_code, error):
    target = tmp_path / "table.json"
    try:
        code = main([*argv, "--output", str(target)])
    except SystemExit as exc:
        code = exc.code
    captured = capsys.readouterr()
    assert code == exit_code and captured.out == ""
    lines = captured.err.strip().splitlines()
    assert len(lines) == 1 and json.loads(lines[0])["error"] == error
    assert not target.exists()


_HUGE_J = 10**30


@pytest.mark.parametrize("fmt", ["json", "csv"])
def test_btable_prints_cells_past_the_int_digit_limit(capsys, fmt):
    # T[145, 0] = j!/(j - 145)! has 4,351 digits, past CPython's default
    # limit of 4,300 for int <-> str conversion
    code, out, err = run_cli(
        capsys, "btable", "--j", str(_HUGE_J), "--order", "145", "--format", fmt
    )
    assert code == 0 and err == ""
    if fmt == "json":
        cells = json.loads(out)["cells"]
        edge = next(c["value"] for c in cells if (c["n1"], c["n2"]) == (145, 0))
    else:
        edge = next(
            line.split(",")[3] for line in out.splitlines() if line.startswith(f"{_HUGE_J},145,0,")
        )
    old_limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    try:
        assert int(edge) == math.perm(_HUGE_J, 145)
    finally:
        sys.set_int_max_str_digits(old_limit)


def test_btable_peak_memory_stays_small():
    # a guard against going back to building the whole document in memory:
    # the table holds about 84 MB that way, the streamed rows about 17 MB
    pytest.importorskip("resource")
    src = str(Path(spherekernel.__file__).resolve().parents[1])
    probe = (
        "import resource, subprocess, sys\n"
        "argv = [sys.executable, '-m', 'spherekernel.cli', 'btable', '--j', '600', '--order', '300']\n"
        "done = subprocess.run(argv, stdout=subprocess.DEVNULL)\n"
        "peak = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss\n"
        "print(done.returncode, peak if sys.platform == 'darwin' else peak * 1024)\n"
    )
    done = subprocess.run(
        [sys.executable, "-c", probe], env=dict(os.environ, PYTHONPATH=src),
        capture_output=True, text=True, timeout=120,
    )
    assert done.returncode == 0, done.stderr
    code, peak_bytes = map(int, done.stdout.split())
    assert code == 0
    assert peak_bytes < 40 * 2**20, f"btable peaked at {peak_bytes / 2**20:.1f} MB"


def test_classify_powerlaw(capsys):
    code, out, _ = run_cli(
        capsys,
        "classify",
        "--model", '{"variant":"powerlaw","C":1,"p":4.5}',
        "--ell-max", "6",
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["max_ell"] == 3
    assert payload["derivative_order"] == 6
    assert len(payload["per_ell"]) == 7


def test_classify_d_mode(capsys):
    code, out, _ = run_cli(
        capsys,
        "classify",
        "--model", '{"variant":"powerlaw","C":1,"p":4.5}',
        "--sphere", "3",
    )
    assert code == 0
    assert json.loads(out)["max_ell"] == 1


def test_transform_fixed_index(capsys):
    code, out, _ = run_cli(
        capsys,
        "transform",
        "--model", '{"variant":"finite","terms":[0,0,1]}',
        "--max-index", "2",
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["coefficients"] == pytest.approx([0.5, 0.0, 0.5], abs=1e-12)


def test_transform_auto_index(capsys):
    code, out, _ = run_cli(
        capsys,
        "transform",
        "--model", '{"variant":"poisson","c":0.5}',
        "--format", "csv",
    )
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "n,value"
    total = sum(float(line.split(",")[1]) for line in lines[1:])
    assert total == pytest.approx(1.0, abs=1e-9)


def test_asymptotics_csv(capsys):
    code, out, _ = run_cli(
        capsys, "asymptotics", "--ell", "1", "--js", "2", "3", "--format", "csv"
    )
    assert code == 0
    assert out.splitlines()[0] == "ell,parity,j,scaled_value"
    assert "1,even,2,2.0" in out


def test_asymptotics_json_reports_constant_ratios(capsys):
    code, out, _ = run_cli(capsys, "asymptotics", "--ell", "1", "--js", "32", "64", "128")
    assert code == 0
    payload = json.loads(out)
    assert payload["even_over_odd"] == pytest.approx(4.0, rel=0.1)


def test_model_from_file(tmp_path, capsys):
    path = tmp_path / "model.json"
    path.write_text('{"variant":"geometric","c":0.5,"r":0.5}')
    code, out, _ = run_cli(capsys, "eval", "--sphere", "inf", "--model", str(path), "--theta", "0")
    assert code == 0
    assert json.loads(out)["phi"][0] == pytest.approx(1.0, abs=1e-10)


def test_output_file(tmp_path, capsys):
    target = tmp_path / "table.csv"
    code, _, _ = run_cli(
        capsys, "btable", "--j", "4", "--order", "2", "--format", "csv",
        "--output", str(target),
    )
    assert code == 0
    assert "4,2,0,12" in target.read_text()


def test_domain_error_exit_code_and_error_object(capsys):
    code, out, err = run_cli(capsys, "btable", "--j", "4", "--order", "9")
    assert code == 1
    assert out == ""
    lines = err.strip().splitlines()
    assert len(lines) == 1
    payload = json.loads(lines[0])
    assert payload["error"] == "UnsupportedRange"
    assert payload["message"]


def test_usage_error_exit_code(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["classify", "--model", "not json at all"])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert json.loads(err.strip())["error"] == "UsageError"
    with pytest.raises(SystemExit) as exc:
        main(["eval", "--sphere", "inf", "--model", '{"variant":"finite","terms":[1]}',
              "--theta", "9.0"])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert len(err.strip().splitlines()) == 1
    with pytest.raises(SystemExit) as exc:
        main(["nonsense"])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert len(err.strip().splitlines()) == 1


def _eval_argv(model, *extra):
    return ["eval", "--sphere", "inf", "--theta", "0", "--model", model, *extra]


_GEOMETRIC = '{"variant":"geometric","c":1,"r":0.5}'


def _assert_one_line_usage_error(capsys, exc):
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    lines = captured.err.strip().splitlines()
    assert len(lines) == 1
    error = json.loads(lines[0])
    assert error["error"] == "UsageError"
    return error


@pytest.mark.parametrize(
    "argv",
    [
        _eval_argv('{"variant":"geometric","c":NaN,"r":0.5}'),
        _eval_argv('{"variant":"powerlaw","C":1,"p":Infinity}'),
        _eval_argv('{"variant":"poisson","c":1' + "0" * 400 + "}"),
        _eval_argv('{"variant":"geometric","c":1e308,"r":0.5}'),
        _eval_argv(_GEOMETRIC, "--tol", "nan"),
        _eval_argv(_GEOMETRIC, "--tol", "inf"),
        ["transform", "--model", _GEOMETRIC, "--tol", "-1e-3"],
        ["transform", "--model", _GEOMETRIC, "--max-index", "-1"],
        ["asymptotics", "--ell", "2", "--js", "0", "5"],
        ["asymptotics", "--ell", "0", "--js", "4"],
        ["btable", "--j", "5", "--order", "0"],
        ["ctable", "--max-n", "0"],
        ["classify", "--model", _GEOMETRIC, "--ell-max", "-1"],
        _eval_argv('{"variant":"finite","terms":"12"}'),
        _eval_argv('{"variant":"geometric","c":"1","r":0.5}'),
        _eval_argv('{"variant":"poisson","c":false}'),
        _eval_argv('{"a":' + "[" * 200_000),
        ["eval", "--sphere", str(10**400), "--theta", "1", "--model", _GEOMETRIC],
    ],
    ids=["nan", "infinity", "huge-integer", "overflowing-mass", "tol-nan",
         "tol-inf", "tol-negative", "max-index-negative", "js-zero", "ell-zero",
         "order-zero", "max-n-zero", "ell-max-negative", "finite-terms-string",
         "string-field", "boolean-field", "deeply-nested", "sphere-beyond-float"],
)
def test_non_finite_model_field_is_usage_error(capsys, argv):
    # bad model fields, bad tolerances and library argument errors all
    # leave the CLI as one JSON UsageError line
    with pytest.raises(SystemExit) as exc:
        main(argv)
    _assert_one_line_usage_error(capsys, exc)


@pytest.mark.parametrize(
    "argv", [_eval_argv(_GEOMETRIC), ["btable", "--j", "10", "--order", "4"]], ids=["eval", "btable"]
)
@pytest.mark.parametrize("target", ["missing/x.json", "."], ids=["missing-directory", "directory"])
def test_unwritable_output_is_usage_error(tmp_path, capsys, argv, target):
    with pytest.raises(SystemExit) as exc:
        main([*argv, "--output", str(tmp_path / target)])
    assert "--output" in _assert_one_line_usage_error(capsys, exc)["message"]
    assert list(tmp_path.iterdir()) == []


def test_bad_env_tolerance_is_usage_error(capsys, monkeypatch):
    monkeypatch.setenv("SPHEREKERNEL_TOL", "abc")
    with pytest.raises(SystemExit) as exc:
        main(_eval_argv(_GEOMETRIC))
    _assert_one_line_usage_error(capsys, exc)


def _models(p_min, c_max, r_max):
    """JSON text of models, valid and not; PowerLaw p >= p_min, scales <= c_max
    and Geometric r <= r_max."""
    scale = st.floats(0.0, c_max)
    return st.one_of(
        st.builds(lambda c, r: {"variant": "geometric", "c": c, "r": r}, scale, st.floats(0.0, r_max)),
        st.builds(lambda c, p: {"variant": "powerlaw", "C": c, "p": p}, scale, st.floats(p_min, 8.0)),
        st.builds(lambda c: {"variant": "poisson", "c": c}, scale),
        st.builds(lambda t: {"variant": "finite", "terms": t}, st.lists(st.floats(0.0, 10.0), max_size=5)),
    ).map(json.dumps) | st.sampled_from(
        ["not json", '{"variant":"nope"}', '{"variant":"geometric","c":1,"r":1}', '{"variant":"poisson"}']
    )


def _tols(least):
    return st.floats(least, 1.0).map(repr) | st.sampled_from(["0", "-1", "nan", "abc"])


def _cli_argv():
    """argv of the six computing commands, bounded so that each call ends in well under a second."""
    size = st.integers(-2, 200).map(str)
    sphere = st.sampled_from(["inf", "1", "2", "3", "4", "5", "0", "x"])
    thetas = st.lists(st.floats(-1.0, 4.0).map(repr), min_size=1, max_size=3)

    def flag(name, values):
        return values.map(lambda v: [name, *v] if isinstance(v, list) else [name, v])

    def optional(name, values):
        return st.just([]) | flag(name, values)

    def command(name, *options):
        formats = st.sampled_from(["json", "csv"])
        return st.tuples(formats, *options).map(
            lambda drawn: [name, "--format", drawn[0], *(arg for option in drawn[1:] for arg in option)]
        )

    # a PowerLaw prefix holds about (C / tol)^(1 / (p - 1)) terms, and
    # transform sums it once for each circle term: p in (2, 3) at tol 1e-8
    # can ask for 10^7 terms, and transform of PowerLaw(1, 2) at tol 1e-3
    # takes seconds; so eval draws p >= 3, transform also C <= 10 and tol >= 1e-3.
    # Geometric and Poisson prefixes hold about log(tol) / log(r) and c terms,
    # so eval keeps r <= 0.99 and c <= 1e3, and transform c <= 10; a Geometric
    # transform builds no prefix and takes r up to just below 1, as does
    # classify, which reads only closed-form tails and takes c up to 1e300
    return st.one_of(
        command("eval", flag("--sphere", sphere), flag("--model", _models(3.0, 1e3, 0.99)),
                flag("--theta", thetas), flag("--tol", _tols(1e-8))),
        command("btable", flag("--j", size), flag("--order", size)),
        command("ctable", flag("--max-n", size)),
        command("asymptotics", flag("--ell", size),
                optional("--parity", st.sampled_from(["even", "odd", "both"])),
                flag("--js", st.lists(size, min_size=1, max_size=4)) | optional("--max-j", size)),
        command("transform", flag("--model", _models(3.0, 10.0, math.nextafter(1.0, 0.0))),
                optional("--max-index", size),
                flag("--tol", _tols(1e-3))),
        command("classify", flag("--model", _models(2.0, 1e300, math.nextafter(1.0, 0.0))),
                optional("--ell-max", st.integers(-1, 40).map(str)), optional("--sphere", sphere)),
    )


@settings(max_examples=80, deadline=None)
@given(argv=_cli_argv())
@example(argv=["asymptotics", "--ell", "200", "--js", "1", "2"])
@example(argv=["eval", "--sphere", "2", "--theta", "1", "--model", '{"variant":"poisson","c":1e300}'])
@example(argv=["eval", "--sphere", "2", "--model", '{"variant":"powerlaw","C":1,"p":2}', "--theta", "1",
               "--tol", "1e-8"])
@example(argv=["classify", "--model", '{"variant":"geometric","c":1,"r":0.999999}', "--ell-max", "200",
               "--sphere", "3"])
@example(argv=["eval", "--sphere", "2", "--theta", "1", "--model", '{"variant":"poisson","c":1e5}'])
@example(argv=["transform", "--model", '{"variant":"geometric","c":1,"r":0.999999}', "--tol", "1e-3"])
def test_every_exit_is_success_or_one_json_error_line(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
    assert code in (0, 1, 2)
    if code == 0:
        assert err.getvalue() == "" and out.getvalue().endswith("\n")
    else:
        lines = err.getvalue().splitlines()
        assert len(lines) == 1
        assert set(json.loads(lines[0])) == {"error", "message"}


def test_asymptotics_reports_a_ratio_to_growth_past_float_range(capsys):
    # 2^200 (399)!! is past float range; the ratio is rounded once, to a subnormal
    code, out, err = run_cli(capsys, "asymptotics", "--ell", "200", "--js", "1", "2")
    assert code == 0 and err == ""
    payload = json.loads(out)
    even = payload["traces"][0]["estimated_constant"]
    want = Fraction(even) / (2**200 * math.prod(range(1, 400, 2)))
    assert payload["even_over_diagonal_growth"] == float(want)
    assert 0.0 < float(want) < sys.float_info.min


def test_scaled_sum_beyond_float_range_is_domain_error(capsys):
    code, out, err = run_cli(capsys, "asymptotics", "--ell", "200", "--js", "2048")
    assert code == 1 and out == ""
    lines = err.strip().splitlines()
    assert len(lines) == 1
    assert json.loads(lines[0])["error"] == "UnsupportedRange"


@pytest.mark.parametrize(
    "argv",
    [
        ["classify", "--model", _GEOMETRIC, "--ell-max", "400"],
        ["classify", "--model", _GEOMETRIC, "--ell-max", "100", "--sphere", "2"],
        ["classify", "--model", '{"variant":"poisson","c":3}', "--ell-max", "400"],
    ],
    ids=["geometric", "geometric-sphere", "poisson"],
)
def test_weighted_tail_beyond_float_range_is_domain_error(capsys, argv):
    code, out, err = run_cli(capsys, *argv)
    assert code == 1 and out == ""
    lines = err.strip().splitlines()
    assert len(lines) == 1
    assert json.loads(lines[0])["error"] == "UnsupportedRange"


def test_huge_sphere_dimension_is_near_the_hilbert_sphere(capsys):
    # S^d tends to the Hilbert sphere as d grows, without overflow
    args = ("eval", "--theta", "1", "--model", _GEOMETRIC, "--sphere")
    code, out, err = run_cli(capsys, *args, str(10**12))
    assert code == 0 and err == ""
    code, hilbert, _ = run_cli(capsys, *args, "inf")
    assert code == 0
    assert json.loads(out)["phi"][0] == pytest.approx(json.loads(hilbert)["phi"][0], abs=1e-11)


def test_env_var_overrides_default_tolerance(capsys, monkeypatch):
    monkeypatch.setenv("SPHEREKERNEL_TOL", "1e-4")
    code, out, _ = run_cli(
        capsys,
        "eval",
        "--sphere", "inf",
        "--model", '{"variant":"geometric","c":0.5,"r":0.5}',
        "--theta", "0",
    )
    assert code == 0
    assert json.loads(out)["tol"] == 1e-4


def test_json_output_round_trips_byte_identical(capsys):
    code, out, _ = run_cli(
        capsys,
        "classify",
        "--model", '{"variant":"powerlaw","C":1,"p":2.2}',
    )
    assert code == 0
    text = out.strip()
    assert to_json(json.loads(text)) == text


def test_verify_identities_suite_passes(capsys):
    code, out, _ = run_cli(capsys, "verify", "identities")
    assert code == 0
    lines = out.strip().splitlines()
    assert all(line.startswith("[PASS]") for line in lines[:-1])
    assert lines[-1].endswith("checks passed")


def test_unknown_verify_suite_is_usage_error(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["verify", "nosuch"])
    _assert_one_line_usage_error(capsys, exc)


def test_cli_import_leaves_verification_unloaded():
    # verify imports the module itself, so no other command pays for it
    src = str(Path(spherekernel.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=src)
    code = "import sys, spherekernel.cli; print('spherekernel.verification' in sys.modules)"
    done = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=60
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip() == "False"


def _run_main(*argv):
    return f"from spherekernel.cli import main; rc = main({list(argv)!r})"


_CLI_LOADED = {"cli", "errors"}
_TRANSFORM_LOADED = _CLI_LOADED | {"transform", "kernels", "sequences", "derivatives"}


@pytest.mark.parametrize(
    "run, loaded",
    [
        ("import spherekernel", set()),
        # a submodule attribute loads it and binds all of its names
        (
            "import spherekernel as sk; sk.kernels; assert 'psd_spot_check' in vars(sk)",
            {"kernels", "sequences", "errors"},
        ),
        ("import spherekernel.cli", _CLI_LOADED),
        (_run_main(*_eval_argv(_GEOMETRIC)), _CLI_LOADED | {"sequences", "kernels"}),
        (_run_main("btable", "--j", "4", "--order", "2"), _CLI_LOADED | {"derivatives"}),
        (_run_main("ctable", "--max-n", "4"), _CLI_LOADED | {"asymptotics", "derivatives"}),
        (_run_main("asymptotics", "--ell", "1", "--js", "8"), _CLI_LOADED | {"asymptotics", "derivatives"}),
        (_run_main("transform", "--model", _GEOMETRIC, "--max-index", "3"), _TRANSFORM_LOADED),
        (_run_main("classify", "--model", _GEOMETRIC, "--ell-max", "1"), _TRANSFORM_LOADED),
    ],
    ids=["package", "first-use", "cli", "eval", "btable", "ctable", "asymptotics", "transform", "classify"],
)
def test_each_command_loads_only_the_modules_it_calls(run, loaded):
    # each command imports only the modules it calls (verify alone loads
    # verification), and importing the package loads no submodule
    src = str(Path(spherekernel.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=src)
    code = (
        f"import sys; rc = 0; {run}; "
        "print(sorted(n for n in sys.modules if n.startswith('spherekernel.'))); sys.exit(rc)"
    )
    done = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=60
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout.splitlines()[-1] == str(sorted(f"spherekernel.{m}" for m in loaded))


def test_package_names_load_from_their_submodules():
    for module, names in spherekernel._EXPORTS.items():
        submodule = importlib.import_module(f"spherekernel.{module}")
        assert getattr(spherekernel, module) is submodule
        for name in names:
            assert getattr(spherekernel, name) is getattr(submodule, name)
    assert set(spherekernel.__all__) <= set(dir(spherekernel))
    namespace = {}
    exec("from spherekernel import *", namespace)
    assert set(spherekernel.__all__) <= set(namespace)
    with pytest.raises(AttributeError, match="no_such_name"):
        spherekernel.no_such_name


def test_verify_fails_on_corrupted_recursion(capsys, monkeypatch):
    # negative control: poison one interior cell and make sure a suite trips
    real_build = derivatives.build_deriv_table

    def corrupted(power, max_order):
        table = real_build(power, max_order)
        if table.max_order >= 3:
            rows = [list(row) for row in table.rows]
            rows[3][1] += 1  # T[2, 1]
            return derivatives.DerivTable(table.power, table.max_order, rows)
        return table

    monkeypatch.setattr(verification.derivatives, "build_deriv_table", corrupted)
    results = verification.run_suite("identities")
    assert any(not r.passed for r in results)
