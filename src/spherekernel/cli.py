"""Command-line front end.

Exit status: 0 on success, 1 on a domain error (a single-line JSON error
object is written to stderr), 2 on a usage error.  Exact table values
are always serialized as decimal strings, never floats; btable and ctable
stream rows of Decimal cells, since CPython's int -> str is quadratic and
refuses ints past sys.get_int_max_str_digits().  Decimal prints in linear
time with no limit, in a context that keeps every cell exact (rounding traps).
Every result but verify's leaves through _write, or _write_table for the
two streamed tables; no other code reads --format.

Each command imports only the library modules it calls, inside its
handler, so a fresh process pays for no other: btable loads derivatives,
ctable and asymptotics load asymptotics (with derivatives), eval loads
sequences and kernels, and transform and classify load transform.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
from contextlib import nullcontext
from decimal import MAX_EMAX, MAX_PREC, Context, Decimal, Inexact, Overflow, Rounded, localcontext
from pathlib import Path

from .errors import SphereKernelError

EXIT_OK = 0
EXIT_DOMAIN_ERROR = 1
EXIT_USAGE = 2

_EXACT = Context(MAX_PREC, Emax=MAX_EMAX, traps=[Inexact, Rounded, Overflow])
_JSON_CELL = '{"n1": %d, "n2": %d, "value": "%s"}'


class _Parser(argparse.ArgumentParser):
    # usage errors must also be single-line machine-readable objects
    def error(self, message):
        sys.stderr.write(to_json({"error": "UsageError", "message": message}) + "\n")
        raise SystemExit(EXIT_USAGE)


def finite_positive(raw: str) -> float:
    """argparse type of --tol, applied to its SPHEREKERNEL_TOL default too."""
    tol = float(raw)
    if not (math.isfinite(tol) and tol > 0.0):
        raise ValueError(raw)
    return tol


def to_json(obj) -> str:
    return json.dumps(obj, sort_keys=True)


def _emit(chunks, path: str | None) -> None:
    """Write chunks, computed in the exact context as they come, to path or stdout."""
    try:
        sink = open(path, "w") if path else nullcontext(sys.stdout)
    except OSError as exc:
        # main reports a ValueError as a usage error
        raise ValueError(f"--output: cannot write {path!r}: {exc.strerror or exc}") from None
    with localcontext(_EXACT), sink as out:
        out.writelines(chunks)


def _write(args, payload: dict, header: str, lines) -> None:
    """Write one result as --format asks: to_json(payload) or the CSV header and lines."""
    if args.format == "json":
        _emit([to_json(payload) + "\n"], args.output)
    else:
        _emit((line + "\n" for line in (header, *lines)), args.output)


def _write_table(args, fields: dict, rows, n1_of, csv_lead: tuple) -> None:
    """Stream a table whose row i holds n2 = 0, 1, ..., one chunk a row.

    JSON is to_json({**fields, "cells": cells}); CSV lines hold the fields
    named in csv_lead, then n1,n2,value.
    """
    if args.format == "json":
        head, tail = to_json({**fields, "cells": []}).split("[]")
        first, cell, sep, last = head + "[", _JSON_CELL, ", ", "]" + tail + "\n"
    else:
        first = "".join(f"{name}," for name in csv_lead) + "n1,n2,value\n"
        cell = "".join(f"{fields[name]}," for name in csv_lead) + "%d,%d,%s\n"
        sep, last = "", ""

    def chunks():
        yield first
        for i, row in enumerate(rows):
            cells = (cell % (n1_of(i, n2), n2, v) for n2, v in enumerate(row))
            yield sep * (i > 0) + sep.join(cells)
        yield last

    _emit(chunks(), args.output)


def _load_model(parser: argparse.ArgumentParser, raw: str):
    """The sequences.SequenceModel given by --model: JSON text or a file path."""
    from . import sequences

    text = raw.strip()
    if not text.startswith("{"):
        try:
            text = Path(text).read_text()
        except OSError as exc:
            parser.error(f"--model: cannot read file {raw!r}: {exc}")
    try:
        return sequences.model_from_json(text)
    except (ValueError, TypeError) as exc:
        parser.error(f"--model: {exc}")


def _parse_sphere(parser: argparse.ArgumentParser, raw: str) -> int | None:
    if raw == "inf":
        return None
    try:
        d = int(raw)
    except ValueError:
        parser.error(f"--sphere: expected 'inf' or a positive integer, got {raw!r}")
    if d < 1:
        parser.error(f"--sphere: dimension must be >= 1, got {d}")
    return d


def cmd_eval(parser, args) -> int:
    from . import kernels

    model = _load_model(parser, args.model)
    dim = _parse_sphere(parser, args.sphere)
    for theta in args.theta:
        if not 0.0 <= theta <= math.pi + 1e-12:
            parser.error(f"--theta: values must lie in [0, pi], got {theta}")
    spec = kernels.KernelSpec(dim, model)
    values = [kernels.phi_eval(spec, theta, args.tol) for theta in args.theta]
    payload = {"sphere": "inf" if dim is None else dim, "theta": list(args.theta),
               "phi": values, "tol": args.tol}
    _write(args, payload, "theta,phi", (f"{t!r},{v!r}" for t, v in zip(args.theta, values)))
    return EXIT_OK


def cmd_btable(parser, args) -> int:
    from . import derivatives

    rows = derivatives.deriv_rows(args.j, args.order, Decimal(1))
    fields = {"j": args.j, "max_order": args.order}
    _write_table(args, fields, rows, lambda level, n2: level - n2, ("j",))
    return EXIT_OK


def cmd_ctable(parser, args) -> int:
    from . import asymptotics

    rows = asymptotics.leading_rows(args.max_n, Decimal(1))
    _write_table(args, {"max_n": args.max_n}, rows, lambda n1, n2: n1, ())
    return EXIT_OK


def cmd_asymptotics(parser, args) -> int:
    from . import asymptotics

    if args.js:
        js = sorted(set(args.js))
    else:
        if args.max_j < 8:
            parser.error(f"--max-j: must be at least 8, got {args.max_j}")
        js = [args.max_j // 8, args.max_j // 4, args.max_j // 2, args.max_j]
    parities = ("even", "odd") if args.parity == "both" else (args.parity,)
    traces = [asymptotics.trace_convergence(args.ell, p, js) for p in parities]
    payload = {
        "ell": args.ell,
        "traces": [
            {
                "parity": tr.parity,
                "js": list(tr.sample_js),
                "scaled_values": list(tr.scaled_values),
                "estimated_constant": tr.estimated_constant,
            }
            for tr in traces
        ],
    }
    if args.parity == "both":
        payload.update(asymptotics.constant_ratios(*traces))
    lines = (
        f"{tr.ell},{tr.parity},{j},{value!r}"
        for tr in traces
        for j, value in zip(tr.sample_js, tr.scaled_values)
    )
    _write(args, payload, "ell,parity,j,scaled_value", lines)
    return EXIT_OK


def cmd_transform(parser, args) -> int:
    from . import transform

    model = _load_model(parser, args.model)
    if args.max_index is None:
        seq = transform.circle_sequence(model, args.tol)
    else:
        seq = transform.circle_sequence_to(model, args.max_index, args.tol)
    payload = {"coefficients": list(seq.terms), "max_index": seq.max_index,
               "per_term_tol": seq.per_term_tol}
    _write(args, payload, "n,value", (f"{n},{v!r}" for n, v in enumerate(seq.terms)))
    return EXIT_OK


def cmd_classify(parser, args) -> int:
    from . import transform

    model = _load_model(parser, args.model)
    dim = _parse_sphere(parser, args.sphere)
    if dim is None:
        report = transform.classify_inf(model, args.ell_max)
    else:
        report = transform.classify_d(model, args.ell_max)
    lines = (
        f"{v.ell},{str(v.converges).lower()},{'' if v.value is None else repr(v.value)}"
        for v in report.per_ell
    )
    _write(args, report.to_dict(), "ell,converges,value", lines)
    return EXIT_OK


def cmd_verify(parser, args) -> int:
    from . import verification

    # an unknown suite name raises ValueError, a usage error
    results = verification.run_suite(args.suite)
    failures = 0
    for result in results:
        status = "PASS" if result.passed else "FAIL"
        failures += 0 if result.passed else 1
        sys.stdout.write(
            f"[{status}] {result.name} ({result.seconds:.2f}s) {result.detail}\n"
        )
    sys.stdout.write(
        f"{len(results) - failures}/{len(results)} checks passed\n"
    )
    return EXIT_OK if failures == 0 else EXIT_DOMAIN_ERROR


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="spherekernel",
        description=(
            "Isotropic positive definite functions on spheres: series "
            "evaluation, exact derivative coefficient tables, circle "
            "transforms and smoothness classification."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)
    # a string default is parsed by its type, so a bad value is a usage error
    default_tol = os.environ.get("SPHEREKERNEL_TOL", "1e-10")

    def common_output(p):
        p.add_argument("--format", choices=("json", "csv"), default="json")
        p.add_argument("--output", default=None, help="write to this path instead of stdout")

    p = sub.add_parser("eval", help="evaluate a kernel series at angles")
    p.add_argument("--sphere", required=True, help="'inf' or a dimension d >= 1")
    p.add_argument("--model", required=True, help="sequence model JSON or a file path")
    p.add_argument("--theta", type=float, nargs="+", required=True)
    p.add_argument("--tol", type=finite_positive, default=default_tol)
    common_output(p)
    p.set_defaults(handler=cmd_eval)

    p = sub.add_parser("btable", help="derivative coefficient table for one power")
    p.add_argument("--j", type=int, required=True, help="cosine power")
    p.add_argument("--order", type=int, required=True, help="highest derivative order")
    common_output(p)
    p.set_defaults(handler=cmd_btable)

    p = sub.add_parser("ctable", help="leading growth coefficient table")
    p.add_argument("--max-n", type=int, required=True)
    common_output(p)
    p.set_defaults(handler=cmd_ctable)

    p = sub.add_parser("asymptotics", help="scaled-sum convergence traces")
    p.add_argument("--ell", type=int, required=True)
    p.add_argument("--parity", choices=("even", "odd", "both"), default="both")
    p.add_argument("--js", type=int, nargs="+", default=None)
    p.add_argument("--max-j", type=int, default=2048)
    common_output(p)
    p.set_defaults(handler=cmd_asymptotics)

    p = sub.add_parser("transform", help="circle sequence from a Hilbert-sphere model")
    p.add_argument("--model", required=True)
    p.add_argument("--max-index", type=int, default=None,
                   help="fixed top index; omitted means mass-based automatic choice")
    p.add_argument("--tol", type=finite_positive, default=default_tol)
    common_output(p)
    p.set_defaults(handler=cmd_transform)

    p = sub.add_parser("classify", help="smoothness classification from decay")
    p.add_argument("--model", required=True)
    p.add_argument("--ell-max", type=int, default=6)
    p.add_argument("--sphere", default="inf", help="'inf' (default) or a dimension")
    common_output(p)
    p.set_defaults(handler=cmd_classify)

    p = sub.add_parser("verify", help="run the verification suites")
    p.add_argument(
        "suite",
        nargs="?",
        default="all",
        help="suite to run, or all (the default); an unknown name lists the suites",
    )
    p.set_defaults(handler=cmd_verify)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.handler(parser, args)
    except SphereKernelError as exc:
        sys.stderr.write(
            to_json({"error": type(exc).__name__, "message": str(exc)}) + "\n"
        )
        return EXIT_DOMAIN_ERROR
    except ValueError as exc:
        # library argument checks (j, order, max_n, ...) are usage errors
        parser.error(str(exc))


def main_entry() -> None:
    raise SystemExit(main())


if __name__ == "__main__":
    raise SystemExit(main())
