"""Command-line interface: parse literals, dispatch, print records.

Each command is declared once, with ``_command``: its name, description,
arguments after the shared ``--p``/``--format``, and a handler returning
its ``(key, value)`` records (``selftest`` also returns its exit code).
``main`` prints them as ``key = value``, or with ``--format records`` as
line-delimited ``key=value`` in a stable field order, so identical
invocations are byte-identical.  ``_EXIT`` is the exit-code table: 0
success, 1 usage or syntax error, 2 mathematical domain error, 3
precision/undecidable, 4 bounded search exhausted.  The environment
variable ``TATEKIT_SEED`` (an integer) seeds the selftest suites.

A handler imports the modules only its command runs (``frobenius`` for
``split``, ``certify`` and ``diag-select``; ``gabber`` for ``gabber``;
``selftest``), so the other commands start without loading them; and
``main`` builds the argument parser of the named command alone.
"""

from __future__ import annotations

import argparse
import os
import sys
from fractions import Fraction

from .errors import (
    BackendMismatch,
    DomainError,
    ParseError,
    PrecisionError,
    SearchExhausted,
)
from .parsing import (
    format_norm_value,
    format_rational,
    format_tate,
    parse_hahn,
    parse_norm_value,
    parse_tate,
)
from .tate import distinguished_order, euclid_degree, find_distinguishing_automorphism, gauss_norm, is_unit
# Eager, unlike the handlers' imports: a tracer installed after import patches only loaded modules.
from .weierstrass import divide


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise _UsageError(message)


def _int_from(least: int, kind: str):
    def parse(text: str) -> int:
        try:
            value = int(text)
        except ValueError:
            value = least - 1
        if value < least:
            raise argparse.ArgumentTypeError(f"expected a {kind} integer, got {text!r}")
        return value

    return parse


_positive_int = _int_from(1, "positive")
_nonnegative_int = _int_from(0, "nonnegative")


def _rational(text: str) -> Fraction:
    try:
        return Fraction(text)
    except (ValueError, ZeroDivisionError):
        raise argparse.ArgumentTypeError(f"expected a rational, got {text!r}") from None


def _rationals(text: str) -> tuple[Fraction, ...]:
    return tuple(_rational(x) for x in text.split(","))


def _file_text(path: str) -> str:
    try:
        with open(path, "r", encoding="utf-8") as handle:
            return handle.read()
    except OSError as exc:
        reason = exc.strerror
    except UnicodeDecodeError:
        reason = "not UTF-8 text"
    raise argparse.ArgumentTypeError(f"cannot read {path!r}: {reason}")


_COMMANDS: dict[str, tuple] = {}


def _command(name: str, description: str, *arguments):
    """Register a handler; each argument is an ``_arg(...)`` for argparse."""

    def register(handler):
        _COMMANDS[name] = (description, arguments, handler)
        return handler

    return register


def _arg(*flags, **options):
    return flags, options


_F = _arg("--f", required=True)
_N = _arg("--n", type=_nonnegative_int, default=None)


@_command("norm", "Gauss norm of a series", _F, _N)
def _norm(args):
    return [("norm", format_norm_value(gauss_norm(parse_tate(args.f, args.p, args.n))))]


@_command("unit", "unit test for a series", _F, _N)
def _unit(args):
    return [("unit", "true" if is_unit(parse_tate(args.f, args.p, args.n)) else "false")]


@_command("degree", "Euclidean degree in one variable", _F)
def _degree(args):
    return [("degree", str(euclid_degree(parse_tate(args.f, args.p, 1))))]


@_command("divide", "Euclidean division in one variable",
          _F, _arg("--g", required=True), _arg("--slack", required=True))
def _divide(args):
    f, g = parse_tate(args.f, args.p, 1), parse_tate(args.g, args.p, 1)
    q, r = divide(f, g, parse_norm_value(args.slack))
    return [("q", format_tate(q)), ("r", format_tate(r))]


@_command("distinguish", "distinguished order report",
          _F, _N, _arg("--axis", type=int, default=None))
def _distinguish(args):
    report = distinguished_order(parse_tate(args.f, args.p, args.n), args.axis)
    return [
        ("order", str(report.order)),
        ("dominant", format_norm_value(report.dominant_norm)),
        ("distinguished", "true" if report.is_distinguished else "false"),
    ]


@_command("automorph", "find a shear distinguishing the inputs",
          _arg("--f", action="append", required=True), _N)
def _automorph(args):
    arity = args.n
    if arity is None:
        arity = max(parse_tate(text, args.p).n for text in args.f)
    spec = find_distinguishing_automorphism([parse_tate(text, args.p, arity) for text in args.f])
    return [("alphas", ",".join(str(a) for a in spec.exponents))]


@_command("split", "apply the splitting lift", _F, _N)
def _split(args):
    from .frobenius import lift_splitting_tate, phi_standard

    f = parse_tate(args.f, args.p, args.n)
    return [("result", format_tate(lift_splitting_tate(phi_standard(args.p), f)))]


@_command("certify", "certified splitting lift for convergent series", _F, _N,
          _arg("--log-radii", required=True, dest="log_radii", type=_rationals),
          _arg("--log-bound", required=True, dest="log_bound", type=_rational))
def _certify(args):
    from .frobenius import ConvergenceCertificate, lift_splitting_convergent, phi_standard

    f = parse_tate(args.f, args.p, args.n)
    cert = ConvergenceCertificate(args.log_radii, args.log_bound)
    image, cert = lift_splitting_convergent(phi_standard(args.p), f, cert)
    return [
        ("result", format_tate(image)),
        ("log_radii", ",".join(format_rational(r) for r in cert.log_radii)),
        ("log_bound", format_rational(cert.log_bound)),
        ("verified", "true"),
    ]


@_command("diag-select", "diagonal index selection over a norm table",
          _arg("--table", required=True, type=_file_text, help="CSV file with header i,j,v"),
          _arg("--floors", required=True, type=_rationals, help="comma-separated rationals"),
          _arg("--count", type=int, required=True))
def _diag_select(args):
    from .frobenius import NormTable, select_diagonal_indices

    table = NormTable.from_csv(args.table, args.floors)
    records = []
    for step in select_diagonal_indices(table, args.count):
        records += [
            (f"m_{step.position}", str(step.index)),
            (f"coeff_exp_{step.position}", format_rational(step.coeff_exponent)),
            (f"floor_{step.position}", format_rational(step.floor)),
        ]
    return records


@_command("gabber", "compositum-field witnesses",
          _arg("action", choices=["reps", "witness", "distance"]),
          _arg("--count", type=_positive_int, default=None),
          _arg("--N", type=_positive_int, default=None), _arg("--g", default=None))
def _gabber(args):
    from . import gabber
    from .exponents import _require_prime

    if args.action == "reps":
        count = args.count if args.count is not None else (args.N or 1)
        ctx = gabber.build_context(args.p, count)
        return [(f"rep_{i}", str(ctx.rep(i))) for i in range(1, count + 1)]
    if args.N is None:
        raise _UsageError("gabber witness/distance needs --N")
    if args.action == "witness":
        ctx = gabber.build_context(args.p, args.N)
        return [("witness", str(gabber.witness_truncation(ctx, args.N)))]
    _require_prime(args.p)
    if args.g is None:
        raise _UsageError("gabber distance needs --g")
    g = parse_hahn(args.g, args.p)
    # K = min(N, k + 1) representatives, k = len(g.terms), give the report
    # of N.  If K = N nothing changes.  Otherwise the cosets of -s_1, ...,
    # -s_K are pairwise distinct (distinct signatures) and g's k < K terms
    # meet at most k of them, so some i <= K is missing: the least missing
    # index over 1..N is the one over 1..K.  The bound -s_i is then the
    # same, and the check builds f_min(N, k + 1) = f_K either way.
    count = min(args.N, len(g.terms) + 1)
    report = gabber.distance_lower_bound_check(gabber.build_context(args.p, count), g, count)
    return [
        ("i_g", str(report.missing_index)),
        ("bound_exp", str(report.bound_exponent)),
        ("actual_exp", str(report.actual_exponent)),
        ("pass", "true" if report.passed else "false"),
    ]


@_command("selftest", "run the invariant suites",
          _arg("--trials", type=_positive_int, default=200), _arg("--seed", type=int, default=None))
def _selftest(args):
    from . import selftest

    seed = args.seed
    if seed is None:
        text = os.environ.get("TATEKIT_SEED", str(selftest.DEFAULT_SEED))
        try:
            seed = int(text)
        except ValueError:
            raise _UsageError(f"TATEKIT_SEED: expected an integer, got {text!r}") from None
    results = selftest.run_all(seed, args.trials)
    records = [(f"suite_{name}", f"{args.trials - failed}/{args.trials}") for name, failed in results]
    healthy = not any(failed for _, failed in results)
    records.append(("result", "pass" if healthy else "fail"))
    return records, 0 if healthy else 2


def _build_parser(argv: list[str]) -> _Parser:
    parser = _Parser(prog="tatekit", add_help=True)
    sub = parser.add_subparsers(dest="command", required=True)
    # A command named first needs only its own subparser, and no message
    # then lists the others; top-level help and a bad name need them all.
    names = argv[:1] if argv and argv[0] in _COMMANDS else _COMMANDS
    for name in names:
        description, arguments, handler = _COMMANDS[name]
        command = sub.add_parser(name, description=description)
        command.add_argument("--p", type=int, default=2, help="prime characteristic")
        command.add_argument("--format", choices=["text", "records"], default="text")
        for flags, options in arguments:
            command.add_argument(*flags, **options)
        command.set_defaults(handler=handler)
    return parser


_EXIT = {
    _UsageError: ("usage error", 1),
    ParseError: ("syntax error", 1),
    DomainError: ("error", 2),
    BackendMismatch: ("error", 2),
    PrecisionError: ("error", 3),
    SearchExhausted: ("error", 4),
}


def main(argv=None, out=None, err=None) -> int:
    out = out if out is not None else sys.stdout
    err = err if err is not None else sys.stderr
    argv = sys.argv[1:] if argv is None else argv
    parser = _build_parser(argv)
    try:
        args = parser.parse_args(argv)
        records = args.handler(args)
    except tuple(_EXIT) as exc:
        prefix, code = next(_EXIT[kind] for kind in type(exc).__mro__ if kind in _EXIT)
        err.write(f"{prefix}: {exc}\n")
        return code
    records, code = records if isinstance(records, tuple) else (records, 0)
    sep = "=" if args.format == "records" else " = "
    for key, value in records:
        out.write(f"{key}{sep}{value}\n")
    return code


def entry_point() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry_point()
