"""Command-line interface: parse literals, dispatch, print records.

Exit codes: 0 success, 1 usage or syntax error, 2 mathematical domain
error, 3 precision/undecidable, 4 bounded search exhausted.  With
``--format records`` output is line-delimited ``key=value`` with a
stable field order, so identical invocations are byte-identical; the
default text format prints ``key = value``.  The environment variable
``TATEKIT_SEED`` fixes the seed of the randomized selftest suites.
"""

from __future__ import annotations

import argparse
import os
import sys
from fractions import Fraction

from . import gabber
from .errors import (
    BackendMismatch,
    DomainError,
    ParseError,
    PrecisionError,
    SearchExhausted,
)
from .frobenius import (
    ConvergenceCertificate,
    NormTable,
    lift_splitting_convergent,
    lift_splitting_tate,
    phi_standard,
    select_diagonal_indices,
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


def _emit(pairs, fmt, out) -> None:
    sep = "=" if fmt == "records" else " = "
    for key, value in pairs:
        out.write(f"{key}{sep}{value}\n")


def _build_parser() -> _Parser:
    parser = _Parser(prog="tatekit", add_help=True)
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--p", type=int, default=2, help="prime characteristic")
        p.add_argument(
            "--format", choices=["text", "records"], default="text"
        )

    p_norm = sub.add_parser("norm", description="Gauss norm of a series")
    common(p_norm)
    p_norm.add_argument("--f", required=True)
    p_norm.add_argument("--n", type=_nonnegative_int, default=None)

    p_unit = sub.add_parser("unit", description="unit test for a series")
    common(p_unit)
    p_unit.add_argument("--f", required=True)
    p_unit.add_argument("--n", type=_nonnegative_int, default=None)

    p_degree = sub.add_parser("degree", description="Euclidean degree in one variable")
    common(p_degree)
    p_degree.add_argument("--f", required=True)

    p_divide = sub.add_parser("divide", description="Euclidean division in one variable")
    common(p_divide)
    p_divide.add_argument("--f", required=True)
    p_divide.add_argument("--g", required=True)
    p_divide.add_argument("--slack", required=True)

    p_dist = sub.add_parser("distinguish", description="distinguished order report")
    common(p_dist)
    p_dist.add_argument("--f", required=True)
    p_dist.add_argument("--n", type=_nonnegative_int, default=None)
    p_dist.add_argument("--axis", type=int, default=None)

    p_auto = sub.add_parser(
        "automorph", description="find a shear distinguishing the inputs"
    )
    common(p_auto)
    p_auto.add_argument("--f", action="append", required=True)
    p_auto.add_argument("--n", type=_nonnegative_int, default=None)

    p_split = sub.add_parser("split", description="apply the splitting lift")
    common(p_split)
    p_split.add_argument("--f", required=True)
    p_split.add_argument("--n", type=_nonnegative_int, default=None)

    p_cert = sub.add_parser(
        "certify", description="certified splitting lift for convergent series"
    )
    common(p_cert)
    p_cert.add_argument("--f", required=True)
    p_cert.add_argument("--n", type=_nonnegative_int, default=None)
    p_cert.add_argument(
        "--log-radii", required=True, dest="log_radii", type=_rationals
    )
    p_cert.add_argument("--log-bound", required=True, dest="log_bound", type=_rational)

    p_diag = sub.add_parser(
        "diag-select", description="diagonal index selection over a norm table"
    )
    common(p_diag)
    p_diag.add_argument(
        "--table", required=True, type=_file_text, help="CSV file with header i,j,v"
    )
    p_diag.add_argument(
        "--floors", required=True, type=_rationals, help="comma-separated rationals"
    )
    p_diag.add_argument("--count", type=int, required=True)

    p_gab = sub.add_parser("gabber", description="compositum-field witnesses")
    common(p_gab)
    p_gab.add_argument("action", choices=["reps", "witness", "distance"])
    p_gab.add_argument("--count", type=_positive_int, default=None)
    p_gab.add_argument("--N", type=_positive_int, default=None)
    p_gab.add_argument("--g", default=None)

    p_self = sub.add_parser("selftest", description="run the invariant suites")
    common(p_self)
    p_self.add_argument("--trials", type=_positive_int, default=200)
    p_self.add_argument("--seed", type=int, default=None)

    return parser


def _cmd_norm(args, out) -> int:
    f = parse_tate(args.f, args.p, args.n)
    _emit([("norm", format_norm_value(gauss_norm(f)))], args.format, out)
    return 0


def _cmd_unit(args, out) -> int:
    f = parse_tate(args.f, args.p, args.n)
    _emit([("unit", "true" if is_unit(f) else "false")], args.format, out)
    return 0


def _cmd_degree(args, out) -> int:
    f = parse_tate(args.f, args.p, 1)
    _emit([("degree", str(euclid_degree(f)))], args.format, out)
    return 0


def _cmd_divide(args, out) -> int:
    f = parse_tate(args.f, args.p, 1)
    g = parse_tate(args.g, args.p, 1)
    slack = parse_norm_value(args.slack)
    q, r = divide(f, g, slack)
    _emit([("q", format_tate(q)), ("r", format_tate(r))], args.format, out)
    return 0


def _cmd_distinguish(args, out) -> int:
    f = parse_tate(args.f, args.p, args.n)
    report = distinguished_order(f, args.axis)
    _emit(
        [
            ("order", str(report.order)),
            ("dominant", format_norm_value(report.dominant_norm)),
            ("distinguished", "true" if report.is_distinguished else "false"),
        ],
        args.format,
        out,
    )
    return 0


def _cmd_automorph(args, out) -> int:
    arity = args.n
    if arity is None:
        parsed = [parse_tate(text, args.p) for text in args.f]
        arity = max(g.n for g in parsed)
    gs = [parse_tate(text, args.p, arity) for text in args.f]
    spec = find_distinguishing_automorphism(gs)
    alphas = ",".join(str(a) for a in spec.exponents)
    _emit([("alphas", alphas)], args.format, out)
    return 0


def _cmd_split(args, out) -> int:
    f = parse_tate(args.f, args.p, args.n)
    image = lift_splitting_tate(phi_standard(args.p), f)
    _emit([("result", format_tate(image))], args.format, out)
    return 0


def _cmd_certify(args, out) -> int:
    f = parse_tate(args.f, args.p, args.n)
    cert = ConvergenceCertificate(args.log_radii, args.log_bound)
    image, out_cert = lift_splitting_convergent(phi_standard(args.p), f, cert)
    _emit(
        [
            ("result", format_tate(image)),
            ("log_radii", ",".join(format_rational(r) for r in out_cert.log_radii)),
            ("log_bound", format_rational(out_cert.log_bound)),
            ("verified", "true"),
        ],
        args.format,
        out,
    )
    return 0


def _cmd_diag_select(args, out) -> int:
    table = NormTable.from_csv(args.table, args.floors)
    steps = select_diagonal_indices(table, args.count)
    pairs = []
    for step in steps:
        pairs.append((f"m_{step.position}", str(step.index)))
        pairs.append((f"coeff_exp_{step.position}", format_rational(step.coeff_exponent)))
        pairs.append((f"floor_{step.position}", format_rational(step.floor)))
    _emit(pairs, args.format, out)
    return 0


def _cmd_gabber(args, out) -> int:
    if args.action == "reps":
        count = args.count if args.count is not None else (args.N or 1)
        ctx = gabber.build_context(args.p, count)
        pairs = [(f"rep_{i}", str(ctx.rep(i))) for i in range(1, count + 1)]
        _emit(pairs, args.format, out)
        return 0
    if args.N is None:
        raise _UsageError("gabber witness/distance needs --N")
    ctx = gabber.build_context(args.p, args.N)
    if args.action == "witness":
        witness = gabber.witness_truncation(ctx, args.N)
        _emit([("witness", str(witness))], args.format, out)
        return 0
    if args.g is None:
        raise _UsageError("gabber distance needs --g")
    g = parse_hahn(args.g, args.p)
    report = gabber.distance_lower_bound_check(ctx, g, args.N)
    _emit(
        [
            ("i_g", str(report.missing_index)),
            ("bound_exp", str(report.bound_exponent)),
            ("actual_exp", str(report.actual_exponent)),
            ("pass", "true" if report.passed else "false"),
        ],
        args.format,
        out,
    )
    return 0


def _cmd_selftest(args, out) -> int:
    # Imported here so that the other commands do not pay to load it.
    from . import selftest

    seed = args.seed
    if seed is None:
        seed = int(os.environ.get("TATEKIT_SEED", selftest.DEFAULT_SEED))
    results = selftest.run_all(seed, args.trials)
    pairs = []
    total_failures = 0
    for result in results:
        passed = result.trials - result.failures
        pairs.append((f"suite_{result.name}", f"{passed}/{result.trials}"))
        total_failures += result.failures
    pairs.append(("result", "pass" if total_failures == 0 else "fail"))
    _emit(pairs, args.format, out)
    return 0 if total_failures == 0 else 2


_HANDLERS = {
    "norm": _cmd_norm,
    "unit": _cmd_unit,
    "degree": _cmd_degree,
    "divide": _cmd_divide,
    "distinguish": _cmd_distinguish,
    "automorph": _cmd_automorph,
    "split": _cmd_split,
    "certify": _cmd_certify,
    "diag-select": _cmd_diag_select,
    "gabber": _cmd_gabber,
    "selftest": _cmd_selftest,
}


def main(argv=None, out=None, err=None) -> int:
    out = out if out is not None else sys.stdout
    err = err if err is not None else sys.stderr
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        return _HANDLERS[args.command](args, out)
    except _UsageError as exc:
        err.write(f"usage error: {exc}\n")
        return 1
    except ParseError as exc:
        err.write(f"syntax error: {exc}\n")
        return 1
    except (DomainError, BackendMismatch) as exc:
        err.write(f"error: {exc}\n")
        return 2
    except PrecisionError as exc:
        err.write(f"error: {exc}\n")
        return 3
    except SearchExhausted as exc:
        err.write(f"error: {exc}\n")
        return 4


def entry_point() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry_point()
