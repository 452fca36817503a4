import io
import os
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

import pytest

import tatekit
from tatekit.cli import main
from tatekit.errors import ParseError
from tatekit.exponents import ExponentVector
from tatekit.field import LaurentSeries, NormValue
from tatekit.parsing import (
    format_hahn,
    format_laurent,
    format_norm_value,
    format_tate,
    parse_exponent_vector,
    parse_hahn,
    parse_laurent,
    parse_norm_value,
    parse_tate,
)
from tatekit.selftest import sample_hahn, sample_laurent, sample_tate
from tatekit.tate import TateElem, euclid_degree, gauss_norm


# The least strong pseudoprime to the first 13 prime bases (Sorenson and
# Webster, 2017): the primality check is certified below it.
PSI13 = 3_317_044_064_679_887_385_961_981


def run_cli(argv):
    out, err = io.StringIO(), io.StringIO()
    code = main(argv, out, err)
    return code, out.getvalue(), err.getvalue()


class TestLaurentParsing:
    def test_spec_literal(self):
        x = parse_laurent("1 + 2*t^3 + O(t^5)", 5)
        assert x.terms == ((Fraction(0), 1), (Fraction(3), 2))
        assert x.cutoff == 5

    def test_negative_half_power(self):
        x = parse_laurent("t^-1/2", 2)
        assert x.terms == ((Fraction(-1, 2), 1),)

    def test_error_position(self):
        with pytest.raises(ParseError) as info:
            parse_laurent("t^", 2)
        assert info.value.column == 3
        assert info.value.line == 1

    def test_coefficients_reduce_mod_p(self):
        x = parse_laurent("5 + 3*t", 3)
        assert x == LaurentSeries.make(3, {0: 2})

    def test_juxtaposed_coefficient(self):
        assert parse_laurent("2t^3", 5) == parse_laurent("2*t^3", 5)

    def test_trailing_junk_rejected(self):
        with pytest.raises(ParseError):
            parse_laurent("1 + t )", 3)


class TestHahnParsing:
    def test_terms(self):
        x = parse_hahn("t^[1:-1] + 2*t^[2:1]", 3)
        assert x.coefficient(ExponentVector.unit(1, -1)) == 1
        assert x.coefficient(ExponentVector.unit(2)) == 2

    def test_zero(self):
        assert parse_hahn("0", 2).is_zero

    def test_constant_and_cutoff(self):
        x = parse_hahn("2 + O(t^[1:1])", 3)
        assert x.coefficient(ExponentVector.zero()) == 2
        assert x.cutoff == ExponentVector.unit(1)


class TestTateParsing:
    def test_spec_literal(self):
        f = parse_tate("[t]X1 + [1]X2^2", 3)
        assert f.n == 2
        assert f.coefficient((1, 0)) == LaurentSeries.t_power(3, 1)
        assert f.coefficient((0, 2)) == LaurentSeries.one(3)

    def test_bare_variable_means_x1(self):
        f = parse_tate("X^2", 5)
        assert f.n == 1 and f.coefficient((2,)) == LaurentSeries.one(5)

    def test_bracket_product(self):
        f = parse_tate("X + [-1]*[t]", 5)
        assert f.coefficient((0,)) == LaurentSeries.make(5, {1: -1})

    def test_slack_only(self):
        f = parse_tate("O(e^-1)", 3)
        assert not f.terms and f.slack == NormValue.finite(Fraction(1))

    def test_slack_suffix(self):
        f = parse_tate("[1+t]X1^2*X2 + [t^2] + O(e^-3)", 3)
        assert f.n == 2
        assert f.slack == NormValue.finite(Fraction(3))

    def test_arity_override(self):
        f = parse_tate("X1 + X2", 2, 3)
        assert f.n == 3


class TestNormValueParsing:
    def test_round_trip(self):
        for text in ("e^-3", "e^-1/2", "e^2", "0"):
            value = parse_norm_value(text)
            assert format_norm_value(value) == text
            assert parse_norm_value(format_norm_value(value)) == value


class TestExponentVectorText:
    def test_round_trip(self):
        vec = parse_exponent_vector("[1:4, 2:-4]")
        assert vec == ExponentVector.from_dict({1: 4, 2: -4})
        assert str(vec) == "[1:4, 2:-4]"
        assert parse_exponent_vector(str(vec)) == vec


ROUND_TRIP_LAURENT = [
    ("0", 5),
    ("1", 5),
    ("t", 5),
    ("2*t^3", 5),
    ("t^-1/2", 2),
    ("1 + 2*t^3 + O(t^5)", 5),
    ("O(t)", 5),
    ("4*t^-2 + 1 + t^7", 5),
]

ROUND_TRIP_HAHN = [
    "0",
    "2",
    "t^[1:-1]",
    "t^[1:-1] + t^[2:-1]",
    "2*t^[1:2, 3:-4] + O(t^[1:1])",
]

ROUND_TRIP_TATE = [
    "0",
    "[2]",
    "X",
    "X^2 + [t]X + [t^2]",
    "[1 + t]X1^2*X2 + [t^2]",
    "O(e^-1)",
    "[t]X1*X2^3 + O(e^-5/2)",
]


class TestRoundTrips:
    @pytest.mark.parametrize("text,p", ROUND_TRIP_LAURENT)
    def test_laurent_corpus(self, text, p):
        x = parse_laurent(text, p)
        assert parse_laurent(format_laurent(x), p) == x

    @pytest.mark.parametrize("text", ROUND_TRIP_HAHN)
    def test_hahn_corpus(self, text):
        x = parse_hahn(text, 5)
        assert parse_hahn(format_hahn(x), 5) == x

    @pytest.mark.parametrize("text", ROUND_TRIP_TATE)
    def test_tate_corpus(self, text):
        f = parse_tate(text, 5)
        assert parse_tate(format_tate(f), 5, f.n) == f

    def test_random_round_trips(self, rng):
        for _ in range(150):
            p = rng.choice([2, 3, 5])
            x = sample_laurent(rng, p)
            assert parse_laurent(format_laurent(x), p) == x
            h = sample_hahn(rng, p)
            assert parse_hahn(format_hahn(h), p) == h
            f = sample_tate(rng, rng.choice([1, 2]), p)
            assert parse_tate(format_tate(f), p, f.n) == f


class TestCli:
    def test_divide_example(self):
        code, out, err = run_cli(
            ["divide", "--f", "X^2", "--g", "X + [-1]*[t]", "--slack", "e^-6"]
        )
        assert code == 0
        assert out == "q = X + [t]\nr = [t^2]\n"

    def test_gabber_distance_example(self):
        code, out, err = run_cli(
            ["gabber", "distance", "--p", "2", "--N", "3", "--g", "0",
             "--format", "records"]
        )
        assert code == 0
        assert "i_g=1" in out and "pass=true" in out

    @pytest.mark.parametrize("g", ["O(t^[1:-2])", "t^[3:1] + O(t^[1:-2])"])
    def test_gabber_distance_undecidable_exit_code(self, g):
        assert run_cli(["gabber", "distance", "--p", "2", "--N", "2", "--g", g]) == (
            3, "", "error: undecidable-at-precision: the ball of g swallows the witness terms\n"
        )

    @pytest.mark.parametrize(
        "fmt,out",
        [
            ("text", "m_0 = 0\ncoeff_exp_0 = 0\nfloor_0 = 0\n"
                     "m_1 = 1\ncoeff_exp_1 = -1\nfloor_1 = 1\n"),
            ("records", "m_0=0\ncoeff_exp_0=0\nfloor_0=0\n"
                        "m_1=1\ncoeff_exp_1=-1\nfloor_1=1\n"),
        ],
    )
    def test_diag_select(self, norm_table, fmt, out):
        argv = ["diag-select", "--table", norm_table, "--floors", "0,1",
                "--count", "2", "--format", fmt]
        assert run_cli(argv) == (0, out, "")

    def test_unit_undecidable_exit_code(self):
        code, out, err = run_cli(["unit", "--f", "O(e^-1)"])
        assert code == 3
        assert "undecidable-at-precision" in err

    def test_syntax_error_exit_code(self):
        code, out, err = run_cli(["norm", "--f", "[t^"])
        assert code == 1
        assert "column" in err

    def test_usage_error_exit_code(self):
        code, out, err = run_cli(["divide", "--f", "X"])
        assert code == 1

    def test_math_domain_exit_code(self):
        code, out, err = run_cli(
            ["divide", "--f", "X", "--g", "0", "--slack", "e^-4"]
        )
        assert code == 2

    def test_missing_header_exit_code(self):
        code, out, err = run_cli(
            ["diag-select", "--table", "/dev/null", "--floors", "0",
             "--count", "1"]
        )
        # /dev/null has no header: domain error, not search exhaustion
        assert code == 2

    def test_search_exhausted_exit_code(self, tmp_path):
        table = tmp_path / "table.csv"
        table.write_text("i,j,v\n0,0,0\n0,1,5\n1,0,-1\n1,1,5\n")
        code, out, err = run_cli(
            ["diag-select", "--table", str(table), "--floors", "0,1",
             "--count", "3"]
        )
        assert code == 4
        assert "table-exhausted" in err

    def test_deterministic_records(self):
        argv = ["selftest", "--trials", "25", "--format", "records"]
        first = run_cli(argv)
        second = run_cli(argv)
        assert first == second
        assert first[0] == 0
        assert first[1].endswith("result=pass\n")

    def test_selftest_counts_each_failing_trial_once(self, monkeypatch):
        # A broken exponent order breaks several checks of one trial; the
        # report still counts trials, so each suite reads k/5 with 0 <= k <= 5.
        import tatekit.selftest

        monkeypatch.setattr(tatekit.selftest, "compare", lambda a, b: 0)
        code, out, err = run_cli(["selftest", "--trials", "5", "--seed", "1"])
        records = dict(line.split(" = ") for line in out.splitlines())
        assert (code, err, records.pop("result")) == (2, "", "fail")
        assert len(records) == 5
        for key, value in records.items():
            passed, trials = map(int, value.split("/"))
            assert key.startswith("suite_") and trials == 5 and 0 <= passed <= 5, (key, value)
        assert int(records["suite_exponent-order"].split("/")[0]) < 5

    def test_norm_and_degree(self):
        code, out, _ = run_cli(["norm", "--f", "[t]X + [t^3]", "--format", "records"])
        assert code == 0 and out == "norm=e^-1\n"
        code, out, _ = run_cli(["degree", "--f", "X^2 + [t]X"])
        assert code == 0 and out == "degree = 2\n"

    def test_automorph(self):
        code, out, _ = run_cli(
            ["automorph", "--f", "X1*X2", "--format", "records"]
        )
        assert code == 0 and out == "alphas=1\n"

    def test_split(self):
        code, out, _ = run_cli(
            ["split", "--f", "X^2 + [t]X + [t^2]", "--p", "2"]
        )
        assert code == 0 and out == "result = X + [t]\n"


class TestFieldGrammar:
    """Both field dialects run through one sum grammar and one printer."""

    @pytest.mark.parametrize(
        "text,p,printed",
        [
            ("O(t^0)", 5, "O(t^0)"),
            ("O(t)", 5, "O(t)"),
            ("O(t^1)", 5, "O(t)"),
            ("O(t^-1/2)", 2, "O(t^-1/2)"),
            ("3 + O(t^0)", 5, "O(t^0)"),
            ("2t^3 + O(t^4)", 5, "2*t^3 + O(t^4)"),
        ],
    )
    def test_laurent_balls_round_trip(self, text, p, printed):
        x = parse_laurent(text, p)
        assert format_laurent(x) == printed
        assert parse_laurent(printed, p) == x

    @pytest.mark.parametrize(
        "text,printed",
        [
            ("O(t^[])", "O(t^[])"),
            ("O(t^[1:1])", "O(t^[1:1])"),
            ("2t^[1:1]", "2*t^[1:1]"),
            ("2 * t^[1:1] + O(t^[2:3])", "2*t^[1:1] + O(t^[2:3])"),
            ("1 + O(t^[])", "O(t^[])"),
        ],
    )
    def test_hahn_balls_round_trip(self, text, printed):
        x = parse_hahn(text, 3)
        assert format_hahn(x) == printed
        assert parse_hahn(printed, 3) == x

    @pytest.mark.parametrize(
        "parse,text,column,message",
        [
            (parse_laurent, "t^", 3, "expected a rational number"),
            (parse_laurent, "O(", 3, "expected 't' inside O(...)"),
            (parse_laurent, "O(x)", 3, "expected 't' inside O(...)"),
            (parse_laurent, "O(t^)", 5, "expected a rational number"),
            (parse_laurent, "O(t", 4, "expected ')'"),
            (parse_laurent, "O(t^[1:1])", 5, "expected a rational number"),
            (parse_laurent, "1 + O(t^2) + t", 12, "unexpected trailing input"),
            (parse_laurent, "2*x", 3, "expected 't' after '*'"),
            (parse_laurent, "+", 1, "expected a term"),
            (parse_laurent, "1 +", 4, "expected a term"),
            (parse_laurent, "O(t^1/0)", 8, "zero denominator"),
            (parse_hahn, "O(", 3, "expected 't' inside O(...)"),
            (parse_hahn, "O(x)", 3, "expected 't' inside O(...)"),
            (parse_hahn, "O(t)", 4, "expected '^'"),
            (parse_hahn, "O(t^[1:1]", 10, "expected ')'"),
            (parse_hahn, "t", 2, "expected '^'"),
            (parse_hahn, "2*[1:1]", 3, "expected 't' after '*'"),
            (parse_hahn, "t^[1:1", 7, "expected ']'"),
            (parse_hahn, "O(t^[1 1])", 8, "expected ':'"),
            (parse_hahn, "t^[0:1]", 4, "generator indices are 1-based"),
            (parse_hahn, "t^[1:1] + O(t^[ 0:1])", 17, "generator indices are 1-based"),
            (parse_hahn, "1 +", 4, "expected a term"),
            (parse_hahn, "t^[1:1] t", 9, "unexpected trailing input"),
            (parse_tate, "X*", 3, "expected a coefficient or monomial"),
            (parse_tate, "X* + 1", 4, "expected a coefficient or monomial"),
            (parse_tate, "[t]*", 5, "expected a coefficient or monomial"),
            (parse_tate, "2*", 3, "expected a coefficient or monomial"),
            (parse_tate, "X1*X2*", 7, "expected a coefficient or monomial"),
            (parse_tate, "X*2", 3, "expected a coefficient or monomial"),
        ],
    )
    def test_malformed_literal(self, parse, text, column, message):
        with pytest.raises(ParseError) as info:
            parse(text, 5)
        assert (info.value.column, info.value.message) == (column, message)

    def test_variable_index_error_points_at_the_index(self):
        with pytest.raises(ParseError) as info:
            parse_tate("X1 + X 0", 3)
        assert info.value.column == 8
        assert info.value.message == "variable indices are 1-based"


def test_public_names_resolve():
    import tatekit

    for name in tatekit.__all__:
        assert getattr(tatekit, name) is not None, name
    assert "Valuation" not in tatekit.__all__


@pytest.fixture
def norm_table(tmp_path):
    table = tmp_path / "table.csv"
    table.write_text("i,j,v\n0,0,0\n0,1,5\n1,0,-1\n1,1,5\n")
    return str(table)


class TestCliArgumentErrors:
    """Malformed or missing arguments exit 1 with a usage error."""

    @pytest.mark.parametrize(
        "argv",
        [
            ["gabber", "reps", "--count", "0"],
            ["gabber", "witness", "--N", "0"],
            ["gabber", "distance", "--N", "-2", "--g", "0"],
            ["certify", "--f", "X", "--log-radii", "abc", "--log-bound", "0"],
            ["certify", "--f", "X", "--log-radii", "0", "--log-bound", "abc"],
            ["certify", "--f", "X", "--log-radii", "1/0", "--log-bound", "0"],
            ["selftest", "--trials", "-1"],
            ["selftest", "--trials", "0"],
            ["norm", "--f", "1", "--n", "-3"],
            ["unit", "--f", "1", "--n", "-1"],
            ["distinguish", "--f", "X1", "--n", "-2"],
            ["automorph", "--f", "X1", "--n", "-1"],
            ["split", "--f", "1", "--n", "-1"],
            ["certify", "--f", "X", "--n", "-1", "--log-radii", "0", "--log-bound", "0"],
        ],
    )
    def test_bad_argument_value(self, argv):
        code, out, err = run_cli(argv)
        assert code == 1 and out == ""
        assert err.startswith("usage error: argument --")

    def test_negative_arity(self):
        code, out, err = run_cli(["norm", "--f", "1", "--n", "-3"])
        assert (code, out) == (1, "")
        assert err == "usage error: argument --n: expected a nonnegative integer, got '-3'\n"

    def test_variable_beyond_arity(self):
        assert run_cli(["norm", "--f", "X3", "--n", "2"]) == (
            1, "", "syntax error: variable X3 exceeds arity 2 at line 1, column 1\n"
        )

    def test_zero_arity(self):
        assert run_cli(["norm", "--f", "1", "--n", "0"]) == (0, "norm = e^0\n", "")

    def test_bad_floors(self, norm_table):
        code, out, err = run_cli(
            ["diag-select", "--table", norm_table, "--floors", "abc", "--count", "1"]
        )
        assert code == 1 and out == ""
        assert err.startswith("usage error: argument --floors: ")

    def test_missing_table(self, tmp_path):
        missing = str(tmp_path / "missing.csv")
        code, out, err = run_cli(
            ["diag-select", "--table", missing, "--floors", "0", "--count", "1"]
        )
        assert code == 1 and out == ""
        assert err.startswith("usage error: argument --table: cannot read ")

    @pytest.mark.parametrize(
        "rows,message",
        [
            ("0,0,abc\n", "error: norm table line 2 is not i,j,v\n"),
            ("0,0\n", "error: norm table line 2 is not i,j,v\n"),
            ("0,0,1/0\n", "error: norm table line 2 is not i,j,v\n"),
            ("", "error: norm table has no entries\n"),
        ],
    )
    def test_malformed_table(self, tmp_path, rows, message):
        table = tmp_path / "table.csv"
        table.write_text("i,j,v\n" + rows)
        code, out, err = run_cli(
            ["diag-select", "--table", str(table), "--floors", "0", "--count", "1"]
        )
        assert (code, out, err) == (2, "", message)

    def test_zero_generator_index(self):
        code, out, err = run_cli(
            ["gabber", "distance", "--N", "3", "--g", "t^[0:1]"]
        )
        assert code == 1 and out == ""
        assert err == (
            "syntax error: generator indices are 1-based at line 1, column 4\n"
        )

    def test_gabber_needs_a_prime(self):
        assert run_cli(["norm", "--p", "4", "--f", "X"])[0] == 2
        code, out, err = run_cli(["gabber", "reps", "--p", "4", "--count", "2"])
        assert code == 2 and out == ""
        assert err == "error: characteristic 4 is not prime\n"

    @pytest.mark.parametrize(
        "argv,code,err",
        [
            # --N, then the prime, then --g, then g's text.
            (["--p", "4", "--g", "t^["], 1, "usage error: gabber witness/distance needs --N\n"),
            (["--p", "4", "--N", "2", "--g", "t^["], 2, "error: characteristic 4 is not prime\n"),
            (["--p", "4", "--N", "2"], 2, "error: characteristic 4 is not prime\n"),
            (["--N", "2", "--g", "t^["], 1, "syntax error: expected digits at line 1, column 4\n"),
        ],
    )
    def test_gabber_distance_error_order(self, argv, code, err):
        assert run_cli(["gabber", "distance", *argv]) == (code, "", err)

    def test_divide_with_slack_off_the_lattice(self):
        code, out, err = run_cli(
            ["divide", "--f", "X^2", "--g", "[1 + t]X + [t]", "--slack", "e^-1/3",
             "--p", "2", "--format", "records"]
        )
        assert code == 0, err
        records = dict(line.split("=", 1) for line in out.splitlines())
        q, r = parse_tate(records["q"], 2, 1), parse_tate(records["r"], 2, 1)
        f, g = parse_tate("X^2", 2, 1), parse_tate("[1 + t]X + [t]", 2, 1)
        residual = f - (q * g + r)
        res_norm = gauss_norm(TateElem.make(1, 2, dict(residual.terms)))
        assert res_norm.is_zero or res_norm.compare(parse_norm_value("e^-1/3")) <= 0
        assert all(idx[0] < euclid_degree(g) for idx, _ in r.terms)


class TestNonAsciiInput:
    """Characters outside what ``int()`` reads are syntax errors, not crashes."""

    @pytest.mark.parametrize(
        "argv,column",
        [
            (["norm", "--f", "X^²"], 3),
            (["norm", "--f", "X²"], 2),
            (["gabber", "distance", "--N", "2", "--g", "t^[²:1]"], 4),
            (["norm", "--f", "²"], 1),
            (["norm", "--f", "[t^²]"], 4),
        ],
    )
    def test_superscript_digit_is_a_syntax_error(self, argv, column):
        code, out, err = run_cli(argv)
        assert (code, out) == (1, "")
        assert err == f"syntax error: expected digits at line 1, column {column}\n"

    def test_decimal_digits_of_other_scripts_still_parse(self):
        assert run_cli(["degree", "--f", "X^٣"]) == run_cli(["degree", "--f", "X^3"])
        assert run_cli(["degree", "--f", "X^٣"]) == (0, "degree = 3\n", "")

    def test_bad_seed_variable_is_a_usage_error(self, monkeypatch):
        monkeypatch.setenv("TATEKIT_SEED", "abc")
        assert run_cli(["selftest", "--trials", "1"]) == (
            1, "", "usage error: TATEKIT_SEED: expected an integer, got 'abc'\n"
        )
        code, out, err = run_cli(["selftest", "--trials", "1", "--seed", "3"])
        assert (code, err) == (0, "") and out.endswith("result = pass\n")


COMMANDS = {
    "norm": "Gauss norm of a series",
    "unit": "unit test for a series",
    "degree": "Euclidean degree in one variable",
    "divide": "Euclidean division in one variable",
    "distinguish": "distinguished order report",
    "automorph": "find a shear distinguishing the inputs",
    "split": "apply the splitting lift",
    "certify": "certified splitting lift for convergent series",
    "diag-select": "diagonal index selection over a norm table",
    "gabber": "compositum-field witnesses",
    "selftest": "run the invariant suites",
}


def help_text(argv, capsys):
    with pytest.raises(SystemExit) as stop:
        main(argv, io.StringIO(), io.StringIO())
    assert stop.value.code == 0
    return capsys.readouterr().out


class TestCliRegistry:
    """Every command stays reachable: listed, documented and checked."""

    def test_top_level_help_lists_every_command(self, capsys):
        text = help_text(["--help"], capsys)
        assert "{" + ",".join(COMMANDS) + "}" in text

    @pytest.mark.parametrize("argv", [["bogus"], ["Norm"], ["--p", "3", "norm"]])
    def test_unknown_command_lists_every_command(self, argv):
        code, out, err = run_cli(argv)
        assert (code, out) == (1, "")
        assert err.startswith("usage error: ") and all(c in err for c in COMMANDS)

    @pytest.mark.parametrize("command", COMMANDS)
    def test_command_help_prints_its_description(self, command, capsys):
        text = help_text([command, "--help"], capsys)
        assert text.startswith(f"usage: tatekit {command} [-h] [--p P] [--format {{text,records}}]")
        assert f"\n\n{COMMANDS[command]}\n\n" in text

    @pytest.mark.parametrize(
        "argv,missing",
        [([command], "the following arguments are required: ") for command in COMMANDS
         if command != "selftest"]
        # selftest has no required argument; an option without its value stands in.
        + [(["selftest", "--trials"], "argument --trials: expected one argument")]
        # The gabber actions check their own arguments; the whole message is pinned.
        + [(["gabber", "witness"], "gabber witness/distance needs --N\n"),
           (["gabber", "distance", "--g", "0"], "gabber witness/distance needs --N\n"),
           (["gabber", "distance", "--N", "2"], "gabber distance needs --g\n")],
    )
    def test_missing_argument_is_a_usage_error(self, argv, missing):
        code, out, err = run_cli(argv)
        assert (code, out) == (1, "")
        assert err.startswith(f"usage error: {missing}")


def run_process(argv, timeout=60, memory=None):
    """``python -W error -m tatekit.cli`` in a child that imports the same
    tatekit as this process; returns (exit code, stdout bytes, stderr bytes)."""
    return run_child(["-m", "tatekit.cli", *argv], timeout, memory)


def run_child(args, timeout=60, memory=None):
    """As run_process; memory caps the child's address space in bytes."""
    path = [str(Path(tatekit.__file__).parents[1]), os.environ.get("PYTHONPATH", "")]
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, path))}
    limit = None
    if memory is not None:
        import resource

        def limit():
            resource.setrlimit(resource.RLIMIT_AS, (memory, memory))

    done = subprocess.run(
        [sys.executable, "-W", "error", *args], capture_output=True, env=env, timeout=timeout,
        preexec_fn=limit,
    )
    return done.returncode, done.stdout, done.stderr


class TestCliProcess:
    """The module run as a program: ``entry_point`` turns main's code into
    the process exit status, and the streams carry the same bytes."""

    def test_readme_divide_example(self):
        argv = ["divide", "--f", "X^2", "--g", "X + [-1]*[t]", "--slack", "e^-6"]
        assert run_process(argv) == (0, b"q = X + [t]\nr = [t^2]\n", b"")

    def test_ball_swallowing_the_witness_exits_3(self):
        argv = ["gabber", "distance", "--p", "2", "--N", "2", "--g", "O(t^[1:-2])"]
        assert run_process(argv) == (
            3, b"", b"error: undecidable-at-precision: the ball of g swallows the witness terms\n"
        )

    def test_prime_near_10_to_18_answers_in_bounded_time(self):
        # Thirteen modular powers of a 60-bit number take microseconds; the
        # bound is interpreter start-up with a wide margin.  Trial division
        # up to sqrt(p) = 10^9 did not finish in 20 s.
        started = time.perf_counter()
        result = run_process(["norm", "--p", "1000000000000000003", "--f", "X"], timeout=20)
        assert result == (0, b"norm = e^0\n", b"")
        assert time.perf_counter() - started < 10

    def test_characteristic_past_the_certified_bound_exits_2(self):
        assert run_process(["norm", "--p", str(PSI13), "--f", "X"], timeout=20) == (
            2, b"",
            f"error: characteristic {PSI13} is too large: primality is certified only "
            f"below psi_13 = {PSI13}\n".encode(),
        )

    @pytest.mark.parametrize(
        "f,alphas",
        [
            # (X1 + X3)^4095 (X2 + X3)^4095 X3 has 2^24 terms; its top X3^8191
            # alone decides the first shear.
            ("X1^4095*X2^4095*X3", b"1,1"),
            # Under a = (1, 1) both terms reach X3^8191 and cancel mod 2; at
            # X3^8190 the part is X1, not a constant, so the staircase wins.
            ("X1^4095*X2^4095*X3 + X1^4094*X2^4095*X3^2", b"67108865,8193"),
        ],
    )
    def test_shear_search_work_is_bounded(self, f, alphas):
        # The search reads the top of each sheared reduction, not the
        # expansion, which ran out of 2 GB after 40 s on the first input.
        # The bounds are interpreter start-up with a wide margin.
        started = time.perf_counter()
        result = run_process(["automorph", "--p", "2", "--f", f], timeout=20, memory=1 << 29)
        assert result == (0, b"alphas = " + alphas + b"\n", b"")
        assert time.perf_counter() - started < 10


# Modules that some commands need and others must not load.
LAZY = ("tatekit.frobenius", "tatekit.gabber", "csv")


@pytest.mark.parametrize(
    "argv,loaded",
    [
        (["norm", "--f", "X + [t]"], set()),
        (["degree", "--f", "X^2 + [t]X"], set()),
        (["divide", "--f", "X^2", "--g", "X + [-1]*[t]", "--slack", "e^-6"], set()),
        (["split", "--f", "X^2 + [t]X + [t^2]"], {"tatekit.frobenius"}),
        (["gabber", "distance", "--N", "3", "--g", "0"], {"tatekit.gabber"}),
    ],
)
def test_each_command_loads_only_the_modules_it_runs(argv, loaded):
    # In a fresh process: this one has imported every module already.
    script = (
        "import io, sys\n"
        "import tatekit.cli\n"
        "assert tatekit.cli.main(sys.argv[1:], io.StringIO()) == 0\n"
        f"print(sorted(set({LAZY!r}) & set(sys.modules)))\n"
    )
    code, out, err = run_child(["-c", script, *argv])
    assert (code, err) == (0, b"")
    assert out.decode() == f"{sorted(loaded)}\n"
