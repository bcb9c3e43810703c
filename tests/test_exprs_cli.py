"""Expression grammar, evaluation, CLI dispatch and report format."""

import ast
import decimal
import inspect
import json
import os
import subprocess
import sys
from contextlib import contextmanager
from fractions import Fraction
from itertools import combinations
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from formaldisc import cli, exprs
from formaldisc.cli import main
from formaldisc.errors import UsageError
from formaldisc.exprs import (
    EvalContext,
    ParseError,
    eval_form,
    eval_poly,
    eval_weyl,
    evaluate,
    parse,
)
from formaldisc.series import DifferentialForm, Monomial, TruncatedPoly, all_monomials
from formaldisc.weyl import TruncationSpec, WeylElement, star


CTX = EvalContext(d=2, cutoff=6)


class TestGrammar:
    def test_poly_example(self):
        value = eval_poly("x1*y1 + 1/2*h", CTX)
        expected = TruncatedPoly(
            2,
            6,
            {
                Monomial((1, 0), (1, 0), 0): Fraction(1),
                Monomial((0, 0), (0, 0), 1): Fraction(1, 2),
            },
        )
        assert value == expected

    def test_form_example(self):
        value = eval_form("(1+x1) * dx1 /\\ dy1", CTX)
        assert value.degree == 2
        one_plus_x = TruncatedPoly.one(2, 6) + TruncatedPoly.x(0, 2, 6)
        assert value.component((0, 2)) == one_plus_x

    def test_unknown_variable(self):
        with pytest.raises(UsageError, match="x3"):
            eval_poly("x3", CTX)

    def test_syntax_error_position(self):
        with pytest.raises(ParseError) as err:
            parse("x1 + + y1")
        assert err.value.pos == 5

    def test_precedence_pow_over_mul(self):
        assert eval_poly("2*x1^2", CTX) == (TruncatedPoly.x(0, 2, 6) ** 2).scaled(2)

    def test_precedence_wedge_looser_than_mul(self):
        a = eval_form("x1 * dx1 /\\ dy1", CTX)
        b = eval_form("(x1 * dx1) /\\ dy1", CTX)
        assert a == b

    def test_precedence_wedge_tighter_than_plus(self):
        value = eval_form("dx1 /\\ dy1 + dx2 /\\ dy2", CTX)
        assert value.degree == 2
        assert len(value.terms) == 2

    def test_unary_minus(self):
        assert eval_poly("-x1 + x1", CTX).is_zero()
        assert eval_poly("-x1^2", CTX) == -(TruncatedPoly.x(0, 2, 6) ** 2)

    def test_rational_literals(self):
        assert eval_poly("3/4", CTX) == TruncatedPoly.constant(Fraction(3, 4), 2, 6)
        with pytest.raises(ParseError):
            parse("1/0")

    def test_division_of_symbols_rejected(self):
        with pytest.raises(ParseError):
            parse("x1 / 2")

    def test_mixed_addition_rejected(self):
        with pytest.raises(UsageError):
            evaluate(parse("x1 + dx1"), CTX)


# -3 * 10^4400 - 7 over 11: its numerator has 4,402 digits, past the 4,300
# that str() and int() of an int allow by default
BIG = Fraction(-3 * 10**4400 - 7, 11)


@contextmanager
def no_digit_limit():
    """Python's int digit limit lifted, and restored after: the reader then
    takes every literal in full, as `series.parse_int` allows."""
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    try:
        yield
    finally:
        sys.set_int_max_str_digits(limit)


@st.composite
def printed_values(draw):
    """(context, spec, polynomial, Weyl element, form) on one drawn term map,
    d = 1 or 2, with h-terms, coefficients of sign -1 and 1, fractions and
    BIG, and the zero of each when the map is empty."""
    d = draw(st.sampled_from([1, 2]))
    n = draw(st.sampled_from([4, 6]))
    monos = [Monomial(m.xexp, m.yexp, c) for m in all_monomials(d, n) for c in (0, 1)]
    coeffs = st.one_of(
        st.sampled_from([Fraction(1), Fraction(-1), BIG]),
        st.fractions(min_value=-20, max_value=20, max_denominator=12).filter(bool),
    )
    terms = st.dictionaries(st.sampled_from(monos), coeffs, max_size=4)
    spec = TruncationSpec(d, 1, n)
    poly = TruncatedPoly(d, n, draw(terms))
    weyl = WeylElement(spec, draw(terms))
    degree = draw(st.integers(0, 2 * d))
    basis = list(combinations(range(2 * d), degree))
    indices = draw(st.lists(st.sampled_from(basis), max_size=3, unique=True))
    form = DifferentialForm(
        d, n, degree, {idx: TruncatedPoly(d, n, draw(terms)) for idx in indices}
    )
    return EvalContext(d, n), spec, poly, weyl, form


class TestPrintedFormsParseBack:
    @settings(max_examples=60, deadline=None)
    @given(printed_values())
    def test_printed_values_parse_back(self, values):
        ctx, spec, poly, weyl, form = values
        with no_digit_limit():
            assert eval_poly(str(poly), ctx) == poly
            assert eval_weyl(str(weyl), spec) == weyl
            assert eval_form(str(form), ctx) == form

    @pytest.mark.parametrize("d", [1, 2])
    def test_zero_parses_back(self, d):
        ctx, spec = EvalContext(d, 4), TruncationSpec(d, 1, 4)
        assert str(TruncatedPoly.zero(d, 4)) == str(WeylElement.zero(spec)) == "0"
        assert eval_poly("0", ctx).is_zero() and eval_weyl("0", spec).is_zero()
        for degree in range(2 * d + 1):
            zero = DifferentialForm.zero(d, 4, degree)
            assert eval_form(str(zero), ctx) == zero, degree

    def test_a_form_prints_as_the_grammar_reads_it(self):
        # the component and its basis form were printed apart, as
        # (1 + x1) dx1/\dy1, which the grammar refuses at the dx1
        form = eval_form("(1+x1) * dx1 /\\ dy1", CTX)
        assert str(form) == "(1 + x1)*dx1/\\dy1"
        assert eval_form(str(form), CTX) == form

    def test_a_coefficient_past_the_digit_limit_parses_back_in_full(self):
        # printed in full, and read in full once the limit is lifted; under
        # the default limit the reader refuses it rather than lose digits
        poly = TruncatedPoly(1, 4, {Monomial((1,), (0,), 0): BIG})
        text = str(poly)
        assert len(text) > sys.get_int_max_str_digits() > 0
        with pytest.raises(UsageError, match="past the limit"):
            eval_poly(text, EvalContext(1, 4))
        with no_digit_limit():
            assert eval_poly(text, EvalContext(1, 4)) == poly


class TestWeylWords:
    def test_left_to_right_word(self):
        spec = TruncationSpec(1, 2, 6)
        value = eval_weyl("y1*x1*h", spec)
        x = WeylElement.generator("x1", spec)
        y = WeylElement.generator("y1", spec)
        h = WeylElement.generator("h", spec)
        assert value == star(star(y, x), h)

    def test_powers_are_star_powers(self):
        spec = TruncationSpec(1, 2, 6)
        assert eval_weyl("(x1 + y1)^2", spec) == star(
            eval_weyl("x1 + y1", spec), eval_weyl("x1 + y1", spec)
        )

    def test_powers_square(self, monkeypatch):
        # a power takes about 2 log2(n) star products, not n, and equals the
        # left-to-right word
        spec = TruncationSpec(1, 3, 8)
        base = eval_weyl("x1 + y1 + h", spec)
        calls = 0

        def counting(a, b):
            nonlocal calls
            calls += 1
            return star(a, b)

        monkeypatch.setattr(exprs, "star", counting)
        for n in (0, 1, 5, 6, 1000):
            calls = 0
            value = eval_weyl(f"(x1 + y1 + h)^{n}", spec)
            assert calls <= 2 * n.bit_length(), n
            if n < 10:
                word = WeylElement.one(spec)
                for _ in range(n):
                    word = star(word, base)
                assert value == word, n

    def test_forms_rejected(self):
        with pytest.raises(UsageError):
            eval_weyl("dx1", TruncationSpec(1, 2, 6))


class TestCLI:
    def test_weyl_comm(self, capsys):
        assert main(["weyl", "comm", "x1", "y1", "--d", "1", "--p", "2", "--N", "6"]) == 0
        assert capsys.readouterr().out.strip() == "h"

    def test_weyl_iota(self, capsys):
        assert main(["weyl", "iota", "h", "--d", "1"]) == 0
        assert capsys.readouterr().out.strip() == "-h"

    def test_poisson_standard(self, capsys):
        assert main(["poisson", "x1^2", "y1^2", "--d", "1", "--N", "6"]) == 0
        assert capsys.readouterr().out.strip() == "4*x1*y1"

    def test_poisson_with_form(self, capsys):
        code = main(
            ["poisson", "x1", "y1", "--form", "(1+x1) * dx1 /\\ dy1", "--d", "1", "--N", "4"]
        )
        assert code == 0
        out = capsys.readouterr().out.strip()
        assert out == "1 - x1 + x1^2 - x1^3 + x1^4"

    def test_unknown_variable_is_exit_2(self, capsys):
        assert main(["poisson", "x3", "y1", "--d", "2", "--N", "4"]) == 2

    @pytest.mark.parametrize("name", ["x0", "x3", "d", "dz", "z1", "x\u00b2"])
    def test_both_readers_refuse_a_name_alike(self, capsys, name):
        # the polynomial and the Weyl reader share one coordinate-name parser
        errors = []
        for command in (["poisson", "y1", name], ["weyl", "mul", "y1", name]):
            assert main([*command, "--d", "1"]) == 2
            out, err = capsys.readouterr()
            assert out == ""
            errors.append(err)
        assert errors[0] == errors[1]
        assert f"unknown variable {name}" in errors[0]
        assert errors[0].rstrip().endswith("(at position 0)")

    @pytest.mark.parametrize("name", ["x01", "y01", "dx01"])
    def test_an_index_with_a_leading_zero_is_refused(self, capsys, name):
        # x01 is not x1: both readers refuse it as an unknown name
        for command in (["poisson", name, "y1"], ["weyl", "comm", name, "y1"]):
            assert main([*command, "--d", "1"]) == 2
            out, err = capsys.readouterr()
            assert out == ""
            assert err == f"error: unknown variable {name} (at position 0)\n"

    def test_a_result_past_the_int_digit_limit_prints_in_full(self, capsys, tmp_path):
        # {2^20000 x1, y1} = 2^20000 has 6,021 digits, past the 4,300 that
        # str() of an int allows; decimal arithmetic is the oracle
        expected = str(decimal.Context(prec=7000).power(decimal.Decimal(2), 20000))
        assert len(expected) > sys.get_int_max_str_digits() > 0
        out_file = tmp_path / "poisson.json"
        args = ["poisson", "2^20000*x1", "y1", "--d", "1", "--json", str(out_file)]
        assert main(args) == 0
        assert capsys.readouterr().out == expected + "\n"
        terms = json.loads(out_file.read_text())["result"]["terms"]
        assert terms == [[[0], [0], 0, expected + "/1"]]

    def test_a_reader_that_closes_the_pipe_early_gets_no_traceback(self):
        # as `weyl mul "2^20000*x1" y1 --d 1 | head -c 80` does; this ended
        # in a BrokenPipeError traceback.  The read end is closed while the
        # child is still starting up, so its first write finds no reader.
        src = str(Path(__file__).resolve().parents[1] / "src")
        env = {**os.environ, "PYTHONPATH": src}
        command = [sys.executable, "-m", "formaldisc", "weyl", "mul", "2^20000*x1", "y1"]
        child = subprocess.Popen(
            [*command, "--d", "1"], stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env
        )
        child.stdout.close()
        err = child.stderr.read()
        child.stderr.close()
        assert child.wait(timeout=60) == cli.BROKEN_PIPE == 141
        assert err == b""

    @staticmethod
    def _refused_past_the_digit_limit(capsys, args, pos):
        assert main([*args, "--d", "1"]) == 2
        out, err = capsys.readouterr()
        limit = sys.get_int_max_str_digits()
        assert out == ""
        assert err == (
            f"error: an integer of 5000 digits is past the limit of {limit} digits "
            f"(at position {pos})\n"
        )

    def test_an_exponent_past_the_int_digit_limit_is_refused(self, capsys):
        self._refused_past_the_digit_limit(
            capsys, ["weyl", "mul", "x1^" + "1" * 5000, "y1"], 3
        )

    def test_an_index_past_the_int_digit_limit_is_refused(self, capsys):
        self._refused_past_the_digit_limit(capsys, ["poisson", "x" + "1" * 5000, "y1"], 0)

    def test_a_number_past_the_int_digit_limit_is_refused(self, capsys):
        self._refused_past_the_digit_limit(
            capsys, ["weyl", "mul", "1" * 5000 + "*x1", "y1"], 0
        )

    def _refused_as_a_character(self, capsys, char):
        # str.isdigit takes this character; the grammar reads ASCII digits only
        assert char.isdigit() and not char.isascii()
        assert main(["poisson", f"x1^{char}", "y1", "--d", "1"]) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert err == f"error: unexpected character {char!r} (at position 3)\n"

    def test_a_superscript_digit_is_refused(self, capsys):
        # int("²") fails: this exited 1 with a ValueError traceback
        self._refused_as_a_character(capsys, "²")

    def test_an_arabic_indic_digit_is_refused(self, capsys):
        # int("٣") is 3: this was read as x1^3
        self._refused_as_a_character(capsys, "٣")

    def test_a_form_symbol_is_no_weyl_generator(self, capsys):
        assert main(["weyl", "mul", "y1", "dx1", "--d", "1"]) == 2
        err = capsys.readouterr().err
        assert err == "error: form symbol dx1 is not a Weyl generator (at position 0)\n"
        with pytest.raises(UsageError, match="form symbol dy1"):
            WeylElement.generator("dy1", TruncationSpec(1, 2, 6))

    def test_tower_check(self, capsys, tmp_path):
        out_file = tmp_path / "report.json"
        code = main(
            ["tower", "check", "--d", "1", "--p", "1", "--N", "4", "--json", str(out_file)]
        )
        assert code == 0
        payload = json.loads(out_file.read_text())
        assert payload["schema"] == 1
        assert all(c["status"] == "pass" for c in payload["checks"])

    @pytest.mark.parametrize("p", [-1, 0, 1, 2])
    def test_tower_check_domain(self, capsys, p):
        # the ladder check and the obstruction class share one domain
        for command in (["tower", "check"], ["cohomology", "class", "--which", "obstruction"]):
            for n in range(-1, 7):
                code = main(command + ["--d", "1", "--p", str(p), "--N", str(n)])
                valid = p >= 0 and n >= 2 * (p + 1)
                assert code == (0 if valid else 2), (command, p, n)
            assert main(command + ["--d", "0", "--p", "0", "--N", "4"]) == 2

    def test_cohomology_dims_domain(self, capsys):
        assert main(["cohomology", "dims", "--algebra", "H", "--d", "1", "--N", "-3"]) == 2
        assert main(["cohomology", "dims", "--algebra", "H", "--d", "0", "--N", "3"]) == 2
        assert main(["cohomology", "dims", "--algebra", "H", "--d", "1", "--N", "0"]) == 0
        assert main(["cohomology", "dims", "--algebra", "sp", "--p", "-1"]) == 2
        assert main(["cohomology", "dims", "--algebra", "sp", "--p", "0", "--N", "4"]) == 0
        assert main(["cohomology", "dims", "--algebra", "sp", "--degrees=0,-1"]) == 2
        capsys.readouterr()
        # a degree list that is empty or holds a non-integer is refused up front
        for degrees in ("1,x", "", ",", "0,,1", "1.5"):
            assert main(["cohomology", "dims", "--algebra", "sp", f"--degrees={degrees}"]) == 2
            out, err = capsys.readouterr()
            assert out == "" and "needs degrees >= 0" in err, degrees
        assert main(["cohomology", "class", "--which", "omega", "--d", "0"]) == 2
        assert main(["cohomology", "class", "--which", "omega", "--d", "1", "--N", "1"]) == 2
        transport = ["darboux", "transport", "--form", "dx1 /\\ dy1", "--a", "x1", "--b", "y1"]
        assert main(transport + ["--d", "1", "--p", "-1", "--N", "4"]) == 2
        assert main(transport + ["--d", "1", "--p", "0", "--N", "4"]) == 0

    @pytest.mark.parametrize(
        "suite,flags",
        [
            ("cohomology", ["--d", "0"]),
            ("weyl", ["--d", "0"]),
            ("tower", ["--p", "-1"]),
            ("darboux", ["--p", "-1"]),
            ("darboux", ["--N", "0"]),
            ("all", ["--N", "0"]),
            ("all", ["--p", "5", "--N", "8"]),
            ("cohomology", ["--N", "3"]),
            ("tower", ["--p", "1", "--N", "3"]),
            ("cohomology", ["--p", "0", "--N", "1"]),
            ("weyl", ["--N", "-1"]),
        ],
    )
    def test_verify_domain(self, capsys, suite, flags):
        # refused up front with the suite's domain, never run on a clamped p
        # or left to fail deep inside a builder
        assert main(["verify", suite] + flags) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith(f"error: verify {suite} needs d >= 1, p >= 0")

    @pytest.mark.parametrize(
        "suite,flags,domain,got",
        [
            ("all", ["--p", "5", "--N", "8"], "N >= 2(p+1)", "d=1, p=5, N=8"),
            ("tower", ["--p", "0", "--N", "1"], "N >= 2(p+1)", "d=1, p=0, N=1"),
            ("cohomology", ["--N", "3"], "N >= 2(min(p,1)+1)", "d=1, p=2, N=3"),
            ("cohomology", ["--p", "0", "--N", "1"], "N >= 2(min(p,1)+1)", "d=1, p=0, N=1"),
            ("weyl", ["--N", "-1"], "N >= 0", "d=1, p=2, N=-1"),
        ],
        ids=["all", "tower", "cohomology", "cohomology-p0", "weyl"],
    )
    def test_verify_domain_names_the_request(self, capsys, suite, flags, domain, got):
        # the tower ladder and the obstruction need room for h^(p+1), the
        # obstruction at its capped p, and a weyl truncation N >= 0; the
        # message echoes the p asked for
        assert main(["verify", suite] + flags) == 2
        assert capsys.readouterr().err == (
            f"error: verify {suite} needs d >= 1, p >= 0 and {domain}; got {got}\n"
        )

    def test_verify_domain_edges_run(self, capsys):
        # the least N of each domain runs every check
        assert main(["verify", "cohomology", "--p", "0", "--N", "2"]) == 0
        assert main(["verify", "cohomology", "--p", "3", "--N", "4"]) == 0
        assert main(["verify", "tower", "--p", "0", "--N", "2"]) == 0
        assert main(["verify", "weyl", "--N", "0"]) == 0
        capsys.readouterr()

    def test_verify_cohomology_names_what_it_ran(self, capsys, tmp_path):
        # each check runs at a capped size; its detail says which, and which
        # requested value it replaced
        out_file = tmp_path / "report.json"
        command = ["verify", "cohomology", "--p", "2", "--N", "8", "--json", str(out_file)]
        assert main(command) == 0
        payload = json.loads(out_file.read_text())
        assert payload["params"] == {"d": 1, "p": 2, "N": 8, "inject_fault": False}
        details = {c["name"]: c["detail"] for c in payload["checks"]}
        assert details == {
            "cohomology-d-squared": (
                "H(d=1,N=5) at N=5 (requested N=8): d^2 = 0 on 4 weight blocks"
            ),
            "cohomology-whitehead-sp2": "sp(2) at p=0, N=2: H^0, H^1, H^2 = 1, 0, 0",
            "cohomology-omega-class": (
                "H(d=1,N=4) at N=4 (requested N=8): degree 2, weight -2, nontrivial"
            ),
            "cohomology-obstruction": (
                "V(d=1,p=1,N=8) at p=1, N=8 (requested p=2): support on 272 basis pairs"
            ),
        }

    def test_sp_dims_depend_on_d_alone(self, capsys):
        payloads = []
        for extra in (["--N", "0"], ["--N", "5"], ["--p", "3", "--N", "9"]):
            assert main(["cohomology", "dims", "--algebra", "sp", "--d", "1"] + extra) == 0
            payload = json.loads(capsys.readouterr().out)
            payload.pop("duration_s")
            payloads.append(payload)
        assert payloads[0] == payloads[1] == payloads[2]
        assert payloads[0]["params"] == {"algebra": "sp", "d": 1, "module": "trivial"}
        assert payloads[0]["dimensions"] == {"H^0(w=0)": 1}

    def test_transport_at_p0_is_the_h_free_part(self, capsys, tmp_path):
        command = [
            "darboux", "transport", "--form", "(1+x1) * dx1 /\\ dy1",
            "--a", "x1^2+y1", "--b", "y1^2*x1", "--d", "1", "--N", "6",
        ]
        terms = {}
        for p in (0, 1):
            path = tmp_path / f"p{p}.json"
            assert main(command + ["--p", str(p), "--json", str(path)]) == 0
            payload = json.loads(path.read_text())
            assert payload["params"]["p"] == p
            terms[p] = payload["result"]["terms"]
        assert capsys.readouterr().out.splitlines()[0] == "x1*y1^3 + x1^3*y1^2"
        assert all(hexp == 0 for _, _, hexp, _ in terms[0])
        assert any(hexp > 0 for _, _, hexp, _ in terms[1])
        assert terms[0] == [t for t in terms[1] if t[2] == 0]

    def test_tower_fault_injection(self, capsys):
        code = main(["tower", "check", "--d", "1", "--p", "1", "--N", "4", "--inject-fault"])
        assert code == 1
        out = capsys.readouterr().out
        assert "FAIL" in out and "witness" in out

    def test_tower_fault_report_is_pinned(self, capsys, tmp_path):
        out_file = tmp_path / "fault.json"
        args = ["--d", "1", "--p", "1", "--N", "6", "--inject-fault"]
        assert main(["tower", "check", *args, "--json", str(out_file)]) == 1
        payload = json.loads(out_file.read_text())
        payload.pop("duration_s")
        passed = ["row2-exact", "row2-central", "row3-exact", "row3-central"]
        assert payload == {
            "schema": 1,
            "command": "tower check",
            "params": {"d": 1, "p": 1, "N": 6, "corrupt": True},
            "checks": [
                {
                    "name": "row2-jacobi",
                    "status": "pass",
                    "detail": "G_2(d=1,N=6)(corrupted): jacobi ok, "
                    "16113 overflow-exempt triples",
                },
                {
                    "name": "row3-jacobi",
                    "status": "pass",
                    "detail": "G_1(d=1,N=6): jacobi ok, 10353 overflow-exempt triples",
                },
                *({"name": name, "status": "pass"} for name in passed),
                {
                    "name": "column-build",
                    "status": "fail",
                    "detail": "G_2(d=1,N=6)(corrupted)->G_1(d=1,N=6): "
                    "bracket not preserved on (h^-1*y1, h^-1*x1)",
                    "witness": {"pair": [1, 2], "lhs": {}, "rhs": {"0": "-1/1"}},
                },
            ],
        }

    def test_tower_fault_report_is_pinned_at_d2(self, capsys, tmp_path):
        # the smallest failing k of the first failing pair, and the first
        # failing pair of the map sweep, on the benchmark's ladder
        out_file = tmp_path / "fault.json"
        args = ["--d", "2", "--p", "1", "--N", "6", "--inject-fault"]
        assert main(["tower", "check", *args, "--json", str(out_file)]) == 1
        payload = json.loads(out_file.read_text())
        payload.pop("duration_s")
        passed = ["row2-exact", "row2-central", "row3-exact", "row3-central"]
        assert payload == {
            "schema": 1,
            "command": "tower check",
            "params": {"d": 2, "p": 1, "N": 6, "corrupt": True},
            "checks": [
                {
                    "name": "row2-jacobi",
                    "status": "fail",
                    "detail": "G_2(d=2,N=6)(corrupted): Jacobi fails on "
                    "(h^-1*y2, h^-1*y1, h^-1*x1*x2)",
                    "witness": {"triple": [1, 2, 13], "defect": {"0": "1/1"}},
                },
                {
                    "name": "row3-jacobi",
                    "status": "pass",
                    "detail": "G_1(d=2,N=6): jacobi ok, 3506156 overflow-exempt triples",
                },
                *({"name": name, "status": "pass"} for name in passed),
                {
                    "name": "column-build",
                    "status": "fail",
                    "detail": "G_2(d=2,N=6)(corrupted)->G_1(d=2,N=6): "
                    "bracket not preserved on (h^-1*y2, h^-1*x2)",
                    "witness": {"pair": [1, 3], "lhs": {}, "rhs": {"0": "-1/1"}},
                },
            ],
        }

    def test_cohomology_dims(self, capsys, tmp_path):
        out_file = tmp_path / "dims.json"
        code = main(
            [
                "cohomology", "dims", "--algebra", "H", "--d", "1", "--N", "5",
                "--module", "trivial", "--degrees", "0,1", "--json", str(out_file),
            ]
        )
        assert code == 0
        payload = json.loads(out_file.read_text())
        assert payload["dimensions"]["H^0(w=0)"] == 1

    def test_cohomology_omega(self, capsys):
        code = main(["cohomology", "class", "--which", "omega", "--d", "1", "--N", "4"])
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["nonzero"] is True
        assert payload["weight"] == -2

    def test_darboux_normalize_prints_zero_residual(self, capsys):
        code = main(
            ["darboux", "normalize", "--form", "(1+x1) * dx1 /\\ dy1", "--d", "1", "--N", "8"]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "verification residual: 0" in out

    def test_darboux_transport(self, capsys):
        code = main(
            [
                "darboux", "transport", "--form", "dx1 /\\ dy1",
                "--a", "x1", "--b", "y1", "--d", "1", "--p", "2", "--N", "6",
            ]
        )
        assert code == 0
        assert capsys.readouterr().out.strip() == "x1*y1"

    def test_verify_suite_deterministic(self, tmp_path):
        first, second = tmp_path / "a.json", tmp_path / "b.json"
        for path in (first, second):
            assert (
                main(
                    ["verify", "weyl", "--d", "1", "--p", "1", "--N", "4",
                     "--seed", "5", "--json", str(path)]
                )
                == 0
            )
        a = json.loads(first.read_text())
        b = json.loads(second.read_text())
        a.pop("duration_s"), b.pop("duration_s")
        assert a == b
        assert a["seed"] == 5

    def test_verify_unknown_suite_is_exit_2(self):
        with pytest.raises(SystemExit) as err:
            main(["verify", "nonsense"])
        assert err.value.code == 2


class TestOneExitPath:
    """`main` is the one place a run leaves the CLI: it prints the text,
    writes `--json` and maps errors to exit codes; the handlers only return
    (text, payload, exit code)."""

    @pytest.mark.parametrize(
        "args",
        [["weyl", "mul", "x1", "y1", "--d", "1"], ["cohomology", "dims"]],
        ids=["weyl", "cohomology"],
    )
    def test_an_unwritable_json_path_is_exit_2(self, args, capsys, tmp_path):
        path = tmp_path / "missing" / "x.json"
        assert main([*args, "--json", str(path)]) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert err.startswith("error: ") and str(path) in err

    def test_main_alone_prints_writes_and_catches(self):
        tree = ast.parse(inspect.getsource(cli))
        functions = [n for n in ast.walk(tree) if isinstance(n, ast.FunctionDef)]
        assert "main" in {fn.name for fn in functions}
        for fn in functions:
            if fn.name == "main":
                continue
            for node in ast.walk(fn):
                assert not isinstance(node, ast.Try), fn.name
                if isinstance(node, ast.Call):
                    called = getattr(node.func, "id", getattr(node.func, "attr", None))
                    assert called not in {"print", "open", "write", "exit"}, fn.name
        for gone in ("_dispatch", "_cohomology_command", "_darboux_command", "_emit"):
            assert not hasattr(cli, gone)

    def test_the_schema_is_written_once(self):
        src = Path(cli.__file__).parent
        hits = [
            path.name
            for path in sorted(src.glob("*.py"))
            for line in path.read_text().splitlines()
            if '"schema": 1' in line
        ]
        assert hits == ["reports.py"]
