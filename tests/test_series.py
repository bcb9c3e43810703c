"""Series kernel: exact ring arithmetic, calculus, forms, Poisson brackets.

`reference_partial` (the per-polynomial exponent-lowering loop) and
`reference_poisson_bracket` (sum Theta_uv d_u f d_v g through it, `*` and
`+`) are the slow routes that `partial`, `standard_poisson` and
`poisson_bracket` replaced with one pass over `derivative` and the pair
loop of `series`; the kernels must agree with them exactly.
`fused_poisson_bracket` is the private loop over monomial triples that
`poisson_bracket` ran before it took its products from that pair loop.
"""

import ast
import copy
import pickle
import random
from fractions import Fraction
from itertools import combinations
from math import lcm
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from formaldisc.darboux import check_symplectic, form_to_bivector, standard_form
from formaldisc.errors import UsageError
from formaldisc.series import (
    DifferentialForm,
    Monomial,
    PoissonBivector,
    Substitution,
    TruncatedPoly,
    _lowered,
    all_monomials,
    de_rham_d,
    euler_contraction,
    poisson_bracket,
    standard_poisson,
    wedge,
)
from formaldisc.sparse import accumulate, rational
from formaldisc.weyl import TruncationSpec, WeylElement

D, N = 2, 7
SRC = Path(__file__).resolve().parents[1] / "src" / "formaldisc"

coeffs = st.sampled_from(
    [Fraction(1), Fraction(-1), Fraction(2), Fraction(1, 2), Fraction(-3, 4), Fraction(5)]
)


@st.composite
def monomials(draw, d=D, max_weight=N, with_h=True):
    while True:
        xexp = tuple(draw(st.integers(0, 2)) for _ in range(d))
        yexp = tuple(draw(st.integers(0, 2)) for _ in range(d))
        hexp = draw(st.integers(0, 1)) if with_h else 0
        mono = Monomial(xexp, yexp, hexp)
        if mono.weight <= max_weight:
            return mono


@st.composite
def polys(draw, d=D, cutoff=N, with_h=True):
    terms = draw(
        st.dictionaries(monomials(d, cutoff, with_h), coeffs, min_size=0, max_size=4)
    )
    return TruncatedPoly(d, cutoff, terms)


def x(i, d=D, n=N):
    return TruncatedPoly.x(i, d, n)


def y(i, d=D, n=N):
    return TruncatedPoly.y(i, d, n)


class TestRingAxioms:
    @settings(max_examples=60, deadline=None)
    @given(polys(), polys(), polys())
    def test_mul_associative(self, p, q, r):
        assert (p * q) * r == p * (q * r)

    @settings(max_examples=60, deadline=None)
    @given(polys(), polys())
    def test_mul_commutative(self, p, q):
        assert p * q == q * p

    @settings(max_examples=60, deadline=None)
    @given(polys(), polys(), polys())
    def test_distributive(self, p, q, r):
        assert p * (q + r) == p * q + p * r

    @settings(max_examples=40, deadline=None)
    @given(polys())
    def test_identities(self, p):
        one = TruncatedPoly.one(D, N)
        zero = TruncatedPoly.zero(D, N)
        assert p * one == p
        assert p + zero == p
        assert p - p == zero

    def test_monomial_product(self):
        assert x(0) * y(0) == TruncatedPoly(
            D, N, {Monomial((1, 0), (1, 0), 0): Fraction(1)}
        )

    def test_geometric_series_against_long_division(self):
        # oracle: coefficients of 1/(1+x1) by direct long division
        def long_division(n):
            # 1 = (1 + x) * q  =>  q_0 = 1, q_k = -q_{k-1}
            q = [Fraction(1)]
            for _ in range(n):
                q.append(-q[-1])
            return q

        n = 7
        series = TruncatedPoly.zero(D, n)
        for k, c in enumerate(long_division(n)):
            series = series + (x(0, D, n) ** k).scaled(c)
        one = TruncatedPoly.one(D, n)
        assert (one + x(0, D, n)) * series == one

    def test_truncation_discards_overflow(self):
        p = x(0, 1, 3) ** 2
        q = x(0, 1, 3) ** 2
        assert (p * q).is_zero()  # weight 4 > 3

    def test_cutoff_mismatch_rejected(self):
        with pytest.raises(UsageError):
            x(0, 1, 3) + x(0, 1, 4)
        with pytest.raises(UsageError):
            x(0, 1, 3) * TruncatedPoly.one(2, 3)

    def test_floats_and_wrong_dimensions_are_refused(self):
        # the public constructor checks every term; +, -, neg and scaled
        # trust the clean terms they combine, so a float must stop at the door
        mono = Monomial((1, 0), (0, 0), 0)
        with pytest.raises(UsageError, match="not an exact rational"):
            TruncatedPoly(D, N, {mono: 0.5})
        with pytest.raises(UsageError, match="not an exact rational"):
            x(0).scaled(0.5)
        with pytest.raises(TypeError):
            x(0) + 0.5
        with pytest.raises(TypeError):
            0.5 - x(0)
        with pytest.raises(UsageError, match="does not match dimension 2"):
            TruncatedPoly(D, N, {Monomial((1,), (0,), 0): Fraction(1)})
        p = x(0).scaled(Fraction(1, 2)) - y(1)
        assert all(type(c) is Fraction and c for c in p.terms.values())
        assert (p - p).terms == {} and p.scaled(0).terms == {}

    @pytest.mark.parametrize(
        "mono",
        [
            Monomial((-1,), (0,), 0),
            Monomial((1,), (0.5,), 0),
            Monomial((1,), (0,), -1),
            Monomial((1,), (0,), 1.0),
        ],
        ids=["negative", "float", "negative-h", "float-h"],
    )
    def test_exponents_must_be_naturals(self, mono):
        # x1^-1 would be stored at weight -1, under every cutoff
        with pytest.raises(UsageError, match="exponents that are ints >= 0"):
            TruncatedPoly(1, 4, {mono: 1})

    @pytest.mark.parametrize(
        "exps",
        [(("a",), (0,), 0), ((1,), (None,), 0), ((1,), (0,), "h"), ((1,), (0,), None)],
        ids=["str-x", "none-y", "str-h", "none-h"],
    )
    def test_non_numeric_exponents_are_usage_errors(self, exps):
        # refused as a UsageError wherever the check happens, never a TypeError
        with pytest.raises(UsageError, match="ints >= 0"):
            TruncatedPoly(1, 4, {Monomial(*exps): 1})
        with pytest.raises(UsageError, match="ints >= 0"):
            WeylElement(TruncationSpec(1, 2, 4), {Monomial(*exps): 1})

    def test_truncation_must_be_integral(self):
        with pytest.raises(UsageError, match="cutoff must be >= 0, got 4.5"):
            TruncatedPoly(1, 4.5)
        with pytest.raises(UsageError, match="dimension must be >= 1, got 1.0"):
            TruncatedPoly(1.0, 4)

    @settings(max_examples=60, deadline=None)
    @given(polys(), st.integers(0, N + 3))
    def test_cutoff_moves_match_the_checked_constructor(self, p, cutoff):
        # lifted wraps the clean terms and truncated filters them by weight,
        # neither through the checked constructor, and both must keep what
        # it keeps, in its order
        moved = p.lifted(cutoff) if cutoff >= N else p.truncated(cutoff)
        expected = TruncatedPoly(D, cutoff, p.terms)
        assert moved.cutoff == cutoff and moved == expected
        assert list(moved.terms.items()) == list(expected.terms.items())

    def test_cutoff_moves_keep_their_refusals(self):
        p = x(0) + y(1) ** 2
        for bad in (4.5, 8.5, "8", None, -1):
            for move in (p.truncated, p.lifted):
                with pytest.raises(UsageError, match="cutoff must be >= 0"):
                    move(bad)
        with pytest.raises(UsageError, match="cannot raise the cutoff"):
            p.truncated(N + 1)
        with pytest.raises(UsageError, match="cannot lower the cutoff"):
            p.lifted(N - 1)

    def test_canonical_form_unique(self):
        p = x(0) + y(1) - x(0)
        q = y(1)
        assert p == q and hash(p) == hash(q)

    def test_monomial_is_a_packed_tuple(self):
        m = Monomial(xexp=(1, 2), yexp=(0, 1), hexp=1)
        # the weight is stored; hash and equality are those of the 4-tuple
        assert tuple(m) == ((1, 2), (0, 1), 1, 6) == m
        assert hash(m) == hash(((1, 2), (0, 1), 1, 6))
        assert m == Monomial((1, 2), (0, 1), 1) and m != Monomial((1, 2), (0, 1))
        assert repr(m) == "Monomial(xexp=(1, 2), yexp=(0, 1), hexp=1)"
        assert str(m) == "x1*x2^2*y2*h" and m.dimension == 2
        assert copy.copy(m) == m and type(pickle.loads(pickle.dumps(m))) is Monomial
        # `sort_key` is the one order: monomials do not compare with `<`
        with pytest.raises(TypeError):
            sorted([m, Monomial((0, 0), (0, 0))])

    def test_monomial_order_total(self):
        monos = all_monomials(2, 3) + [Monomial((0, 0), (0, 0), 1)]
        keys = [m.sort_key() for m in monos]
        assert len(set(keys)) == len(keys)
        ordered = sorted(monos, key=lambda m: m.sort_key())
        assert [m.weight for m in ordered] == sorted(m.weight for m in ordered)


class TestCalculus:
    def test_power_rule(self):
        p = x(0) ** 2 * y(0)
        assert p.partial(0) == x(0).scaled(2) * y(0)

    def test_derivative_of_missing_variable(self):
        assert x(0).partial(D).is_zero()  # d/dy1 x1 = 0

    @settings(max_examples=50, deadline=None)
    @given(polys(), st.integers(0, 2 * D - 1), st.integers(0, 2 * D - 1))
    def test_partials_commute(self, p, v, w):
        assert p.partial(v).partial(w) == p.partial(w).partial(v)

    def test_h_not_differentiable(self):
        with pytest.raises(UsageError):
            TruncatedPoly.h(D, N).partial(2 * D)

    def test_substitute_requires_origin_fixed(self):
        images = [x(0), y(0), x(1), y(1)]
        images[0] = images[0] + 1
        with pytest.raises(UsageError):
            x(0).substitute(Substitution(images))


@st.composite
def one_forms(draw, d=D, cutoff=N):
    comps = {}
    for v in range(2 * d):
        if draw(st.booleans()):
            comps[(v,)] = draw(polys(d, cutoff, with_h=False))
    return DifferentialForm(d, cutoff, 1, comps)


class TestForms:
    def test_d_of_x_dy(self):
        f = DifferentialForm(D, N, 1, {(D,): x(0)})  # x1 dy1
        expected = DifferentialForm(D, N, 2, {(0, D): TruncatedPoly.one(D, N)})
        assert de_rham_d(f) == expected

    def test_d_of_constant_area_form(self):
        area = DifferentialForm(D, N, 2, {(0, D): TruncatedPoly.one(D, N)})
        assert de_rham_d(area).is_zero()

    @settings(max_examples=40, deadline=None)
    @given(polys(D, N, with_h=False))
    def test_d_squared_on_functions(self, f):
        form = DifferentialForm.from_poly(f)
        assert de_rham_d(de_rham_d(form)).is_zero()

    @settings(max_examples=30, deadline=None)
    @given(one_forms())
    def test_d_squared_on_one_forms(self, form):
        assert de_rham_d(de_rham_d(form)).is_zero()

    def test_top_degree_raises(self):
        top = DifferentialForm(1, 4, 2, {(0, 1): TruncatedPoly.one(1, 4)})
        with pytest.raises(UsageError):
            de_rham_d(top)

    def test_wedge_standard_area(self):
        dx1 = DifferentialForm.d_coordinate(0, D, N)
        dy1 = DifferentialForm.d_coordinate(D, D, N)
        assert wedge(dx1, dy1) == DifferentialForm(
            D, N, 2, {(0, D): TruncatedPoly.one(D, N)}
        )

    @settings(max_examples=30, deadline=None)
    @given(one_forms())
    def test_wedge_self_annihilates(self, a):
        assert wedge(a, a).is_zero()

    @settings(max_examples=25, deadline=None)
    @given(one_forms(), one_forms())
    def test_wedge_graded_commutative(self, a, b):
        assert wedge(a, b) == wedge(b, a).scaled(-1)

    @settings(max_examples=20, deadline=None)
    @given(one_forms(), one_forms(), one_forms())
    def test_wedge_associative(self, a, b, c):
        assert wedge(wedge(a, b), c) == wedge(a, wedge(b, c))

    def test_wedge_degree_overflow(self):
        a = DifferentialForm(1, 4, 2, {(0, 1): TruncatedPoly.one(1, 4)})
        with pytest.raises(UsageError):
            wedge(a, DifferentialForm.d_coordinate(0, 1, 4))

    def test_euler_contraction_identity(self):
        # d(i_E a) + i_E(d a) = (m + k) a on coefficient-homogeneous forms
        form = DifferentialForm(D, N, 1, {(0,): x(0) * y(1), (D,): x(1) * x(1)})
        lhs = de_rham_d(euler_contraction(form)) + euler_contraction(de_rham_d(form))
        assert lhs == form.scaled(2 + 1)


# The hand-written linear structure that `DifferentialForm` had before it
# took the shared one of `sparse.LinearTerms`, kept as the oracle for it.


def parent_add(a, b):
    if a.d != b.d or a.cutoff != b.cutoff:
        raise UsageError("form truncation mismatch")
    if a.degree != b.degree:
        raise UsageError("cannot add forms of different degree")
    comps = accumulate(b.terms.items(), a.terms)
    return DifferentialForm(a.d, a.cutoff, a.degree, comps)


def parent_scaled(a, value):
    comps = {idx: poly.scaled(value) for idx, poly in a.terms.items()}
    return DifferentialForm(a.d, a.cutoff, a.degree, comps)


def parent_neg(a):
    return parent_scaled(a, -1)


def parent_sub(a, b):
    return parent_add(a, parent_neg(b))


def parent_eq(a, b):
    return (a.d, a.cutoff, a.degree, a.terms) == (b.d, b.cutoff, b.degree, b.terms)


def parent_hash(a):
    return hash((a.d, a.cutoff, a.degree, frozenset(a.terms.items())))


def outcome(call):
    """What a call gives, comparable across routes: the form's fields, or the
    text of its refusal."""
    try:
        form = call()
    except UsageError as exc:
        return ("refused", str(exc))
    assert all(poly.terms for poly in form.terms.values()), "zero component kept"
    return (form.d, form.cutoff, form.degree, form.terms)


@st.composite
def forms(draw, d, cutoff, degree):
    """A form of any components, some of them drawn zero."""
    comps = {}
    for idx in combinations(range(2 * d), degree):
        if draw(st.booleans()):
            comps[idx] = draw(polys(d, cutoff))
    return DifferentialForm(d, cutoff, degree, comps)


@st.composite
def form_pairs(draw):
    """(a, b): a of any degree 0..2d at d = 1 or 2, and b of the same
    truncation and degree (sometimes cancelling components of a in a sum or
    a difference), or of another degree, cutoff or dimension."""
    d = draw(st.sampled_from([1, 2]))
    degree = draw(st.integers(0, 2 * d))
    a = draw(forms(d, 4, degree))
    kind = draw(st.sampled_from(["same", "cancel", "degree", "cutoff", "dimension"]))
    if kind == "degree":
        other = draw(st.integers(0, 2 * d).filter(lambda k: k != degree))
        return a, draw(forms(d, 4, other))
    if kind == "cutoff":
        return a, draw(forms(d, 5, degree))
    if kind == "dimension":
        return a, draw(forms(3 - d, 4, min(degree, 2 * (3 - d))))
    b = draw(forms(d, 4, degree))
    if kind == "cancel":
        sign = draw(st.sampled_from([1, -1]))
        comps = dict(b.terms)
        for idx, poly in a.terms.items():
            if draw(st.booleans()):
                comps[idx] = poly.scaled(sign)
        b = DifferentialForm(d, 4, degree, comps)
    return a, b


class TestFormLinearStructure:
    @settings(max_examples=150, deadline=None)
    @given(form_pairs(), st.sampled_from([0, 1, -1, 2, Fraction(-3, 4)]))
    def test_matches_the_parent_operations(self, pair, value):
        a, b = pair
        for new, old in (
            (lambda: a + b, lambda: parent_add(a, b)),
            (lambda: a - b, lambda: parent_sub(a, b)),
            (lambda: -a, lambda: parent_neg(a)),
            (lambda: a.scaled(value), lambda: parent_scaled(a, value)),
        ):
            assert outcome(new) == outcome(old)
        assert (a == b) == parent_eq(a, b)
        assert a.is_zero() == (not a.terms)
        assert hash(a) == parent_hash(a)
        if a == b:
            assert hash(a) == hash(b)

    def test_a_scalar_operand_is_refused(self):
        form = DifferentialForm.d_coordinate(0, D, N)
        for call in (
            lambda: form + 1,
            lambda: 1 + form,
            lambda: form - Fraction(1, 2),
            lambda: 2 - form,
        ):
            with pytest.raises(UsageError, match="scalar"):
                call()

    def test_forms_keep_no_linear_structure_of_their_own(self):
        tree = ast.parse((SRC / "series.py").read_text())
        classes = {n.name: n for n in tree.body if isinstance(n, ast.ClassDef)}
        form = classes["DifferentialForm"]
        assert [base.id for base in form.bases] == ["LinearTerms"]
        defined = {n.name for n in form.body if isinstance(n, ast.FunctionDef)}
        linear = ("__add__", "__sub__", "__neg__", "scaled", "__eq__", "__hash__")
        assert defined.isdisjoint({*linear, "is_zero"})
        assert "components" not in defined  # no alias of `terms`
        # forms and bivectors build their components through one check
        for name in ("DifferentialForm", "PoissonBivector"):
            body = classes[name].body
            (init,) = [n for n in body if getattr(n, "name", "") == "__init__"]
            calls = [
                n.func.id
                for n in ast.walk(init)
                if isinstance(n, ast.Call) and isinstance(n.func, ast.Name)
            ]
            assert calls == ["_checked_components"], name
            assert not any(isinstance(n, ast.Raise) for n in ast.walk(init)), name

    def test_bivector_entries_are_checked_as_two_form_components(self):
        one = TruncatedPoly.one(1, 4)
        for upper, text in (
            ({(1, 0): one}, "bad index tuple"),
            ({(0, 2): one}, "out of range"),
            ({(0, 1, 1): one}, "bad index tuple"),
            ({(0, 1): TruncatedPoly.one(1, 5)}, "truncation mismatch"),
        ):
            with pytest.raises(UsageError, match=text):
                PoissonBivector(1, 4, upper)
            with pytest.raises(UsageError, match=text):
                DifferentialForm(1, 4, 2, upper)
        zero = TruncatedPoly.zero(1, 4)
        assert PoissonBivector(1, 4, {(0, 1): zero}).entries == {}

    @pytest.mark.parametrize("component", [5, Fraction(1, 2), "x1", None])
    def test_a_component_that_is_no_polynomial_is_refused(self, component):
        text = r"component \(0, 1\) is not a TruncatedPoly"
        with pytest.raises(UsageError, match=text):
            DifferentialForm(1, 4, 2, {(0, 1): component})
        with pytest.raises(UsageError, match=text):
            PoissonBivector(1, 4, {(0, 1): component})


class TestPoisson:
    def test_normalization(self):
        theta = PoissonBivector.standard(D, N)
        one = TruncatedPoly.one(D, N)
        for i in range(D):
            for j in range(D):
                expected = one if i == j else TruncatedPoly.zero(D, N)
                assert poisson_bracket(x(i), y(j), theta) == expected
        assert poisson_bracket(x(0), x(1), theta).is_zero()

    def test_h_input_rejected(self):
        theta = PoissonBivector.standard(D, N)
        with pytest.raises(UsageError):
            poisson_bracket(TruncatedPoly.h(D, N), y(0), theta)

    @settings(max_examples=40, deadline=None)
    @given(polys(D, N, with_h=False), polys(D, N, with_h=False))
    def test_antisymmetry(self, f, g):
        assert standard_poisson(f, g) == -standard_poisson(g, f)

    def test_leibniz_and_jacobi_without_truncation(self):
        # polynomials of low weight so no intermediate overflow occurs
        rng = random.Random(11)
        monos = all_monomials(D, 2)
        deep = 20

        def sample():
            return TruncatedPoly(
                D,
                deep,
                {rng.choice(monos): Fraction(rng.randrange(1, 5)) for _ in range(2)},
            )

        for _ in range(25):
            f, g, k = sample(), sample(), sample()
            assert standard_poisson(f, g * k) == standard_poisson(f, g) * k + g * standard_poisson(f, k)
            jac = (
                standard_poisson(f, standard_poisson(g, k))
                + standard_poisson(g, standard_poisson(k, f))
                + standard_poisson(k, standard_poisson(f, g))
            )
            assert jac.is_zero()

    def test_jacobi_for_nonconstant_closed_bivector(self):
        # Theta from the closed form (1+x1) dx1/\dy1 at d=1: entries (1+x1)^-1
        d, n = 1, 8
        inv = TruncatedPoly.zero(d, n)
        for k in range(n + 1):
            inv = inv + (TruncatedPoly.x(0, d, n) ** k).scaled(Fraction((-1) ** k))
        theta = PoissonBivector(d, n, {(0, 1): inv})
        rng = random.Random(3)
        monos = all_monomials(d, 2)

        def sample():
            return TruncatedPoly(
                d,
                n,
                {rng.choice(monos): Fraction(rng.randrange(1, 4)) for _ in range(2)},
            )

        for _ in range(20):
            f, g, k = sample(), sample(), sample()
            jac = (
                poisson_bracket(f, poisson_bracket(g, k, theta), theta)
                + poisson_bracket(g, poisson_bracket(k, f, theta), theta)
                + poisson_bracket(k, poisson_bracket(f, g, theta), theta)
            )
            # the truncated bivector is only faithful below the cutoff: the
            # weight-N slice of a double bracket sees the discarded tail of
            # theta, so exactness is asserted through weight N-1
            assert jac.truncated(n - 1).is_zero()


def reference_partial(p, v):
    """d/dv by lowering the exponent of v term by term, re-checked by the
    public constructor."""
    i, on_x = v % p.d, v < p.d

    def lowered():
        for m, c in p.terms.items():
            exps = m.xexp if on_x else m.yexp
            e = exps[i]
            if e:
                less = exps[:i] + (e - 1,) + exps[i + 1 :]
                if on_x:
                    yield Monomial(less, m.yexp, m.hexp), c * e
                else:
                    yield Monomial(m.xexp, less, m.hexp), c * e

    return TruncatedPoly(p.d, p.cutoff, accumulate(lowered()))


def reference_poisson_bracket(f, g, theta):
    """sum Theta_uv d_u f d_v g as a chain of polynomials: every partial,
    product and sum is built and truncated on its own."""
    out = TruncatedPoly.zero(f.d, f.cutoff)
    for (i, j), entry in theta.entries.items():
        out = out + entry * (
            reference_partial(f, i) * reference_partial(g, j)
            - reference_partial(f, j) * reference_partial(g, i)
        )
    return out


def fused_poisson_bracket(f, g, theta):
    """The route `poisson_bracket` took before it ran on `_pair_sum`: one
    integer-first sum over (entry of Theta, orientation, term of the entry,
    monomial of f, monomial of g), all scaled by one common lcm and built
    with `Monomial.mul`."""
    polys = (f, g, *theta.entries.values())
    den = lcm(*(c.denominator for p in polys for c in p.terms.values()))

    def scaled(terms):
        return {m: c.numerator * (den // c.denominator) for m, c in terms.items()}

    df, dg = ([_lowered(scaled(p.terms), v) for v in range(2 * f.d)] for p in (f, g))
    terms = rational(
        (
            (mt.mul(m1).mul(m2), sign * nt * n1 * n2)
            for (i, j), entry in theta.entries.items()
            for u, v, sign in ((i, j, 1), (j, i, -1))
            for mt, nt in scaled(entry.terms).items()
            for m1, n1 in df[u].items()
            for m2, n2 in dg[v].items()
            if mt.weight + m1.weight + m2.weight <= f.cutoff
        ),
        den**3,
    )
    return TruncatedPoly(f.d, f.cutoff, terms)


def assert_trusted(p):
    """The contract of `TruncatedPoly._trusted`: a dict of nonzero Fractions
    on d-dimensional monomials within the cutoff."""
    assert type(p.terms) is dict
    for m, c in p.terms.items():
        assert type(c) is Fraction and c != 0, (m, c)
        assert len(m.xexp) == len(m.yexp) == p.d and m.weight <= p.cutoff, m


# denominators up to the Mersenne prime 2^61 - 1, so no lcm is small
BIG = 2**61 - 1
wide_coeffs = st.one_of(
    coeffs,
    st.sampled_from([Fraction(1, BIG), Fraction(-BIG, 3), Fraction(7, BIG - 2)]),
    st.fractions(min_value=-9, max_value=9, max_denominator=BIG),
)


@st.composite
def wide_polys(draw, d, cutoff):
    """h-free, up to the cutoff, so most term pairs bracket past it."""
    monos = all_monomials(d, cutoff)
    terms = draw(st.dictionaries(st.sampled_from(monos), wide_coeffs, max_size=5))
    return TruncatedPoly(d, cutoff, terms)


def curved_theta(d, n):
    """The bivector of a closed form with non-constant coefficients: the
    standard form plus d((1 + x1) x1 dy1), and at d=2 also d(x2 y1 dx1)."""
    alpha = {(d,): TruncatedPoly.x(0, d, n) + TruncatedPoly.x(0, d, n) ** 2}
    if d == 2:
        alpha[(0,)] = TruncatedPoly.x(1, d, n) * TruncatedPoly.y(0, d, n)
    exact = de_rham_d(DifferentialForm(d, n, 1, alpha))
    return form_to_bivector(check_symplectic(standard_form(d, n) + exact))


THETAS = {(1, 6): curved_theta(1, 6), (2, 5): curved_theta(2, 5)}


class TestKernelOracles:
    @settings(max_examples=80, deadline=None)
    @given(st.sampled_from([1, 2]), st.data())
    def test_partial_matches_lowering_loop(self, d, data):
        p = data.draw(polys(d, N))  # with h terms
        v = data.draw(st.integers(0, 2 * d - 1))
        got = p.partial(v)
        assert_trusted(got)
        assert got == reference_partial(p, v)

    @settings(max_examples=60, deadline=None)
    @given(st.sampled_from([(1, 6), (2, 5)]), st.data())
    def test_standard_poisson_matches_chain(self, dn, data):
        d, n = dn
        f, g = data.draw(wide_polys(d, n)), data.draw(wide_polys(d, n))
        got = standard_poisson(f, g)
        assert_trusted(got)
        assert got == reference_poisson_bracket(f, g, PoissonBivector.standard(d, n))

    @pytest.mark.parametrize("d, n", [(1, 6), (2, 5)])
    def test_curved_theta_is_not_constant(self, d, n):
        theta = THETAS[(d, n)]
        assert any(len(entry.terms) > 1 for entry in theta.entries.values())
        # at d=2 an entry off the standard pairs appears, zero at the origin
        assert d == 1 or any(e.min_weight() > 0 for e in theta.entries.values())

    @settings(max_examples=40, deadline=None)
    @given(st.sampled_from([(1, 6), (2, 5)]), st.data())
    def test_poisson_bracket_matches_chain(self, dn, data):
        d, n = dn
        theta = THETAS[dn]
        f, g = data.draw(wide_polys(d, n)), data.draw(wide_polys(d, n))
        got = poisson_bracket(f, g, theta)
        assert_trusted(got)
        assert got == reference_poisson_bracket(f, g, theta)
        assert got == fused_poisson_bracket(f, g, theta)

    @pytest.mark.parametrize("d, n", [(1, 6), (2, 5)])
    def test_cancelling_and_overflowing_pairs(self, d, n):
        rng = random.Random(14 + d)
        monos = all_monomials(d, n)
        theta = THETAS[(d, n)]
        for _ in range(30):
            f = TruncatedPoly(
                d,
                n,
                {
                    rng.choice(monos): Fraction(rng.randrange(-9, 10), BIG)
                    for _ in range(4)
                },
            )
            # {f, f * f} = 2 f {f, f} = 0 but for the terms f * f loses
            g = f.scaled(Fraction(BIG, 5)) + f * f
            for bracket, bivector in (
                (standard_poisson, PoissonBivector.standard(d, n)),
                (lambda a, b: poisson_bracket(a, b, theta), theta),
            ):
                for a, b in ((f, f), (f, g)):
                    got = bracket(a, b)
                    assert_trusted(got)
                    assert got == reference_poisson_bracket(a, b, bivector)
                    if a is b:
                        assert got.terms == {}
        # every pair over the cutoff: the bracket is the zero polynomial
        top = [m for m in monos if m.weight == n]
        f = TruncatedPoly(d, n, {m: Fraction(1, BIG) for m in top})
        g = TruncatedPoly(d, n, {m: Fraction(BIG, 2) for m in top[::-1]})
        for got in (standard_poisson(f, g), poisson_bracket(f, g, theta)):
            assert_trusted(got)
            assert got.terms == {}

    def test_kernels_build_no_intermediate_polynomial(self, monkeypatch):
        theta = THETAS[(2, 5)]
        f = x(0, 2, 5) * y(1, 2, 5) + x(1, 2, 5).scaled(Fraction(1, 3))
        g = y(0, 2, 5) * y(0, 2, 5) - x(0, 2, 5) * x(1, 2, 5)
        expected = (
            [reference_partial(f, v) for v in range(4)],
            reference_poisson_bracket(f, g, PoissonBivector.standard(2, 5)),
            reference_poisson_bracket(f, g, theta),
        )
        partial = TruncatedPoly.partial

        def refuse(*args):
            raise AssertionError("an intermediate polynomial was built")

        for name in ("__mul__", "__add__", "__sub__", "partial"):
            monkeypatch.setattr(TruncatedPoly, name, refuse)
        got = (
            [partial(f, v) for v in range(4)],
            standard_poisson(f, g),
            poisson_bracket(f, g, theta),
        )
        monkeypatch.undo()
        assert got == expected


def poly_from_json(data):
    """The inverse of `TruncatedPoly.to_json`."""
    terms = {
        Monomial(tuple(xe), tuple(ye), he): Fraction(coeff)
        for xe, ye, he, coeff in data["terms"]
    }
    return TruncatedPoly(data["d"], data["N"], terms)


class TestSerialization:
    def test_json_roundtrip(self):
        p = x(0) * y(1) + TruncatedPoly.h(D, N).scaled(Fraction(1, 2))
        assert poly_from_json(p.to_json()) == p

    def test_json_sorted_keys(self):
        p = y(1) + x(0) + TruncatedPoly.one(D, N)
        data = p.to_json()["terms"]
        assert data[0][:3] == [[0, 0], [0, 0], 0]  # constant first
        assert [row[3] for row in data] == ["1/1", "1/1", "1/1"]

    def test_str_is_canonical(self):
        # term order is (weight, h-power, lex on exponents): y2 sorts before x1
        p = x(0) - y(1).scaled(Fraction(3, 2))
        assert str(p) == "-3/2*y2 + x1"
