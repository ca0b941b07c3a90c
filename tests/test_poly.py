"""Sparse polynomials, charts, normal forms, and the text parser."""

from fractions import Fraction
from itertools import product

import pytest
from hypothesis import given, settings, strategies as st

from arithflow.padic import TruncatedPadic
from arithflow.poly import (MultiPoly, Chart, ChartElement, ChartError,
                            ZZ, QQ, Zp, FiberNF, SphereNF,
                            parse_poly, ParseError)
from arithflow.euler import euler_h_polys


def small_polys():
    mono = st.tuples(st.integers(-4, 4),
                     st.integers(0, 3), st.integers(0, 3))
    return st.lists(mono, max_size=4).map(
        lambda ms: sum((MultiPoly.monomial(c, x1=e1, x2=e2)
                        for c, e1, e2 in ms), start=MultiPoly.const(0)))


@settings(max_examples=100, deadline=None)
@given(small_polys(), small_polys(), small_polys())
def test_ring_axioms(f, g, h):
    assert f + g == g + f
    assert f * g == g * f
    assert (f + g) * h == f * h + g * h
    assert (f * g) * h == f * (g * h)
    assert f - f == MultiPoly.const(0)


@settings(max_examples=50, deadline=None)
@given(small_polys(), small_polys())
def test_derivation_leibniz(f, g):
    lhs = (f * g).deriv("x1")
    rhs = f.deriv("x1") * g + f * g.deriv("x1")
    assert lhs == rhs


def test_substitute_and_eval():
    f = parse_poly("x1^2 + 3*x2")
    g = f.substitute({"x1": parse_poly("x2 + 1")})
    assert g == parse_poly("x2^2 + 5*x2 + 1")
    assert f.eval({"x1": 2, "x2": 5}) == 19


def test_power_and_degree():
    f = parse_poly("x1 + x2")
    assert (f ** 3) == parse_poly("x1^3 + 3*x1^2*x2 + 3*x1*x2^2 + x2^3")
    assert f.total_degree() == 1
    assert (f ** 3).degree_in("x1") == 3
    assert (f ** 0) == MultiPoly.const(1)


def test_parser_errors():
    with pytest.raises(ParseError):
        parse_poly("x1 +")
    with pytest.raises(ParseError):
        parse_poly("(x1")
    with pytest.raises(ParseError):
        parse_poly("x1 ^ x2")
    with pytest.raises(ParseError):
        parse_poly("x1 $ x2")
    with pytest.raises(ParseError, match="nested too deeply"):
        parse_poly("(" * 2000 + "x" + ")" * 2000)


def test_parser_whitespace_and_parens():
    assert parse_poly(" ( x1 - 2 ) * (x1+2)") == parse_poly("x1^2 - 4")
    assert parse_poly("-x1 + 1 - 1") == -MultiPoly.var("x1")


def _simple_chart(ring=None):
    one = 1 if ring is None else ring.from_int(1)
    return Chart(("x1", "x2", "x3"),
                 (MultiPoly.var("x1", one),), ring or ZZ())


def test_chart_element_equality_cross_multiplied():
    chart = _simple_chart()
    x1 = chart.var("x1")
    e1 = (x1 * x1).div_factor(0)       # x1^2 / x1
    assert e1 == x1
    assert not e1 == chart.var("x2")


def test_chart_element_arithmetic():
    chart = _simple_chart()
    x1, x2 = chart.var("x1"), chart.var("x2")
    half = chart.one().div_factor(0)    # 1/x1
    assert (half + half) * x1 == chart.const(2)
    assert half * x1 == chart.one()
    assert (x2 * half - x2 * half).is_zero()
    # a zero's den enters no sum: adding a zero with a den leaves the other
    # operand's den as it is, on either side
    zero = (x2 - x2).div_factor(0, 3)
    assert (x2 + zero).den == (zero + x2).den == x2.den == (0,)
    assert (half - zero).den == half.den == (1,)
    assert (zero + zero).den == (3,)
    # and the sum is still formed, so a zero known to fewer digits lowers
    # the precision of the sum
    pchart = _simple_chart(Zp(5, 3))
    coarse = ChartElement(pchart, MultiPoly.const(TruncatedPadic(5, 1, 0)), (2,))
    total = pchart.var("x2") + coarse
    assert total.den == (0,) and total.num.ring is Zp(5, 1)


def test_eval_and_chart_violation():
    chart = _simple_chart()
    e = chart.one().div_factor(0)
    assert e.eval({"x1": 1, "x2": 0, "x3": 0}) == 1
    assert chart.var("x1").eval({"x1": 2, "x2": 3, "x3": 1}) == 2
    with pytest.raises(ChartError):
        e.eval({"x1": 0, "x2": 1, "x3": 1})


def test_eval_padic_units():
    gf = Zp(5, 2)
    chart = Chart(("x1",), (MultiPoly.var("x1", gf.from_int(1)),), gf)
    e = chart.one().div_factor(0)
    assert e.eval({"x1": gf.from_int(2)}) == gf.from_int(13)  # 1/2 mod 25
    with pytest.raises(ChartError):
        e.eval({"x1": gf.from_int(5)})


def _fiber_setup(p=5, a=(1, 2, 3), c1=2, c2=1):
    gf = Zp(p, 1)
    one = gf.from_int(1)
    chart = Chart(("x1", "x2", "x3"),
                  (MultiPoly.var("x1", one), MultiPoly.var("x2", one)), gf)
    ab = tuple(gf.from_int(v) for v in a)
    nf = FiberNF(chart, ab, gf.from_int(c1), gf.from_int(c2))
    return chart, ab, nf


def test_fiber_normal_form_kills_the_ideal():
    chart, ab, nf = _fiber_setup()
    H1, H2 = euler_h_polys(ab, chart.ring.from_int(1))
    assert nf.nf_poly(H1 - MultiPoly.const(chart.ring.from_int(2))).is_zero()
    assert nf.nf_poly(H2 - MultiPoly.const(chart.ring.from_int(1))).is_zero()


def test_fiber_normal_form_basis():
    chart, ab, nf = _fiber_setup()
    r = nf.nf_poly(parse_poly("x1^2", chart.ring) * chart.ring.from_int(1))
    assert r.degree_in("x1") == 0 and r.degree_in("x2") == 0


def test_sphere_normal_form_examples():
    p, c2 = 5, 3
    gf = Zp(p, 1)
    one = gf.from_int(1)
    chart = Chart(("x1", "x2", "x3"), (), gf)
    nf = SphereNF(chart, gf.from_int(c2))
    ab = tuple(gf.from_int(v) for v in (1, 2, 3))
    H1, H2 = euler_h_polys(ab, one)
    assert nf.nf_poly(H2 - MultiPoly.const(gf.from_int(c2))).is_zero()
    # x1^3 -> x1 (c2 - x2^2 - x3^2)
    x1 = MultiPoly.var("x1", one)
    expect = x1 * (MultiPoly.const(gf.from_int(c2))
                   - MultiPoly.monomial(one, x2=2)
                   - MultiPoly.monomial(one, x3=2))
    assert nf.nf_poly(x1 ** 3) == expect
    # H1 - a1 c2 -> (a2-a1)x2^2 + (a3-a1)x3^2
    got = nf.nf_poly(H1 - MultiPoly.const(ab[0] * gf.from_int(c2)))
    want = (MultiPoly.monomial(ab[1] - ab[0], x2=2)
            + MultiPoly.monomial(ab[2] - ab[0], x3=2))
    assert got == want


def test_normal_form_idempotent_and_ring_compatible():
    chart, ab, nf = _fiber_setup()
    f = parse_poly("x1^3*x2 + x2^4 + x3^2*x1", chart.ring)
    g = parse_poly("x1*x2*x3 + x3^5", chart.ring)
    assert nf.nf_poly(nf.nf_poly(f)) == nf.nf_poly(f)
    assert nf.nf_poly(f * g) == nf.nf_poly(nf.nf_poly(f) * nf.nf_poly(g))


def test_normal_form_zero_iff_vanishes_on_fiber():
    p, a, c1, c2 = 5, (1, 2, 3), 2, 1
    chart, ab, nf = _fiber_setup(p, a, c1, c2)
    fiber_points = []
    for x in product(range(p), repeat=3):
        if (sum(ai * xi * xi for ai, xi in zip(a, x)) - c1) % p == 0 \
                and (sum(xi * xi for xi in x) - c2) % p == 0:
            fiber_points.append(x)
    assert fiber_points
    for f in (parse_poly("x1^2*x3 - x2", chart.ring),
              parse_poly("x2^2 + x3", chart.ring)):
        vanishes = all(
            f.eval({n: chart.ring.from_int(v)
                    for n, v in zip(chart.vars, pt)}).is_zero()
            for pt in fiber_points)
        if nf.nf_poly(f).is_zero():
            assert vanishes
    # an actual ideal element vanishes everywhere and has zero normal form
    H1, _ = euler_h_polys(ab, chart.ring.from_int(1))
    elt = (H1 - MultiPoly.const(chart.ring.from_int(c1))) \
        * parse_poly("x3 + 1", chart.ring)
    assert nf.nf_poly(elt).is_zero()


def test_rational_coefficients():
    chart = Chart(("x1",), (MultiPoly.var("x1", Fraction(1)),), QQ())
    e = chart.const(1).div_factor(0) * Fraction(1, 2)
    assert e.eval({"x1": Fraction(3)}) == Fraction(1, 6)


def test_nonunit_fiber_parameter_rejected():
    gf = Zp(5, 1)
    chart = Chart(("x1", "x2", "x3"), (), gf)
    with pytest.raises(ChartError):
        FiberNF(chart, tuple(gf.from_int(v) for v in (1, 1, 3)),
                gf.from_int(0), gf.from_int(1))


# ---------------------------------------------------------------------------
# the packed product kernel against the term-by-term double loop

def _key_mul(k1, k2):
    if not k1:
        return k2
    if not k2:
        return k1
    d = dict(k1)
    for name, e in k2:
        d[name] = d.get(name, 0) + e
    return tuple(sorted(d.items()))


def _is_zero(c):
    return c.val == 0 if isinstance(c, TruncatedPadic) else c == 0


def reference_mul(t1, t2):
    """The product as a double loop over term pairs, summing coefficients in
    their own ring and dropping zero sums as they occur."""
    out = {}
    for k1, c1 in t1.items():
        for k2, c2 in t2.items():
            c = c1 * c2
            if _is_zero(c):
                continue
            key = _key_mul(k1, k2)
            if key in out:
                s = out[key] + c
                if _is_zero(s):
                    del out[key]
                else:
                    out[key] = s
            else:
                out[key] = c
    return out


def assert_same_terms(got, want):
    assert got.keys() == want.keys()
    for key, w in want.items():
        g = got[key]
        assert type(g) is type(w), key
        if isinstance(w, TruncatedPadic):
            assert (g.p, g.prec, g.val) == (w.p, w.prec, w.val), key
        else:
            assert g == w, key


VARS = ("a", "x1", "x2", "x3", "z1")
# up to 80, like the denominator exponents (75) of the p = 5, prec 4 images
keys = st.dictionaries(st.sampled_from(VARS), st.integers(1, 80),
                       max_size=3).map(lambda d: tuple(sorted(d.items())))


def term_dicts(coeffs, max_size=6):
    return st.dictionaries(keys, coeffs, max_size=max_size)


ints = st.integers(-60, 60).filter(bool)
fractions = st.builds(Fraction, st.integers(-30, 30).filter(bool),
                      st.integers(1, 12))


@st.composite
def operand_pairs(draw):
    """Two term dicts in one coefficient ring, neither mixing ints with
    TruncatedPadics nor precisions: ZZ, QQ, Z/p^N, or ints times Z/p^N.
    Z/p^N values are unit multiples of random p-powers, so products and sums
    often vanish."""
    kind = draw(st.sampled_from(("ZZ", "QQ", "Zp", "int*Zp", "Zp*int")))
    if kind == "ZZ":
        return draw(term_dicts(ints)), draw(term_dicts(ints))
    if kind == "QQ":
        return draw(term_dicts(fractions)), draw(term_dicts(fractions))
    p = draw(st.sampled_from((3, 5, 7)))
    prec = draw(st.integers(1, 4))
    padics = st.builds(lambda u, k: TruncatedPadic(p, prec, u * p ** k),
                       st.integers(1, p ** prec), st.integers(0, prec)
                       ).filter(lambda c: c.val != 0)
    if kind == "Zp":
        return draw(term_dicts(padics)), draw(term_dicts(padics))
    pair = draw(term_dicts(ints)), draw(term_dicts(padics))
    return pair if kind == "int*Zp" else pair[::-1]


@settings(max_examples=300, deadline=None)
@given(operand_pairs())
def test_packed_product_matches_double_loop(pair):
    t1, t2 = pair
    got = MultiPoly(dict(t1)) * MultiPoly(dict(t2))
    assert_same_terms(got.terms, reference_mul(t1, t2))


def test_packed_product_edge_cases():
    p, prec = 5, 3
    tp = lambda v: TruncatedPadic(p, prec, v)
    x = {(("x1", 1),): tp(5)}
    y = {(("x2", 80),): tp(25), (): tp(50)}
    # every coefficient product is divisible by p^3
    assert (MultiPoly(x) * MultiPoly(y)).terms == {}
    assert reference_mul(x, y) == {}
    # (x1 - x2)(x1 + x2): the cross terms cancel
    f = parse_poly("x1 - x2") * parse_poly("x1 + x2")
    assert_same_terms(f.terms, parse_poly("x1^2 - x2^2").terms)
    # empty and constant operands
    g = parse_poly("3*x1^79*x3 - 2")
    assert (MultiPoly.const(0) * g).terms == {}
    assert (g * MultiPoly({})).terms == {}
    assert_same_terms((MultiPoly.const(7) * g).terms,
                      reference_mul({(): 7}, g.terms))
    assert_same_terms((MultiPoly.const(7) * MultiPoly.const(6)).terms, {(): 42})
    # the packing width: 79 + 79 needs 8 bits per field
    h = g * g
    assert h.terms[(("x1", 158), ("x3", 2))] == 9
    assert_same_terms(h.terms, reference_mul(g.terms, g.terms))


def test_packed_product_mixed_operands_rule():
    """Where an operand mixes ints with TruncatedPadics, or precisions, the
    whole product lies in Z/p^N with N the least precision present."""
    tp = TruncatedPadic
    f = {(): 2, (("x1", 1),): tp(5, 3, 7)}
    g = {(("x2", 1),): 3}
    got = (MultiPoly(f) * MultiPoly(g)).terms
    assert_same_terms(got, {(("x2", 1),): tp(5, 3, 6),
                            (("x1", 1), ("x2", 1)): tp(5, 3, 21)})
    # the double loop would have kept the int 6
    assert type(reference_mul(f, g)[(("x2", 1),)]) is int
    f = {(("x1", 1),): tp(5, 3, 7)}
    g = {(): tp(5, 3, 2), (("x2", 1),): tp(5, 1, 1)}
    got = (MultiPoly(f) * MultiPoly(g)).terms
    assert_same_terms(got, {(("x1", 1),): tp(5, 1, 4),
                            (("x1", 1), ("x2", 1)): tp(5, 1, 2)})
    with pytest.raises(ValueError):
        MultiPoly(f) * MultiPoly({(): tp(7, 3, 1)})
    with pytest.raises(TypeError):
        MultiPoly(f) * MultiPoly({(): Fraction(1, 2)})


def promoted(t, like):
    """t with int coefficients taken to the ring of the first TruncatedPadic
    in t or like: the mixed-operand rule, made explicit for the reference."""
    padics = [c for c in (*t.values(), *like.values())
              if isinstance(c, TruncatedPadic)]
    if not padics:
        return t
    p, prec = padics[0].p, padics[0].prec
    return {k: TruncatedPadic(p, prec, c) if isinstance(c, int) else c
            for k, c in t.items()}


@settings(max_examples=300, deadline=None)
@given(operand_pairs())
def test_square_of_one_operand_matches_double_loop(pair):
    # both operands are the same dict, as in f * f; merging the pair gives
    # one operand of each kind, ints next to Z/p^N for the int*Zp kinds
    t = {**pair[0], **pair[1]}
    f = MultiPoly(t)
    want = promoted(t, t)
    assert_same_terms((f * f).terms, reference_mul(want, want))


@settings(max_examples=300, deadline=None)
@given(operand_pairs(), st.booleans())
def test_one_term_operand_matches_double_loop(pair, one_on_left):
    # one term of the first dict against both merged, on either side
    t1, t2 = pair
    if not t1:
        return
    one = dict([next(iter(t1.items()))])
    other = {**t1, **t2}
    left, right = (one, other) if one_on_left else (other, one)
    got = MultiPoly(dict(left)) * MultiPoly(dict(right))
    assert_same_terms(got.terms, reference_mul(promoted(left, right),
                                               promoted(right, left)))


def test_one_term_and_square_edge_cases():
    tp = TruncatedPadic
    f = {(("x1", 2),): tp(5, 3, 7), (("x2", 1), ("x3", 4)): tp(5, 3, 10)}
    # the constant key leaves the other keys as they are
    got = (MultiPoly({(): 3}) * MultiPoly(f)).terms
    assert_same_terms(got, {(("x1", 2),): tp(5, 3, 21),
                            (("x2", 1), ("x3", 4)): tp(5, 3, 30)})
    # a one-term product that vanishes mod 5^3, and one that partly does
    assert (MultiPoly({(("x2", 1),): tp(5, 3, 25)})
            * MultiPoly({(("x1", 1),): tp(5, 3, 5)})).terms == {}
    got = (MultiPoly(f) * MultiPoly({(("x2", 2),): tp(5, 3, 25)})).terms
    assert_same_terms(got, {(("x1", 2), ("x2", 2)): tp(5, 3, 50)})
    # an int monomial takes the least precision of the other operand, and
    # int products beside Z/p^N become Z/p^N
    g = {(): 2, (("x2", 1),): tp(5, 3, 7), (("x3", 1),): tp(5, 2, 1)}
    got = (MultiPoly({(("x2", 1),): 3}) * MultiPoly(g)).terms
    assert_same_terms(got, {(("x2", 1),): tp(5, 2, 6),
                            (("x2", 2),): tp(5, 2, 21),
                            (("x2", 1), ("x3", 1)): tp(5, 2, 3)})
    # the square of a mixed operand: off-diagonal pairs counted twice
    h = MultiPoly({(): 2, (("x1", 1),): tp(5, 3, 7)})
    assert_same_terms((h * h).terms, {(): tp(5, 3, 4),
                                      (("x1", 1),): tp(5, 3, 28),
                                      (("x1", 2),): tp(5, 3, 49)})
    # a prime mismatch raises where a mixed operand is made, and in a
    # one-term product on either side
    with pytest.raises(ValueError):
        MultiPoly({(("x1", 1),): tp(5, 3, 1), (("x2", 1),): tp(7, 3, 1)})
    with pytest.raises(ValueError):
        MultiPoly({(): tp(7, 3, 1)}) * MultiPoly(f)
    with pytest.raises(ValueError):
        MultiPoly(f) * MultiPoly({(): tp(7, 3, 1)})


class Recorded(int):
    """An int that records the value of each product it takes part in."""

    products = []

    def __mul__(self, other):
        out = int(self) * int(other)
        Recorded.products.append(out)
        return out

    __rmul__ = __mul__


@st.composite
def mixed_precision_operands(draw):
    """Two term dicts around one p.  The first mixes precisions 1 to 5, with
    coefficients u*p^k for k up to the precision, and ints u*p^k; the second
    has one precision, or mixes them as the first does.  Every value is a
    Recorded int."""
    p = draw(st.sampled_from((3, 5, 7)))
    units = st.integers(1, p ** 5)

    def padics(precs):
        return st.builds(
            lambda prec, u, k: TruncatedPadic._make(
                Zp(p, prec), Recorded(u * p ** min(k, prec) % p ** prec)),
            precs, units, st.integers(0, 5)).filter(lambda c: c.val != 0)

    scaled_ints = st.builds(lambda u, k: Recorded(u * p ** k),
                            st.integers(-20, 20).filter(bool), st.integers(0, 4))
    mixed = st.one_of(padics(st.integers(1, 5)), scaled_ints)
    one_prec = padics(st.just(draw(st.integers(1, 5))))
    t1 = draw(term_dicts(mixed, max_size=8))
    t2 = draw(term_dicts(draw(st.sampled_from((mixed, one_prec))), max_size=8))
    return t1, t2


def assert_kernel_matches(t1, t2, square):
    """The kernel's product against the double loop on operands truncated to
    the least precision N; and, unless an operand has one term (which only
    shifts keys), no coefficient product it forms is 0 mod p^N."""
    padics = [c for c in (*t1.values(), *t2.values())
              if isinstance(c, TruncatedPadic)]
    Recorded.products = []
    f1 = MultiPoly(t1)
    got = (f1 * f1 if square else f1 * MultiPoly(t2)).terms
    if not padics:
        assert_same_terms(got, reference_mul(t1, t2))
        return
    p, n = padics[0].p, min(c.prec for c in padics)
    if len(t1) > 1 and len(t2) > 1:
        assert all(c % p ** n for c in Recorded.products)

    def plain(t):
        return {k: TruncatedPadic(p, n, int(getattr(c, "val", c)))
                for k, c in t.items()}

    assert_same_terms(got, reference_mul(plain(t1), plain(t2)))


@settings(max_examples=300, deadline=None)
@given(mixed_precision_operands())
def test_product_of_mixed_precision_operands(pair):
    assert_kernel_matches(*pair, square=False)
    assert_kernel_matches(pair[1], pair[0], square=False)


@settings(max_examples=300, deadline=None)
@given(mixed_precision_operands())
def test_square_of_mixed_precision_operand(pair):
    t = {**pair[0], **pair[1]}
    assert_kernel_matches(t, t, square=True)


def test_products_skip_pairs_that_vanish_at_the_least_precision():
    # v(5) + v(5) = 2 reaches the least precision 2, though not the largest 3
    def tp(p, prec, v):
        return TruncatedPadic._make(Zp(p, prec), v)

    f = {(): tp(5, 3, Recorded(1)), (("x1", 1),): tp(5, 3, Recorded(5)),
         (("x2", 1),): tp(5, 3, Recorded(25)), (("x3", 1),): tp(5, 2, Recorded(1))}
    assert_kernel_matches(f, f, square=True)
    g = {(("x1", 2),): tp(5, 2, Recorded(5)), (("x2", 2),): tp(5, 2, Recorded(2))}
    assert_kernel_matches(f, g, square=False)
    h = MultiPoly(f)
    assert_same_terms((h * h).terms, {(): tp(5, 2, 1),
                                      (("x1", 1),): tp(5, 2, 10),
                                      (("x3", 1),): tp(5, 2, 2),
                                      (("x3", 2),): tp(5, 2, 1),
                                      (("x1", 1), ("x3", 1)): tp(5, 2, 10)})


# ---------------------------------------------------------------------------
# sympy as an independent oracle for products and powers over ZZ

try:
    import sympy
except ImportError:  # only the oracle tests below need it
    sympy = None
needs_sympy = pytest.mark.skipif(sympy is None, reason="sympy is not installed")
SYMBOLS = sympy.symbols(VARS) if sympy else None


def to_sympy(f):
    index = {name: i for i, name in enumerate(VARS)}
    data = {}
    for key, c in f.terms.items():
        exps = [0] * len(VARS)
        for name, e in key:
            exps[index[name]] = e
        data[tuple(exps)] = c
    return sympy.Poly.from_dict(data, *SYMBOLS, domain="ZZ")


def from_sympy(poly):
    return {tuple((name, e) for name, e in zip(VARS, exps) if e): int(c)
            for exps, c in poly.as_dict().items()}


int_polys = term_dicts(ints, max_size=5).map(MultiPoly)


@needs_sympy
@settings(max_examples=100, deadline=None)
@given(int_polys, int_polys)
def test_product_matches_sympy(f, g):
    assert_same_terms((f * g).terms, from_sympy(to_sympy(f) * to_sympy(g)))


@needs_sympy
@settings(max_examples=40, deadline=None)
@given(term_dicts(st.integers(-3, 3).filter(bool), max_size=3).map(MultiPoly),
       st.integers(0, 5))
def test_power_matches_sympy(f, n):
    assert_same_terms((f ** n).terms, from_sympy(to_sympy(f) ** n))


# exponents stay small here: substitute raises each image to the exponent
small_keys = st.dictionaries(st.sampled_from(VARS), st.integers(1, 4),
                             max_size=3).map(lambda d: tuple(sorted(d.items())))
small_int_polys = st.dictionaries(small_keys, st.integers(-5, 5).filter(bool),
                                  max_size=4).map(MultiPoly)


@needs_sympy
@settings(max_examples=60, deadline=None)
@given(small_int_polys,
       st.dictionaries(st.sampled_from(VARS), small_int_polys, max_size=3))
def test_substitute_matches_sympy(f, mapping):
    images = {sympy.Symbol(name): to_sympy(g).as_expr()
              for name, g in mapping.items()}
    want = sympy.expand(to_sympy(f).as_expr().subs(images, simultaneous=True))
    assert_same_terms(f.substitute(mapping).terms,
                      from_sympy(sympy.Poly(want, *SYMBOLS, domain="ZZ")))


X = sympy.symbols("x1 x2 x3") if sympy else None
xkeys = st.dictionaries(st.sampled_from(("x1", "x2", "x3")), st.integers(1, 7),
                        max_size=3).map(lambda d: tuple(sorted(d.items())))


def gf_to_sympy(f):
    return sum((c.val * sympy.Mul(*(sympy.Symbol(n) ** e for n, e in key))
                for key, c in f.terms.items()), sympy.Integer(0))


@st.composite
def nf_cases(draw):
    """A prime p, the generators of a fiber ideal (H1 - c1, H2 - c2) or a
    sphere ideal (H2 - c2) over F_p, the library's normal form for it, and a
    polynomial in x1, x2, x3."""
    p = draw(st.sampled_from((3, 5, 7)))
    gf = Zp(p, 1)
    chart = Chart(("x1", "x2", "x3"), (), gf)
    c1, c2 = (draw(st.integers(0, p - 1)) for _ in range(2))
    a = draw(st.lists(st.integers(0, p - 1), min_size=3, max_size=3))
    coeffs = st.integers(1, p - 1).map(gf.from_int)
    f = MultiPoly(draw(st.dictionaries(xkeys, coeffs, max_size=5)))
    sphere = [X[0] ** 2 + X[1] ** 2 + X[2] ** 2 - c2]
    if draw(st.booleans()) and (a[1] - a[0]) % p:
        fiber = sphere + [sum(ai * x ** 2 for ai, x in zip(a, X)) - c1]
        nf = FiberNF(chart, [gf.from_int(ai) for ai in a], gf.from_int(c1),
                     gf.from_int(c2))
        return p, fiber, nf, f
    return p, sphere, SphereNF(chart, gf.from_int(c2)), f


@needs_sympy
@settings(max_examples=60, deadline=None)
@given(nf_cases())
def test_normal_forms_match_sympy_reduced(case):
    # in lex order the reduced Groebner basis of the fiber ideal is
    # {x1^2 - sub1, x2^2 - sub2}, with coprime leading monomials, and a single
    # sphere generator is one by itself; so the remainder of sympy's division
    # is the unique normal form
    p, gens, nf, f = case
    basis = sympy.groebner(gens, *X, order="lex", modulus=p).exprs
    _, want = sympy.reduced(gf_to_sympy(f), basis, *X, order="lex", modulus=p)
    got = sympy.Poly(gf_to_sympy(nf.nf_poly(f)), *X, modulus=p)
    assert got == sympy.Poly(want, *X, modulus=p)


# ---------------------------------------------------------------------------
# the packed storage: field widths, the terms view and the coefficient ring

from arithflow.poly import ring_join  # noqa: E402


def test_products_past_the_field_width_match_the_double_loop():
    # a new polynomial packs 16 bits per variable; these products need more
    x = {(("x1", 70000),): 1}
    got = MultiPoly(x) * MultiPoly(x)
    assert_same_terms(got.terms, reference_mul(x, x))
    assert_same_terms(got.terms, {(("x1", 140000),): 1})
    top = 2 ** 16 - 1
    tp = lambda v: TruncatedPadic(5, 3, v)
    wide = {tuple((name, top) for name in VARS): tp(3), (("x2", 1),): tp(5),
            (("a", top), ("z1", 2)): tp(7)}
    other = {(("x1", 1),): tp(2), (("a", top), ("x3", top)): tp(25)}
    for t1, t2 in ((wide, wide), (wide, other), (other, wide)):
        got = MultiPoly(t1) * MultiPoly(t2)
        assert_same_terms(got.terms, reference_mul(t1, t2))
    f = MultiPoly(wide)
    assert_same_terms((f * f).terms, reference_mul(wide, wide))
    # a sum and an equality across two widths
    g = f * f + MultiPoly(other)
    assert g - MultiPoly(other) == f * f
    assert g.degree_in("a") == 2 * top


def test_terms_view_gives_tuple_keys_and_the_value_type_of_each_ring():
    cases = ((parse_poly("3*x2*x1^2 - x3"), ZZ(), int),
             (parse_poly("3*x2*x1^2 - x3", QQ()), QQ(), Fraction),
             (parse_poly("3*x2*x1^2 - x3", Zp(7, 2)), Zp(7, 2), TruncatedPadic))
    for f, ring, kind in cases:
        assert f.ring is ring
        terms = dict(f.terms.items())
        assert set(terms) == {(("x1", 2), ("x2", 1)), (("x3", 1),)}
        assert all(type(c) is kind for c in terms.values())
        assert f.terms[(("x1", 2), ("x2", 1))] == 3
        assert (("x1", 5),) not in f.terms and (("w", 1),) not in f.terms
        with pytest.raises(TypeError):
            f.terms[(("x3", 1),)] = 1
    c = cases[2][0].terms[(("x3", 1),)]
    assert (c.p, c.prec, c.val) == (7, 2, 48)


@settings(max_examples=50, deadline=None)
@given(operand_pairs())
def test_len_of_terms_is_the_term_count(pair):
    for t in pair:
        f = MultiPoly(t)
        assert len(f.terms) == len(list(f.terms)) == len(f.terms.items())
        assert len((f * f).terms) == len(reference_mul(t, t))


def test_legacy_dict_takes_the_least_precision_ring():
    tp = TruncatedPadic
    f = MultiPoly({(): 2, (("x1", 1),): tp(5, 3, 7), (("x2", 1),): tp(5, 2, 26),
                   (("x3", 1),): tp(5, 3, 25)})
    assert f.ring is Zp(5, 2)
    # 26 = 1 and 25 = 0 mod 5^2, and the int 2 is taken to Z/5^2
    assert_same_terms(f.terms, {(): tp(5, 2, 2), (("x1", 1),): tp(5, 2, 7),
                                (("x2", 1),): tp(5, 2, 1)})
    g = MultiPoly({(): 2, (("x1", 1),): Fraction(1, 2)})
    assert g.ring is QQ()
    assert_same_terms(g.terms, {(): Fraction(2), (("x1", 1),): Fraction(1, 2)})
    assert MultiPoly({(): tp(5, 1, 5)}).ring is Zp(5, 1)
    # a dict whose values have no join raises where it is made
    with pytest.raises(ValueError):
        MultiPoly({(): tp(5, 3, 1), (("x1", 1),): tp(7, 3, 1)})
    with pytest.raises(TypeError):
        MultiPoly({(): Fraction(1, 2), (("x1", 1),): tp(5, 3, 1)})


def test_ring_join_and_the_precision_of_a_zero():
    T = TruncatedPadic
    diff = MultiPoly.const(T(5, 3, 1)) - MultiPoly.const(T(5, 1, 6))
    assert diff.is_zero() and diff.ring == Zp(5, 1)
    assert ring_join(ZZ(), Zp(5, 3)) is Zp(5, 3)
    assert ring_join(Zp(5, 3), Zp(5, 1)) is ring_join(Zp(5, 1), Zp(5, 3)) is Zp(5, 1)
    assert ring_join(ZZ(), QQ()) is QQ()
    with pytest.raises(TypeError):
        ring_join(QQ(), Zp(5, 3))
    with pytest.raises(ValueError):
        ring_join(Zp(5, 3), Zp(7, 3))
    # an int polynomial is taken to the precision of the other operand
    x = MultiPoly.var("x1")
    zero = x * 25 + MultiPoly.const(T(5, 2, 0))
    assert zero.is_zero() and zero.ring is Zp(5, 2)
    assert (x * 25 - x * T(5, 3, 25)).ring is Zp(5, 3)


def test_polynomials_are_unhashable():
    # == joins the operands' rings, which no hash of one operand can follow
    with pytest.raises(TypeError):
        hash(MultiPoly.var("x"))


@st.composite
def one_ring_polys(draw):
    """Polynomials in one ring: two equal by distributivity, a third that
    differs from them by a coefficient that may be zero, and two more."""
    kind = draw(st.sampled_from(("ZZ", "QQ", "Zp")))
    if kind == "Zp":
        p, prec = draw(st.sampled_from((3, 5))), draw(st.integers(1, 3))
        ring = Zp(p, prec)
        coeffs = st.integers(1, p ** prec).map(ring.from_int)
    else:
        ring, coeffs = (ZZ(), ints) if kind == "ZZ" else (QQ(), fractions)
    one = MultiPoly.const(ring.from_int(1))
    a, b, c = (MultiPoly(draw(term_dicts(coeffs, max_size=3))) * one
               for _ in range(3))
    e1, e2 = a * (b + c), a * b + a * c
    e3 = e2 + MultiPoly.monomial(draw(coeffs), x1=1) * draw(st.sampled_from((0, 1)))
    return ring, [e1, e2, e3, a, b * c]


@settings(max_examples=100, deadline=None)
@given(one_ring_polys())
def test_equality_is_transitive_within_one_ring(case):
    ring, polys = case
    assert all(f.ring is ring for f in polys)
    assert polys[0] == polys[1]
    for f in polys:
        for g in polys:
            assert (f == g) == (g == f)
            for h in polys:
                if f == g and g == h:
                    assert f == h
