"""Exterior algebra, Lie derivatives, arithmetic pullbacks, frame identities."""

import random

import pytest

from arithflow.poly import MultiPoly, Chart, ChartElement, ZZ, Zp, parse_poly
from arithflow.forms import (DiffForm, FiberFrame, lie_derivative,
                             phi_star_over_p, elem_deriv)
from arithflow.flows import ClassicalFlow, ArithmeticFlow
from arithflow.euler import euler_h_polys, classical_euler_flow


def _zz_chart():
    return Chart(("x1", "x2", "x3"), (MultiPoly.var("x1"),), ZZ())


def test_d_of_constant_and_coordinates():
    chart = _zz_chart()
    assert DiffForm.function(chart.const(4)).d().is_zero()
    _, H2 = euler_h_polys((MultiPoly.var("a1"), MultiPoly.var("a2"),
                           MultiPoly.var("a3")))
    dH2 = DiffForm.function(chart.elem(H2)).d()
    for i, name in enumerate(chart.vars):
        assert dH2.component((i,)) == chart.var(name) * 2


def test_d_squared_is_zero():
    chart = _zz_chart()
    rng = random.Random(0)
    for _ in range(10):
        f = sum((MultiPoly.monomial(rng.randrange(-3, 4),
                                    x1=rng.randrange(3),
                                    x2=rng.randrange(3),
                                    x3=rng.randrange(3))
                 for _ in range(4)), start=MultiPoly.const(0))
        e = chart.elem(f).div_factor(0, rng.randrange(2))
        assert DiffForm.function(e).d().d().is_zero()


def test_d_leibniz():
    chart = _zz_chart()
    f = chart.elem(parse_poly("x1*x2 + x3^2"))
    alpha = DiffForm(chart, 1, {(0,): chart.var("x2"),
                                (2,): chart.var("x1") * 3})
    lhs = (alpha * f).d()
    rhs = DiffForm.function(f).d().wedge(alpha) + alpha.d() * f
    assert lhs == rhs


def test_wedge_antisymmetry():
    chart = _zz_chart()
    a = DiffForm(chart, 1, {(0,): chart.var("x2"), (1,): chart.var("x3")})
    b = DiffForm(chart, 1, {(1,): chart.var("x1"), (2,): chart.const(2)})
    assert a.wedge(b) == -(b.wedge(a))
    assert a.wedge(a).is_zero()
    # degree 1 ^ degree 2 commutes
    c = a.wedge(b)
    assert a.wedge(c) == c.wedge(a)


def test_top_degree_wedge_vanishes():
    chart = _zz_chart()
    vol = DiffForm(chart, 3, {(0, 1, 2): chart.one()})
    a = DiffForm.dx(chart, "x1")
    assert vol.wedge(a).is_zero()


def test_elem_deriv_quotient_rule():
    chart = _zz_chart()
    e = chart.var("x2").div_factor(0, 2)   # x2 / x1^2
    d = elem_deriv(e, "x1")
    assert d == chart.var("x2").div_factor(0, 3) * (-2)
    assert elem_deriv(e, "x2") == chart.one().div_factor(0, 2)


@pytest.mark.parametrize("ring, k", [(ZZ(), 2), (Zp(5, 3), 5)], ids=["ZZ", "Zp"])
def test_quotient_rule_on_a_non_monomial_factor(ring, k):
    # factors x1 + x2 and x3; at p = 5 the exponent k = 5 is 0 mod p
    one = ring.from_int(1)
    x1, x2, x3 = (MultiPoly.var(n, one) for n in ("x1", "x2", "x3"))
    chart = Chart(("x1", "x2", "x3"), (x1 + x2, x3), ring)
    f = chart.elem(x1 * x1 * x3 + x2 * 3, (k, 0))
    g = chart.elem(x2 - x3 * x3 * 2, (k + 1, 2))
    unit = chart.elem((x1 + x2) ** k * x3 ** 2)
    unit_inv = chart.one().div_factor(0, k).div_factor(1, 2)
    flow = ClassicalFlow(chart, {
        "x1": chart.elem(x2 * x3), "x2": chart.elem(x1, (1, 0)),
        "x3": chart.one()})
    derivations = [lambda e, n=n: elem_deriv(e, n) for n in chart.vars]
    for D in derivations + [flow.apply_elem]:
        assert D(f * g) == D(f) * g + f * D(g)
        assert D(unit * unit_inv).is_zero()
        assert D(unit_inv) == -D(unit) * unit_inv * unit_inv


def test_lie_derivative_on_functions_and_d():
    chart = Chart(("x1", "x2", "x3"), (), ZZ())
    a = (MultiPoly.var("a1"), MultiPoly.var("a2"), MultiPoly.var("a3"))
    flow = classical_euler_flow(chart, a)
    H1, H2 = euler_h_polys(a)
    # prime integrals: L(dH) = d(LH) = 0
    for H in (H1, H2):
        assert flow.apply_poly(H).is_zero()
        assert lie_derivative(flow, DiffForm.function(chart.elem(H)).d()).is_zero()
    f = chart.elem(parse_poly("x1*x3"))
    assert lie_derivative(flow, DiffForm.function(f)) == \
        DiffForm.function(flow.apply_elem(f))
    # L commutes with d on a non-integral
    assert lie_derivative(flow, DiffForm.function(f).d()) == \
        DiffForm.function(flow.apply_elem(f)).d()


def _padic_chart(p=5, prec=3):
    ring = Zp(p, prec)
    one = ring.from_int(1)
    return Chart(("x1", "x2", "x3"), (MultiPoly.var("x1", one),), ring), ring


def test_phi_star_zero_flow():
    chart, ring = _padic_chart()
    flow = ArithmeticFlow(chart, {})
    pulled = phi_star_over_p(DiffForm.dx(chart, "x1"), flow)
    expect = DiffForm(chart, 1, {(0,): chart.elem(
        MultiPoly.monomial(ring.from_int(1), x1=4))})
    assert pulled == expect


def test_phi_star_wedge_multiplicative():
    chart, ring = _padic_chart()
    u = {"x1": chart.var("x2") * 2, "x2": chart.elem(
        MultiPoly.monomial(ring.from_int(1), x3=2)), "x3": chart.one()}
    flow = ArithmeticFlow(chart, u)
    a = DiffForm(chart, 1, {(0,): chart.var("x3"), (1,): chart.const(2)})
    b = DiffForm(chart, 1, {(1,): chart.var("x1"), (2,): chart.var("x2")})
    lhs = phi_star_over_p(a.wedge(b), flow)
    rhs = phi_star_over_p(a, flow).wedge(phi_star_over_p(b, flow))
    assert lhs == rhs


def test_phi_star_on_delta_constant_differential():
    # f with phi(f) = f^p pulls back to f^{p-1} df
    chart, ring = _padic_chart()
    flow = ArithmeticFlow(chart, {})
    f = chart.elem(parse_poly("x1*x2", ring))
    df = DiffForm.function(f).d()
    pulled = phi_star_over_p(df, flow)
    # the coefficient is f^{p-1}
    assert pulled == df * _pow_elem(f, 4)


def _pow_elem(e, n):
    out = e.chart.one()
    for _ in range(n):
        out = out * e
    return out


def test_frame_identities():
    p = 7
    ring = Zp(p, 1)
    one = ring.from_int(1)
    chart = Chart(("x1", "x2", "x3"),
                  tuple(MultiPoly.var(n, one) for n in ("x1", "x2", "x3")),
                  ring)
    a = tuple(ring.from_int(v) for v in (2, 3, 5))
    frame = FiberFrame(chart, a)
    H1, H2 = euler_h_polys(a, one)
    for H in (H1, H2):
        dH = DiffForm.function(chart.elem(H)).d()
        assert frame.contract_1form(dH).is_zero()
    # omega_i representatives contract to 1
    invs = [(a[1] - a[2]).inv(), (a[2] - a[0]).inv(), (a[0] - a[1]).inv()]
    dens = [(0, 1, 1), (1, 0, 1), (1, 1, 0)]
    for i in range(3):
        om = DiffForm(chart, 1, {(i,): ChartElement(
            chart, MultiPoly.const(invs[i]), dens[i])})
        assert frame.contract_1form(om) == chart.one()
    # eta_i representatives contract to 1
    etas = [((1, 2), (1, 0, 0)), ((0, 2), (0, 1, 0)), ((0, 1), (0, 0, 1))]
    signs = [1, -1, 1]
    for (idx, den), s in zip(etas, signs):
        eta = DiffForm(chart, 2, {idx: ChartElement(
            chart, MultiPoly.const(ring.from_int(s)), den)})
        assert frame.contract_2form(eta) == chart.one()
