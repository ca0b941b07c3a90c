"""Classical and arithmetic flows, Poisson structures, Lax and EL checks."""

import random
from fractions import Fraction

import pytest

from arithflow.poly import MultiPoly, Chart, ZZ, QQ, Zp, SphereNF, parse_poly
from arithflow.forms import DiffForm, FiberFrame, lie_derivative
from arithflow.flows import (ClassicalFlow, ArithmeticFlow, PoissonStructure,
                             check_prime_integral, poisson_from_symplectic,
                             is_symplectic_hamiltonian, lax_flow,
                             generic_matrix, char_poly_coeffs,
                             isospectrality_defect, euler_lagrange_form,
                             el_defect)
from arithflow.euler import euler_h_polys, classical_euler_flow


def test_euler_flow_images_and_leibniz():
    chart = Chart(("x1", "x2", "x3"), (), ZZ())
    a = (MultiPoly.var("a1"), MultiPoly.var("a2"), MultiPoly.var("a3"))
    flow = classical_euler_flow(chart, a)
    assert flow.image("x1") == chart.elem(
        MultiPoly.var("x2") * MultiPoly.var("x3") * (a[1] - a[2]))
    f = parse_poly("x1^2")
    assert flow.apply_poly(f) == flow.image("x1") * chart.var("x1") * 2
    g = parse_poly("x1*x2 + x3")
    h = parse_poly("x2^2 - x1")
    lhs = flow.apply_poly(g * h)
    rhs = chart.elem(g) * flow.apply_poly(h) + chart.elem(h) * flow.apply_poly(g)
    assert (lhs - rhs).is_zero()


def test_prime_integral_residuals():
    chart = Chart(("x1", "x2", "x3"), (), ZZ())
    a = (MultiPoly.var("a1"), MultiPoly.var("a2"), MultiPoly.var("a3"))
    flow = classical_euler_flow(chart, a)
    H1, H2 = euler_h_polys(a)
    assert check_prime_integral(flow, H1).is_zero()
    assert check_prime_integral(flow, H2).is_zero()
    assert not check_prime_integral(flow, MultiPoly.var("x1")).is_zero()


def test_base_derivation_over_function_field():
    # coefficients in Q[t] with d/dt realized through the variable t
    chart = Chart(("x", "t"), (), QQ())
    flow = ClassicalFlow(chart, {"x": chart.var("x"), "t": chart.one()})
    f = parse_poly("t*x")
    assert flow.apply_poly(f) == chart.elem(parse_poly("t*x + x"))


def _so3_struct(chart):
    return PoissonStructure.lie_poisson(chart, {
        ("x1", "x2"): {"x3": 1}, ("x2", "x3"): {"x1": 1},
        ("x3", "x1"): {"x2": 1}})


def test_so3_bracket_and_casimir():
    chart = Chart(("x1", "x2", "x3"), (), ZZ())
    struct = _so3_struct(chart)
    assert struct.bracket(chart.var("x1"), chart.var("x2")) == chart.var("x3")
    assert struct.jacobi_defect(chart.var("x1"), chart.var("x2"),
                                chart.var("x3")).is_zero()
    _, H2 = euler_h_polys((MultiPoly.const(1),) * 3)
    for name in chart.vars:
        assert struct.bracket(chart.elem(H2), chart.var(name)).is_zero()


def _gl_struct(chart, n):
    constants = {}
    names = [(i, j) for i in range(1, n + 1) for j in range(1, n + 1)]
    for ai, (i, j) in enumerate(names):
        for (k, l) in names[ai + 1:]:
            combo = {}
            if j == k:
                key = "x%d%d" % (i, l)
                combo[key] = combo.get(key, 0) + 1
            if l == i:
                key = "x%d%d" % (k, j)
                combo[key] = combo.get(key, 0) - 1
            if combo:
                constants[("x%d%d" % (i, j), "x%d%d" % (k, l))] = combo
    return PoissonStructure.lie_poisson(chart, constants)


@pytest.mark.parametrize("n", [2, 3])
def test_gl_n_jacobi(n):
    names = tuple("x%d%d" % (i, j) for i in range(1, n + 1)
                  for j in range(1, n + 1))
    chart = Chart(names, (), ZZ())
    struct = _gl_struct(chart, n)
    rng = random.Random(n)
    gens = [chart.var(x) for x in names]
    for _ in range(10):
        f, g, h = (rng.choice(gens) for _ in range(3))
        assert struct.jacobi_defect(f, g, h).is_zero()


def test_bracket_from_symplectic_matches_lie_poisson():
    p = 7
    ring = Zp(p, 1)
    one = ring.from_int(1)
    chart = Chart(("x1", "x2", "x3"),
                  tuple(MultiPoly.var(n, one) for n in ("x1", "x2", "x3")),
                  ring)
    a = tuple(ring.from_int(v) for v in (1, 3, 5))
    frame = FiberFrame(chart, a)
    struct = _so3_struct(chart)
    nf = SphereNF(chart, ring.from_int(2))
    for ni in chart.vars:
        for nj in chart.vars:
            lhs = poisson_from_symplectic(frame, chart.var(ni), chart.var(nj))
            rhs = struct.bracket(chart.var(ni), chart.var(nj))
            assert nf.is_zero(lhs - rhs)


def test_symplectic_hamiltonian_criterion():
    p = 7
    ring = Zp(p, 1)
    one = ring.from_int(1)
    chart = Chart(("x1", "x2", "x3"),
                  tuple(MultiPoly.var(n, one) for n in ("x1", "x2", "x3")),
                  ring)
    a = tuple(ring.from_int(v) for v in (2, 3, 5))
    frame = FiberFrame(chart, a)
    nf = SphereNF(chart, ring.from_int(1))
    eta3 = DiffForm(chart, 2, {(0, 1): chart.one().div_factor(2)})
    euler = classical_euler_flow(chart, a)
    assert is_symplectic_hamiltonian(euler, eta3, frame, nf)
    radial = ClassicalFlow(chart, {n: chart.var(n) for n in chart.vars})
    assert not is_symplectic_hamiltonian(radial, eta3, frame, nf)
    zero = ClassicalFlow(chart, {})
    assert is_symplectic_hamiltonian(zero, eta3, frame, nf)


def test_arithmetic_flow_is_ring_homomorphism():
    ring = Zp(5, 3)
    one = ring.from_int(1)
    chart = Chart(("x1", "x2"), (MultiPoly.var("x1", one),), ring)
    u = {"x1": chart.var("x2") + 2, "x2": chart.var("x1").div_factor(0)}
    flow = ArithmeticFlow(chart, u)
    f = parse_poly("x1^2 + 3*x2", ring)
    g = parse_poly("x1*x2 - 1", ring)
    assert flow.phi_poly(f + g) == flow.phi_poly(f) + flow.phi_poly(g)
    assert flow.phi_poly(f * g) == flow.phi_poly(f) * flow.phi_poly(g)
    # phi of the denominator factor is invertible: phi(x1) * phi(1/x1) = 1
    inv = flow.phi_elem(chart.one().div_factor(0))
    assert flow.phi_var("x1") * inv == chart.one()
    # delta on a generator returns the flow image
    assert flow.delta_poly(MultiPoly.var("x1", one)) == u["x1"]


def test_phi_reduces_to_frobenius_mod_p():
    ring = Zp(5, 2)
    one = ring.from_int(1)
    chart = Chart(("x1", "x2"), (MultiPoly.var("x1", one),), ring)
    flow = ArithmeticFlow(chart, {"x1": chart.var("x2") * 3,
                                  "x2": chart.var("x1").div_factor(0, 2)})
    f = parse_poly("x1^2*x2 + 4*x2", ring)
    full = flow.phi_poly(f).reduce_mod_p()
    fast = flow.reduce_mod_p().phi_poly(f.over(Zp(5, 1)))
    assert full == fast
    # a denominator goes through inv_phi_factor, which at precision 1 is
    # C^{-p}: mod p the lift is x -> x^p, on numerator and denominator alike
    e = chart.elem(parse_poly("x1*x2^2 + 3*x2 + 1", ring)).div_factor(0, 3)
    mod_p = flow.reduce_mod_p()
    got = mod_p.phi_elem(e.reduce_mod_p())
    assert got == flow.phi_elem(e).reduce_mod_p()
    gf = mod_p.chart.ring
    xp = {n: MultiPoly.monomial(gf.from_int(1), **{n: 5}) for n in chart.vars}
    frobenius = e.reduce_mod_p().num.substitute(xp)
    assert got.num == frobenius and got.den == (15,)
    # p u_i vanishes mod p, and its denominator does not enter phi(x_i)
    assert mod_p.phi_var("x2").den == (0,)


def test_lax_trace_det_prime_integrals_numeric():
    n = 2
    names = tuple("x%d%d" % (i, j) for i in range(1, n + 1)
                  for j in range(1, n + 1))
    chart = Chart(names, (), ZZ())
    M = [[chart.elem(parse_poly("x11 + 2")), chart.elem(parse_poly("x12*x21"))],
         [chart.const(3), chart.elem(parse_poly("x22^2"))]]
    for j in (1, 2):
        assert isospectrality_defect(chart, M, n, j).is_zero()


def test_char_poly_coeffs_match_trace_and_det():
    names = ("x11", "x12", "x21", "x22")
    chart = Chart(names, (), ZZ())
    X = generic_matrix(chart, 2)
    P = char_poly_coeffs(X)
    assert P[0] == chart.elem(parse_poly("x11 + x22"))
    assert P[1] == chart.elem(parse_poly("x11*x22 - x12*x21"))


def test_euler_lagrange():
    chart = Chart(("x", "x'"), (), QQ())
    flow = ClassicalFlow(chart, {"x": chart.var("x'"), "x'": chart.zero()})
    nu = DiffForm(chart, 1, {(0,): chart.var("x'")})
    eps = euler_lagrange_form(flow, nu)
    # (delta^2 x) dx + (delta x) d(delta x) = x' dx'
    assert eps == DiffForm(chart, 1, {(1,): chart.var("x'")})
    # eps = dL for L = x'^2/2 and the defect vanishes
    L = chart.elem(MultiPoly.monomial(Fraction(1, 2), **{"x'": 2}))
    assert DiffForm.function(L).d() == eps
    assert el_defect(flow, L).is_zero()
    # non-canonical flow is rejected
    zero = ClassicalFlow(chart, {})
    with pytest.raises(ValueError):
        el_defect(zero, L)
    # a potential term leaves a nonzero defect under the free flow
    L2 = chart.elem(parse_poly("x")) * Fraction(1)
    assert el_defect(flow, L2) == chart.const(-1)


def test_euler_lagrange_zero_form():
    chart = Chart(("x", "x'"), (), QQ())
    flow = ClassicalFlow(chart, {"x": chart.var("x'"), "x'": chart.zero()})
    assert euler_lagrange_form(flow, DiffForm(chart, 1)).is_zero()
