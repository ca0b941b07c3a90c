"""The Euler rigid-body system, classically and arithmetically.

Classical side: the flow delta x_i = (a_j - a_k) x_j x_k with prime
integrals H1 = sum a_i x_i^2 and H2 = sum x_i^2.

Arithmetic side: a p-derivation on the chart localized at
Q = x1 x2 N(H1,H2) A_{p-1}(H1,H2) with phi(H_j) = H_j^p exactly, built by
staged linear solves; a gauge adjustment along the kernel direction pinning
the linearization congruence mod p; and the fiber verifications (pullback of
the fiber 1-form, the sphere 2-form congruence, and the point-count
congruence for the trace of Frobenius).
"""

from __future__ import annotations

from .padic import TruncatedPadic, teichmuller
from .poly import (MultiPoly, Chart, ChartElement, Zp, FiberNF, SphereNF,
                   ChartError, once, reduce_poly_mod_p)
from .flows import ArithmeticFlow, ClassicalFlow, check_prime_integral


def euler_h_polys(a, one=1):
    """H1 = sum a_i x_i^2 and H2 = sum x_i^2; a entries may be symbolic."""
    xs = [MultiPoly.monomial(one, **{"x%d" % (i + 1): 2}) for i in range(3)]
    H1 = xs[0] * a[0] + xs[1] * a[1] + xs[2] * a[2]
    H2 = xs[0] + xs[1] + xs[2]
    return H1, H2


def norm_poly(a, one=1):
    """N(z1, z2) = prod (z1 - a_i z2)."""
    z1, z2 = (MultiPoly.var(n, one) for n in ("z1", "z2"))
    out = MultiPoly.const(one)
    for ai in a:
        out = out * (z1 - z2 * ai)
    return out


def quartic_poly(a, one=1):
    """F(z1, z2, x) = ((a2-a3)x^2 + z1 - a2 z2)((a3-a1)x^2 - z1 + a1 z2)."""
    a1, a2, a3 = a
    xx = MultiPoly.monomial(one, x=2)
    z1, z2 = (MultiPoly.var(n, one) for n in ("z1", "z2"))
    return (xx * (a2 - a3) + z1 - z2 * a2) * (xx * (a3 - a1) - z1 + z2 * a1)


def hasse_invariant(p, a):
    """Coefficient of x^{p-1} in F^{(p-1)/2}, a polynomial in (z1, z2)."""
    Fh = quartic_poly(a) ** ((p - 1) // 2)
    return Fh.coefficient_of("x", p - 1)


def classical_euler_flow(chart, a):
    """The classical flow on a chart containing x1, x2, x3."""
    one = chart.ring.from_int(1)
    x1, x2, x3 = (MultiPoly.var(n, one) for n in ("x1", "x2", "x3"))
    return ClassicalFlow(chart, {"x1": chart.elem(x2 * x3 * (a[1] - a[2])),
                                 "x2": chart.elem(x3 * x1 * (a[2] - a[0])),
                                 "x3": chart.elem(x1 * x2 * (a[0] - a[1]))})


class PreconditionError(ValueError):
    """The inputs break a precondition of the construction or the checks."""


class NoAdmissibleFiber(PreconditionError):
    """No point of F_p^2 is an admissible fiber of the requested kind."""


class InadmissibleFiber(PreconditionError, ChartError):
    """N(c) A_{p-1}(c) is not a unit at the requested fiber."""


class EulerSystem:
    """Parameters and derived data of the arithmetic Euler construction."""

    def __init__(self, p, prec, a):
        if prec < 2:
            raise PreconditionError(
                "prec must be >= 2: the fiber and sphere congruences divide "
                "the Frobenius pullback by p, got prec=%d" % prec)
        self.p = p
        self.prec = prec
        self.ring = Zp(p, prec)
        self.a = tuple(self.ring.coerce(ai) for ai in a)
        for i in range(3):
            for j in range(i + 1, 3):
                if not (self.a[i] - self.a[j]).is_unit():
                    raise PreconditionError("a_i - a_j must be units")
        one = self.ring.from_int(1)
        self.H1, self.H2 = euler_h_polys(self.a, one)
        self.N_z = norm_poly(self.a, one)
        Fh = quartic_poly(self.a, one) ** ((p - 1) // 2)
        self.B = [Fh.coefficient_of("x", j) for j in range(2 * (p - 1) + 1)]
        self.A_z = self.B[p - 1]
        sub = {"z1": self.H1, "z2": self.H2}
        self.N_H = self.N_z.substitute(sub)
        self.A_H = self.A_z.substitute(sub)
        x1, x2 = (MultiPoly.var(n, one) for n in ("x1", "x2"))
        # factor order: x1, x2, N(H1,H2), A_{p-1}(H1,H2)
        self.chart = Chart(("x1", "x2", "x3"), (x1, x2, self.N_H, self.A_H),
                           self.ring)

    def kernel_vector(self):
        """The Frobenius-twisted tangent direction, annihilated by both
        prime-integral Jacobian rows."""
        p = self.p
        one = self.ring.from_int(1)
        a1, a2, a3 = self.a
        mk = lambda n1, n2, c: self.chart.elem(
            MultiPoly.monomial(one, **{n1: p, n2: p}) * c)
        return (mk("x2", "x3", a2 - a3), mk("x3", "x1", a3 - a1),
                mk("x1", "x2", a1 - a2))

    def a_mod_p(self):
        return tuple(ai.truncate(1) for ai in self.a)

    def hasse_at(self, c1, c2):
        """A_{p-1}(c1, c2) in F_p."""
        return self.A_z.eval({"z1": c1, "z2": c2}).truncate(1)


class AdmissibleFiber:
    """A fiber point c = (c1, c2) with Teichmuller coordinates and
    N(c) A_{p-1}(c) a unit."""

    def __init__(self, sys, r1, r2):
        p = sys.p
        if (r1 % p, r2 % p) not in admissible_fibers(sys):
            raise InadmissibleFiber("inadmissible fiber: N(c) A(c) not a unit")
        self.c1 = teichmuller(p, r1 % p, sys.prec)
        self.c2 = teichmuller(p, r2 % p, sys.prec)


def admissible_fibers(sys, need_c2_unit=False):
    """The residues (r1, r2) in F_p^2 of the admissible fibers, with r2 != 0
    if need_c2_unit, kept on the system.  N(c) A_{p-1}(c) is a unit iff it is
    one mod p, and a Teichmuller lift is r mod p, so the test runs in F_p."""
    return _admissible(sys, bool(need_c2_unit))


@once
def _admissible(sys, need_c2_unit):
    # one key per flag however the caller passes it, and one p^2 scan per system
    if need_c2_unit:
        return [r for r in _admissible(sys, False) if r[1]]
    p = sys.p
    found = []
    for r1 in range(p):
        for r2 in range(p):
            c = {"z1": TruncatedPadic(p, 1, r1), "z2": TruncatedPadic(p, 1, r2)}
            if sys.N_z.eval(c).is_unit() and sys.A_z.eval(c).is_unit():
                found.append((r1, r2))
    return found


# rejection draws before the sampler picks from the enumerated list; with one
# admissible fiber in p^2 candidates the cap is reached with odds e^-32
_DRAWS_PER_CANDIDATE = 32


def sample_admissible_fiber(sys, rng, need_c2_unit=False):
    """A uniformly random admissible fiber, with c2 a unit if asked.

    Draws (r1, r2) until one is admissible, so a seeded rng gives the same
    fibers as plain rejection sampling, but after a bounded number of draws
    it picks from the enumerated list.  Raises NoAdmissibleFiber if there is
    none: at p = 3 the three distinct a_i exhaust F_3, so N(c) vanishes at
    every c with c2 a unit."""
    p = sys.p
    fibers = admissible_fibers(sys, need_c2_unit)
    if not fibers:
        raise NoAdmissibleFiber(
            "no admissible fiber with %s at p=%d"
            % ("c2 a unit" if need_c2_unit else "N(c) A(c) a unit", p))
    allowed = set(fibers)
    for _ in range(_DRAWS_PER_CANDIDATE * p * p):
        r1 = rng.randrange(p)
        r2 = rng.randrange(1, p) if need_c2_unit else rng.randrange(p)
        if (r1, r2) in allowed:
            return AdmissibleFiber(sys, r1, r2)
    return AdmissibleFiber(sys, *rng.choice(fibers))


# ---------------------------------------------------------------------------
# staged construction of the arithmetic flow

class FlowBuilder:
    """Maintains the flow images and the prime-integral residuals
    R_j = phi(H_j) - H_j^p incrementally (H_j are quadratic, so an update
    u += D changes R_j by 2p sum m_ji phi(x_i) D_i + p^2 sum m_ji D_i^2).
    apply_increment forms each product phi(x_i) D_i and D_i^2 once, for
    both rows j."""

    def __init__(self, sys):
        self.sys = sys
        chart = sys.chart
        p, one = sys.p, sys.ring.from_int(1)
        self.u = {name: chart.zero() for name in chart.vars}
        self.phi_x = [chart.elem(MultiPoly.monomial(one, **{name: p}))
                      for name in chart.vars]
        # rows of the quadratic forms: H1 has weights a_i, H2 has weights 1
        self.weights = (sys.a, (one, one, one))
        start = ArithmeticFlow(chart, {})
        self.R = [check_prime_integral(start, H) for H in (sys.H1, sys.H2)]

    def apply_increment(self, delta, p_order):
        """u += delta, where delta = p^p_order * (unit-level data).

        The p-powers are applied before the products, as 2p phi(x_i) times
        D_i and (p D_i)^2, so that the product kernel sees their valuations
        in its operands and skips every pair of terms that vanishes mod
        p^prec; scaling afterwards gives the same result from more pairs."""
        sys = self.sys
        p = sys.p
        products = []
        for i, d in enumerate(delta):
            if not d.is_zero():
                products.append((i, self.phi_x[i] * (2 * p) * d))
                if 2 * p_order + 2 < sys.prec:
                    dp = d * p
                    products.append((i, dp * dp))
        for j, w in enumerate(self.weights):
            upd = sys.chart.zero()
            for i, prod in products:
                upd = upd + prod * w[i]
            self.R[j] = self.R[j] + upd
        for i, name in enumerate(sys.chart.vars):
            if not delta[i].is_zero():
                self.u[name] = self.u[name] + delta[i]
                self.phi_x[i] = self.phi_x[i] + delta[i] * p

    def run_stage(self, s):
        """Kill the residuals at order p^{s+1} by a linear solve mod p."""
        sys = self.sys
        p = sys.p
        rho = [r.exact_div_p(s + 1).reduce_mod_p() for r in self.R]
        ab = sys.a_mod_p()
        cinv = ((ab[0] - ab[1]) * 2).inv()
        w1 = (rho[1] * ab[1] - rho[0]) * cinv
        w1 = w1.div_factor(0, p)
        w2 = (rho[0] - rho[1] * ab[0]) * cinv
        w2 = w2.div_factor(1, p)
        scale = self.sys.ring.from_int(p ** s)
        delta = [lift_elem(w1, sys.chart) * scale,
                 lift_elem(w2, sys.chart) * scale,
                 sys.chart.zero()]
        self.apply_increment(delta, s)

    def apply_gauge(self, t_mod_p):
        """u += lift(t) * kernel_vector; preserves R mod p^2 identically."""
        t = lift_elem(t_mod_p, self.sys.chart)
        delta = [t * v for v in self.sys.kernel_vector()]
        self.apply_increment(delta, 0)

    def to_flow(self, step):
        """The flow of the current images; raises if step left a residual."""
        if not all(r.is_zero() for r in self.R):
            raise ArithmeticError("%s left phi(H) != H^p" % step)
        flow = ArithmeticFlow(self.sys.chart, dict(self.u))
        flow._builder = self
        return flow


def lift_elem(e, chart):
    """Lift a mod-p chart element to the full-precision chart (top digits 0)."""
    return ChartElement(chart, e.num.over(chart.ring), e.den)


def build_flow(sys):
    """An arithmetic flow with phi(H1) = H1^p and phi(H2) = H2^p exactly."""
    b = FlowBuilder(sys)
    for s in range(sys.prec - 1):
        b.run_stage(s)
    return b.to_flow("the staged solve")


def gauge_target_u3(sys):
    """The mod-p value of u3 that makes the pullback of the fiber 1-form
    congruent to A_{p-1}(c)^{-1} times itself on every admissible fiber.

    Integrates A^{-1} sum_{j != p-1} B_j(H1,H2) x3^j term by term (the
    exponents j+1 avoid p, so each is invertible mod p): G(z1, z2, x3) =
    sum_j B_j(z1, z2) x3^{j+1}/(j+1) is formed mod p, and (H1, H2) is
    substituted into it once."""
    p = sys.p
    cp = sys.chart.reduce_mod_p()
    gf = cp.ring
    G = MultiPoly.const(gf.from_int(0))
    for j, Bj in enumerate(sys.B):
        if j != p - 1:
            G = G + reduce_poly_mod_p(Bj, gf) * MultiPoly.monomial(
                gf.from_int(j + 1).inv(), x3=j + 1)
    GH = G.substitute({"z1": reduce_poly_mod_p(sys.H1, gf),
                       "z2": reduce_poly_mod_p(sys.H2, gf)})
    return cp.elem(GH).div_factor(3, 1)


def gauge_adjust(flow, sys):
    """Move along the kernel direction so the linearization congruence holds,
    then re-run the higher stages to restore exact prime integrals."""
    b = getattr(flow, "_builder", None)
    if b is None:
        raise ValueError("gauge_adjust needs a flow from build_flow")
    target = gauge_target_u3(sys)
    current = b.u["x3"].reduce_mod_p()
    ab = sys.a_mod_p()
    t = (target - current) * (ab[0] - ab[1]).inv()
    t = t.div_factor(0, sys.p).div_factor(1, sys.p)
    b.apply_gauge(t)
    for s in range(1, sys.prec - 1):
        b.run_stage(s)
    return b.to_flow("the gauge adjustment")


# ---------------------------------------------------------------------------
# fiber verifications (all mod p)

@once
def pullback_coefficient(flow, sys):
    """h = <(phi*/p) omega, v> mod p, before normal form, for the fiber
    1-form omega = dx3 / ((a1 - a2) x1 x2) (<omega, v> = 1).  In closed form
    h = (x1 x2 x3^{p-1} + v(u3)/(a1 - a2)) / (x1 x2)^p, with u3 the mod-p x3
    image: phi(x1 x2) = (x1 x2)^p and (phi*/p) dx3 = x3^{p-1} dx3 + du3 mod
    p.  It does not depend on the fiber, so it is cached on the flow."""
    p, ab = sys.p, sys.a_mod_p()
    cp = sys.chart.reduce_mod_p()
    lead = cp.elem(MultiPoly.monomial(cp.ring.from_int(1), x1=1, x2=1, x3=p - 1))
    vu3 = classical_euler_flow(cp, ab).apply_elem(flow.image("x3").reduce_mod_p())
    h = (lead + vu3 * (ab[0] - ab[1]).inv()).div_factor(0, p).div_factor(1, p)
    return h, cp


@once
def _fibre_normal_forms(flow, sys):
    """(forms, den, cp): the fiber normal forms of the denominator product
    prod f_i^{den_i} and of the numerator of h, with c kept as the symbols
    z1, z2.  One FiberNF computes both, once per flow; the result is cached
    on the flow."""
    h, cp = pullback_coefficient(flow, sys)
    one = cp.ring.from_int(1)
    nf = FiberNF(cp, sys.a_mod_p(), MultiPoly.var("z1", one),
                 MultiPoly.var("z2", one))
    # the normal form of a product is that of the product of the factors'
    # normal forms, so reduce factor by factor: at p = 11 reducing the
    # expanded product took 0.17 s, this 0.005 s
    den_nf = MultiPoly.const(one)
    for f, k in zip(cp.factors, h.den):
        if k:
            den_nf = nf.nf_poly(den_nf * nf.nf_poly(f) ** k)
    return (den_nf, nf.nf_poly(h.num)), h.den, cp


def linearization_identity(flow, sys):
    """NF(den) - A_{p-1}(z1, z2) NF(num) over den, from the per-flow symbolic
    fiber normal forms (see _fibre_normal_forms).

    It is zero iff h A_{p-1}(H1, H2) = 1 on the whole mod-p chart, that is
    iff the linearization congruence holds on every fiber at once: the
    normal form with symbolic c is unique, and z = (H1, H2) undoes it."""
    (den_nf, num_nf), den, cp = _fibre_normal_forms(flow, sys)
    A = reduce_poly_mod_p(sys.A_z, cp.ring)
    return ChartElement(cp, den_nf - A * num_nf, den)


def verify_linearization(flow, sys, fiber):
    """Residual of (phi_c*/p) omega_c = A_{p-1}(c)^{-1} omega_c mod p,
    in fiber normal form; zero means the congruence holds.  It is
    -A_{p-1}(c)^{-1} times derive_new2_form's residual for coef A_{p-1}(c),
    so it too is a specialisation of the per-flow symbolic normal forms."""
    Ac = sys.hasse_at(fiber.c1, fiber.c2)
    return derive_new2_form(flow, sys, fiber, coef=Ac) * -Ac.inv()


@once
def _require_prime_integrals(flow, sys):
    """Raise ArithmeticError unless phi(H_j) = H_j^p exactly at the working
    precision, for j = 1, 2; a pass is cached on the flow."""
    for H in (sys.H1, sys.H2):
        if not check_prime_integral(flow, H).is_zero():
            raise ArithmeticError(
                "phi(H) != H^p: the flow's prime integrals are not exact")


@once
def sphere_residual(flow, sys):
    """H1^{p-1} (h - 1/A_{p-1}(H1,H2)) mod p, before the sphere normal form,
    with h from pullback_coefficient; it does not depend on c2, so it is
    cached on the flow.

    This is <(phi*/p^2) eta, pi> - H1^{p-1}/A_{p-1}(H1,H2) for eta =
    -1/2 dH1 ^ omega: v is the Hamiltonian field of H1/2 (criterion 03), so
    <-dH1 ^ alpha, pi>/2 = <alpha, v>, and once phi(H1) = H1^p, (phi*/p) dH1
    = H1^{p-1} dH1 mod p.  Without exact prime integrals that last step fails
    (with the x1 image + x1 this would be zero, the pullback not), so then it
    raises ArithmeticError."""
    _require_prime_integrals(flow, sys)
    h, cp = pullback_coefficient(flow, sys)
    H1p = cp.elem(reduce_poly_mod_p(sys.H1, cp.ring))
    return H1p ** (sys.p - 1) * (h - cp.one().div_factor(3)), cp


def verify_new1(flow, sys, c2):
    """Residual of (phi*/p^2) eta = (H1^{p-1}/A_{p-1}(H1,c2)) eta mod p on
    the sphere H2 = c2, in sphere normal form; only the normal form runs per
    c2.  It is zero on every sphere where sphere_residual is, that is where
    h A_{p-1}(H1, H2) = 1.  Raises ArithmeticError without exact prime
    integrals."""
    residual, cp = sphere_residual(flow, sys)
    nf = SphereNF(cp, c2.truncate(1))
    return nf.nf(residual)


def fiber_frobenius(flow, sys, fiber):
    """The induced Frobenius lift on the fiber: checks that phi preserves the
    fiber ideal and returns the mod-p coordinate images.

    The check is phi(H_j) = H_j^p exactly: phi fixes coefficients and a
    Teichmuller c_j has c_j^p = c_j, so then phi(H_j - c_j) = H_j^p - c_j^p,
    a multiple of H_j - c_j, on every fiber.  Mod p alone the test would be
    vacuous, since there every lift is x -> x^p."""
    _require_prime_integrals(flow, sys)
    return {name: flow.phi_var(name).reduce_mod_p()
            for name in sys.chart.vars}


def derive_new2_form(flow, sys, fiber, coef=None):
    """Residual of -coef (phi_c*/p) omega_c + omega_c mod p on the fiber.

    coef defaults to A_{p-1}(c); passing the integer a_p instead must give
    the same vanishing by the trace congruence.  The residual is the normal
    form of 1 - coef h, over h's den: by linearity, NF(den) - coef NF(num)
    with the per-flow symbolic forms set at z = c."""
    (den_nf, num_nf), den, cp = _fibre_normal_forms(flow, sys)
    if coef is None:
        coef = sys.hasse_at(fiber.c1, fiber.c2)
    c = {"z1": fiber.c1, "z2": fiber.c2}
    return ChartElement(cp, den_nf.at(c) - num_nf.at(c) * coef, den)


# ---------------------------------------------------------------------------
# point counting

def _poly_mul_mod(f, g, p):
    out = [0] * (len(f) + len(g) - 1)
    for i, fi in enumerate(f):
        if not fi:
            continue
        for j, gj in enumerate(g):
            if gj:
                out[i + j] = (out[i + j] + fi * gj) % p
    return out


def hasse_value(p, a, c):
    """A_{p-1}(c1, c2) mod p by direct univariate expansion (independent of
    the symbolic route: used as the second side of the congruence check)."""
    a1, a2, a3 = [x % p for x in a]
    c1, c2 = [x % p for x in c]
    f1 = [(c1 - a2 * c2) % p, 0, (a2 - a3) % p]
    f2 = [(-c1 + a1 * c2) % p, 0, (a3 - a1) % p]
    F = _poly_mul_mod(f1, f2, p)
    acc = [1]
    for _ in range((p - 1) // 2):
        acc = _poly_mul_mod(acc, F, p)
    return acc[p - 1] if len(acc) > p - 1 else 0


def count_points_and_ap(p, a, c):
    """Point count of the smooth quartic model y^2 = F(c1,c2,x) over F_p and
    the trace a_p = p + 1 - count."""
    a1, a2, a3 = [x % p for x in a]
    c1, c2 = [x % p for x in c]
    for ai in (a1, a2, a3):
        if (c1 - ai * c2) % p == 0:
            raise ValueError("degenerate quartic: N(c) is not a unit")
    squares = set(i * i % p for i in range(1, (p - 1) // 2 + 1))

    def chi(v):
        v %= p
        if v == 0:
            return 0
        return 1 if v in squares else -1

    def F(x):
        return ((a2 - a3) * x * x + c1 - a2 * c2) * \
               ((a3 - a1) * x * x - c1 + a1 * c2)

    count = p + sum(chi(F(x)) for x in range(p))
    lead = (a2 - a3) * (a3 - a1)
    count += 2 if chi(lead) == 1 else 0
    ap = p + 1 - count
    return count, ap
