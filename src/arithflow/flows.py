"""Flows on charts.

A classical flow is a derivation given by its generator images, zero on
the coefficients (ZZ, QQ and Z/p^N have only the zero derivation),
extended to chart elements by ChartElement.derive.  An arithmetic flow is a
p-derivation given by the images u_i with phi(x_i) = x_i^p + p u_i; phi
substitutes these into a polynomial with poly.substitute_terms and extends
to denominators by a truncated geometric series, exact at the working
precision.  Mod p every lift is x -> x^p: reduce_mod_p gives it as the same
class on the F_p chart, with the images mod p kept for the form pullbacks.

Also here: Poisson structures (explicit brackets or Lie-Poisson from
structure constants), the symplectic-derived bracket on the sphere, Lax
flows with characteristic-polynomial prime integrals, and Euler-Lagrange
residuals for canonical flows.
"""

from __future__ import annotations

import operator
from functools import reduce
from itertools import combinations

from .poly import MultiPoly, Zp, once, substitute_terms
from .forms import DiffForm, elem_deriv, lie_derivative


class Flow:
    """A flow on a chart, given by the images of the chart variables."""

    def __init__(self, chart, images):
        self.chart = chart
        self.images = dict(images)

    def image(self, name):
        if name in self.images:
            return self.images[name]
        return self.chart.zero()


class ClassicalFlow(Flow):
    """A derivation of the chart ring, zero on the coefficients."""

    def apply_poly(self, f):
        """Apply the derivation to a polynomial; result is a chart element."""
        out = self.chart.zero()
        for name in f.variables():
            u = self.image(name)
            out = out + self.chart.elem(f.deriv(name)) * u
        return out

    def apply_elem(self, e):
        """Quotient rule over the declared denominator factors."""
        return e.derive(self.apply_poly)


def check_prime_integral(flow, H):
    """Residual of the prime-integral condition.

    Classical flows: the derivation applied to H.  Arithmetic flows:
    phi(H) - H^p, which is p times the p-derivation of H.
    """
    H = flow.chart.elem(H)
    if isinstance(flow, ArithmeticFlow):
        return flow.phi_elem(H) - H ** flow.p
    return flow.apply_elem(H)


def is_canonical_flow(flow, pairs):
    """True iff the flow image of each base variable x is its jet partner x'."""
    for base, prolonged in pairs:
        if not flow.image(base) == flow.chart.var(prolonged):
            return False
    return True


# ---------------------------------------------------------------------------
# Poisson structures

class PoissonStructure:
    """Antisymmetric biderivation given by generator brackets."""

    def __init__(self, chart, brackets):
        """brackets maps ordered pairs (name_i, name_j) with i < j to elements."""
        self.chart = chart
        self.brackets = dict(brackets)

    @classmethod
    def lie_poisson(cls, chart, constants):
        """Linear bracket {x_i, x_j} = sum_k c_ijk x_k from structure constants.

        constants maps (i, j) with i < j to a dict {k: c_ijk} over variable
        names.
        """
        brackets = {}
        for (ni, nj), combo in constants.items():
            e = chart.zero()
            for nk, c in combo.items():
                e = e + chart.var(nk) * c
            brackets[(ni, nj)] = e
        return cls(chart, brackets)

    def generator_bracket(self, ni, nj):
        if ni == nj:
            return self.chart.zero()
        if (ni, nj) in self.brackets:
            return self.brackets[(ni, nj)]
        if (nj, ni) in self.brackets:
            return -self.brackets[(nj, ni)]
        return self.chart.zero()

    def bracket(self, f, g):
        f, g = self.chart.elem(f), self.chart.elem(g)
        dg = {nj: elem_deriv(g, nj) for nj in self.chart.vars}
        out = self.chart.zero()
        for ni in self.chart.vars:
            dfi = elem_deriv(f, ni)
            for nj, dgj in dg.items():
                if ni != nj and not dfi.is_zero() and not dgj.is_zero():
                    out = out + dfi * dgj * self.generator_bracket(ni, nj)
        return out

    def jacobi_defect(self, f, g, h):
        return (self.bracket(f, self.bracket(g, h))
                + self.bracket(g, self.bracket(h, f))
                + self.bracket(h, self.bracket(f, g)))


def poisson_from_symplectic(frame, f, g):
    """The bracket df^dg / eta on the sphere, via the dual bivector frame."""
    df = DiffForm.function(frame.chart.elem(f)).d()
    dg = DiffForm.function(frame.chart.elem(g)).d()
    return frame.contract_2form(df.wedge(dg))


def is_symplectic_hamiltonian(flow, eta, frame, sphere_nf):
    """True iff the Lie derivative of the symplectic form restricts to 0."""
    lied = lie_derivative(flow, eta)
    return sphere_nf.is_zero(frame.contract_2form(lied))


# ---------------------------------------------------------------------------
# arithmetic flows

class ArithmeticFlow(Flow):
    """A p-derivation on a chart with p-adic coefficients.

    Stored as the images u_i with phi(x_i) = x_i^p + p u_i; phi acts as the
    identity on coefficients.  phi of a denominator factor is inverted by a
    truncated geometric series, exact at the chart's precision.
    """

    def __init__(self, chart, images):
        if not isinstance(chart.ring, Zp):
            raise TypeError("arithmetic flows need a p-adic chart")
        super().__init__(chart, images)
        self.p = chart.ring.p
        self.prec = chart.ring.prec

    @once
    def phi_var(self, name):
        """x^p + p u."""
        xp = self.chart.elem(
            MultiPoly.monomial(self.chart.ring.from_int(1), **{name: self.p}))
        return xp + self.image(name) * self.p

    def phi_poly(self, f):
        """phi of a polynomial: substitute each variable by its phi image."""
        return substitute_terms(f, self.chart.zero(), self.chart.elem,
                                lambda name, e: self.phi_var(name) ** e)

    def delta_poly(self, f):
        """(phi(f) - f^p)/p; divisibility is structural and asserted."""
        diff = self.phi_poly(f) - self.chart.elem(f ** self.p)
        return diff.exact_div_p()

    @once
    def inv_phi_factor(self, i):
        """1/phi(C) for the i-th denominator factor C, as a chart element.

        With g = delta(C)/C^p one has phi(C) = C^p(1 + p g), so the inverse
        is C^{-p} sum_{k<N} (-p g)^k; the tail vanishes mod p^N.  At N = 1
        the sum is 1, and g, which divides by p, is not formed.
        """
        total = term = self.chart.one()
        if self.prec > 1:
            g = self.delta_poly(self.chart.factors[i]).div_factor(i, self.p)
            for _ in range(1, self.prec):
                term = term * g * (-self.p)
                if term.num.is_zero():
                    break
                total = total + term
        return total.div_factor(i, self.p)

    def phi_elem(self, e):
        out = self.phi_poly(e.num)
        for i, k in enumerate(e.den):
            if k:
                out = out * self.inv_phi_factor(i) ** k
        return out

    def reduce_mod_p(self):
        """The same lift on the mod-p chart, where phi(x) = x^p; the images
        u_i mod p stay for the form pullbacks, which take du_i."""
        images = {name: u.reduce_mod_p() for name, u in self.images.items()}
        return ArithmeticFlow(self.chart.reduce_mod_p(), images)


# ---------------------------------------------------------------------------
# Lax flows and characteristic polynomials

def _dot(row, col):
    return reduce(operator.add, map(operator.mul, row, col))


def mat_mul(A, B):
    """The product of two matrices given as lists of rows."""
    cols = list(zip(*B))
    return [[_dot(row, col) for col in cols] for row in A]


def commutator(M, X):
    MX = mat_mul(M, X)
    XM = mat_mul(X, M)
    return [[MX[i][j] - XM[i][j] for j in range(len(X))] for i in range(len(X))]


def generic_matrix(chart, n):
    """The matrix of chart coordinate variables x{i}{j} (1-based)."""
    return [[chart.var("x%d%d" % (i + 1, j + 1)) for j in range(n)]
            for i in range(n)]


def lax_flow(chart, M, n):
    """The flow delta x = [M, x] on a gl_n coordinate chart."""
    X = generic_matrix(chart, n)
    C = commutator(M, X)
    images = {}
    for i in range(n):
        for j in range(n):
            images["x%d%d" % (i + 1, j + 1)] = C[i][j]
    return ClassicalFlow(chart, images)


def _det(mat):
    """Permutation-expansion determinant for small matrices."""
    n = len(mat)
    if n == 1:
        return mat[0][0]
    total = None
    for j in range(n):
        minor = [row[:j] + row[j + 1:] for row in mat[1:]]
        term = mat[0][j] * _det(minor)
        if j % 2:
            term = -term
        total = term if total is None else total + term
    return total


def char_poly_coeffs(X):
    """P_1 .. P_n with det(s - X) = s^n - P_1 s^{n-1} + ... + (-1)^n P_n.

    P_j is the sum of the principal j x j minors (direct expansion, n <= 4).
    """
    n = len(X)
    return [reduce(operator.add, (_det([[X[i][k] for k in subset] for i in subset])
                                  for subset in combinations(range(n), j)))
            for j in range(1, n + 1)]


def isospectrality_defect(chart, M, n, j):
    """The flow applied to P_j; identically zero for every Lax flow."""
    flow = lax_flow(chart, M, n)
    X = generic_matrix(chart, n)
    Pj = char_poly_coeffs(X)[j - 1]
    return flow.apply_elem(Pj)


# ---------------------------------------------------------------------------
# Euler-Lagrange residuals on a (x, x') chart

def euler_lagrange_form(flow, nu):
    """epsilon := the Lie derivative of the 1-form nu along the flow."""
    return lie_derivative(flow, nu)


def el_defect(flow, lagrangian):
    """delta(dL/dx') - dL/dx for a canonical flow on the (x, x') chart."""
    if not is_canonical_flow(flow, [("x", "x'")]):
        raise ValueError("Euler-Lagrange residual needs a canonical flow")
    lagrangian = flow.chart.elem(lagrangian)
    dLdxp = elem_deriv(lagrangian, "x'")
    dLdx = elem_deriv(lagrangian, "x")
    return flow.apply_elem(dLdxp) - dLdx
