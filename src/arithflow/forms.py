"""Differential forms on a chart.

A DiffForm of degree i stores ChartElement coefficients on the basis
dx_{j1} ^ ... ^ dx_{ji} with strictly increasing index tuples (indices into
the chart's variable list).  Supplies d, wedge, the classical Lie derivative
along a flow, the arithmetic pullbacks phi*/p^i, and contraction with the
tangent/bivector frame used for restriction to fibers and spheres.
"""

from __future__ import annotations

from .poly import MultiPoly


def elem_deriv(e, name):
    """Partial derivative of a chart element, by ChartElement.derive."""
    return e.derive(lambda f: e.chart.elem(f.deriv(name)))


def _merge_indices(t1, t2):
    """Concatenate sorted index tuples; return (sign, merged) or (0, None)."""
    seq = t1 + t2
    if len(set(seq)) < len(seq):
        return 0, None
    inversions = sum(a > b for i, a in enumerate(seq) for b in seq[i + 1:])
    return (-1) ** inversions, tuple(sorted(seq))


class DiffForm:
    """Exterior form with ChartElement coefficients."""

    __slots__ = ("chart", "degree", "comps")

    def __init__(self, chart, degree, comps=None):
        self.chart = chart
        self.degree = degree
        self.comps = {}
        if comps:
            for idx, e in comps.items():
                if not e.is_zero():
                    self.comps[tuple(idx)] = e

    @classmethod
    def sum(cls, chart, degree, terms):
        """The sum of e dx_idx over the (idx, e) pairs of terms, in order:
        a zero e is skipped, and a component that cancels is dropped."""
        comps = {}
        for idx, e in terms:
            if not e.is_zero():
                comps[idx] = comps[idx] + e if idx in comps else e
                if comps[idx].is_zero():
                    del comps[idx]
        return cls(chart, degree, comps)

    @classmethod
    def function(cls, e):
        return cls(e.chart, 0, {(): e})

    @classmethod
    def dx(cls, chart, name):
        i = chart.vars.index(name)
        return cls(chart, 1, {(i,): chart.one()})

    def component(self, idx):
        idx = tuple(idx)
        if idx in self.comps:
            return self.comps[idx]
        return self.chart.zero()

    def is_zero(self):
        return not self.comps

    def __add__(self, other):
        if not isinstance(other, DiffForm):
            return NotImplemented
        if other.degree != self.degree:
            raise ValueError("degree mismatch in form addition")
        return DiffForm.sum(self.chart, self.degree,
                            [*self.comps.items(), *other.comps.items()])

    def __neg__(self):
        return DiffForm(self.chart, self.degree,
                        {idx: -e for idx, e in self.comps.items()})

    def __sub__(self, other):
        return self + (-other)

    def __mul__(self, c):
        """Each component times c, a scalar or a chart element."""
        return DiffForm(self.chart, self.degree,
                        {idx: e * c for idx, e in self.comps.items()})

    __rmul__ = __mul__

    def wedge(self, other):
        if self.chart is not other.chart:
            raise ValueError("chart mismatch in wedge")
        terms = []
        for i1, e1 in self.comps.items():
            for i2, e2 in other.comps.items():
                sign, idx = _merge_indices(i1, i2)
                if sign:
                    terms.append((idx, e1 * e2 * sign))
        return DiffForm.sum(self.chart, self.degree + other.degree, terms)

    def d(self):
        terms = []
        for idx, e in self.comps.items():
            for j, name in enumerate(self.chart.vars):
                sign, merged = _merge_indices((j,), idx)
                if sign:
                    terms.append((merged, elem_deriv(e, name) * sign))
        return DiffForm.sum(self.chart, self.degree + 1, terms)

    def __eq__(self, other):
        if not isinstance(other, DiffForm):
            return NotImplemented
        if self.degree != other.degree:
            return False
        for idx in set(self.comps) | set(other.comps):
            if self.component(idx) != other.component(idx):
                return False
        return True

    def __str__(self):
        if not self.comps:
            return "0"
        names = self.chart.vars
        parts = []
        for idx in sorted(self.comps):
            basis = "^".join("d%s" % names[j] for j in idx)
            e = self.comps[idx]
            parts.append("(%s)%s" % (e, " " + basis if basis else ""))
        return " + ".join(parts)

    __repr__ = __str__


def lie_derivative(flow, alpha):
    """Classical Lie derivative of a form along a flow.

    Characterized by: equals the flow on functions, commutes with d, and is
    a derivation for the wedge product.  On a monomial e dx_J this gives
    delta(e) dx_J + e * sum_m dx_{j1} ^ ... ^ d(delta x_{jm}) ^ ... ^ dx_{ji}.
    """
    chart = alpha.chart
    terms = []
    for idx, e in alpha.comps.items():
        terms.append((idx, flow.apply_elem(e)))
        for j in idx:
            dimg = DiffForm.function(flow.image(chart.vars[j])).d()
            rest = tuple(k for k in idx if k != j)
            sign, _ = _merge_indices((j,), rest)
            piece = DiffForm(chart, len(rest), {rest: e * sign})
            terms += dimg.wedge(piece).comps.items()
    return DiffForm.sum(chart, alpha.degree, terms)


def phi_star_over_p(alpha, flow):
    """The arithmetic pullback phi*/p^i on a degree-i form.

    dx_j pulls back to d(x_j^p + p u_j) = p(x_j^{p-1} dx_j + du_j); the p^i
    is divided off symbolically, so no coefficient precision is lost.
    """
    chart = alpha.chart
    p = flow.p
    pulled_dx = {}

    def dx_image(j):
        if j not in pulled_dx:
            name = chart.vars[j]
            lead = chart.elem(MultiPoly.monomial(chart.ring.from_int(1),
                                                 **{name: p - 1}))
            form = DiffForm(chart, 1, {(j,): lead})
            form = form + DiffForm.function(flow.image(name)).d()
            pulled_dx[j] = form
        return pulled_dx[j]

    terms = []
    for idx, e in alpha.comps.items():
        term = DiffForm.function(flow.phi_elem(e))
        for j in idx:
            term = term.wedge(dx_image(j))
        terms += term.comps.items()
    return DiffForm.sum(chart, alpha.degree, terms)


class FiberFrame:
    """The Euler tangent vector and Poisson bivector on a 3-variable chart.

    v = ((a2-a3)x2x3, (a3-a1)x3x1, (a1-a2)x1x2) is tangent to every fiber of
    (H1, H2); the bivector has components pi_12 = x3, pi_23 = x1, pi_31 = x2.
    pi is the Lie-Poisson bivector {x1, x2} = x3 of so(3), and v is the
    Hamiltonian field of H1/2 for it: {x_j, H1} = 2 v_j with
    H1 = sum a_i x_i^2.
    """

    def __init__(self, chart, a):
        a1, a2, a3 = a
        x1, x2, x3 = (chart.var(n) for n in ("x1", "x2", "x3"))
        self.chart = chart
        self.v = (x2 * x3 * (a2 - a3), x3 * x1 * (a3 - a1), x1 * x2 * (a1 - a2))
        self.pi = {(0, 1): x3, (1, 2): x1, (0, 2): -x2}

    def contract_1form(self, alpha):
        """<alpha, v> as a chart element."""
        return sum((e * self.v[j] for (j,), e in alpha.comps.items()),
                   self.chart.zero())

    def contract_2form(self, beta):
        """<beta, pi> as a chart element."""
        return sum((e * self.pi[idx] for idx, e in beta.comps.items()),
                   self.chart.zero())
