"""The benchmark's three workloads: seeded inputs, set-up, rounds, checks.

Each workload draws its inputs as plain integers from its own random stream
(`random.Random("<workload>/<seed>")`), so the library receives only generated
inputs.  `setup()` turns the inputs into library objects; `round_ops(state)`
lists one round of operations, each a (label, thunk) pair that the runner
times back to back; `check(label, output)` tests one operation's output with
the independent checks in checks.py.  A round is always the same list of
operations, so every round does the same work.
"""

import random

from arithflow import euler, flows, lax
from arithflow.flows import ArithmeticFlow
from arithflow.padic import TruncatedPadic, teichmuller

import checks


def draw_a(rng, p, zero_first):
    """Distinct residues a, drawn from the seed as the acceptance suite's
    euler_suite draws them, but with the zero entry's presence and place
    fixed per system: a zero a_i (i = 1, 2) halves the terms of one flow
    image, and at p = 13 a zero a_1 takes 6 s to construct against 10.5 s for
    a zero a_3, so a free draw would make a round's cost depend on the seed."""
    if zero_first:
        return [0] + rng.sample(range(1, p), 2)
    return rng.sample(range(1, p), 3)


def _ints(matrix):
    return [[e.val for e in r] for r in matrix.rows]


def _at_prec(matrix, prec):
    return all(e.prec == prec for r in matrix.rows for e in r)


def _image_counts(flow_list):
    images = [u for f in flow_list for u in f.images.values()]
    return {"euler.image_terms": sum(len(u.num.terms) for u in images),
            "euler.image_den_max": max((max(u.den) for u in images), default=0)}


class Construct:
    """Build and verify arithmetic Euler flows: build_flow, gauge_adjust and
    both prime-integral residuals per system.  Set-up makes the EulerSystem
    objects.  One operation is one system."""

    # (p, prec, a_1 = 0)
    SYSTEMS = ((5, 3, True), (7, 3, False), (11, 3, False), (13, 3, True),
               (5, 4, False))
    SMOKE = ((5, 3, True), (5, 4, False))
    POINTS = 4
    count_padic = False

    def __init__(self, seed, smoke=False):
        rng = random.Random("construct/%d" % seed)
        self.inputs = []
        for p, prec, zero_first in (self.SMOKE if smoke else self.SYSTEMS):
            a = draw_a(rng, p, zero_first)
            points = []
            while len(points) < self.POINTS:
                x = tuple(rng.randrange(p ** prec) for _ in range(3))
                if checks.on_chart(p, a, x):
                    points.append(x)
            self.inputs.append((p, prec, a, points))

    def setup(self):
        return [euler.EulerSystem(p, prec, a) for p, prec, a, _ in self.inputs]

    def round_ops(self, systems):
        return [(i, lambda s=s: _construct(s)) for i, s in enumerate(systems)]

    def check(self, i, out):
        flow, r1, r2 = out
        if not (r1.is_zero() and r2.is_zero()):
            return "prime-integral residual is nonzero"
        return self.check_points(i, flow)

    def check_points(self, i, flow):
        p, prec, a, points = self.inputs[i]
        for x in points:
            values = {"x%d" % (k + 1): TruncatedPadic(p, prec, v)
                      for k, v in enumerate(x)}
            u = [_int(flow.image(name).eval(values)) for name in ("x1", "x2", "x3")]
            if not checks.frobenius_lift_holds(p, prec, a, x, u):
                return "phi(H) != H^p at x = %s" % (x,)
        return None

    def describe(self, systems, outputs):
        return _image_counts([out[0] for out in outputs])


def _construct(s):
    flow = euler.gauge_adjust(euler.build_flow(s), s)
    return (flow, flows.check_prime_integral(flow, s.H1),
            flows.check_prime_integral(flow, s.H2))


def _int(v):
    return v.val if isinstance(v, TruncatedPadic) else int(v)


class Fibres:
    """Fibre and sphere congruences on flows built during set-up.

    Part (a), per sampled admissible fibre c: verify_linearization,
    derive_new2_form with coef = A_{p-1}(c) and with coef = a_p, and the
    point count with hasse_value.  Part (b), per sampled unit c2:
    verify_new1.  Each round starts every system from a fresh flow object
    with the built images, so the per-flow pullback cache is filled inside
    the round, as a caller checking a newly built flow pays it.  One
    operation is one fibre (a) or one c2 (b)."""

    # (p, prec, a_1 = 0)
    SYSTEMS = ((5, 3, True), (7, 3, False), (11, 3, False))
    SMOKE = ((5, 3, True),)
    FIBRES, SPHERES = 40, 2
    SMOKE_FIBRES, SMOKE_SPHERES = 4, 1
    count_padic = False

    def __init__(self, seed, smoke=False):
        rng = random.Random("fibres/%d" % seed)
        nf, ns = ((self.SMOKE_FIBRES, self.SMOKE_SPHERES) if smoke
                  else (self.FIBRES, self.SPHERES))
        self.inputs = []
        for p, prec, zero_first in (self.SMOKE if smoke else self.SYSTEMS):
            a = draw_a(rng, p, zero_first)
            admissible = [(r1, r2) for r1 in range(p) for r2 in range(p)
                          if checks.norm_value(a, r1, r2, p)
                          and checks.hasse_mod_p(p, a, r1, r2)]
            fibres = rng.sample(admissible, min(nf, len(admissible)))
            units = sorted({r2 for _, r2 in admissible if r2})
            c2s = rng.sample(units, min(ns, len(units)))
            self.inputs.append((p, prec, a, fibres, c2s))

    def setup(self):
        state = []
        for p, prec, a, fibres, c2s in self.inputs:
            s = euler.EulerSystem(p, prec, a)
            flow = euler.gauge_adjust(euler.build_flow(s), s)
            state.append((s, flow, [euler.AdmissibleFiber(s, r1, r2) for r1, r2 in fibres],
                          [teichmuller(p, r2, prec) for r2 in c2s]))
        return state

    def round_ops(self, state):
        ops = []
        for i, (s, built, fibres, c2s) in enumerate(state):
            flow = ArithmeticFlow(s.chart, dict(built.images))
            a = self.inputs[i][2]
            ops += [(("a", i, k), lambda s=s, f=flow, fib=fib, a=a: _fibre(s, f, fib, a))
                    for k, fib in enumerate(fibres)]
            ops += [(("b", i, k), lambda s=s, f=flow, c2=c2: euler.verify_new1(f, s, c2))
                    for k, c2 in enumerate(c2s)]
        return ops

    def check(self, label, out):
        part, i, k = label
        if part == "b":
            return None if out.is_zero() else "verify_new1 residual is nonzero"
        p, _, a, fibres, _ = self.inputs[i]
        c = fibres[k]
        if not all(r.is_zero() for r in out["residuals"]):
            return "fibre residual is nonzero at c = %s" % (c,)
        if out["hasse_at"] % p != out["hasse_value"] % p:
            return "hasse_at != hasse_value at c = %s" % (c,)
        ac, ap = checks.hasse_mod_p(p, a, *c), out["ap"]
        if (ap - ac) % p or ap * ap > 4 * p:
            return "a_p = %d breaks the trace congruence or the Hasse bound" % ap
        h = out["h"]
        terms = [(dict(key), coeff.val) for key, coeff in h.num.terms.items()]
        for coef in (ac, ap):
            if checks.linearization_holds(p, a, c, terms, h.den, coef) is None:
                return "h * %d != 1 at a point of the fibre c = %s" % (coef, c)
        return None

    def describe(self, state, outputs):
        return _image_counts([flow for _, flow, _, _ in state])


def _fibre(s, flow, fib, a):
    p = s.p
    c = (fib.c1.val, fib.c2.val)
    lin = euler.verify_linearization(flow, s, fib)
    new2 = euler.derive_new2_form(flow, s, fib)
    _, ap = euler.count_points_and_ap(p, a, c)
    hv = euler.hasse_value(p, a, c)
    new2_ap = euler.derive_new2_form(flow, s, fib, coef=TruncatedPadic(p, 1, ap))
    return {"residuals": (lin, new2, new2_ap), "ap": ap, "hasse_value": hv,
            "hasse_at": s.hasse_at(fib.c1, fib.c2).val,
            "h": euler.pullback_coefficient(flow, s)[0]}


class Lax:
    """Matrix Frobenius lifts: frobenius_star on x = conj(h, g) with h
    diagonal with eigenvalues distinct mod p, frobenius_star_star on x, and
    conjugate_lift of that result.  Set-up forms x with the library.  One
    operation is one matrix through all three lifts."""

    PRIMES, SIZES, PRECS = (5, 7, 11, 13), (2, 3, 4), (2, 3, 4)
    SMOKE = ((5, 7), (2, 3), (2, 3))
    PER_CONFIG = 2
    count_padic = True

    def __init__(self, seed, smoke=False):
        rng = random.Random("lax/%d" % seed)
        primes, sizes, precs = self.SMOKE if smoke else (self.PRIMES, self.SIZES, self.PRECS)
        self.inputs = []
        for p in primes:
            for n in sizes:
                for prec in precs:
                    for _ in range(self.PER_CONFIG):
                        self.inputs.append(self._draw(rng, p, n, prec))

    @staticmethod
    def _draw(rng, p, n, prec):
        m = p ** prec
        eig = [r + p * rng.randrange(p ** (prec - 1)) for r in rng.sample(range(p), n)]
        h = [[eig[i] if i == j else 0 for j in range(n)] for i in range(n)]
        while True:
            g = [[rng.randrange(m) for _ in range(n)] for _ in range(n)]
            if checks.det(g, p):
                break
        alpha = [[rng.randrange(m) for _ in range(n)] for _ in range(n)]
        x = checks.mat_mul(checks.mat_mul(checks.mat_inv(g, p, m), h, m), g, m)
        return p, prec, h, g, alpha, x

    def setup(self):
        def pm(rows, p, prec):
            return lax.PMatrix([[TruncatedPadic(p, prec, v) for v in r] for r in rows])
        return [(lax.conj(pm(h, p, prec), pm(g, p, prec)), pm(alpha, p, prec))
                for p, prec, h, g, alpha, _ in self.inputs]

    def round_ops(self, state):
        return [(i, lambda x=x, al=al, i=i: _lifts(x, al, i))
                for i, (x, al) in enumerate(state)]

    def check(self, i, out):
        p, prec, h, g, _, x = self.inputs[i]
        if not all(_at_prec(y, prec) for y in out):
            return "a lift lost precision"
        bad = checks.lax_lifts_hold(p, prec, h, g, x, *[_ints(y) for y in out])
        return None if bad is None else "%s fails at p=%d n=%d prec=%d" % (
            bad, p, len(h), prec)

    def describe(self, state, outputs):
        return {}


def _lifts(x, alpha, i):
    star = lax.frobenius_star(x)
    # the generator only matters if no standard cyclic vector exists; a fixed
    # one keeps that case the same in every round
    y = lax.frobenius_star_star(x, random.Random(i))
    return star, y, lax.conjugate_lift(y, alpha)


WORKLOADS = {"construct": Construct, "fibres": Fibres, "lax": Lax}
