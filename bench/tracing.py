"""Per-layer tracing for the traced benchmark run.

The tracer wraps arithflow's public functions and methods at run time; no file
under src/ is edited.  Each wrapped call records a span (name, start, end,
parent) in flat in-memory arrays, and some wrappers also bump exact counters.
Spans are written out once, when the run ends; self time is derived from them
as a span's duration minus the durations of its direct children.  Tracing
records only while `on` is set, so set-up and rounds are traced and the
benchmark's own checks are not.
"""

import gzip
import json
from array import array
from collections import Counter
from time import perf_counter

import arithflow
from arithflow import euler, flows, forms, lax, padic, poly

_MODULES = (arithflow, euler, flows, forms, lax, padic, poly)
_ABSENT = object()


def _count_mul(counts, a, b):
    if isinstance(b, poly.MultiPoly):
        counts["poly.mul_calls"] += 1
        counts["poly.mul_term_pairs"] += len(a.terms) * len(b.terms)
        return True
    return False


def _count_nf(counts, nf, p):
    counts["poly.nf_calls"] += 1
    counts["poly.nf_input_terms"] += len(p.terms)
    return True


def _count_padic(counts, *args):
    counts["padic.mul_calls"] += 1
    return False


# (span name, owner, attribute names, counter).  A counter returns whether the
# call gets a span: scalar products of polynomials and p-adic products are
# counted but not spanned.
_METHODS = (
    ("poly.mul", poly.MultiPoly, ("__mul__", "__rmul__"), _count_mul),
    ("poly.pow", poly.MultiPoly, ("__pow__",), None),
    ("poly.substitute", poly.MultiPoly, ("substitute",), None),
    ("poly.chart_add", poly.ChartElement, ("__add__", "__radd__"), None),
    ("poly.chart_mul", poly.ChartElement, ("__mul__", "__rmul__"), None),
    # FiberNF inherits nf_poly; a wrapper set on FiberNF itself names its calls
    ("poly.fibre_nf", poly.FiberNF, ("nf_poly",), _count_nf),
    ("poly.sphere_nf", poly.SphereNF, ("nf_poly",), _count_nf),
    ("forms.wedge", forms.DiffForm, ("wedge",), None),
    ("forms.contract", forms.FiberFrame, ("contract_1form", "contract_2form"), None),
    ("flows.phi_poly", flows.ArithmeticFlow, ("phi_poly",), None),
    ("euler.system", euler.EulerSystem, ("__init__",), None),
    ("lax.inv", lax.PMatrix, ("inv",), None),
)

_FUNCTIONS = (
    ("forms.phi_star_over_p", forms.phi_star_over_p),
    ("flows.prime_integral", flows.check_prime_integral),
    ("euler.build_flow", euler.build_flow),
    ("euler.gauge_adjust", euler.gauge_adjust),
    ("euler.pullback", euler.pullback_coefficient),
    ("euler.verify_linearization", euler.verify_linearization),
    ("euler.derive_new2", euler.derive_new2_form),
    ("euler.point_count", euler.count_points_and_ap),
    ("euler.point_count", euler.hasse_value),
    ("euler.verify_new1", euler.verify_new1),
    ("lax.frobenius_star", lax.frobenius_star),
    ("lax.frobenius_star_star", lax.frobenius_star_star),
    ("lax.conjugate_lift", lax.conjugate_lift),
    ("lax.char_poly", lax.char_poly),
)

# TruncatedPadic arithmetic runs millions of times in the Euler workloads, so
# it is counted only where the workload asks for it (lax).
_PADIC = ("padic.mul", padic.TruncatedPadic, ("__mul__", "__rmul__"), _count_padic)


class Tracer:
    """Span recorder; install() patches the library, uninstall() restores it."""

    def __init__(self, count_padic=False):
        self.on = False
        self.names = []
        self.name_id = array("H")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("l")
        self.nested = array("b")   # 1 if an enclosing span has the same name
        self.counts = Counter()
        self._stack = []
        self._active = []
        self._undo = []
        self._count_padic = count_padic

    def _id(self, name):
        if name not in self.names:
            self.names.append(name)
            self._active.append(0)
        return self.names.index(name)

    def _wrap(self, name, fn, counter):
        nid = self._id(name)
        tr = self

        def wrapped(*args, **kwargs):
            if not tr.on or (counter is not None and not counter(tr.counts, *args)):
                return fn(*args, **kwargs)
            idx = len(tr.start)
            stack = tr._stack
            tr.name_id.append(nid)
            tr.parent.append(stack[-1] if stack else -1)
            tr.nested.append(tr._active[nid] > 0)
            tr.start.append(0.0)
            tr.end.append(0.0)
            stack.append(idx)
            tr._active[nid] += 1
            t0 = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                t1 = perf_counter()
                tr.start[idx] = t0
                tr.end[idx] = t1
                stack.pop()
                tr._active[nid] -= 1

        return wrapped

    def _patch(self, owner, attr, value):
        self._undo.append((owner, attr, vars(owner).get(attr, _ABSENT)))
        setattr(owner, attr, value)

    def install(self):
        methods = _METHODS + ((_PADIC,) if self._count_padic else ())
        for name, cls, attrs, counter in methods:
            # look each method up through the class, so that FiberNF's
            # wrapper wraps the nf_poly it inherits
            for attr in attrs:
                self._patch(cls, attr, self._wrap(name, getattr(cls, attr), counter))
        for name, fn in _FUNCTIONS:
            wrapped = self._wrap(name, fn, None)
            for mod in _MODULES:
                for attr, value in list(vars(mod).items()):
                    if value is fn:
                        self._patch(mod, attr, wrapped)

    def uninstall(self):
        while self._undo:
            owner, attr, old = self._undo.pop()
            if old is _ABSENT:
                delattr(owner, attr)
            else:
                setattr(owner, attr, old)

    def mark(self):
        """A phase boundary: the span index and a copy of the counters."""
        return len(self.start), Counter(self.counts)

    def summary(self, lo, hi):
        """Per-name inclusive time (outermost spans only) and self time over
        the spans recorded between two marks."""
        child = [0.0] * (hi - lo)
        for i in range(lo, hi):
            par = self.parent[i]
            if par >= lo:
                child[par - lo] += self.end[i] - self.start[i]
        incl, own = Counter(), Counter()
        for i in range(lo, hi):
            name = self.names[self.name_id[i]]
            dur = self.end[i] - self.start[i]
            own[name] += dur - child[i - lo]
            if not self.nested[i]:
                incl[name] += dur
        return incl, own

    def write(self, path):
        data = {"names": self.names, "name_id": self.name_id.tolist(),
                "start": self.start.tolist(), "end": self.end.tolist(),
                "parent": self.parent.tolist()}
        with gzip.open(path, "wt") as fh:
            json.dump(data, fh)


# (metric, unit, source, key): source "incl" and "self" are span times,
# "count" an exact counter.
PER_LAYER = (
    ("poly.mul_calls", "count", "count", "poly.mul_calls"),
    ("poly.mul_term_pairs", "count", "count", "poly.mul_term_pairs"),
    ("poly.mul_self_s", "s", "self", "poly.mul"),
    ("poly.pow_s", "s", "incl", "poly.pow"),
    ("poly.substitute_s", "s", "incl", "poly.substitute"),
    ("poly.chart_add_s", "s", "incl", "poly.chart_add"),
    ("poly.chart_add_self_s", "s", "self", "poly.chart_add"),
    ("poly.chart_mul_s", "s", "incl", "poly.chart_mul"),
    ("poly.fibre_nf_s", "s", "incl", "poly.fibre_nf"),
    ("poly.sphere_nf_s", "s", "incl", "poly.sphere_nf"),
    ("poly.nf_calls", "count", "count", "poly.nf_calls"),
    ("poly.nf_input_terms", "count", "count", "poly.nf_input_terms"),
    ("forms.phi_star_over_p_s", "s", "incl", "forms.phi_star_over_p"),
    ("forms.wedge_s", "s", "incl", "forms.wedge"),
    ("forms.contract_s", "s", "incl", "forms.contract"),
    ("flows.prime_integral_s", "s", "incl", "flows.prime_integral"),
    ("flows.phi_poly_s", "s", "incl", "flows.phi_poly"),
    ("euler.system_s", "s", "incl", "euler.system"),
    ("euler.build_flow_s", "s", "incl", "euler.build_flow"),
    ("euler.gauge_adjust_s", "s", "incl", "euler.gauge_adjust"),
    ("euler.pullback_s", "s", "incl", "euler.pullback"),
    ("euler.verify_linearization_s", "s", "incl", "euler.verify_linearization"),
    ("euler.derive_new2_s", "s", "incl", "euler.derive_new2"),
    ("euler.point_count_s", "s", "incl", "euler.point_count"),
    ("euler.verify_new1_s", "s", "incl", "euler.verify_new1"),
    ("lax.frobenius_star_s", "s", "incl", "lax.frobenius_star"),
    ("lax.frobenius_star_star_s", "s", "incl", "lax.frobenius_star_star"),
    ("lax.conjugate_lift_s", "s", "incl", "lax.conjugate_lift"),
    ("lax.inv_s", "s", "incl", "lax.inv"),
    ("lax.char_poly_s", "s", "incl", "lax.char_poly"),
    ("padic.mul_calls", "count", "count", "padic.mul_calls"),
)


def per_layer_metrics(tracer, setup_marks, round_marks, described):
    """Per-layer values for one set-up plus one round: the set-up phase is
    traced once, and round totals are divided by the number of rounds.

    setup_marks and round_marks are (start mark, end mark) pairs; described
    holds the counts the workload reads off its built flows."""
    def phase(marks):
        (lo, c0), (hi, c1) = marks
        incl, own = tracer.summary(lo, hi)
        counts = Counter(c1)
        counts.subtract(c0)
        return {"incl": incl, "self": own, "count": counts}

    setup = phase(setup_marks)
    rounds = [phase(m) for m in round_marks]
    out = {}
    for metric, unit, source, key in PER_LAYER:
        value = setup[source][key] + sum(r[source][key] for r in rounds) / len(rounds)
        out[metric] = {"value": value, "unit": unit}
    pairs = out["poly.mul_term_pairs"]["value"]
    self_s = out["poly.mul_self_s"]["value"]
    out["poly.mul_term_pairs_per_s"] = {"value": pairs / self_s if self_s else 0.0,
                                        "unit": "1/s"}
    for metric in ("euler.image_terms", "euler.image_den_max"):
        out[metric] = {"value": described.get(metric, 0), "unit": "count"}
    return out
