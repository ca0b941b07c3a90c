"""Jet-ring presentations by prolongation.

A jet presentation records the generators x, x', x'', ... and the relation
chain f, delta f, ..., delta^n f, where delta is the universal derivation
(classical flavor) or the universal p-derivation with
phi(x^(k)) = (x^(k))^p + p x^(k+1) (arithmetic flavor).  Prolonged variables
are named by appending apostrophes.
"""

from __future__ import annotations

from .padic import TruncatedPadic, delta_base
from .poly import MultiPoly


def prime_name(name, k=1):
    return name + "'" * k


def universal_derivation(f, variables):
    """The classical universal derivation: each variable maps to its prime."""
    out = MultiPoly()
    for v in variables:
        df = f.deriv(v)
        if not df.is_zero():
            out = out + df * MultiPoly.var(prime_name(v))
    return out


def universal_p_derivation(f, variables, p):
    """delta f = (phi(f) - f^p)/p over exact integer coefficients.

    phi substitutes v -> v^p + p v' and fixes integer coefficients; the
    difference is divisible by p exactly.
    """
    sub = {}
    for v in variables:
        sub[v] = (MultiPoly.monomial(1, **{v: p})
                  + MultiPoly.var(prime_name(v)) * p)
    phi_f = f.substitute(sub)
    return (phi_f - f ** p).exact_div_p(p)


class JetPresentation:
    """Generators and the prolonged relation chain of a jet ring."""

    def __init__(self, flavor, order, base_vars, relations, p=None):
        self.flavor = flavor
        self.order = order
        self.base_vars = tuple(base_vars)
        self.relations = list(relations)
        self.p = p

    @property
    def variables(self):
        out = []
        for k in range(self.order + 1):
            out.extend(prime_name(v, k) for v in self.base_vars)
        return tuple(out)


def prolong(f, n, flavor="classical", p=None):
    """Prolong a relation to order n under the universal (p-)derivation."""
    if flavor not in ("classical", "arithmetic"):
        raise ValueError("flavor must be classical or arithmetic")
    if flavor == "arithmetic" and p is None:
        raise ValueError("arithmetic prolongation needs a prime")
    base_vars = tuple(sorted(f.variables()))
    relations = [f]
    for k in range(n):
        # variables present at level k
        level_vars = [prime_name(v, j) for j in range(k + 1) for v in base_vars]
        if flavor == "classical":
            relations.append(universal_derivation(relations[-1], level_vars))
        else:
            relations.append(universal_p_derivation(relations[-1], level_vars, p))
    return JetPresentation(flavor, n, base_vars, relations, p)


def jet_of_point(P, n, flavor="classical", p=None):
    """The jet coordinates (P, delta P, ..., delta^n P).

    P maps base variable names to values.  Classical flavor over a constant
    base has all higher coordinates 0; arithmetic flavor applies the Fermat
    quotient repeatedly (losing one digit per level, so TruncatedPadic
    inputs need precision >= N + n).
    """
    coords = dict(P)
    current = dict(P)
    for k in range(1, n + 1):
        nxt = {}
        for v, val in current.items():
            if flavor == "classical":
                dv = 0 * val
            elif isinstance(val, TruncatedPadic):
                dv = delta_base(val)
            elif p is None:
                raise ValueError("arithmetic jets of integers need a prime")
            else:
                dv = (val - val ** p) // p
            nxt[prime_name(v)] = dv
        coords.update(nxt)
        current = nxt
    return coords


def is_solution(relations, point):
    """True iff every relation vanishes at the point (at carried precision)."""
    return all(rel.eval(point) == 0 for rel in relations)
