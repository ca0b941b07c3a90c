"""Sparse multivariate polynomials and localization charts.

A MultiPoly keeps its coefficient ring (ZZ, QQ or Zp(p, N), the interned
rings of padic) once, as f.ring, and its terms as one dict from packed
exponent keys to ints, Fractions or residues in [1, p^N).  A key gives
variable i of one process-wide, append-only table of names the bits
[i*w, (i+1)*w), w the polynomial's field width (Monagan & Pearce, CASC
2007), so adding two keys multiplies the monomials; a product whose exponent
bound would pass 2^w - 1 repacks its operands wider.  TruncatedPadic
appears only at the boundary: MultiPoly(terms) takes a dict from sorted
tuples of (name, exponent) pairs to int, Fraction and TruncatedPadic values,
and f.terms is a read-only view in that format.  Operands from different
rings meet in their ring_join, the rule that TruncatedPadic arithmetic
follows too, and so do the values of that dict: a polynomial has its ring
from the start, so a dict that mixes two primes raises ValueError where it
is made, and one that mixes Fractions with TruncatedPadics TypeError.

A product reduces each result coefficient once.  Over Z/p^N it groups each
operand's terms by the p-adic valuation of their coefficient and skips the
pairs of groups whose valuations add up to N or more, since those products
are 0 mod p^N; so a caller that applies a factor of p before a product, not
after, saves work.

A Chart declares an ordered variable list and a list of denominator factors
that are units on the chart; a ChartElement is numerator / prod(factor_i ^
k_i).  Equality of chart elements is cross-multiplied, no gcd normalization.
Both flavors of flow share two constructs from here: ChartElement.derive
applies a derivation by the quotient rule, and substitute_terms, which forms
each power once, is the substitution loop behind MultiPoly.substitute and phi.
"""

from __future__ import annotations

import re
from collections.abc import Mapping
from fractions import Fraction
from functools import reduce, wraps

from .padic import TruncatedPadic, PrecisionError, ZZ, QQ, Zp, ring_join, _ZZ


# ---------------------------------------------------------------------------
# coefficients

_SCALARS = (int, Fraction, TruncatedPadic)


def _ring_of(c):
    if isinstance(c, TruncatedPadic):
        return c.ring
    if isinstance(c, int):
        return _ZZ
    if isinstance(c, Fraction):
        return QQ()
    raise TypeError("%r is not a coefficient" % (c,))


# ---------------------------------------------------------------------------
# packed exponent keys

_WIDTH = 16           # the field width of a new polynomial, in bits
_INDEX = {}           # variable name -> field number, append-only
_NAMES = []           # field number -> variable name


def _index(name):
    i = _INDEX.get(name)
    if i is None:
        i = _INDEX[name] = len(_NAMES)
        _NAMES.append(name)
    return i


def _width(bound):
    """The field width for exponents up to bound."""
    w = _WIDTH
    while bound >> w:
        w *= 2
    return w


def _pack(pairs, w):
    return sum(e << (_index(name) * w) for name, e in pairs)


def _exponents(k, w):
    """The (field number, exponent) pairs of packed key k."""
    mask = (1 << w) - 1
    i = 0
    while k:
        if k & mask:
            yield i, k & mask
        k >>= w
        i += 1


def _fields(k, w):
    """Packed key k as its (name, exponent) pairs, sorted by name."""
    return sorted((_NAMES[i], e) for i, e in _exponents(k, w))


def _poly(t, ring, w, bound):
    f = object.__new__(MultiPoly)
    f._t, f.ring, f._w, f._b = t, ring, w, bound
    return f


class _Terms(Mapping):
    """The terms of a polynomial, read-only: tuple keys of (name, exponent)
    pairs sorted by name, and int, Fraction or TruncatedPadic values."""

    __slots__ = ("_f",)

    def __init__(self, f):
        self._f = f

    def __len__(self):
        return len(self._f._t)

    def __iter__(self):
        return (tuple(_fields(k, self._f._w)) for k in self._f._t)

    def __getitem__(self, key):
        f = self._f
        if any(name not in _INDEX or e >> f._w for name, e in key):
            raise KeyError(key)
        return f.ring.decode(f._t[_pack(key, f._w)])

    def __repr__(self):
        return repr(dict(self.items()))


# ---------------------------------------------------------------------------
# sparse polynomials

class MultiPoly:
    """Sparse polynomial over one coefficient ring, f.ring; f.terms is a
    read-only view of its terms."""

    __slots__ = ("_t", "ring", "_w", "_b")

    def __init__(self, terms=None):
        """From tuple keys and int, Fraction or TruncatedPadic values, in the
        join of their rings; values with no join raise here."""
        items = dict(terms).items() if terms else ()
        self._b = max((e for key, _ in items for _, e in key), default=0)
        self._w = _width(self._b)
        self.ring = reduce(ring_join, (_ring_of(c) for _, c in items), _ZZ)
        self._t = {_pack(key, self._w): r for key, c in items
                   if (r := self.ring.value(c))}

    @property
    def terms(self):
        return _Terms(self)

    @classmethod
    def monomial(cls, c, **exps):
        ring, bound = _ring_of(c), max(exps.values(), default=0)
        r, w = ring.value(c), _width(bound)
        return _poly({_pack(exps.items(), w): r} if r else {}, ring, w, bound)

    const = monomial

    @classmethod
    def var(cls, name, one=1):
        return cls.monomial(one, **{name: 1})

    def is_zero(self):
        return not self._t

    def variables(self):
        out = set()
        for k in self._t:
            out.update(name for name, _ in _fields(k, self._w))
        return out

    def _over_width(self, ring, w):
        """This polynomial over ring, repacked at field width w."""
        f = self.over(ring)
        if w == f._w:
            return f
        t = {sum(e << (i * w) for i, e in _exponents(k, f._w)): c
             for k, c in f._t.items()}
        return _poly(t, ring, w, f._b)

    def _unify(self, other):
        """self and polynomial other in the join of their rings, at one width."""
        if self.ring is other.ring and self._w == other._w:
            return self, other
        ring, w = ring_join(self.ring, other.ring), max(self._w, other._w)
        return self._over_width(ring, w), other._over_width(ring, w)

    def __add__(self, other):
        other = _operand(other)
        if other is None:
            return NotImplemented
        f, g = self._unify(other)
        m = f.ring.modulus
        out = dict(f._t)
        for k, c in g._t.items():
            # residues lie in [1, m), so a sum is 0 mod m iff it is m; an
            # exact sum (m = 0) is zero iff it is 0
            s = out.get(k, 0) + c
            if s == m:
                del out[k]
            else:
                out[k] = s - m if 0 < m < s else s
        return _poly(out, f.ring, f._w, max(f._b, g._b))

    __radd__ = __add__

    def __neg__(self):
        m = self.ring.modulus
        t = {k: m - c for k, c in self._t.items()} if m else \
            {k: -c for k, c in self._t.items()}
        return _poly(t, self.ring, self._w, self._b)

    def __sub__(self, other):
        other = _operand(other)
        return NotImplemented if other is None else self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        """Scalar or polynomial product, in the join of the operands' rings;
        a polynomial product runs through the kernel _mul_terms."""
        if isinstance(other, _SCALARS):
            return self._scale(other)
        if not isinstance(other, MultiPoly):
            return NotImplemented
        f, g = self._unify(other)
        ring, w, bound = f.ring, f._w, f._b + g._b
        if bound >> w:
            w, square = _width(bound), f is g
            f = f._over_width(ring, w)
            g = f if square else g._over_width(ring, w)
        return _poly(_mul_terms(f._t, g._t, ring), ring, w, bound)

    __rmul__ = __mul__

    def _scale(self, c):
        ring = ring_join(self.ring, _ring_of(c))
        f, r, m = self.over(ring), ring.value(c), ring.modulus
        t = {k: v for k, x in f._t.items() if (v := x * r % m if m else x * r)}
        return _poly(t, ring, f._w, f._b)

    def __pow__(self, n):
        return _power(self, n, MultiPoly.const(1))

    def __eq__(self, other):
        other = _operand(other)
        if other is None:
            return NotImplemented
        f, g = self._unify(other)
        return f._t == g._t

    # == joins the operands' rings, so no hash over one ring's terms agrees
    # with it
    __hash__ = None

    def over(self, ring):
        """This polynomial with its coefficients read in ring: ZZ in QQ or
        Z/p^N, and Z/p^M in Z/p^N.  For N < M that reduces each residue, and
        for N > M it keeps each residue as it is, the lift with top digits 0."""
        src = self.ring
        if ring is src:
            return self
        if src is not _ZZ and (ring.p is None or ring.p != src.p):
            raise TypeError("cannot read %s in %s" % (src.name, ring.name))
        t = {k: r for k, c in self._t.items() if (r := ring.value(c))}
        return _poly(t, ring, self._w, self._b)

    def deriv(self, name):
        w, m = self._w, self.ring.modulus
        s, mask = _index(name) * w, (1 << w) - 1
        t = {k - (1 << s): d for k, c in self._t.items()
             if (e := (k >> s) & mask) and (d := c * e % m if m else c * e)}
        return _poly(t, self.ring, w, self._b)

    def substitute(self, mapping):
        """Substitute variables by polynomials (or leave them in place)."""
        return substitute_terms(
            self, _poly({}, self.ring, _WIDTH, 0), lambda c: c,
            lambda name, e: (mapping[name] ** e if name in mapping
                             else MultiPoly.monomial(1, **{name: e})))

    def at(self, values):
        """The polynomial with each variable named in values set to that
        scalar, in the join of the rings; the other variables stay."""
        ring = reduce(ring_join, map(_ring_of, values.values()), self.ring)
        f, m = self.over(ring), ring.modulus
        mask = (1 << f._w) - 1
        point = [(_index(name) * f._w, ring.value(v)) for name, v in values.items()]
        acc = {}
        for k, c in f._t.items():
            for s, v in point:
                if e := (k >> s) & mask:
                    c *= pow(v, e, m) if m else v ** e
                    k -= e << s
            acc[k] = acc.get(k, 0) + c
        t = {k: r for k, c in acc.items() if (r := c % m if m else c)}
        return _poly(t, ring, f._w, f._b)

    def eval(self, values):
        """Evaluate with all variables bound to coefficients."""
        names = self.variables()
        if not names <= values.keys():
            raise KeyError("no value for variable %r" % min(names - values.keys()))
        f = self.at({name: values[name] for name in names})
        return f.ring.decode(f._t.get(0, 0))

    def exact_div_p(self, p, k=1):
        """Divide every coefficient by p^k exactly; over Z/p^N the result
        lies in Z/p^(N-k)."""
        ring, pk = self.ring, p ** k
        if ring.modulus:
            if ring.prec <= k:
                raise PrecisionError("division by p^%d from precision %d"
                                     % (k, ring.prec))
            ring = Zp(ring.p, ring.prec - k)
        if any(c % pk for c in self._t.values()):
            raise ArithmeticError("coefficients not divisible by %d" % pk)
        return _poly({key: c // pk for key, c in self._t.items()}, ring,
                     self._w, self._b)

    def total_degree(self):
        return max((sum(e for _, e in _exponents(k, self._w)) for k in self._t),
                   default=0)

    def degree_in(self, name):
        s, mask = _index(name) * self._w, (1 << self._w) - 1
        return max(((k >> s) & mask for k in self._t), default=0)

    def coefficient_of(self, name, power):
        """The coefficient of name^power, a polynomial in the other variables."""
        s, mask = _index(name) * self._w, (1 << self._w) - 1
        t = {k - (power << s): c for k, c in self._t.items()
             if (k >> s) & mask == power}
        return _poly(t, self.ring, self._w, self._b)

    def __str__(self):
        if not self._t:
            return "0"
        terms = sorted(((tuple(_fields(k, self._w)), c) for k, c in self._t.items()),
                       key=lambda kc: (-sum(e for _, e in kc[0]), kc[0]))
        parts = []
        for key, c in terms:
            cs = str(c)
            mono = "*".join(
                name if e == 1 else "%s^%d" % (name, e) for name, e in key)
            parts.append(cs if not mono else (mono if cs == "1" else cs + "*" + mono))
        return " + ".join(parts).replace("+ -", "- ")

    __repr__ = __str__


def _operand(x):
    """x as a polynomial, or None if it is neither one nor a coefficient."""
    if isinstance(x, MultiPoly):
        return x
    return MultiPoly.const(x) if isinstance(x, _SCALARS) else None


def substitute_terms(f, zero, lift, power):
    """zero + the sum over the terms c * prod name^e of f of lift(c) * prod
    power(name, e), c a constant of f's ring, each power formed once: the
    substitution loop of MultiPoly.substitute and ArithmeticFlow.phi_poly."""
    out = zero
    powers = {}
    for k, c in f._t.items():
        term = lift(_poly({0: c}, f.ring, _WIDTH, 0))
        for name, e in _fields(k, f._w):
            if (name, e) not in powers:
                powers[name, e] = power(name, e)
            term = term * powers[name, e]
        out = out + term
    return out


def _power(base, n, one):
    """base ** n by square and multiply, starting from one."""
    if n < 0:
        raise ValueError("negative power of %s" % type(base).__name__)
    result = one
    while n:
        if n & 1:
            result = result * base
        n >>= 1
        if n:
            base = base * base
    return result


def _mul_terms(t1, t2, ring):
    """The product of two nonempty term dicts over ring, at one width.

    Over Z/p^N only the pairs of valuation buckets with v1 + v2 < N are
    multiplied, exactly the pairs whose product is not 0 mod p^N; exact
    coefficients form one bucket.  A square (t1 is t2) accumulates each
    unordered pair once: the triangle of a bucket with itself, the
    off-diagonal pairs and every pair across two buckets doubled.  A one-term
    operand shifts the other's keys, skipping the products that vanish."""
    m = ring.modulus
    if len(t2) == 1:
        t1, t2 = t2, t1
    if len(t1) == 1:
        ((k1, c1),) = t1.items()
        if not m:
            return {k1 + k: c1 * c for k, c in t2.items()}
        # c1 * c is 0 mod p^N iff c is 0 mod q = p^(N - v(c1)); for a unit
        # c1 that never happens
        q, r = m, c1
        while not r % ring.p:
            q, r = q // ring.p, r // ring.p
        return {k1 + k: c1 * c % m for k, c in t2.items() if q == m or c % q}
    square = t1 is t2
    if m:
        bound = ring.prec
        left = _buckets(t1, ring.p)
        right = left if square else _buckets(t2, ring.p)
    else:
        bound = 1
        left = [(0, list(t1.items()))]
        right = left if square else [(0, list(t2.items()))]
    acc = {}
    get = acc.get
    for a, (v1, terms1) in enumerate(left):
        for b in range(a if square else 0, len(right)):
            v2, terms2 = right[b]
            if v1 + v2 >= bound:
                break
            triangle = square and a == b
            for i, (k1, c1) in enumerate(terms1):
                if triangle:
                    acc[k1 + k1] = get(k1 + k1, 0) + c1 * c1
                    terms2 = terms1[i + 1:]
                if square:
                    c1 *= 2
                for k2, c2 in terms2:
                    k = k1 + k2
                    acc[k] = get(k, 0) + c1 * c2
    if m:
        return {k: r for k, c in acc.items() if (r := c % m)}
    return {k: c for k, c in acc.items() if c}


def _buckets(t, p):
    """[(v, [(key, c), ...]), ...] by ascending p-adic valuation v of the
    nonzero residues c."""
    buckets = {}
    for k, c in t.items():
        v, r = 0, c
        while not r % p:
            v, r = v + 1, r // p
        buckets.setdefault(v, []).append((k, c))
    return sorted(buckets.items())


# ---------------------------------------------------------------------------
# per-object results

def once(fn):
    """fn(obj, ...) computed once per object and arguments, as given, and
    kept in obj.__dict__ as long as obj lives; a raise is not kept."""
    @wraps(fn)
    def memo(obj, *args, **kwargs):
        key = (fn, args, tuple(kwargs.items()))
        cache = vars(obj).setdefault("_once", {})
        if key not in cache:
            cache[key] = fn(obj, *args, **kwargs)
        return cache[key]
    return memo


# ---------------------------------------------------------------------------
# charts and chart elements

class ChartError(ValueError):
    """A required denominator is not a unit on the chart."""


class Chart:
    """An affine chart: ordered variables, unit denominator factors, ring."""

    def __init__(self, variables, factors=(), ring=None):
        self.vars = tuple(variables)
        self.factors = tuple(factors)
        self.ring = ring if ring is not None else ZZ()
        for f in self.factors:
            if f.is_zero():
                raise ChartError("zero denominator factor")
        self._zero = MultiPoly.const(self.ring.from_int(0))

    @property
    def nfac(self):
        return len(self.factors)

    def zero(self):
        return ChartElement(self, self._zero, (0,) * self.nfac)

    def one(self):
        return self.const(1)

    def const(self, c):
        return ChartElement(self, MultiPoly.const(self.ring.from_int(c))
                            if isinstance(c, int) else MultiPoly.const(c),
                            (0,) * self.nfac)

    def elem(self, num, den=None):
        """num as a chart element; one of this chart is returned unchanged."""
        if isinstance(num, ChartElement):
            if num.chart is not self:
                raise ValueError("chart mismatch")
            return num
        if not isinstance(num, MultiPoly):
            num = MultiPoly.const(num)
        if den is None:
            den = (0,) * self.nfac
        return ChartElement(self, num, tuple(den))

    def var(self, name):
        if name not in self.vars:
            raise ValueError("%r is not a chart variable" % name)
        return self.elem(MultiPoly.var(name))

    @once
    def reduce_mod_p(self):
        """The same chart with coefficients reduced to F_p (Zp rings only)."""
        if not isinstance(self.ring, Zp):
            raise TypeError("reduce_mod_p needs a p-adic chart")
        gf = Zp(self.ring.p, 1)
        facs = tuple(reduce_poly_mod_p(f, gf) for f in self.factors)
        return Chart(self.vars, facs, gf)


reduce_poly_mod_p = MultiPoly.over


class ChartElement:
    """numerator / prod(chart.factors[i] ^ den[i])."""

    __slots__ = ("chart", "num", "den")

    def __init__(self, chart, num, den):
        self.chart = chart
        self.num = num
        self.den = tuple(den)

    def _align(self, other):
        if isinstance(other, _SCALARS):
            return self.chart.const(other)
        if isinstance(other, ChartElement):
            return self.chart.elem(other)
        return None

    def _common(self, o):
        """Both numerators over the least common denominator of the nonzero
        ones (of both, if both are zero); a zero numerator stays as it is,
        so its den multiplies nothing."""
        dens = [e.den for e in (self, o) if not e.num.is_zero()] or [self.den, o.den]
        den = tuple(map(max, zip(*dens)))
        n1 = self.num
        n2 = o.num
        for i, f in enumerate(self.chart.factors):
            if den[i] > self.den[i] and not n1.is_zero():
                n1 = n1 * f ** (den[i] - self.den[i])
            if den[i] > o.den[i] and not n2.is_zero():
                n2 = n2 * f ** (den[i] - o.den[i])
        return n1, n2, den

    def __add__(self, other):
        o = self._align(other)
        if o is None:
            return NotImplemented
        n1, n2, den = self._common(o)
        return ChartElement(self.chart, n1 + n2, den)

    __radd__ = __add__

    def __neg__(self):
        return ChartElement(self.chart, -self.num, self.den)

    def __sub__(self, other):
        o = self._align(other)
        if o is None:
            return NotImplemented
        return self + (-o)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if isinstance(other, _SCALARS):
            return ChartElement(self.chart, self.num * other, self.den)
        o = self._align(other)
        if o is None:
            return NotImplemented
        return ChartElement(self.chart, self.num * o.num,
                            tuple(a + b for a, b in zip(self.den, o.den)))

    __rmul__ = __mul__

    def __pow__(self, n):
        return _power(self, n, self.chart.one())

    def div_factor(self, index, k=1):
        den = list(self.den)
        den[index] += k
        return ChartElement(self.chart, self.num, den)

    def derive(self, D):
        """D of this element by the quotient rule, for a derivation D from
        polynomials to chart elements: D(num)/den - sum_i k_i num D(f_i) /
        (f_i den), with k_i = den[i] and f_i the chart's factors.  The scalar
        -k_i is applied before the product, so terms it kills mod p^N are
        never multiplied."""
        d = D(self.num)
        out = ChartElement(self.chart, d.num,
                           tuple(a + b for a, b in zip(d.den, self.den)))
        for i, (f, k) in enumerate(zip(self.chart.factors, self.den)):
            if not k:
                continue
            df = D(f)
            if not df.is_zero():
                out = out + (self * -k).div_factor(i) * df
        return out

    def __eq__(self, other):
        o = self._align(other)
        if o is None:
            return NotImplemented
        n1, n2, _ = self._common(o)
        return (n1 - n2).is_zero()

    __hash__ = None

    def is_zero(self):
        return self.num.is_zero()

    def exact_div_p(self, k=1):
        ring = self.chart.ring
        if isinstance(ring, Zp):
            return ChartElement(self.chart, self.num.exact_div_p(ring.p, k), self.den)
        raise TypeError("exact_div_p needs a p-adic chart")

    def reduce_mod_p(self):
        cp = self.chart.reduce_mod_p()
        return ChartElement(cp, reduce_poly_mod_p(self.num, cp.ring), self.den)

    def eval(self, values):
        """Evaluate at a point; raises ChartError if a factor is not a unit."""
        total = self.num.eval(values)
        ring = self.chart.ring
        for f, k in zip(self.chart.factors, self.den):
            if not k:
                continue
            fv = f.eval(values)
            if not ring.is_unit(fv):
                raise ChartError("denominator %s is not a unit at the point" % f)
            total = total * ring.inv(fv) ** k
        return total

    def __str__(self):
        if all(k == 0 for k in self.den):
            return str(self.num)
        dens = " * ".join("(%s)^%d" % (f, k)
                          for f, k in zip(self.chart.factors, self.den) if k)
        return "(%s) / [%s]" % (self.num, dens)

    __repr__ = __str__


# ---------------------------------------------------------------------------
# normal forms on Euler fibers and spheres

class SphereNF:
    """Normal form modulo (H2 - c2): substitute x1^2 <- c2 - x2^2 - x3^2.

    Representatives have x1-degree <= 1, i.e. live in k[x2,x3]{1, x1}.
    """

    def __init__(self, chart, c2):
        self.chart = chart
        self.c2 = c2
        one = chart.ring.from_int(1)
        self.sub = (-MultiPoly.monomial(one, x2=2) - MultiPoly.monomial(one, x3=2)
                    + c2)
        for f in chart.factors:
            if self.nf_poly(f).is_zero():
                raise ChartError("chart factor %s vanishes on the surface" % f)

    def _rules(self):
        return (("x1", self.sub),)

    def nf_poly(self, poly):
        for name, rhs in self._rules():
            poly = _reduce_var_squared(poly, name, rhs)
        return poly

    def nf(self, elem):
        return ChartElement(elem.chart, self.nf_poly(elem.num), elem.den)

    def is_zero(self, elem):
        return self.nf_poly(elem.num).is_zero()

    def eq(self, e1, e2):
        return self.is_zero(e1 - e2)


class FiberNF(SphereNF):
    """Normal form modulo (H1 - c1, H2 - c2).

    Both rules are polynomials in x3 alone:
      x2^2 <- sub2 = ((c1 - a1 c2) - (a3 - a1) x3^2) / (a2 - a1),
      x1^2 <- c2 - x3^2 - sub2,
    i.e. the sphere rule already reduced by the x2 rule.  Neither rule brings
    the other variable back, so each pass lowers its degree directly, without
    expanding through high x2-degrees.  Representatives live in
    k[x3]{1, x1, x2, x1 x2}, which is free over k[x3], so they are unique.

    c1 and c2 are scalars, or polynomials in variables off the chart, such as
    symbols z1, z2.  With symbols the normal form lies in
    k[z1, z2, x3]{1, x1, x2, x1 x2}: k[x1, x2, x3] is free over
    k[H1, H2, x3] on that basis, so it is unique too, and setting z = c in it
    gives the normal form at the scalars c, since every rewrite commutes with
    that substitution.
    """

    def __init__(self, chart, a, c1, c2):
        a1, a2, a3 = a
        d = a2 - a1
        ring = chart.ring
        if not ring.is_unit(d):
            raise ChartError("a2 - a1 must be a unit for the fiber normal form")
        dinv = ring.inv(d)
        # polynomial first, so a scalar or a polynomial c is added alike
        self.sub2 = (MultiPoly.monomial(-(a3 - a1) * dinv, x3=2)
                     + (c1 - a1 * c2) * dinv)
        self.sub1 = -MultiPoly.monomial(ring.from_int(1), x3=2) - self.sub2 + c2
        SphereNF.__init__(self, chart, c2)

    def _rules(self):
        return (("x1", self.sub1), ("x2", self.sub2))


def _reduce_var_squared(poly, name, rhs):
    """Rewrite name^2 -> rhs until the degree in name is <= 1."""
    rhs_pows = {0: MultiPoly.const(1), 1: rhs}
    while True:
        ring, w = poly.ring, poly._w
        s, mask = _index(name) * w, (1 << w) - 1
        high = [(k, c) for k, c in poly._t.items() if (k >> s) & mask >= 2]
        if not high:
            return poly
        acc = _poly({k: c for k, c in poly._t.items() if (k >> s) & mask < 2},
                    ring, w, poly._b)
        for k, c in high:
            q = ((k >> s) & mask) >> 1
            if q not in rhs_pows:
                rhs_pows[q] = rhs ** q
            rest = _poly({k - (q << (s + 1)): c}, ring, w, poly._b)
            acc = acc + rest * rhs_pows[q]
        poly = acc


# ---------------------------------------------------------------------------
# plain-text polynomial parsing (CLI interface)

class ParseError(ValueError):
    pass


def parse_poly(text, ring=None):
    """Parse '+ - * ^'-expressions with integer coefficients and parentheses.

    Variable names are letters followed by digits/letters/apostrophes.
    """
    ring = ring or ZZ()
    tokens = _tokenize(text)[::-1]      # a stack: the next token is last

    def peek():
        return tokens[-1] if tokens else None

    def take():
        return tokens.pop() if tokens else None

    def parse_expr():
        sign = -1 if peek() == "-" else 1
        if peek() in ("+", "-"):
            take()
        node = parse_term() * sign
        while peek() in ("+", "-"):
            op = take()
            rhs = parse_term()
            node = node + rhs if op == "+" else node - rhs
        return node

    def parse_term():
        node = parse_power()
        while peek() == "*":
            take()
            node = node * parse_power()
        return node

    def parse_power():
        base = parse_atom()
        if peek() != "^":
            return base
        take()
        e = take()
        if not isinstance(e, int):
            raise ParseError("exponent must be a nonnegative integer")
        return base ** e

    def parse_atom():
        t = take()
        if t == "(":
            node = parse_expr()
            if take() != ")":
                raise ParseError("missing closing parenthesis")
            return node
        if isinstance(t, int):
            return MultiPoly.const(ring.from_int(t))
        if isinstance(t, str) and t not in "+-*^()":
            return MultiPoly.var(t, ring.from_int(1))
        raise ParseError("unexpected token %r" % (t,))

    try:
        node = parse_expr()
    except RecursionError:
        raise ParseError("expression nested too deeply") from None
    if tokens:
        raise ParseError("trailing input at token %r" % (peek(),))
    return node


_TOKEN = re.compile(r"\s*(?:(\d+)|([^\W\d][\w']*)|([-+*^()])|(\S))")


def _tokenize(text):
    out = []
    for num, name, op, bad in _TOKEN.findall(text):
        if bad:
            raise ParseError("bad character %r" % bad)
        out.append(int(num) if num else name or op)
    return out
