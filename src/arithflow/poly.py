"""Sparse multivariate polynomials and localization charts.

Polynomials are dicts mapping sparse exponent keys (sorted tuples of
(variable name, exponent) pairs) to nonzero coefficients.  Coefficients may
be plain ints, fractions.Fraction, or TruncatedPadic; mixed int arithmetic
coerces naturally.

The product of two polynomials packs each exponent key into one int over the
sorted union of the operands' variables (Monagan & Pearce, "Polynomial
division using dynamic arrays, heaps, and packed exponent vectors", CASC
2007), multiplies plain-int or Fraction coefficients into one accumulator and
reduces each result coefficient once, then unpacks the nonzero results to the
key format above.  Over Z/p^N it groups each operand's terms by the p-adic
valuation of their coefficient and skips every pair of groups whose
valuations add up to N or more, since those products are 0 mod p^N; so a
caller that applies a factor of p before a product, not after, saves work.
A square sums each unordered pair of terms once, and a one-term operand only
shifts the other's keys.  On every path, if either operand has TruncatedPadic
coefficients, all of them must share one p, and the product lies in Z/p^N
with N the least precision among them; int coefficients are exact and are
taken to that precision.  So an int coefficient next to TruncatedPadic ones
yields TruncatedPadic results, and mixed precisions truncate to the minimum,
the rule TruncatedPadic arithmetic already follows.

A Chart declares an ordered variable list and a list of denominator factors
that are units on the chart; a ChartElement is numerator / prod(factor_i ^
k_i).  Equality of chart elements is cross-multiplied, no gcd normalization.
Both flavors of flow share two constructs from here: ChartElement.derive
applies a derivation by the quotient rule, and substitute_terms, which forms
each power once, is the substitution loop behind MultiPoly.substitute and phi.
"""

from __future__ import annotations

from fractions import Fraction

from .padic import TruncatedPadic


# ---------------------------------------------------------------------------
# coefficient rings

class ZZ:
    """Exact integers."""
    name = "ZZ"

    def from_int(self, n):
        return n

    def is_unit(self, c):
        return c in (1, -1)

    def inv(self, c):
        if c == 1 or c == -1:
            return c
        raise ZeroDivisionError("%r is not a unit in ZZ" % (c,))


class QQ:
    """Exact rationals."""
    name = "QQ"

    def from_int(self, n):
        return Fraction(n)

    def is_unit(self, c):
        return c != 0

    def inv(self, c):
        return 1 / Fraction(c)


class Zp:
    """Z/p^prec with explicit precision; prec=1 is the field F_p."""

    def __init__(self, p, prec):
        self.p = p
        self.prec = prec
        self.name = "Z/%d^%d" % (p, prec)

    def from_int(self, n):
        return TruncatedPadic(self.p, self.prec, n)

    def is_unit(self, c):
        return self.coerce(c).is_unit()

    def inv(self, c):
        return self.coerce(c).inv()

    def coerce(self, c):
        if isinstance(c, TruncatedPadic):
            return c
        return TruncatedPadic(self.p, self.prec, c)

    def __eq__(self, other):
        return isinstance(other, Zp) and (self.p, self.prec) == (other.p, other.prec)

    def __hash__(self):
        return hash((self.p, self.prec))


# ---------------------------------------------------------------------------
# sparse polynomials

class MultiPoly:
    """Sparse polynomial; terms maps exponent keys to nonzero coefficients."""

    __slots__ = ("terms",)

    def __init__(self, terms=None):
        self.terms = {}
        if terms:
            for key, c in dict(terms).items():
                if not _coeff_is_zero(c):
                    self.terms[key] = c

    @classmethod
    def _raw(cls, terms):
        obj = object.__new__(cls)
        obj.terms = terms
        return obj

    @classmethod
    def const(cls, c):
        if _coeff_is_zero(c):
            return cls._raw({})
        return cls._raw({(): c})

    @classmethod
    def var(cls, name, one=1):
        return cls._raw({((name, 1),): one})

    @classmethod
    def monomial(cls, c, **exps):
        key = tuple(sorted((n, e) for n, e in exps.items() if e))
        if _coeff_is_zero(c):
            return cls._raw({})
        return cls._raw({key: c})

    def is_zero(self):
        return not self.terms

    def variables(self):
        out = set()
        for key in self.terms:
            for name, _ in key:
                out.add(name)
        return out

    def __add__(self, other):
        if isinstance(other, (int, Fraction, TruncatedPadic)):
            other = MultiPoly.const(other)
        if not isinstance(other, MultiPoly):
            return NotImplemented
        out = dict(self.terms)
        for key, c in other.terms.items():
            if key in out:
                s = out[key] + c
                if _coeff_is_zero(s):
                    del out[key]
                else:
                    out[key] = s
            else:
                out[key] = c
        return MultiPoly._raw(out)

    __radd__ = __add__

    def __neg__(self):
        return MultiPoly._raw({k: -c for k, c in self.terms.items()})

    def __sub__(self, other):
        if isinstance(other, (int, Fraction, TruncatedPadic)):
            other = MultiPoly.const(other)
        if not isinstance(other, MultiPoly):
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        """Scalar or polynomial product.

        A polynomial product runs through the packed-exponent kernel: keys
        are packed into ints, coefficients multiplied as plain ints (or
        Fractions) and each result reduced once.  With TruncatedPadic
        coefficients in either operand the product is reduced mod p^N, N the
        least precision among them; an int coefficient is exact and taken to
        that precision, so int and TruncatedPadic coefficients in one operand
        give TruncatedPadic results, and mixed precisions truncate to the
        minimum.  Mismatched primes raise ValueError."""
        if isinstance(other, (int, Fraction, TruncatedPadic)):
            if _coeff_is_zero(other):
                return MultiPoly._raw({})
            return MultiPoly._raw(
                {k: v for k, v in ((k, c * other) for k, c in self.terms.items())
                 if not _coeff_is_zero(v)})
        if not isinstance(other, MultiPoly):
            return NotImplemented
        if not self.terms or not other.terms:
            return MultiPoly._raw({})
        return MultiPoly._raw(_mul_terms(self.terms, other.terms))

    __rmul__ = __mul__

    def __pow__(self, n):
        return _power(self, n, MultiPoly.const(1))

    def __eq__(self, other):
        if isinstance(other, (int, Fraction, TruncatedPadic)):
            other = MultiPoly.const(other)
        if not isinstance(other, MultiPoly):
            return NotImplemented
        return (self - other).is_zero()

    def __hash__(self):
        return hash(frozenset(self.terms))

    def deriv(self, name):
        out = {}
        for key, c in self.terms.items():
            d = dict(key)
            e = d.get(name, 0)
            if not e:
                continue
            if e == 1:
                del d[name]
            else:
                d[name] = e - 1
            nc = c * e
            # d keeps the sorted order of key, and distinct keys have
            # distinct derivative keys, so nothing needs merging
            if not _coeff_is_zero(nc):
                out[tuple(d.items())] = nc
        return MultiPoly._raw(out)

    def substitute(self, mapping):
        """Substitute variables by polynomials (or leave them in place)."""
        return substitute_terms(
            self.terms, MultiPoly._raw({}), MultiPoly.const,
            lambda name, e: (mapping[name] ** e if name in mapping
                             else MultiPoly._raw({((name, e),): 1})))

    def eval(self, values):
        """Evaluate with all variables bound to coefficients."""
        total = None
        for key, c in self.terms.items():
            t = c
            for name, e in key:
                if name not in values:
                    raise KeyError("no value for variable %r" % name)
                t = t * values[name] ** e
            total = t if total is None else total + t
        if total is None:
            return 0
        return total

    def map_coeffs(self, fn):
        out = {}
        for key, c in self.terms.items():
            nc = fn(c)
            if not _coeff_is_zero(nc):
                out[key] = nc
        return MultiPoly._raw(out)

    def frobenius_exponents(self, p):
        """Scale all exponents by p (x -> x^p substitution)."""
        return MultiPoly._raw(
            {tuple((n, e * p) for n, e in key): c for key, c in self.terms.items()})

    def exact_div_p(self, p, k=1):
        """Divide every coefficient by p^k exactly."""
        def div(c):
            if isinstance(c, TruncatedPadic):
                return c.exact_div_p(k)
            pk = p ** k
            if c % pk != 0:
                raise ArithmeticError("coefficient %r not divisible by %d" % (c, pk))
            return c // pk
        return MultiPoly._raw({key: div(c) for key, c in self.terms.items()})

    def total_degree(self):
        if not self.terms:
            return 0
        return max(sum(e for _, e in key) for key in self.terms)

    def degree_in(self, name):
        deg = 0
        for key in self.terms:
            for n, e in key:
                if n == name and e > deg:
                    deg = e
        return deg

    def coefficient_of(self, name, power):
        """The coefficient of name^power, a polynomial in the other variables."""
        out = {}
        for key, c in self.terms.items():
            d = dict(key)
            if d.get(name, 0) == power:
                d.pop(name, None)
                out[tuple(sorted(d.items()))] = c
        return MultiPoly._raw(out)

    def __str__(self):
        if not self.terms:
            return "0"
        parts = []
        for key in sorted(self.terms, key=lambda k: (-sum(e for _, e in k), k)):
            c = self.terms[key]
            cs = str(c.val) if isinstance(c, TruncatedPadic) else str(c)
            mono = "*".join(
                name if e == 1 else "%s^%d" % (name, e) for name, e in key)
            parts.append(cs if not mono else (mono if cs == "1" else cs + "*" + mono))
        return " + ".join(parts).replace("+ -", "- ")

    __repr__ = __str__


def substitute_terms(terms, zero, const, power):
    """zero + the sum of const(c) * prod power(name, e) over the terms c *
    prod name^e, each power formed once: the substitution loop of both
    MultiPoly.substitute and ArithmeticFlow.phi_poly."""
    out = zero
    powers = {}
    for key, c in terms.items():
        term = const(c)
        for name, e in key:
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


def _coeff_is_zero(c):
    if isinstance(c, TruncatedPadic):
        return c.val == 0
    return c == 0


def _mul_terms(t1, t2):
    """The product of two nonempty term dicts, by packed exponent vectors.

    Variable i of the sorted union owns bits [i*w, (i+1)*w) of a packed key,
    with w the bit length of the sum of the operands' maximum exponents, so
    no exponent of the product overflows its field and adding two packed
    keys multiplies the monomials.  Each operand's packed terms are grouped
    in buckets by the p-adic valuation v of their coefficient, and only the
    bucket pairs with v1 + v2 < N are multiplied, N the precision of the
    result: the pairs skipped are exactly those whose product is 0 mod p^N.
    Exact coefficients form one bucket that is always multiplied.  A square
    (t1 is t2) packs once and accumulates each unordered pair once: the
    triangle of a bucket with itself, the off-diagonal pairs and every pair
    across two buckets doubled.  A one-term operand shifts the other's keys
    by its monomial, with no packing.  Every path takes its coefficient rule
    from _coefficient_rule, so all give the same result as the double loop
    over packed pairs."""
    value, nonzero, p, bound = _coefficient_rule(t1, t2)
    if len(t2) == 1:
        t1, t2 = t2, t1
    if len(t1) == 1:
        ((mono, c1),) = t1.items()
        c1 = value(c1)
        return dict(nonzero((_shift_key(k, mono) if mono else k, c1 * value(c))
                            for k, c in t2.items()))
    names = set()
    width = (_max_exponent(t1, names) + _max_exponent(t2, names)).bit_length()
    fields = [(name, i * width) for i, name in enumerate(sorted(names))]
    shift = dict(fields)
    mask = (1 << width) - 1

    def pack(terms):
        """[(v, [(packed key, value), ...]), ...] by ascending v < bound."""
        packed = [(sum(e << shift[name] for name, e in key), value(c))
                  for key, c in terms.items()]
        if p is None:
            return [(0, packed)]
        buckets = {}
        for k, c in packed:
            v, r = 0, c
            while v < bound and not r % p:
                v, r = v + 1, r // p
            if v < bound:
                buckets.setdefault(v, []).append((k, c))
        return sorted(buckets.items())

    left = pack(t1)
    square = t1 is t2
    right = left if square else pack(t2)
    acc = {}
    for a, (v1, terms1) in enumerate(left):
        for b in range(a if square else 0, len(right)):
            v2, terms2 = right[b]
            if v1 + v2 >= bound:
                break
            triangle = square and a == b
            for i, (k1, c1) in enumerate(terms1):
                if triangle:
                    acc[k1 + k1] = acc.get(k1 + k1, 0) + c1 * c1
                    terms2 = terms1[i + 1:]
                if square:
                    c1 *= 2
                for k2, c2 in terms2:
                    k = k1 + k2
                    if k in acc:
                        acc[k] += c1 * c2
                    else:
                        acc[k] = c1 * c2
    return {tuple([(name, e) for name, s in fields if (e := (k >> s) & mask)]): c
            for k, c in nonzero(acc.items())}


def _coefficient_rule(t1, t2):
    """(value, nonzero, p, bound) for the product of t1 and t2: value turns a
    coefficient into the plain int or Fraction that is multiplied, nonzero
    turns (key, product sum) pairs into (key, result coefficient) pairs,
    dropping zeros, and two values are multiplied only if their p-adic
    valuations add up to less than bound.  With TruncatedPadic coefficients
    in either operand they must share one p (else ValueError) and the results
    lie in Z/p^N, N the least precision among them and the bound; int
    coefficients are exact and take N.  Exact products have p None and bound
    1: every value counts as valuation 0."""
    padics = [c for c in (*t1.values(), *t2.values())
              if isinstance(c, TruncatedPadic)]
    if not padics:
        return ((lambda c: c), (lambda pairs: ((k, c) for k, c in pairs if c)),
                None, 1)
    p = padics[0].p
    for c in padics:
        if c.p != p:
            raise ValueError("prime mismatch: %d vs %d" % (p, c.p))
    prec = min(c.prec for c in padics)
    m, make = p ** prec, TruncatedPadic._make
    return _residue, (lambda pairs: ((k, make(p, prec, r))
                                     for k, c in pairs if (r := c % m))), p, prec


def _shift_key(key, mono):
    """The key of the product of the monomials key and mono."""
    d = dict(key)
    for name, e in mono:
        d[name] = d.get(name, 0) + e
    return tuple(sorted(d.items()))


def _max_exponent(terms, names):
    """The largest exponent in terms; adds the variables met to names."""
    top = 0
    for key in terms:
        for name, e in key:
            names.add(name)
            if e > top:
                top = e
    return top


def _residue(c):
    if isinstance(c, TruncatedPadic):
        return c.val
    if isinstance(c, int):
        return c
    raise TypeError("cannot multiply %r by p-adic coefficients" % (c,))


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
        self._mod_p_chart = None

    @property
    def nfac(self):
        return len(self.factors)

    def zero(self):
        return ChartElement(self, MultiPoly._raw({}), (0,) * self.nfac)

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
        if isinstance(num, str):
            num = MultiPoly.var(num)
        elif not isinstance(num, MultiPoly):
            num = MultiPoly.const(num)
        if den is None:
            den = (0,) * self.nfac
        return ChartElement(self, num, tuple(den))

    def var(self, name):
        if name not in self.vars:
            raise ValueError("%r is not a chart variable" % name)
        return self.elem(MultiPoly.var(name))

    def reduce_mod_p(self):
        """The same chart with coefficients reduced to F_p (Zp rings only)."""
        if not isinstance(self.ring, Zp):
            raise TypeError("reduce_mod_p needs a p-adic chart")
        if self._mod_p_chart is None:
            gf = Zp(self.ring.p, 1)
            facs = tuple(reduce_poly_mod_p(f, gf) for f in self.factors)
            self._mod_p_chart = Chart(self.vars, facs, gf)
        return self._mod_p_chart


def reduce_poly_mod_p(poly, gf):
    def red(c):
        if isinstance(c, TruncatedPadic):
            return c.truncate(1)
        return gf.from_int(c)
    return poly.map_coeffs(red)


class ChartElement:
    """numerator / prod(chart.factors[i] ^ den[i])."""

    __slots__ = ("chart", "num", "den")

    def __init__(self, chart, num, den):
        self.chart = chart
        self.num = num
        self.den = tuple(den)

    def _align(self, other):
        if isinstance(other, (int, Fraction, TruncatedPadic)):
            return self.chart.const(other)
        if isinstance(other, ChartElement):
            return self.chart.elem(other)
        return None

    def _common(self, o):
        """Both numerators over the least common denominator."""
        den = tuple(max(a, b) for a, b in zip(self.den, o.den))
        n1 = self.num
        n2 = o.num
        for i, f in enumerate(self.chart.factors):
            if den[i] > self.den[i]:
                n1 = n1 * f ** (den[i] - self.den[i])
            if den[i] > o.den[i]:
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
        if isinstance(other, (int, Fraction, TruncatedPadic)):
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

    def __hash__(self):
        raise TypeError("chart elements are unhashable")

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
        self._check_factors()

    def _check_factors(self):
        for f in self.chart.factors:
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
        high = {k: c for k, c in poly.terms.items()
                if dict(k).get(name, 0) >= 2}
        if not high:
            return poly
        acc = MultiPoly._raw({k: c for k, c in poly.terms.items() if k not in high})
        for key, c in high.items():
            d = dict(key)
            e = d.pop(name)
            q, r = divmod(e, 2)
            if r:
                d[name] = 1
            if q not in rhs_pows:
                rhs_pows[q] = rhs ** q
            rest = MultiPoly._raw({tuple(sorted(d.items())): c})
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
    tokens = _tokenize(text)
    pos = [0]

    def peek():
        return tokens[pos[0]] if pos[0] < len(tokens) else None

    def take():
        t = peek()
        pos[0] += 1
        return t

    def parse_expr():
        t = peek()
        sign = 1
        if t in ("+", "-"):
            take()
            sign = -1 if t == "-" else 1
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
        if peek() == "^":
            take()
            e = take()
            if not isinstance(e, int) or e < 0:
                raise ParseError("exponent must be a nonnegative integer")
            return base ** e
        return base

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

    node = parse_expr()
    if pos[0] != len(tokens):
        raise ParseError("trailing input at token %r" % (tokens[pos[0]],))
    return node


def _tokenize(text):
    out = []
    i = 0
    while i < len(text):
        ch = text[i]
        if ch.isspace():
            i += 1
        elif ch.isdigit():
            j = i
            while j < len(text) and text[j].isdigit():
                j += 1
            out.append(int(text[i:j]))
            i = j
        elif ch.isalpha() or ch == "_":
            j = i
            while j < len(text) and (text[j].isalnum() or text[j] in "_'"):
                j += 1
            out.append(text[i:j])
            i = j
        elif ch in "+-*^()":
            out.append(ch)
            i += 1
        else:
            raise ParseError("bad character %r" % ch)
    return out
