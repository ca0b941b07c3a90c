"""Exact truncated p-adic integers and the coefficient rings.

The coefficient rings ZZ, QQ and Zp(p, N) = Z/p^N are interned: equal
parameters give one object.  Zp(p, N) checks once, when it is first made,
that p is an odd prime and N >= 1, and holds p, N and the modulus p^N.  An
element of Z/p^N, a TruncatedPadic, is its ring together with a canonical
residue in [0, p^N).  Operands from two rings meet in ring_join, the one
rule for mixed precisions and primes: the result is known to the least
precision.  The base ring Z_p carries the identity as its unique Frobenius
lift, so the attached p-derivation is the Fermat quotient
delta(a) = (a - a^p)/p, which costs one digit of precision per application.
"""

from __future__ import annotations

from fractions import Fraction


class PrecisionError(ValueError):
    """Raised when an operation needs more p-adic digits than are carried."""


# Sorenson and Webster, "Strong pseudoprimes to twelve prime bases" (Math.
# Comp. 2017): an odd n below _PRIME_LIMIT that is a strong probable prime to
# every base in _PRIME_BASES is prime
_PRIME_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
_PRIME_LIMIT = 3317044064679887385961981


def _is_prime(n):
    """Whether n is prime, by deterministic Miller-Rabin on the first 13 prime
    bases; ValueError for n >= _PRIME_LIMIT, where that test is not exact."""
    if n >= _PRIME_LIMIT:
        raise ValueError("primes must be below %d, got %d" % (_PRIME_LIMIT, n))
    if n < 2:
        return False
    for q in _PRIME_BASES:
        if n % q == 0:
            return n == q
    d, s = n - 1, 0
    while d % 2 == 0:
        d, s = d // 2, s + 1
    for a in _PRIME_BASES:
        x = pow(a, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


# ---------------------------------------------------------------------------
# coefficient rings

class _Ring:
    """A coefficient ring, interned: equal parameters give one object, and
    parameters that _setup rejects give none.  value(c) stores an int or
    ring element c, decode(c) gives it back, and modulus is 0 for the exact
    rings."""
    _interned = {}
    p = prec = None
    modulus = 0

    def __new__(cls, *params):
        ring = _Ring._interned.get((cls, params))
        if ring is None:
            ring = object.__new__(cls)
            ring._params = params
            ring._setup(*params)
            _Ring._interned[cls, params] = ring
        return ring

    def __reduce__(self):
        # a copy or an unpickled ring is the interned one
        return type(self), self._params

    def _setup(self):
        pass

    def value(self, c):
        return c

    decode = value


class ZZ(_Ring):
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


class QQ(_Ring):
    """Exact rationals."""
    name = "QQ"

    def from_int(self, n):
        return Fraction(n)

    def is_unit(self, c):
        return c != 0

    def inv(self, c):
        return 1 / Fraction(c)

    def value(self, c):
        return Fraction(c)


class Zp(_Ring):
    """Z/p^prec with explicit precision; prec=1 is the field F_p."""

    def _setup(self, p, prec):
        if p == 2 or not _is_prime(p):
            raise ValueError("p must be an odd prime, got %r" % (p,))
        if prec < 1:
            raise ValueError("precision must be >= 1")
        self.p = p
        self.prec = prec
        self.modulus = p ** prec
        self.name = "Z/%d^%d" % (p, prec)

    def from_int(self, n):
        return TruncatedPadic._make(self, n % self.modulus)

    def is_unit(self, c):
        return self.coerce(c).is_unit()

    def inv(self, c):
        return self.coerce(c).inv()

    def coerce(self, c):
        return c if isinstance(c, TruncatedPadic) else self.from_int(c)

    def value(self, c):
        """The residue in [0, p^N) of an int or of an element of Z/p^M, M >= N."""
        c = c.val if isinstance(c, TruncatedPadic) else c
        return c if 0 <= c < self.modulus else c % self.modulus

    def decode(self, c):
        return TruncatedPadic._make(self, c)


_ZZ = ZZ()


def ring_join(r, s):
    """The ring of a result whose operands lie in r and s.

    ZZ joins every ring: an int is exact, and is taken into QQ or Z/p^N.
    Z/p^N and Z/p^M join to Z/p^min(N, M): a result is known only to the
    least precision of its operands, so a zero from mixed precisions is zero
    at that precision, and its ring says so.  QQ with Z/p^N raises
    TypeError, and Z/p^N with Z/q^M for p != q raises ValueError."""
    if r is s or s is _ZZ:
        return r
    if r is _ZZ:
        return s
    if r.p is None or s.p is None:
        raise TypeError("cannot mix %s and %s coefficients" % (r.name, s.name))
    if r.p != s.p:
        raise ValueError("prime mismatch: %d vs %d" % (r.p, s.p))
    return r if r.prec <= s.prec else s


# ---------------------------------------------------------------------------
# elements of Z/p^N

class TruncatedPadic:
    """An element of Z/p^N, immutable: its ring Zp(p, N) and its residue.

    Arithmetic and equality between elements of different precision work in
    the ring_join of their rings, the minimum precision; an int operand is
    read in the other operand's ring.  Precision 1 elements form the field
    F_p.
    """

    __slots__ = ("ring", "val")

    def __init__(self, p, prec, value):
        self.ring = ring = Zp(p, prec)
        self.val = value % ring.modulus

    @classmethod
    def _make(cls, ring, value):
        # internal fast path: value already reduced mod ring.modulus
        obj = object.__new__(cls)
        obj.ring = ring
        obj.val = value
        return obj

    p = property(lambda self: self.ring.p)
    prec = property(lambda self: self.ring.prec)
    modulus = property(lambda self: self.ring.modulus)

    def _join(self, other):
        """(the result ring, other's residue), or (None, None) for an operand
        that is neither an element of Z/p^N nor an int."""
        if isinstance(other, TruncatedPadic):
            return ring_join(self.ring, other.ring), other.val
        if isinstance(other, int):
            return self.ring, other
        return None, None

    def __add__(self, other):
        ring, v = self._join(other)
        if ring is None:
            return NotImplemented
        return TruncatedPadic._make(ring, (self.val + v) % ring.modulus)

    __radd__ = __add__

    def __neg__(self):
        return TruncatedPadic._make(self.ring, -self.val % self.ring.modulus)

    def __sub__(self, other):
        ring, v = self._join(other)
        if ring is None:
            return NotImplemented
        return TruncatedPadic._make(ring, (self.val - v) % ring.modulus)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        ring, v = self._join(other)
        if ring is None:
            return NotImplemented
        return TruncatedPadic._make(ring, self.val * v % ring.modulus)

    __rmul__ = __mul__

    def __pow__(self, n):
        if n < 0:
            return self.inv() ** (-n)
        return TruncatedPadic._make(self.ring, pow(self.val, n, self.ring.modulus))

    def __eq__(self, other):
        ring, v = self._join(other)
        if ring is None:
            return NotImplemented
        return (self.val - v) % ring.modulus == 0

    def __hash__(self):
        # values equal at any common precision agree mod p
        return hash((self.p, self.val % self.p))

    def __repr__(self):
        return "%d (mod %d^%d)" % (self.val, self.p, self.prec)

    def is_zero(self):
        return self.val == 0

    def is_unit(self):
        return self.val % self.p != 0

    def inv(self):
        if not self.is_unit():
            raise ZeroDivisionError("not a unit: %r" % (self,))
        return TruncatedPadic._make(self.ring, pow(self.val, -1, self.ring.modulus))

    def truncate(self, prec):
        if prec > self.prec:
            raise PrecisionError("cannot raise precision %d -> %d" % (self.prec, prec))
        ring = Zp(self.p, prec)
        return TruncatedPadic._make(ring, self.val % ring.modulus)

    def frobenius(self):
        """a -> a^p at the carried precision."""
        return self ** self.p

    def exact_div_p(self, k=1):
        """Divide by p^k; the residue must be exactly divisible.  Costs k digits."""
        if self.prec <= k:
            raise PrecisionError("division by p^%d from precision %d" % (k, self.prec))
        pk = self.p ** k
        if self.val % pk != 0:
            raise ArithmeticError("%r not divisible by p^%d" % (self, k))
        return TruncatedPadic._make(Zp(self.p, self.prec - k), self.val // pk)


def delta_base(a):
    """Fermat quotient (a - a^p)/p.  Input at precision N+1, output at N."""
    if not isinstance(a, TruncatedPadic):
        raise TypeError("delta_base needs a TruncatedPadic")
    if a.prec < 2:
        raise PrecisionError("delta_base needs precision >= 2, got %d" % a.prec)
    return (a - a.frobenius()).exact_div_p()


def teichmuller(p, r, prec):
    """The unique lift x of r in F_p with x^p = x mod p^prec."""
    ring = Zp(p, prec)
    if not 0 <= r < p:
        raise ValueError("residue %r out of range [0, %d)" % (r, p))
    # r^(p^(prec-1)) is fixed by x -> x^p: the units mod p^prec form a
    # group of order (p-1) p^(prec-1), and r^(p-1) = 1 mod p
    return TruncatedPadic._make(ring, pow(r, p ** (prec - 1), ring.modulus))


def is_delta_constant(a):
    """True iff a^p = a at the carried precision."""
    return a.frobenius() == a
