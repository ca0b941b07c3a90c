"""Exact truncated p-adic integers.

An element of Z/p^N is stored with its odd prime p, its precision N (number
of p-adic digits) and a canonical residue in [0, p^N).  The base ring Z_p
carries the identity as its unique Frobenius lift, so the attached
p-derivation is the Fermat quotient  delta(a) = (a - a^p)/p, which costs one
digit of precision per application.
"""

from __future__ import annotations


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


_checked_primes = set()


def _check_prime(p):
    if p in _checked_primes:
        return
    if p == 2 or not _is_prime(p):
        raise ValueError("p must be an odd prime, got %r" % (p,))
    _checked_primes.add(p)


class TruncatedPadic:
    """An element of Z/p^N, immutable.

    Arithmetic between elements of different precision truncates to the
    minimum precision; equality likewise compares at the minimum precision.
    Precision 1 elements form the field F_p.
    """

    __slots__ = ("p", "prec", "val")

    def __init__(self, p, prec, value):
        _check_prime(p)
        if prec < 1:
            raise ValueError("precision must be >= 1")
        self.p = p
        self.prec = prec
        self.val = value % (p ** prec)

    @classmethod
    def _make(cls, p, prec, value):
        # internal fast path: p already validated, value already reduced
        obj = object.__new__(cls)
        obj.p = p
        obj.prec = prec
        obj.val = value
        return obj

    @property
    def modulus(self):
        return self.p ** self.prec

    def _coerce(self, other):
        if isinstance(other, TruncatedPadic):
            if other.p != self.p:
                raise ValueError("prime mismatch: %d vs %d" % (self.p, other.p))
            return other
        if isinstance(other, int):
            return TruncatedPadic._make(self.p, self.prec, other % self.modulus)
        return None

    def __add__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        prec = min(self.prec, o.prec)
        m = self.p ** prec
        return TruncatedPadic._make(self.p, prec, (self.val + o.val) % m)

    __radd__ = __add__

    def __neg__(self):
        return TruncatedPadic._make(self.p, self.prec, (-self.val) % self.modulus)

    def __sub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        prec = min(self.prec, o.prec)
        m = self.p ** prec
        return TruncatedPadic._make(self.p, prec, (self.val - o.val) % m)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        prec = min(self.prec, o.prec)
        m = self.p ** prec
        return TruncatedPadic._make(self.p, prec, (self.val * o.val) % m)

    __rmul__ = __mul__

    def __pow__(self, n):
        if n < 0:
            return self.inv() ** (-n)
        return TruncatedPadic._make(self.p, self.prec, pow(self.val, n, self.modulus))

    def __eq__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        prec = min(self.prec, o.prec)
        m = self.p ** prec
        return (self.val - o.val) % m == 0

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
        return TruncatedPadic._make(self.p, self.prec, pow(self.val, -1, self.modulus))

    def truncate(self, prec):
        if prec > self.prec:
            raise PrecisionError("cannot raise precision %d -> %d" % (self.prec, prec))
        return TruncatedPadic._make(self.p, prec, self.val % (self.p ** prec))

    def frobenius(self):
        """a -> a^p at the carried precision."""
        return TruncatedPadic._make(self.p, self.prec, pow(self.val, self.p, self.modulus))

    def exact_div_p(self, k=1):
        """Divide by p^k; the residue must be exactly divisible.  Costs k digits."""
        if self.prec <= k:
            raise PrecisionError("division by p^%d from precision %d" % (k, self.prec))
        pk = self.p ** k
        if self.val % pk != 0:
            raise ArithmeticError("%r not divisible by p^%d" % (self, k))
        return TruncatedPadic._make(self.p, self.prec - k, self.val // pk)


def delta_base(a):
    """Fermat quotient (a - a^p)/p.  Input at precision N+1, output at N."""
    if not isinstance(a, TruncatedPadic):
        raise TypeError("delta_base needs a TruncatedPadic")
    if a.prec < 2:
        raise PrecisionError("delta_base needs precision >= 2, got %d" % a.prec)
    t = (a.val - pow(a.val, a.p, a.modulus)) % a.modulus
    assert t % a.p == 0  # Fermat's little theorem
    return TruncatedPadic._make(a.p, a.prec - 1, t // a.p)


def teichmuller(p, r, prec):
    """The unique lift x of r in F_p with x^p = x mod p^prec."""
    _check_prime(p)
    if not 0 <= r < p:
        raise ValueError("residue %r out of range [0, %d)" % (r, p))
    if prec < 1:
        raise ValueError("precision must be >= 1")
    # r^(p^(prec-1)) is fixed by x -> x^p: the units mod p^prec form a
    # group of order (p-1) p^(prec-1), and r^(p-1) = 1 mod p
    m = p ** prec
    return TruncatedPadic._make(p, prec, pow(r, p ** (prec - 1), m))


def is_delta_constant(a):
    """True iff a^p = a at the carried precision."""
    return pow(a.val, a.p, a.modulus) == a.val
