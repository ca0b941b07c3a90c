"""Arithmetic Lax constructions on GL_n over truncated p-adics.

Two Frobenius lifts on matrix charts: the eigenvalue lift (diagonalize,
raise the torus part and the conjugating matrix entrywise to the p-th
power) and the characteristic-polynomial lift (companion form with the
char-poly coefficients raised to the p-th power).  Both reduce to the
p-power Frobenius mod p; the second makes every P_j a delta-constant.

A PMatrix is one ring Zp(p, N) and rows of plain int residues, as a
MultiPoly is one ring and its coefficients: entries of mixed precision join
to the least by ring_join, and TruncatedPadic appears only where an entry
is handed out.  The matrix product, the determinant and the char-poly
coefficients are the ones of flows (mat_mul, _det, char_poly_coeffs), run
on the residues as ints and reduced mod p^N after.  One unit-pivot row
reduction (_row_reduce) serves the inverse and the eigenvector kernels, and
one Horner pass (_charpoly_eval) gives det(t - x) and its derivative for
the Hensel lift of the eigenvalues.
"""

from __future__ import annotations

from functools import reduce
from itertools import chain

from .flows import _det, char_poly_coeffs, mat_mul
from .padic import Zp, is_delta_constant, ring_join


class RepeatedEigenvalueError(ValueError):
    """Eigenvalues collide mod p; the eigenvalue chart does not apply."""


class NotRegularError(ValueError):
    """No cyclic vector mod p; the companion chart does not apply."""


class NotFixedError(ValueError):
    """The matrix is not fixed by the eigenvalue Frobenius lift."""


class PMatrix:
    """A square matrix over Z/p^N: the ring Zp(p, N) and rows of residues in
    [0, p^N).  The constructor reads TruncatedPadic entries into the
    ring_join of their rings, so mixed precisions give the least, and
    arithmetic between matrices works in the ring_join of theirs; .rows,
    m[i, j], det() and trace() hand entries out as TruncatedPadic."""

    __slots__ = ("ring", "vals", "n")

    def __init__(self, rows):
        rows = [list(r) for r in rows]
        if any(len(r) != len(rows) for r in rows):
            raise ValueError("matrix must be square")
        self.ring = ring = reduce(ring_join, (e.ring for r in rows for e in r))
        self.vals = [[ring.value(e) for e in r] for r in rows]
        self.n = len(rows)

    @classmethod
    def _make(cls, ring, rows):
        """The matrix over ring of square rows of ints, reduced mod p^N here."""
        obj = object.__new__(cls)
        m = ring.modulus
        obj.ring, obj.vals, obj.n = ring, [[v % m for v in r] for r in rows], len(rows)
        return obj

    @classmethod
    def identity(cls, n, p, prec):
        return cls._make(Zp(p, prec), [[int(i == j) for j in range(n)]
                                       for i in range(n)])

    @classmethod
    def diagonal(cls, entries):
        return cls([[e if i == j else e * 0 for j in range(len(entries))]
                    for i, e in enumerate(entries)])

    p = property(lambda self: self.ring.p)
    prec = property(lambda self: self.ring.prec)

    @property
    def rows(self):
        return [[self.ring.decode(v) for v in r] for r in self.vals]

    def __getitem__(self, ij):
        i, j = ij
        return self.ring.decode(self.vals[i][j])

    def _join(self, other, rows):
        # rows of ints, in the ring_join of both operands' rings; an int is exact
        ring = self.ring if isinstance(other, int) else ring_join(self.ring, other.ring)
        return PMatrix._make(ring, rows)

    def __mul__(self, other):
        if isinstance(other, PMatrix):
            return self._join(other, mat_mul(self.vals, other.vals))
        c = getattr(other, "val", other)
        return self._join(other, [[v * c for v in r] for r in self.vals])

    def __add__(self, other):
        return self._join(other, [[a + b for a, b in zip(r1, r2)]
                                  for r1, r2 in zip(self.vals, other.vals)])

    def __sub__(self, other):
        return self + other * -1

    def __eq__(self, other):
        if not isinstance(other, PMatrix):
            return NotImplemented
        return self.n == other.n and not any(map(any, (self - other).vals))

    def map_entries(self, fn):
        return PMatrix([[fn(e) for e in r] for r in self.rows])

    def inv(self):
        """Gauss-Jordan with unit pivots; never divides by p."""
        n = self.n
        rows, pivots = _row_reduce([r + [int(i == j) for j in range(n)]
                                    for i, r in enumerate(self.vals)], n, self.ring)
        if len(pivots) < n:
            raise ZeroDivisionError("matrix is not invertible (no unit pivot)")
        return PMatrix._make(self.ring, [r[n:] for r in rows])

    def det(self):
        return self.ring.from_int(_det(self.vals))

    def trace(self):
        return self.ring.from_int(sum(self.vals[i][i] for i in range(self.n)))

    def __repr__(self):
        return "PMatrix(%r)" % (self.vals,)


def char_poly(x):
    """P_1 .. P_n with det(s - x) = sum_j (-1)^j P_j s^{n-j} (P_0 = 1);
    P_j is the sum of the principal j x j minors."""
    return [x.ring.from_int(c) for c in char_poly_coeffs(x.vals)]


def conj(h, g):
    """g^{-1} h g."""
    return g.inv() * h * g


def phi0_entrywise(g):
    """Entrywise p-th power; the Frobenius lift on the torus and on the
    coordinates of the conjugating copy of G."""
    p, m = g.p, g.ring.modulus
    return PMatrix._make(g.ring, [[pow(v, p, m) for v in r] for r in g.vals])


def _charpoly_eval(P, t):
    """det(t - x) = t^n - P_1 t^{n-1} + ... and its derivative in t, given
    the minor sums P, by one Horner pass.  On ints the result is unreduced."""
    val, der = t ** 0, t * 0
    for j, Pj in enumerate(P, start=1):
        der = der * t + val
        val = val * t + (Pj if j % 2 == 0 else -Pj)
    return val, der


def eigen_split(x):
    """Write x = g^{-1} h g with h diagonal.

    Needs the char poly to split over the base with pairwise distinct roots
    mod p: roots are found by scanning residues and Hensel-lifted (the
    derivative is a unit at a simple root)."""
    n, ring = x.n, x.ring
    p, m = ring.p, ring.modulus
    P = [c.val for c in char_poly(x)]
    residues = [r for r in range(p) if _charpoly_eval(P, r)[0] % p == 0]
    if len(residues) < n:
        raise RepeatedEigenvalueError(
            "char poly has %d simple roots mod p, need %d" % (len(residues), n))
    roots = []
    for t in residues:
        val, der = _charpoly_eval(P, t)
        if der % p == 0:
            raise RepeatedEigenvalueError("repeated eigenvalue mod p")
        for _ in range(ring.prec):
            t = (t - val * pow(der, -1, m)) % m
            val, der = _charpoly_eval(P, t)
        assert val % m == 0
        roots.append(t)
    # eigenvector for each root: kernel of (x - t), unit-pivot elimination
    cols = [_kernel_vector([[e - t * (i == j) for j, e in enumerate(r)]
                            for i, r in enumerate(x.vals)], ring) for t in roots]
    W = PMatrix._make(ring, list(zip(*cols)))
    h = PMatrix._make(ring, [[t if i == j else 0 for j in range(n)]
                             for i, t in enumerate(roots)])
    # x = g^{-1} h g with g = W^{-1}, that is x W = W h
    assert x * W == W * h
    return h, W.inv()


def _row_reduce(rows, ncols, ring):
    """Reduced row echelon form over Z/p^N in the first ncols columns, with
    unit pivots scaled to 1, so it never divides by p.  A column without a
    unit entry below the pivots found so far gets no pivot.  Takes and
    returns rows of ints, the reduced rows as residues, and the pivot
    columns; pivot k sits in row k."""
    p, m = ring.p, ring.modulus
    rows = [[e % m for e in r] for r in rows]
    pivots = []
    for col in range(ncols):
        top = len(pivots)
        piv = next((r for r in range(top, len(rows)) if rows[r][col] % p), None)
        if piv is None:
            continue
        rows[top], rows[piv] = rows[piv], rows[top]
        inv = pow(rows[top][col], -1, m)
        rows[top] = [e * inv % m for e in rows[top]]
        for r in range(len(rows)):
            f = rows[r][col]
            if r != top and f:
                rows[r] = [(e - f * g) % m for e, g in zip(rows[r], rows[top])]
        pivots.append(col)
    return rows, pivots


def _kernel_vector(m, ring):
    """The residues of a kernel vector of a rank n-1 matrix of ints over
    ring = Z/p^N, with a unit-normalized free coordinate."""
    n = len(m)
    rows, pivots = _row_reduce(m, n, ring)
    free = [c for c in range(n) if c not in pivots]
    if not free:
        raise RepeatedEigenvalueError("no kernel: eigenvalue is not exact")
    fc = free[0]
    v = [0] * n
    v[fc] = 1
    for r, col in enumerate(pivots):
        v[col] = -rows[r][fc] % ring.modulus
    return v


def frobenius_star(x):
    """The eigenvalue Frobenius lift: conjugation data maps through the
    entrywise p-th power."""
    h, g = eigen_split(x)
    return conj(phi0_entrywise(h), phi0_entrywise(g))


def _cyclic_lift(x, v):
    """phi0(S) and its inverse, for S with columns v, xv, ..., x^{n-1}v
    (v residues); (None, None) if S is not invertible.  phi0(S) = S mod p,
    so one is invertible iff the other is."""
    n, m = x.n, x.ring.modulus
    cols = [[[e] for e in v]]   # n x 1 matrices
    for _ in range(n - 1):
        cols.append([[e % m for e in r] for r in mat_mul(x.vals, cols[-1])])
    S = PMatrix._make(x.ring, [[col[i][0] for col in cols] for i in range(n)])
    lift = phi0_entrywise(S)
    try:
        return lift, lift.inv()
    except ZeroDivisionError:
        return None, None


def _companion(P, ring):
    """Companion matrix over ring of s^n - P_1 s^{n-1} + ... + (-1)^n P_n,
    for the residues P."""
    n = len(P)
    rows = [[int(j == i - 1) for j in range(n)] for i in range(n)]
    # Cayley-Hamilton: x^n = sum_j (-1)^{j-1} P_j x^{n-j}
    for i in range(n):
        j = n - i
        rows[i][n - 1] = P[j - 1] if (j - 1) % 2 == 0 else -P[j - 1]
    return PMatrix._make(ring, rows)


def frobenius_star_star(x, rng=None):
    """The char-poly Frobenius lift: companion-form conjugation data with
    each P_j raised to the p-th power."""
    n, ring = x.n, x.ring
    p, m = ring.p, ring.modulus
    # the vectors (1, .., 1, 0, .., 0), then up to 50 drawn from rng; both
    # are generated lazily, so rng is drawn from only if all of the first fail
    standard = ([int(i <= k) for i in range(n)] for k in range(n))
    drawn = ([rng.randrange(m) for _ in range(n)]
             for _ in range(50 if rng is not None else 0))
    for v in chain(standard, drawn):
        phiS, phiS_inv = _cyclic_lift(x, v)
        if phiS is not None:
            break
    else:
        raise NotRegularError("no cyclic vector found mod p")
    Cp = _companion([pow(c.val, p, m) for c in char_poly(x)], ring)
    return phiS * Cp * phiS_inv


def conjugate_lift(y, alpha):
    """epsilon^{-1} y epsilon with epsilon = 1 + p alpha (always invertible)."""
    eps = PMatrix.identity(y.n, y.p, y.prec) + alpha * y.p
    return eps.inv() * y * eps


def spectrum_delta_constant_check(x):
    """For a fixed point of the eigenvalue lift: every eigenvalue must be a
    Teichmuller representative.  One eigen split gives frobenius_star(x)
    and the eigenvalues."""
    h, g = eigen_split(x)
    if not conj(phi0_entrywise(h), phi0_entrywise(g)) == x:
        raise NotFixedError("input is not fixed by the eigenvalue Frobenius lift")
    return all(is_delta_constant(h[i, i]) for i in range(x.n))
