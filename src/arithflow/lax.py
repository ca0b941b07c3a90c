"""Arithmetic Lax constructions on GL_n over truncated p-adics.

Two Frobenius lifts on matrix charts: the eigenvalue lift (diagonalize,
raise the torus part and the conjugating matrix entrywise to the p-th
power) and the characteristic-polynomial lift (companion form with the
char-poly coefficients raised to the p-th power).  Both reduce to the
p-power Frobenius mod p; the second makes every P_j a delta-constant.

The matrix product, the determinant and the char-poly coefficients are the
ones of flows (mat_mul, _det, char_poly_coeffs).  One unit-pivot row
reduction (_row_reduce) serves the inverse and the eigenvector kernels, and
one Horner pass (_charpoly_eval) gives det(t - x) and its derivative for
the Hensel lift of the eigenvalues.
"""

from __future__ import annotations

from itertools import chain

from .flows import _det, char_poly_coeffs, mat_mul
from .padic import TruncatedPadic, is_delta_constant


class RepeatedEigenvalueError(ValueError):
    """Eigenvalues collide mod p; the eigenvalue chart does not apply."""


class NotRegularError(ValueError):
    """No cyclic vector mod p; the companion chart does not apply."""


class PMatrix:
    """A square matrix of TruncatedPadic entries."""

    __slots__ = ("n", "rows")

    def __init__(self, rows):
        self.rows = [list(r) for r in rows]
        self.n = len(self.rows)
        for r in self.rows:
            if len(r) != self.n:
                raise ValueError("matrix must be square")

    @classmethod
    def identity(cls, n, p, prec):
        one = TruncatedPadic(p, prec, 1)
        zero = TruncatedPadic(p, prec, 0)
        return cls([[one if i == j else zero for j in range(n)]
                    for i in range(n)])

    @classmethod
    def diagonal(cls, entries):
        n = len(entries)
        e0 = entries[0]
        zero = TruncatedPadic(e0.p, e0.prec, 0)
        return cls([[entries[i] if i == j else zero for j in range(n)]
                    for i in range(n)])

    @property
    def p(self):
        return self.rows[0][0].p

    @property
    def prec(self):
        return self.rows[0][0].prec

    def __getitem__(self, ij):
        i, j = ij
        return self.rows[i][j]

    def __mul__(self, other):
        if isinstance(other, PMatrix):
            return PMatrix(mat_mul(self.rows, other.rows))
        return PMatrix([[e * other for e in r] for r in self.rows])

    def __add__(self, other):
        return PMatrix([[a + b for a, b in zip(r1, r2)]
                        for r1, r2 in zip(self.rows, other.rows)])

    def __sub__(self, other):
        return PMatrix([[a - b for a, b in zip(r1, r2)]
                        for r1, r2 in zip(self.rows, other.rows)])

    def __eq__(self, other):
        if not isinstance(other, PMatrix):
            return NotImplemented
        return self.n == other.n and all(
            a == b for r1, r2 in zip(self.rows, other.rows)
            for a, b in zip(r1, r2))

    def map_entries(self, fn):
        return PMatrix([[fn(e) for e in r] for r in self.rows])

    def inv(self):
        """Gauss-Jordan with unit pivots; never divides by p."""
        n = self.n
        eye = PMatrix.identity(n, self.p, self.prec).rows
        rows, pivots = _row_reduce([r + e for r, e in zip(self.rows, eye)], n)
        if len(pivots) < n:
            raise ZeroDivisionError("matrix is not invertible (no unit pivot)")
        return PMatrix([r[n:] for r in rows])

    def det(self):
        return _det(self.rows)

    def trace(self):
        t = self.rows[0][0]
        for i in range(1, self.n):
            t = t + self.rows[i][i]
        return t

    def __repr__(self):
        return "PMatrix(%r)" % ([[e.val for e in r] for r in self.rows],)


def char_poly(x):
    """P_1 .. P_n with det(s - x) = sum_j (-1)^j P_j s^{n-j} (P_0 = 1);
    P_j is the sum of the principal j x j minors."""
    return char_poly_coeffs(x.rows)


def conj(h, g):
    """g^{-1} h g."""
    return g.inv() * h * g


def phi0_entrywise(g):
    """Entrywise p-th power; the Frobenius lift on the torus and on the
    coordinates of the conjugating copy of G."""
    return g.map_entries(lambda e: e.frobenius())


def _charpoly_eval(P, t):
    """det(t - x) = t^n - P_1 t^{n-1} + ... and its derivative in t, given
    the minor sums P, by one Horner pass."""
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
    n = x.n
    p, prec = x.p, x.prec
    P = char_poly(x)
    residues = []
    for r in range(p):
        t = TruncatedPadic(p, prec, r)
        if _charpoly_eval(P, t)[0].truncate(1).is_zero():
            residues.append(r)
    if len(residues) < n:
        raise RepeatedEigenvalueError(
            "char poly has %d simple roots mod p, need %d" % (len(residues), n))
    roots = []
    for r in residues:
        t = TruncatedPadic(p, prec, r)
        val, der = _charpoly_eval(P, t)
        if not der.is_unit():
            raise RepeatedEigenvalueError("repeated eigenvalue mod p")
        for _ in range(prec):
            t = t - val * der.inv()
            val, der = _charpoly_eval(P, t)
        assert val.is_zero()
        roots.append(t)
    # eigenvector for each root: kernel of (x - t), unit-pivot elimination
    cols = []
    for t in roots:
        m = [[x.rows[i][j] - (t if i == j else 0 * t) for j in range(n)]
             for i in range(n)]
        cols.append(_kernel_vector(m, p, prec))
    W = PMatrix([[cols[j][i] for j in range(n)] for i in range(n)])
    h = PMatrix.diagonal(roots)
    # x = g^{-1} h g with g = W^{-1}, that is x W = W h
    assert x * W == W * h
    return h, W.inv()


def _row_reduce(rows, ncols):
    """Reduced row echelon form over Z/p^N in the first ncols columns, with
    unit pivots scaled to 1, so it never divides by p.  A column without a
    unit entry below the pivots found so far gets no pivot.  Returns the
    reduced rows and the pivot columns; pivot k sits in row k."""
    rows = [list(r) for r in rows]
    pivots = []
    for col in range(ncols):
        top = len(pivots)
        piv = next((r for r in range(top, len(rows)) if rows[r][col].is_unit()),
                   None)
        if piv is None:
            continue
        rows[top], rows[piv] = rows[piv], rows[top]
        inv = rows[top][col].inv()
        rows[top] = [e * inv for e in rows[top]]
        for r in range(len(rows)):
            f = rows[r][col]
            if r != top and not f.is_zero():
                rows[r] = [e - f * g for e, g in zip(rows[r], rows[top])]
        pivots.append(col)
    return rows, pivots


def _kernel_vector(m, p, prec):
    """A kernel vector of a rank n-1 matrix over Z/p^N with a unit-normalized
    free coordinate."""
    n = len(m)
    rows, pivots = _row_reduce(m, n)
    free = [c for c in range(n) if c not in pivots]
    if not free:
        raise RepeatedEigenvalueError("no kernel: eigenvalue is not exact")
    fc = free[0]
    v = [TruncatedPadic(p, prec, 0)] * n
    v[fc] = TruncatedPadic(p, prec, 1)
    for r, col in enumerate(pivots):
        v[col] = -rows[r][fc]
    return v


def frobenius_star(x):
    """The eigenvalue Frobenius lift: conjugation data maps through the
    entrywise p-th power."""
    h, g = eigen_split(x)
    hp = PMatrix.diagonal([h.rows[i][i].frobenius() for i in range(h.n)])
    return conj(hp, phi0_entrywise(g))


def _cyclic_lift(x, v):
    """phi0(S) and its inverse, for S with columns v, xv, ..., x^{n-1}v;
    (None, None) if S is not invertible.  phi0(S) = S mod p, so one is
    invertible iff the other is."""
    n = x.n
    cols = [[[e] for e in v]]   # n x 1 matrices
    for _ in range(n - 1):
        cols.append(mat_mul(x.rows, cols[-1]))
    S = PMatrix([[col[i][0] for col in cols] for i in range(n)])
    lift = phi0_entrywise(S)
    try:
        return lift, lift.inv()
    except ZeroDivisionError:
        return None, None


def _companion(P, p, prec):
    """Companion matrix of s^n - P_1 s^{n-1} + ... + (-1)^n P_n."""
    n = len(P)
    zero = TruncatedPadic(p, prec, 0)
    one = TruncatedPadic(p, prec, 1)
    rows = [[zero] * n for _ in range(n)]
    for i in range(1, n):
        rows[i][i - 1] = one
    # Cayley-Hamilton: x^n = sum_j (-1)^{j-1} P_j x^{n-j}
    for i in range(n):
        j = n - i
        rows[i][n - 1] = P[j - 1] if (j - 1) % 2 == 0 else -P[j - 1]
    return PMatrix(rows)


def frobenius_star_star(x, rng=None):
    """The char-poly Frobenius lift: companion-form conjugation data with
    each P_j raised to the p-th power."""
    n = x.n
    p, prec = x.p, x.prec
    one = TruncatedPadic(p, prec, 1)
    zero = TruncatedPadic(p, prec, 0)
    # the vectors (1, .., 1, 0, .., 0), then up to 50 drawn from rng; both
    # are generated lazily, so rng is drawn from only if all of the first fail
    standard = ([one if i <= k else zero for i in range(n)] for k in range(n))
    drawn = ([TruncatedPadic(p, prec, rng.randrange(p ** prec)) for _ in range(n)]
             for _ in range(50 if rng is not None else 0))
    for v in chain(standard, drawn):
        phiS, phiS_inv = _cyclic_lift(x, v)
        if phiS is not None:
            break
    else:
        raise NotRegularError("no cyclic vector found mod p")
    P = char_poly(x)
    Cp = _companion([Pj.frobenius() for Pj in P], p, prec)
    return phiS * Cp * phiS_inv


def conjugate_lift(y, alpha):
    """epsilon^{-1} y epsilon with epsilon = 1 + p alpha (always invertible)."""
    eps = PMatrix.identity(y.n, y.p, y.prec) + alpha * TruncatedPadic(
        y.p, y.prec, y.p)
    return eps.inv() * y * eps


def spectrum_delta_constant_check(x):
    """For a fixed point of the eigenvalue lift: every eigenvalue must be a
    Teichmuller representative."""
    if not frobenius_star(x) == x:
        raise ValueError("input is not fixed by the eigenvalue Frobenius lift")
    h, _ = eigen_split(x)
    return all(is_delta_constant(h.rows[i][i]) for i in range(x.n))
