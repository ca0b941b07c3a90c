"""Matrix Frobenius lifts: eigenvalue and char-poly constructions."""

import random

import pytest
from hypothesis import given, settings, strategies as st

from arithflow.padic import TruncatedPadic, Zp, ring_join, teichmuller
from arithflow import lax as lx


def M(p, prec, rows):
    return lx.PMatrix([[TruncatedPadic(p, prec, v) for v in r] for r in rows])


def rand_matrix(rng, n, p, prec):
    return lx.PMatrix([[TruncatedPadic(p, prec, rng.randrange(p ** prec))
                        for _ in range(n)] for _ in range(n)])


def rand_invertible(rng, n, p, prec):
    while True:
        g = rand_matrix(rng, n, p, prec)
        if g.det().is_unit():
            return g


def test_inverse_and_identity():
    rng = random.Random(0)
    g = rand_invertible(rng, 3, 5, 3)
    assert g * g.inv() == lx.PMatrix.identity(3, 5, 3)
    singular = M(5, 3, [[5, 0], [0, 1]])
    with pytest.raises(ZeroDivisionError):
        singular.inv()


def test_conj_examples():
    h = M(5, 3, [[1, 0], [0, 2]])
    assert lx.conj(h, lx.PMatrix.identity(2, 5, 3)) == h
    g = M(5, 3, [[1, 1], [0, 1]])
    assert lx.conj(h, g) == M(5, 3, [[1, 124], [0, 2]])   # g^-1 h g, -1 = 124
    x = lx.conj(h, g)
    assert lx.char_poly(x) == lx.char_poly(h)


def test_phi0_entrywise_example():
    g = M(3, 3, [[1, 2], [0, 1]])
    assert lx.phi0_entrywise(g) == M(3, 3, [[1, 8], [0, 1]])
    t = lx.PMatrix.diagonal([teichmuller(3, 2, 3), teichmuller(3, 1, 3)])
    assert lx.phi0_entrywise(t) == t


def test_eigen_split_roundtrip():
    rng = random.Random(1)
    p, prec, n = 5, 3, 3
    for _ in range(20):
        ts = rng.sample(range(p), n)
        h = lx.PMatrix.diagonal(
            [TruncatedPadic(p, prec, t + p * rng.randrange(p ** (prec - 1)))
             for t in ts])
        g = rand_invertible(rng, n, p, prec)
        x = lx.conj(h, g)
        h2, g2 = lx.eigen_split(x)
        assert lx.conj(h2, g2) == x
        assert sorted(h2.rows[i][i].val for i in range(n)) == \
            sorted(h.rows[i][i].val for i in range(n))


def test_eigen_split_diagonal():
    x = M(5, 3, [[1, 0], [0, 2]])
    h, g = lx.eigen_split(x)
    assert sorted(h.rows[i][i].val for i in range(2)) == [1, 2]


def test_eigen_split_rejects_nilpotent():
    x = M(5, 3, [[0, 1], [0, 0]])
    with pytest.raises(lx.RepeatedEigenvalueError):
        lx.eigen_split(x)


def test_frobenius_star_diagonal_and_fixed_points():
    p, prec = 5, 3
    x = M(p, prec, [[2, 0], [0, 8]])
    y = lx.frobenius_star(x)
    assert y == M(p, prec, [[2 ** 5, 0], [0, 8 ** 5]])
    # Teichmuller data gives a fixed point
    rng = random.Random(2)
    h = lx.PMatrix.diagonal([teichmuller(p, 2, prec), teichmuller(p, 3, prec)])
    g = rand_invertible(rng, 2, p, prec).map_entries(
        lambda e: teichmuller(p, e.val % p, prec))
    if g.det().is_unit():
        x = lx.conj(h, g)
        assert lx.frobenius_star(x) == x


def test_frobenius_star_diagram_and_gauge_independence():
    rng = random.Random(3)
    p, prec = 7, 3
    for n in (2, 3):
        for _ in range(20):
            ts = rng.sample(range(p), n)
            h = lx.PMatrix.diagonal(
                [TruncatedPadic(p, prec, t + p * rng.randrange(p ** (prec - 1)))
                 for t in ts])
            g = rand_invertible(rng, n, p, prec)
            x = lx.conj(h, g)
            y = lx.frobenius_star(x)
            assert y == lx.conj(lx.phi0_entrywise(h), lx.phi0_entrywise(g))
            # torus-rescaled decomposition gives the same answer
            d = lx.PMatrix.diagonal(
                [TruncatedPadic(p, prec, rng.randrange(1, p ** prec))
                 for _ in range(n)])
            if d.det().is_unit():
                g2 = d * g
                assert lx.conj(h, g2) == x
                assert lx.conj(lx.phi0_entrywise(h),
                               lx.phi0_entrywise(g2)) == y


def test_frobenius_star_is_frobenius_mod_p():
    rng = random.Random(4)
    p, prec, n = 5, 3, 2
    for _ in range(20):
        ts = rng.sample(range(p), n)
        h = lx.PMatrix.diagonal(
            [TruncatedPadic(p, prec, t + p * rng.randrange(p ** (prec - 1)))
             for t in ts])
        g = rand_invertible(rng, n, p, prec)
        x = lx.conj(h, g)
        y = lx.frobenius_star(x)
        xp = x.map_entries(lambda e: e.frobenius())
        assert all((y.rows[i][j] - xp.rows[i][j]).truncate(1).is_zero()
                   for i in range(n) for j in range(n))


def test_star_star_companion_gauge():
    p, prec = 5, 3
    z1, z2 = 7, 11
    P = [TruncatedPadic(p, prec, z1), TruncatedPadic(p, prec, z2)]
    C = lx._companion([t.val for t in P], Zp(p, prec))
    y = lx.frobenius_star_star(C)
    assert y == lx._companion([t.frobenius().val for t in P], Zp(p, prec))


def test_star_star_diagram():
    rng = random.Random(5)
    p, prec = 5, 3
    for n in (2, 3):
        done = 0
        while done < 20:
            x = rand_matrix(rng, n, p, prec)
            try:
                y = lx.frobenius_star_star(x, rng)
            except lx.NotRegularError:
                continue
            P, Py = lx.char_poly(x), lx.char_poly(y)
            assert all(Py[j] == P[j].frobenius() for j in range(n))
            assert y.trace() == x.trace().frobenius()
            assert y.det() == x.det().frobenius()
            # mod p the lift is the entrywise Frobenius
            xp = x.map_entries(lambda e: e.frobenius())
            assert all((y.rows[i][j] - xp.rows[i][j]).truncate(1).is_zero()
                       for i in range(n) for j in range(n))
            done += 1


def test_conjugate_lift():
    rng = random.Random(6)
    p, prec, n = 5, 3, 3
    x = rand_matrix(rng, n, p, prec)
    y = lx.frobenius_star_star(x, rng)
    zero = lx.PMatrix([[TruncatedPadic(p, prec, 0)] * n for _ in range(n)])
    assert lx.conjugate_lift(y, zero) == y
    for _ in range(10):
        alpha = rand_matrix(rng, n, p, prec)
        z = lx.conjugate_lift(y, alpha)
        assert lx.char_poly(z) == lx.char_poly(y)


def test_a_matrix_is_one_ring_of_residues():
    p = 5
    x = lx.PMatrix([[TruncatedPadic(p, 3, 7), TruncatedPadic(p, 2, 24)],
                    [TruncatedPadic(p, 4, 130), TruncatedPadic(p, 3, 1)]])
    # mixed-precision entries are read at the least precision
    assert x.ring is Zp(p, 2) and x.prec == 2 and x.vals == [[7, 24], [5, 1]]
    y = M(p, 4, [[1, 2], [3, 626]])
    for z in (x * y, y * x, x + y, y - x, y * TruncatedPadic(p, 2, 3)):
        assert z.ring is ring_join(x.ring, y.ring)
    assert x * y == M(p, 2, [[7 + 24 * 3, 7 * 2 + 24 * 626], [5 + 3, 10 + 626]])
    assert x == M(p, 3, [[32, 49], [30, 26]]) and x != y
    # entries are handed out as elements of the matrix's ring
    assert all(e.ring is x.ring for r in x.rows for e in r)
    assert x[1, 0] == x.rows[1][0] == TruncatedPadic(p, 2, 5)
    assert x[1, 0].ring is x.det().ring is x.trace().ring is x.ring
    with pytest.raises(ValueError):
        lx.PMatrix([[TruncatedPadic(5, 2, 1), TruncatedPadic(7, 2, 1)]] * 2)
    # at precision 1 both lifts are the entrywise p-th power
    z = lx.conj(M(p, 1, [[1, 0], [0, 2]]), M(p, 1, [[1, 1], [3, 1]]))
    assert lx.frobenius_star(z) == lx.phi0_entrywise(z)
    assert lx.frobenius_star_star(z) == lx.phi0_entrywise(z)


def test_spectrum_check_contract():
    p, prec = 5, 3
    good = lx.PMatrix.diagonal([teichmuller(p, 2, prec), teichmuller(p, 3, prec)])
    assert lx.spectrum_delta_constant_check(good)
    bad = M(p, prec, [[1 + p, 0], [0, 2]])
    with pytest.raises(ValueError):
        lx.spectrum_delta_constant_check(bad)


# ---------------------------------------------------------------------------
# properties of the shared matrix code: product, row reduction, Horner

# (n, p, N): n x n matrices over Z/p^N
rings_and_sizes = st.tuples(st.integers(1, 4), st.sampled_from((3, 5, 7)),
                            st.integers(1, 4))


def draw_matrix(draw, n, p, prec):
    return [[TruncatedPadic(p, prec, draw(st.integers(0, p ** prec - 1)))
             for _ in range(n)] for _ in range(n)]


@settings(max_examples=100, deadline=None)
@given(st.data())
def test_inverse_exists_iff_det_is_unit(data):
    n, p, prec = data.draw(rings_and_sizes)
    rows = draw_matrix(data.draw, n, p, prec)
    if data.draw(st.booleans()):
        # a row divisible by p makes the matrix singular mod p
        k = data.draw(st.integers(0, n - 1))
        rows[k] = [e * p for e in rows[k]]
    if n > 1 and data.draw(st.booleans()):
        # an entry known to more digits: the matrix is read at the least
        i, j = data.draw(st.integers(0, n - 1)), data.draw(st.integers(0, n - 1))
        rows[i][j] = TruncatedPadic(p, prec + 2, rows[i][j].val + p ** prec
                                    * data.draw(st.integers(0, p * p - 1)))
    x = lx.PMatrix(rows)
    assert x.ring is Zp(p, prec)
    if not x.det().is_unit():
        with pytest.raises(ZeroDivisionError):
            x.inv()
        return
    y = x.inv()
    one = lx.PMatrix.identity(n, p, prec)
    assert x * y == one and y * x == one


@settings(max_examples=100, deadline=None)
@given(st.data())
def test_kernel_vector_of_a_rank_deficient_matrix(data):
    # m = U diag(0, u_2, .., u_n) L with U, L unitriangular has rank n-1 mod
    # p, and L^{-1} e_1, whose first entry is 1, spans an exact kernel
    n, p, prec = data.draw(rings_and_sizes)
    entries = draw_matrix(data.draw, n, p, prec)
    units = [TruncatedPadic(p, prec, data.draw(st.integers(1, p - 1)))
             for _ in range(n)]
    one, zero = units[0] ** 0, units[0] * 0
    L = lx.PMatrix([[one if i == j else entries[i][j] if i > j else zero
                     for j in range(n)] for i in range(n)])
    U = lx.PMatrix([[one if i == j else entries[i][j] if i < j else zero
                     for j in range(n)] for i in range(n)])
    D = lx.PMatrix.diagonal([zero] + units[1:])
    m = (U * D * L).rows
    v = [zero.ring.from_int(c)
         for c in lx._kernel_vector([[e.val for e in r] for r in m], zero.ring)]
    assert any(e.is_unit() for e in v)
    assert all((sum((a * b for a, b in zip(row, v)), zero)).is_zero()
               for row in m)


@settings(max_examples=100, deadline=None)
@given(st.data())
def test_horner_value_and_derivative(data):
    n, p, prec = data.draw(rings_and_sizes)
    m = p ** prec
    P = [data.draw(st.integers(0, m - 1)) for _ in range(n)]
    t = data.draw(st.integers(0, m - 1))
    # t^n - P_1 t^{n-1} + ... + (-1)^n P_n, term by term
    coeffs = [1] + [(-1) ** j * Pj for j, Pj in enumerate(P, start=1)]
    value = sum(c * t ** (n - j) for j, c in enumerate(coeffs))
    deriv = sum(c * (n - j) * t ** (n - j - 1) for j, c in enumerate(coeffs)
                if n - j >= 1)
    val, der = lx._charpoly_eval([TruncatedPadic(p, prec, Pj) for Pj in P],
                                 TruncatedPadic(p, prec, t))
    assert (val.val, der.val) == (value % m, deriv % m)
