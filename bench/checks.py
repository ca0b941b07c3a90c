"""Independent correctness checks, in plain integers.

Nothing here imports arithflow.  Each check recomputes the property it tests
from its definition: the Frobenius-lift identity phi(H) = H^p at points, the
Hasse invariant by a binomial expansion, characteristic polynomials by
principal minors, matrix inverses by Gauss-Jordan.  The workloads turn the
library's outputs into plain data (ints, tuples, dicts) before calling these.
"""

from itertools import combinations, permutations
from math import comb


# ---------------------------------------------------------------------------
# the Euler system

def norm_value(a, z1, z2, m):
    """N(z1, z2) = prod (z1 - a_i z2) mod m."""
    out = 1
    for ai in a:
        out = out * (z1 - ai * z2) % m
    return out


def hasse_mod_p(p, a, z1, z2):
    """A_{p-1}(z1, z2) mod p: the coefficient of x^{p-1} in F^{(p-1)/2}.

    With y = x^2, F = (al y + be)(ga y + de), so the coefficient of y^k in
    F^k (k = (p-1)/2) is sum_i C(k,i) al^i be^(k-i) C(k,k-i) ga^(k-i) de^i.
    """
    a1, a2, a3 = a
    al, be = a2 - a3, z1 - a2 * z2
    ga, de = a3 - a1, -z1 + a1 * z2
    k = (p - 1) // 2
    total = sum(comb(k, i) ** 2 * al ** i * be ** (k - i) * ga ** (k - i) * de ** i
                for i in range(k + 1))
    return total % p


def quadrics(a, x, m):
    """(H1, H2) = (sum a_i x_i^2, sum x_i^2) mod m."""
    return (sum(ai * xi * xi for ai, xi in zip(a, x)) % m,
            sum(xi * xi for xi in x) % m)


def on_chart(p, a, x):
    """True iff every chart denominator x1, x2, N(H1,H2), A_{p-1}(H1,H2) is a
    unit at x, so the flow's images can be evaluated there."""
    h1, h2 = quadrics(a, x, p)
    return (x[0] % p != 0 and x[1] % p != 0
            and norm_value(a, h1, h2, p) != 0 and hasse_mod_p(p, a, h1, h2) != 0)


def frobenius_lift_holds(p, prec, a, x, u):
    """sum w_i (x_i^p + p u_i)^2 == (sum w_i x_i^2)^p mod p^prec for w = a
    and w = (1, 1, 1): phi(H1) = H1^p and phi(H2) = H2^p at the point x,
    where u = (u_1(x), u_2(x), u_3(x)) are the flow images evaluated at x."""
    m = p ** prec
    phi = [(xi ** p + p * ui) % m for xi, ui in zip(x, u)]
    for w in (a, (1, 1, 1)):
        lhs = sum(wi * f * f for wi, f in zip(w, phi)) % m
        rhs = pow(sum(wi * xi * xi for wi, xi in zip(w, x)), p, m)
        if lhs != rhs:
            return False
    return True


def fibre_points(p, a, c):
    """F_p-points of H1 = c1, H2 = c2 with x1 x2 != 0."""
    c1, c2 = c[0] % p, c[1] % p
    pts = []
    for x1 in range(1, p):
        for x2 in range(1, p):
            for x3 in range(p):
                if quadrics(a, (x1, x2, x3), p) == (c1, c2):
                    pts.append((x1, x2, x3))
    return pts


def eval_chart_element(p, terms, den, factor_values, values):
    """numerator(values) / prod factor_values[i]^den[i] mod p.

    terms is a list of ({variable: exponent}, coefficient) pairs."""
    num = 0
    for mono, coeff in terms:
        t = coeff
        for name, e in mono.items():
            t = t * pow(values[name], e, p) % p
        num += t
    d = 1
    for f, k in zip(factor_values, den):
        d = d * pow(f, k, p) % p
    return num * pow(d, -1, p) % p


def linearization_holds(p, a, c, h_terms, h_den, coef):
    """h(x) * coef == 1 mod p at every point x of the fibre c with x1 x2 != 0,
    where h is the pullback coefficient <(phi*/p) omega, v>.  On the fibre
    N(H1,H2) = N(c) and A_{p-1}(H1,H2) = A_{p-1}(c).  Returns the number of
    points checked, or None at the first point where it fails."""
    nc = norm_value(a, c[0], c[1], p)
    ac = hasse_mod_p(p, a, c[0], c[1])
    pts = fibre_points(p, a, c)
    for x in pts:
        values = {"x1": x[0], "x2": x[1], "x3": x[2]}
        hv = eval_chart_element(p, h_terms, h_den, (x[0], x[1], nc, ac), values)
        if hv * coef % p != 1:
            return None
    return len(pts)


# ---------------------------------------------------------------------------
# matrices over Z/m

def mat_mul(A, B, m):
    n = len(A)
    return [[sum(A[i][k] * B[k][j] for k in range(n)) % m for j in range(n)]
            for i in range(n)]


def mat_inv(A, p, m):
    """Inverse over Z/m (m a power of p) by Gauss-Jordan with unit pivots."""
    n = len(A)
    aug = [list(r) + [int(i == j) for j in range(n)] for i, r in enumerate(A)]
    for col in range(n):
        piv = next(r for r in range(col, n) if aug[r][col] % p)
        aug[col], aug[piv] = aug[piv], aug[col]
        inv = pow(aug[col][col], -1, m)
        aug[col] = [e * inv % m for e in aug[col]]
        for r in range(n):
            if r != col and aug[r][col]:
                f = aug[r][col]
                aug[r] = [(e - f * g) % m for e, g in zip(aug[r], aug[col])]
    return [r[n:] for r in aug]


def det(A, m):
    """Leibniz formula; n <= 4."""
    n = len(A)
    total = 0
    for perm in permutations(range(n)):
        inversions = sum(perm[i] > perm[j] for i in range(n) for j in range(i + 1, n))
        t = -1 if inversions % 2 else 1
        for i in range(n):
            t *= A[i][perm[i]]
        total += t
    return total % m


def char_poly(A, m):
    """P_1 .. P_n, P_j the sum of the principal j x j minors, so that
    det(s - A) = s^n - P_1 s^{n-1} + ... + (-1)^n P_n."""
    n = len(A)
    return [sum(det([[A[i][k] for k in idx] for i in idx], m)
                for idx in combinations(range(n), j)) % m
            for j in range(1, n + 1)]


def entrywise_pow(A, e, m):
    return [[pow(v, e, m) for v in r] for r in A]


def lax_lifts_hold(p, prec, h, g, x, star, star_star, conj_lift):
    """The three matrix-lift properties; returns the name of the first that
    fails, or None.

    - frobenius_star(g^-1 h g) = phi0(g)^-1 phi0(h) phi0(g);
    - char poly of frobenius_star_star(x) is the p-th power of x's, and the
      conjugation lift leaves it unchanged;
    - every lift reduces mod p to the entrywise p-th power of x.
    """
    m = p ** prec
    hp, gp = entrywise_pow(h, p, m), entrywise_pow(g, p, m)
    if star != mat_mul(mat_mul(mat_inv(gp, p, m), hp, m), gp, m):
        return "frobenius_star"
    cp = char_poly(star_star, m)
    if cp != [pow(c, p, m) for c in char_poly(x, m)]:
        return "frobenius_star_star"
    if char_poly(conj_lift, m) != cp:
        return "conjugate_lift"
    xp = entrywise_pow(x, p, p)
    for name, y in (("frobenius_star", star), ("frobenius_star_star", star_star),
                    ("conjugate_lift", conj_lift)):
        if [[v % p for v in r] for r in y] != xp:
            return name + " mod p"
    return None
