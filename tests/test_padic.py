"""Truncated p-adic arithmetic and the Fermat quotient."""

import copy
import operator
import pickle

import pytest
from hypothesis import given, settings, strategies as st

from arithflow.padic import (TruncatedPadic, PrecisionError, delta_base,
                             teichmuller, is_delta_constant, _is_prime,
                             _PRIME_LIMIT)
from arithflow.poly import MultiPoly, Zp, ring_join


def test_delta_of_zero_and_one():
    for p in (3, 5, 7):
        assert delta_base(TruncatedPadic(p, 4, 0)).is_zero()
        assert delta_base(TruncatedPadic(p, 4, 1)).is_zero()


def test_delta_worked_example():
    # p=3: (2 - 2^3)/3 = -2, i.e. 25 mod 27, precision drops 4 -> 3
    a = TruncatedPadic(3, 4, 2)
    d = delta_base(a)
    assert d.prec == 3
    assert d.val == 25


def test_delta_needs_two_digits():
    with pytest.raises(PrecisionError):
        delta_base(TruncatedPadic(5, 1, 2))


def test_teichmuller_examples():
    assert teichmuller(7, 0, 3).val == 0
    assert teichmuller(7, 1, 3).val == 1
    t = teichmuller(5, 2, 3)
    assert t.val == 57
    assert pow(57, 5, 125) == 57
    assert delta_base(teichmuller(5, 2, 4)).is_zero()


def test_teichmuller_is_the_fixed_point_iteration():
    # the closed form r^(p^(prec-1)) against iterating x -> x^p to a fixed point
    for p in (3, 5, 7, 13):
        for prec in range(1, 7):
            m = p ** prec
            for r in range(p):
                x = r
                while pow(x, p, m) != x:
                    x = pow(x, p, m)
                t = teichmuller(p, r, prec)
                assert (t.p, t.prec, t.val) == (p, prec, x)


def test_is_prime_matches_trial_division():
    small = [q for q in range(2, 317) if all(q % d for d in range(2, q))]
    for n in range(-3, 100000):
        want = n >= 2 and all(n % q for q in small if q * q <= n)
        assert _is_prime(n) == want, n


def test_is_prime_at_large_n():
    # 3215031751 = 151 * 751 * 28351 is a strong pseudoprime to bases 2, 3, 5, 7
    assert not _is_prime(3215031751)
    assert _is_prime(1000000000000000003)
    assert not _is_prime(1000000000000000001)
    # the largest prime below 2^64
    assert _is_prime(2 ** 64 - 59)
    # a strong pseudoprime to the first 11 prime bases, 2 to 31
    assert not _is_prime(149491 * 747451 * 34233211)
    with pytest.raises(ValueError, match="primes must be below"):
        _is_prime(_PRIME_LIMIT)
    with pytest.raises(ValueError, match="primes must be below"):
        TruncatedPadic(2 ** 89 - 1, 1, 1)


def test_delta_constant_predicate():
    assert is_delta_constant(teichmuller(3, 2, 3))
    assert not is_delta_constant(TruncatedPadic(3, 3, 2))
    assert not is_delta_constant(TruncatedPadic(3, 3, 3))


def test_even_or_composite_prime_rejected():
    with pytest.raises(ValueError):
        TruncatedPadic(2, 3, 1)
    with pytest.raises(ValueError):
        TruncatedPadic(9, 3, 1)
    # the ring makes the checks, and a ring that fails them is not kept
    for _ in range(2):
        with pytest.raises(ValueError, match="p must be an odd prime, got 9"):
            Zp(9, 3)
        with pytest.raises(ValueError, match="precision must be >= 1"):
            Zp(5, 0)
        with pytest.raises(ValueError, match="precision must be >= 1"):
            TruncatedPadic(5, 0, 1)


def test_mixed_precision_equality_and_ops():
    a = TruncatedPadic(5, 4, 7)
    b = TruncatedPadic(5, 2, 7)
    assert a == b
    assert (a + b).prec == 2
    assert a + 3 == 10
    assert (a * b).val == 49 % 25
    # the result ring is the ring_join of the operands' rings
    assert a.ring is Zp(5, 4)
    for c in (a + b, b + a, a - b, a * b, b * a):
        assert c.ring is Zp(5, 2) is ring_join(a.ring, b.ring)
    for c in (a + 3, 3 + a, a - 3, 3 - a, a * 3, 3 * a):
        assert c.ring is Zp(5, 4)
    with pytest.raises(ValueError) as joined:
        ring_join(Zp(5, 4), Zp(7, 2))
    for op in (operator.add, operator.sub, operator.mul, operator.eq):
        with pytest.raises(ValueError) as mixed:
            op(a, TruncatedPadic(7, 2, 7))
        assert str(mixed.value) == str(joined.value) == "prime mismatch: 5 vs 7"


def test_copies_keep_the_interned_ring():
    a = TruncatedPadic(7, 3, 12)
    for b in (copy.copy(a), copy.deepcopy(a), pickle.loads(pickle.dumps(a))):
        assert b.ring is Zp(7, 3) and b.val == 12


def test_inverse_and_units():
    a = TruncatedPadic(7, 3, 12)
    assert a.is_unit()
    assert (a * a.inv()).val == 1
    with pytest.raises(ZeroDivisionError):
        TruncatedPadic(7, 3, 14).inv()


def test_truncate_and_div_p():
    a = TruncatedPadic(5, 3, 50)
    assert a.truncate(1).is_zero()
    with pytest.raises(PrecisionError):
        a.truncate(4)
    assert a.exact_div_p().val == 10
    with pytest.raises(ArithmeticError):
        TruncatedPadic(5, 3, 3).exact_div_p()


@settings(max_examples=200, deadline=None)
@given(st.integers(min_value=0), st.integers(min_value=0),
       st.sampled_from([3, 5, 7]))
def test_delta_sum_rule(x, y, p):
    N = 5
    a = TruncatedPadic(p, N, x)
    b = TruncatedPadic(p, N, y)
    cross = (a.frobenius() + b.frobenius() - (a + b).frobenius()).exact_div_p()
    assert delta_base(a + b) == delta_base(a) + delta_base(b) + cross


@settings(max_examples=200, deadline=None)
@given(st.integers(min_value=0), st.integers(min_value=0),
       st.sampled_from([3, 5, 7]))
def test_delta_product_rule(x, y, p):
    N = 5
    a = TruncatedPadic(p, N, x)
    b = TruncatedPadic(p, N, y)
    da, db = delta_base(a), delta_base(b)
    assert delta_base(a * b) == a.frobenius() * db + b.frobenius() * da \
        + da * db * p


@settings(max_examples=100, deadline=None)
@given(st.integers(min_value=0), st.sampled_from([3, 5, 7]))
def test_every_residue_lifts_to_a_delta_constant(x, p):
    # pseudo-delta-constants: the Teichmuller lift agrees mod p
    a = TruncatedPadic(p, 4, x)
    t = teichmuller(p, a.val % p, 4)
    assert t.truncate(1) == a.truncate(1)
    assert is_delta_constant(t)


@settings(max_examples=50, deadline=None)
@given(st.integers(min_value=0), st.sampled_from([3, 5]))
def test_nested_delta_precision_contract(x, p):
    # two nested delta applications cost exactly two digits
    a = TruncatedPadic(p, 6, x)
    d2 = delta_base(delta_base(a))
    assert d2.prec == 4


@settings(max_examples=200, deadline=None)
@given(st.sampled_from([3, 5]), st.integers(1, 4), st.integers(1, 4),
       st.integers(0, 10 ** 4), st.integers(0, 10 ** 4), st.integers(-50, 50))
def test_scalars_and_constant_polynomials_agree(p, n, m, x, y, k):
    # + - * == on scalars of two precisions, and with an int, give the ring
    # and residue that the same operations give on constant polynomials
    a, b = TruncatedPadic(p, n, x), TruncatedPadic(p, m, y)
    A, B = MultiPoly.const(a), MultiPoly.const(b)
    for op in (operator.add, operator.sub, operator.mul):
        for c, C in ((op(a, b), op(A, B)), (op(a, k), op(A, k)),
                     (op(k, b), op(k, B))):
            assert C.ring is c.ring
            assert C.eval({}).val == c.val
    assert (a == b) == (A == B)
    assert (a == k) == (A == k)
