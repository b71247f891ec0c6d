"""Primality, factorization and multiplicative-order arithmetic vs sympy."""

import pytest
import sympy
from hypothesis import given, settings
from hypothesis import strategies as st

from solvlab.errors import PrimalityRangeError
from solvlab.numtheory import (
    _MR_BOUND,
    factorize,
    is_fermat_prime,
    is_mersenne_prime,
    is_prime,
    is_prime_power,
    least_primitive_root,
    multiplicative_order,
)

# nearest primes on either side of the proven deterministic witness bound
_BIG_PRIME = int(sympy.nextprime(_MR_BOUND))
_NEAR_PRIME = int(sympy.prevprime(_MR_BOUND))


class TestIsPrime:
    def test_matches_sympy_on_range(self):
        for n in range(-3, 2000):
            assert is_prime(n) == sympy.isprime(n), n

    def test_carmichael_and_strong_pseudoprimes(self):
        # Fermat liars and base-2 strong pseudoprimes must all be rejected
        for n in [561, 1105, 1729, 6601, 8911, 2047, 3215031751, 3825123056546413051]:
            assert not is_prime(n)

    def test_large_primes_below_bound(self):
        for n in [2**61 - 1, 67280421310721, _NEAR_PRIME]:
            assert is_prime(n)

    def test_raises_at_and_above_proven_bound(self):
        # the predicate refuses everything past the bound, composites
        # included; factorize handles those through the witness loop
        for n in [_BIG_PRIME, _MR_BOUND, _MR_BOUND + 1]:
            with pytest.raises(PrimalityRangeError):
                is_prime(n)


class TestFactorize:
    def test_small_values(self):
        assert factorize(1) == {}
        assert factorize(2) == {2: 1}
        assert factorize(360) == {2: 3, 3: 2, 5: 1}
        assert factorize(2**10) == {2: 10}

    @given(st.integers(min_value=2, max_value=10**6))
    @settings(max_examples=80)
    def test_matches_sympy(self, n):
        assert factorize(n) == sympy.factorint(n)

    def test_semiprime_with_large_factors(self):
        p, q = 1000003, 1000033
        assert factorize(p * q) == {p: 1, q: 1}

    def test_rho_splits_composites_beyond_bound(self):
        # the product exceeds the witness bound, but it is witnessed
        # composite, so it is split first and each cofactor is provable
        p, q = 10000019, _NEAR_PRIME
        assert p * q > _MR_BOUND
        assert factorize(p * q) == {p: 1, q: 1}

    def test_uncertifiable_prime_cofactor_raises(self):
        with pytest.raises(PrimalityRangeError):
            factorize(_BIG_PRIME)
        with pytest.raises(PrimalityRangeError):
            factorize(4 * _BIG_PRIME)

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            factorize(0)


class TestPredicates:
    def test_prime_power(self):
        assert is_prime_power(8) == (2, 3)
        assert is_prime_power(27) == (3, 3)
        assert is_prime_power(7) == (7, 1)
        assert is_prime_power(12) is None
        assert is_prime_power(1) is None

    def test_fermat_and_mersenne(self):
        assert [n for n in range(2, 300) if is_fermat_prime(n)] == [3, 5, 17, 257]
        assert [n for n in range(2, 200) if is_mersenne_prime(n)] == [3, 7, 31, 127]


class TestOrders:
    def test_multiplicative_order_matches_sympy(self):
        for r in [7, 11, 13, 101, 307]:
            for a in [2, 3, 5, 10]:
                if a % r == 0:
                    continue
                assert multiplicative_order(a, r) == sympy.n_order(a, r)

    def test_order_rejects_bad_arguments(self):
        with pytest.raises(ValueError):
            multiplicative_order(2, 9)
        with pytest.raises(ValueError):
            multiplicative_order(14, 7)

    def test_least_primitive_root(self):
        for p in [3, 5, 7, 11, 13, 23, 101]:
            g = least_primitive_root(p)
            assert g == sympy.primitive_root(p)
            assert multiplicative_order(g, p) == p - 1
