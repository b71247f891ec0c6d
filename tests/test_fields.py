"""GF(p^n) against sympy's polynomial arithmetic over GF(p), for every field
with at most 256 elements, plus a digest that freezes the labelling."""

import hashlib
import random

import pytest
from sympy import Poly, factorint, symbols
from sympy.polys.domains import ZZ
from sympy.polys.galoistools import gf_add, gf_mul, gf_pow_mod, gf_rem, gf_strip

from solvlab.errors import InvalidBase
from solvlab.fields import GF
from solvlab.numtheory import is_prime_power

X = symbols("x")


@pytest.fixture(scope="module")
def fields():
    """Every field with q <= 256, built once for the module, keyed by q."""
    return {q: GF(*pp) for q in range(2, 257) if (pp := is_prime_power(q))}


def _digits(p, n, code):
    """The n base-p digits of a code, most significant first."""
    digits = []
    for _ in range(n):
        digits.append(code % p)
        code //= p
    return digits[::-1]


def _poly(K, code):
    """The element with this code as a sympy dense list, leading term first."""
    return gf_strip(_digits(K.p, K.n, code))


def _code(K, poly):
    out = 0
    for c in poly:
        out = out * K.p + c
    return out


def test_the_fields_are_the_70_prime_powers_up_to_256(fields):
    assert len(fields) == 70
    assert all(K.q == K.p**K.n == q for q, K in fields.items())


def test_modulus_is_the_least_irreducible_candidate(fields):
    for q, K in fields.items():
        p, n = K.p, K.n
        assert len(K.modulus) == n + 1 and K.modulus[-1] == 1, q
        coeffs = list(K.modulus[::-1])
        assert Poly(coeffs, X, modulus=p).is_irreducible, q
        # candidates in code order: the code's digits are (c_{n-1}, ..., c_0)
        for code in range(p**n):
            candidate = [1] + _digits(p, n, code)
            if candidate == coeffs:
                break
            assert not Poly(candidate, X, modulus=p).is_irreducible, (q, candidate)
        else:
            pytest.fail(f"GF({q}) modulus {K.modulus} is not a candidate")


def test_tables_match_sympy_arithmetic(fields):
    rng = random.Random(20240607)
    for q, K in fields.items():
        f = K.modulus[::-1]
        if q <= 32:
            pairs = [(a, b) for a in range(q) for b in range(q)]
        else:
            pairs = [(rng.randrange(q), rng.randrange(q)) for _ in range(300)]
        for a, b in pairs:
            u, v = _poly(K, a), _poly(K, b)
            assert K.add_table[a][b] == _code(K, gf_add(u, v, K.p, ZZ)), (q, a, b)
            product = gf_rem(gf_mul(u, v, K.p, ZZ), f, K.p, ZZ)
            assert K.mul_table[a][b] == _code(K, product), (q, a, b)


def test_negatives_and_inverses(fields):
    for q, K in fields.items():
        assert K.neg(0) == 0
        for a in range(1, q):
            assert K.add(a, K.neg(a)) == 0, (q, a)
            assert K.mul(a, K.inv(a)) == 1, (q, a)
        with pytest.raises(ZeroDivisionError):
            K.inv(0)


def test_multiplicative_generator_is_the_least(fields):
    for q, K in fields.items():
        f = K.modulus[::-1]
        cofactors = [(q - 1) // r for r in factorint(q - 1)]

        def generates(a):
            return all(gf_pow_mod(_poly(K, a), e, f, K.p, ZZ) != [1] for e in cofactors)

        g = K.multiplicative_generator()
        assert generates(g), q
        assert not any(generates(a) for a in range(1, g)), q


def test_invalid_bases_are_refused():
    for p, n in ((4, 1), (2, 0)):
        with pytest.raises(InvalidBase):
            GF(p, n)


def test_labelling_is_frozen(fields):
    # SHA-256 over every field's modulus, multiplicative generator and four
    # tables (each row as bytes, since codes stay below 256), recorded at
    # commit e9648d3: the element codes fix every permutation a family builds
    h = hashlib.sha256()
    for q, K in fields.items():
        h.update(f"{q} {K.modulus} {K.multiplicative_generator()}\n".encode())
        for row in (*K.add_table, *K.mul_table, K.neg_table, K.inv_table):
            h.update(bytes(row))
    assert h.hexdigest() == "f74517e75615d0d13c4fb8851708b8ba298f8c4ef06cd112eb2147b2fe9c0306"
