import math
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from solvlab.errors import DegreeMismatch, DegreeTooLarge, MalformedPermutation
from solvlab.perm import (
    Permutation,
    _comm,
    _commutes,
    _conj,
    _identity,
    _inv,
    _mul,
    _order,
)

from conftest import ref_conj, ref_inv, ref_mul


def perm(*images):
    return Permutation(images)


@st.composite
def permutations(draw, max_degree=8):
    n = draw(st.integers(min_value=1, max_value=max_degree))
    images = draw(st.permutations(list(range(1, n + 1))))
    return Permutation(images)


class TestConstruction:
    def test_images_round_trip(self):
        p = perm(2, 3, 1)
        assert p.images == (2, 3, 1)
        assert p.degree == 3

    def test_identity(self):
        e = Permutation.identity(4)
        assert e.is_identity()
        assert e.images == (1, 2, 3, 4)

    def test_rejects_non_bijection(self):
        with pytest.raises(MalformedPermutation):
            perm(1, 1, 3)
        with pytest.raises(MalformedPermutation):
            perm(1, 2, 5)
        with pytest.raises(MalformedPermutation):
            Permutation([])
        # int() would truncate these to the identity
        with pytest.raises(MalformedPermutation):
            Permutation([1.9, 2.2, 3])
        with pytest.raises(MalformedPermutation):
            Permutation(["a"])
        # the message names the images read from a one-shot iterator
        with pytest.raises(MalformedPermutation, match=r"images \[1, 1, 3\] are not"):
            Permutation(v for v in [1, 1, 3])

    def test_a_degree_above_256_is_refused(self):
        with pytest.raises(DegreeTooLarge, match="degree 257"):
            Permutation(range(1, 258))
        with pytest.raises(DegreeTooLarge, match="degree 300"):
            Permutation.identity(300)
        # 256 points is the limit, not beyond it
        reversal = Permutation(range(256, 0, -1))
        assert reversal.degree == 256
        assert reversal.images == tuple(range(256, 0, -1))
        assert reversal.inverse() == reversal
        e = Permutation.identity(256)
        assert e.degree == 256 and e.is_identity()
        assert e.images == tuple(range(1, 257))

    def test_point_application_is_one_based(self):
        p = perm(2, 3, 1)
        assert p(1) == 2 and p(2) == 3 and p(3) == 1
        with pytest.raises(DegreeMismatch):
            p(0)
        with pytest.raises(DegreeMismatch):
            p(4)


class TestComposition:
    def test_left_to_right_convention(self):
        # (1 2) then (2 3): 1 -> 2 -> 3, so the product maps 1 to 3
        p = perm(2, 1, 3)
        q = perm(1, 3, 2)
        assert (p * q)(1) == 3
        assert (p * q).images == (3, 1, 2)

    def test_degree_mismatch(self):
        with pytest.raises(DegreeMismatch):
            perm(2, 1) * perm(2, 1, 3)

    def test_conjugation_matches_definition(self):
        p = perm(2, 1, 3, 4)
        g = perm(2, 3, 4, 1)
        expected = g.inverse() * p * g
        assert p.conjugate_by(g) == expected

    def test_power_and_order(self):
        c = perm(2, 3, 4, 5, 1)
        assert c**5 == Permutation.identity(5)
        assert c**-1 == c.inverse()
        assert c**7 == c * c
        assert c.order() == 5
        # (1 2 3)(4 5): lcm(3, 2) = 6
        assert perm(2, 3, 1, 5, 4).order() == 6


class TestProperties:
    @given(permutations())
    def test_inverse_round_trip(self, p):
        assert p * p.inverse() == Permutation.identity(p.degree)
        assert p.inverse().inverse() == p

    @given(permutations(), permutations(), permutations())
    @settings(max_examples=60)
    def test_associativity(self, a, b, c):
        n = max(a.degree, b.degree, c.degree)

        def pad(p):
            return Permutation(p.images + tuple(range(p.degree + 1, n + 1)))

        a, b, c = pad(a), pad(b), pad(c)
        assert (a * b) * c == a * (b * c)

    @given(permutations())
    def test_order_annihilates(self, p):
        assert (p ** p.order()).is_identity()
        assert math.factorial(p.degree) % p.order() == 0

    @given(permutations(), permutations())
    @settings(max_examples=60)
    def test_conjugation_is_homomorphism(self, p, g):
        n = max(p.degree, g.degree)

        def pad(x):
            return Permutation(x.images + tuple(range(x.degree + 1, n + 1)))

        p, g = pad(p), pad(g)
        assert (p * p).conjugate_by(g) == p.conjugate_by(g) * p.conjugate_by(g)
        assert p.conjugate_by(g).order() == p.order()


def ref_order(p):
    """The lcm over points of the least k with p^k fixing the point."""
    out = 1
    for i in range(len(p)):
        k, j = 1, p[i]
        while j != i:
            k, j = k + 1, p[j]
        out = math.lcm(out, k)
    return out


class TestRawImagesAgainstTupleReference:
    """The bytes primitives against the tuple formulas in conftest, at the
    degrees where padding a translation table matters: 1, a small one, the
    largest in the catalog's tables, and 255 and 256, where _mul pads with
    one byte and with none."""

    @pytest.mark.parametrize("degree", [1, 2, 7, 28, 255, 256])
    def test_primitives_match(self, degree):
        rng = random.Random(degree)
        perms = [bytes(rng.sample(range(degree), degree)) for _ in range(12)]
        # powers of one permutation commute with each other
        perms += [_mul(perms[0], perms[0]), _inv(perms[0])]
        if degree >= 3:
            # two transpositions of the last three points: their products in
            # either order differ on those three points only
            for i in (degree - 3, degree - 2):
                swap = list(range(degree))
                swap[i], swap[i + 1] = i + 1, i
                perms.append(bytes(swap))
        idn = _identity(degree)
        assert idn == bytes(range(degree)) and len(idn) == degree
        for p in perms:
            t = tuple(p)
            assert tuple(_inv(p)) == ref_inv(t)
            assert _order(p) == ref_order(t)
            assert _mul(p, idn) == _mul(idn, p) == p
            for q in perms:
                u = tuple(q)
                assert tuple(_mul(p, q)) == ref_mul(t, u)
                assert tuple(_conj(p, q)) == ref_conj(t, u)
                assert tuple(_comm(p, q)) == ref_mul(ref_inv(ref_mul(u, t)), ref_mul(t, u))
                assert _commutes(p, q) == (ref_mul(t, u) == ref_mul(u, t))
        assert _commutes(perms[0], perms[13]) and _commutes(perms[12], perms[0])
