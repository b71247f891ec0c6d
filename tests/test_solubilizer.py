"""Solubilizer records against frozen values, plus the counting identities.

The numeric tables here were computed by this engine and cross-checked by
hand against order/index arithmetic; they are frozen so that regressions
in the solubility scan, the orbit counters or the normalizer code show up
as value changes, not just as internal inconsistencies.
"""

import os
import random
import subprocess
import sys
from fractions import Fraction
from math import gcd
from pathlib import Path

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from sympy import isprime
from sympy.combinatorics import Permutation as SymPerm
from sympy.combinatorics import PermutationGroup as SymGroup

import solvlab
import solvlab.group
import solvlab.solubilizer

from solvlab.cycles import parse_cycles
from solvlab.errors import (
    GroupSoluble,
    NormalizerIsWholeGroup,
    NotInGroup,
    NotInvariantSet,
    NotNormal,
    NotSoluble,
    OrderExceedsCap,
    SubgroupChainViolated,
)
from solvlab.families import CatalogEntry, FamilySpec
from solvlab.group import (
    ElementSet,
    PermGroup,
    StabilizerChain,
    _subgroup_gens,
    conjugacy_class_reps,
    enumerate_elements,
    first_element_of_order,
    is_soluble,
    normalizer_of_cyclic,
    structure_tag,
)
from solvlab.perm import Permutation, _conj
from solvlab.solubilizer import (
    _generator_classes,
    _orbit_leaders,
    _pair_soluble,
    burnside_orbit_count,
    eq1_check,
    frobenius_structure,
    lemma32_check,
    lemma_exp_bound,
    n_value,
    orbit_count,
    pq_scan,
    quotient_sol_check,
    sol_record,
    sol_set,
    sol_set_exhaustive,
    soluble_radical,
)

from conftest import (
    brute_burnside_count,
    brute_center,
    brute_frobenius,
    brute_orbit_leaders,
    pair_soluble_chain,
)


def records_of(G):
    return [sol_record(G, rep) for rep in conjugacy_class_reps(G)]


def row_of(record):
    return (
        record.x.order(),
        record.sol_size,
        record.n_x.order(),
        record.c_x.order(),
        record.ell_cx,
        record.ell_nx,
        record.ratio34,
        record.is_subgroup,
        record.equals_nx,
    )


class TestFrozenA5:
    # order, sol, |N|, |C|, ell_C, ell_N, ratio, subgroup, sol == N
    EXPECTED = [
        (1, 60, 60, 60, 5, 5, Fraction(5), True, True),
        (2, 36, 4, 4, 12, 12, Fraction(12), False, False),
        (3, 24, 6, 3, 10, 6, Fraction(5), False, False),
        (5, 10, 10, 5, 6, 4, Fraction(3), True, True),
        (5, 10, 10, 5, 6, 4, Fraction(3), True, True),
    ]

    def test_full_table(self, a5):
        assert [row_of(r) for r in records_of(a5)] == self.EXPECTED

    def test_normalizer_structures(self, a5):
        tags = [structure_tag(r.n_x) for r in records_of(a5)]
        assert tags == ["A_5", "C_2×C_2", "S_3", "D_10", "D_10"]

    def test_five_cycle_solubilizer_is_its_normalizer(self, a5):
        x = first_element_of_order(a5, 5)
        record = sol_record(a5, x)
        members = set(enumerate_elements(record.n_x))
        assert set(record.sol) == members


class TestFrozenPSL213:
    EXPECTED = [
        (1, 1092, 1092, 1092, 9, 9, Fraction(9), True, True),
        (2, 300, 12, 12, 34, 34, Fraction(34), False, False),
        (3, 192, 12, 6, 38, 21, Fraction(19), False, False),
        (6, 156, 12, 6, 32, 18, Fraction(16), False, False),
        (7, 14, 14, 7, 8, 5, Fraction(4), True, True),
        (7, 14, 14, 7, 8, 5, Fraction(4), True, True),
        (7, 14, 14, 7, 8, 5, Fraction(4), True, True),
        (13, 78, 78, 13, 18, 8, Fraction(3), True, True),
        (13, 78, 78, 13, 18, 8, Fraction(3), True, True),
    ]

    def test_full_table(self, psl2_13):
        assert [row_of(r) for r in records_of(psl2_13)] == self.EXPECTED

    def test_seven_element_normalizer_is_dihedral(self, psl2_13):
        x = first_element_of_order(psl2_13, 7)
        record = sol_record(psl2_13, x)
        assert structure_tag(record.n_x) == "D_14"


class TestFrozenPSL28:
    EXPECTED = [
        (1, 504, 504, 504, 9, 9, Fraction(9), True, True),
        (2, 168, 8, 8, 28, 28, Fraction(28), False, False),
        (3, 18, 18, 9, 10, 6, Fraction(5), True, True),
        (7, 112, 14, 7, 22, 12, Fraction(11), False, False),
        (7, 112, 14, 7, 22, 12, Fraction(11), False, False),
        (7, 112, 14, 7, 22, 12, Fraction(11), False, False),
        (9, 18, 18, 9, 10, 6, Fraction(5), True, True),
        (9, 18, 18, 9, 10, 6, Fraction(5), True, True),
        (9, 18, 18, 9, 10, 6, Fraction(5), True, True),
    ]

    def test_full_table(self, psl2_8):
        assert [row_of(r) for r in records_of(psl2_8)] == self.EXPECTED

    def test_seven_element_sol_strictly_contains_normalizer(self, psl2_8):
        # the Mersenne case: Sol is bigger than N_x and is not a subgroup
        x = first_element_of_order(psl2_8, 7)
        record = sol_record(psl2_8, x)
        assert record.sol_size == 112 and record.n_x.order() == 14
        nx_members = set(enumerate_elements(record.n_x))
        assert nx_members < set(record.sol)
        assert not record.is_subgroup


class TestSolubleGroupsAreTrivialCases:
    def test_soluble_group_sol_is_everything(self, s4):
        for rep in conjugacy_class_reps(s4):
            assert len(sol_set(s4, rep)) == 24

    def test_central_elements_match_the_oracle(self, a5, sl2_5):
        # a central x takes the orbit scan, where N_G(<x>) = G; the oracle
        # tests every pair on a copy that shares no memo with the scan
        central = [(sl2_5, z) for z in enumerate_elements(brute_center(sl2_5))]
        central.append((a5, a5.identity()))
        for G, z in central:
            oracle_copy = PermGroup(G.degree, G.generators)
            assert sol_set(G, z) == sol_set_exhaustive(oracle_copy, z) == enumerate_elements(G)


def fresh(family, *params):
    return CatalogEntry.from_spec(FamilySpec(family, params)).group


def recorded_sifts(monkeypatch):
    """A list that receives every StabilizerChain.contains argument from now on."""
    sifts = []
    real_contains = StabilizerChain.contains
    monkeypatch.setattr(
        StabilizerChain, "contains", lambda chain, t: sifts.append(t) or real_contains(chain, t)
    )
    return sifts


def recorded_pair_tests(monkeypatch):
    """A list that receives the second element of every _pair_soluble call
    from now on."""
    tested = []
    real_pair_soluble = solvlab.solubilizer._pair_soluble
    monkeypatch.setattr(
        solvlab.solubilizer,
        "_pair_soluble",
        lambda G, a, b: tested.append(b) or real_pair_soluble(G, a, b),
    )
    return tested


def brute_orbits(elements, maps):
    """The orbits of the given bijections of elements, each a frozenset, by
    closing every element under all of them."""
    orbits = set()
    seen = set()
    for g in elements:
        if g in seen:
            continue
        orbit = {g}
        frontier = [g]
        for y in frontier:
            for f in maps:
                z = f(y)
                if z not in orbit:
                    orbit.add(z)
                    frontier.append(z)
        seen |= orbit
        orbits.add(frozenset(orbit))
    return orbits


class TestReducedScanAgainstOracle:
    """sol_set decides one pair per orbit; sol_set_exhaustive tests every pair.

    The oracle always runs on a separately built copy of the group, so it
    cannot read a set, a centralizer or a normalizer that the reduced scan
    memoized.
    """

    @pytest.mark.parametrize(
        "family,params",
        [
            ("alternating", (5,)),
            ("symmetric", (5,)),
            ("psl3_2", ()),
            ("sl2", (5,)),
            ("alternating", (6,)),
            ("psl2", (11,)),
        ],
    )
    def test_every_class_representative(self, family, params):
        G, oracle_copy = fresh(family, *params), fresh(family, *params)
        for rep in conjugacy_class_reps(G):
            assert sol_set(G, rep) == sol_set_exhaustive(oracle_copy, rep)

    @given(
        st.sampled_from([6, 7]).flatmap(
            lambda n: st.tuples(
                st.permutations(range(1, n + 1)),
                st.permutations(range(1, n + 1)),
                st.integers(min_value=0),
            )
        )
    )
    @settings(max_examples=10, deadline=None)
    def test_random_two_generator_subgroups(self, drawn):
        a, b, index = drawn
        gens = [Permutation(a), Permutation(b)]
        G, oracle_copy = PermGroup(len(a), gens), PermGroup(len(a), gens)
        elements = enumerate_elements(G)
        x = Permutation._from_images(elements.raw()[index % len(elements)])
        assert sol_set(G, x) == sol_set_exhaustive(oracle_copy, x)

    @pytest.mark.parametrize(
        "family,params",
        [("alternating", (5,)), ("symmetric", (5,)), ("psl2", (7,)), ("sl2", (5,))],
    )
    def test_one_pair_test_per_orbit_of_the_two_maps(self, family, params, monkeypatch):
        G = fresh(family, *params)
        tested = recorded_pair_tests(monkeypatch)
        elements = list(enumerate_elements(G))
        # the identity and SL(2,5)'s central -1 included: one test per class
        for x in conjugacy_class_reps(G):
            two_maps = [lambda g: x * g] + [
                lambda g, n=n: g.conjugate_by(n) for n in normalizer_of_cyclic(G, x).generators
            ]
            orbits = brute_orbits(elements, two_maps)
            # g -> gx adds nothing: gx = (xg)^x
            assert brute_orbits(elements, two_maps + [lambda g: g * x]) == orbits
            tested.clear()
            sol_set(G, x)
            assert len(tested) == len(orbits)

    def test_memoized_and_few_pair_tests(self, monkeypatch):
        G = fresh("psl2", 13)
        x = first_element_of_order(G, 13)
        calls = recorded_pair_tests(monkeypatch)
        first = sol_set(G, x)
        assert 0 < len(calls) < G.order()
        calls.clear()
        assert sol_set(G, x) is first
        assert calls == []

    def test_records_are_shared(self, a5):
        x = first_element_of_order(a5, 3)
        assert sol_record(a5, x) is sol_record(a5, x)


class TestPairTestAgainstChainOracle:
    """_pair_soluble decides by a generation certificate and a derived-series
    walk on unverified chains; pair_soluble_chain verifies one stabilizer
    chain per term of the derived series.

    Each side runs on its own copy of the group; pair_soluble_chain reads
    nothing of G but its degree.
    """

    @pytest.mark.parametrize(
        "family,params",
        [
            ("alternating", (5,)),
            ("symmetric", (5,)),
            ("psl3_2", ()),
            ("sl2", (5,)),
        ],
    )
    def test_every_class_representative_pair(self, monkeypatch, family, params):
        # Each pair is also named by its exit: a pair that builds no chain
        # exits "before" (True: cyclic-by-cyclic or small orbits; False:
        # cycle type), one that builds only a certificate at "certificate"
        # (at |G| or above the orbit bound B), and one that walks at "walk".
        G, oracle_copy = fresh(family, *params), fresh(family, *params)
        certificate = solvlab.solubilizer._certificate_chain
        walk = solvlab.solubilizer._soluble_from_gens
        taken = []

        def recording_certificate(degree, gens, target):
            taken.append("certificate")
            return certificate(degree, gens, target)

        def recording_walk(degree, gens):
            taken.append("walk")
            return walk(degree, gens)

        monkeypatch.setattr(solvlab.solubilizer, "_certificate_chain", recording_certificate)
        monkeypatch.setattr(solvlab.solubilizer, "_soluble_from_gens", recording_walk)
        wrong, exits = [], set()
        for rep in conjugacy_class_reps(G):
            for g in enumerate_elements(G).raw():
                taken.clear()
                verdict = _pair_soluble(G, rep._img, g)
                if verdict != pair_soluble_chain(oracle_copy, rep._img, g):
                    wrong.append((rep, g))
                exits.add((taken[-1] if taken else "before", verdict))
        assert wrong == []
        assert ("certificate", False) in exits
        if family != "sl2":
            # on 5 and 7 points the cycle-type exit is taken, so the oracle
            # checks it; SL(2,5) on 24 points has no orbit of prime length
            assert ("before", False) in exits
        if family == "symmetric":
            # every insoluble pair of S5 exits before any walk
            assert ("walk", False) not in exits

    @given(
        st.sampled_from([6, 7]).flatmap(
            lambda n: st.tuples(
                st.permutations(range(1, n + 1)),
                st.permutations(range(1, n + 1)),
            )
        )
    )
    @settings(max_examples=40, deadline=None)
    def test_random_pairs_in_s6_and_s7(self, drawn):
        a, b = (Permutation(p)._img for p in drawn)
        n = len(a)
        G, oracle_copy = fresh("symmetric", n), fresh("symmetric", n)
        assert _pair_soluble(G, a, b) == pair_soluble_chain(oracle_copy, a, b)

    def test_walk_takes_both_insoluble_exits_on_s6(self, monkeypatch):
        # The walk calls a term K perfect when K's generators sift to the
        # identity through the unverified chain of K', or through that chain
        # once verified.  Count which chain decided each walk the pair test
        # makes on the class-representative pairs of S6.  (On S5 every
        # insoluble pair exits at an orbit rule before any walk; in S6, A5
        # and S5 acting on 6 points stay below D(6) = 199 and still walk.)
        G = fresh("symmetric", 6)
        verified, last = [], []
        verify, derived_gens = StabilizerChain.verify, solvlab.group._derived_gens
        walk = solvlab.solubilizer._soluble_from_gens

        def counting_verify(chain):
            # the constructor verifies every chain while it is still empty
            if chain.bases:
                verified.append(chain)
            verify(chain)

        def recording_derived_gens(degree, gens):
            out = derived_gens(degree, gens)
            last[:] = [out[1]]
            return out

        exits = {"soluble": 0, "unverified": 0, "verified": 0}

        def counting_walk(degree, gens):
            verified.clear()
            soluble = walk(degree, gens)
            if soluble:
                exits["soluble"] += 1
            elif any(chain is last[0] for chain in verified):
                exits["verified"] += 1
            else:
                exits["unverified"] += 1
            return soluble

        monkeypatch.setattr(StabilizerChain, "verify", counting_verify)
        monkeypatch.setattr(solvlab.group, "_derived_gens", recording_derived_gens)
        monkeypatch.setattr(solvlab.solubilizer, "_soluble_from_gens", counting_walk)
        for rep in conjugacy_class_reps(G):
            for g in enumerate_elements(G).raw():
                _pair_soluble(G, rep._img, g)
        assert exits["soluble"] > 0
        assert exits["unverified"] > 0
        assert exits["verified"] > 0

    def test_seeded_sample_against_sympy(self):
        rng = random.Random(20251018)
        for n in (6, 7):
            G = fresh("symmetric", n)
            reps = [rep._img for rep in conjugacy_class_reps(G)]
            elements = enumerate_elements(G).raw()
            for _ in range(25):
                a, b = rng.choice(reps), rng.choice(elements)
                expected = SymGroup([SymPerm(list(a)), SymPerm(list(b))]).is_solvable
                assert _pair_soluble(G, a, b) == expected, (a, b)


def _block_pair(rng, sizes):
    """Two seeded permutations that each map every block of consecutive
    points, of the given sizes, to itself."""
    out = []
    for _ in range(2):
        images, start = [], 0
        for size in sizes:
            block = list(range(start, start + size))
            rng.shuffle(block)
            images.extend(block)
            start += size
        out.append(bytes(images))
    return out


class TestOrbitRules:
    """The orbit rules of _pair_soluble against the chain oracle, which is
    blind to them: the small-orbit exit and the per-orbit bound B that the
    certificate runs to.  test_every_class_representative_pair checks that
    the cycle-type and bound exits agree with the oracle on A5, S5 and
    PSL(3,2)."""

    def test_dixon_bound_is_the_integer_cube_root(self):
        for m in range(1, 257):
            d = solvlab.solubilizer._dixon_bound(m)
            assert d**3 <= 24 ** (m - 1) < (d + 1) ** 3, m

    @pytest.mark.parametrize("sizes", [(4, 4), (4, 3, 1), (3, 3, 2), (4, 2, 2), (2, 2, 2, 2)])
    def test_small_orbits_are_soluble_without_a_chain(self, monkeypatch, sizes):
        G, oracle_copy = fresh("symmetric", 8), fresh("symmetric", 8)
        rng = random.Random(20261020 + len(sizes))

        def no_certificate(*args):
            raise AssertionError("a pair with orbits of at most 4 points built a chain")

        monkeypatch.setattr(solvlab.solubilizer, "_certificate_chain", no_certificate)
        for _ in range(20):
            a, b = _block_pair(rng, sizes)
            assert _pair_soluble(G, a, b) is True
            assert pair_soluble_chain(oracle_copy, a, b)

    def test_dixon_bound_of_degree_4_is_attained(self):
        # (1,2,3,4)(5,6,7,8,9) and (1,2)(6,7,9,8) generate S4 x AGL(1,5), of
        # order 480 = D(4) * s(5): soluble, and above 23 * 20, so a bound
        # one below D(4) or s(5) would call it insoluble
        a = parse_cycles("(1,2,3,4)(5,6,7,8,9)", 9)._img
        b = parse_cycles("(1,2)(6,7,9,8)", 9)._img
        G, oracle_copy = fresh("symmetric", 9), fresh("symmetric", 9)
        assert StabilizerChain(9, [a, b]).order() == 480
        assert solvlab.solubilizer._dixon_bound(4) * solvlab.solubilizer._orbit_bound(5) == 480
        assert _pair_soluble(G, a, b) is True
        assert pair_soluble_chain(oracle_copy, a, b)


class TestInvariantsUnderOptimize:
    """Engine invariants raise EngineInvariantViolated, and argument checks
    InvalidParameter, both of which python -O keeps."""

    PRELUDE = """
import sys
from solvlab.errors import EngineInvariantViolated, InvalidParameter
assert sys.flags.optimize == 1 and not __debug__

def expect(call, error=EngineInvariantViolated):
    try:
        call()
    except error:
        print("raised")
    else:
        print("missed")
"""

    SOLUBILIZER = """
import solvlab.solubilizer as s
from solvlab.families import CatalogEntry, FamilySpec
from solvlab.group import ElementSet, enumerate_elements, first_element_of_order

G = CatalogEntry.from_spec(FamilySpec("alternating", (5,))).group
x = first_element_of_order(G, 5)
real = s.sol_set(G, x).raw()  # the ten elements of N_G(<x>) = D_10
outside = next(t for t in enumerate_elements(G).raw() if t not in real)
involution = next(t for t in real if s._order(t) == 2)

def with_sol(members):
    def call():
        s.sol_set = lambda G, x, cap: ElementSet(G.degree, members)
        s.sol_record(G, x)
    return call

expect(with_sol([t for t in real if t != x._img]))  # |C_G(x)| = 5 does not divide 9
expect(with_sol([t for t in real if t != x._img] + [outside]))  # x is missing
expect(with_sol([t for t in real if t != involution] + [outside]))  # N_G(<x>) is not inside
"""

    ZSIGMONDY = """
import solvlab.zsigmondy as z

real_mobius, real_order = z._mobius, z.multiplicative_order
z._mobius = lambda n: -1 if n == 1 else 1
expect(lambda: z._cyclotomic_value(4, 2))  # 3 / 15 leaves a remainder
z._mobius = real_mobius
z.multiplicative_order = lambda a, r: 0
expect(lambda: z.primitive_prime_divisors(2, 11))  # 23 and 89 no longer have order 11
z.multiplicative_order = real_order
z.primitive_prime_divisors = lambda q, d: z.ZsigmondyResult(q, d, (7,), 7)
expect(lambda: z.zsigmondy_divides_qd_plus_1(2, 4))  # 7 does not divide 2^4 + 1
"""

    RADICAL = """
import solvlab.solubilizer as s
from solvlab.families import CatalogEntry, FamilySpec
from solvlab.group import ElementSet, class_of_rep, conjugacy_class_reps, enumerate_elements

a5 = CatalogEntry.from_spec(FamilySpec("alternating", (5,))).group
s4 = CatalogEntry.from_spec(FamilySpec("symmetric", (4,))).group
reps = conjugacy_class_reps(s4)
identity = reps[0]._img
involutions = [r for r in reps if r.order() == 2]
transposition = next(r._img for r in involutions if len(class_of_rep(s4, r)) == 6)
double = next(r._img for r in involutions if len(class_of_rep(s4, r)) == 3)

def whole_for(chosen):
    # the whole group for the chosen elements, a one-element set otherwise
    return lambda G, x, cap: (
        enumerate_elements(G, cap) if x._img in chosen else ElementSet(G.degree, [x._img])
    )

def radical(G, sol_set, class_of_rep=s.class_of_rep):
    def call():
        s.sol_set, s.class_of_rep = sol_set, class_of_rep
        s.soluble_radical(G)
    return call

# {1, (a,b)} is not normal in S4
just_x = lambda G, x, cap: ElementSet(G.degree, [x._img])
expect(radical(s4, whole_for({identity, transposition}), just_x))
# A5 is not soluble
expect(radical(a5, lambda G, x, cap: enumerate_elements(G, cap)))
# V4 is a soluble normal subgroup, but only its class representative has sol = S4
expect(radical(s4, whole_for({identity, double})))
"""

    EQ1 = """
import solvlab.solubilizer as s
from solvlab.families import CatalogEntry, FamilySpec
from solvlab.group import ElementSet, PermGroup, enumerate_elements, first_element_of_order

G = CatalogEntry.from_spec(FamilySpec("symmetric", (4,))).group
x = first_element_of_order(G, 4)
n_x = s.normalizer_of_cyclic(G, x)
outside = next(t for t in enumerate_elements(G).raw() if not n_x._contains_images(t))
real_centralizer = s.centralizer

def centralizer(G, g, cap):
    if g == x:
        return real_centralizer(G, g, cap)
    # three elements, two of them in N_G(<x>): 2 does not divide 3
    fake = PermGroup(G.degree, [])
    fake._cache["elements"] = ElementSet(G.degree, [G.identity()._img, x._img, outside])
    return fake

s.centralizer = centralizer
expect(lambda: s.eq1_check(G, x, n_x))
"""

    GENERATED_ORDER = """
from solvlab.group import _generated_order

# groups of order 6 above a bound of 5: S_3 is found by unverified sifts,
# the cyclic group of (1,2,3)(4,5) only by the verified chain
expect(lambda: _generated_order(3, [bytes((1, 2, 0)), bytes((1, 0, 2))], 5))
expect(lambda: _generated_order(6, [bytes((1, 2, 0, 4, 3, 5))], 5))
"""

    ENGINE_SITES = """
import solvlab.group as g
from solvlab import families
from solvlab.families import CatalogEntry, FamilySpec

def build(family, *params):
    return CatalogEntry.from_spec(FamilySpec(family, params)).group

# the chain's order is off by one, so the closure disagrees with it
s4 = build("symmetric", 4)
s4._chain._order = 25
expect(lambda: g.enumerate_elements(s4))

# |G/N| * |N| != |G| once G's order is corrupted after its elements are known
s4 = build("symmetric", 4)
v4 = g.PermGroup(s4.degree, [g.Permutation(p) for p in ([2, 1, 4, 3], [3, 4, 1, 2])])
g.enumerate_elements(s4)
s4._chain._order = 48
expect(lambda: g.quotient_by_normal(s4, v4))

# three elements of order dividing 2 in a group of order 4: not a power of 2
c4 = build("cyclic", 4)
c4._cache["elements"] = g.ElementSet(4, [bytes(t) for t in ((0, 1, 2, 3), (1, 0, 2, 3), (0, 1, 3, 2))])
expect(lambda: g._abelian_invariants(c4, g.DEFAULT_CAP))

# a family whose order formula disagrees with the group it builds
entry = families._FAMILIES["cyclic"]
families._FAMILIES["cyclic"] = entry._replace(order=lambda n: n + 1)
expect(lambda: families.make_family(FamilySpec("cyclic", (5,))))
"""

    CLASSIFIER_ROW = """
from solvlab.classify import ClassifierRow

expect(lambda: ClassifierRow("psl2_fermat", (8,), 9, 2, "D_18", False), InvalidParameter)
expect(lambda: ClassifierRow("psl2_cpct", (7,), 3, 7, "C_3:C_7", False), InvalidParameter)
expect(lambda: ClassifierRow("psl2_cpct", (11,), 11, 3, "C_11:C_3", True), InvalidParameter)
"""

    @pytest.mark.parametrize(
        "body,raises",
        [
            (SOLUBILIZER, 3),
            (ZSIGMONDY, 3),
            (RADICAL, 3),
            (EQ1, 1),
            (GENERATED_ORDER, 2),
            (CLASSIFIER_ROW, 3),
            (ENGINE_SITES, 4),
        ],
        ids=[
            "sol_record",
            "zsigmondy",
            "soluble_radical",
            "eq1_check",
            "generated_order",
            "classifier_row",
            "engine_sites",
        ],
    )
    def test_each_invariant_raises(self, body, raises):
        src = str(Path(solvlab.__file__).resolve().parents[1])
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(p for p in (src, env.get("PYTHONPATH")) if p)
        result = subprocess.run(
            [sys.executable, "-O", "-c", self.PRELUDE + body],
            capture_output=True,
            text=True,
            env=env,
            timeout=120,
        )
        assert result.returncode == 0, result.stderr
        assert result.stdout.split() == ["raised"] * raises


class TestCountingIdentities:
    @pytest.mark.parametrize(
        "family,params",
        [
            ("alternating", (5,)),
            ("symmetric", (4,)),
            ("dihedral", (9,)),
            ("agl1", (7,)),
            ("psl2", (7,)),
        ],
    )
    def test_lemma32_residual_zero_both_subgroups(self, family, params):
        G = CatalogEntry.from_spec(FamilySpec(family, params)).group
        for record in records_of(G):
            assert lemma32_check(G, record.x, record.c_x) == 0
            assert lemma32_check(G, record.x, record.n_x) == 0

    @pytest.mark.parametrize(
        "family,params",
        [("symmetric", (4,)), ("dihedral", (10,)), ("agl1", (11,)), ("frobenius_pq", (11, 23))],
    )
    def test_eq1_residual_zero_on_soluble_groups(self, family, params):
        G = CatalogEntry.from_spec(FamilySpec(family, params)).group
        for record in records_of(G):
            assert eq1_check(G, record.x, record.c_x) == 0
            assert eq1_check(G, record.x, record.n_x) == 0

    def test_eq1_requires_soluble(self, a5):
        x = first_element_of_order(a5, 5)
        with pytest.raises(NotSoluble):
            eq1_check(a5, x, PermGroup(a5.degree, [x]))

    def test_burnside_agrees_with_partition_count(self, a5, psl2_7):
        for G in (a5, psl2_7):
            for record in records_of(G):
                assert orbit_count(record.c_x, record.sol) == burnside_orbit_count(
                    record.c_x, record.sol
                )
                assert orbit_count(record.n_x, record.sol) == burnside_orbit_count(
                    record.n_x, record.sol
                )

    def test_orbit_count_requires_invariant_set(self, a5):
        x = first_element_of_order(a5, 3)
        y = first_element_of_order(a5, 5)
        H = PermGroup(a5.degree, [x])
        not_invariant = ElementSet(
            a5.degree, (p._img for p in [Permutation.identity(a5.degree), y])
        )
        # a call that raised stored nothing, so the repeat raises too
        for _ in range(2):
            with pytest.raises(NotInvariantSet):
                orbit_count(H, not_invariant)
        assert H._cache["orbits"] == {}

    def test_ratio34_equals_record(self, a5, psl2_7):
        # Burnside counts the centralizer orbits independently of the record
        for G in (a5, psl2_7):
            for record in records_of(G):
                cx, nx = record.c_x.order(), record.n_x.order()
                ell_cx = burnside_orbit_count(record.c_x, record.sol)
                assert record.ratio34 == Fraction(cx * ell_cx, nx)

    def test_n_value_basics(self, a5):
        x = first_element_of_order(a5, 5)
        idn = Permutation.identity(5)
        assert n_value(a5, idn, x) == 1
        assert n_value(a5, x, x) == 1
        outsider = first_element_of_order(a5, 3)
        for _ in range(2):
            with pytest.raises(NotInGroup):
                n_value(a5, outsider, x)
        assert (outsider._img, x._img) not in a5._cache["n_value"]

    def test_lemma32_rejects_wrong_subgroup_chain(self, a5):
        x = first_element_of_order(a5, 5)
        y = first_element_of_order(a5, 3)
        with pytest.raises(SubgroupChainViolated):
            lemma32_check(a5, x, PermGroup(a5.degree, [y]))

    @pytest.mark.parametrize(
        "check,family,params",
        [
            (lemma32_check, "symmetric", (4,)),
            (lemma32_check, "alternating", (5,)),
            (eq1_check, "symmetric", (4,)),
        ],
        ids=["lemma32-s4", "lemma32-a5", "eq1-s4"],
    )
    def test_each_broken_chain_is_refused(self, check, family, params):
        # x of largest order: C_G(x) = <x> < N_G(<x>) < G, a 4-cycle in S4
        # (N_G(<x>) = D_8), a 5-cycle in A5 (D_10)
        G = fresh(family, *params)
        record = sol_record(G, conjugacy_class_reps(G)[-1])
        x, c_x, n_x = record.x, record.c_x, record.n_x
        assert c_x.order() < n_x.order() < G.order()
        outside_cx = next(t for t in enumerate_elements(n_x) if t not in enumerate_elements(c_x))
        padded = Permutation(list(x.images) + [G.degree + 1])
        misses_cx = PermGroup(G.degree, [outside_cx])
        other_degree = PermGroup(G.degree + 1, [padded])
        order_3 = PermGroup(G.degree, [first_element_of_order(G, 3)])
        assert n_x.order() % 3 != 0
        for H in (misses_cx, G, other_degree, order_3):
            with pytest.raises(SubgroupChainViolated):
                check(G, x, H)
        # refused by degree and order before their members are enumerated
        assert "elements" not in other_degree._cache
        assert "elements" not in order_3._cache

    def test_orbit_leaders_reject_a_non_normal_subgroup(self, a5):
        x = first_element_of_order(a5, 5)
        n_x = sol_record(a5, x).n_x  # D_10
        involution = next(h for h in enumerate_elements(n_x) if h.order() == 2)
        not_normal = enumerate_elements(PermGroup(a5.degree, [involution]))
        # a call that raised stored nothing, so the repeat raises too
        for _ in range(2):
            with pytest.raises(NotInvariantSet):
                _orbit_leaders(n_x, not_normal)
        assert not_normal.raw_set() not in n_x._cache["orbits"]


def closed_under_coprime_powers(Y):
    return all(
        (y ** k) in Y for y in Y for k in range(1, y.order()) if gcd(k, y.order()) == 1
    )


class TestBurnsideAgainstBruteForce:
    """burnside_orbit_count sums over cyclic subgroups of H, and of Y when Y is
    closed under coprime powers; brute_burnside_count (conftest) sums over
    every h in H and every y in Y."""

    @pytest.mark.parametrize(
        "family,params",
        [
            ("alternating", (5,)),
            ("symmetric", (5,)),
            ("psl2", (7,)),
            ("sl2", (5,)),
            ("symmetric", (4,)),
            ("agl1", (11,)),
        ],
    )
    def test_records_of_every_class(self, family, params):
        for record in records_of(fresh(family, *params)):
            assert closed_under_coprime_powers(record.sol)
            for H in (record.c_x, record.n_x):
                assert burnside_orbit_count(H, record.sol) == brute_burnside_count(
                    H, record.sol
                )
            # the weighted members kept on each set match a fresh copy's
            for Y in (record.sol, enumerate_elements(record.c_x), enumerate_elements(record.n_x)):
                kept = Y._generator_classes
                assert kept is not None and _generator_classes(Y) is kept
                assert kept == _generator_classes(ElementSet(Y.degree, Y.raw()))

    @given(
        st.sampled_from([5, 6]).flatmap(
            lambda n: st.tuples(
                st.permutations(range(1, n + 1)),
                st.lists(st.permutations(range(1, n + 1)), min_size=1, max_size=4),
            )
        )
    )
    @settings(max_examples=30, deadline=None)
    def test_invariant_sets_not_closed_under_coprime_powers(self, drawn):
        # a union of H-conjugation orbits is H-invariant; one that misses a
        # coprime power of a member takes the member-by-member sum
        h, seeds = drawn
        H = PermGroup(len(h), [Permutation(h)])
        Y = ElementSet(
            len(h),
            (_conj(Permutation(y)._img, g) for y in seeds for g in enumerate_elements(H).raw()),
        )
        assume(not closed_under_coprime_powers(Y))
        assert burnside_orbit_count(H, Y) == brute_burnside_count(H, Y)
        assert Y._generator_classes == tuple((y, 1) for y in Y.raw())

    def test_non_invariant_sets_raise(self, a5):
        x = first_element_of_order(a5, 3)
        y = first_element_of_order(a5, 5)
        H = PermGroup(a5.degree, [x])
        # <y> is closed under coprime powers; {1, y} is not.  Neither is
        # invariant: a 3-cycle does not normalize a subgroup of order 5 in A5.
        closed = enumerate_elements(PermGroup(a5.degree, [y]))
        not_closed = ElementSet(a5.degree, [Permutation.identity(5)._img, y._img])
        assert closed_under_coprime_powers(closed)
        assert not closed_under_coprime_powers(not_closed)
        for Y in (closed, not_closed):
            with pytest.raises(NotInvariantSet):
                burnside_orbit_count(H, Y)


class TestOrbitMemos:
    def test_orbit_leaders_memo_matches_a_fresh_copy(self):
        for G in (fresh("alternating", 5), fresh("symmetric", 4)):
            for record in records_of(G):
                for H in (record.c_x, record.n_x):
                    # sol_record stored ell_cx and ell_nx through the memo
                    assert record.sol.raw_set() in H._cache["orbits"]
                    copy = PermGroup(H.degree, H.generators)
                    members = (enumerate_elements(K) for K in (record.c_x, record.n_x))
                    for Y in (record.sol, *members):
                        leaders = _orbit_leaders(H, Y)
                        assert H._cache["orbits"][Y.raw_set()] is leaders
                        assert _orbit_leaders(H, Y) is leaders
                        assert leaders == _orbit_leaders(copy, Y)
                        assert orbit_count(H, Y) == len(leaders)

    def test_n_value_memo_matches_a_fresh_copy(self):
        for G in (fresh("alternating", 5), fresh("symmetric", 4)):
            copy = PermGroup(G.degree, G.generators)
            for record in records_of(G):
                for g in enumerate_elements(record.n_x):
                    value = n_value(G, g, record.x)
                    assert G._cache["n_value"][(g._img, record.x._img)] is value
                    assert n_value(G, g, record.x) is value
                    assert value == n_value(copy, g, record.x)

    @pytest.mark.parametrize(
        "family,params",
        [("alternating", (5,)), ("symmetric", (4,)), ("sl2", (5,)), ("agl1", (7,))],
    )
    def test_orbit_leaders_against_brute_force(self, family, params):
        for record in records_of(fresh(family, *params)):
            centralizer_members = enumerate_elements(record.c_x)
            for H in (record.c_x, record.n_x):
                for Y in (record.sol, centralizer_members):
                    assert _orbit_leaders(H, Y) == brute_orbit_leaders(H, Y)

    def test_eq1_reads_each_index_from_n_value(self):
        G = fresh("symmetric", 4)
        for record in records_of(G):
            for H in (record.c_x, record.n_x):
                assert eq1_check(G, record.x, H) == 0
                for t in _orbit_leaders(record.n_x, enumerate_elements(H))[1:]:
                    value = G._cache["n_value"][(t, record.x._img)]
                    assert value.denominator == 1

    @pytest.mark.parametrize(
        "family,params,checks",
        [("symmetric", (4,), (lemma32_check, eq1_check)), ("alternating", (5,), (lemma32_check,))],
        ids=["s4", "a5"],
    )
    def test_a_second_pass_of_the_identities_runs_no_sift(
        self, family, params, checks, monkeypatch
    ):
        # C_G(x) <= H <= N_G(<x>) is checked on memoized member sets
        G = fresh(family, *params)

        def one_pass():
            return [
                check(G, record.x, H)
                for record in records_of(G)
                for H in (record.c_x, record.n_x)
                for check in checks
            ]

        first = one_pass()
        assert set(first) == {0}
        sifts = recorded_sifts(monkeypatch)
        assert one_pass() == first
        assert sifts == []

    @pytest.mark.parametrize(
        "family,params",
        [("alternating", (5,)), ("symmetric", (5,)), ("sl2", (5,)), ("symmetric", (4,))],
    )
    def test_is_subgroup_agrees_with_the_closure_test(self, family, params):
        # the closure test is the oracle for the shortcut |sol| = |G|
        G = fresh(family, *params)
        for record in records_of(G):
            expected = _subgroup_gens(G.degree, record.sol.raw()) is not None
            assert record.is_subgroup == expected


class TestSolubleRadical:
    def test_values(self, a5, s4, sl2_5):
        assert soluble_radical(a5).order() == 1
        assert soluble_radical(s4).order() == 24
        radical = soluble_radical(sl2_5)
        assert radical.order() == 2
        assert set(enumerate_elements(radical)) == set(
            enumerate_elements(brute_center(sl2_5))
        )

    @pytest.mark.parametrize("family,params", [("symmetric", (4,)), ("agl1", (7,))])
    def test_a_soluble_group_is_its_radical_with_no_sift(self, family, params, monkeypatch):
        G = fresh(family, *params)
        assert is_soluble(G)  # the derived-series walk sifts, so it runs first
        sifts = recorded_sifts(monkeypatch)
        assert soluble_radical(G) is G
        assert sifts == []

    def test_a_proper_radical_is_tested_for_normality(self, monkeypatch):
        G = fresh("sl2", 5)
        tested = []
        real_is_normal = solvlab.solubilizer.is_normal
        monkeypatch.setattr(
            solvlab.solubilizer, "is_normal", lambda G, H: tested.append(H) or real_is_normal(G, H)
        )
        radical = soluble_radical(G)
        assert radical.order() == 2
        assert tested == [radical]


class TestPqScan:
    def test_a5(self, a5):
        findings = pq_scan(a5)
        assert len(findings) == 2
        for f in findings:
            assert (f.p, f.q, f.verdict) == (2, 5, True)
            assert f.x.order() == 5

    def test_psl2_7(self, psl2_7):
        findings = pq_scan(psl2_7)
        assert len(findings) == 2
        for f in findings:
            assert (f.p, f.q, f.verdict) == (3, 7, True)

    def test_psl2_13(self, psl2_13):
        findings = pq_scan(psl2_13)
        assert len(findings) == 3
        for f in findings:
            assert (f.p, f.q, f.verdict) == (2, 7, True)

    def test_rejects_soluble_group(self, s4):
        with pytest.raises(GroupSoluble):
            pq_scan(s4)


class TestFrobeniusStructure:
    def test_a5_five_cycle(self, a5):
        x = first_element_of_order(a5, 5)
        finding = frobenius_structure(a5, x)
        assert finding.is_frobenius_over_cx
        assert finding.complement_order == 2
        assert finding.index_prime
        assert finding.kernel.order() == 5

    def test_a5_involution_is_not(self, a5):
        x = first_element_of_order(a5, 2)
        finding = frobenius_structure(a5, x)
        assert not finding.is_frobenius_over_cx
        assert finding.complement_order == 1

    @pytest.mark.parametrize(
        "family,params",
        [
            ("alternating", (5,)),
            ("symmetric", (4,)),
            ("sl2", (5,)),
            ("psl2", (7,)),
            ("agl1", (7,)),
            ("frobenius_pq", (11, 23)),
            ("agl1", (13,)),
            ("dihedral", (24,)),
            ("symmetric", (5,)),
        ],
    )
    def test_every_representative_against_brute_force(self, family, params, monkeypatch):
        G = fresh(family, *params)
        members = list(enumerate_elements(G))
        reps = conjugacy_class_reps(G)
        sifts = recorded_sifts(monkeypatch)
        for x in reps:
            c_x, n_x, frobenius = brute_frobenius(members, x)
            # C_G(x) is normal in N_G(<x>), so the finding needs no test of it
            assert all(c.conjugate_by(n) in c_x for c in c_x for n in n_x)
            finding = frobenius_structure(G, x)
            assert finding.is_frobenius_over_cx == frobenius
            assert finding.complement_order == len(n_x) // len(c_x)
            assert finding.index_prime == isprime(len(n_x) // len(c_x))
            assert set(enumerate_elements(finding.kernel)) == c_x
        assert sifts == []

    @pytest.mark.parametrize(
        "family,params", [("agl1", (13,)), ("alternating", (5,)), ("frobenius_pq", (11, 23))]
    )
    def test_the_finding_tests_no_pair(self, family, params, monkeypatch):
        # read from orbit counts, the finding needs no commuting test
        def refuse(a, b):
            raise AssertionError("frobenius_structure tested a pair")

        monkeypatch.setattr(solvlab.solubilizer, "_commutes", refuse)
        G = fresh(family, *params)
        members = list(enumerate_elements(G))
        found = []
        for x in conjugacy_class_reps(G):
            c_x, n_x, frobenius = brute_frobenius(members, x)
            finding = frobenius_structure(G, x)
            assert finding.is_frobenius_over_cx == frobenius
            assert finding.complement_order == len(n_x) // len(c_x)
            found.append(frobenius)
        assert True in found


def brute_exp_bound(G, x, n_x):
    """lemma_exp_bound's (ell, ok) by conjugating x with every y of G
    outside N_G(<x>)."""
    x_order = x.order()
    x_powers = {(x**k)._img for k in range(x_order)}
    nx_members = enumerate_elements(n_x)
    ell = x_order
    for y in enumerate_elements(G):
        if y not in nx_members:
            c = x.conjugate_by(y)
            meet = len(x_powers & {(c**k)._img for k in range(x_order)})
            ell = min(ell, x_order // meet)
    sol = sol_set(G, x)
    return ell, sol == nx_members or len(sol) > ell * x_order


class TestExpBound:
    def test_a5_values(self, a5):
        x5 = first_element_of_order(a5, 5)
        ell, ok = lemma_exp_bound(a5, x5)
        assert (ell, ok) == (5, True)
        x3 = first_element_of_order(a5, 3)
        ell, ok = lemma_exp_bound(a5, x3)
        assert (ell, ok) == (3, True)

    @pytest.mark.parametrize(
        "family,params",
        [
            ("alternating", (5,)),
            ("symmetric", (4,)),
            ("symmetric", (5,)),
            ("psl2", (7,)),
            ("sl2", (5,)),
            ("agl1", (7,)),
        ],
    )
    def test_agrees_with_the_walk_over_every_y_outside_the_normalizer(self, family, params):
        G = fresh(family, *params)
        compared = 0
        for x in conjugacy_class_reps(G):
            n_x = sol_record(G, x).n_x
            if n_x.order() < G.order():
                assert lemma_exp_bound(G, x) == brute_exp_bound(G, x, n_x)
                compared += 1
        assert compared

    def test_a_non_member_raises_each_time_and_stores_nothing(self, a5):
        odd = parse_cycles("(1,2)", 5)
        for _ in range(2):
            with pytest.raises(NotInGroup):
                lemma_exp_bound(a5, odd)
        for table in ("stabilizers", "powers", "sol_set"):
            assert odd._img not in a5._cache.get(table, {})

    def test_vacuous_when_cyclic_group_is_normal(self):
        c6 = CatalogEntry.from_spec(FamilySpec("cyclic", (6,))).group
        x = first_element_of_order(c6, 6)
        with pytest.raises(NormalizerIsWholeGroup):
            lemma_exp_bound(c6, x)


class TestQuotientCheck:
    def test_sl25_over_center_all_reps(self, sl2_5):
        z = brute_center(sl2_5)
        for rep in conjugacy_class_reps(sl2_5):
            assert quotient_sol_check(sl2_5, z, rep)

    def test_a_second_pass_runs_no_sift(self, monkeypatch):
        # N's normality is tested when the quotient is built, not per call
        G = fresh("sl2", 5)
        z = brute_center(G)
        reps = conjugacy_class_reps(G)
        assert all(quotient_sol_check(G, z, rep) for rep in reps)
        sifts = recorded_sifts(monkeypatch)
        assert all(quotient_sol_check(G, z, rep) for rep in reps)
        assert sifts == []

    def test_requires_normal_soluble(self, s4, a5):
        from solvlab.group import PermGroup

        s3 = PermGroup(4, [parse_cycles("(1,2,3)", 4), parse_cycles("(1,2)", 4)])
        with pytest.raises(NotNormal):
            quotient_sol_check(s4, s3, s4.generators[0])
        with pytest.raises(NotSoluble):
            quotient_sol_check(a5, a5, a5.generators[0])

    def test_rejects_x_outside_g(self, sl2_5):
        z = brute_center(sl2_5)
        with pytest.raises(NotInGroup):
            quotient_sol_check(sl2_5, z, parse_cycles("(1,2)", sl2_5.degree))

    def test_cap_refuses_before_the_quotient_is_built(self):
        G = fresh("sl2", 5)
        with pytest.raises(OrderExceedsCap):
            quotient_sol_check(G, brute_center(G), G.generators[0], cap=119)
        assert "quotient" not in G._cache


class TestAbelianKernelFormula:
    """Orbit count over the centralizer vs the Frobenius kernel formula.

    Both sides are computed independently: the left side counts centralizer
    orbits on Sol, the right side is |H| + ell * |N_x : K| with ell + 1 the
    number of N_x-orbits on the kernel K = C_x.
    """

    @staticmethod
    def sides(G, x):
        record = sol_record(G, x)
        kernel_members = enumerate_elements(record.c_x)
        n_orbits_on_kernel = orbit_count(
            record.n_x, ElementSet(G.degree, (p._img for p in kernel_members))
        )
        ell = n_orbits_on_kernel - 1
        index = record.n_x.order() // record.c_x.order()
        return record.ell_cx, index + ell * index

    @pytest.mark.parametrize(
        "family,params",
        [("agl1", (5,)), ("agl1", (7,)), ("frobenius_pq", (11, 23))],
    )
    def test_holds_on_soluble_frobenius_kernels(self, family, params):
        G = CatalogEntry.from_spec(FamilySpec(family, params)).group
        q = params[-1]
        x = first_element_of_order(G, q)
        lhs, rhs = self.sides(G, x)
        assert lhs == rhs

    def test_holds_for_a5_five_cycle(self, a5):
        lhs, rhs = self.sides(a5, first_element_of_order(a5, 5))
        assert lhs == rhs == 6

    def test_fails_without_frobenius_hypothesis(self, a5):
        # negative control: for a 3-cycle in A5 the normalizer is Frobenius
        # over the centralizer but G is insoluble and Sol is much bigger
        lhs, rhs = self.sides(a5, first_element_of_order(a5, 3))
        assert (lhs, rhs) == (10, 4)
        assert lhs != rhs
