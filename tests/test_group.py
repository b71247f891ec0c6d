"""Core group machinery against brute-force oracles and sympy."""

import functools
import itertools
import math
import operator
import random

import pytest
from sympy.combinatorics import Permutation as SymPerm
from sympy.combinatorics import PermutationGroup as SymGroup

import solvlab.group
from solvlab.checks import CHECK_TOKENS, run_entry_checks
from solvlab.cycles import parse_cycles
from solvlab.errors import (
    DegreeTooLarge,
    EngineInvariantViolated,
    InvalidParameter,
    NotInGroup,
    NotNormal,
    OrderExceedsCap,
)
from solvlab.families import CatalogEntry, FamilySpec
from solvlab.group import (
    PermGroup,
    StabilizerChain,
    _derived_gens,
    _generated_order,
    _normal_closure_gens,
    _subgroup_gens,
    centralizer,
    class_of_rep,
    conjugacy_class_reps,
    enumerate_elements,
    first_element_of_order,
    is_abelian,
    is_maximal,
    is_normal,
    is_soluble,
    is_subgroup_of,
    normalizer_of_cyclic,
    quotient_by_normal,
    structure_tag,
)
from solvlab.perm import Permutation, _mul
from solvlab.solubilizer import (
    pq_scan,
    sol_record,
    sol_set,
    sol_set_exhaustive,
    soluble_radical,
)

from conftest import brute_center, brute_frobenius, brute_point_stabilizer


def brute_closure(degree, gens):
    """Multiplicative closure by BFS, independent of the stabilizer chain."""
    idn = Permutation.identity(degree)
    seen = {idn}
    frontier = [idn]
    while frontier:
        nxt = []
        for a in frontier:
            for g in gens:
                b = a * g
                if b not in seen:
                    seen.add(b)
                    nxt.append(b)
        frontier = nxt
    return seen


def to_sympy(G):
    return SymGroup([SymPerm([i - 1 for i in g.images]) for g in G.generators])


@functools.cache
def sympy_group(degree, gens):
    return SymGroup([SymPerm(list(t), size=degree) for t in gens])


@functools.cache
def in_generated_group(degree, gens, t):
    """Whether t lies in <gens>, by sympy; cached, since the helper below
    asks again for every element the chain kept after each sift."""
    return sympy_group(degree, gens).contains(SymPerm(list(t), size=degree))


def assert_chain_invariant(chain):
    """Check, by brute force, what verify() relies on instead of rebuilding:
    each level holds exactly the strong generators fixing the earlier base
    points, its transversal's keys are their orbit of the base point, and
    each transversal element lies in their group and carries its point to
    the base point."""
    strong = set().union(*chain.gens)
    for j, base in enumerate(chain.bases):
        gens = chain.gens[j]
        assert set(gens) == {
            s for s in strong if all(s[b] == b for b in chain.bases[:j])
        }
        orbit = {base}
        frontier = [base]
        for p in frontier:
            for s in gens:
                if s[p] not in orbit:
                    orbit.add(s[p])
                    frontier.append(s[p])
        assert set(chain.transversals[j]) == orbit
        for p, w in chain.transversals[j].items():
            assert w[p] == base
            assert in_generated_group(chain.degree, tuple(gens), w)


def sympy_order(degree, gens):
    return SymGroup([SymPerm(list(t), size=degree) for t in gens]).order()


def chain_test_gen_sets():
    """Seeded generator sets in S6 and S7, and an intransitive one on 7 points."""
    rng = random.Random(11)
    sets = [
        (n, [bytes(rng.sample(range(n), n)) for _ in range(k)])
        for n in (6, 7)
        for k in (1, 2, 3)
    ]
    blocks = []
    for _ in range(3):
        low, high = rng.sample(range(3), 3), rng.sample(range(3, 7), 4)
        blocks.append(bytes(low + high))
    sets.append((7, blocks))
    return sets


class TestOrderAndMembership:
    def test_a5_order_matches_brute_closure(self, a5):
        closure = brute_closure(a5.degree, list(a5.generators))
        assert len(closure) == 60
        assert a5.order() == 60
        assert set(enumerate_elements(a5)) == closure

    def test_membership(self, a5):
        assert parse_cycles("(1,2,3)", 5) in a5
        assert parse_cycles("(1,2)", 5) not in a5

    def test_enumeration_cap(self, a5):
        with pytest.raises(OrderExceedsCap):
            enumerate_elements(a5, cap=59)

    def test_orders_match_sympy(self):
        for family, params in [
            ("dihedral", (7,)),
            ("symmetric", (5,)),
            ("agl1", (7,)),
            ("psl2", (7,)),
        ]:
            G = CatalogEntry.from_spec(FamilySpec(family, params)).group
            assert G.order() == to_sympy(G).order()
        # the constructor, and unverified sifts then verify(), grow the
        # chain through the same insertion
        for degree, gens in chain_test_gen_sets():
            order = sympy_order(degree, gens)
            built = StabilizerChain(degree, gens)
            assert_chain_invariant(built)
            assert built.order() == order
            sifted = StabilizerChain(degree)
            for g in gens:
                sifted.sift_unverified(g)
                assert_chain_invariant(sifted)
            sifted.verify()
            assert_chain_invariant(sifted)
            assert sifted.order() == order

    def test_unverified_sifts_bound_the_order_from_below(self):
        rng = random.Random(5)
        for _ in range(20):
            a, b = (Permutation(rng.sample(range(1, 7), 6)) for _ in range(2))
            order = SymGroup([SymPerm(list(a._img)), SymPerm(list(b._img))]).order()
            chain = StabilizerChain(6)
            for t in (a._img, b._img, (a * b)._img):
                chain.sift_unverified(t)
                assert_chain_invariant(chain)
                assert chain.order() <= order
            chain.verify()
            assert_chain_invariant(chain)
            assert chain.order() == order
            # once every member has been sifted, the bound is exact unverified
            chain = StabilizerChain(6)
            for t in sorted(p._img for p in brute_closure(6, [a, b])):
                chain.sift_unverified(t)
                assert_chain_invariant(chain)
                assert chain.order() <= order
            assert chain.order() == order

    def test_a_residue_that_grows_no_orbit_is_refused(self):
        # the square of the 4-cycle maps base point 0 into its orbit, which
        # is already all four points; a correct sift never yields it
        chain = StabilizerChain(4, [bytes((1, 2, 3, 0))])
        with pytest.raises(EngineInvariantViolated):
            chain._adjoin(bytes((2, 3, 0, 1)))


class TestGeneratedOrder:
    """_generated_order against sympy, with the exact order and n! as bounds."""

    def gen_sets(self):
        sets = chain_test_gen_sets()
        # one generator whose powers the unverified chain has not sifted
        sets.append((6, [parse_cycles("(1,2,3)(4,5)", 6)._img]))
        # two even permutations that generate A7, half of the bound 7!
        a7 = [parse_cycles(c, 7)._img for c in ("(1,2,3)", "(1,2,3,4,5,6,7)")]
        sets.append((7, a7))
        return sets

    def test_orders_match_sympy(self):
        for degree, gens in self.gen_sets():
            order = sympy_order(degree, gens)
            assert _generated_order(degree, gens, order) == order
            assert _generated_order(degree, gens, math.factorial(degree)) == order

    def test_a_bound_below_the_order_raises(self):
        for degree, gens in self.gen_sets():
            order = sympy_order(degree, gens)
            with pytest.raises(EngineInvariantViolated):
                _generated_order(degree, gens, order - 1)


class TestClosures:
    """The member closure and the normal closure, which grow one chain by
    unverified sifts, against brute force and sympy."""

    def test_from_elements_rejects_a_set_the_unverified_bound_accepts(self):
        # sifted unverified, (), (1,2), (1,3) bound the order by 3, their
        # number, although they generate S3
        members = [parse_cycles(c, 3)._img for c in ("()", "(1,2)", "(1,3)")]
        with pytest.raises(NotInGroup):
            PermGroup.from_elements(3, members)

    def test_from_elements_builds_one_chain(self, monkeypatch):
        a4 = CatalogEntry.from_spec(FamilySpec("alternating", (4,))).group
        members = enumerate_elements(a4).raw()
        built = []
        init = StabilizerChain.__init__

        def counting_init(chain, *args):
            built.append(chain)
            init(chain, *args)

        monkeypatch.setattr(StabilizerChain, "__init__", counting_init)
        group = PermGroup.from_elements(4, members)
        assert built == [group._chain]
        assert group.order() == 12
        assert_chain_invariant(group._chain)

    def test_subgroup_gens_stops_once_the_bound_passes_the_size(self, monkeypatch):
        a4 = CatalogEntry.from_spec(FamilySpec("alternating", (4,))).group
        members = sorted({*enumerate_elements(a4).raw(), parse_cycles("(1,2)", 4)._img})

        verify = StabilizerChain.verify

        def verify_empty_only(chain):
            # the constructor verifies the empty chain
            assert not chain.bases, "verify() ran after the bound passed the size"
            verify(chain)

        monkeypatch.setattr(StabilizerChain, "verify", verify_empty_only)
        assert _subgroup_gens(4, members) is None

    def normal_closure_cases(self):
        cases = [
            ("symmetric", (4,), "(1,2)(3,4)", 4),
            ("symmetric", (5,), "(1,2,3)", 60),
            ("frobenius_pq", (11, 23), "(" + ",".join(map(str, range(1, 24))) + ")", 23),
        ]
        for family, params, seed, order in cases:
            G = CatalogEntry.from_spec(FamilySpec(family, params)).group
            yield G.degree, [g._img for g in G.generators], [parse_cycles(seed, G.degree)._img], order
        # seeded intransitive groups on 3 + 4 points, with seeds drawn from
        # words in their generators
        rng = random.Random(17)
        for _ in range(6):
            gens = [bytes(rng.sample(range(3), 3) + rng.sample(range(3, 7), 4)) for _ in range(2)]
            seeds = []
            for _ in range(rng.randrange(1, 3)):
                word = bytes(range(7))
                for _ in range(rng.randrange(1, 5)):
                    word = _mul(word, rng.choice(gens))
                seeds.append(word)
            yield 7, gens, seeds, None

    def test_normal_closure_matches_sympy(self):
        proper = 0
        for degree, gens, seeds, expected in self.normal_closure_cases():
            ambient = SymGroup([SymPerm(list(t), size=degree) for t in gens])
            closure = ambient.normal_closure([SymPerm(list(t), size=degree) for t in seeds])
            closure_gens, _ = _normal_closure_gens(degree, gens, seeds)
            order = StabilizerChain(degree, closure_gens).order()
            assert order == closure.order()
            if expected is not None:
                assert order == expected
            proper += 1 < order < ambient.order()
        # the three named closures and at least two seeded ones are proper
        assert proper >= 5


class TestSubgroups:
    def test_subgroup_relation(self, a5, s4):
        a4 = brute_point_stabilizer(a5, 5)
        assert is_subgroup_of(a4, a5)
        assert not is_subgroup_of(a5, a4)

    def test_is_normal(self, s4):
        a4 = PermGroup(
            4, [parse_cycles("(1,2,3)", 4), parse_cycles("(1,2)(3,4)", 4)]
        )
        v4 = PermGroup(
            4, [parse_cycles("(1,2)(3,4)", 4), parse_cycles("(1,3)(2,4)", 4)]
        )
        s3 = PermGroup(4, [parse_cycles("(1,2,3)", 4), parse_cycles("(1,2)", 4)])
        assert is_normal(s4, a4)
        assert is_normal(s4, v4)
        assert not is_normal(s4, s3)

    def test_is_maximal_brute_force(self, s4):
        # A4 is maximal in S4; V4 is not (V4 < A4 < S4)
        a4 = PermGroup(
            4, [parse_cycles("(1,2,3)", 4), parse_cycles("(1,2)(3,4)", 4)]
        )
        v4 = PermGroup(
            4, [parse_cycles("(1,2)(3,4)", 4), parse_cycles("(1,3)(2,4)", 4)]
        )
        assert is_maximal(s4, a4)
        assert not is_maximal(s4, v4)

    def test_is_maximal_refuses_the_whole_group(self, s4):
        # nothing lies outside any group here: the argument is invalid
        with pytest.raises(InvalidParameter, match="H equals G"):
            is_maximal(s4, s4)

    @pytest.mark.parametrize(
        "family,params",
        [("alternating", (5,)), ("symmetric", (5,)), ("psl2", (7,)), ("psl2", (8,))],
    )
    def test_is_maximal_matches_sympy(self, family, params):
        # every proper C_G(x) and N_G(<x>) of a class representative, against
        # sympy's order of <H, t> for one t per right coset of H
        G = CatalogEntry.from_spec(FamilySpec(family, params)).group
        n = G.order()
        verdicts = {}
        for x in conjugacy_class_reps(G):
            for H in (centralizer(G, x), normalizer_of_cyclic(G, x)):
                if H.order() == n:
                    continue
                h_gens = [g._img for g in H.generators]
                h_members = enumerate_elements(H).raw()
                covered = set(h_members)
                expected = True
                for t in enumerate_elements(G).raw():
                    if t not in covered:
                        covered.update(_mul(h, t) for h in h_members)
                        if sympy_order(G.degree, h_gens + [t]) != n:
                            expected = False
                            break
                assert is_maximal(G, H) == expected
                verdicts[H.order()] = expected
        assert set(verdicts.values()) == {True, False}
        if family == "alternating":
            # C_3 < S_3 < A_5 and C_5 < D_10 < A_5; V_4, both C_G(x) and
            # N_G(<x>) of an involution, lies in A_4
            assert verdicts == {3: False, 6: True, 4: False, 5: False, 10: True}

    def test_centralizer_and_normalizer_brute_force(self, a5, s4):
        # every element against the in-test filtration; the second call must
        # be a memo hit, and the guards must still run after one
        for G in (a5, s4):
            members = list(enumerate_elements(G))
            for x in members:
                cyc = {x**k for k in range(x.order())}
                brute_cent = {g for g in members if g * x == x * g}
                brute_norm = {
                    g for g in members if {c.conjugate_by(g) for c in cyc} == cyc
                }
                cent = centralizer(G, x)
                norm = normalizer_of_cyclic(G, x)
                assert set(enumerate_elements(cent)) == brute_cent
                assert set(enumerate_elements(norm)) == brute_norm
                assert centralizer(G, x) is cent
                assert normalizer_of_cyclic(G, x) is norm
                with pytest.raises(OrderExceedsCap):
                    centralizer(G, x, cap=G.order() - 1)
                with pytest.raises(OrderExceedsCap):
                    normalizer_of_cyclic(G, x, cap=G.order() - 1)
        odd = parse_cycles("(1,2)", 5)
        with pytest.raises(NotInGroup):
            centralizer(a5, odd)
        with pytest.raises(NotInGroup):
            normalizer_of_cyclic(a5, odd)
        assert PermGroup(a5.degree, [parse_cycles("(1,2,3,4,5)", 5)]).order() == 5


class TestOneObjectPerSubgroup:
    # fresh groups: the session fixtures' caches are filled by other tests
    @pytest.mark.parametrize(
        "family,params",
        [
            ("alternating", (5,)),
            ("symmetric", (4,)),
            ("sl2", (5,)),
            ("cyclic", (12,)),
            ("dihedral", (12,)),
        ],
    )
    def test_equal_subgroups_are_one_object(self, family, params):
        G = CatalogEntry.from_spec(FamilySpec(family, params)).group
        for x in conjugacy_class_reps(G):
            record = sol_record(G, x)
            same_order = record.c_x.order() == record.n_x.order()
            assert (record.c_x is record.n_x) == same_order
            if x.is_identity():
                assert record.c_x is G and record.n_x is G
        members = list(enumerate_elements(G))
        for x in members:
            central = all(x * g == g * x for g in members)
            assert (centralizer(G, x) is G) == central
        radical = soluble_radical(G)
        assert (radical is G) == is_soluble(G)
        if family == "symmetric":
            assert radical is G
        if family == "sl2":
            assert radical.order() == 2

    @pytest.mark.parametrize("family,params", [("dihedral", (12,)), ("psl2", (7,))])
    def test_one_object_per_member_set(self, family, params, monkeypatch):
        # e.g. C_G(r) = C_G(r^5) for a rotation r of D24, and N_G(<x^k>) =
        # N_G(<x>) for every k coprime to |x|
        G = CatalogEntry.from_spec(FamilySpec(family, params)).group
        for x in conjugacy_class_reps(G):
            for k in range(2, x.order()):
                if math.gcd(k, x.order()) == 1:
                    assert centralizer(G, x**k) is centralizer(G, x)
                    assert normalizer_of_cyclic(G, x**k) is normalizer_of_cyclic(G, x)
        built = []
        real_from_elements = PermGroup.from_elements

        def from_elements(degree, raw):
            raw = list(raw)
            built.append(frozenset(raw))
            return real_from_elements(degree, raw)

        monkeypatch.setattr(PermGroup, "from_elements", from_elements)
        run_entry_checks(CatalogEntry.from_spec(FamilySpec(family, params)), CHECK_TOKENS)
        assert built and len(built) == len(set(built))


class TestMemoContract:
    """Membership is tested on a miss only; the cap on every call."""

    # each function, the table it is memoized in, and its part of an entry
    MEMOIZED = {
        "centralizer": (centralizer, "stabilizers", operator.itemgetter(0)),
        "normalizer_of_cyclic": (normalizer_of_cyclic, "stabilizers", operator.itemgetter(1)),
        "sol_set": (sol_set, "sol_set", lambda found: found),
    }

    @pytest.mark.parametrize("name", MEMOIZED)
    def test_a_non_member_raises_each_time_and_stores_nothing(self, name):
        function, table, _ = self.MEMOIZED[name]
        G = CatalogEntry.from_spec(FamilySpec("alternating", (5,))).group
        # an odd permutation, and an element of another degree
        for outside in (parse_cycles("(1,2)", 5), parse_cycles("(1,2,3)", 6)):
            for _ in range(2):
                with pytest.raises(NotInGroup):
                    function(G, outside)
            assert outside._img not in G._cache.get(table, {})
        # the table is the one a member's result is stored in
        function(G, G.identity())
        assert G.identity()._img in G._cache[table]

    @pytest.mark.parametrize(
        "function",
        [sol_set, sol_set_exhaustive, centralizer, normalizer_of_cyclic, class_of_rep],
        ids=lambda function: function.__name__,
    )
    def test_a_miss_reads_membership_from_the_member_list(self, function, monkeypatch):
        tested = []
        real_contains = PermGroup.__contains__
        monkeypatch.setattr(
            PermGroup, "__contains__", lambda G, p: tested.append(p) or real_contains(G, p)
        )
        for family, params in [("symmetric", (4,)), ("alternating", (5,))]:
            G = CatalogEntry.from_spec(FamilySpec(family, params)).group
            for x in enumerate_elements(G):
                function(G, x)
        assert tested == []

    @pytest.mark.parametrize("name", MEMOIZED)
    def test_a_memo_hit_runs_no_sift(self, name, monkeypatch):
        function, table, part = self.MEMOIZED[name]
        G = CatalogEntry.from_spec(FamilySpec("symmetric", (4,))).group
        sifts = []
        real_contains = StabilizerChain.contains

        def contains(chain, t):
            sifts.append(t)
            return real_contains(chain, t)

        monkeypatch.setattr(StabilizerChain, "contains", contains)
        for x in enumerate_elements(G):
            found = function(G, x)
            assert part(G._cache[table][x._img]) is found
            sifts.clear()
            assert function(G, x) is found
            assert sifts == []
            with pytest.raises(OrderExceedsCap):
                function(G, x, cap=G.order() - 1)

    @pytest.mark.parametrize(
        "family,params,extra",
        [("alternating", (5,), {"pq"}), ("sl2", (5,), {"pq", "quotient"})],
    )
    def test_the_cache_holds_only_the_documented_tables(self, family, params, extra):
        # the tables the PermGroup docstring names; no pair verdicts among them
        entry = CatalogEntry.from_spec(FamilySpec(family, params))
        run_entry_checks(entry, CHECK_TOKENS)
        assert set(entry.group._cache) == {
            "abelian", "classes", "elements", "n_value", "nx_orbit_reps",
            "orbit_count", "powers", "radical", "sol_record", "sol_set",
            "soluble", "stabilizers", "subgroups",
        } | extra

    def test_the_per_group_findings_are_stored_and_still_check_the_cap(self):
        G = CatalogEntry.from_spec(FamilySpec("sl2", (5,))).group
        radical, findings = soluble_radical(G), pq_scan(G)
        assert G._cache["radical"] is radical
        assert soluble_radical(G) is radical
        assert pq_scan(G) == findings
        # each call gets its own list, so no caller can change the stored one
        assert pq_scan(G) is not findings
        for function in (soluble_radical, pq_scan):
            with pytest.raises(OrderExceedsCap):
                function(G, cap=G.order() - 1)

    @pytest.mark.parametrize("first", ["centralizer", "normalizer_of_cyclic"])
    @pytest.mark.parametrize(
        "family,params",
        [("dihedral", (12,)), ("symmetric", (4,)), ("alternating", (5,)), ("sl2", (5,)),
         ("agl1", (7,))],
    )
    def test_one_pass_gives_both_whichever_is_asked_first(
        self, family, params, first, monkeypatch
    ):
        # C_G(x) and N_G(<x>) come from one conjugation of x by each member,
        # and are one object exactly when their member sets are equal
        G = CatalogEntry.from_spec(FamilySpec(family, params)).group
        members = list(enumerate_elements(G))
        reps = conjugacy_class_reps(G)
        conjugations = []
        real_conj = solvlab.group._conj
        monkeypatch.setattr(
            solvlab.group, "_conj", lambda p, g: conjugations.append(g) or real_conj(p, g)
        )
        calls = [centralizer, normalizer_of_cyclic]
        if first == "normalizer_of_cyclic":
            calls.reverse()
        equal = 0
        for x in reps:
            c_x, n_x, _ = brute_frobenius(members, x)
            conjugations.clear()
            for function in calls:
                function(G, x)
            assert len(conjugations) == G.order()
            assert set(enumerate_elements(centralizer(G, x))) == c_x
            assert set(enumerate_elements(normalizer_of_cyclic(G, x))) == n_x
            assert (centralizer(G, x) is normalizer_of_cyclic(G, x)) == (c_x == n_x)
            equal += c_x == n_x
        assert 0 < equal < len(reps)


class TestDerivedSeriesAndSolubility:
    def test_s4_derived_series_brute_force(self, s4):
        members = list(enumerate_elements(s4))
        brute = set()
        for a, b in itertools.product(members, repeat=2):
            brute.add(a.inverse() * b.inverse() * a * b)
        gens = [g._img for g in s4.generators]
        d1 = PermGroup._from_raw(4, _derived_gens(4, gens)[0])
        closure = brute_closure(4, list(brute))
        assert set(enumerate_elements(d1)) == closure
        orders = [s4.order()]
        while gens:
            gens, _ = _derived_gens(4, gens)
            orders.append(StabilizerChain(4, gens).order())
        assert orders == [24, 12, 4, 1]

    def test_solubility_matches_sympy(self):
        for family, params in [
            ("symmetric", (4,)),
            ("symmetric", (5,)),
            ("alternating", (4,)),
            ("alternating", (5,)),
            ("dihedral", (9,)),
            ("sl2", (3,)),
            ("sl2", (5,)),
            ("psl2", (7,)),
            ("agl1", (11,)),
        ]:
            G = CatalogEntry.from_spec(FamilySpec(family, params)).group
            assert is_soluble(G) == to_sympy(G).is_solvable
        # SL(2,3) has derived length 3; the seeded sets give S6, S7, A7 and
        # intransitive groups
        for degree, gens in chain_test_gen_sets():
            G = PermGroup._from_raw(degree, gens)
            assert is_soluble(G) == to_sympy(G).is_solvable

    def test_is_abelian(self, a5):
        assert not is_abelian(a5)
        c12 = CatalogEntry.from_spec(FamilySpec("cyclic", (12,))).group
        assert is_abelian(c12)


class TestConjugacyClasses:
    def test_classes_partition_group(self, a5):
        reps = conjugacy_class_reps(a5)
        classes = [class_of_rep(a5, r) for r in reps]
        sizes = [len(c) for c in classes]
        assert sum(sizes) == 60
        assert sorted(sizes) == [1, 12, 12, 15, 20]
        seen = set()
        for c in classes:
            members = set(c)
            assert not (members & seen)
            seen |= members

    def test_class_of_non_representative_brute_force(self, a5, s4):
        for G in (a5, s4):
            members = list(enumerate_elements(G))
            reps = {r._img for r in conjugacy_class_reps(G)}
            others = [x for x in members if x._img not in reps]
            assert others
            for x in others:
                brute = {g.inverse() * x * g for g in members}
                assert set(class_of_rep(G, x)) == brute
        with pytest.raises(NotInGroup):
            class_of_rep(a5, parse_cycles("(1,2)", 5))

    def test_class_count_matches_sympy(self, s4, psl2_7):
        for G in (s4, psl2_7):
            reps = conjugacy_class_reps(G)
            assert len(reps) == len(to_sympy(G).conjugacy_classes())

    def test_reps_are_deterministic_and_sorted(self, a5):
        reps = conjugacy_class_reps(a5)
        assert reps == conjugacy_class_reps(a5)
        assert [r.order() for r in reps] == sorted(r.order() for r in reps)

    def test_first_element_of_order(self, a5):
        x = first_element_of_order(a5, 5)
        assert x is not None and x.order() == 5
        assert first_element_of_order(a5, 4) is None

    @pytest.mark.parametrize(
        "family,params",
        [("alternating", (n,)) for n in (4, 5, 6, 7)]
        + [("symmetric", (n,)) for n in (3, 4, 5, 6)]
        + [("psl2", (q,)) for q in (4, 5, 7, 8, 9, 11, 13, 16, 17, 19)]
        + [("psl3_2", ()), ("sl2", (5,)), ("agl1", (11,)), ("dihedral", (12,))],
    )
    def test_first_element_of_order_is_the_first_class_rep(self, family, params):
        G = CatalogEntry.from_spec(FamilySpec(family, params)).group
        reps = conjugacy_class_reps(G)
        for k in range(1, 40):
            expected = next((r for r in reps if r.order() == k), None)
            assert first_element_of_order(G, k) == expected


class TestQuotient:
    def test_sl25_mod_center(self, sl2_5):
        z = brute_center(sl2_5)
        quotient, proj = quotient_by_normal(sl2_5, z)
        assert quotient.order() == 60
        assert not is_soluble(quotient)
        derived, _ = _derived_gens(quotient.degree, [g._img for g in quotient.generators])
        assert StabilizerChain(quotient.degree, derived).order() == 60
        x = sl2_5.generators[0]
        assert Permutation._from_images(proj(x._img)) in quotient

    @pytest.mark.parametrize("case", ["sl2_5 by its radical", "s4 by v4"])
    def test_memoized_projection_matches_the_coset_action(self, case):
        if case == "s4 by v4":
            G = CatalogEntry.from_spec(FamilySpec("symmetric", (4,))).group
            N = PermGroup(4, [parse_cycles("(1,2)(3,4)", 4), parse_cycles("(1,3)(2,4)", 4)])
        else:
            G = CatalogEntry.from_spec(FamilySpec("sl2", (5,))).group
            N = soluble_radical(G)
        members = enumerate_elements(G).raw()
        _, proj = quotient_by_normal(G, N)
        first = {t: proj(t) for t in members}
        # the right cosets N r, numbered by the canonical order of their least
        # members; t sends the coset C to the coset {c t : c in C}
        n_members = enumerate_elements(N).raw()
        cosets = sorted(
            {frozenset(_mul(n, t) for n in n_members) for t in members}, key=min
        )
        number = {coset: i for i, coset in enumerate(cosets)}
        for t in members:
            image = bytes(number[frozenset(_mul(c, t) for c in coset)] for coset in cosets)
            assert proj(t) is first[t]
            assert first[t] == image

    def test_quotient_requires_normal(self, s4):
        s3 = PermGroup(4, [parse_cycles("(1,2,3)", 4), parse_cycles("(1,2)", 4)])
        with pytest.raises(NotNormal):
            quotient_by_normal(s4, s3)

    def test_more_than_256_cosets_are_refused_before_any_is_built(self, monkeypatch):
        def cyclic_product(p, q):
            """C_p x C_q on p + q points, and its trivial subgroup."""
            gens = [
                parse_cycles("(" + ",".join(map(str, range(1, p + 1))) + ")", p + q),
                parse_cycles("(" + ",".join(map(str, range(p + 1, p + q + 1))) + ")", p + q),
            ]
            return PermGroup(p + q, gens), PermGroup(p + q, [])

        G, trivial = cyclic_product(16, 16)
        quotient, _ = quotient_by_normal(G, trivial)
        assert quotient.degree == quotient.order() == 256
        G, trivial = cyclic_product(17, 19)
        enumerate_elements(G)

        def no_coset_images(p, q):
            raise AssertionError("a coset image was built")

        monkeypatch.setattr(solvlab.group, "_mul", no_coset_images)
        with pytest.raises(DegreeTooLarge, match="degree 323"):
            quotient_by_normal(G, trivial)


class TestDegreeLimit:
    def test_a_group_above_256_points_is_refused(self):
        with pytest.raises(DegreeTooLarge, match="degree 300"):
            PermGroup(300, [])
        cycle = Permutation([*range(2, 257), 1])
        G = PermGroup(256, [cycle])
        assert G.order() == 256
        assert cycle in G and G.identity().degree == 256


class TestStructureTag:
    def test_tags(self):
        cases = [
            (FamilySpec("cyclic", (1,)), "1"),
            (FamilySpec("cyclic", (12,)), "C_12"),
            (FamilySpec("dihedral", (5,)), "D_10"),
            (FamilySpec("symmetric", (3,)), "S_3"),
            (FamilySpec("frobenius_pq", (11, 23)), "C_23:C_11"),
            (FamilySpec("alternating", (5,)), "A_5"),
        ]
        for spec, expected in cases:
            G = CatalogEntry.from_spec(spec).group
            assert structure_tag(G) == expected
        # C_5 x A_4 has order 60 and is soluble, so it is not A_5
        c5_a4 = PermGroup(
            9,
            [
                parse_cycles("(1,2,3)", 9),
                parse_cycles("(1,2)(3,4)", 9),
                parse_cycles("(5,6,7,8,9)", 9),
            ],
        )
        assert c5_a4.order() == 60
        assert structure_tag(c5_a4) == "G_60"

    def test_klein_four_tag(self, s4):
        v4 = PermGroup(
            4, [parse_cycles("(1,2)(3,4)", 4), parse_cycles("(1,3)(2,4)", 4)]
        )
        assert structure_tag(v4) == "C_2×C_2"
