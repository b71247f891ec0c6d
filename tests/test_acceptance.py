"""Release gate: the end-to-end guarantees this tool makes, each with its
stated runtime budget.  Everything here goes through public entry points;
expected values are frozen, not recomputed from the code under test."""

import json
import pathlib
import time

import pytest
import sympy

from solvlab.cli import main
from solvlab.classify import cross_validate, theorem44_enumerate
from solvlab.families import CatalogEntry, FamilySpec
from solvlab.group import (
    ElementSet,
    PermGroup,
    conjugacy_class_reps,
    enumerate_elements,
    first_element_of_order,
    is_maximal,
    structure_tag,
)
from solvlab.checks import run_catalog_checks
from solvlab.solubilizer import orbit_count, quotient_sol_check, sol_record
from solvlab.zsigmondy import primitive_prime_divisors

from conftest import brute_center

GOLDEN_PATH = pathlib.Path(__file__).parent / "data" / "theorem44_golden.json"


def _group(family, *params):
    return CatalogEntry.from_spec(FamilySpec(family, tuple(params))).group


# --- 1. the A5 reference table ---------------------------------------------

# (sol_size, nx_order, nx structure, cx_order, ell_cx, ratio) per column
A5_COLUMNS = {
    "identity": (60, 60, "A_5", 60, 1, "1/1"),
    "involution": (36, 4, "C_2×C_2", 4, 12, "12/1"),
    "3-cycle": (24, 6, "S_3", 3, 10, "5/1"),
    "5-cycle": (10, 10, "D_10", 5, 6, "3/1"),
}


class TestReferenceTable:
    def test_all_twenty_cells_and_tags(self, capsys):
        start = time.monotonic()
        code = main(["table1", "--format", "json"])
        elapsed = time.monotonic() - start
        doc = json.loads(capsys.readouterr().out)
        assert code == 0
        assert doc["summary"]["failed"] == 0
        assert len(doc["items"]) == 5
        for item in doc["items"]:
            sol, nx, tag, cx, ell, ratio = A5_COLUMNS[item["column"]]
            assert item["sol_size"] == sol
            assert item["nx_order"] == nx
            assert item["nx_structure"] == tag
            assert item["cx_order"] == cx
            assert item["ell_cx"] == ell
            assert item["ratio34"] == ratio
        assert elapsed < 10


# --- 2. the normalizer-order-divides-solubilizer-size conjecture -----------


class TestDivisibilityConjecture:
    def test_default_catalog_has_zero_failures(self, catalog_sweep):
        items, counterexamples, elapsed = catalog_sweep
        assert counterexamples == []
        assert len(items) > 400
        for item in items:
            assert item["flags"]["conjecture"] is True
            # independent of the flag: the divisibility itself
            assert item["sol_size"] % item["nx_order"] == 0
        assert elapsed < 300

    @pytest.mark.slow
    def test_extended_catalog_up_to_order_8000(self):
        start = time.monotonic()
        items, counterexamples = run_catalog_checks(8000, ("conjecture",))
        elapsed = time.monotonic() - start
        assert counterexamples == []
        groups = {item["group"] for item in items}
        assert {"PSL(2,13)", "S7", "A7"} <= groups
        for item in items:
            assert item["flags"]["conjecture"] is True
            assert item["sol_size"] % item["nx_order"] == 0
        assert elapsed < 3600


# --- 3. coset-orbit counting identities ------------------------------------


class TestOrbitIdentities:
    def test_lemma32_identity_on_every_instance(self, catalog_sweep):
        items, _, _ = catalog_sweep
        for item in items:
            assert item["flags"]["lemma32_cx"] is True
            assert item["flags"]["lemma32_nx"] is True

    def test_orbit_counts_agree_with_fixed_point_averages(self, catalog_sweep):
        items, _, _ = catalog_sweep
        for item in items:
            assert item["flags"]["burnside_cx"] is True
            assert item["flags"]["burnside_nx"] is True


# --- 4. closed forms in soluble groups --------------------------------------


class TestSolubleGroupFormulas:
    def test_orbit_formula_residual_zero_on_all_soluble_entries(
        self, catalog_sweep
    ):
        items, _, _ = catalog_sweep
        soluble_groups = set()
        for item in items:
            for key in ("eq1_cx", "eq1_nx"):
                if item["flags"][key] != "skipped":
                    assert item["flags"][key] is True
                    soluble_groups.add(item["group"])
        assert {"S4", "D6", "D40", "AGL1(5)", "AGL1(7)", "C23:C11"} <= soluble_groups
        assert soluble_groups.isdisjoint({"A5", "PSL(2,7)", "SL(2,5)"})

    @pytest.mark.parametrize(
        "family,params",
        [("agl1", (5,)), ("agl1", (7,)), ("frobenius_pq", (11, 23))],
    )
    def test_kernel_orbit_formula_independently(self, family, params):
        # ell_cx = |N_x : K| * (1 + ell) with ell + 1 the number of orbits
        # of N_x on the abelian kernel K = C_x, recomputed from scratch
        G = _group(family, *params)
        x = first_element_of_order(G, params[-1])
        record = sol_record(G, x)
        kernel = ElementSet(
            G.degree, (p._img for p in enumerate_elements(record.c_x))
        )
        ell = orbit_count(record.n_x, kernel) - 1
        index = record.n_x.order() // record.c_x.order()
        assert record.ell_cx == index + ell * index


# --- 5. semiprime solubilizers that are maximal subgroups -------------------


@pytest.fixture(scope="module")
def instances():
    start = time.monotonic()
    records = {}
    for q, element_order in ((7, 7), (11, 11), (4, 5), (13, 7), (8, 7)):
        G = _group("psl2", q)
        x = first_element_of_order(G, element_order)
        records[q] = (G, sol_record(G, x))
    return records, time.monotonic() - start


class TestSemiprimeMaximalSolubilizers:
    @pytest.mark.parametrize(
        "q,sol_size,tag",
        [(7, 21, "C_7:C_3"), (11, 55, "C_11:C_5"), (4, 10, "D_10"), (13, 14, "D_14")],
    )
    def test_solubilizer_is_the_maximal_normalizer(self, instances, q, sol_size, tag):
        records, _ = instances
        G, record = records[q]
        assert record.sol_size == sol_size
        assert record.is_subgroup and record.equals_nx
        sol_group = PermGroup.from_elements(G.degree, record.sol.raw())
        assert structure_tag(sol_group) == tag
        assert is_maximal(G, sol_group)

    def test_mersenne_case_strictly_exceeds_the_normalizer(self, instances):
        records, _ = instances
        G, record = records[8]
        assert record.sol_size == 112
        assert record.n_x.order() == 14
        assert not record.equals_nx
        assert all(h in record.sol for h in enumerate_elements(record.n_x))

    def test_budget(self, instances):
        _, elapsed = instances
        assert elapsed < 600


# --- 6. no solubilizer of size 6, and semiprime sizes are constrained -------


class TestSemiprimeSizeConstraints:
    def test_no_size_six_and_pq_conditions_hold(self, catalog_sweep):
        items, _, _ = catalog_sweep
        seen_semiprime = 0
        for item in items:
            if item["flags"]["sol_size_not_6"] == "skipped":
                continue  # soluble group: the whole group may have size 6
            assert item["flags"]["sol_size_not_6"] is True
            assert item["sol_size"] != 6
            factors = sympy.factorint(item["sol_size"])
            if sum(factors.values()) == 2:
                seen_semiprime += 1
                primes = sorted(factors)
                p, q = primes if len(primes) == 2 else primes * 2
                assert item["flags"]["pq"] is True
                assert p < q  # a prime square would already be a violation
                assert item["order"] == q and q > 3
                assert (q - 1) % p == 0
            else:
                assert item["flags"]["pq"] == "skipped"
        assert seen_semiprime > 0


# --- 7. primitive prime divisors --------------------------------------------


class TestPrimitivePrimes:
    def test_17_6_reference_values(self):
        # 17^6 - 1 = 2^5 * 3^3 * 7 * 13 * 307, but 17^3 - 1 = 2^4 * 307, so
        # 307 has order 3 at 17 and is primitive for (17, 3), not (17, 6).
        # Phi_6(17) = 273 = 3 * 7 * 13, and 3 divides d, leaving {7, 13}.
        res = primitive_prime_divisors(17, 6)
        assert res.primitive_primes == (7, 13)
        assert res.primitive_part == 91
        # Oracle independent of solvlab, so the literal cannot drift.
        assert sympy.n_order(17, 307) == 3
        assert {
            r for r in sympy.primefactors(17**6 - 1) if sympy.n_order(17, r) == 6
        } == {7, 13}

    def test_17_3_is_the_singer_prime(self):
        # 307 = Phi_3(17): the Singer-cycle order behind the golden
        # psl_d (3, 17) row C_307:C_3.
        res = primitive_prime_divisors(17, 3)
        assert res.primitive_primes == (307,)

    def test_2_6_has_none(self):
        res = primitive_prime_divisors(2, 6)
        assert res.primitive_primes == ()
        assert res.primitive_part == 1

    def test_existence_and_congruence_across_the_grid(self):
        start = time.monotonic()
        prime_powers = [
            q for q in range(2, 51) if len(sympy.primefactors(q)) == 1
        ]
        for q in prime_powers:
            for d in range(3, 21):
                res = primitive_prime_divisors(q, d)
                if (q, d) == (2, 6):
                    assert res.primitive_primes == ()
                    continue
                assert res.primitive_primes, f"no primitive prime for {q}^{d}-1"
                for z in res.primitive_primes:
                    assert z % d == 1
                    if z < 2**64:
                        assert sympy.n_order(q, z) == d
        assert time.monotonic() - start < 30


# --- 8. the frozen enumeration of semiprime maximal-solubilizer rows --------


@pytest.fixture(scope="module")
def rows():
    return theorem44_enumerate(32, 5, 10**6)


class TestGoldenRows:
    def test_exact_row_set(self, rows):
        golden = json.loads(GOLDEN_PATH.read_text(encoding="utf-8"))
        expected = {
            (r["family"], tuple(r["parameters"]), r["q"], r["p"], r["structure"])
            for r in golden
        }
        produced = {
            (r.family, r.parameters, r.q_prime, r.p_prime, r.maximal_structure)
            for r in rows
        }
        assert produced == expected

    def test_named_inclusions(self, rows):
        by_key = {(r.family, r.parameters): r for r in rows}
        assert by_key[("psl_d", (3, 2))].q_prime == 7
        assert by_key[("psl_d", (3, 3))].q_prime == 13
        psu33 = by_key[("psu_d", (3, 3))]
        assert psu33.q_prime == 7 and psu33.discrepancy
        fermat = {r.parameters[0] for r in rows if r.family == "psl2_fermat"}
        assert fermat == {4, 16}
        # (p - 1) / 2 must itself be prime, which rules 13 out
        cpct = {r.parameters[0] for r in rows if r.family == "psl2_cpct"}
        assert cpct == {5, 7, 11, 23}
        sporadic = {r.family for r in rows if not r.parameters}
        assert sporadic == {"m23", "baby_monster", "monster"}

    def test_named_exclusions(self, rows):
        families = {r.family for r in rows}
        assert "suzuki" not in families
        assert "psl2_mersenne" not in families

    def test_engine_validates_every_constructible_row(self, rows):
        outcomes = {}
        for row in rows:
            outcomes[row.label()] = cross_validate(row).status
        assert "failed" not in outcomes.values()
        checked = {label for label, st in outcomes.items() if st == "passed"}
        assert checked == {
            "PSL(2,4)", "PSL(2,16)", "PSL(2,5)", "PSL(2,7)", "PSL(2,11)",
            "PSL(2,23)", "PSL(2,13)", "PSL(2,25)", "PSL(3,2)",
        }


# --- 9. structural facts about solubilizer sets -----------------------------

ALWAYS_TRUE_FLAGS = (
    "ratio34_integral",
    "cx_divides_sol",
    "sol_generator_invariant",
    "sol_conjugation_equivariant",
    "radical_iff_sol_whole",
    "prime_sol_size_forces_prime_group",
)

TRUE_OR_SKIPPED_FLAGS = (
    "noncommuting_pair_in_sol",
    "no_selfnormalizing_prime_cyclic",
    "exp_bound",
    "exp_bound_prime_square",
    "quotient",
)


class TestStructuralProperties:
    def test_unconditional_flags(self, catalog_sweep):
        items, _, _ = catalog_sweep
        for item in items:
            for flag in ALWAYS_TRUE_FLAGS:
                assert item["flags"][flag] is True, (item["group"], flag)

    def test_conditional_flags_never_fail_and_do_fire(self, catalog_sweep):
        items, _, _ = catalog_sweep
        fired = {flag: 0 for flag in TRUE_OR_SKIPPED_FLAGS}
        for item in items:
            for flag in TRUE_OR_SKIPPED_FLAGS:
                verdict = item["flags"][flag]
                if verdict != "skipped":
                    assert verdict is True, (item["group"], flag)
                    fired[flag] += 1
        assert all(count > 0 for count in fired.values()), fired

    def test_quotient_transfer_on_sl2_5_mod_center(self, sl2_5):
        Z = brute_center(sl2_5)
        assert Z.order() == 2
        for rep in conjugacy_class_reps(sl2_5):
            assert quotient_sol_check(sl2_5, Z, rep)

    def test_quotient_flag_fires_exactly_on_sl2_5(self, catalog_sweep):
        items, _, _ = catalog_sweep
        fired = {i["group"] for i in items if i["flags"]["quotient"] != "skipped"}
        assert fired == {"SL(2,5)"}
