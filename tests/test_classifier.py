"""Zsigmondy primitive primes and the order-pq maximal-subgroup search."""

import json
import pathlib

import pytest
import sympy

from solvlab.errors import InvalidBase, InvalidParameter
from solvlab.classify import (
    ClassifierRow,
    cross_validate,
    table2_enumerate,
    theorem44_enumerate,
)
from solvlab.zsigmondy import (
    ZsigmondyResult,
    primitive_prime_divisors,
    zsigmondy_divides_qd_plus_1,
)

GOLDEN = pathlib.Path(__file__).parent / "data" / "theorem44_golden.json"


class TestZsigmondy:
    def test_17_6(self):
        res = primitive_prime_divisors(17, 6)
        assert res.primitive_primes == (7, 13)
        assert res.primitive_part == 91

    def test_2_6_is_the_exception(self):
        res = primitive_prime_divisors(2, 6)
        assert res.primitive_primes == ()
        assert res.primitive_part == 1

    def test_small_cases(self):
        assert primitive_prime_divisors(2, 4).primitive_primes == (5,)
        assert primitive_prime_divisors(3, 4).primitive_primes == (5,)
        assert primitive_prime_divisors(2, 10).primitive_primes == (11,)
        assert primitive_prime_divisors(2, 11).primitive_primes == (23, 89)

    def test_degree_one_and_two(self):
        assert primitive_prime_divisors(7, 1).primitive_primes == (2, 3)
        # primes dividing q + 1 but not q - 1; for q = 7 both 2 and 3 divide 6
        assert primitive_prime_divisors(7, 2).primitive_primes == ()
        assert primitive_prime_divisors(7, 2).primitive_part == 1
        assert primitive_prime_divisors(5, 2).primitive_primes == (3,)
        assert primitive_prime_divisors(8, 2).primitive_primes == (3,)

    def test_rejects_bad_input(self):
        with pytest.raises(InvalidBase):
            primitive_prime_divisors(6, 3)
        with pytest.raises(InvalidParameter):
            primitive_prime_divisors(4, 0)

    def test_primitivity_against_sympy_orders(self):
        for q, d in [(2, 12), (3, 8), (5, 6), (17, 6), (9, 5), (4, 9)]:
            res = primitive_prime_divisors(q, d)
            for z in res.primitive_primes:
                assert sympy.n_order(q, z) == d
                assert z % d == 1
            # the primitive part is exactly the primitive-prime content
            part = res.primitive_part
            for z in res.primitive_primes:
                while part % z == 0:
                    part //= z
            assert part == 1

    def test_divides_qd_plus_1(self):
        assert zsigmondy_divides_qd_plus_1(3, 3)
        assert zsigmondy_divides_qd_plus_1(2, 4)
        assert not zsigmondy_divides_qd_plus_1(2, 3)


class TestEnumeration:
    def test_row_counts_at_reference_bounds(self):
        assert len(table2_enumerate(32, 5, 10**6)) == 54
        assert len(theorem44_enumerate(32, 5, 10**6)) == 47

    def test_monotone_in_bounds(self):
        small = {r.label() for r in table2_enumerate(8, 3, 10**4)}
        big = {r.label() for r in table2_enumerate(32, 5, 10**6)}
        assert small <= big

    def test_theorem44_is_a_filter(self):
        rows = table2_enumerate(32, 5, 10**6)
        kept = {r.label() for r in theorem44_enumerate(32, 5, 10**6)}
        assert kept == {r.label() for r in rows if r.in_theorem44}

    def test_no_suzuki_or_mersenne_in_theorem44(self):
        families = {r.family for r in theorem44_enumerate(64, 5, 10**7)}
        assert "suzuki" not in families
        assert "psl2_mersenne" not in families

    def test_row_invariants(self):
        for row in table2_enumerate(32, 5, 10**6):
            assert sympy.isprime(row.q_prime)
            assert sympy.isprime(row.p_prime)
            assert row.p_prime <= row.q_prime
            if row.in_theorem44:
                assert (row.q_prime - 1) % row.p_prime == 0

    def test_golden_rows(self):
        golden = json.loads(GOLDEN.read_text())
        gset = {
            (r["family"], tuple(r["parameters"]), r["q"], r["p"], r["structure"])
            for r in golden
        }
        eset = {
            (r.family, r.parameters, r.q_prime, r.p_prime, r.maximal_structure)
            for r in theorem44_enumerate(32, 5, 10**6)
        }
        assert eset == gset

    def test_psu33_discrepancy_is_flagged(self):
        rows = [
            r
            for r in theorem44_enumerate(32, 5, 10**6)
            if r.family == "psu_d" and r.parameters == (3, 3)
        ]
        assert len(rows) == 1
        assert rows[0].discrepancy


class TestCrossValidation:
    def test_fermat_4_passes(self):
        row = next(
            r
            for r in theorem44_enumerate(8, 3, 100)
            if r.family == "psl2_fermat" and r.parameters == (4,)
        )
        result = cross_validate(row)
        assert result.status == "passed"
        assert result.details["sol_size"] == 10
        assert result.details["structure"] == "D_10"

    def test_mersenne_4_negative_row_passes(self):
        row = next(
            r
            for r in table2_enumerate(8, 3, 100)
            if r.family == "psl2_mersenne" and r.parameters == (4,)
        )
        assert not row.in_theorem44
        result = cross_validate(row)
        assert result.status == "passed"

    def test_unitary_rows_are_skipped(self):
        row = next(
            r for r in theorem44_enumerate(8, 3, 100) if r.family == "psu_d"
        )
        result = cross_validate(row)
        assert result.status == "skipped"
        assert "no permutation constructor" in result.reason
        # the stated number-theoretic conditions are rechecked even so
        assert result.details["arithmetic_ok"] is True

    def test_each_outcome_has_its_own_details(self):
        # PSL(2,4) = A5 has no element of order 7, so the row fails at once
        row = ClassifierRow("psl2_fermat", (4,), 7, 2, "D_14", False)
        first, second = cross_validate(row), cross_validate(row)
        assert first.status == "failed" and first.details == {}
        first.details["seen"] = True
        assert second.details == {}
