"""Builtin families and the group-file format."""

import pytest
from sympy.combinatorics import Permutation as SymPerm
from sympy.combinatorics import PermutationGroup as SymGroup

from solvlab import families
from solvlab.errors import DegreeTooLarge, EngineInvariantViolated, FormatError, InvalidParameter
from solvlab.families import (
    CatalogEntry,
    FamilySpec,
    builtin_catalog,
    builtin_specs,
    load_group_file,
    make_family,
    save_group_file,
)
from solvlab.group import (
    StabilizerChain,
    _derived_gens,
    _normal_closure_gens,
    conjugacy_class_reps,
    enumerate_elements,
    is_soluble,
)

from conftest import brute_point_stabilizer


class TestFamilySpecs:
    def test_closed_form_orders_match_construction(self):
        for spec in builtin_specs(1200):
            assert make_family(spec).order() == spec.order(), spec

    def test_invalid_parameters(self):
        bad = [
            FamilySpec("cyclic", (0,)),
            FamilySpec("dihedral", (2,)),
            FamilySpec("agl1", (6,)),
            FamilySpec("frobenius_pq", (23, 11)),
            FamilySpec("frobenius_pq", (5, 23)),
            FamilySpec("psl2", (3,)),
            FamilySpec("psl2", (6,)),
            FamilySpec("nosuch", (3,)),
            FamilySpec("psl2", ()),
        ]
        for spec in bad:
            for method in (spec.validate, spec.name, spec.order):
                with pytest.raises(InvalidParameter):
                    method()

    def test_names(self):
        cases = [
            (FamilySpec("cyclic", (12,)), "C12"),
            (FamilySpec("dihedral", (10,)), "D20"),
            (FamilySpec("alternating", (5,)), "A5"),
            (FamilySpec("agl1", (13,)), "AGL1(13)"),
            (FamilySpec("frobenius_pq", (11, 23)), "C23:C11"),
            (FamilySpec("sl2", (5,)), "SL(2,5)"),
            (FamilySpec("psl2", (13,)), "PSL(2,13)"),
            (FamilySpec("psl3_2", ()), "PSL(3,2)"),
        ]
        for spec, expected in cases:
            assert spec.name() == expected

    def test_order_mismatch_names_the_spec(self, monkeypatch):
        entry = families._FAMILIES["cyclic"]
        monkeypatch.setitem(families._FAMILIES, "cyclic", entry._replace(order=lambda n: n + 1))
        # a built group of the wrong order is an engine bug, not a bad parameter
        with pytest.raises(EngineInvariantViolated) as raised:
            make_family(FamilySpec("cyclic", (5,)))
        assert str(raised.value) == (
            "constructed order 5 != expected 6 for FamilySpec(family='cyclic', params=(5,))"
        )


class TestCatalog:
    def test_default_catalog_size_and_bound(self):
        specs = builtin_specs(1200)
        assert len(specs) == 60
        assert all(s.order() <= 1200 for s in specs)

    def test_extended_catalog_adds_s7_a7(self):
        extra = set(builtin_specs(8000)) - set(builtin_specs(1200))
        assert extra == {
            FamilySpec("symmetric", (7,)),
            FamilySpec("alternating", (7,)),
        }

    def test_names_unique_and_deterministic(self):
        names = [s.name() for s in builtin_specs(1200)]
        assert len(names) == len(set(names))
        assert names == [s.name() for s in builtin_specs(1200)]

    def test_soluble_flags(self):
        flags = {e.name: e.soluble for e in builtin_catalog(360)}
        assert flags["S4"] and flags["D18"] and flags["AGL1(13)"]
        assert not flags["A5"] and not flags["PSL(2,4)"] and not flags["A6"]


class TestConstructions:
    def test_agl1_is_sharply_two_transitive(self):
        # the one-point stabilizer is C_{p-1} and the two-point stabilizer
        # is trivial, the Frobenius signature of the affine line
        G = make_family(FamilySpec("agl1", (13,)))
        stab1 = brute_point_stabilizer(G, 1)
        assert stab1.order() == 12
        stab2 = brute_point_stabilizer(stab1, 2)
        assert stab2.order() == 1

    def test_frobenius_pq_structure(self):
        G = make_family(FamilySpec("frobenius_pq", (11, 23)))
        assert G.order() == 253 and G.degree == 23
        assert brute_point_stabilizer(G, 1).order() == 11
        derived, _ = _derived_gens(G.degree, [g._img for g in G.generators])
        assert StabilizerChain(G.degree, derived).order() == 23

    def test_psl2_simplicity_via_normal_closures(self):
        for q in (5, 7, 8, 9):
            G = make_family(FamilySpec("psl2", (q,)))
            gens = [g._img for g in G.generators]
            for rep in conjugacy_class_reps(G):
                if rep.is_identity():
                    continue
                closure, _ = _normal_closure_gens(G.degree, gens, [rep._img])
                assert StabilizerChain(G.degree, closure).order() == G.order()

    def test_psl3_2_matches_sympy(self):
        G = make_family(FamilySpec("psl3_2", ()))
        H = SymGroup([SymPerm([i - 1 for i in g.images]) for g in G.generators])
        assert G.order() == H.order() == 168
        assert not is_soluble(G)

    def test_sl2_5_has_unique_involution(self):
        G = make_family(FamilySpec("sl2", (5,)))
        involutions = [
            g for g in enumerate_elements(G) if g.order() == 2
        ]
        assert len(involutions) == 1


class TestGroupFiles:
    def test_round_trip(self, tmp_path, a5):
        path = tmp_path / "a5.group"
        save_group_file(path, "A5", a5)
        entry = load_group_file(path)
        assert entry.name == "A5"
        assert entry.group.order() == 60
        assert not entry.soluble
        assert set(enumerate_elements(entry.group)) == set(enumerate_elements(a5))

    def test_comments_and_blank_lines(self, tmp_path):
        path = tmp_path / "g.group"
        path.write_text(
            "# a comment\n\nname: K4\ndegree: 4\n# another\ngen: (1,2)(3,4)\ngen: (1,3)(2,4)\n"
        )
        entry = load_group_file(path)
        assert entry.group.order() == 4
        assert entry.soluble

    def test_no_generators_gives_trivial_group(self, tmp_path):
        path = tmp_path / "t.group"
        path.write_text("name: triv\ndegree: 3\n")
        assert load_group_file(path).group.order() == 1

    def test_a_degree_above_256_is_refused_before_any_generator(self, tmp_path):
        path = tmp_path / "big.group"
        # the generator line is malformed too: the degree is read first
        for gens in ("", "gen: (1,1)\n"):
            path.write_text(f"name: big\ndegree: 257\n{gens}")
            with pytest.raises(DegreeTooLarge, match="degree 257"):
                load_group_file(path)
        path.write_text("name: edge\ndegree: 256\ngen: (1,256)\n")
        entry = load_group_file(path)
        assert entry.group.degree == 256 and entry.group.order() == 2

    def test_errors_carry_line_numbers(self, tmp_path):
        cases = [
            ("degree: 4\nname: X\n", "first entry"),
            ("name: X\ngen: (1,2)\n", "second entry"),
            ("name: X\ndegree: four\n", "not an integer"),
            ("name: X\ndegree: 4\njunk line\n", "key: value"),
            ("name: X\ndegree: 4\ncolor: red\n", "unexpected key"),
            ("name: X\ndegree: 4\ngen: (1,9)\n", "bad generator"),
        ]
        for text, fragment in cases:
            path = tmp_path / "bad.group"
            path.write_text(text)
            with pytest.raises(FormatError) as err:
                load_group_file(path)
            assert fragment in str(err.value)
