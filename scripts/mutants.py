#!/usr/bin/env python3
"""Mutation harness: each mutant must fail the tests that guard it.

Run from anywhere (about 40 s on a 2-core machine):

    python3 scripts/mutants.py

First it runs every listed test on an unmodified copy of the repository,
and requires each to pass.  Then, for each mutant, it copies the repository
to a temporary directory, replaces the mutant's exact old text with its new
text there, and runs the mutant's test node ids with pytest.  The mutant is
killed when every one of those tests fails.  The checkout is never edited.
It prints one line per mutant and exits 1 if any mutant survives, or if
the unmutated tree does not pass every listed test (a node id that pytest
cannot find included).  tests/test_mutants.py checks that each old text
occurs exactly once in its file, so an edit to the source cannot leave a
mutant that no longer applies, and that pytest collects every listed node id.
"""

from __future__ import annotations

import pathlib
import shutil
import subprocess
import sys
import tempfile
from typing import NamedTuple

ROOT = pathlib.Path(__file__).resolve().parent.parent


class Mutant(NamedTuple):
    name: str
    path: str  # relative to the repository root
    old: str
    new: str
    must_fail: tuple[str, ...]


SOLUBILIZER = "src/solvlab/solubilizer.py"
GROUP = "src/solvlab/group.py"
PERM = "src/solvlab/perm.py"
PAIRS = "tests/test_solubilizer.py::TestPairTestAgainstChainOracle"
RULES = "tests/test_solubilizer.py::TestOrbitRules"
SCAN = "tests/test_solubilizer.py::TestReducedScanAgainstOracle"
ORACLE = "tests/test_solubilizer.py::TestOracleAgainstBruteForce"
PARTITION = "tests/test_solubilizer.py::TestOrbitPartition"
IDENTITIES = "tests/test_solubilizer.py::TestCountingIdentities"
MEMOS = "tests/test_solubilizer.py::TestOrbitMemos"
FROBENIUS = "tests/test_solubilizer.py::TestFrobeniusStructure"

MUTANTS = (
    Mutant(
        "prime-bound-minus-1",
        SOLUBILIZER,
        "return m * (m - 1) if is_prime(m) else _dixon_bound(m)",
        "return m * (m - 1) - 1 if is_prime(m) else _dixon_bound(m)",
        (
            f"{PAIRS}::test_every_class_representative_pair[symmetric-params1]",
            f"{RULES}::test_dixon_bound_of_degree_4_is_attained",
        ),
    ),
    Mutant(
        "dixon-4-minus-1",
        SOLUBILIZER,
        "            high = mid - 1\n    return low\n",
        "            high = mid - 1\n    return low - 1 if m == 4 else low\n",
        (
            f"{RULES}::test_dixon_bound_is_the_integer_cube_root",
            f"{RULES}::test_dixon_bound_of_degree_4_is_attained",
        ),
    ),
    Mutant(
        "small-orbit-limit-5",
        SOLUBILIZER,
        "if all(len(orbit) <= 4 for orbit in orbits):",
        "if all(len(orbit) <= 5 for orbit in orbits):",
        (
            f"{PAIRS}::test_every_class_representative_pair[alternating-params0]",
            f"{PAIRS}::test_every_class_representative_pair[symmetric-params1]",
        ),
    ),
    Mutant(
        "affine-cycles-p-minus-1",
        SOLUBILIZER,
        "return kinds == 1 or (kinds == 2 and lengths.count(1) == 1)",
        "return kinds == 1 or sorted(lengths) == [1, len(orbit) - 1]",
        (
            f"{PAIRS}::test_every_class_representative_pair[alternating-params0]",
            f"{PAIRS}::test_every_class_representative_pair[psl3_2-params2]",
        ),
    ),
    Mutant(
        "orbit-leaders-drop-last",
        SOLUBILIZER,
        "return tuple(orbit[0] for orbit in orbits)",
        "return tuple(orbit[0] for orbit in orbits[:-1])",
        (
            f"{MEMOS}::test_orbit_leaders_against_brute_force[alternating-params0]",
            f"{MEMOS}::test_orbit_leaders_against_brute_force[agl1-params3]",
            f"{IDENTITIES}::test_burnside_agrees_with_partition_count",
        ),
    ),
    Mutant(
        "identity-leader-kept",
        SOLUBILIZER,
        "leaders = _orbit_leaders(n_x, elements)[1:]",
        "leaders = _orbit_leaders(n_x, elements)[:]",
        (
            f"{IDENTITIES}::test_lemma32_residual_zero_both_subgroups[alternating-params0]",
            f"{IDENTITIES}::test_eq1_residual_zero_on_soluble_groups[symmetric-params0]",
        ),
    ),
    Mutant(
        "frobenius-count-without-minus-1",
        SOLUBILIZER,
        "c_x.order() * (orbit_count(c_x, members) - 1)",
        "c_x.order() * orbit_count(c_x, members)",
        (
            f"{FROBENIUS}::test_every_representative_against_brute_force[agl1-params4]",
            f"{FROBENIUS}::test_the_finding_tests_no_pair[alternating-params1]",
        ),
    ),
    Mutant(
        "commuting-skips-adjacent-members",
        GROUP,
        "_commutes(a, b) for i, a in enumerate(gens) for b in gens[i + 1 :]",
        "_commutes(a, b) for i, a in enumerate(gens) for b in gens[i + 2 :]",
        (
            "tests/test_group.py::TestDerivedSeriesAndSolubility::test_is_abelian",
            "tests/test_checks.py::TestNoncommutingPair::test_random_member_sets_give_both_answers[a5]",
        ),
    ),
    Mutant(
        "scan-without-left-multiplication",
        SOLUBILIZER,
        "_orbits(n_gens, elements, [xt])",
        "_orbits(n_gens, elements)",
        (
            f"{SCAN}::test_one_pair_test_per_orbit_of_the_two_maps[alternating-params0]",
            f"{SCAN}::test_one_pair_test_per_orbit_of_the_two_maps[sl2-params3]",
        ),
    ),
    Mutant(
        "oracle-adds-only-the-tested-member",
        SOLUBILIZER,
        "soluble.update(_cyclic_generators(t))",
        "soluble.add(t)",
        (
            f"{ORACLE}::test_every_class_representative[alternating-params0]",
            f"{ORACLE}::test_every_class_representative[sl2-params3]",
        ),
    ),
    Mutant(
        "oracle-classes-of-a-set-not-closed-under-powers",
        SOLUBILIZER,
        "for t, _ in _generator_classes(elements):",
        "for t, _ in _generator_classes(ElementSet(G.degree, elements.raw()[:-1])):",
        (
            f"{ORACLE}::test_one_pair_test_per_cyclic_subgroup[alternating-params0-32]",
            f"{ORACLE}::test_one_pair_test_per_cyclic_subgroup[sl2-params3-49]",
        ),
    ),
    Mutant(
        "orbits-conjugation-without-right-factor",
        GROUP,
        "maps = [(_inv(g), g + pad) for g in gens]",
        "maps = [(_inv(g), None) for g in gens]",
        (
            f"{PARTITION}::test_orbits_against_brute_force[alternating-params0]",
            f"{PARTITION}::test_orbits_against_brute_force[sl2-params1]",
        ),
    ),
    Mutant(
        "commutes-skips-last-three-points",
        PERM,
        "for i in range(1, len(a)))",
        "for i in range(1, len(a) - 3))",
        (
            "tests/test_perm.py::TestRawImagesAgainstTupleReference::test_primitives_match[7]",
            "tests/test_perm.py::TestRawImagesAgainstTupleReference::test_primitives_match[28]",
        ),
    ),
    Mutant(
        "schreier-residue-swapped-product",
        GROUP,
        "r = self._sift(_mul(u, sw), i + 1)",
        "r = self._sift(_mul(sw, u), i + 1)",
        (
            "tests/test_group.py::TestOrderAndMembership::test_orders_match_sympy",
            "tests/test_group.py::TestGeneratedOrder::test_orders_match_sympy",
        ),
    ),
)


def run_tests(tree: pathlib.Path, node_ids: tuple[str, ...]) -> tuple[int, set[str], list[str]]:
    """pytest's exit code on node_ids in tree, the ids that fail or error,
    and pytest's ERROR lines (or its last lines when there are none).

    pytest exits 0 when every test passed and 1 when some failed.  Any other
    code means the listed tests did not all run: 4 for a node id that does
    not exist, and 2 or 4 for a module or conftest that fails to import.
    """
    result = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-rfE", "-p", "no:cacheprovider", *node_ids],
        cwd=tree,
        capture_output=True,
        text=True,
    )
    output = (result.stdout + result.stderr).splitlines()
    failed = set()
    for line in result.stdout.splitlines():
        for prefix in ("FAILED ", "ERROR "):
            if line.startswith(prefix):
                failed.add(line[len(prefix):].split(" - ")[0])
    errors = [line for line in output if line.startswith("ERROR")] or output[-5:]
    return result.returncode, failed, errors


def copy_tree(scratch: str) -> pathlib.Path:
    tree = pathlib.Path(scratch) / "repo"
    ignore = shutil.ignore_patterns(".git", "__pycache__", ".pytest_cache", ".hypothesis")
    shutil.copytree(ROOT, tree, ignore=ignore)
    return tree


def main() -> int:
    # a test that fails without any mutant kills nothing
    every_id = tuple(dict.fromkeys(node for m in MUTANTS for node in m.must_fail))
    # and one that pytest cannot find or collect decides nothing
    with tempfile.TemporaryDirectory() as scratch:
        code, failing, errors = run_tests(copy_tree(scratch), every_id)
    if code != 0:
        print(f"unmutated tree: pytest exited {code} on {len(every_id)} node ids")
        print("\n".join(sorted(failing) if code == 1 else errors))
        return 1
    survivors = 0
    for mutant in MUTANTS:
        with tempfile.TemporaryDirectory() as scratch:
            tree = copy_tree(scratch)
            target = tree / mutant.path
            text = target.read_text(encoding="utf-8")
            if text.count(mutant.old) != 1:
                raise SystemExit(f"{mutant.name}: old text does not occur exactly once")
            target.write_text(text.replace(mutant.old, mutant.new), encoding="utf-8")
            code, failed, _ = run_tests(tree, mutant.must_fail)
        # every listed id ran on the unmutated tree, so a mutant that stops
        # pytest from running them (a module that no longer imports) leaves
        # none of them passing
        if code not in (0, 1):
            failed = set(mutant.must_fail)
        passed = [node for node in mutant.must_fail if node not in failed]
        if passed:
            survivors += 1
            print(f"SURVIVED {mutant.name}: {', '.join(passed)} passed")
        else:
            print(f"killed   {mutant.name}: {len(mutant.must_fail)} of "
                  f"{len(mutant.must_fail)} tests fail")
    return 1 if survivors else 0


if __name__ == "__main__":
    sys.exit(main())
