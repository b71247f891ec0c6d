#!/usr/bin/env python3
"""Mutation harness: each mutant must fail the tests that guard it.

Run from anywhere (about 10 s on a 2-core machine):

    python3 scripts/mutants.py

First it runs every listed test on an unmodified copy of the repository,
and requires each to pass.  Then, for each mutant, it copies the repository
to a temporary directory, replaces the mutant's exact old text with its new
text there, and runs the mutant's test node ids with pytest.  The mutant is
killed when every one of those tests fails.  The checkout is never edited.
It prints one line per mutant and exits 1 if any mutant survives.
tests/test_mutants.py checks that each old text occurs exactly once in its
file, so an edit to the source cannot leave a mutant that no longer applies.
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
PAIRS = "tests/test_solubilizer.py::TestPairTestAgainstChainOracle"
RULES = "tests/test_solubilizer.py::TestOrbitRules"

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
)


def failed_ids(tree: pathlib.Path, node_ids: tuple[str, ...]) -> set[str]:
    """The node ids among node_ids that fail or error when run in tree."""
    result = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-rfE", "-p", "no:cacheprovider", *node_ids],
        cwd=tree,
        capture_output=True,
        text=True,
    )
    failed = set()
    for line in result.stdout.splitlines():
        for prefix in ("FAILED ", "ERROR "):
            if line.startswith(prefix):
                failed.add(line[len(prefix):].split(" - ")[0])
    return failed


def copy_tree(scratch: str) -> pathlib.Path:
    tree = pathlib.Path(scratch) / "repo"
    ignore = shutil.ignore_patterns(".git", "__pycache__", ".pytest_cache", ".hypothesis")
    shutil.copytree(ROOT, tree, ignore=ignore)
    return tree


def main() -> int:
    # a test that fails without any mutant kills nothing
    every_id = tuple(dict.fromkeys(node for m in MUTANTS for node in m.must_fail))
    with tempfile.TemporaryDirectory() as scratch:
        failing = failed_ids(copy_tree(scratch), every_id)
    if failing:
        print(f"unmutated tree fails: {', '.join(sorted(failing))}")
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
            failed = failed_ids(tree, mutant.must_fail)
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
