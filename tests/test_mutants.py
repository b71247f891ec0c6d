"""The mutation harness's list stays applicable: each mutant's old text
occurs exactly once in its file, so that scripts/mutants.py mutates what it
names, and every node id it must see fail exists.  The harness itself runs
outside the suite."""

import importlib.util
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


def load_mutants():
    spec = importlib.util.spec_from_file_location("scripts_mutants", ROOT / "scripts" / "mutants.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.MUTANTS


MUTANTS = load_mutants()


@pytest.mark.parametrize("mutant", MUTANTS, ids=[m.name for m in MUTANTS])
def test_old_text_occurs_once(mutant):
    text = (ROOT / mutant.path).read_text(encoding="utf-8")
    assert text.count(mutant.old) == 1
    assert mutant.new != mutant.old


def test_every_must_fail_id_is_collected():
    # a renamed test would leave the harness a node id that pytest cannot find
    wanted = {node for m in MUTANTS for node in m.must_fail}
    files = sorted({node.split("::")[0] for node in wanted})
    result = subprocess.run(
        [sys.executable, "-m", "pytest", "--collect-only", "-q", "-p", "no:cacheprovider", *files],
        cwd=ROOT,
        capture_output=True,
        text=True,
    )
    assert result.returncode == 0, result.stdout + result.stderr
    assert wanted - set(result.stdout.splitlines()) == set()
