"""One round of one workload, in a fresh interpreter.

Usage (from the repository root, with src on PYTHONPATH):

    python3 perfbench/workload.py --workload sweep-soluble --seed 3 --round 0 --trace 0

Prints one JSON object on its last line of stdout: the round's timings,
peak RSS, the rendered report, and what the output checks need (the
relabelled generators of each swept group, or each table2 row's
validation details).  `run.py` starts one such process per round, because
solvlab keeps per-group caches (elements, pair-verdict memo) and a module
level group cache in `classify` that would turn a second in-process round
into a run of memo hits.
"""

import time

_T0 = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import random  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402

# Calls go through the module attributes, so that spans.Tracer sees them.
from solvlab import checks, classify, families  # noqa: E402
from solvlab import CatalogEntry, FamilySpec, Permutation  # noqa: E402
from solvlab.checks import CHECK_TOKENS  # noqa: E402
from solvlab.group import DEFAULT_CAP, PermGroup, is_soluble  # noqa: E402
from solvlab.report import VerificationReport  # noqa: E402

# Soluble catalog groups: all eight suites run, sol_set is the whole group.
SOLUBLE_SPECS = (
    FamilySpec("cyclic", (12,)),
    FamilySpec("dihedral", (12,)),
    FamilySpec("symmetric", (3,)),
    FamilySpec("symmetric", (4,)),
    FamilySpec("alternating", (4,)),
    FamilySpec("agl1", (7,)),
    FamilySpec("agl1", (11,)),
    FamilySpec("frobenius_pq", (11, 23)),
)

# Insoluble catalog groups: pair-solubility tests dominate.  SL(2,5) is the
# one whose soluble radical is proper and nontrivial, so it runs the
# quotient suite.
INSOLUBLE_SPECS = (
    FamilySpec("alternating", (5,)),
    FamilySpec("symmetric", (5,)),
    FamilySpec("psl3_2"),
    FamilySpec("sl2", (5,)),
)

SWEEP_SPECS = {"sweep-soluble": SOLUBLE_SPECS, "sweep-insoluble": INSOLUBLE_SPECS}

# table2 at the CLI's default bounds.  The cap leaves out the three rows
# whose PSL(2, r) has order above 5000 (r = 23, 25, 27); PSL(2,16), of
# order 4080 on 17 points, is then the largest group built.
TABLE2_BOUNDS = (32, 5, 10**6)
CLASSIFY_CAP = 5000

WORKLOADS = ("sweep-soluble", "sweep-insoluble", "classify-table2")


def relabelling(seed: int, round_index: int):
    """Source of the round's point relabellings, or None for seed 0.

    Each round relabels afresh, so that a run's median is taken over several
    labellings: the cost of a group's checks depends on its labelling (by up
    to 2x for the small cyclic groups), and one labelling per run would make
    that the spread between seeds.
    """
    if seed == 0:
        return None
    return random.Random(f"solvlab-perfbench/{seed}/{round_index}")


def relabelled_entry(spec: FamilySpec, rng) -> CatalogEntry:
    """The catalog group, its generators conjugated by a random permutation."""
    group = families.make_family(spec)
    if rng is not None:
        n = group.degree
        sigma = list(range(n))
        rng.shuffle(sigma)
        gens = []
        for g in group.generators:
            img = g.images
            moved = [0] * n
            for i in range(n):
                moved[sigma[i]] = sigma[img[i] - 1] + 1
            gens.append(Permutation(moved))
        group = PermGroup(n, gens)
    return CatalogEntry(spec.name(), group, is_soluble(group), spec)


def _failure(what: str, exc: BaseException) -> dict:
    traceback.print_exc(file=sys.stderr)
    return {"operation": what, "error": f"{type(exc).__name__}: {exc}"}


def run_sweep(specs, seed: int, round_index: int, cap: int = DEFAULT_CAP) -> dict:
    rng = relabelling(seed, round_index)
    entries = [relabelled_entry(spec, rng) for spec in specs]
    t_setup = time.perf_counter()

    items: list = []
    counterexamples: list = []
    failures: list = []
    for entry in entries:
        try:
            entry_items, entry_ces = checks.run_entry_checks(entry, CHECK_TOKENS, cap)
        except Exception as exc:  # one failed group must not hide the others
            failures.append(_failure(entry.name, exc))
            continue
        items.extend(entry_items)
        counterexamples.extend(entry_ces)
    report = VerificationReport(
        command="verify",
        params={"groups": [e.name for e in entries], "checks": list(CHECK_TOKENS), "cap": cap},
        items=items,
        counterexamples=counterexamples,
    )
    for item in items:
        for verdict in item["flags"].values():
            report.tally(verdict)
    rendered = report.render("json")
    t_run = time.perf_counter()

    groups = [
        {
            "name": e.name,
            "degree": e.group.degree,
            "generators": [list(g.images) for g in e.group.generators],
        }
        for e in entries
    ]
    return {
        "setup_s": t_setup - _T0,
        "run_s": t_run - t_setup,
        "rss_mib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "attempted": len(entries),
        "failures": failures,
        "verdicts": report.checked,
        "report": rendered,
        "groups": groups,
    }


def run_classify(cap: int = CLASSIFY_CAP) -> dict:
    t_setup = time.perf_counter()
    rows = classify.table2_enumerate(*TABLE2_BOUNDS)
    max_r, max_d, max_q = TABLE2_BOUNDS
    report = VerificationReport(
        command="classify",
        params={"mode": "table2", "max_r": max_r, "max_d": max_d, "max_q": max_q, "cap": cap},
    )
    validations: list = []
    failures: list = []
    for row in rows:
        try:
            validation = classify.cross_validate(row, cap)
        except Exception as exc:  # one failed row must not hide the others
            failures.append(_failure(row.label(), exc))
            continue
        verdict = {"passed": True, "failed": False, "skipped": "skipped"}[validation.status]
        item = {
            "family": row.family,
            "label": row.label(),
            "parameters": list(row.parameters),
            "q": row.q_prime,
            "p": row.p_prime,
            "structure": row.maximal_structure,
            "in_theorem44": row.in_theorem44,
            "discrepancy": row.discrepancy,
            "flags": {"cross_validation": verdict},
        }
        if validation.reason:
            item["validation_reason"] = validation.reason
        report.tally(verdict)
        if verdict is False:
            report.counterexamples.append(dict(item, details=validation.details))
        report.items.append(item)
        validations.append({"status": validation.status, "details": validation.details})
    rendered = report.render("json")
    t_run = time.perf_counter()
    return {
        "setup_s": t_setup - _T0,
        "run_s": t_run - t_setup,
        "rss_mib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "attempted": len(rows),
        "failures": failures,
        "verdicts": report.checked,
        "report": rendered,
        "validations": validations,
    }


def perm_rates(seed: int) -> dict:
    """Permutation products and conjugations per second at degrees 14 and 28."""
    rng = random.Random(f"solvlab-perfbench/perm/{seed}")
    out = {}
    for degree in (14, 28):
        perms = []
        for _ in range(64):
            images = list(range(1, degree + 1))
            rng.shuffle(images)
            perms.append(Permutation(images))
        pairs = [(perms[i], perms[(7 * i + 3) % 64]) for i in range(64)] * 1000
        start = time.perf_counter()
        for a, b in pairs:
            a * b
        out[f"perm.mul_per_s.d{degree}"] = len(pairs) / (time.perf_counter() - start)
        start = time.perf_counter()
        for a, b in pairs:
            a.conjugate_by(b)
        out[f"perm.conj_per_s.d{degree}"] = len(pairs) / (time.perf_counter() - start)
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--round", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ns = parser.parse_args(argv)

    tracer = None
    if ns.trace:
        from spans import Tracer

        tracer = Tracer()
        tracer.install()
    if ns.workload == "classify-table2":
        result = run_classify()
    else:
        result = run_sweep(SWEEP_SPECS[ns.workload], ns.seed, ns.round)
    if tracer is not None:
        tracer.uninstall()
        result["layers"] = tracer.summary()
        result["layers"].update(perm_rates(ns.seed))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
