"""Output checks for one round's result, made without solvlab.

Each check returns a list of problems; an empty list means the round's
output is correct.  The sweep checks use properties every correct report
has, the sympy reference in reference.json (rebuilt by reference.py) and
sympy centralizers of a seeded sample of the report's own elements.  The
classify checks use the Theorem 4.4 rows written by
scripts/gen_theorem44_golden.py, group orders computed here, and the
defining property of a flagged row.
"""

from __future__ import annotations

import json
import math
import pathlib
import random
from collections import Counter
from fractions import Fraction

HERE = pathlib.Path(__file__).resolve().parent
REFERENCE = HERE / "reference.json"
GOLDEN = HERE.parent / "tests" / "data" / "theorem44_golden.json"

CENTRALIZER_SAMPLE = 4


def parse_cycles(text: str, degree: int) -> list[int]:
    """Cycle notation on points 1..degree, as solvlab prints it, to 0-based images."""
    images = list(range(degree))
    for cycle in text.replace(" ", "").strip("()").split(")("):
        if not cycle:
            continue
        points = [int(p) - 1 for p in cycle.split(",")]
        for a, b in zip(points, points[1:] + points[:1]):
            images[a] = b
    return images


def check_sweep(result: dict, reference: dict, sample_rng: random.Random) -> list[str]:
    report = json.loads(result["report"])
    problems: list[str] = []
    if report["counterexamples"] or report["summary"]["failed"]:
        problems.append(f"{len(report['counterexamples'])} counterexamples in the report")
    if report["summary"]["checked"] != result["verdicts"]:
        problems.append("verdict count differs from the report summary")

    by_group: dict[str, list[dict]] = {}
    for item in report["items"]:
        by_group.setdefault(item["group"], []).append(item)
    failed = {f["operation"] for f in result["failures"]}
    expected = {g["name"] for g in result["groups"]} - failed
    if set(by_group) != expected:
        problems.append(f"groups in the report {sorted(by_group)} != swept {sorted(expected)}")

    for name, items in by_group.items():
        ref = reference[name]
        order = ref["order"]
        if sum(Fraction(order, it["cx_order"]) for it in items) != order:
            problems.append(f"{name}: class sizes |G|/cx_order do not sum to |G| = {order}")
        for it in items:
            where = f"{name} {it['element']}"
            if ref["soluble"] and it["sol_size"] != order:
                problems.append(f"{where}: sol_size {it['sol_size']} != |G| in a soluble group")
            if it["sol_size"] % it["cx_order"]:
                problems.append(f"{where}: cx_order {it['cx_order']} does not divide sol_size")
            if it["sol_size"] % it["nx_order"]:
                problems.append(f"{where}: nx_order {it['nx_order']} does not divide sol_size")
        seen = Counter(
            (it["order"], it["sol_size"], it["nx_order"], it["cx_order"]) for it in items
        )
        if seen != Counter(tuple(row) for row in ref["classes"]):
            problems.append(f"{name}: per-class (order, sol_size, nx_order, cx_order) differ from sympy")

    items = [it for it in report["items"] if it["group"] in expected]
    if items:
        from sympy.combinatorics import Permutation, PermutationGroup

        groups = {g["name"]: g for g in result["groups"]}
        for it in sample_rng.sample(items, min(CENTRALIZER_SAMPLE, len(items))):
            g = groups[it["group"]]
            G = PermutationGroup([Permutation([v - 1 for v in gen]) for gen in g["generators"]])
            x = Permutation(parse_cycles(it["element"], g["degree"]))
            cx = G.centralizer(x).order()
            if cx != it["cx_order"]:
                problems.append(f"{it['group']} {it['element']}: cx_order {it['cx_order']} != sympy {cx}")
    return problems


def linear_group_order(d: int, r: int) -> int:
    """|PSL(d, r)| = r^(d(d-1)/2) prod_{i=2..d} (r^i - 1) / gcd(d, r - 1)."""
    order = r ** (d * (d - 1) // 2)
    for i in range(2, d + 1):
        order *= r**i - 1
    return order // math.gcd(d, r - 1)


def check_classify(result: dict, golden: list[dict]) -> list[str]:
    report = json.loads(result["report"])
    problems: list[str] = []
    if report["counterexamples"] or report["summary"]["failed"]:
        problems.append(f"{len(report['counterexamples'])} counterexamples in the report")
    if report["summary"]["checked"] != result["verdicts"]:
        problems.append("verdict count differs from the report summary")

    flagged = {
        (it["family"], tuple(it["parameters"]), it["q"], it["p"], it["structure"])
        for it in report["items"]
        if it["in_theorem44"]
    }
    expected = {
        (r["family"], tuple(r["parameters"]), r["q"], r["p"], r["structure"]) for r in golden
    }
    if not result["failures"] and flagged != expected:
        problems.append(
            f"Theorem 4.4 rows differ from the golden file: "
            f"extra {sorted(flagged - expected)}, missing {sorted(expected - flagged)}"
        )

    for item, validation in zip(report["items"], result["validations"]):
        label, status, details = item["label"], validation["status"], validation["details"]
        if status != "passed":
            if status == "failed":
                problems.append(f"{label}: status failed: {item.get('validation_reason')}")
            continue
        if item["family"] == "psl_d":
            want = linear_group_order(*item["parameters"])
        else:
            r = item["parameters"][0]
            want = r * (r * r - 1) // math.gcd(2, r - 1)
        if details["group_order"] != want:
            problems.append(f"{label}: group order {details['group_order']} != {want}")
        pq = item["p"] * item["q"]
        if item["in_theorem44"] and not details["sol_size"] == details["nx_order"] == pq:
            problems.append(
                f"{label}: sol_size {details['sol_size']}, nx_order {details['nx_order']} != p*q = {pq}"
            )
    return problems
