"""Self-test of the benchmark: its output checks and its operation counts.

Run from the repository root (takes a few seconds):

    python3 perfbench/selftest.py

It makes genuine rounds on small inputs, shows that the output checks pass
them and reject each with one altered number, and that attempted and
failed are counted per operation.  Exits 1 if any expectation fails.
"""

import json
import pathlib
import random
import sys

HERE = pathlib.Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

import outputs  # noqa: E402
import run  # noqa: E402
import workload  # noqa: E402
from solvlab import FamilySpec  # noqa: E402

S3 = FamilySpec("symmetric", (3,))
A5 = FamilySpec("alternating", (5,))
S4 = FamilySpec("symmetric", (4,))
S5 = FamilySpec("symmetric", (5,))


def altered(result: dict, group: str, field: str, change) -> dict:
    """A copy of a sweep result with `field` changed on one non-identity item."""
    report = json.loads(result["report"])
    item = next(it for it in report["items"] if it["group"] == group and it["order"] > 1)
    item[field] = change(item[field])
    return dict(result, report=json.dumps(report))


def altered_row(result: dict, change) -> dict:
    """A copy of a classify result with `change` applied to one flagged, built row."""
    report = json.loads(result["report"])
    validations = json.loads(json.dumps(result["validations"]))
    index = next(
        i
        for i, (it, v) in enumerate(zip(report["items"], validations))
        if it["in_theorem44"] and v["status"] == "passed"
    )
    change(report["items"][index], validations[index])
    return dict(result, report=json.dumps(report), validations=validations)


def main() -> int:
    problems = []

    def expect(ok: bool, what: str) -> None:
        print(f"{'ok  ' if ok else 'FAIL'} {what}")
        if not ok:
            problems.append(what)

    reference = json.loads(outputs.REFERENCE.read_text(encoding="utf-8"))
    golden = json.loads(outputs.GOLDEN.read_text(encoding="utf-8"))

    def sweep_problems(result):
        return outputs.check_sweep(result, reference, random.Random(0))

    sweep = workload.run_sweep((A5, S4), seed=7, round_index=0)
    expect(sweep_problems(sweep) == [], "a relabelled A5 + S4 sweep passes the checks")
    # Adding 120, a multiple of every cx_order and nx_order in A5, keeps
    # both divisibility checks true, so only the sympy reference can catch it.
    expect(sweep_problems(altered(sweep, "A5", "sol_size", lambda v: v + 120)) != [],
           "an altered sol_size in an insoluble group is rejected")
    expect(sweep_problems(altered(sweep, "S4", "sol_size", lambda v: v // 2)) != [],
           "an altered sol_size in a soluble group is rejected")
    expect(sweep_problems(altered(sweep, "A5", "cx_order", lambda v: 2 * v)) != [],
           "an altered cx_order is rejected")
    # S3 has three classes, all in the centralizer sample.  Naming a 3-cycle
    # as the involution's element changes no number in the report, so only
    # the sympy centralizer of the named element can catch it.
    s3 = workload.run_sweep((S3,), seed=7, round_index=0)
    three_cycle = next(it["element"] for it in json.loads(s3["report"])["items"] if it["order"] == 3)
    renamed = altered(s3, "S3", "element", lambda v: three_cycle)
    expect(sweep_problems(s3) == [] and sweep_problems(renamed) != [],
           "an element whose sympy centralizer order differs is rejected")

    table2 = workload.run_classify(cap=200)
    expect(outputs.check_classify(table2, golden) == [], "table2 with groups of order <= 200 passes")

    def wrong_sol(item, validation):
        validation["details"]["sol_size"] *= 2

    def wrong_order(item, validation):
        validation["details"]["group_order"] += 1

    def failed(item, validation):
        validation["status"] = "failed"

    def unflagged(item, validation):
        item["in_theorem44"] = False

    for change, what in (
        (wrong_sol, "a flagged row with sol_size != p*q"),
        (wrong_order, "a row with the wrong group order"),
        (failed, "a row with status failed"),
        (unflagged, "a Theorem 4.4 row missing from the flagged set"),
    ):
        expect(outputs.check_classify(altered_row(table2, change), golden) != [],
               f"{what} is rejected")

    # S5 has order 120 > cap 100, so its checks raise: one failed operation.
    print("(a traceback for S5 follows: that failure is expected)", file=sys.stderr)
    partial = workload.run_sweep((A5, S5), seed=7, round_index=0, cap=100)
    expect(partial["attempted"] == 2 and len(partial["failures"]) == 1,
           "a sweep of two groups with one failing counts 2 attempted, 1 failed")
    line = run.summarize("sweep-insoluble", 7, [(0, 0, partial), (1, 0, partial)], 0)
    expect((line["attempted"], line["failed"], line["correct"]) == (4, 2, True),
           "two such rounds give attempted 4, failed 2, and correct outputs")
    line = run.summarize("classify-table2", 0, [(0, 0, table2)], 0)
    expect((line["attempted"], line["failed"], line["correct"]) == (54, 0, True),
           "a table2 round counts its 54 rows as attempted, none failed")

    print(f"{len(problems)} expectation(s) failed" if problems else "all expectations hold")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
