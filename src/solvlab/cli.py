"""Command line driver.

Subcommands: sol (one solubilizer record), table1 (the A5 reference table),
verify (catalog-wide property sweeps), classify (order-pq maximal-subgroup
search), zsigmondy (primitive prime divisors).

Exit codes: 0 all checks passed, 2 a mathematical counterexample was found,
1 usage or input error, 3 an engine invariant failed (a bug in solvlab, not
a counterexample).  The four are never conflated; argparse's default exit
code is overridden to keep usage errors at 1.
"""

from __future__ import annotations

import argparse
import sys

from .checks import CHECK_TOKENS, _ratio_str, run_catalog_checks
from .classify import cross_validate, table2_enumerate, theorem44_enumerate
from .cycles import format_cycles, parse_cycles
from .errors import (
    EngineInvariantViolated, InvalidParameter, NotInGroup, OrderExceedsCap, SolvLabError
)
from .families import FAMILY_TOKENS, CatalogEntry, FamilySpec, load_group_file
from .group import (
    DEFAULT_CAP,
    conjugacy_class_reps,
    first_element_of_order,
    structure_tag,
)
from .report import VerificationReport
from .solubilizer import sol_record
from .zsigmondy import primitive_prime_divisors

# Reference values for the A5 table, one column per conjugacy class kind:
# sol_size, nx_order, nx structure, cx_order, ell_cx, ratio.  The identity
# column keeps the reference convention of reporting 1 for the last two
# cells; the engine's orbit count for that column is emitted separately.
_TABLE1_COLUMNS = {
    1: ("identity", 60, 60, "A_5", 60, 1, 1),
    2: ("involution", 36, 4, "C_2×C_2", 4, 12, 12),
    3: ("3-cycle", 24, 6, "S_3", 3, 10, 5),
    5: ("5-cycle", 10, 10, "D_10", 5, 6, 3),
}

_IDENTITY_NOTE = (
    "identity column: ell and ratio cells follow the reference convention; "
    "the engine's orbit count and exact ratio are in engine_ell_cx and "
    "engine_ratio34"
)


class _Parser(argparse.ArgumentParser):
    """argparse exits 2 on bad usage; this tool reserves 2 for counterexamples."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


def _add_common_flags(sub: argparse.ArgumentParser, cap: bool = True) -> None:
    sub.add_argument("--format", choices=("text", "json", "csv"), default="text")
    if cap:
        sub.add_argument("--cap", type=int, default=DEFAULT_CAP)


def _load_group(ns) -> CatalogEntry:
    if ns.family is not None:
        spec = FamilySpec.parse(ns.family)
        if spec.order() > ns.cap:
            raise OrderExceedsCap(spec.order(), ns.cap)
        return CatalogEntry.from_spec(spec)
    return load_group_file(ns.file)


def _resolve_element(entry: CatalogEntry, ns, cap: int):
    G = entry.group
    if ns.element is not None:
        x = parse_cycles(ns.element, G.degree)
        if x not in G:
            raise NotInGroup(f"element {ns.element!r} is not in {entry.name}")
        return x
    x = first_element_of_order(G, ns.order, cap)
    if x is None:
        raise NotInGroup(f"{entry.name} has no element of order {ns.order}")
    return x


def _emit(report: VerificationReport, fmt: str) -> None:
    sys.stdout.write(report.render(fmt))


def cmd_sol(ns) -> int:
    entry = _load_group(ns)
    x = _resolve_element(entry, ns, ns.cap)
    record = sol_record(entry.group, x, ns.cap)
    item = {
        "group": entry.name,
        "element": format_cycles(x),
        "order": x.order(),
        "sol_size": record.sol_size,
        "nx_order": record.n_x.order(),
        "cx_order": record.c_x.order(),
        "nx_structure": structure_tag(record.n_x, ns.cap),
        "ell_cx": record.ell_cx,
        "ell_nx": record.ell_nx,
        "ratio34": _ratio_str(record.ratio34),
        "flags": {
            "conjecture": record.conjecture_ok,
            "is_subgroup": record.is_subgroup,
            "equals_nx": record.equals_nx,
        },
    }
    report = VerificationReport(
        command="sol",
        params={
            "group": entry.name,
            "element": item["element"],
            "cap": ns.cap,
        },
        items=[item],
    )
    report.tally(record.conjecture_ok)
    if not record.conjecture_ok:
        report.counterexamples.append(dict(item))
    _emit(report, ns.format)
    return 2 if report.failed else 0


def cmd_table1(ns) -> int:
    entry = CatalogEntry.from_spec(FamilySpec("alternating", (5,)))
    G = entry.group
    items = []
    counterexamples = []
    report = VerificationReport(
        command="table1", params={"group": entry.name, "cap": ns.cap}, items=items
    )
    five_cycle_cells = []
    for rep in conjugacy_class_reps(G, ns.cap):
        record = sol_record(G, rep, ns.cap)
        order = rep.order()
        column, sol, nx, tag, cx, ell, ratio = _TABLE1_COLUMNS[order]
        engine_tag = structure_tag(record.n_x, ns.cap)
        engine_cells = (
            record.sol_size,
            record.n_x.order(),
            engine_tag,
            record.c_x.order(),
        )
        matches = engine_cells == (sol, nx, tag, cx)
        if order == 1:
            # ell/ratio follow the reference convention, engine values aside
            item_ell, item_ratio = ell, f"{ratio}/1"
        else:
            matches = matches and record.ell_cx == ell
            matches = matches and record.ratio34 == ratio
            item_ell, item_ratio = record.ell_cx, _ratio_str(record.ratio34)
        item = {
            "group": entry.name,
            "column": column,
            "element": format_cycles(rep),
            "sol_size": record.sol_size,
            "nx_order": record.n_x.order(),
            "nx_structure": engine_tag,
            "cx_order": record.c_x.order(),
            "ell_cx": item_ell,
            "ell_nx": record.ell_nx,
            "ratio34": item_ratio,
            "flags": {"matches_reference": matches},
        }
        if order == 1:
            item["engine_ell_cx"] = record.ell_cx
            item["engine_ratio34"] = _ratio_str(record.ratio34)
            item["note"] = _IDENTITY_NOTE
        if order == 5:
            cells = (record.sol_size, record.n_x.order(), engine_tag,
                     record.c_x.order(), record.ell_cx, record.ratio34)
            five_cycle_cells.append(cells)
            if len(five_cycle_cells) == 2:
                agree = five_cycle_cells[0] == five_cycle_cells[1]
                item["flags"]["agrees_with_first_5_class"] = agree
                report.tally(agree)
                if not agree:
                    counterexamples.append(dict(item))
        report.tally(matches)
        if not matches:
            counterexamples.append(dict(item))
        items.append(item)
    report.counterexamples = counterexamples
    _emit(report, ns.format)
    return 2 if report.failed else 0


def _split_checks(text: str) -> tuple[str, ...]:
    tokens = tuple(t.strip() for t in text.split(",") if t.strip())
    bad = [t for t in tokens if t not in CHECK_TOKENS]
    if bad:
        raise InvalidParameter(
            f"unknown check token(s) {', '.join(bad)}; valid: {', '.join(CHECK_TOKENS)}"
        )
    return tokens if tokens else CHECK_TOKENS


def cmd_verify(ns) -> int:
    if ns.max_order > ns.cap:
        raise InvalidParameter(
            f"--max-order {ns.max_order} exceeds the element cap {ns.cap}"
        )
    if ns.max_order < 1:
        raise InvalidParameter(f"--max-order must be at least 1, not {ns.max_order}")
    if ns.jobs < 1:
        raise InvalidParameter(f"--jobs must be at least 1, not {ns.jobs}")
    checks = _split_checks(ns.checks)
    items, counterexamples = run_catalog_checks(
        ns.max_order, checks, ns.cap, ns.jobs
    )
    report = VerificationReport(
        command="verify",
        params={
            "max_order": ns.max_order,
            "checks": list(checks),
            "cap": ns.cap,
        },
        items=items,
        counterexamples=counterexamples,
    )
    for item in items:
        for verdict in item["flags"].values():
            report.tally(verdict)
    _emit(report, ns.format)
    return 2 if report.failed else 0


def cmd_classify(ns) -> int:
    rows = (
        theorem44_enumerate(ns.max_r, ns.max_d, ns.max_q)
        if ns.mode == "theorem44"
        else table2_enumerate(ns.max_r, ns.max_d, ns.max_q)
    )
    items = []
    counterexamples = []
    report = VerificationReport(
        command="classify",
        params={
            "mode": ns.mode,
            "max_r": ns.max_r,
            "max_d": ns.max_d,
            "max_q": ns.max_q,
            "cap": ns.cap,
        },
        items=items,
        counterexamples=counterexamples,
    )
    for row in rows:
        validation = cross_validate(row, ns.cap)
        verdict = {
            "passed": True,
            "failed": False,
            "skipped": "skipped",
        }[validation.status]
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
            bad = dict(item)
            bad["details"] = validation.details
            counterexamples.append(bad)
        items.append(item)
    _emit(report, ns.format)
    return 2 if report.failed else 0


def cmd_zsigmondy(ns) -> int:
    result = primitive_prime_divisors(ns.q, ns.d)
    item = {
        "q": result.q,
        "d": result.d,
        "primitive_primes": list(result.primitive_primes),
        "primitive_part": result.primitive_part,
        "flags": {"exists": bool(result.primitive_primes)},
    }
    if not result.primitive_primes:
        item["note"] = (
            "no primitive prime divisor exists; this pair is one of the "
            "known exceptions"
        )
    report = VerificationReport(
        command="zsigmondy",
        params={"q": ns.q, "d": ns.d},
        items=[item],
    )
    report.tally(True)
    _emit(report, ns.format)
    return 0


def _build_parser() -> _Parser:
    parser = _Parser(prog="solv-lab", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)

    p_sol = sub.add_parser("sol", help="solubilizer record for one element")
    src = p_sol.add_mutually_exclusive_group(required=True)
    src.add_argument(
        "--family",
        help="family token and its integer parameters, e.g. a:5, psl2:7, "
        "frob:11:23; tokens: " + ", ".join(FAMILY_TOKENS),
    )
    src.add_argument("--file", help="path to a group file")
    which = p_sol.add_mutually_exclusive_group(required=True)
    which.add_argument("--element", help="cycle notation, e.g. \"(1,2,3)\"")
    which.add_argument("--order", type=int, help="first class rep of this order")
    _add_common_flags(p_sol)
    p_sol.set_defaults(func=cmd_sol)

    p_t1 = sub.add_parser("table1", help="reference solubilizer table for A5")
    _add_common_flags(p_t1)
    p_t1.set_defaults(func=cmd_table1)

    p_ver = sub.add_parser("verify", help="property sweeps over the builtin catalog")
    p_ver.add_argument(
        "--checks",
        default=",".join(CHECK_TOKENS),
        help="comma-separated subset of: " + ", ".join(CHECK_TOKENS),
    )
    p_ver.add_argument("--jobs", type=int, default=1)
    p_ver.add_argument("--max-order", type=int, default=1200)
    _add_common_flags(p_ver)
    p_ver.set_defaults(func=cmd_verify)

    p_cls = sub.add_parser("classify", help="simple groups with |Sol| = pq maximal")
    p_cls.add_argument("--mode", choices=("table2", "theorem44"), default="table2")
    p_cls.add_argument("--max-r", type=int, default=32)
    p_cls.add_argument("--max-d", type=int, default=5)
    p_cls.add_argument("--max-q", type=int, default=10**6)
    _add_common_flags(p_cls)
    p_cls.set_defaults(func=cmd_classify)

    p_z = sub.add_parser("zsigmondy", help="primitive prime divisors of q^d - 1")
    p_z.add_argument("q", type=int)
    p_z.add_argument("d", type=int)
    _add_common_flags(p_z, cap=False)
    p_z.set_defaults(func=cmd_zsigmondy)

    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    ns = parser.parse_args(argv)
    try:
        return ns.func(ns)
    except EngineInvariantViolated as exc:
        print(
            f"solv-lab: engine invariant violated (a bug, not a counterexample): {exc}",
            file=sys.stderr,
        )
        return 3
    except SolvLabError as exc:
        print(f"solv-lab: error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
