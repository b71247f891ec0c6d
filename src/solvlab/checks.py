"""Catalog-wide verification sweeps behind the verify command.

Each group contributes one report item per conjugacy-class representative;
the flags on an item hold the verdicts of the selected check suites for
that representative.  A flag is True, False, or "skipped" when the check's
hypothesis does not apply.  Every False flag also produces a counterexample
entry carrying the numbers needed to reproduce it.

Work may be distributed over processes (one task per group); items are
reassembled in catalog order so reports do not depend on scheduling.
"""

from __future__ import annotations

from fractions import Fraction

from .cycles import format_cycles
from .families import CatalogEntry, builtin_specs
from .group import (
    DEFAULT_CAP,
    _noncommuting_pair,
    enumerate_elements,
    conjugacy_class_reps,
    is_abelian,
    is_soluble,
)
from .numtheory import is_prime
from .perm import Permutation, _conj
from .solubilizer import (
    _cyclic_generators,
    burnside_orbit_count,
    eq1_check,
    frobenius_structure,
    lemma32_check,
    lemma_exp_bound,
    pq_scan,
    quotient_sol_check,
    sol_record,
    sol_set,
    sol_set_exhaustive,
    soluble_radical,
)

# The check suites in report order: token -> name of the function that
# writes the suite's flags into item["flags"], called as
# fn(G, rep, record, item, cap).  A function is looked up by name when it
# is called, so a wrapper set on this module (a span, a patch) is what runs.
_SUITES = {
    "conjecture": "_conjecture_flags",
    "lemma32": "_lemma32_flags",
    "eq1": "_eq1_flags",
    "ratio34": "_ratio34_flags",
    "pq": "_pq_flags",
    "lemma-sol": "_lemma_sol_flags",
    "exp-bound": "_exp_bound_flags",
    "quotient": "_quotient_flags",
}
CHECK_TOKENS = tuple(_SUITES)


# A counterexample entry: the failed flag's name and these fields of its item.
_COUNTEREXAMPLE_KEYS = (
    "group", "element", "check", "sol_size", "nx_order", "cx_order", "ell_cx", "ell_nx", "ratio34",
)


def _ratio_str(value: Fraction) -> str:
    return f"{value.numerator}/{value.denominator}"


def run_entry_checks(entry: CatalogEntry, checks: tuple[str, ...], cap: int = DEFAULT_CAP):
    """All selected checks for one catalog entry, in table order.

    Returns (items, counterexamples); tallies are derived by the caller
    from the flag values.
    """
    G = entry.group
    reps = conjugacy_class_reps(G, cap)
    # Every record first: pq_scan reads every rep's record, so in the loop
    # below the pq suite would build the later records, and carry their time.
    records = [sol_record(G, rep, cap) for rep in reps]
    selected = [name for token, name in _SUITES.items() if token in checks]
    items = []
    counterexamples = []
    for rep, record in zip(reps, records):
        item = {
            "group": entry.name,
            "element": format_cycles(rep),
            "order": rep.order(),
            "sol_size": record.sol_size,
            "nx_order": record.n_x.order(),
            "cx_order": record.c_x.order(),
            "ell_cx": record.ell_cx,
            "ell_nx": record.ell_nx,
            "ratio34": _ratio_str(record.ratio34),
            "flags": {},
        }
        for name in selected:
            globals()[name](G, rep, record, item, cap)
        for check, verdict in item["flags"].items():
            if verdict is False:
                fields = dict(item, check=check)
                counterexamples.append({key: fields[key] for key in _COUNTEREXAMPLE_KEYS})
        items.append(item)
    return items, counterexamples


def _conjecture_flags(G, rep, record, item, cap) -> None:
    flags = item["flags"]
    flags["conjecture"] = record.conjecture_ok
    finding = frobenius_structure(G, rep, cap)
    # Prime-index Frobenius normalizers are a proven instance,
    # so a failure there is stronger than a bare conjecture miss.
    proven = finding.is_frobenius_over_cx and finding.index_prime
    flags["frobenius_instance"] = record.conjecture_ok if proven else "skipped"


def _lemma32_flags(G, rep, record, item, cap) -> None:
    flags = item["flags"]
    flags["lemma32_cx"] = lemma32_check(G, rep, record.c_x, cap) == 0
    flags["lemma32_nx"] = lemma32_check(G, rep, record.n_x, cap) == 0
    flags["burnside_cx"] = (
        record.ell_cx == burnside_orbit_count(record.c_x, record.sol, cap)
    )
    # one count when N_G(<x>) is C_G(x): then ell_nx is ell_cx too
    flags["burnside_nx"] = flags["burnside_cx"] if record.n_x is record.c_x else (
        record.ell_nx == burnside_orbit_count(record.n_x, record.sol, cap)
    )


def _eq1_flags(G, rep, record, item, cap) -> None:
    soluble = is_soluble(G)
    for side, H in (("cx", record.c_x), ("nx", record.n_x)):
        item["flags"][f"eq1_{side}"] = eq1_check(G, rep, H, cap) == 0 if soluble else "skipped"


def _ratio34_flags(G, rep, record, item, cap) -> None:
    item["flags"]["ratio34_integral"] = record.ratio34.denominator == 1


def _pq_flags(G, rep, record, item, cap) -> None:
    flags = item["flags"]
    soluble = is_soluble(G)
    findings = [] if soluble else pq_scan(G, cap)
    finding = next((f for f in findings if f.x._img == rep._img), None)
    flags["pq"] = "skipped" if finding is None else finding.verdict
    if finding is not None and not finding.verdict:
        item["pq_reasons"] = list(finding.reasons)
    flags["sol_size_not_6"] = "skipped" if soluble else record.sol_size != 6


def _lemma_sol_flags(G, rep, record, item, cap) -> None:
    """Divisibility, invariance and structure properties of one solubilizer.

    The invariance flag compares the record with the orbit-reduced scans for
    the generators of <x>.  The equivariance flag rescans a conjugate
    of x with sol_set_exhaustive, one pair test per cyclic subgroup of G,
    so every representative's reduced set is also checked against the
    independent oracle."""
    flags = item["flags"]
    sol = record.sol
    order = G.order()
    flags["cx_divides_sol"] = record.sol_size % record.c_x.order() == 0

    flags["sol_generator_invariant"] = all(
        sol_set(G, Permutation._from_images(t), cap) == sol for t in _cyclic_generators(rep._img)
    )

    elements = enumerate_elements(G, cap)
    conjugator = elements.raw()[len(elements) // 3]
    moved = sol_set_exhaustive(
        G, Permutation._from_images(_conj(rep._img, conjugator)), cap
    )
    expected = {_conj(t, conjugator) for t in sol.raw()}
    flags["sol_conjugation_equivariant"] = moved.raw_set() == expected

    radical = enumerate_elements(soluble_radical(G, cap), cap).raw_set()
    flags["radical_iff_sol_whole"] = (record.sol_size == order) == (rep._img in radical)
    flags["prime_sol_size_forces_prime_group"] = (
        not is_prime(record.sol_size) or order == record.sol_size
    )

    flags["noncommuting_pair_in_sol"] = (
        "skipped" if is_abelian(G) else _noncommuting_pair(G.degree, sol.raw())
    )

    x_order = rep.order()
    if not is_soluble(G) and is_prime(x_order):
        flags["no_selfnormalizing_prime_cyclic"] = record.n_x.order() > x_order
    else:
        flags["no_selfnormalizing_prime_cyclic"] = "skipped"


def _exp_bound_flags(G, rep, record, item, cap) -> None:
    flags = item["flags"]
    if record.n_x.order() == G.order():
        flags["exp_bound"] = "skipped"  # then sol is N_G(<x>), so the square test skips too
    else:
        flags["exp_bound"] = lemma_exp_bound(G, rep, cap)[1]
    x_order = rep.order()
    if is_prime(x_order) and not record.equals_nx:
        flags["exp_bound_prime_square"] = record.sol_size > x_order * x_order
    else:
        flags["exp_bound_prime_square"] = "skipped"


def _quotient_flags(G, rep, record, item, cap) -> None:
    radical = soluble_radical(G, cap)
    runs = 1 < radical.order() < G.order()
    item["flags"]["quotient"] = quotient_sol_check(G, radical, rep, cap) if runs else "skipped"


def _spec_task(args):
    spec, checks, cap = args
    entry = CatalogEntry.from_spec(spec)
    items, counterexamples = run_entry_checks(entry, checks, cap)
    entry.group._cache.clear()  # G's cache may hold G: break the cycle, free both now
    return items, counterexamples


def run_catalog_checks(
    max_order: int,
    checks: tuple[str, ...],
    cap: int = DEFAULT_CAP,
    jobs: int = 1,
):
    """Run check suites over the builtin catalog; deterministic item order."""
    specs = builtin_specs(max_order)
    tasks = [(spec, checks, cap) for spec in specs]
    all_items = []
    all_counterexamples = []
    # at most one worker per group: the pool starts all of its workers at once
    workers = min(jobs, len(tasks))
    if workers > 1:
        # only a parallel sweep pays for loading the process pool
        from concurrent.futures import ProcessPoolExecutor

        # largest groups first, so that no long task starts last and runs alone
        by_size = sorted(range(len(tasks)), key=lambda i: -specs[i].order())
        with ProcessPoolExecutor(max_workers=workers) as pool:
            futures = {i: pool.submit(_spec_task, tasks[i]) for i in by_size}
            results = [futures[i].result() for i in range(len(tasks))]
    else:
        results = [_spec_task(t) for t in tasks]
    for items, counterexamples in results:
        all_items.extend(items)
        all_counterexamples.extend(counterexamples)
    return all_items, all_counterexamples
