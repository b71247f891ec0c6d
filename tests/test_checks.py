"""The catalog sweep's per-entry checks, on paths a correct engine never takes,
the Burnside counts they make, the suite table, and the worker count of a
parallel sweep."""

import concurrent.futures
import importlib.util
import json
import random
import sys
from collections import Counter
from pathlib import Path

import pytest

import solvlab.group
from solvlab import checks
from solvlab.cycles import format_cycles, parse_cycles
from solvlab.families import CatalogEntry, FamilySpec, builtin_specs
from solvlab.group import (
    _noncommuting_pair,
    centralizer,
    conjugacy_class_reps,
    enumerate_elements,
    is_abelian,
)
from solvlab.solubilizer import sol_record, sol_set

from conftest import brute_burnside_count, brute_noncommuting_pair


def load_perfbench(name):
    """perfbench/<name>.py as a module, loaded without writing bytecode
    next to it."""
    path = Path(__file__).resolve().parents[1] / "perfbench" / f"{name}.py"
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", path)
    module = importlib.util.module_from_spec(spec)
    dont_write = sys.dont_write_bytecode
    sys.dont_write_bytecode = True
    try:
        spec.loader.exec_module(module)
    finally:
        sys.dont_write_bytecode = dont_write
    return module

COUNTEREXAMPLE_KEYS = [
    "group", "element", "check", "sol_size", "nx_order", "cx_order",
    "ell_cx", "ell_nx", "ratio34",
]


class TestCounterexamplePath:
    def test_failed_flag_becomes_a_counterexample(self, monkeypatch):
        # a nonzero lemma32 residual fails both lemma32 flags of every class
        monkeypatch.setattr(checks, "lemma32_check", lambda G, x, H, cap: 1)
        entry = CatalogEntry.from_spec(FamilySpec("symmetric", (3,)))
        items, counterexamples = checks.run_entry_checks(entry, ("lemma32",))
        assert len(items) == 3
        assert len(counterexamples) == 2 * len(items)
        for i, found in enumerate(counterexamples):
            item = items[i // 2]
            assert item["flags"]["lemma32_cx"] is item["flags"]["lemma32_nx"] is False
            assert list(found) == COUNTEREXAMPLE_KEYS
            assert found["group"] == "S3"
            assert found["check"] == ("lemma32_cx", "lemma32_nx")[i % 2]
            for key in COUNTEREXAMPLE_KEYS:
                if key != "check":
                    assert found[key] == item[key]


class TestBurnsideCounts:
    @pytest.mark.parametrize(
        "family,params",
        [("cyclic", (12,)), ("dihedral", (12,)), ("symmetric", (4,)), ("alternating", (5,))],
    )
    def test_one_count_when_the_normalizer_is_the_centralizer(
        self, family, params, monkeypatch
    ):
        entry = CatalogEntry.from_spec(FamilySpec(family, params))
        counted = []
        real_count = checks.burnside_orbit_count
        monkeypatch.setattr(
            checks,
            "burnside_orbit_count",
            lambda H, Y, cap: counted.append(H) or real_count(H, Y, cap),
        )
        items, _ = checks.run_entry_checks(entry, ("lemma32",))
        G = entry.group
        records = [sol_record(G, rep) for rep in conjugacy_class_reps(G)]
        assert len(counted) == len(records) + sum(r.n_x is not r.c_x for r in records)
        for item, record in zip(items, records, strict=True):
            flags = item["flags"]
            assert flags["burnside_cx"] == (
                record.ell_cx == brute_burnside_count(record.c_x, record.sol)
            )
            assert flags["burnside_nx"] == (
                record.ell_nx == brute_burnside_count(record.n_x, record.sol)
            )


# S4 is soluble; A5 and SL(2,5) are not, and SL(2,5) is the one catalog group
# whose quotient suite runs (its radical is its centre, of order 2).
SUITE_GROUPS = [
    FamilySpec("symmetric", (4,)),
    FamilySpec("alternating", (5,)),
    FamilySpec("sl2", (5,)),
]


class TestNoncommutingPair:
    """group._noncommuting_pair, which tests only the members that grow one
    chain, against the test of every pair."""

    @pytest.mark.parametrize("fixture", ["s4", "a5", "sl2_5"])
    def test_random_member_sets_give_both_answers(self, fixture, request):
        G = request.getfixturevalue(fixture)
        members = enumerate_elements(G).raw()
        # abelian centralizers give sets whose members all commute
        abelian = [
            enumerate_elements(C).raw()
            for C in (centralizer(G, x) for x in conjugacy_class_reps(G))
            if is_abelian(C)
        ]
        rng = random.Random(27)
        answers = Counter()
        for _ in range(200):
            inside = list(rng.choice(abelian))
            candidates = [
                rng.sample(members, rng.randint(1, 6)),
                rng.sample(inside, rng.randint(1, len(inside))),
                # one member that may or may not commute with the rest
                rng.sample(inside, rng.randint(1, len(inside))) + [rng.choice(members)],
            ]
            for subset in candidates:
                expected = brute_noncommuting_pair(subset)
                assert _noncommuting_pair(G.degree, subset) == expected, subset
                answers[expected] += 1
        assert answers[True] and answers[False]

    def test_the_flag_on_the_default_catalog(self, catalog_sweep):
        items, _, _ = catalog_sweep
        flags = {
            (item["group"], item["element"]): item["flags"]["noncommuting_pair_in_sol"]
            for item in items
        }
        checked = 0
        for spec in builtin_specs():
            entry = CatalogEntry.from_spec(spec)
            G = entry.group
            for rep in conjugacy_class_reps(G):
                flag = flags[entry.name, format_cycles(rep)]
                if is_abelian(G):
                    assert flag == "skipped"
                else:
                    assert flag == brute_noncommuting_pair(sol_set(G, rep).raw())
                    checked += 1
        assert checked and len(flags) == len(items)


def fresh_items(spec, tokens):
    """The items of one run on a newly built group, so that no per-group
    fact is left in the memo by an earlier run."""
    items, _ = checks.run_entry_checks(CatalogEntry.from_spec(spec), tokens)
    return items


class TestSuiteTable:
    @pytest.mark.parametrize("spec", SUITE_GROUPS, ids=lambda spec: spec.name())
    def test_each_suite_alone_gives_its_part_of_the_full_run(self, spec):
        full = fresh_items(spec, checks.CHECK_TOKENS)
        alone = {token: fresh_items(spec, (token,)) for token in checks.CHECK_TOKENS}
        for i, item in enumerate(full):
            flags = []
            for token, items in alone.items():
                part = items[i]
                assert dict(part, flags=None, pq_reasons=None) == dict(
                    item, flags=None, pq_reasons=None
                )
                if token == "pq":
                    assert part.get("pq_reasons") == item.get("pq_reasons")
                else:
                    assert "pq_reasons" not in part
                flags.extend(part["flags"].items())
            # the suites' flags, concatenated in table order, are the full run's
            assert flags == list(item["flags"].items())

    @pytest.mark.parametrize("spec", SUITE_GROUPS, ids=lambda spec: spec.name())
    def test_the_selection_order_does_not_matter(self, spec):
        forward = fresh_items(spec, ("conjecture", "quotient"))
        backward = fresh_items(spec, ("quotient", "conjecture"))
        assert backward == forward
        for item in backward:
            assert list(item["flags"]) == ["conjecture", "frobenius_instance", "quotient"]
        ran = [item["flags"]["quotient"] for item in backward]
        assert (True in ran) == (spec.family == "sl2")

    @pytest.mark.parametrize("backward", [False, True], ids=["forward", "backward"])
    @pytest.mark.parametrize(
        "spec",
        [FamilySpec("dihedral", (12,)), FamilySpec("agl1", (7,)), *SUITE_GROUPS],
        ids=lambda spec: spec.name(),
    )
    def test_one_conjugation_pass_per_element(self, spec, backward, monkeypatch):
        # C_G(x) and N_G(<x>) come from one pass of |G| conjugations of x,
        # whichever suite, representative or function asks first
        if backward:
            monkeypatch.setattr(checks, "_SUITES", dict(reversed(checks._SUITES.items())))
        entry = CatalogEntry.from_spec(spec)
        G = entry.group
        asked, conjugations, passing = set(), [], []
        real_stabilizers = solvlab.group._conjugation_stabilizers
        real_conj = solvlab.group._conj

        def stabilizers(H, x, cap):
            if H is not G:
                return real_stabilizers(H, x, cap)
            asked.add(x._img)
            passing.append(x)
            try:
                return real_stabilizers(H, x, cap)
            finally:
                passing.pop()

        def conj(p, g):
            if passing:
                conjugations.append(p)
            return real_conj(p, g)

        monkeypatch.setattr(solvlab.group, "_conjugation_stabilizers", stabilizers)
        monkeypatch.setattr(solvlab.group, "_conj", conj)
        checks.run_entry_checks(entry, checks.CHECK_TOKENS)
        assert Counter(conjugations) == {t: G.order() for t in asked}

    def test_every_suite_span_records_calls(self):
        # perfbench/spans.py wraps each suite by setting an attribute of
        # checks; a table that held the functions themselves would run
        # around the wrapper, and the span would count nothing
        tracer = load_perfbench("spans").Tracer()
        try:
            tracer.install()
            for spec in (FamilySpec("symmetric", (4,)), FamilySpec("sl2", (5,))):
                checks.run_entry_checks(CatalogEntry.from_spec(spec), checks.CHECK_TOKENS)
        finally:
            tracer.uninstall()
        names = [f"checks.{token}" for token in checks.CHECK_TOKENS]
        names += ["checks.records", "checks.radical"]
        assert [name for name in names if not tracer.calls[name]] == []


class InlineExecutor:
    """Stands in for ProcessPoolExecutor: records max_workers and runs each
    task at once in this process, so no worker is ever started."""

    max_workers: list[int] = []

    def __init__(self, max_workers):
        InlineExecutor.max_workers.append(max_workers)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def submit(self, fn, *args):
        future = concurrent.futures.Future()
        future.set_result(fn(*args))
        return future


class TestWorkers:
    def test_at_most_one_worker_per_group(self, monkeypatch):
        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", InlineExecutor)
        monkeypatch.setattr(InlineExecutor, "max_workers", [])
        groups = len(builtin_specs(8))
        assert groups > 2
        serial = checks.run_catalog_checks(8, ("conjecture",))
        for jobs, workers in ((5000, groups), (groups + 1, groups), (2, 2)):
            assert checks.run_catalog_checks(8, ("conjecture",), jobs=jobs) == serial
            assert InlineExecutor.max_workers.pop() == workers
        # one group needs no pool
        assert len(builtin_specs(1)) == 1
        checks.run_catalog_checks(1, ("conjecture",), jobs=5000)
        assert InlineExecutor.max_workers == []


def cycle_type(x):
    """The sorted cycle lengths of a permutation, fixed points included."""
    seen, lengths = set(), []
    for start in range(1, x.degree + 1):
        length, point = 0, start
        while point not in seen:
            seen.add(point)
            point = x(point)
            length += 1
        if length:
            lengths.append(length)
    return sorted(lengths)


class TestRelabelledSweep:
    def test_rows_do_not_depend_on_the_labelling(self):
        # Renumbering the points conjugates every group by a permutation of
        # them, so each class keeps its cycle type and every number and flag
        # of its row; only the representative's cycles move.
        relabelled_entry = load_perfbench("workload").relabelled_entry
        specs = [
            FamilySpec("alternating", (5,)),
            FamilySpec("symmetric", (4,)),
            FamilySpec("symmetric", (5,)),
            FamilySpec("psl3_2"),
            FamilySpec("sl2", (5,)),
        ]

        def rows(entry):
            items, counterexamples = checks.run_entry_checks(entry, checks.CHECK_TOKENS)
            assert counterexamples == []
            out = Counter()
            for item in items:
                x = parse_cycles(item["element"], entry.group.degree)
                out[json.dumps(dict(item, element=cycle_type(x)), sort_keys=True)] += 1
            return out

        rng = random.Random(23)
        for spec in specs:
            shipped = CatalogEntry.from_spec(spec)
            relabelled = relabelled_entry(spec, rng)
            assert relabelled.group.generators != shipped.group.generators
            assert rows(relabelled) == rows(shipped)
