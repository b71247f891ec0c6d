"""Spans recorded from outside the program, around solvlab's public calls.

`Tracer.install()` replaces each traced function in every loaded
`solvlab` module that refers to it (modules import each other's functions
by name, so one module attribute is not enough) with a wrapper that
records a span: calls, inclusive busy seconds, and self seconds, which is
the span's time minus the time its child spans cover.  Spans are kept in
memory; `summary()` turns them into per-layer metrics.

A function that calls itself, or reaches itself again through another
traced call, adds its busy time once, at its outermost span, so that
busy seconds never exceed wall time.
"""

from __future__ import annotations

import functools
import sys
import time

# (module, attribute) -> span name.  The layer is the span name's first part.
FUNCTION_SPANS = {
    ("solvlab.group", "enumerate_elements"): "group.enumerate_elements",
    ("solvlab.group", "centralizer"): "group.centralizer",
    ("solvlab.group", "normalizer_of_cyclic"): "group.normalizer_of_cyclic",
    ("solvlab.group", "conjugacy_class_reps"): "group.conjugacy_class_reps",
    ("solvlab.group", "is_maximal"): "group.is_maximal",
    ("solvlab.group", "structure_tag"): "group.structure_tag",
    ("solvlab.solubilizer", "_pair_soluble"): "solubilizer.pair_test",
    ("solvlab.solubilizer", "sol_set"): "solubilizer.sol_set",
    ("solvlab.solubilizer", "sol_record"): "solubilizer.sol_record",
    ("solvlab.solubilizer", "orbit_count"): "solubilizer.orbit_count",
    ("solvlab.solubilizer", "burnside_orbit_count"): "solubilizer.burnside_orbit_count",
    ("solvlab.solubilizer", "soluble_radical"): "solubilizer.soluble_radical",
    ("solvlab.checks", "run_entry_checks"): "checks.run_entry_checks",
    ("solvlab.classify", "table2_enumerate"): "classify.table2_enumerate",
    ("solvlab.classify", "cross_validate"): "classify.cross_validate",
    ("solvlab.families", "make_family"): "families.make_family",
}

# Calls made from checks.run_entry_checks, named by the check suite (or the
# shared per-element records) that makes them.  Installed after
# FUNCTION_SPANS, so each wraps the span of the function it calls.
SUITE_SPANS = {
    "conjugacy_class_reps": "checks.records",
    "sol_record": "checks.records",
    "soluble_radical": "checks.radical",
    "frobenius_structure": "checks.conjecture",
    "lemma32_check": "checks.lemma32",
    "burnside_orbit_count": "checks.lemma32",
    "eq1_check": "checks.eq1",
    # The ratio34 suite reads the record's exact ratio; formatting it is the
    # only work the suite adds to the records.
    "_ratio_str": "checks.ratio34",
    "pq_scan": "checks.pq",
    "_lemma_sol_flags": "checks.lemma-sol",
    "lemma_exp_bound": "checks.exp-bound",
    "quotient_sol_check": "checks.quotient",
}

LAYERS = ("group", "solubilizer", "checks", "classify")

COUNTED = (
    "group.enumerate_elements",
    "group.centralizer",
    "group.normalizer_of_cyclic",
    "solubilizer.sol_set",
    "solubilizer.sol_record",
    "solubilizer.pair_test",
)


class Tracer:
    """Per-span counts and seconds, gathered while solvlab runs."""

    def __init__(self):
        self.calls: dict[str, int] = {}
        self.busy: dict[str, float] = {}
        self.self_s: dict[str, float] = {}
        self._active: dict[str, int] = {}
        # one entry per open span: seconds covered by its child spans
        self._child_time: list[float] = []
        self._undo: list[tuple[object, str, object]] = []

    def span(self, name: str, fn):
        layer = name.split(".", 1)[0]
        calls, busy, self_s = self.calls, self.busy, self.self_s
        active, child_time = self._active, self._child_time
        clock = time.perf_counter
        calls.setdefault(name, 0)
        busy.setdefault(name, 0.0)
        self_s.setdefault(layer, 0.0)
        active.setdefault(name, 0)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            calls[name] += 1
            active[name] += 1
            child_time.append(0.0)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                active[name] -= 1
                covered = child_time.pop()
                self_s[layer] += elapsed - covered
                if child_time:
                    child_time[-1] += elapsed
                if not active[name]:
                    busy[name] += elapsed

        return wrapper

    def _replace(self, original, wrapper) -> None:
        for mod_name, module in list(sys.modules.items()):
            if mod_name != "solvlab" and not mod_name.startswith("solvlab."):
                continue
            for attr, value in list(vars(module).items()):
                if value is original:
                    self._undo.append((module, attr, value))
                    setattr(module, attr, wrapper)

    def install(self) -> None:
        """Wrap every traced call; solvlab and its submodules must be imported."""
        for (mod_name, attr), name in FUNCTION_SPANS.items():
            original = getattr(sys.modules[mod_name], attr)
            self._replace(original, self.span(name, original))

        from solvlab import group, report

        chain_init = group.StabilizerChain.__init__
        self._undo.append((group.StabilizerChain, "__init__", chain_init))
        group.StabilizerChain.__init__ = self.span("group.chain", chain_init)
        render = report.VerificationReport.render
        self._undo.append((report.VerificationReport, "render", render))
        report.VerificationReport.render = self.span("report.render", render)

        checks = sys.modules["solvlab.checks"]
        for attr, name in SUITE_SPANS.items():
            original = getattr(checks, attr)
            self._undo.append((checks, attr, original))
            setattr(checks, attr, self.span(name, original))

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, value = self._undo.pop()
            setattr(owner, attr, value)

    def summary(self) -> dict[str, float]:
        """Per-layer metrics: busy seconds of every span, calls of the busiest
        ones, and self seconds per layer."""
        out: dict[str, float] = {f"{name}.calls": self.calls[name] for name in COUNTED}
        out["group.chain.builds"] = self.calls["group.chain"]
        out.update((f"{name}.s", busy) for name, busy in self.busy.items())
        out.update((f"{layer}.self_s", self.self_s[layer]) for layer in LAYERS)
        return out
