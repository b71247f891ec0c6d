"""The catalog sweep's per-entry checks, on paths a correct engine never takes."""

from solvlab import checks
from solvlab.families import CatalogEntry, FamilySpec

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
