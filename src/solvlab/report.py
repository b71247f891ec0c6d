"""Deterministic report envelope with json, text and csv renderers.

Reports are plain data assembled in a fixed order, so two runs with the
same flags produce byte-identical output regardless of how the work was
scheduled.  The json form is the machine contract; text is an aligned
table for humans; csv flattens one item per line.
"""

from __future__ import annotations

import csv
import io
import json

REPORT_VERSION = "0.1.0"


class VerificationReport:
    def __init__(
        self,
        command: str,
        params: dict,
        items: list[dict] | None = None,
        counterexamples: list[dict] | None = None,
    ):
        self.command = command
        self.params = params
        self.items = [] if items is None else items
        self.counterexamples = [] if counterexamples is None else counterexamples
        self.checked = 0
        self.failed = 0
        self.skipped = 0

    def tally(self, verdict) -> None:
        """Count one check instance: True/False checked, 'skipped' skipped."""
        if verdict == "skipped":
            self.skipped += 1
        else:
            self.checked += 1
            if not verdict:
                self.failed += 1

    def as_dict(self) -> dict:
        return {
            "version": REPORT_VERSION,
            "command": self.command,
            "params": self.params,
            "items": self.items,
            "summary": {
                "checked": self.checked,
                "failed": self.failed,
                "skipped": self.skipped,
            },
            "counterexamples": self.counterexamples,
        }

    def render(self, fmt: str) -> str:
        if fmt == "json":
            return json.dumps(self.as_dict(), indent=2, ensure_ascii=False) + "\n"
        if fmt == "csv":
            return self._render_csv()
        return self._render_text()

    def _flat_items(self) -> tuple[list[str], list[dict]]:
        columns: list[str] = []
        flat: list[dict] = []
        for item in self.items:
            row = {}
            for key, value in item.items():
                if isinstance(value, dict):
                    for sub, subval in value.items():
                        row[f"{key}.{sub}"] = subval
                elif isinstance(value, (list, tuple)):
                    row[key] = " ".join(str(v) for v in value)
                else:
                    row[key] = value
            for key in row:
                if key not in columns:
                    columns.append(key)
            flat.append(row)
        return columns, flat

    def _render_csv(self) -> str:
        columns, flat = self._flat_items()
        buffer = io.StringIO()
        writer = csv.writer(buffer, lineterminator="\n")
        writer.writerow(columns)
        for row in flat:
            writer.writerow([_cell(row.get(c, "")) for c in columns])
        return buffer.getvalue()

    def _render_text(self) -> str:
        lines = [f"solv-lab {self.command}"]
        if self.params:
            pairs = "  ".join(f"{k}={v}" for k, v in self.params.items())
            lines.append(pairs)
        columns, flat = self._flat_items()
        if flat:
            widths = {
                c: max(len(c), *(len(_cell(r.get(c, ""))) for r in flat))
                for c in columns
            }
            lines.append("")
            lines.append("  ".join(c.ljust(widths[c]) for c in columns))
            for row in flat:
                lines.append(
                    "  ".join(_cell(row.get(c, "")).ljust(widths[c]) for c in columns)
                )
        lines.append("")
        lines.append(
            f"checked {self.checked}  failed {self.failed}  skipped {self.skipped}"
        )
        for ce in self.counterexamples:
            lines.append(f"COUNTEREXAMPLE: {json.dumps(ce, ensure_ascii=False)}")
        return "\n".join(lines) + "\n"


def _cell(value) -> str:
    if value is True:
        return "ok"
    if value is False:
        return "FAIL"
    if value is None:
        return ""
    return str(value)
