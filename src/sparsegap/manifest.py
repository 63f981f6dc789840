"""Experiment reports, the run provenance embedded in each, and their CSV form.

:class:`ExperimentReport` is what every experiment returns; the CLI
attaches the run manifest (a plain dict from :func:`build_manifest`) and
writes the report as JSON (``indent=2`` bytes, the rows C-encoded) or CSV.
:func:`csv_text` writes the report rows and the ``bounds`` table alike.

The manifest digest covers the resolved inputs that determine the
numbers: the validated config with flag overrides applied, the dictionary
provenance, the master seed and the tool version.  The command line and
the timestamp are recorded next to it but not hashed, so two runs that
differ only in where they write (``--out``) or when they ran share a
digest.
"""

from __future__ import annotations

import csv
import hashlib
import io
import json
import time
from dataclasses import dataclass
from typing import Optional


def csv_text(rows: list[dict], columns) -> str:
    """CSV with a header of ``columns`` and one line per row (missing keys empty)."""
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(columns)
    writer.writerows([row.get(k) for k in columns] for row in rows)
    return buf.getvalue()


@dataclass
class ExperimentReport:
    """One experiment run: configuration, per-trial rows, summary, provenance."""

    kind: str
    params: dict
    master_seed: int
    columns: tuple[str, ...]
    trials: list
    summary: dict
    manifest: Optional[dict] = None
    failed: bool = False  # the run broke an invariant it checks (exit status 1); not serialised

    def to_json(self) -> str:
        """The bytes of json.dumps(sort_keys=True, indent=2), with the rows in one C-encoder call.

        Its item separator is a row key's newline and indent; row boundaries are then indented.
        Exact as "trials" sorts last, rows are flat dicts of scalars and strings hold no raw newline.
        """
        fields = ("kind", "params", "master_seed", "summary", "manifest")
        head = json.dumps({**{k: getattr(self, k) for k in fields}, "trials": []}, sort_keys=True, indent=2)
        rows = json.dumps(self.trials, sort_keys=True, separators=(",\n      ", ": "))[2:-2]
        rows = "[\n    {\n      " + rows.replace("},\n      {", "\n    },\n    {\n      ") + "\n    }\n  ]"
        return head[:-len("[]\n}")] + (rows if self.trials else "[]") + "\n}\n"

    def to_csv(self) -> str:
        return csv_text(self.trials, self.columns)


def build_manifest(command_line: str, config: dict, provenance: dict,
                   master_seed, tool_version: str) -> dict:
    """The run manifest embedded in a report, as a JSON-ready dict."""
    digested = {"config": config, "provenance": provenance, "master_seed": master_seed, "tool_version": tool_version}
    return {
        "command_line": command_line,
        "config_digest": hashlib.sha256(json.dumps(digested, sort_keys=True, default=str).encode()).hexdigest(),
        "dictionary_provenance": provenance,
        "master_seed": master_seed,
        "tool_version": tool_version,
        "timestamp": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
    }
