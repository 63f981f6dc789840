"""Experiment reports, the run provenance embedded in each, and their CSV form.

:class:`ExperimentReport` is what every experiment returns; the CLI
attaches the run manifest (a plain dict from :func:`build_manifest`) and
writes the report as JSON or CSV.
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
    writer = csv.DictWriter(buf, fieldnames=list(columns), lineterminator="\n")
    writer.writeheader()
    for row in rows:
        writer.writerow({k: row.get(k) for k in columns})
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

    def to_json(self) -> str:
        fields = ("kind", "params", "master_seed", "summary", "trials", "manifest")
        return json.dumps({k: getattr(self, k) for k in fields}, sort_keys=True, indent=2) + "\n"

    def to_csv(self) -> str:
        return csv_text(self.trials, self.columns)


def config_digest(config: dict, provenance: dict, master_seed, tool_version: str) -> str:
    payload = json.dumps(
        {"config": config, "provenance": provenance,
         "master_seed": master_seed, "tool_version": tool_version},
        sort_keys=True, default=str,
    )
    return hashlib.sha256(payload.encode()).hexdigest()


def build_manifest(command_line: str, config: dict, provenance: dict,
                   master_seed, tool_version: str) -> dict:
    """The run manifest embedded in a report, as a JSON-ready dict."""
    return {
        "command_line": command_line,
        "config_digest": config_digest(config, provenance, master_seed, tool_version),
        "dictionary_provenance": provenance,
        "master_seed": master_seed,
        "tool_version": tool_version,
        "timestamp": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
    }
