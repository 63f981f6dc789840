"""Experiment reports, the run provenance embedded in each, and their CSV form.

:class:`ExperimentReport` is what every experiment returns; the CLI
attaches a :class:`RunManifest` and writes the report as JSON or CSV.
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
from dataclasses import asdict, dataclass, field
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
    trials: list = field(default_factory=list)
    summary: dict = field(default_factory=dict)
    manifest: Optional[dict] = None

    def to_dict(self) -> dict:
        return {
            "kind": self.kind,
            "params": self.params,
            "master_seed": self.master_seed,
            "summary": self.summary,
            "trials": self.trials,
            "manifest": self.manifest,
        }

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), sort_keys=True, indent=2) + "\n"

    def to_csv(self) -> str:
        return csv_text(self.trials, self.columns)


@dataclass(frozen=True)
class RunManifest:
    command_line: str
    config_digest: str
    dictionary_provenance: dict
    master_seed: Optional[int]
    tool_version: str
    timestamp: str

    def to_dict(self) -> dict:
        return asdict(self)


def config_digest(config: dict, provenance: dict, master_seed, tool_version: str) -> str:
    payload = json.dumps(
        {"config": config, "provenance": provenance,
         "master_seed": master_seed, "tool_version": tool_version},
        sort_keys=True, default=str,
    )
    return hashlib.sha256(payload.encode()).hexdigest()


def build_manifest(command_line: str, config: dict, provenance: dict,
                   master_seed, tool_version: str) -> RunManifest:
    return RunManifest(
        command_line=command_line,
        config_digest=config_digest(config, provenance, master_seed, tool_version),
        dictionary_provenance=provenance,
        master_seed=master_seed,
        tool_version=tool_version,
        timestamp=time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
    )
