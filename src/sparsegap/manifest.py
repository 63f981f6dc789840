"""Run provenance embedded in every emitted report.

The digest covers the resolved inputs that determine the numbers: the
validated config with flag overrides applied, the dictionary provenance,
the master seed and the tool version.  The command line and the
timestamp are recorded next to it but not hashed, so two runs that differ
only in where they write (``--out``) or when they ran share a digest.
"""

from __future__ import annotations

import hashlib
import json
import time
from dataclasses import dataclass, asdict
from typing import Optional


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
