"""Run manifests: the provenance record attached to every result.

A :class:`RunManifest` pins down everything needed to reproduce (or
distrust) a result: the configuration content hash, the workload seeds,
the repository revision, which simulation kernel ran, how the result
cache behaved, and how long the run took.  The experiment runner
attaches one to every ``ExperimentResult`` and can write it alongside
the output; the simulation CLI prints/writes one on ``--manifest``.

:func:`write_document` is the one writer of the JSON documents that
land beside a result: the manifest, every view document and report
card, the spans and the alerts.
"""

from __future__ import annotations

import hashlib
import json
import os
import subprocess
import sys
import time
from dataclasses import asdict, dataclass, field
from typing import Dict, Optional, Tuple


def write_document(path, document, default=None) -> None:
    """Write ``document`` to ``path`` (``"-"`` prints it) as JSON with a
    two-space indent and a trailing newline.

    ``default`` is :func:`json.dumps`'s fallback for values JSON cannot
    hold; only the manifest passes one, so a stray value in a view
    document fails loudly.
    """
    text = json.dumps(document, indent=2, default=default) + "\n"
    if str(path) == "-":
        sys.stdout.write(text)
        return
    with open(path, "w", encoding="utf-8") as handle:
        handle.write(text)


def config_hash(config) -> str:
    """Content hash of a configuration object.

    Configs are plain nested dataclasses with value-complete ``repr``s,
    which makes ``repr`` a deterministic serialization.
    """
    return hashlib.sha256(repr(config).encode()).hexdigest()[:16]


def git_sha() -> str:
    """HEAD revision of the repository this module runs from."""
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"],
            cwd=os.path.dirname(os.path.abspath(__file__)),
            capture_output=True, text=True, timeout=5,
        )
        if out.returncode == 0:
            return out.stdout.strip()
    except (OSError, subprocess.SubprocessError):
        pass
    return "unknown"


@dataclass
class RunManifest:
    """Provenance for one simulation or experiment run."""

    config_hash: str = ""
    git_sha: str = ""
    kernel: str = ""
    seeds: Tuple[int, ...] = ()
    cache: Dict[str, int] = field(default_factory=dict)
    wall_time_s: float = 0.0
    created_unix: float = 0.0
    extra: Dict[str, object] = field(default_factory=dict)

    @classmethod
    def collect(
        cls,
        config=None,
        kernel: str = "",
        seeds: Tuple[int, ...] = (),
        cache: Optional[Dict[str, int]] = None,
        wall_time_s: float = 0.0,
        **extra,
    ) -> "RunManifest":
        """Build a manifest, filling in revision and timestamp."""
        return cls(
            config_hash=config_hash(config) if config is not None else "",
            git_sha=git_sha(),
            kernel=kernel,
            seeds=tuple(seeds),
            cache=dict(cache) if cache else {},
            wall_time_s=wall_time_s,
            created_unix=time.time(),
            extra=extra,
        )

    def to_dict(self) -> Dict:
        return asdict(self)

    def write(self, path) -> None:
        write_document(path, self.to_dict(), default=repr)
