"""Fault-injecting chaos harness for the resilience subsystem.

Nothing here runs unless explicitly armed (``--chaos`` / tests / the CI
chaos-smoke job).  When armed, a :class:`ChaosInjector` rides inside
each simulation worker and misbehaves on a *seeded* schedule:

* ``kill`` — hard-exit the worker mid-measurement (``os._exit``, the
  moral equivalent of SIGKILL: no cleanup, no atexit, no flush);
* ``hang`` — stop making progress long enough to trip the fleet's
  per-point timeout;
* ``delay`` — small sleeps that shuffle completion order;
* ``corrupt`` — flip bytes in the checkpoint file just written, proving
  the loader's checksum catches it and recovery falls back cleanly.

Faults only fire while ``attempt <= max_faults_per_point``, so a chaos
run always terminates: retries eventually execute clean.  Every
decision draws from ``random.Random(hash of (seed, key, attempt))``,
so a chaos run is exactly reproducible from its seed — a failing CI
chaos-smoke can be replayed locally byte for byte.

The parent-side fault is ``abort_after``: the fleet abandons the run
(as if the orchestrating process died) after that many points finish,
which is how the tests produce a half-done run directory for
``--resume`` to repair.
"""

from __future__ import annotations

import hashlib
import os
import random
import time
from dataclasses import dataclass
from typing import Optional


@dataclass(frozen=True)
class ChaosConfig:
    """Parsed, picklable chaos schedule shared with every worker."""

    seed: int = 0
    kill: float = 0.0           # P(hard-exit) per checkpoint boundary
    hang: float = 0.0           # P(sleep past the point timeout)
    delay: float = 0.0          # P(short sleep) per boundary
    corrupt: float = 0.0        # P(corrupt the checkpoint just written)
    hang_s: float = 30.0
    delay_s: float = 0.01
    max_faults_per_point: int = 2
    abort_after: Optional[int] = None  # parent abandons run after N points

    @classmethod
    def parse(cls, spec: str) -> "ChaosConfig":
        """Parse ``"kill=0.3,corrupt=0.2,seed=7"``-style CLI specs.

        Keys are the dataclass fields; bare probabilities accept floats,
        ``seed``/``max_faults_per_point``/``abort_after`` ints.
        """
        if not spec:
            return cls()
        fields = {}
        for part in spec.split(","):
            part = part.strip()
            if not part:
                continue
            if "=" not in part:
                raise ValueError(
                    f"chaos spec entry {part!r} is not key=value")
            key, _, value = part.partition("=")
            key = key.strip()
            if key not in cls.__dataclass_fields__:
                raise ValueError(f"unknown chaos parameter {key!r}")
            if key in ("seed", "max_faults_per_point", "abort_after"):
                fields[key] = int(value)
            else:
                fields[key] = float(value)
        return cls(**fields)

    def armed(self) -> bool:
        return bool(self.kill or self.hang or self.delay or self.corrupt
                    or self.abort_after is not None)


def _rng_for(config: ChaosConfig, key: str, attempt: int) -> random.Random:
    digest = hashlib.sha256(
        f"{config.seed}:{key}:{attempt}".encode()
    ).digest()
    return random.Random(int.from_bytes(digest[:8], "big"))


class ChaosInjector:
    """Worker-side fault source, consulted at checkpoint boundaries.

    Constructed inside the worker process from the shared
    :class:`ChaosConfig` plus the point's identity — the (seed, key,
    attempt) triple fully determines every fault, so attempt 1 of a
    point misbehaves identically no matter which host runs it.
    """

    def __init__(self, config: ChaosConfig, key: str, attempt: int) -> None:
        self.config = config
        self.key = key
        self.attempt = attempt
        self._rng = _rng_for(config, key, attempt)
        self._armed = attempt <= config.max_faults_per_point

    def at_boundary(self, cycle: int) -> None:
        """Called by the Checkpointer at every chunk boundary."""
        if not self._armed:
            return
        cfg = self.config
        roll = self._rng.random
        if cfg.kill and roll() < cfg.kill:
            # A real crash: bypass finally blocks, atexit, and buffers.
            os._exit(137)
        if cfg.hang and roll() < cfg.hang:
            time.sleep(cfg.hang_s)
        if cfg.delay and roll() < cfg.delay:
            time.sleep(cfg.delay_s)

    def maybe_corrupt(self, path) -> None:
        """Called after a checkpoint lands on disk; maybe vandalize it."""
        if not self._armed or not self.config.corrupt:
            return
        if self._rng.random() >= self.config.corrupt:
            return
        corrupt_file(path, self._rng)


def corrupt_file(path, rng: random.Random) -> None:
    """Flip a handful of payload bytes (or truncate) in place.

    Used by the injector and directly by tests; every mutation must be
    *detected* by checkpoint loading, never silently resumed from.
    """
    try:
        size = os.path.getsize(path)
    except OSError:
        return
    with open(path, "r+b") as fh:
        if size > 128 and rng.random() < 0.5:
            fh.truncate(rng.randrange(size // 2, size - 1))
            return
        # Distinct offsets: flipping one byte twice would restore it.
        for offset in rng.sample(range(size), min(rng.randrange(1, 4), size)):
            fh.seek(offset)
            byte = fh.read(1)
            fh.seek(offset)
            fh.write(bytes([byte[0] ^ 0xFF]))
