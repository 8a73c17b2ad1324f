"""Deterministic perturbation models for simulated hosts.

The paper's measured runs deviate from the pure linear model for two
reasons it names explicitly: ordinary OS/network jitter, and "a peak load
on sekhmet during the experiment" (§5.2).  These models reproduce both
effects deterministically, so experiments remain repeatable:

* :class:`NoNoise` — the pure model;
* :class:`JitterNoise` — a stable pseudo-random slowdown per (host, time
  bucket), derived from a seeded hash, multiplying durations by a factor
  in ``[1, 1 + amplitude]``;
* :class:`SpikeNoise` — a fixed slowdown on one host during one interval
  (the *sekhmet* artifact);
* :class:`CompositeNoise` — product of other models.

A noise model maps ``(host name, start time) -> multiplicative factor``
applied to compute durations.  Factors are always ``>= 1`` — contention
only ever slows a host down.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

__all__ = [
    "NoiseModel",
    "NoNoise",
    "JitterNoise",
    "SpikeNoise",
    "CompositeNoise",
    "seeded_unit",
]


def seeded_unit(seed: int, *parts: object) -> float:
    """Deterministic uniform draw in ``[0, 1)`` from a seeded hash.

    ``sha256(f"{seed}:{part1}:{part2}:...")`` mapped to ``[0, 1)`` — the
    same stable scheme :class:`JitterNoise` uses for compute jitter; the
    fault layer reuses it for retry-backoff jitter so fault-tolerant runs
    stay bit-identical across repeats.
    """
    import hashlib  # here, not at module level: it loads OpenSSL (~3.5 MiB)

    key = ":".join(str(p) for p in (seed, *parts)).encode()
    digest = hashlib.sha256(key).digest()
    return int.from_bytes(digest[:8], "big") / 2**64


class NoiseModel:
    """Base: multiplicative slowdown factor for a host at a given time."""

    def factor(self, host: str, time: float) -> float:
        raise NotImplementedError


class NoNoise(NoiseModel):
    """The deterministic pure-model baseline (factor 1 everywhere)."""

    def factor(self, host: str, time: float) -> float:
        return 1.0

    def __repr__(self) -> str:
        return "NoNoise()"


@dataclass(frozen=True)
class JitterNoise(NoiseModel):
    """Stable pseudo-random jitter.

    The time axis is cut into ``bucket`` second slices; within a slice the
    factor for a host is constant and derived from
    ``sha256(seed, host, slice index)``, uniform in ``[1, 1 + amplitude]``.
    Deterministic across runs and platforms (no RNG state involved).
    """

    seed: int = 0
    amplitude: float = 0.05
    bucket: float = 60.0

    def factor(self, host: str, time: float) -> float:
        if self.amplitude < 0:
            raise ValueError("amplitude must be >= 0")
        idx = int(time // self.bucket) if self.bucket > 0 else 0
        return 1.0 + self.amplitude * seeded_unit(self.seed, host, idx)

    def __repr__(self) -> str:
        return f"JitterNoise(seed={self.seed}, amplitude={self.amplitude})"


@dataclass(frozen=True)
class SpikeNoise(NoiseModel):
    """A load spike: ``host`` runs ``slowdown``× slower during the window."""

    host: str
    start: float
    end: float
    slowdown: float = 2.0

    def __post_init__(self) -> None:
        if self.slowdown < 1:
            raise ValueError("slowdown must be >= 1")
        if self.end <= self.start:
            raise ValueError("spike window must have end > start")

    def factor(self, host: str, time: float) -> float:
        if host == self.host and self.start <= time < self.end:
            return self.slowdown
        return 1.0


class CompositeNoise(NoiseModel):
    """Product of several noise models."""

    def __init__(self, models: Sequence[NoiseModel]):
        self.models = tuple(models)

    def factor(self, host: str, time: float) -> float:
        out = 1.0
        for m in self.models:
            out *= m.factor(host, time)
        return out

    def __repr__(self) -> str:
        return f"CompositeNoise({list(self.models)!r})"
