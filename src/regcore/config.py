"""The engine's one setting, carried by every ideal and module."""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class EngineConfig:
    # Largest truncation order N for k[x,y]/m^N (dimension N(N+1)/2).
    truncation_ceiling: int = 64


DEFAULT = EngineConfig()
