"""Runtime limits and their environment overrides.

One budget guards every search: the homomorphisms an enumeration may
collect, the partial assignments an early-exit search may visit, the nodes
of a clique search and the maps a walk may reach.  A call's own ``cap``
wins, then ``CIRCMIX_CAP``, then a default that keeps worst cases on a
desktop under control (the CLI's ``--cap`` is such a call's cap).
"""

from __future__ import annotations

import os

DEFAULT_HOM_CAP = 10_000_000
DEFAULT_MAX_VERTICES = 4096

ENV_CAP = "CIRCMIX_CAP"
ENV_MAX_VERTICES = "CIRCMIX_MAX_N"


def _env_int(name: str, fallback: int) -> int:
    raw = os.environ.get(name)
    if raw is None:
        return fallback
    try:
        value = int(raw)
    except ValueError:
        raise ValueError(f"{name} must be an integer, got {raw!r}") from None
    if value <= 0:
        raise ValueError(f"{name} must be positive, got {value}")
    return value


def hom_cap(override: int | None = None) -> int:
    """The budget of a search: ``override``, else ``CIRCMIX_CAP``, else
    10,000,000."""
    if override is not None:
        return override
    return _env_int(ENV_CAP, DEFAULT_HOM_CAP)


def max_vertices() -> int:
    return _env_int(ENV_MAX_VERTICES, DEFAULT_MAX_VERTICES)

