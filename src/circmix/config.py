"""Runtime limits and their environment overrides.

Two kinds of budget guard the search code: a cap on how many homomorphisms
an enumeration may collect, and a cap on how many partial assignments an
early-exit search may visit.  Both default to values that keep worst cases
on a desktop under control; callers can pass explicit values and the CLI
reads overrides from the environment (flags win over the environment).
"""

from __future__ import annotations

import os

DEFAULT_HOM_CAP = 10_000_000
DEFAULT_NODE_CAP = 1_000_000
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
    """Maximum number of homomorphisms an enumeration may return."""
    if override is not None:
        return override
    return _env_int(ENV_CAP, DEFAULT_HOM_CAP)


def node_cap(override: int | None = None) -> int:
    """Maximum number of partial assignments an early-exit search may visit."""
    if override is not None:
        return override
    return DEFAULT_NODE_CAP


def max_vertices() -> int:
    return _env_int(ENV_MAX_VERTICES, DEFAULT_MAX_VERTICES)

