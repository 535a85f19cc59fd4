"""Hash-seed-independent SHA-256 digests of run fingerprints.

The golden-pin tests (``tests/fleet/test_serial_digests.py``,
``tests/core/test_pass_digests.py``) hash a run's observable output and
compare it with a digest recorded before a refactor. The fingerprint is
canonicalized before hashing — dict keys and set members are sorted by
their canonical JSON, floats are written with ``repr`` (exact round
trip), enums by name — so the digests do not depend on
``PYTHONHASHSEED``.
"""

from __future__ import annotations

import dataclasses
import enum
import hashlib
import json

import numpy as np


def canonical(value):
    """A JSON-ready form of ``value`` that is independent of hash order."""
    if isinstance(value, enum.Enum):
        return ["enum", type(value).__name__, value.name]
    if dataclasses.is_dataclass(value) and not isinstance(value, type):
        return [
            type(value).__name__,
            [
                [f.name, canonical(getattr(value, f.name))]
                for f in dataclasses.fields(value)
                if f.compare
            ],
        ]
    if isinstance(value, dict):
        items = [[canonical(k), canonical(v)] for k, v in value.items()]
        return ["dict", sorted(items, key=dumps)]
    if isinstance(value, (set, frozenset)):
        return ["set", sorted((canonical(v) for v in value), key=dumps)]
    if isinstance(value, (list, tuple)):
        return [canonical(v) for v in value]
    if isinstance(value, np.generic):
        return canonical(value.item())
    if isinstance(value, float):
        return ["float", repr(value)]
    if value is None or isinstance(value, (bool, int, str)):
        return value
    raise TypeError(f"no canonical form for {type(value).__name__}")


def dumps(value) -> str:
    return json.dumps(value, separators=(",", ":"))


def digest(fingerprint) -> str:
    """SHA-256 hex digest of ``fingerprint``'s canonical form."""
    return hashlib.sha256(dumps(canonical(fingerprint)).encode()).hexdigest()
