"""Content addressing: a canonical key per (config, metrics, seed) cell.

The key is what makes the store *content*-addressed rather than
label-addressed: two grids that happen to enumerate the same cell — the
same JSON-round-tripped config, the same metric list, the same seed — hit
the same entry, whatever they called it.  The hash covers a canonical JSON
encoding (sorted keys, no whitespace) of the config's ``to_dict()`` form
plus its type name, the metric names, the seed, and the store schema
version, so a schema bump naturally invalidates every old key.
"""

from __future__ import annotations

import hashlib
import json
import pathlib
from typing import Any, Mapping, Sequence

from ..errors import ConfigurationError

#: Bump when the blob payload layout, the key derivation or the physics
#: behind cached metrics changes; old entries then read as version
#: mismatches and are recomputed (or GC'd).  2: host-tier cells are billed
#: at interval boundaries, not folded at every scheduler tick.
STORE_SCHEMA_VERSION = 2


def canonical_json(value: Any) -> str:
    """The one true JSON encoding: sorted keys, compact separators."""
    return json.dumps(value, sort_keys=True, separators=(",", ":"))


def _digest_file(path: str) -> str:
    try:
        return hashlib.sha256(pathlib.Path(path).read_bytes()).hexdigest()
    except OSError:
        return "unreadable"


def _file_fingerprints(spec: Any, out: dict[str, str]) -> None:
    """Collect content digests of every file a spec references by path.

    Specs may point outside themselves (``trace_file`` CSVs); the path
    string alone would let an edited file serve stale cached results, so
    the referenced *bytes* join the identity.  Unreadable files hash to a
    sentinel — the cell then misses the cache and fails loudly at build
    time instead of silently reusing whatever the old file produced.
    """
    if isinstance(spec, Mapping):
        for key, value in spec.items():
            if key == "trace_file" and isinstance(value, str):
                out[value] = _digest_file(value)
            else:
                _file_fingerprints(value, out)
    elif isinstance(spec, (list, tuple)):
        for item in spec:
            _file_fingerprints(item, out)


def config_payload(config: Any) -> dict[str, Any]:
    """A config's hashable identity: type name, spec dict, referenced files."""
    to_dict = getattr(config, "to_dict", None)
    if not callable(to_dict):
        raise ConfigurationError(
            f"{type(config).__name__} is not storable: it has no to_dict() "
            "(the store keys cells by their JSON-round-tripped config)"
        )
    payload: dict[str, Any] = {"type": type(config).__name__, "spec": to_dict()}
    files: dict[str, str] = {}
    _file_fingerprints(payload["spec"], files)
    if files:
        payload["files"] = files
    return payload


def metric_names(metrics: Sequence[Any]) -> list[str]:
    """Validate that every metric is addressable by name (hashable)."""
    names = []
    for metric in metrics:
        if not isinstance(metric, str):
            raise ConfigurationError(
                f"the store needs named metrics to key cells; got "
                f"{getattr(metric, '__name__', metric)!r} — register the "
                "callable in repro.sweep.metrics.METRICS and pass its name"
            )
        names.append(metric)
    return names


def cell_key(config: Any, metrics: Sequence[str], seed: int | None) -> str:
    """The content address of one cell (sha256 hex digest).

    Raises :class:`~repro.errors.ConfigurationError` when the config cannot
    be serialised (no ``to_dict``, or a spec field that JSON cannot encode).
    """
    identity = {
        "schema": STORE_SCHEMA_VERSION,
        "config": config_payload(config),
        "metrics": metric_names(metrics),
        "seed": seed,
    }
    try:
        encoded = canonical_json(identity)
    except (TypeError, ValueError) as error:
        raise ConfigurationError(
            f"cell config {type(config).__name__} is not JSON-serialisable: {error}"
        ) from None
    return hashlib.sha256(encoded.encode("utf-8")).hexdigest()
