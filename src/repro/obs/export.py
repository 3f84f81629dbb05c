"""Exporters: one JSON serializer and the metrics-document schema.

Everything the CLI emits — ``--json``, ``--metrics-out``, ``repro
report`` — flows through :func:`dump_json` and the ``repro.obs/v1``
metrics-document envelope, so machine consumers see one stable shape
regardless of which experiment produced the numbers:

.. code-block:: json

    {
      "schema": "repro.obs/v1",
      "command": "fig3",
      "configs": {
        "<config name>": {
          "figure3":  {"host_reads": 123, ...},
          "registry": {"flash.erases": 6, "region.rgStock.host_writes": 45, ...}
        }
      }
    }

An experiment's ``registry`` section is its measured window: the
registry snapshot since the mark taken after load or preload
(:meth:`~repro.obs.registry.MetricRegistry.snapshot`), so it counts the
same I/O as the ``figure3`` / ``summary`` section beside it.
``validate_metrics_doc`` enforces the envelope and the key grammar; the
CI smoke step runs it against live ``fig3 --json`` output.
"""

from __future__ import annotations

import json
from typing import Any, TypeAlias

from repro.obs.api import ROOT_NAMESPACES, check_key

#: A JSON-object-shaped node of a metrics document: the envelope itself,
#: a config's section map, or one (possibly nested) numeric section
#: tree.  Values are ``Any`` because the shape is enforced at runtime by
#: :func:`validate_metrics_doc`, not by the type checker.
JsonDict: TypeAlias = dict[str, Any]

#: Version tag carried by every exported document.
SCHEMA_VERSION = "repro.obs/v1"


class SchemaError(ValueError):
    """An exported document does not match the ``repro.obs/v1`` schema."""


def dump_json(payload: JsonDict) -> str:
    """The one serializer behind every ``--json`` flag (stable key order)."""
    return json.dumps(payload, indent=2, sort_keys=True)


def metrics_doc(command: str, configs: dict[str, JsonDict], **extra: object) -> JsonDict:
    """Wrap per-config metric sections in the versioned envelope."""
    doc = {"schema": SCHEMA_VERSION, "command": command, "configs": configs}
    doc.update(extra)
    return doc


# ----------------------------------------------------------------------
# Validation
# ----------------------------------------------------------------------
def validate_snapshot(snapshot: JsonDict, roots: tuple[str, ...] = ROOT_NAMESPACES) -> JsonDict:
    """Check a registry snapshot: dotted keys, pinned roots, numeric values."""
    if not isinstance(snapshot, dict):
        raise SchemaError(f"snapshot must be a dict, got {type(snapshot).__name__}")
    for key, value in snapshot.items():
        check_key(key)
        root = key.split(".", 1)[0]
        if root not in roots:
            raise SchemaError(f"snapshot key {key!r} outside pinned roots {roots}")
        if not isinstance(value, (int, float)) or isinstance(value, bool):
            raise SchemaError(f"snapshot value for {key!r} is not numeric: {value!r}")
    return snapshot


def _validate_numeric_tree(node: JsonDict, path: str) -> None:
    for key, value in node.items():
        if not isinstance(key, str):
            raise SchemaError(f"non-string key under {path!r}: {key!r}")
        check_key(key)
        here = f"{path}.{key}"
        if isinstance(value, dict):
            _validate_numeric_tree(value, here)
        elif not isinstance(value, (int, float)) or isinstance(value, bool):
            raise SchemaError(f"value at {here!r} is not numeric: {value!r}")


def validate_metrics_doc(doc: JsonDict) -> JsonDict:
    """Validate a full metrics document; returns it unchanged.

    Raises :class:`SchemaError` on a wrong/missing schema tag, a malformed
    ``configs`` tree (every leaf must be numeric, every key must follow
    the dotted grammar), or ``registry`` sections whose keys leave the
    pinned namespace roots.
    """
    if not isinstance(doc, dict):
        raise SchemaError("metrics document must be a JSON object")
    if doc.get("schema") != SCHEMA_VERSION:
        raise SchemaError(
            f"unsupported schema {doc.get('schema')!r}; want {SCHEMA_VERSION!r}"
        )
    if not isinstance(doc.get("command"), str):
        raise SchemaError("metrics document needs a string 'command'")
    configs = doc.get("configs")
    if not isinstance(configs, dict) or not configs:
        raise SchemaError("metrics document needs a non-empty 'configs' object")
    for name, sections in configs.items():
        if not isinstance(sections, dict):
            raise SchemaError(f"config {name!r} must map section -> metrics")
        _validate_numeric_tree(sections, name)
        registry = sections.get("registry")
        if registry is not None:
            validate_snapshot(registry)
    return doc
