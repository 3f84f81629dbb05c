"""DDL for regions: ``CREATE REGION`` / ``DROP REGION``.

Parses the statement form introduced in the paper's Section 2::

    CREATE REGION rgHotTbl (MAX_CHIPS=8, MAX_CHANNELS=4, MAX_SIZE=1280M);

plus reproduction extensions that keep the experiments scriptable::

    CREATE REGION rgHot (DIES=8, GC_POLICY=COST_BENEFIT, MAX_SIZE=64M);
    DROP REGION rgHot;

The table/tablespace DDL lives in :mod:`repro.db.ddl`; it delegates region
statements here so there is a single grammar for them.
"""

from __future__ import annotations

import re
from dataclasses import dataclass

from repro.core.region import RegionConfig, RegionError
from repro.policies import available_gc_policies

_SIZE_SUFFIXES = {"K": 1024, "M": 1024**2, "G": 1024**3}

_CREATE_RE = re.compile(
    r"^\s*CREATE\s+REGION\s+(?P<name>\w+)\s*(?:\(\s*(?P<params>.*?)\s*\))?\s*;?\s*$",
    re.IGNORECASE | re.DOTALL,
)
_DROP_RE = re.compile(
    r"^\s*DROP\s+REGION\s+(?P<name>\w+)\s*(?P<force>FORCE)?\s*;?\s*$",
    re.IGNORECASE,
)


@dataclass(frozen=True)
class CreateRegionStatement:
    """Parsed ``CREATE REGION``: the config plus the optional DIES count."""

    config: RegionConfig
    num_dies: int | None = None


@dataclass(frozen=True)
class DropRegionStatement:
    """Parsed ``DROP REGION``."""

    name: str
    force: bool = False


def parse_size(text: str) -> int:
    """Parse ``1280M`` / ``128K`` / ``2G`` / ``4096`` into bytes."""
    match = re.fullmatch(r"(\d+)\s*([KMG])?", text.strip(), re.IGNORECASE)
    if not match:
        raise RegionError(f"invalid size literal {text!r}")
    value = int(match.group(1))
    suffix = (match.group(2) or "").upper()
    return value * _SIZE_SUFFIXES.get(suffix, 1)


def _split_params(params: str) -> dict[str, str]:
    result: dict[str, str] = {}
    if not params:
        return result
    for part in params.split(","):
        part = part.strip()
        if not part:
            continue
        if "=" not in part:
            raise RegionError(f"malformed region parameter {part!r} (expected KEY=VALUE)")
        key, value = part.split("=", 1)
        result[key.strip().upper()] = value.strip()
    return result


def parse_create_region(sql: str) -> CreateRegionStatement:
    """Parse a ``CREATE REGION`` statement into a :class:`RegionConfig`.

    Recognised parameters (all optional): ``MAX_CHIPS``, ``MAX_CHANNELS``,
    ``MAX_SIZE``, ``DIES``, ``GC_POLICY`` (``GREEDY`` or ``COST_BENEFIT``),
    ``WEAR_LEVEL_THRESHOLD``, ``READ_DISTURB_THRESHOLD``.  An unknown
    parameter, a non-integer count or threshold and an unknown policy name
    each raise :class:`RegionError` naming the parameter.
    """
    match = _CREATE_RE.match(sql)
    if not match:
        raise RegionError(f"not a CREATE REGION statement: {sql!r}")
    params = _split_params(match.group("params") or "")
    known = {
        "MAX_CHIPS",
        "MAX_CHANNELS",
        "MAX_SIZE",
        "DIES",
        "GC_POLICY",
        "WEAR_LEVEL_THRESHOLD",
        "READ_DISTURB_THRESHOLD",
    }
    unknown = set(params) - known
    if unknown:
        raise RegionError(f"unknown region parameters: {sorted(unknown)}")

    def int_param(key: str) -> int | None:
        if key not in params:
            return None
        try:
            return int(params[key])
        except ValueError:
            raise RegionError(
                f"region parameter {key} must be an integer, got {params[key]!r}"
            ) from None

    gc_policy = params.get("GC_POLICY", "greedy").lower()
    if gc_policy not in available_gc_policies():
        raise RegionError(
            f"region parameter GC_POLICY={params['GC_POLICY']!r} names no policy; "
            f"expected one of {available_gc_policies()}"
        )

    config = RegionConfig(
        name=match.group("name"),
        max_chips=int_param("MAX_CHIPS"),
        max_channels=int_param("MAX_CHANNELS"),
        max_size_bytes=parse_size(params["MAX_SIZE"]) if "MAX_SIZE" in params else None,
        gc_policy=gc_policy,
        wear_level_threshold=int_param("WEAR_LEVEL_THRESHOLD"),
        read_disturb_threshold=int_param("READ_DISTURB_THRESHOLD"),
    )
    return CreateRegionStatement(config=config, num_dies=int_param("DIES"))


def parse_drop_region(sql: str) -> DropRegionStatement:
    """Parse a ``DROP REGION name [FORCE]`` statement."""
    match = _DROP_RE.match(sql)
    if not match:
        raise RegionError(f"not a DROP REGION statement: {sql!r}")
    return DropRegionStatement(name=match.group("name"), force=bool(match.group("force")))


def is_region_statement(sql: str) -> bool:
    """Whether ``sql`` is a region DDL statement (create or drop)."""
    upper = sql.lstrip().upper()
    return upper.startswith("CREATE REGION") or upper.startswith("DROP REGION")
