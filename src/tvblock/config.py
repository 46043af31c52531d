"""Global configuration: one JSON file, every field overridable by a flag.

The file maps directly onto GlobalConfig fields; unknown keys are rejected
to catch typos, and so is a value whose JSON type is not the one its field
declares. Paths are resolved relative to the config file's directory
so a config can travel with its data.
"""

from __future__ import annotations

import os
import typing
from dataclasses import dataclass, field, fields
from typing import Optional

from .blocklists import MATCH_MODES, MatchMode
from .text import decode_json

BLOCKING_MODES = ("null", "nxdomain")


def _check_match_mode(mode: str) -> None:
    if mode not in MATCH_MODES:
        raise ValueError(f"match_mode must be one of {MATCH_MODES}, got {mode!r}")


def parse_hostport(value: str, what: str) -> tuple[str, int]:
    """Split a HOST:PORT setting; ``what`` names it in the ValueError."""
    host, sep, port = value.rpartition(":")
    if not sep or not host:
        raise ValueError(f"{what} must be HOST:PORT, got {value!r}")
    try:
        return host, int(port)
    except ValueError as exc:
        raise ValueError(f"{what} has a non-numeric port: {value!r}") from exc


@dataclass
class SinkholeConfig:
    """The ``sinkhole`` section of the config. It lives here, not in
    ``sinkhole``, so loading a config imports no socket or thread code."""

    listen_address: str = "0.0.0.0:53"
    upstream_resolver: str = "1.1.1.1:53"
    active_lists: tuple[str, ...] = ()
    match_mode: MatchMode = "exact"
    blocking_mode: str = "null"
    blocked_ttl: int = 2
    upstream_timeout_ms: int = 2000
    query_log_path: Optional[str] = None
    stats_address: Optional[str] = None

    def validate(self) -> None:
        if self.blocked_ttl < 0:
            raise ValueError("blocked_ttl must be >= 0")
        if not self.active_lists:
            raise ValueError("at least one active list is required")
        if self.blocking_mode not in BLOCKING_MODES:
            raise ValueError(f"blocking_mode must be one of {BLOCKING_MODES}")
        _check_match_mode(self.match_mode)
        listen = parse_hostport(self.listen_address, "listen_address")
        upstream = parse_hostport(self.upstream_resolver, "upstream_resolver")
        if listen == upstream:
            raise ValueError("upstream resolver must differ from the listen address")

    @property
    def listen(self) -> tuple[str, int]:
        return parse_hostport(self.listen_address, "listen_address")

    @property
    def upstream(self) -> tuple[str, int]:
        return parse_hostport(self.upstream_resolver, "upstream_resolver")


@dataclass
class GlobalConfig:
    psl_path: Optional[str] = None
    psl_icann_only: bool = False
    lists: dict[str, list[str]] = field(default_factory=dict)
    match_mode: MatchMode = "exact"
    platform_markers: dict[str, list[str]] = field(default_factory=dict)
    stop_tokens: Optional[list[str]] = None
    pii_spec_path: Optional[str] = None
    org_esld_path: Optional[str] = None
    org_parent_path: Optional[str] = None
    ats_labels_path: Optional[str] = None
    platform_processes_path: Optional[str] = None
    keywords: Optional[list[str]] = None
    max_bucket: int = 8
    flow_weighted: bool = False
    output_dir: str = "out"
    sinkhole: SinkholeConfig = field(default_factory=SinkholeConfig)

    def validate(self) -> None:
        _check_match_mode(self.match_mode)
        if self.max_bucket < 1:
            raise ValueError(f"max_bucket must be >= 1, got {self.max_bucket}")


def load_config(path: str) -> GlobalConfig:
    with open(path, encoding="utf-8") as fh:
        obj = decode_json(fh.read())
    if not isinstance(obj, dict):
        raise ValueError("config must be a JSON object")
    base = os.path.dirname(os.path.abspath(path))
    known = {f.name for f in fields(GlobalConfig)}
    unknown = set(obj) - known
    if unknown:
        raise ValueError(f"unknown config keys: {sorted(unknown)}")

    sink_obj = obj.pop("sinkhole", {})
    if not isinstance(sink_obj, dict):
        raise ValueError("sinkhole section must be an object")
    # The top-level match_mode is the sinkhole's too: there is no second one.
    sink_known = {f.name for f in fields(SinkholeConfig)} - {"match_mode"}
    sink_unknown = set(sink_obj) - sink_known
    if sink_unknown:
        raise ValueError(f"unknown sinkhole config keys: {sorted(sink_unknown)}")
    _check_types(SinkholeConfig, sink_obj, "sinkhole.")
    _check_types(GlobalConfig, obj, "")
    if "active_lists" in sink_obj:
        sink_obj["active_lists"] = tuple(sink_obj["active_lists"])
    sinkhole = SinkholeConfig(**sink_obj)

    cfg = GlobalConfig(sinkhole=sinkhole, **obj)
    _resolve_paths(cfg, base)
    return cfg


def _conforms(value, hint) -> bool:
    """True when a JSON value has the type a field declares; a bool is no int."""
    origin, args = typing.get_origin(hint), typing.get_args(hint)
    if origin is typing.Union:
        return any(_conforms(value, arg) for arg in args)
    if origin is typing.Literal:  # the values themselves are validate()'s to check
        return any(type(value) is type(arg) for arg in args)
    if origin is dict:
        return isinstance(value, dict) and all(_conforms(v, args[1]) for v in value.values())
    if origin in (list, tuple):  # a tuple field is a JSON array
        return isinstance(value, list) and all(_conforms(v, args[0]) for v in value)
    return type(value) is hint


def _check_types(cls, obj: dict, prefix: str) -> None:
    """Reject a config value that does not conform to its dataclass field."""
    hints = typing.get_type_hints(cls)
    for key, value in obj.items():
        hint = hints[key]
        if not _conforms(value, hint):
            # By origin, not isinstance: on 3.10 dict[str, ...] is an instance of type.
            generic = typing.get_origin(hint) is not None
            name = str(hint).replace("typing.", "") if generic else hint.__name__
            raise ValueError(f"{prefix}{key} must be {name}, got {type(value).__name__}")


def _resolve(base: str, path: Optional[str]) -> Optional[str]:
    if path is None:
        return None
    return path if os.path.isabs(path) else os.path.join(base, path)


def _resolve_paths(cfg: GlobalConfig, base: str) -> None:
    cfg.psl_path = _resolve(base, cfg.psl_path)
    cfg.pii_spec_path = _resolve(base, cfg.pii_spec_path)
    cfg.org_esld_path = _resolve(base, cfg.org_esld_path)
    cfg.org_parent_path = _resolve(base, cfg.org_parent_path)
    cfg.ats_labels_path = _resolve(base, cfg.ats_labels_path)
    cfg.platform_processes_path = _resolve(base, cfg.platform_processes_path)
    cfg.lists = {
        name: [_resolve(base, p) for p in paths] for name, paths in cfg.lists.items()
    }
    if cfg.sinkhole.query_log_path:
        cfg.sinkhole.query_log_path = _resolve(base, cfg.sinkhole.query_log_path)


def load_lists_manifest(path: str) -> dict[str, list[str]]:
    """Standalone manifest file for --lists: {"PD": ["path", ...], ...}."""
    with open(path, encoding="utf-8") as fh:
        obj = decode_json(fh.read())
    if not _conforms(obj, typing.get_type_hints(GlobalConfig)["lists"]):
        raise ValueError("lists manifest must map list names to arrays of paths")
    base = os.path.dirname(os.path.abspath(path))
    return {name: [_resolve(base, p) for p in paths] for name, paths in obj.items()}
