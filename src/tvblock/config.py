"""Global configuration: one JSON file, every field overridable by a flag.

The file's keys are the ones GLOBAL_KEYS and SINKHOLE_KEYS state, each with
its JSON type and its default. Unknown keys are rejected to catch typos, and
so is a value whose JSON type is not its key's. Paths are resolved relative
to the config file's directory so a config can travel with its data.
"""

from __future__ import annotations

import os
from typing import Optional

from .blocklists import MATCH_MODES
from .text import decode_json

BLOCKING_MODES = ("null", "nxdomain")


def _is(kind: type):
    return lambda value: type(value) is kind  # so a bool is no int


def _or_null(test):
    return lambda value: value is None or test(value)


def _strings(value) -> bool:
    return isinstance(value, list) and all(type(item) is str for item in value)


def _lists_by_name(value) -> bool:
    return isinstance(value, dict) and all(_strings(paths) for paths in value.values())


_STR = ("str", _is(str))
_OPTIONAL_STR = ("Optional[str]", _or_null(_is(str)))
_OPTIONAL_STRINGS = ("Optional[list[str]]", _or_null(_strings))
_INT = ("int", _is(int))
_BOOL = ("bool", _is(bool))
_MATCH_MODE = ("Literal['exact', 'suffix']", _is(str))  # the value is validate()'s to check
_LISTS_BY_NAME = ("dict[str, list[str]]", _lists_by_name)

# key: (its type as an error message names it, the test of a JSON value, its
# default). A callable default is called for each new config, so no two
# share a dict.
GLOBAL_KEYS = {
    "psl_path": (*_OPTIONAL_STR, None),
    "psl_icann_only": (*_BOOL, False),
    "lists": (*_LISTS_BY_NAME, dict),
    "match_mode": (*_MATCH_MODE, "exact"),
    "platform_markers": (*_LISTS_BY_NAME, dict),
    "stop_tokens": (*_OPTIONAL_STRINGS, None),
    "pii_spec_path": (*_OPTIONAL_STR, None),
    "org_esld_path": (*_OPTIONAL_STR, None),
    "org_parent_path": (*_OPTIONAL_STR, None),
    "ats_labels_path": (*_OPTIONAL_STR, None),
    "platform_processes_path": (*_OPTIONAL_STR, None),
    "keywords": (*_OPTIONAL_STRINGS, None),
    "max_bucket": (*_INT, 8),
    "flow_weighted": (*_BOOL, False),
    "output_dir": (*_STR, "out"),
}
# The ``sinkhole`` section. Its match_mode is the top-level one, which
# cmd_serve copies in, so a file may not set it here.
SINKHOLE_KEYS = {
    "listen_address": (*_STR, "0.0.0.0:53"),
    "upstream_resolver": (*_STR, "1.1.1.1:53"),
    "active_lists": ("tuple[str, ...]", _strings, ()),  # a JSON array, kept as a tuple
    "match_mode": GLOBAL_KEYS["match_mode"],
    "blocking_mode": (*_STR, "null"),
    "blocked_ttl": (*_INT, 2),
    "upstream_timeout_ms": (*_INT, 2000),
    "query_log_path": (*_OPTIONAL_STR, None),
    "stats_address": (*_OPTIONAL_STR, None),
}


def _set_keys(config, table: dict, values: dict) -> None:
    """Set each of ``table``'s keys on ``config``: its value, else its default."""
    unexpected = set(values) - set(table)
    if unexpected:
        raise TypeError(f"unexpected config keys: {sorted(unexpected)}")
    for key, (_, _, default) in table.items():
        if key in values:
            setattr(config, key, values[key])
        else:
            setattr(config, key, default() if callable(default) else default)


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


class SinkholeConfig:
    """The ``sinkhole`` section of the config. It lives here, not in
    ``sinkhole``, so loading a config imports no socket or thread code."""

    __slots__ = tuple(SINKHOLE_KEYS)

    def __init__(self, **values) -> None:
        _set_keys(self, SINKHOLE_KEYS, values)

    def validate(self) -> None:
        if not 0 <= self.blocked_ttl <= 2**31 - 1:  # RFC 2181 section 8
            raise ValueError("blocked_ttl must be >= 0 and <= 2147483647")
        if self.upstream_timeout_ms < 1:
            raise ValueError("upstream_timeout_ms must be >= 1")
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


class GlobalConfig:
    __slots__ = (*GLOBAL_KEYS, "sinkhole")

    def __init__(self, sinkhole: Optional[SinkholeConfig] = None, **values) -> None:
        _set_keys(self, GLOBAL_KEYS, values)
        self.sinkhole = sinkhole or SinkholeConfig()

    def validate(self) -> None:
        _check_match_mode(self.match_mode)
        if self.max_bucket < 1:
            raise ValueError(f"max_bucket must be >= 1, got {self.max_bucket}")


def load_config(path: str) -> GlobalConfig:
    with open(path, encoding="utf-8-sig") as fh:
        obj = decode_json(fh.read())
    if not isinstance(obj, dict):
        raise ValueError("config must be a JSON object")
    base = os.path.dirname(os.path.abspath(path))
    unknown = set(obj) - set(GLOBAL_KEYS) - {"sinkhole"}
    if unknown:
        raise ValueError(f"unknown config keys: {sorted(unknown)}")

    sink_obj = obj.pop("sinkhole", {})
    if not isinstance(sink_obj, dict):
        raise ValueError("sinkhole section must be an object")
    # The top-level match_mode is the sinkhole's too: there is no second one.
    sink_unknown = set(sink_obj) - (set(SINKHOLE_KEYS) - {"match_mode"})
    if sink_unknown:
        raise ValueError(f"unknown sinkhole config keys: {sorted(sink_unknown)}")
    _check_types(SINKHOLE_KEYS, sink_obj, "sinkhole.")
    _check_types(GLOBAL_KEYS, obj, "")
    if "active_lists" in sink_obj:
        sink_obj["active_lists"] = tuple(sink_obj["active_lists"])
    sinkhole = SinkholeConfig(**sink_obj)

    cfg = GlobalConfig(sinkhole=sinkhole, **obj)
    _resolve_paths(cfg, base)
    return cfg


def _check_types(table: dict, obj: dict, prefix: str) -> None:
    """Reject a config value whose JSON type is not its key's."""
    for key, value in obj.items():
        name, conforms, _ = table[key]
        if not conforms(value):
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
    with open(path, encoding="utf-8-sig") as fh:
        obj = decode_json(fh.read())
    if not _lists_by_name(obj):
        raise ValueError("lists manifest must map list names to arrays of paths")
    base = os.path.dirname(os.path.abspath(path))
    return {name: [_resolve(base, p) for p in paths] for name, paths in obj.items()}
