"""Canonical traffic data model and JSONL log ingestion.

Input logs are line-delimited JSON (one object per line). Flow records
summarize one network flow; HTTP transactions carry decrypted (or plaintext)
request details. Unknown keys in input objects are ignored so richer
captures stay loadable.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Iterable, Iterator, Optional

# Re-exported: these live in the leaf module so the list loaders need not
# load the data model below.
from .text import KNOWN_PLATFORMS, decode_json, is_ip_literal, normalize_fqdn

_PLATFORM_ALIASES = {
    "roku": "Roku",
    "firetv": "FireTV",
    "fire tv": "FireTV",
    "fire_tv": "FireTV",
    "fire-tv": "FireTV",
    "amazon firetv": "FireTV",
    "amazon fire tv": "FireTV",
    "apple": "Apple",
    "appletv": "Apple",
    "apple tv": "Apple",
    "samsung": "Samsung",
    "chromecast": "Chromecast",
    "vizio": "Vizio",
    "lg": "LG",
    "sony": "Sony",
}


@dataclass(frozen=True)
class Platform:
    """A smart-TV platform identity.

    ``name`` is one of KNOWN_PLATFORMS for recognized platforms; any other
    non-empty name is carried through as-is for unlisted platforms.
    """

    name: str

    def __post_init__(self) -> None:
        if not self.name:
            raise ValueError("platform name must be non-empty")

    @property
    def is_known(self) -> bool:
        return self.name in KNOWN_PLATFORMS

    @classmethod
    def parse(cls, raw: str) -> "Platform":
        key = raw.strip().lower()
        if not key:
            raise ValueError("platform name must be non-empty")
        return cls(_PLATFORM_ALIASES.get(key, raw.strip()))

    def __str__(self) -> str:  # pragma: no cover - convenience
        return self.name


@dataclass(frozen=True)
class FlowRecord:
    """One observed flow: who (device/app) talked to which FQDN, and when.

    ``fqdn`` must already be normalized (lowercase, no trailing dot);
    parse_flow_log() normalizes raw input before constructing records.
    ``start_time`` is UTC milliseconds since the epoch. ``app_id`` is absent
    for in-the-wild captures that lack app attribution.
    """

    device_id: str
    platform: Platform
    fqdn: str
    start_time: int
    app_id: Optional[str] = None
    developer: Optional[str] = None
    remote_ip: Optional[str] = None
    bytes_up: int = 0
    bytes_down: int = 0

    def __post_init__(self) -> None:
        if not self.fqdn:
            raise ValueError("fqdn must be non-empty")
        if self.fqdn != normalize_fqdn(self.fqdn):
            raise ValueError(f"fqdn not normalized: {self.fqdn!r}")
        if self.bytes_up < 0 or self.bytes_down < 0:
            raise ValueError("byte counts must be >= 0")
        if not isinstance(self.start_time, int):
            raise ValueError("start_time must be integer UTC milliseconds")

    @property
    def is_ip(self) -> bool:
        """True when the "fqdn" field actually holds an IP literal."""
        return is_ip_literal(self.fqdn)

    def to_json(self) -> dict:
        obj = {
            "device_id": self.device_id,
            "platform": self.platform.name,
            "fqdn": self.fqdn,
            "start_time": self.start_time,
            "bytes_up": self.bytes_up,
            "bytes_down": self.bytes_down,
        }
        if self.app_id is not None:
            obj["app_id"] = self.app_id
        if self.developer is not None:
            obj["developer"] = self.developer
        if self.remote_ip is not None:
            obj["remote_ip"] = self.remote_ip
        return obj

    @classmethod
    def from_json(cls, obj: dict) -> "FlowRecord":
        return cls(
            device_id=_require_str(obj, "device_id"),
            platform=Platform.parse(_require_str(obj, "platform")),
            fqdn=normalize_fqdn(_require_str(obj, "fqdn")),
            start_time=_require_int(obj, "start_time"),
            app_id=_optional_str(obj, "app_id"),
            developer=_optional_str(obj, "developer"),
            remote_ip=_optional_str(obj, "remote_ip"),
            bytes_up=_optional_int(obj, "bytes_up", 0),
            bytes_down=_optional_int(obj, "bytes_down", 0),
        )


@dataclass(frozen=True)
class HttpTransaction:
    """One HTTP request, possibly recovered from a decrypted flow.

    Header names are preserved verbatim; lookups compare case-insensitively.
    ``uri`` is the request path plus query string and must start with "/".
    ``body`` is optional: most captures are header-level only.
    """

    app_id: str
    platform: Platform
    fqdn: str
    method: str
    uri: str
    headers: tuple[tuple[str, str], ...]
    was_encrypted: bool
    timestamp: int
    developer: Optional[str] = None
    body: Optional[str] = None

    def __post_init__(self) -> None:
        if not self.method:
            raise ValueError("method must be non-empty")
        if not self.uri.startswith("/"):
            raise ValueError("uri must start with '/'")
        if not self.fqdn or self.fqdn != normalize_fqdn(self.fqdn):
            raise ValueError(f"fqdn not normalized: {self.fqdn!r}")

    def header(self, name: str) -> Optional[str]:
        """First header value whose name matches case-insensitively."""
        wanted = name.lower()
        for hname, value in self.headers:
            if hname.lower() == wanted:
                return value
        return None

    @property
    def is_ip(self) -> bool:
        return is_ip_literal(self.fqdn)

    def to_json(self) -> dict:
        obj = {
            "app_id": self.app_id,
            "platform": self.platform.name,
            "fqdn": self.fqdn,
            "method": self.method,
            "uri": self.uri,
            "headers": [[n, v] for n, v in self.headers],
            "was_encrypted": self.was_encrypted,
            "timestamp": self.timestamp,
        }
        if self.developer is not None:
            obj["developer"] = self.developer
        if self.body is not None:
            obj["body"] = self.body
        return obj

    @classmethod
    def from_json(cls, obj: dict) -> "HttpTransaction":
        raw_headers = obj.get("headers", [])
        if not isinstance(raw_headers, list):
            raise ValueError("headers must be an array of [name, value] pairs")
        headers = []
        for pair in raw_headers:
            if not isinstance(pair, (list, tuple)) or len(pair) != 2:
                raise ValueError("headers must be an array of [name, value] pairs")
            headers.append((str(pair[0]), str(pair[1])))
        return cls(
            app_id=_require_str(obj, "app_id"),
            platform=Platform.parse(_require_str(obj, "platform")),
            fqdn=normalize_fqdn(_require_str(obj, "fqdn")),
            method=_require_str(obj, "method"),
            uri=_require_str(obj, "uri"),
            headers=tuple(headers),
            was_encrypted=bool(obj.get("was_encrypted", False)),
            timestamp=_require_int(obj, "timestamp"),
            developer=_optional_str(obj, "developer"),
            body=_optional_str(obj, "body"),
        )


@dataclass(frozen=True)
class MalformedLine:
    """Diagnostic for one input line that could not be parsed."""

    line_no: int
    reason: str


class LogParseError(ValueError):
    """Raised when an input stream contains lines but none of them parse."""

    def __init__(self, message: str, errors: list[MalformedLine]):
        super().__init__(message)
        self.errors = errors


@dataclass
class ParsedFlows:
    records: list[FlowRecord]
    errors: list[MalformedLine] = field(default_factory=list)


@dataclass
class ParsedHttp:
    transactions: list[HttpTransaction]
    errors: list[MalformedLine] = field(default_factory=list)


def _iter_lines(source: Iterable[str] | str) -> Iterator[str]:
    if isinstance(source, str):
        return iter(source.splitlines())
    return iter(source)


def require_field(obj: dict, key: str):
    """``obj[key]``, or a ValueError naming the missing field."""
    if key not in obj:
        raise ValueError(f"missing field '{key}'")
    return obj[key]


def _require_str(obj: dict, key: str) -> str:
    value = require_field(obj, key)
    if not isinstance(value, str) or not value:
        raise ValueError(f"field '{key}' must be a non-empty string")
    return value


def _optional_str(obj: dict, key: str) -> Optional[str]:
    value = obj.get(key)
    if value is None:
        return None
    return str(value)


def _require_int(obj: dict, key: str) -> int:
    value = require_field(obj, key)
    if isinstance(value, bool) or not isinstance(value, int):
        raise ValueError(f"field '{key}' must be an integer")
    return value


def _optional_int(obj: dict, key: str, default: int) -> int:
    value = obj.get(key, default)
    if isinstance(value, bool) or not isinstance(value, int):
        raise ValueError(f"field '{key}' must be an integer")
    return value


def iter_jsonl(source, build, what: str, errors: list[MalformedLine]) -> Iterator:
    """Yield ``build(obj)`` for each JSON object line of a JSONL source.

    The one JSON-lines loop of the package: the capture logs read through
    it directly and every side file through read_jsonl(). Blank lines are
    ignored. A line that is not JSON, not an object, or on which ``build``
    raises ValueError is skipped and appended to ``errors``. Once the
    source is exhausted, LogParseError is raised if it had content but
    nothing parsed.
    """
    parsed = 0
    saw_content = False
    for line_no, line in enumerate(_iter_lines(source), start=1):
        stripped = line.strip()
        if not stripped:
            continue
        saw_content = True
        try:
            obj = decode_json(stripped)
        except json.JSONDecodeError as exc:
            errors.append(MalformedLine(line_no, f"invalid JSON: {exc.msg}"))
            continue
        if not isinstance(obj, dict):
            errors.append(MalformedLine(line_no, "line is not a JSON object"))
            continue
        try:
            item = build(obj)
        except ValueError as exc:
            errors.append(MalformedLine(line_no, str(exc)))
            continue
        parsed += 1
        yield item
    if saw_content and not parsed:
        raise LogParseError(f"no {what} parsed from input", errors)


def read_jsonl(source, build, what: str) -> list:
    """Return ``build(obj)`` for every JSON object line of a JSONL source.

    The strict reader for side files (org map, ATS labels, platform
    processes, exposures): where iter_jsonl() skips a bad line, this raises
    ValueError naming the first bad line's number and reason, also when no
    line parses at all.
    """
    errors: list[MalformedLine] = []
    try:
        items = list(iter_jsonl(source, build, what, errors))
    except LogParseError:
        pass  # every line failed: errors holds the first
    if errors:
        raise ValueError(f"{what} line {errors[0].line_no}: {errors[0].reason}")
    return items


def parse_flow_log(source: Iterable[str] | str) -> ParsedFlows:
    """Parse a JSONL flow log, normalizing FQDNs and collecting diagnostics.

    Records come back in input order. Malformed lines are skipped and
    reported with their line numbers; the call fails (LogParseError) only
    when the input had content but zero records parsed.
    """
    errors: list[MalformedLine] = []
    records = list(iter_jsonl(source, FlowRecord.from_json, "flow records", errors))
    return ParsedFlows(records, errors)


def parse_http_log(source: Iterable[str] | str) -> ParsedHttp:
    """Parse a JSONL HTTP transaction log. Same error contract as flows."""
    errors: list[MalformedLine] = []
    txs = list(iter_jsonl(source, HttpTransaction.from_json, "transactions", errors))
    return ParsedHttp(txs, errors)


Contact = tuple[str, Optional[str], Optional[str]]  # (name, app_id, developer)


@dataclass(frozen=True)
class ContactIndex:
    """Who contacted what in one dataset, each distinct fact held once.

    ``names`` maps each distinct destination name to (is an IP literal,
    number of flow records); ``contacts`` holds the distinct
    (name, app_id, developer) triples. Both keep first-seen order, flows
    before transactions. That order gives the three "first developer"
    rules, which differ when an app's first contact has no developer:

    - the app overlap takes the first developer seen per app, None
      included (``first_developers()``);
    - PII attribution takes the first non-None one
      (``first_developers(known_only=True)``);
    - classifications.csv takes the first developer seen per (app, eSLD)
      pair (``cli.cmd_classify``).

    ``uri_path_count`` is the number of distinct transaction URI paths
    (query string stripped) and ``platform`` the platform of the first
    record, else of the first transaction. ``index_contacts`` builds the
    index in one pass over records and transactions, whether they are held
    in lists or streamed from a bundle's logs.
    """

    names: dict[str, tuple[bool, int]]
    contacts: tuple[Contact, ...]
    uri_path_count: int = 0
    platform: Optional[Platform] = None

    def domain_names(self) -> list[str]:
        """Distinct names that are domain names (IP literals dropped)."""
        return [name for name, (is_ip, _) in self.names.items() if not is_ip]

    def apps(self) -> set[str]:
        """Distinct attributed apps."""
        return {app for _, app, _ in self.contacts if app is not None}

    def apps_per_name(self) -> dict[str, set[str]]:
        """Distinct attributed apps per name, for names with at least one."""
        per_name: dict[str, set[str]] = {}
        for name, app, _ in self.contacts:
            if app is not None:
                per_name.setdefault(name, set()).add(app)
        return per_name

    def first_developers(self, known_only: bool = False) -> dict[str, Optional[str]]:
        """First developer seen per app; with known_only, the first non-None one."""
        developers: dict[str, Optional[str]] = {}
        for _, app, developer in self.contacts:
            if app is not None and (developer is not None or not known_only):
                developers.setdefault(app, developer)
        return developers


def index_contacts(
    records: Iterable[FlowRecord], transactions: Iterable[HttpTransaction]
) -> ContactIndex:
    """Fold flow records, then transactions, into a ContactIndex.

    Each item is consumed once and not kept, so streams from a log reader
    are indexed without holding their records.
    """
    flows: dict[str, int] = {}
    contacts: dict[Contact, None] = {}
    paths: set[str] = set()
    platform = None
    for rec in records:
        platform = platform or rec.platform
        flows[rec.fqdn] = flows.get(rec.fqdn, 0) + 1
        contacts[rec.fqdn, rec.app_id, rec.developer] = None
    for tx in transactions:
        platform = platform or tx.platform
        flows.setdefault(tx.fqdn, 0)
        contacts[tx.fqdn, tx.app_id, tx.developer] = None
        paths.add(tx.uri.split("?", 1)[0])
    names = {name: (is_ip_literal(name), count) for name, count in flows.items()}
    return ContactIndex(names, tuple(contacts), len(paths), platform)


@dataclass
class Dataset:
    """A capture's contact index under its label: all the reports read of it.

    ``cli.load_bundle`` streams a bundle's logs into ``index``; records and
    transactions held in lists are folded with ``index_contacts``.
    ``platform`` is the declared platform of the capture; when omitted it
    is the index's (the first record's, else the first transaction's).
    """

    label: str
    index: ContactIndex
    platform: Optional[Platform] = None

    def __post_init__(self) -> None:
        if self.platform is None:
            self.platform = self.index.platform


@dataclass(frozen=True)
class DatasetSummary:
    app_count: int
    distinct_fqdn_count: int
    multi_app_fqdn_count: int
    distinct_uri_path_count: int

    def to_json(self) -> dict:
        return {
            "app_count": self.app_count,
            "distinct_fqdn_count": self.distinct_fqdn_count,
            "multi_app_fqdn_count": self.multi_app_fqdn_count,
            "distinct_uri_path_count": self.distinct_uri_path_count,
        }


def dataset_summary(ds: Dataset) -> DatasetSummary:
    """Headline counts for a dataset.

    Counts are over distinct normalized values. A FQDN is multi-app when
    at least two distinct attributed apps contacted it; records without app
    attribution do not contribute to app-level counts. URI paths are the
    path component (query string stripped) of transactions.
    """
    index = ds.index
    multi = sum(1 for apps in index.apps_per_name().values() if len(apps) >= 2)
    return DatasetSummary(
        app_count=len(index.apps()),
        distinct_fqdn_count=len(index.names),
        multi_app_fqdn_count=multi,
        distinct_uri_path_count=index.uri_path_count,
    )
