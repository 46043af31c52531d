"""PII variant generation, HTTP traffic scanning, attribution, redaction.

Each configured PII value expands into a searchable variant set: the
normalized plaintext plus its lowercase MD5 and SHA1 hex digests (trackers
are known to hash identifiers before sending them). MAC addresses expand
into colon, dash and bare-hex forms in both hex cases before hashing;
coordinates are truncated to 3 decimals. Scanning is case-insensitive
substring search over the request URI, percent-decoded once, and every
header value. A request body is never scanned.
"""

from __future__ import annotations

import dataclasses
import enum
import logging
import re
import urllib.parse
from dataclasses import dataclass
from typing import Iterable, Optional, Sequence

from . import psl
from .blocklists import BlockList, MatchMode, blocked_by
from .party import ClassificationContext, PartyLabel, classify, esld_of
from .traffic import HttpTransaction, decode_json, require_field

log = logging.getLogger(__name__)


class PiiKind(enum.Enum):
    ADVERTISING_ID = "advertising_id"
    SERIAL_NUMBER = "serial_number"
    DEVICE_ID = "device_id"
    ACCOUNT_NAME = "account_name"
    MAC_ADDRESS = "mac_address"
    LOCATION = "location"

    @property
    def redaction_token(self) -> str:
        return "REDACTED_" + self.value.replace("_", "").upper()


KIND_ORDER = (
    PiiKind.ADVERTISING_ID,
    PiiKind.SERIAL_NUMBER,
    PiiKind.DEVICE_ID,
    PiiKind.ACCOUNT_NAME,
    PiiKind.MAC_ADDRESS,
    PiiKind.LOCATION,
)


class Encoding(enum.Enum):
    PLAIN = "plain"
    MD5 = "md5"
    SHA1 = "sha1"


class InvalidMac(ValueError):
    pass


class InvalidCoordinate(ValueError):
    pass


URI_LOCATION = "uri"
LOCATION_DECIMALS = 3  # a coordinate is searched for truncated to this many decimals


def header_location(name: str) -> str:
    return f"header:{name}"


@dataclass(frozen=True)
class PiiSpec:
    """One PII kind and the raw device values to search for."""

    kind: PiiKind
    raw_values: tuple[str, ...]

    def __post_init__(self) -> None:
        if not self.raw_values:
            raise ValueError(f"{self.kind.value} spec has no raw values")


@dataclass(frozen=True)
class Variant:
    """One searchable needle derived from a PII value.

    ``component`` distinguishes the latitude/longitude halves of a location
    value; it is empty for every other kind.
    """

    kind: PiiKind
    encoding: Encoding
    needle: str
    component: str = ""


@dataclass(frozen=True)
class ExposureRecord:
    """One PII sighting in one transaction.

    ``matched_values`` holds the raw substrings that matched; it exists for
    redaction and never serializes (exposure logs must not re-leak PII).
    party and blocked_by stay None until attribute_exposures() fills them.
    """

    app_id: str
    fqdn: str
    esld: Optional[str]
    pii_kind: PiiKind
    encoding: Encoding
    location: str
    timestamp: int
    party: Optional[PartyLabel] = None
    blocked_by: Optional[frozenset[str]] = None
    matched_values: tuple[str, ...] = ()

    @property
    def blocked(self) -> bool:
        return bool(self.blocked_by)

    def to_json(self) -> dict:
        return {
            "app_id": self.app_id,
            "fqdn": self.fqdn,
            "esld": self.esld,
            "pii_kind": self.pii_kind.value,
            "encoding": self.encoding.value,
            "location": self.location,
            "timestamp": self.timestamp,
            "party": self.party.value if self.party else None,
            "blocked_by": sorted(self.blocked_by) if self.blocked_by is not None else None,
        }

    @classmethod
    def from_json(cls, obj: dict) -> "ExposureRecord":
        blocked = obj.get("blocked_by")
        if not (blocked is None or type(blocked) is list and all(type(v) is str for v in blocked)):
            raise ValueError("field 'blocked_by' must be an array of strings")
        return cls(
            app_id=require_field(obj, "app_id"),
            fqdn=require_field(obj, "fqdn"),
            esld=obj.get("esld"),
            pii_kind=PiiKind(require_field(obj, "pii_kind")),
            encoding=Encoding(require_field(obj, "encoding")),
            location=require_field(obj, "location"),
            timestamp=require_field(obj, "timestamp"),
            party=PartyLabel(obj["party"]) if obj.get("party") else None,
            blocked_by=frozenset(blocked) if blocked is not None else None,
        )


def load_pii_specs(source: str) -> list[PiiSpec]:
    """Parse a PII specification JSON document: {kind: [raw values, ...]}."""
    obj = decode_json(source)
    if not isinstance(obj, dict):
        raise ValueError("PII spec must be a JSON object mapping kind to values")
    specs = []
    for key, values in obj.items():
        kind = PiiKind(key)
        if isinstance(values, str):
            values = [values]
        elif not isinstance(values, list):
            raise ValueError(f"{key} must be a string or an array")
        specs.append(PiiSpec(kind=kind, raw_values=tuple(str(v) for v in values)))
    return specs


_MAC_RE = re.compile(
    r"^([0-9a-fA-F]{2})[:-]?([0-9a-fA-F]{2})[:-]?([0-9a-fA-F]{2})"
    r"[:-]?([0-9a-fA-F]{2})[:-]?([0-9a-fA-F]{2})[:-]?([0-9a-fA-F]{2})$"
)


def _mac_plaintexts(raw: str) -> list[str]:
    match = _MAC_RE.match(raw.strip())
    if not match:
        raise InvalidMac(f"not a MAC address: {raw!r}")
    octets = [g.lower() for g in match.groups()]
    rendered = [sep.join(octets) for sep in (":", "-", "")]
    # Both hex cases participate, including in the hashed forms.
    return [form for text in rendered for form in (text, text.upper())]


def _truncate_coordinate(value: str) -> str:
    value = value.strip()
    try:
        number = float(value)
    except ValueError as exc:
        raise InvalidCoordinate(f"not a coordinate: {value!r}") from exc
    if not -180.0 <= number <= 180.0:
        raise InvalidCoordinate(f"coordinate out of range: {value!r}")
    if "." not in value:
        return value
    whole, frac = value.split(".", 1)
    frac = frac[:LOCATION_DECIMALS]
    return f"{whole}.{frac}" if frac else whole


def _location_components(raw: str) -> list[tuple[str, str]]:
    parts = [p for p in raw.split(",") if p.strip()]
    if len(parts) != 2:
        raise InvalidCoordinate(f"location must be 'lat,long': {raw!r}")
    return [("lat", _truncate_coordinate(parts[0])), ("long", _truncate_coordinate(parts[1]))]


def _digest_variants(kind: PiiKind, plaintext: str, component: str = "") -> list[Variant]:
    import hashlib  # here, so that importing pii for its types loads no OpenSSL

    data = plaintext.encode("utf-8")
    return [
        Variant(kind, Encoding.MD5, hashlib.md5(data).hexdigest(), component),
        Variant(kind, Encoding.SHA1, hashlib.sha1(data).hexdigest(), component),
    ]


def build_variants(spec: PiiSpec) -> tuple[Variant, ...]:
    """Expand one PII spec into its searchable variant set.

    Every normalized plaintext form contributes itself plus MD5 and SHA1
    hex digests. The lower-cased form is added too, because the scan folds
    case and trackers may hash either case of the value they read.
    """
    variants: dict[tuple, Variant] = {}

    def add(v: Variant) -> None:
        variants.setdefault((v.kind, v.encoding, v.needle, v.component), v)

    for raw in spec.raw_values:
        if spec.kind is PiiKind.MAC_ADDRESS:
            plaintexts = [(p, "") for p in _mac_plaintexts(raw)]
        elif spec.kind is PiiKind.LOCATION:
            plaintexts = [(text, component) for component, text in _location_components(raw)]
        else:
            forms = [raw.strip()]
            if raw.strip().lower() != raw.strip():
                forms.append(raw.strip().lower())
            plaintexts = [(p, "") for p in forms]
        for text, component in plaintexts:
            if not text:
                continue
            add(Variant(spec.kind, Encoding.PLAIN, text, component))
            for dv in _digest_variants(spec.kind, text, component):
                add(dv)
    return tuple(variants.values())


def build_all_variants(specs: Sequence[PiiSpec]) -> tuple[Variant, ...]:
    """Every spec's variants, in spec order; build once per scan."""
    out: list[Variant] = []
    for spec in specs:
        out.extend(build_variants(spec))
    return tuple(out)


def _surfaces(tx: HttpTransaction) -> list[tuple[str, str]]:
    surfaces = [(URI_LOCATION, urllib.parse.unquote(tx.uri))]
    surfaces.extend((header_location(name), value) for name, value in tx.headers)
    return surfaces


def scan_transaction(tx: HttpTransaction, variants: Sequence[Variant]) -> list[ExposureRecord]:
    """Find PII variants in one transaction's URI and header values.

    Emits one record per distinct (kind, encoding, location) hit; party and
    blocked_by stay unset. A location value only counts when both its
    latitude and longitude appear somewhere in the same request.
    ``variants`` comes from build_all_variants().
    """
    surfaces = _surfaces(tx)

    hits: dict[tuple[PiiKind, Encoding, str], set[str]] = {}
    location_halves: dict[Encoding, dict[str, list[tuple[str, str]]]] = {}
    for variant in variants:
        for location, haystack in surfaces:
            if variant.needle.lower() not in haystack.lower():
                continue
            if variant.kind is PiiKind.LOCATION:
                halves = location_halves.setdefault(variant.encoding, {})
                halves.setdefault(variant.component, []).append(
                    (location, variant.needle)
                )
            else:
                hits.setdefault(
                    (variant.kind, variant.encoding, location), set()
                ).add(variant.needle)

    records = [
        ExposureRecord(
            app_id=tx.app_id,
            fqdn=tx.fqdn,
            esld=None,
            pii_kind=kind,
            encoding=encoding,
            location=location,
            timestamp=tx.timestamp,
            matched_values=tuple(sorted(needles)),
        )
        for (kind, encoding, location), needles in hits.items()
    ]
    for encoding, halves in location_halves.items():
        if "lat" in halves and "long" in halves:
            lat_hits = halves["lat"]
            needles = {n for matches in halves.values() for _, n in matches}
            records.append(
                ExposureRecord(
                    app_id=tx.app_id,
                    fqdn=tx.fqdn,
                    esld=None,
                    pii_kind=PiiKind.LOCATION,
                    encoding=encoding,
                    location=lat_hits[0][0],
                    timestamp=tx.timestamp,
                    matched_values=tuple(sorted(needles)),
                )
            )
    records.sort(key=lambda r: (r.location, r.pii_kind.value, r.encoding.value))
    return records


def attribute_exposures(
    records: Iterable[ExposureRecord],
    ctx: ClassificationContext,
    lists: Sequence[BlockList],
    rules: psl.SuffixRules,
    mode: MatchMode = "exact",
    developers: Optional[dict[str, Optional[str]]] = None,
) -> list[ExposureRecord]:
    """Fill in the destination party and blocking verdict for each exposure.

    An exposure counts as blocked when at least one list blocks its
    destination. Destinations without a registrable domain (IP literals)
    keep the raw name and stay undetermined.
    """
    developers = developers or {}
    completed = []
    for rec in records:
        names = blocked_by(rec.fqdn, lists, mode)
        known = rec.fqdn in ctx.name_to_esld
        domain = ctx.name_to_esld[rec.fqdn] if known else esld_of(rec.fqdn, rules)
        if domain is None:
            completed.append(
                dataclasses.replace(
                    rec, esld=rec.fqdn, party=PartyLabel.UNDETERMINED, blocked_by=names
                )
            )
            continue
        party = classify(rec.app_id, developers.get(rec.app_id), domain, ctx)
        completed.append(dataclasses.replace(rec, esld=domain, party=party, blocked_by=names))
    return completed


def redact(tx: HttpTransaction, records: Sequence[ExposureRecord]) -> HttpTransaction:
    """Replace every matched PII span with REDACTED_<KIND>.

    Matched needles are replaced wherever they occur in the URI, the header
    values and the body, so re-scanning the result finds nothing. The
    redacted URI is the percent-decoded form that the scan searched. A
    transaction with no records comes back unchanged, body included.
    """
    if not records:
        return tx
    replacements = []
    for rec in records:
        for needle in rec.matched_values:
            replacements.append((needle, rec.pii_kind.redaction_token))
    # Longest needles first so overlapping shorter needles cannot split a span.
    replacements.sort(key=lambda pair: len(pair[0]), reverse=True)

    def scrub(text: str) -> str:
        for needle, token in replacements:
            text = re.sub(re.escape(needle), token, text, flags=re.IGNORECASE)
        return text

    return dataclasses.replace(
        tx,
        uri=scrub(urllib.parse.unquote(tx.uri)),
        headers=tuple((name, scrub(value)) for name, value in tx.headers),
        body=scrub(tx.body) if tx.body is not None else None,
    )


def warn_if_world_readable(path: str) -> bool:
    """Log a warning when the PII spec file is readable by other users."""
    import os
    import stat

    try:
        mode = os.stat(path).st_mode
    except OSError:
        return False
    if mode & stat.S_IROTH:
        log.warning("PII spec file %s is world-readable; tighten its permissions", path)
        return True
    return False
