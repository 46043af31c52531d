"""PII variant generation, HTTP traffic scanning, attribution, redaction.

Each configured PII value expands into a searchable variant set: the
normalized plaintext plus its lowercase MD5 and SHA1 hex digests (trackers
are known to hash identifiers before sending them). MAC addresses expand
into colon, dash and bare-hex forms in both hex cases before hashing;
coordinates are truncated to 3 decimals. Scanning is case-insensitive
substring search over the request URI, percent-decoded once, and every
header value. A request body is never scanned, but redaction scrubs it of
every variant.
"""

from __future__ import annotations

import enum
import logging
import re
import urllib.parse
from typing import Iterable, NamedTuple, Optional, Sequence

from .blocklists import BlockList, MatchMode, blocked_by
from .party import ClassificationContext, PartyLabel, classify
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


class PiiSpec(NamedTuple):
    """One PII kind and the raw device values to search for; load_pii_specs()
    refuses a kind with none."""

    kind: PiiKind
    raw_values: tuple[str, ...]


class Variant(NamedTuple):
    """One searchable needle derived from a PII value.

    ``component`` distinguishes the latitude/longitude halves of a location
    value; it is empty for every other kind.
    """

    kind: PiiKind
    encoding: Encoding
    needle: str
    component: str = ""


class ExposureRecord(NamedTuple):
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
        if not values:
            raise ValueError(f"{kind.value} spec has no raw values")
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
    # Here, so that importing pii for its types hashes nothing; and from
    # CPython's builtin modules, because hashlib maps OpenSSL (about 3.6 MB
    # of resident memory). A build without them has only hashlib.
    try:
        from _md5 import md5
        from _sha1 import sha1
    except ImportError:
        from hashlib import md5, sha1

    data = plaintext.encode("utf-8")
    return [
        Variant(kind, Encoding.MD5, md5(data).hexdigest(), component),
        Variant(kind, Encoding.SHA1, sha1(data).hexdigest(), component),
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


def scan_transaction(tx: HttpTransaction, variants: Sequence[Variant]) -> list[ExposureRecord]:
    """Find PII variants in one transaction's URI and header values.

    Emits one record per distinct (kind, encoding, location) hit; party and
    blocked_by stay unset. A location value only counts when both its
    latitude and longitude appear somewhere in the same request; its record
    sits at its first latitude hit's location and holds both halves' needles.
    ``variants`` comes from build_all_variants().
    """
    surfaces = [(URI_LOCATION, urllib.parse.unquote(tx.uri).lower())]
    surfaces += [(header_location(name), value.lower()) for name, value in tx.headers]
    joined = "\0".join(text for _, text in surfaces)  # holds every needle that one surface holds
    hits: dict[tuple[PiiKind, Encoding, str], set[str]] = {}
    # per encoding: the latitude hits' locations, the halves hit, their needles
    halves: dict[Encoding, tuple[list[str], set[str], set[str]]] = {}
    for variant in variants:
        needle = variant.needle.lower()
        if needle not in joined:
            continue
        found = [location for location, text in surfaces if needle in text]
        if not found:
            continue
        if variant.kind is PiiKind.LOCATION:
            lat, components, needles = halves.setdefault(variant.encoding, ([], set(), set()))
            if variant.component == "lat":
                lat.extend(found)
            components.add(variant.component)
            needles.add(variant.needle)
            continue
        for location in found:
            hits.setdefault((variant.kind, variant.encoding, location), set()).add(variant.needle)
    for encoding, (lat, components, needles) in halves.items():
        if components >= {"lat", "long"}:
            hits[(PiiKind.LOCATION, encoding, lat[0])] = needles

    return [
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
        for (kind, encoding, location), needles in sorted(
            hits.items(), key=lambda hit: (hit[0][2], hit[0][0].value, hit[0][1].value)
        )
    ]


def attribute_exposures(
    records: Iterable[ExposureRecord],
    ctx: ClassificationContext,
    lists: Sequence[BlockList],
    mode: MatchMode = "exact",
    developers: Optional[dict[str, Optional[str]]] = None,
) -> list[ExposureRecord]:
    """Fill in the destination party and blocking verdict for each exposure.

    An exposure counts as blocked when at least one list blocks its
    destination. Its eSLD is the context's: a destination without one (an
    IP literal, or a name the context does not hold) keeps the raw name and
    stays undetermined.
    """
    developers = developers or {}
    completed = []
    for rec in records:
        names = blocked_by(rec.fqdn, lists, mode)
        domain = ctx.name_to_esld.get(rec.fqdn)
        if domain is None:
            domain, party = rec.fqdn, PartyLabel.UNDETERMINED
        else:
            party = classify(rec.app_id, developers.get(rec.app_id), domain, ctx)
        completed.append(rec._replace(esld=domain, party=party, blocked_by=names))
    return completed


def _scrubber(replacements: Iterable[tuple[str, str]]):
    """A function that replaces each pair's needle with its token, ignoring case.

    Every needle's spans are found on the original text and replaced in one
    leftmost-longest pass, so a needle never matches inside a token that the
    pass wrote.
    """
    # Longest first, so that of the needles starting at one place the longest wins.
    ordered = sorted(replacements, key=lambda pair: len(pair[0]), reverse=True)
    # One pattern per needle; needles come from the variants, so re's cache
    # holds no more patterns than there are variants.
    finders = [(re.compile(re.escape(needle), re.IGNORECASE), token) for needle, token in ordered]

    def scrub(text: str) -> str:
        spans = []
        for rank, (finder, token) in enumerate(finders):
            match = finder.search(text)
            while match:  # every start, overlapping ones too
                spans.append((match.start(), rank, match.end(), token))
                match = finder.search(text, match.start() + 1)
        spans.sort()
        pieces, end = [], 0
        for start, _, stop, token in spans:
            if start >= end:
                pieces += (text[end:start], token)
                end = stop
        pieces.append(text[end:])
        return "".join(pieces)

    return scrub


def redact(
    tx: HttpTransaction, records: Sequence[ExposureRecord], variants: Sequence[Variant] = ()
) -> HttpTransaction:
    """Replace every matched PII span with REDACTED_<KIND>.

    Matched needles are replaced wherever they occur in the URI, the header
    values and the body, so re-scanning the result finds nothing. The
    redacted URI is the percent-decoded form that the scan searched. The
    body, which the scan never searches, is also scrubbed of every needle in
    ``variants`` (pass the scan's), found or not. A transaction with nothing
    to replace comes back unchanged.
    """
    found = [
        (needle, rec.pii_kind.redaction_token) for rec in records for needle in rec.matched_values
    ]
    body = tx.body
    if body is not None:
        body = _scrubber(found + [(v.needle, v.kind.redaction_token) for v in variants])(body)
    if not found and body == tx.body:
        return tx
    scrub = _scrubber(found)
    return tx._replace(
        uri=scrub(urllib.parse.unquote(tx.uri)),
        headers=tuple((name, scrub(value)) for name, value in tx.headers),
        body=body,
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
