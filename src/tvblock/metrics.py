"""Evaluation metrics over datasets, blocklists, classifications, exposures.

Block rates are computed over distinct domains, not flows. All functions
are pure batch computations over immutable inputs. The row types are
NamedTuples; ``reports`` renders their rows as CSV and JSON tables.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, NamedTuple, Optional, Sequence

from . import psl
from .blocklists import BlockList, MatchMode, blocked_by, is_blocked
from .party import (
    DEFAULT_STOP_TOKENS,
    ClassificationContext,
    PartyLabel,
    build_context,
    classify_esld,
    esld_of,
    tokenize,
)
from .pii import KIND_ORDER, ExposureRecord, PiiKind
from .traffic import Dataset, read_jsonl, require_field

DEFAULT_KEYWORDS = ("ad", "ads", "adtag", "track", "tracking", "analytics")
DEFAULT_MAX_BUCKET = 8


class EmptyDomainSet(ValueError):
    pass


class NoAppAttribution(ValueError):
    pass


class CyclicParentChain(ValueError):
    pass


def block_rate(
    domains: Iterable[str], blocklist: BlockList, mode: MatchMode = "exact"
) -> float:
    """Percentage of distinct domains the list blocks (0..100)."""
    domain_set = set(domains)
    if not domain_set:
        raise EmptyDomainSet("block_rate over an empty domain set")
    hits = sum(1 for d in domain_set if is_blocked(d, blocklist, mode))
    return 100.0 * hits / len(domain_set)


def dataset_eslds(dataset: Dataset, rules: psl.SuffixRules) -> set[str]:
    """Distinct registrable domains across a dataset's destinations."""
    found = {esld_of(name, rules) for name in dataset.index.domain_names()}
    found.discard(None)
    return found


def app_penetration(esld_value: str, dataset: Dataset, rules: psl.SuffixRules) -> float:
    """Percentage of the dataset's apps that contact the given eSLD."""
    apps = dataset.index.apps()
    if not apps:
        raise NoAppAttribution("dataset has no app attribution")
    refs = build_context(dataset, rules).esld_to_apps.get(esld_value, ())
    contacting = {app for app, _ in refs if app is not None}
    return 100.0 * len(contacting) / len(apps)


def fqdn_app_counts(dataset: Dataset) -> dict[str, int]:
    """Distinct attributed apps per domain-name destination.

    Destinations seen only in unattributed traffic (and IP literals) do not
    appear; app-level metrics exclude them.
    """
    names = dataset.index.names
    per_name = dataset.index.apps_per_name()
    return {name: len(apps) for name, apps in per_name.items() if not names[name][0]}


class CurveRow(NamedTuple):
    bucket: str
    domain_count: int
    rate: float


def popularity_block_curve(
    dataset: Dataset,
    lists: Sequence[BlockList],
    max_bucket: int = DEFAULT_MAX_BUCKET,
    mode: MatchMode = "exact",
) -> list[CurveRow]:
    """Block rate of the union of lists per app-popularity bucket.

    Bucket k holds domains contacted by exactly k apps for k < max_bucket;
    the terminal "max_bucket+" bucket holds the rest. Empty buckets are
    omitted rather than reported as 0%. A domain counts as blocked by the
    union when any list blocks it, which is exact in both match modes.
    """
    if max_bucket < 1:
        raise ValueError("max_bucket must be >= 1")
    buckets: dict[int, set[str]] = {}  # only the buckets with members
    for fqdn, count in fqdn_app_counts(dataset).items():
        buckets.setdefault(min(count, max_bucket), set()).add(fqdn)
    rows = []
    for k, members in sorted(buckets.items()):  # the terminal bucket is the largest key
        key = str(k) if k < max_bucket else f"{max_bucket}+"
        hits = sum(1 for d in members if blocked_by(d, lists, mode))
        rows.append(CurveRow(key, len(members), 100.0 * hits / len(members)))
    return rows


class PenetrationRow(NamedTuple):
    esld: str
    app_count: int
    percent: float
    party: PartyLabel


def penetration_table(dataset: Dataset, ctx: ClassificationContext) -> list[PenetrationRow]:
    """App penetration and aggregate party for every eSLD in the dataset.

    ctx must come from build_context over the same dataset: its apps per
    eSLD are the penetration counts.
    """
    apps = dataset.index.apps()
    if not apps:
        raise NoAppAttribution("dataset has no app attribution")
    rows = []
    for domain, refs in ctx.esld_to_apps.items():
        contacting = {app for app, _ in refs if app is not None}
        if contacting:
            percent = 100.0 * len(contacting) / len(apps)
            rows.append(
                PenetrationRow(domain, len(contacting), percent, classify_esld(domain, ctx))
            )
    rows.sort(key=lambda r: (-r.app_count, r.esld))
    return rows


# -- common-app overlap ------------------------------------------------


def normalize_app_name(name: str, stop_tokens) -> str:
    """Fuzzy-match key for an app name: lowercase alphanumeric tokens with
    platform/storefront noise stripped, joined back together."""
    return "".join(tokenize(name, stop_tokens))


class AppOverlap(NamedTuple):
    app_a: str
    app_b: str
    developer: str
    only_a: frozenset[str]
    only_b: frozenset[str]
    both: frozenset[str]


@dataclass(frozen=True)
class OverlapReport:
    apps: tuple[AppOverlap, ...]
    total_only_a: int
    total_only_b: int
    total_both: int

    @property
    def common_app_count(self) -> int:
        return len(self.apps)


def common_app_overlap(
    dataset_a: Dataset, dataset_b: Dataset, stop_tokens=None
) -> OverlapReport:
    """Match apps present in both datasets and partition their destinations.

    Apps match on normalized-name equality plus at least one shared
    developer token (names drift across stores; developers validate the
    match). Global totals partition the union of all matched apps'
    destinations into A-only / B-only / both.
    """
    stops = stop_tokens if stop_tokens is not None else DEFAULT_STOP_TOKENS

    def app_index(dataset: Dataset) -> dict[str, tuple[str, Optional[str], set[str]]]:
        fqdns_per_app: dict[str, set[str]] = {}
        for name, app_id, _ in dataset.index.contacts:
            if app_id is not None:
                fqdns_per_app.setdefault(app_id, set()).add(name)
        developer = dataset.index.first_developers()
        index: dict[str, tuple[str, Optional[str], set[str]]] = {}
        for app_id, fqdns in fqdns_per_app.items():
            key = normalize_app_name(app_id, stops)
            if key:
                index.setdefault(key, (app_id, developer[app_id], fqdns))
        return index

    def dev_tokens(dev: Optional[str]) -> set[str]:
        return {t for t in tokenize(dev or "", stops) if len(t) >= 3}

    index_a = app_index(dataset_a)
    index_b = app_index(dataset_b)
    matches = []
    union_a: set[str] = set()
    union_b: set[str] = set()
    for key in sorted(index_a.keys() & index_b.keys()):
        app_a, dev_a, fqdns_a = index_a[key]
        app_b, dev_b, fqdns_b = index_b[key]
        shared_dev = dev_tokens(dev_a) & dev_tokens(dev_b)
        if not shared_dev:
            continue
        matches.append(
            AppOverlap(
                app_a=app_a,
                app_b=app_b,
                developer=dev_a or dev_b or "",
                only_a=frozenset(fqdns_a - fqdns_b),
                only_b=frozenset(fqdns_b - fqdns_a),
                both=frozenset(fqdns_a & fqdns_b),
            )
        )
        union_a |= fqdns_a
        union_b |= fqdns_b
    return OverlapReport(
        apps=tuple(matches),
        total_only_a=len(union_a - union_b),
        total_only_b=len(union_b - union_a),
        total_both=len(union_a & union_b),
    )


# -- PII table ---------------------------------------------------------


class PiiTableRow(NamedTuple):
    platform: str
    kind: PiiKind
    cells: tuple[tuple[int, Optional[float]], ...]
    """(count, percent_blocked) for first, third, platform, total.

    percent_blocked is None when the cell has no exposures."""


PII_PARTY_COLUMNS = (PartyLabel.FIRST_PARTY, PartyLabel.THIRD_PARTY, PartyLabel.PLATFORM)


def pii_block_table(
    exposures: Sequence[ExposureRecord], platform: str
) -> list[PiiTableRow]:
    """Exposure counts and percent-blocked per kind and destination party.

    The total column covers every exposure of the kind, including those
    whose party stayed undetermined, so party cells need not sum to it.
    """
    rows = []
    for kind in KIND_ORDER:
        of_kind = [e for e in exposures if e.pii_kind is kind]
        cells = []
        for party in PII_PARTY_COLUMNS:
            members = [e for e in of_kind if e.party is party]
            cells.append(_pii_cell(members))
        cells.append(_pii_cell(of_kind))
        rows.append(PiiTableRow(platform=platform, kind=kind, cells=tuple(cells)))
    return rows


def _pii_cell(members: Sequence[ExposureRecord]) -> tuple[int, Optional[float]]:
    if not members:
        return 0, None
    blocked = sum(1 for e in members if e.blocked)
    return len(members), 100.0 * blocked / len(members)


# -- keyword false-negative search ---------------------------------------


class FnCandidate(NamedTuple):
    fqdn: str
    matched_keyword: str
    blocked_by: frozenset[str]


def keyword_fn_candidates(
    domains: Iterable[str],
    lists: Sequence[BlockList],
    keywords: Sequence[str] = DEFAULT_KEYWORDS,
    mode: MatchMode = "exact",
) -> list[FnCandidate]:
    """Obvious ATS names that no list, or only some lists, block.

    A domain is a candidate when one of its dot/hyphen-delimited label
    tokens equals a keyword (token equality, not substring) and fewer than
    all lists block it. Rows are sorted by name.
    """
    if not keywords:
        raise ValueError("keywords must be non-empty")
    keyword_set = set(keywords)
    rows = []
    for fqdn in sorted(set(domains)):
        tokens = [t for part in fqdn.split(".") for t in part.split("-")]
        matched = next((t for t in tokens if t in keyword_set), None)
        if matched is None:
            continue
        names = blocked_by(fqdn, lists, mode)
        if len(names) < len(lists):
            rows.append(FnCandidate(fqdn, matched, names))
    return rows


# -- organization resolution ---------------------------------------------


@dataclass(frozen=True)
class OrgMap:
    esld_to_org: dict[str, str] = field(default_factory=dict)
    org_parent: dict[str, str] = field(default_factory=dict)


def load_org_map(esld_lines: Iterable[str] | str, parent_lines: Iterable[str] | str) -> OrgMap:
    """Load the two JSONL org files and verify parent chains are acyclic.

    esld file lines: {"esld": ..., "org": ...}
    parent file lines: {"org": ..., "parent": ...}
    """

    def pair(key: str, value: str):
        return lambda obj: (str(require_field(obj, key)), str(require_field(obj, value)))

    esld_pairs = read_jsonl(esld_lines, pair("esld", "org"), "org eSLD entries")
    esld_to_org = {esld.lower(): org for esld, org in esld_pairs}
    org_parent = dict(read_jsonl(parent_lines, pair("org", "parent"), "org parent entries"))
    for start in org_parent:
        seen = {start}
        node = start
        while node in org_parent:
            node = org_parent[node]
            if node in seen:
                raise CyclicParentChain(f"cycle through {node!r}")
            seen.add(node)
    return OrgMap(esld_to_org=esld_to_org, org_parent=org_parent)


def resolve_org(esld_value: str, org_map: OrgMap) -> str:
    """Ultimate parent organization of an eSLD; Unknown(<esld>) if unmapped."""
    org = org_map.esld_to_org.get(esld_value.lower())
    if org is None:
        return f"Unknown({esld_value})"
    while org in org_map.org_parent:
        org = org_map.org_parent[org]
    return org


# -- ATS labeling ---------------------------------------------------------


def load_ats_labels(source: Iterable[str] | str) -> dict[str, frozenset[str]]:
    """JSONL label file: {"fqdn": ..., "labels": ["ads", "tracking", ...]}."""

    def entry(obj: dict) -> tuple[str, frozenset[str]]:
        fqdn = str(require_field(obj, "fqdn")).lower()
        values = obj.get("labels", [])
        if not isinstance(values, list):
            raise ValueError("field 'labels' must be an array")
        return fqdn, frozenset(str(v).lower() for v in values)

    return dict(read_jsonl(source, entry, "ATS label entries"))


ATS_LABEL_VALUES = frozenset({"ads", "tracking"})


def ats_label(
    fqdn: str,
    labels: dict[str, frozenset[str]],
    lists: Sequence[BlockList],
    mode: MatchMode = "exact",
) -> bool:
    """True when external labels mark the name ads/tracking or any list blocks it."""
    if labels.get(fqdn, frozenset()) & ATS_LABEL_VALUES:
        return True
    return bool(blocked_by(fqdn, lists, mode))
