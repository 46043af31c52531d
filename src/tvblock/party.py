"""First/third/platform-party labeling of app-to-domain contacts.

Labeling follows a three-step token procedure: tokenize app identifiers
(package names, or app + developer names where packages don't exist) and
registrable domains, drop common and platform-specific tokens, then label:
platform when the domain carries a platform marker or the traffic came from
a platform process, first party on a shared token, third party when the
domain is contacted by at least two apps from different developers, and
undetermined otherwise.
"""

from __future__ import annotations

import enum
import re
from typing import Iterable, Mapping, Optional

from . import psl
from .traffic import Dataset, read_jsonl

_TOKEN_RE = re.compile(r"[a-z]+|[0-9]+")
# A token an app (or its developer) shares with an eSLD makes the eSLD first
# party only at this length or more.
MIN_SHARED_TOKEN_LEN = 3

# Tokens too generic to signal ownership: scheme/TLD noise, storefront
# qualifiers, and platform names. Configurable per run; this default is not
# claimed to be exhaustive.
DEFAULT_STOP_TOKENS = frozenset(
    {
        "com", "net", "org", "tv", "app", "apps", "www", "free", "paid",
        "the", "channel", "hd",
        "roku", "firetv", "fire", "amazon", "apple", "appletv", "samsung",
        "chromecast", "vizio", "lg", "sony", "android",
    }
)

# Substrings of an eSLD that mark platform-operated destinations.
DEFAULT_PLATFORM_MARKERS: dict[str, frozenset[str]] = {
    "Roku": frozenset({"roku"}),
    "FireTV": frozenset({"amazon"}),
    "Apple": frozenset({"apple", "icloud"}),
    "Samsung": frozenset({"samsung"}),
    "Chromecast": frozenset({"chromecast", "googlecast"}),
    "Vizio": frozenset({"vizio"}),
    "LG": frozenset({"lgsmartad", "lgtvcommon", "lgappstv"}),
    "Sony": frozenset({"sony"}),
}


class PartyLabel(enum.Enum):
    FIRST_PARTY = "first_party"
    THIRD_PARTY = "third_party"
    PLATFORM = "platform"
    UNDETERMINED = "undetermined"


# Aggregation precedence, strongest first.
_PRECEDENCE = (
    PartyLabel.PLATFORM,
    PartyLabel.FIRST_PARTY,
    PartyLabel.THIRD_PARTY,
    PartyLabel.UNDETERMINED,
)


class UnknownEsld(KeyError):
    """classify() was asked about a domain absent from the context."""


def tokenize(identifier: str, stop_tokens: frozenset[str] = DEFAULT_STOP_TOKENS) -> list[str]:
    """Lowercase tokens of an app identifier or domain, stop tokens removed.

    Splits on dots, hyphens, underscores, whitespace, any other punctuation,
    and digit/letter boundaries.
    """
    tokens = _TOKEN_RE.findall(identifier.lower())
    return [t for t in tokens if t not in stop_tokens]


AppRef = tuple[Optional[str], Optional[str]]  # (app_id, developer)


class ClassificationContext:
    """Immutable inputs that drive party labels for one dataset.

    esld_to_apps must cover every domain that will be classified.
    platform_processes lists app_ids whose traffic is platform activity
    (per-process attribution, where the capture provides it). name_to_esld
    holds each distinct name's eSLD (None where it has none), resolved once
    by build_context. third_party is worked out once, here.
    """

    __slots__ = (
        "platform_markers", "esld_to_apps", "platform_processes", "stop_tokens",
        "name_to_esld", "third_party",
    )

    def __init__(
        self,
        platform_markers: frozenset[str],
        esld_to_apps: Mapping[str, frozenset[AppRef]],
        platform_processes: frozenset[str] = frozenset(),
        stop_tokens: frozenset[str] = DEFAULT_STOP_TOKENS,
        name_to_esld: Optional[Mapping[str, Optional[str]]] = None,
    ) -> None:
        self.platform_markers = platform_markers
        self.esld_to_apps = esld_to_apps
        self.platform_processes = platform_processes
        self.stop_tokens = stop_tokens
        self.name_to_esld = {} if name_to_esld is None else name_to_esld
        self.third_party = _third_party(esld_to_apps)


def _third_party(esld_to_apps: Mapping[str, frozenset[AppRef]]) -> frozenset[str]:
    """The eSLDs contacted by two or more apps from two or more developers.

    Unknown developers fall back to the app id: distinct apps without
    developer data are presumed independently developed.
    """
    shared = set()
    for domain, refs in esld_to_apps.items():
        keyed = {(app, dev or app) for app, dev in refs if app is not None}
        if len({a for a, _ in keyed}) >= 2 and len({k for _, k in keyed}) >= 2:
            shared.add(domain)
    return frozenset(shared)


def classify(
    app_id: Optional[str],
    developer: Optional[str],
    esld: str,
    ctx: ClassificationContext,
) -> PartyLabel:
    """Label one (app, eSLD) contact.

    Precedence is fixed: platform > first party > third party >
    undetermined. Third party requires the domain to be contacted by at
    least two apps from different developers; a single-app domain with no
    token overlap stays undetermined.
    """
    if esld not in ctx.esld_to_apps:
        raise UnknownEsld(esld)
    if any(marker in esld for marker in ctx.platform_markers):
        return PartyLabel.PLATFORM
    if app_id is not None and app_id in ctx.platform_processes:
        return PartyLabel.PLATFORM

    app_tokens = set(tokenize(app_id or "", ctx.stop_tokens))
    app_tokens.update(tokenize(developer or "", ctx.stop_tokens))
    esld_tokens = set(tokenize(esld, ctx.stop_tokens))
    if any(len(t) >= MIN_SHARED_TOKEN_LEN for t in app_tokens & esld_tokens):
        return PartyLabel.FIRST_PARTY

    if esld in ctx.third_party:
        return PartyLabel.THIRD_PARTY
    return PartyLabel.UNDETERMINED


def classify_esld(esld: str, ctx: ClassificationContext) -> PartyLabel:
    """Aggregate label for a domain across every app that contacted it.

    The strongest per-app label wins, so a domain that is first party to
    one of its apps reports as first party in domain-level tables. A
    domain with no recorded contact labels as an unattributed one would.
    """
    refs = ctx.esld_to_apps.get(esld) or {(None, None)}
    labels = {classify(app_id, developer, esld, ctx) for app_id, developer in refs}
    return min(labels, key=_PRECEDENCE.index)


def esld_of(fqdn: str, rules: psl.SuffixRules) -> Optional[str]:
    """Registrable domain of a fqdn, or None when it has none (IPs, bare
    suffixes, malformed names)."""
    try:
        return psl.esld(fqdn, rules)
    except psl.PslError:
        return None


def build_context(
    dataset: Dataset,
    rules: psl.SuffixRules,
    platform_markers: Optional[Iterable[str]] = None,
    platform_processes: Iterable[str] = (),
    stop_tokens: frozenset[str] = DEFAULT_STOP_TOKENS,
) -> ClassificationContext:
    """Index a dataset's domains by the apps contacting them.

    Destinations without a registrable domain (IP literals, bare public
    suffixes) are left out; callers treat them as unclassifiable.
    """
    if platform_markers is None:
        markers = DEFAULT_PLATFORM_MARKERS.get(dataset.platform_name, frozenset())
    else:
        markers = frozenset(m.lower() for m in platform_markers)

    names = dataset.names
    name_to_esld = {n: None if is_ip else esld_of(n, rules) for n, (is_ip, _) in names.items()}
    esld_to_apps: dict[str, set[AppRef]] = {}
    for name, app_id, developer in dataset.contacts:
        if name_to_esld[name] is not None:
            esld_to_apps.setdefault(name_to_esld[name], set()).add((app_id, developer))
    return ClassificationContext(
        platform_markers=markers,
        esld_to_apps={domain: frozenset(refs) for domain, refs in esld_to_apps.items()},
        platform_processes=frozenset(platform_processes),
        stop_tokens=stop_tokens,
        name_to_esld=name_to_esld,
    )


def load_platform_processes(source: Iterable[str] | str) -> frozenset[str]:
    """Read a JSONL platform-process file: {"app_id": ..., "is_platform": bool}."""
    flagged = read_jsonl(
        source, lambda obj: obj.get("is_platform") and obj.get("app_id"), "platform processes"
    )
    return frozenset(str(app_id) for app_id in flagged if app_id)
