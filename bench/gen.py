"""Deterministic scale generator for the tvblock benchmark.

From a seed and a workload shape it writes two raw platform captures
(Roku and FireTV flow/HTTP JSONL), four hosts-file blocklists, a PII spec
and a config file that points at them. The same (shape, seed) always gives
byte-identical files.

Every generated name lives under com, net, org, tv or co.uk with a
registrable label that carries a digit, so no private or wildcard rule of
the bundled Public Suffix List applies and the fixture eSLD rule of
tests/reference_pipeline.py (last two labels, last three under co.uk) is
exact for every name.

``generate(workload, seed, out_dir)`` is the entry point; bench/run.py and
bench/selftest.py call it.
"""

from __future__ import annotations

import bisect
import hashlib
import itertools
import json
import os
import random
import urllib.parse
from dataclasses import asdict, dataclass

HERE = os.path.dirname(os.path.abspath(__file__))
REPO = os.path.dirname(HERE)
TEST_DATA = os.path.join(REPO, "tests", "data")

PLATFORMS = (("Roku", "roku"), ("FireTV", "firetv"))
MARKERS = {"Roku": "roku", "FireTV": "amazon"}
TLDS = (("com", 50), ("net", 20), ("org", 10), ("tv", 10), ("co.uk", 10))
SYLLABLES = (
    "ka lo mi ne ru ta vi zo pe qu si da fe gu ha jo wa xe yo bo "
    "ri na te lu mo ke sa pi do ve"
).split()
ATS_PREFIXES = (
    "ads", "ad", "track", "tracking", "analytics", "pixel", "beacon", "adtag",
    "metrics", "sb", "pubads", "events", "collect",
)
PLAIN_PREFIXES = ("api", "cdn", "img", "www", "static", "live", "auth", "edge", "m", "content")
HEADER_NAMES = (
    "User-Agent", "Accept", "Accept-Language", "X-Request-Id", "X-Session",
    "Cookie", "Referer", "X-Client-Version", "X-Ad-Id", "X-Device",
    "If-None-Match", "X-Trace",
)
STOP_TOKENS = sorted(
    "amazon android app apple appletv apps channel chromecast com fire firetv "
    "free hd lg net org paid roku samsung sony the tv vizio www".split()
)
KEYWORDS = ["ad", "ads", "adtag", "track", "tracking", "analytics"]


@dataclass(frozen=True)
class Shape:
    """Size and mix of one workload's generated inputs (per platform bundle)."""

    flows: int
    transactions: int
    names: int
    eslds: int
    apps: int
    developers: int
    list_lines: int  # lines per synthesized list; 0 = fixture-sized lists
    pii_rate: float  # share of transactions carrying one planted PII value
    headers: int  # headers per request, Host included
    uri_params: int
    zipf_s: float  # skew of destination popularity


SHAPES = {
    # Many distinct names over many eSLDs, flows >> transactions, four
    # large lists: traffic parsing, eSLD resolution and list build/match.
    "offline-wide": Shape(
        flows=5000, transactions=400, names=1500, eslds=300, apps=80,
        developers=40, list_lines=4000, pii_rate=0.05, headers=3,
        uri_params=2, zipf_s=0.9,
    ),
    # Few names contacted by many apps, HTTP-heavy with many headers and
    # long URIs, fixture-sized lists: PII scan and party classification.
    "offline-dense": Shape(
        flows=2000, transactions=1200, names=240, eslds=24, apps=150,
        developers=60, list_lines=0, pii_rate=0.10, headers=12,
        uri_params=8, zipf_s=0.6,
    ),
}

LIST_FORMATS = {
    # name -> [(file name, line prefix)]
    "PD": [("pd.txt", "0.0.0.0 "), ("pd_extra.txt", "0.0.0.0 ")],
    "TF": [("tf.txt", "")],
    "MoaAB": [("moaab.txt", "127.0.0.1 ")],
    "SATV": [("satv.txt", "")],
}


class Zipf:
    """Seeded Zipf-like sampler over a fixed ranking."""

    def __init__(self, items, s: float, rng: random.Random):
        self.items = list(items)
        self.rng = rng
        acc = 0.0
        self.cum = []
        for rank in range(1, len(self.items) + 1):
            acc += 1.0 / rank**s
            self.cum.append(acc)

    def __call__(self):
        x = self.rng.random() * self.cum[-1]
        return self.items[min(bisect.bisect_left(self.cum, x), len(self.items) - 1)]


def _word(rng: random.Random, lo: int = 2, hi: int = 3) -> str:
    return "".join(rng.choice(SYLLABLES) for _ in range(rng.randint(lo, hi)))


def _tld(rng: random.Random) -> str:
    return rng.choices([t for t, _ in TLDS], weights=[w for _, w in TLDS])[0]


def _hex(rng: random.Random, n: int) -> str:
    return "".join(rng.choice("0123456789abcdef") for _ in range(n))


@dataclass
class App:
    app_ids: dict  # platform label -> app id
    developer: str | None
    own_names: list  # first-party fqdns


def _population(shape: Shape, rng: random.Random):
    """eSLDs, fqdns (ranked by popularity) and their ATS flag."""
    counter = itertools.count(1)
    eslds = []  # (esld, kind) with kind in ats|plain|roku|amazon
    for _ in range(shape.eslds):
        roll = rng.random()
        if roll < 0.04:
            kind = rng.choice(("roku", "amazon"))
            label = f"{kind}{_word(rng, 1, 2)}{next(counter)}"
        else:
            kind = "ats" if roll < 0.30 else "plain"
            label = f"{_word(rng)}{next(counter)}"
        eslds.append((f"{label}.{_tld(rng)}", kind))
    names, seen = [], set()
    per_esld = max(1, shape.names // max(1, len(eslds)))
    for esld, kind in eslds:
        names.append((esld, kind))
        seen.add(esld)
    while len(names) < shape.names:
        # Half the names crowd onto a few eSLDs (a Pareto tail), half spread out.
        if rng.random() < 0.5:
            esld, kind = eslds[min(int(rng.paretovariate(1.2)) - 1, len(eslds) - 1)]
        else:
            esld, kind = rng.choice(eslds)
        prefix = rng.choice(ATS_PREFIXES if kind == "ats" else PLAIN_PREFIXES)
        number = rng.choice(["", "", str(rng.randint(1, 9 * per_esld))])
        fqdn = f"{prefix}{number}.{esld}"
        if rng.random() < 0.25:
            fqdn = f"{rng.choice(('us', 'eu', 'east', 'v2', 'prod'))}-{rng.randint(1, 40)}.{fqdn}"
        if fqdn not in seen:
            seen.add(fqdn)
            names.append((fqdn, kind))
    rng.shuffle(names)
    return eslds, names


def _apps(shape: Shape, rng: random.Random, counter) -> list[App]:
    devs = [f"{_word(rng).capitalize()} {rng.choice(['Media', 'Labs', 'Inc', 'Studios', 'Networks'])}" for _ in range(shape.developers)]
    apps, words = [], set()
    labels = [label for label, _ in PLATFORMS]
    while len(apps) < shape.apps:
        word = _word(rng)
        if word in words:
            continue
        words.add(word)
        suffix = rng.choice(["Play", "Live", "Go", "Now", "Plus", "Stream"])
        on = labels if rng.random() < 0.4 else [rng.choice(labels)]
        app_ids = {
            label: f"{word.capitalize()} {suffix}" if label == "Roku" else f"com.{word}.{suffix.lower()}.firetv"
            for label in on
        }
        developer = None if rng.random() < 0.05 else rng.choice(devs)
        own = []
        for _ in range(rng.randint(1, 2)):
            esld = f"{word}{next(counter)}.{_tld(rng)}"
            own.extend(f"{p}.{esld}" for p in rng.sample(PLAIN_PREFIXES, 2))
        apps.append(App(app_ids, developer, own))
    return apps


def _pii_spec(rng: random.Random) -> dict:
    mac = ":".join(_hex(rng, 2).upper() for _ in range(6))
    lat = f"{rng.uniform(20, 50):.4f}"
    lon = f"{-rng.uniform(70, 120):.4f}"
    return {
        "advertising_id": [f"{_hex(rng, 8)}-{_hex(rng, 4)}-{_hex(rng, 4)}-{_hex(rng, 4)}-{_hex(rng, 12)}"],
        "serial_number": [f"X{rng.randint(0, 9)}C{_hex(rng, 11).upper()}"],
        "device_id": [f"G{rng.randint(1000, 9999)}W{rng.randint(10**11, 10**12 - 1)}"],
        "account_name": [f"{_word(rng)}.{_word(rng)}@example.com"],
        "mac_address": [mac],
        "location": [f"{lat},{lon}"],
    }


def _planted_value(spec: dict, rng: random.Random) -> list[tuple[str, str]]:
    """(param/header name, value) pairs for one planted PII exposure."""
    kind = rng.choice(list(spec))
    raw = spec[kind][0]
    if kind == "location":
        lat, lon = raw.split(",")
        enc = rng.choice(("plain", "plain", "md5"))
        if enc == "md5":
            lat, lon = (hashlib.md5(v[: v.index(".") + 4].encode()).hexdigest() for v in (lat, lon))
        return [("lat", lat), ("lon", lon)]
    if kind == "mac_address":
        octets = raw.split(":")
        text = rng.choice([":".join(octets), "-".join(octets).lower(), "".join(octets).lower()])
    elif kind == "account_name":
        text = urllib.parse.quote(raw, safe="") if rng.random() < 0.5 else raw
    else:
        text = raw
    enc = rng.choice(("plain", "plain", "md5", "sha1"))
    if enc != "plain":
        text = getattr(hashlib, enc)(urllib.parse.unquote(text).encode()).hexdigest()
        if rng.random() < 0.3:
            text = text.upper()
    name = {"advertising_id": "adid", "serial_number": "sn", "device_id": "did",
            "account_name": "user", "mac_address": "mac"}[kind]
    return [(name, text)]


def _capture(label, platform, shape, apps, names, spec, rng):
    ranked = [f for f, _ in names]
    pick_name = Zipf(ranked, shape.zipf_s, rng)
    mine = [a for a in apps if label in a.app_ids]
    pick_app = Zipf(mine, 0.7, rng)
    marker_names = [f for f, k in names if k == MARKERS[label]] or [
        f"logs.{MARKERS[label]}{label.lower()}1.com"
    ]
    device = f"{platform}-lab-01"
    ts = 1_720_000_000_000
    flows = []
    for i in range(shape.flows):
        app = pick_app()
        roll = rng.random()
        if roll < 0.01:
            fqdn = f"10.{rng.randint(0, 255)}.{rng.randint(0, 255)}.{rng.randint(1, 254)}"
        elif roll < 0.06:
            fqdn = rng.choice(marker_names)
        elif roll < 0.30:
            fqdn = rng.choice(app.own_names)
        else:
            fqdn = pick_name()
        obj = {"device_id": device, "platform": label}
        if rng.random() >= 0.03:
            obj["app_id"] = app.app_ids[label]
            if app.developer:
                obj["developer"] = app.developer
        obj.update(fqdn=fqdn, start_time=ts + i * 37, bytes_up=rng.randint(80, 4000),
                   bytes_down=rng.randint(200, 90000))
        flows.append(obj)
    txs = []
    for i in range(shape.transactions):
        app = pick_app()
        fqdn = rng.choice(app.own_names) if rng.random() < 0.2 else pick_name()
        params = [(rng.choice(("id", "v", "sid", "q", "ts", "ref", "c", "n")) + str(j), _hex(rng, rng.randint(8, 28)))
                  for j in range(shape.uri_params)]
        headers = [["Host", fqdn]] + [
            [rng.choice(HEADER_NAMES), _hex(rng, rng.randint(12, 40))] for _ in range(shape.headers - 1)
        ]
        if rng.random() < shape.pii_rate:
            planted = _planted_value(spec, rng)
            if rng.random() < 0.7 or len(headers) < 2:
                params[rng.randrange(len(params) + 1):0] = planted
            else:
                slot = rng.randrange(1, len(headers))
                headers[slot][1] = planted[0][1]
                if len(planted) > 1:
                    headers.append(["X-Geo", planted[1][1]])
        uri = f"/{_word(rng, 1, 2)}/{_word(rng, 1, 2)}?" + "&".join(f"{k}={v}" for k, v in params)
        obj = {"app_id": app.app_ids[label]}
        if app.developer:
            obj["developer"] = app.developer
        obj.update(platform=label, fqdn=fqdn, method=rng.choice(("GET", "GET", "POST")), uri=uri,
                   headers=headers, was_encrypted=rng.random() < 0.6, timestamp=ts + 500_000 + i * 1733)
        txs.append(obj)
    return flows, txs


def _lists(shape: Shape, names, eslds, rng: random.Random) -> dict[str, list[str]]:
    """List name -> entries, in file order."""
    ats = [f for f, k in names if k == "ats"]
    ats_eslds = [e for e, k in eslds if k == "ats"]
    platform = [f for f, k in names if k in ("roku", "amazon")]
    out = {}
    for name in LIST_FORMATS:
        if shape.list_lines:
            chosen = rng.sample(ats, int(len(ats) * rng.uniform(0.2, 0.45)))
            chosen += rng.sample(ats_eslds, int(len(ats_eslds) * 0.1))
            chosen += rng.sample(platform, min(len(platform), 3))
            filler = max(0, shape.list_lines - len(chosen))
            counter = itertools.count(1)
            chosen += [
                f"{rng.choice(ATS_PREFIXES)}.z{_word(rng)}{next(counter)}.{_tld(rng)}" for _ in range(filler)
            ]
        else:
            chosen = rng.sample(ats, min(len(ats), rng.randint(10, 25)))
            chosen += rng.sample(platform, min(len(platform), 2))
        rng.shuffle(chosen)
        out[name] = chosen
    return out


def _write_jsonl(path, objs):
    with open(path, "w", encoding="utf-8") as fh:
        for obj in objs:
            fh.write(json.dumps(obj, separators=(",", ":")) + "\n")


def generate(workload: str, seed: int, out: str) -> dict:
    """Write one workload's inputs under ``out``; returns a manifest."""
    shape = SHAPES[workload]
    rng = random.Random(f"tvblock-bench:{workload}:{seed}")
    os.makedirs(os.path.join(out, "lists"), exist_ok=True)
    eslds, names = _population(shape, rng)
    apps = _apps(shape, rng, itertools.count(10**6))
    spec = _pii_spec(rng)
    manifest = {"workload": workload, "seed": seed, "shape": asdict(shape), "bundles": {}}
    for label, platform in PLATFORMS:
        flows, txs = _capture(label, platform, shape, apps, names, spec, rng)
        flows_path = os.path.join(out, f"{platform}_flows.jsonl")
        http_path = os.path.join(out, f"{platform}_http.jsonl")
        _write_jsonl(flows_path, flows)
        _write_jsonl(http_path, txs)
        manifest["bundles"][label] = {"platform": platform, "flows": flows_path, "http": http_path}
    lists = _lists(shape, names, eslds, rng)
    config_lists = {}
    for name, files in LIST_FORMATS.items():
        entries = lists[name]
        cut = len(entries) * 4 // 5 if len(files) > 1 else len(entries)
        chunks = [entries[:cut], entries[cut:]] if len(files) > 1 else [entries]
        config_lists[name] = []
        for (fname, prefix), chunk in zip(files, chunks):
            with open(os.path.join(out, "lists", fname), "w", encoding="utf-8") as fh:
                fh.write(f"# {name} synthesized for seed {seed}\n{prefix or '0.0.0.0 '}localhost\n\n")
                for i, entry in enumerate(chunk):
                    fh.write(f"{prefix}{entry}" + (f"  # entry {i}" if i % 97 == 5 else "") + "\n")
            config_lists[name].append(f"lists/{fname}")
    with open(os.path.join(out, "pii_spec.json"), "w", encoding="utf-8") as fh:
        json.dump(spec, fh, indent=2)
    os.chmod(os.path.join(out, "pii_spec.json"), 0o600)
    config = {
        "psl_path": os.path.join(TEST_DATA, "public_suffix_list.dat"),
        "lists": config_lists,
        "match_mode": "exact",
        "platform_markers": {label: [MARKERS[label]] for label, _ in PLATFORMS},
        "stop_tokens": STOP_TOKENS,
        "keywords": KEYWORDS,
        "max_bucket": 8,
        "pii_spec_path": "pii_spec.json",
        "org_esld_path": os.path.join(TEST_DATA, "org_esld.jsonl"),
        "org_parent_path": os.path.join(TEST_DATA, "org_parent.jsonl"),
        "ats_labels_path": os.path.join(TEST_DATA, "ats_labels.jsonl"),
    }
    manifest["config"] = os.path.join(out, "config.json")
    with open(manifest["config"], "w", encoding="utf-8") as fh:
        json.dump(config, fh, indent=2)
    manifest["list_entries"] = {name: sorted(set(e)) for name, e in lists.items()}
    manifest["names"] = [f for f, _ in names] + sorted({n for a in apps for n in a.own_names})
    return manifest

