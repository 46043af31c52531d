import math
import random
import struct

import pytest

from tvblock.party import ClassificationContext, PartyLabel
from tvblock.blocklists import BlockList
from tvblock.pii import (
    Encoding,
    ExposureRecord,
    InvalidCoordinate,
    InvalidMac,
    PiiKind,
    PiiSpec,
    attribute_exposures,
    build_all_variants,
    build_variants,
    load_pii_specs,
    redact,
    scan_transaction,
)
from tvblock.traffic import HttpTransaction, Platform

# -- independent digest oracles (from-scratch RFC 1321 / RFC 3174) -----------


def _rotl(x: int, c: int) -> int:
    return ((x << c) | (x >> (32 - c))) & 0xFFFFFFFF


_MD5_S = [7, 12, 17, 22] * 4 + [5, 9, 14, 20] * 4 + [4, 11, 16, 23] * 4 + [6, 10, 15, 21] * 4
_MD5_K = [int(abs(math.sin(i + 1)) * 2**32) & 0xFFFFFFFF for i in range(64)]


def md5_oracle(data: bytes) -> str:
    a0, b0, c0, d0 = 0x67452301, 0xEFCDAB89, 0x98BADCFE, 0x10325476
    msg = bytearray(data)
    msg.append(0x80)
    while len(msg) % 64 != 56:
        msg.append(0)
    msg += struct.pack("<Q", (8 * len(data)) & 0xFFFFFFFFFFFFFFFF)
    for off in range(0, len(msg), 64):
        m = struct.unpack("<16I", msg[off:off + 64])
        a, b, c, d = a0, b0, c0, d0
        for i in range(64):
            if i < 16:
                f, g = (b & c) | (~b & d), i
            elif i < 32:
                f, g = (d & b) | (~d & c), (5 * i + 1) % 16
            elif i < 48:
                f, g = b ^ c ^ d, (3 * i + 5) % 16
            else:
                f, g = c ^ (b | ~d), (7 * i) % 16
            f = (f + a + _MD5_K[i] + m[g]) & 0xFFFFFFFF
            a, d, c = d, c, b
            b = (b + _rotl(f, _MD5_S[i])) & 0xFFFFFFFF
        a0, b0 = (a0 + a) & 0xFFFFFFFF, (b0 + b) & 0xFFFFFFFF
        c0, d0 = (c0 + c) & 0xFFFFFFFF, (d0 + d) & 0xFFFFFFFF
    return struct.pack("<4I", a0, b0, c0, d0).hex()


def sha1_oracle(data: bytes) -> str:
    state = [0x67452301, 0xEFCDAB89, 0x98BADCFE, 0x10325476, 0xC3D2E1F0]
    msg = bytearray(data)
    msg.append(0x80)
    while len(msg) % 64 != 56:
        msg.append(0)
    msg += struct.pack(">Q", 8 * len(data))
    for off in range(0, len(msg), 64):
        w = list(struct.unpack(">16I", msg[off:off + 64]))
        for i in range(16, 80):
            w.append(_rotl(w[i - 3] ^ w[i - 8] ^ w[i - 14] ^ w[i - 16], 1))
        a, b, c, d, e = state
        for i in range(80):
            if i < 20:
                f, k = (b & c) | (~b & d), 0x5A827999
            elif i < 40:
                f, k = b ^ c ^ d, 0x6ED9EBA1
            elif i < 60:
                f, k = (b & c) | (b & d) | (c & d), 0x8F1BBCDC
            else:
                f, k = b ^ c ^ d, 0xCA62C1D6
            a, b, c, d, e = (
                (_rotl(a, 5) + f + e + k + w[i]) & 0xFFFFFFFF,
                a,
                _rotl(b, 30),
                c,
                d,
            )
        state = [(x + y) & 0xFFFFFFFF for x, y in zip(state, (a, b, c, d, e))]
    return b"".join(struct.pack(">I", x) for x in state).hex()


def tx(uri="/", headers=(), fqdn="dest.example.com", app="App", body=None):
    return HttpTransaction(
        app_id=app,
        platform=Platform("Roku"),
        fqdn=fqdn,
        method="GET",
        uri=uri,
        headers=tuple(headers),
        was_encrypted=False,
        timestamp=1000,
        developer="Dev Co",
        body=body,
    )


def needles(variants, encoding=None):
    return {v.needle for v in variants if encoding is None or v.encoding is encoding}


class TestDigestOracles:
    def test_known_vectors(self):
        assert md5_oracle(b"abc") == "900150983cd24fb0d6963f7d28e17f72"
        assert sha1_oracle(b"abc") == "a9993e364706816aba3e25717850c26c9cd0d89d"

    def test_variant_digests_match_independent_oracles(self):
        rng = random.Random(1234)
        alphabet = "abcdefghijklmnopqrstuvwxyz0123456789-_@."
        for _ in range(100):
            value = "".join(rng.choice(alphabet) for _ in range(rng.randrange(1, 40)))
            spec = PiiSpec(PiiKind.DEVICE_ID, (value,))
            variants = build_variants(spec)
            md5s = needles(variants, Encoding.MD5)
            sha1s = needles(variants, Encoding.SHA1)
            assert md5_oracle(value.encode()) in md5s
            assert sha1_oracle(value.encode()) in sha1s


class TestBuildVariants:
    def test_abc_digest_values(self):
        variants = build_variants(PiiSpec(PiiKind.SERIAL_NUMBER, ("abc",)))
        assert "900150983cd24fb0d6963f7d28e17f72" in needles(variants, Encoding.MD5)
        assert "a9993e364706816aba3e25717850c26c9cd0d89d" in needles(
            variants, Encoding.SHA1
        )
        assert "abc" in needles(variants, Encoding.PLAIN)

    def test_mac_bare_hex_expansion(self):
        spec = PiiSpec(PiiKind.MAC_ADDRESS, ("AA:BB:CC:DD:EE:FF",))
        variants = build_variants(spec)
        plains = needles(variants, Encoding.PLAIN)
        assert plains == {
            "aa:bb:cc:dd:ee:ff", "AA:BB:CC:DD:EE:FF",
            "aa-bb-cc-dd-ee-ff", "AA-BB-CC-DD-EE-FF",
            "aabbccddeeff", "AABBCCDDEEFF",
        }
        # digests cover both hex cases
        md5s = needles(variants, Encoding.MD5)
        assert len(md5s) == 6
        assert {md5_oracle(b"aabbccddeeff"), md5_oracle(b"AABBCCDDEEFF")} <= md5s

    def test_mac_all_formats(self):
        spec = PiiSpec(PiiKind.MAC_ADDRESS, ("aa-bb-cc-dd-ee-ff",))
        plains = needles(build_variants(spec), Encoding.PLAIN)
        assert "aa:bb:cc:dd:ee:ff" in plains
        assert "aa-bb-cc-dd-ee-ff" in plains
        assert "aabbccddeeff" in plains

    def test_invalid_mac_raises(self):
        with pytest.raises(InvalidMac):
            build_variants(PiiSpec(PiiKind.MAC_ADDRESS, ("zz:bb:cc:dd:ee:ff",)))

    def test_location_truncation(self):
        spec = PiiSpec(PiiKind.LOCATION, ("33.6846,-117.8265",))
        variants = build_variants(spec)
        plains = needles(variants, Encoding.PLAIN)
        assert plains == {"33.684", "-117.826"}

    def test_invalid_coordinate_raises(self):
        with pytest.raises(InvalidCoordinate):
            build_variants(PiiSpec(PiiKind.LOCATION, ("north,south",)))
        with pytest.raises(InvalidCoordinate):
            build_variants(PiiSpec(PiiKind.LOCATION, ("91.0",)))

    def test_case_fold_adds_lowercase_form(self):
        variants = build_variants(PiiSpec(PiiKind.SERIAL_NUMBER, ("ABC123",)))
        plains = needles(variants, Encoding.PLAIN)
        assert plains == {"ABC123", "abc123"}

    def test_spec_file_loading(self):
        specs = load_pii_specs('{"advertising_id": ["x-1"], "serial_number": "SN9"}')
        kinds = {s.kind for s in specs}
        assert kinds == {PiiKind.ADVERTISING_ID, PiiKind.SERIAL_NUMBER}


ADID = "fa3c7e19-0a2b-4c5d-8e9f-1234567890ab"
SERIAL = "X0C4AB12345678"

SPECS = [
    PiiSpec(PiiKind.ADVERTISING_ID, (ADID,)),
    PiiSpec(PiiKind.SERIAL_NUMBER, (SERIAL,)),
    PiiSpec(PiiKind.LOCATION, ("33.6846,-117.8265",)),
]
VARIANTS = build_all_variants(SPECS)


class TestScanTransaction:
    def test_plain_adid_in_uri(self):
        records = scan_transaction(tx(uri=f"/GetAds?adid={ADID}"), VARIANTS)
        assert [(r.pii_kind, r.encoding, r.location) for r in records] == [
            (PiiKind.ADVERTISING_ID, Encoding.PLAIN, "uri")
        ]

    def test_sha1_serial_in_header(self):
        digest = sha1_oracle(SERIAL.encode())
        records = scan_transaction(tx(headers=[("X-Dev", digest)]), VARIANTS)
        assert [(r.pii_kind, r.encoding, r.location) for r in records] == [
            (PiiKind.SERIAL_NUMBER, Encoding.SHA1, "header:X-Dev")
        ]

    def test_clean_transaction_yields_nothing(self):
        assert scan_transaction(tx(uri="/innocent?x=1"), VARIANTS) == []

    def test_multiple_kinds_in_one_request(self):
        records = scan_transaction(
            tx(uri=f"/r?adid={ADID}&sn={SERIAL}"), VARIANTS
        )
        kinds = {r.pii_kind for r in records}
        assert kinds == {PiiKind.ADVERTISING_ID, PiiKind.SERIAL_NUMBER}

    def test_repeat_occurrences_deduplicate(self):
        records = scan_transaction(tx(uri=f"/r?a={ADID}&b={ADID}"), VARIANTS)
        assert len(records) == 1

    def test_percent_encoded_values_found_after_decoding(self):
        records = scan_transaction(
            tx(uri="/r?user=pat.fixture%40example.com"),
            build_all_variants([PiiSpec(PiiKind.ACCOUNT_NAME, ("pat.fixture@example.com",))]),
        )
        assert len(records) == 1

    def test_location_requires_both_halves(self):
        lat_only = scan_transaction(tx(uri="/r?lat=33.6846"), VARIANTS)
        assert lat_only == []
        both = scan_transaction(tx(uri="/r?lat=33.6846&long=-117.8265"), VARIANTS)
        assert [(r.pii_kind, r.encoding) for r in both] == [
            (PiiKind.LOCATION, Encoding.PLAIN)
        ]

    def test_location_halves_may_split_across_surfaces(self):
        records = scan_transaction(
            tx(uri="/r?lat=33.6846", headers=[("X-Long", "-117.8265")]), VARIANTS
        )
        assert len(records) == 1

    def test_uppercase_hex_digest_matches_case_insensitively(self):
        digest = md5_oracle(ADID.encode()).upper()
        records = scan_transaction(tx(uri=f"/r?h={digest}"), VARIANTS)
        assert [(r.pii_kind, r.encoding) for r in records] == [
            (PiiKind.ADVERTISING_ID, Encoding.MD5)
        ]

    def test_body_is_never_scanned(self):
        t = tx(uri="/r", body=f"adid={ADID}")
        assert scan_transaction(t, VARIANTS) == []


class TestScanCompletenessOracle:
    def test_matches_brute_force_position_scan(self):
        rng = random.Random(77)
        variants = build_all_variants(SPECS)
        plain_needles = sorted(needles(variants), key=len)
        for _ in range(60):
            pieces = []
            for _ in range(rng.randrange(0, 4)):
                pieces.append(rng.choice(plain_needles))
                pieces.append(
                    "".join(rng.choice("abcdef&=/") for _ in range(rng.randrange(0, 6)))
                )
            uri = "/q?" + "".join(pieces)
            header_val = rng.choice(plain_needles) if rng.random() < 0.5 else "clean"
            t = tx(uri=uri, headers=[("X-H", header_val)])
            records = scan_transaction(t, variants)
            surfaces = {"uri": uri, "header:Host": "", "header:X-H": header_val}
            found = set()
            halves = {}
            for v in variants:
                for where, hay in surfaces.items():
                    hit = any(
                        hay.lower()[i:i + len(v.needle)] == v.needle.lower()
                        for i in range(len(hay) - len(v.needle) + 1)
                    )
                    if hit:
                        if v.kind is PiiKind.LOCATION:
                            halves.setdefault((v.encoding, v.component), set()).add(where)
                        else:
                            found.add((v.kind, v.encoding, where))
            for encoding in {e for e, _ in halves}:
                if (encoding, "lat") in halves and (encoding, "long") in halves:
                    lat_wheres = halves[(encoding, "lat")]
                    where = "uri" if "uri" in lat_wheres else sorted(lat_wheres)[0]
                    found.add((PiiKind.LOCATION, encoding, where))
            got = {(r.pii_kind, r.encoding, r.location) for r in records}
            assert got == found, uri


class TestRedact:
    def test_uri_redaction_token(self):
        t = tx(uri=f"/p?adid={ADID}")
        records = scan_transaction(t, VARIANTS)
        out = redact(t, records)
        assert out.uri == "/p?adid=REDACTED_ADVERTISINGID"

    def test_no_matches_is_identity(self):
        t = tx(uri="/p?x=1")
        assert redact(t, scan_transaction(t, VARIANTS)) == t

    def test_two_matches_both_replaced(self):
        t = tx(uri=f"/p?a={ADID}&sn={SERIAL}")
        out = redact(t, scan_transaction(t, VARIANTS))
        assert "REDACTED_ADVERTISINGID" in out.uri
        assert "REDACTED_SERIALNUMBER" in out.uri
        assert ADID not in out.uri and SERIAL not in out.uri

    def test_rescan_of_redacted_is_empty(self):
        rng = random.Random(55)
        variants = build_all_variants(SPECS)
        pool = sorted(needles(variants))
        for _ in range(40):
            uri = "/x?" + "&".join(
                f"k{i}={rng.choice(pool)}" for i in range(rng.randrange(1, 4))
            )
            headers = [("X-A", rng.choice(pool)), ("X-B", "clean-value")]
            t = tx(uri=uri, headers=headers)
            records = scan_transaction(t, variants)
            out = redact(t, records)
            assert scan_transaction(out, variants) == []

    def test_header_values_redacted(self):
        t = tx(headers=[("X-Serial", SERIAL)])
        out = redact(t, scan_transaction(t, VARIANTS))
        assert out.header("X-Serial") == "REDACTED_SERIALNUMBER"

    def test_redacted_uri_is_percent_decoded(self):
        t = tx(uri=f"/p?adid={ADID}&q=a%20b%2Fc")
        out = redact(t, scan_transaction(t, VARIANTS))
        assert out.uri == "/p?adid=REDACTED_ADVERTISINGID&q=a b/c"

    def test_body_scrubbed_of_needles_found_elsewhere(self):
        t = tx(
            uri=f"/p?adid={ADID}",
            headers=[("X-Serial", SERIAL)],
            body=f"a={ADID.upper()}&s={SERIAL}&x=1",
        )
        out = redact(t, scan_transaction(t, VARIANTS))
        assert out.body == "a=REDACTED_ADVERTISINGID&s=REDACTED_SERIALNUMBER&x=1"


class TestAttributeExposures:
    def _ctx(self):
        return ClassificationContext(
            platform_markers=frozenset({"roku"}),
            esld_to_apps={
                "listed.com": frozenset({("App", "Dev Co"), ("Other", "Else Inc")}),
                "unlisted.com": frozenset({("App", "Dev Co"), ("Other", "Else Inc")}),
                "roku.com": frozenset({("App", "Dev Co")}),
            },
        )

    def _lists(self):
        return [BlockList("PD", frozenset({"pii.listed.com"}))]

    def test_blocked_fraction_half(self, rules):
        records = []
        for fqdn in ("pii.listed.com", "pii.unlisted.com"):
            records.extend(
                scan_transaction(tx(uri=f"/r?adid={ADID}", fqdn=fqdn), VARIANTS)
            )
        done = attribute_exposures(records, self._ctx(), self._lists(), rules)
        assert len(done) == 2
        blocked = [r for r in done if r.blocked]
        assert len(blocked) == 1
        assert blocked[0].fqdn == "pii.listed.com"
        assert all(r.party is PartyLabel.THIRD_PARTY for r in done)

    def test_platform_marker_party(self, rules):
        records = scan_transaction(
            tx(uri=f"/r?adid={ADID}", fqdn="p.ads.roku.com"), VARIANTS
        )
        done = attribute_exposures(records, self._ctx(), self._lists(), rules)
        assert done[0].party is PartyLabel.PLATFORM
        assert done[0].esld == "roku.com"

    def test_ip_destination_stays_undetermined(self, rules):
        records = scan_transaction(tx(uri=f"/r?adid={ADID}", fqdn="10.1.2.3"), VARIANTS)
        done = attribute_exposures(records, self._ctx(), self._lists(), rules)
        assert done[0].party is PartyLabel.UNDETERMINED
        assert done[0].esld == "10.1.2.3"

    def test_serialization_roundtrip_drops_matched_values(self, rules):
        records = scan_transaction(tx(uri=f"/r?adid={ADID}", fqdn="pii.listed.com"), VARIANTS)
        done = attribute_exposures(records, self._ctx(), self._lists(), rules)
        obj = done[0].to_json()
        assert "matched_values" not in obj
        assert ADID not in str(obj)
        back = ExposureRecord.from_json(obj)
        assert back.pii_kind is done[0].pii_kind
        assert back.blocked_by == done[0].blocked_by
