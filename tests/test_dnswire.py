import struct

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tvblock import dnswire, sinkhole
from tvblock.blocklists import BlockList
from tvblock.dnswire import (
    RCODE_FORMERR,
    RCODE_NXDOMAIN,
    TYPE_A,
    TYPE_AAAA,
    TYPE_TXT,
    Message,
    WireError,
    a_rdata,
    build_error_response,
    build_query,
    build_response,
    decode_name,
    encode_name,
    parse_message,
    set_txid,
    truncate_for_udp,
    type_name,
)


class TestNames:
    def test_encode_decode_roundtrip(self):
        for name in ["example.com", "a.b.c.d.example.co.uk", "single"]:
            encoded = encode_name(name)
            decoded, offset = decode_name(encoded, 0)
            assert decoded == name
            assert offset == len(encoded)

    def test_trailing_dot_ignored(self):
        assert encode_name("example.com.") == encode_name("example.com")

    def test_compression_pointer(self):
        # name at offset 0, then a pointer to it
        raw = encode_name("ads.example.com") + b"\xc0\x00"
        name, offset = decode_name(raw, len(raw) - 2)
        assert name == "ads.example.com"
        assert offset == len(raw)

    def test_pointer_loop_detected(self):
        raw = b"\xc0\x00"
        with pytest.raises(WireError):
            decode_name(raw, 0)

    def test_oversize_label_rejected(self):
        with pytest.raises(WireError):
            encode_name("a" * 64 + ".com")


class TestQueryRoundTrip:
    def test_build_and_parse(self):
        raw = build_query("ads.example.com", TYPE_A, txid=0x1234)
        msg = parse_message(raw)
        assert msg.header.txid == 0x1234
        assert not msg.header.qr
        assert msg.header.rd
        assert msg.question.qname == "ads.example.com"
        assert msg.question.qtype == TYPE_A

    def test_type_names(self):
        assert type_name(TYPE_A) == "A"
        assert type_name(TYPE_AAAA) == "AAAA"
        assert type_name(4095) == "TYPE4095"


class TestBuildResponse:
    def _query(self, qtype=TYPE_A):
        return parse_message(build_query("blocked.example.com", qtype, txid=7))

    def test_flags_and_answer(self):
        query = self._query()
        raw = build_response(query, answers=((TYPE_A, 2, a_rdata("0.0.0.0")),))
        msg = parse_message(raw)
        assert msg.header.txid == 7
        assert msg.header.qr and msg.header.ra and msg.header.rd
        assert msg.header.rcode == 0
        assert len(msg.answers) == 1
        record = msg.answers[0]
        assert record.name == "blocked.example.com"
        assert record.ttl == 2
        assert record.address == "0.0.0.0"

    def test_rd_bit_copied_when_clear(self):
        query = parse_message(build_query("x.com", TYPE_A, txid=9, rd=False))
        msg = parse_message(build_response(query))
        assert not msg.header.rd

    def test_nxdomain_has_no_answers(self):
        raw = build_response(self._query(), rcode=RCODE_NXDOMAIN)
        msg = parse_message(raw)
        assert msg.header.rcode == RCODE_NXDOMAIN
        assert msg.answers == ()

    def test_question_echoed(self):
        raw = build_response(self._query(TYPE_TXT))
        msg = parse_message(raw)
        assert msg.question.qname == "blocked.example.com"
        assert msg.question.qtype == TYPE_TXT


class TestErrorsAndEdges:
    def test_error_response_echoes_txid(self):
        query = build_query("q.example.com", TYPE_A, txid=0xBEEF)
        raw = build_error_response(query, RCODE_FORMERR)
        msg = parse_message(raw)
        assert msg.header.txid == 0xBEEF
        assert msg.header.rcode == RCODE_FORMERR
        assert msg.header.qdcount == 0

    def test_set_txid(self):
        raw = build_query("q.example.com", TYPE_A, txid=1)
        assert parse_message(set_txid(raw, 0xABCD)).header.txid == 0xABCD

    def test_truncated_message_rejected(self):
        with pytest.raises(WireError):
            parse_message(b"\x00\x01\x00")

    def test_truncate_sets_tc_and_keeps_question(self):
        query = parse_message(build_query("big.example.com", TYPE_TXT, txid=3))
        big_rdata = b"x" * 600
        raw = build_response(query, answers=((TYPE_TXT, 60, big_rdata),))
        assert len(raw) <= 512
        msg = parse_message(raw)
        assert msg.header.tc
        assert msg.question.qname == "big.example.com"
        assert msg.answers == ()

    def test_small_responses_not_truncated(self):
        query = parse_message(build_query("s.example.com", TYPE_A, txid=4))
        raw = build_response(query, answers=((TYPE_A, 2, a_rdata("0.0.0.0")),))
        assert truncate_for_udp(raw) == raw

    def test_multi_question_message_parses(self):
        # two questions back to back; the server formerrs on these upstream
        q1 = encode_name("a.com") + struct.pack(">HH", TYPE_A, 1)
        q2 = encode_name("b.com") + struct.pack(">HH", TYPE_A, 1)
        header = struct.pack(">HHHHHH", 5, 0x0100, 2, 0, 0, 0)
        msg = parse_message(header + q1 + q2)
        assert msg.header.qdcount == 2
        assert len(msg.questions) == 2
        with pytest.raises(WireError):
            _ = msg.question

    def test_pointer_only_after_the_first_question_name(self):
        # the first name can point only into the header or forward: malformed
        type_class = struct.pack(">HH", TYPE_A, 1)
        header = struct.pack(">HHHHHH", 5, 0x0100, 1, 0, 0, 0)
        with pytest.raises(WireError):
            parse_message(header + b"\x01x\xc0\x14" + type_class + encode_name("ads.example.com"))
        header = struct.pack(">HHHHHH", 5, 0x0100, 2, 0, 0, 0)
        msg = parse_message(header + encode_name("a.com") + type_class + b"\xc0\x0c" + type_class)
        assert [q.qname for q in msg.questions] == ["a.com", "a.com"]

    def test_question_name_over_255_octets_rejected(self):
        header = struct.pack(">HHHHHH", 5, 0x0100, 1, 0, 0, 0)
        type_class = struct.pack(">HH", TYPE_A, 1)
        name = (b"\x3f" + b"a" * 63) * 3 + b"\x3d" + b"a" * 61 + b"\0"  # 255 octets
        assert parse_message(header + name + type_class).question.qname.count(".") == 3
        with pytest.raises(WireError, match="255"):
            parse_message(header + b"\x01x" + name + type_class)

    def test_parse_answers_with_compression(self):
        query = parse_message(build_query("c.example.com", TYPE_AAAA, txid=11))
        raw = build_response(
            query, answers=((TYPE_AAAA, 2, dnswire.aaaa_rdata("::")),)
        )
        msg = parse_message(raw)
        assert msg.answers[0].address == "::"
        assert isinstance(msg, Message)


# Up to 6 labels of up to 63 bytes: some names pass the 255-octet limit.
NAME_WIRE = st.lists(st.binary(min_size=1, max_size=63), min_size=1, max_size=6).map(
    lambda labels: b"".join(bytes([len(l)]) + l for l in labels) + b"\0"
)
ANSWERS = st.lists(
    st.tuples(
        st.sampled_from([TYPE_A, TYPE_AAAA, TYPE_TXT]),
        st.integers(0, 2**31 - 1),
        st.binary(max_size=200),
    ),
    max_size=3,
).map(tuple)


def raw_query(txid, flags, name_wire, qtype, qclass):
    return struct.pack(">HHHHHH", txid, flags, 1, 0, 0, 0) + name_wire + struct.pack(">HH", qtype, qclass)


class TestResponseProperties:
    @settings(deadline=None)
    @given(
        st.integers(0, 0xFFFF), st.integers(0, 0xFFFF), NAME_WIRE, st.integers(0, 0xFFFF),
        st.integers(0, 0xFFFF), st.sampled_from([0, 2, 3]), ANSWERS,
    )
    def test_parsed_query_round_trips_question_bytes_and_txid(
        self, txid, flags, name_wire, qtype, qclass, rcode, answers
    ):
        data = raw_query(txid, flags, name_wire, qtype, qclass)
        if len(name_wire) > 255:
            with pytest.raises(WireError):
                parse_message(data)
            return
        query = parse_message(data)
        raw = build_response(query, rcode=rcode, answers=answers)
        msg = parse_message(raw)
        assert msg.header.txid == txid and msg.header.qr
        assert msg.header.rd == query.header.rd
        assert msg.question == query.question
        assert raw[12:12 + len(data) - 12] == data[12:]  # the question as sent
        assert len(raw) <= dnswire.MAX_UDP_PAYLOAD
        if not msg.header.tc:
            assert [(a.rtype, a.ttl, a.rdata) for a in msg.answers] == list(answers)


def hexbytes(text):
    return bytes.fromhex(text.replace(" ", ""))


QNAME_HEX = "03 616473 07 6578616d706c65 03 636f6d 00"  # ads.example.com


class TestReplyBytes:
    """Every reply kind, byte for byte: the header bits the parsed-field tests
    do not see (AA, Z, the NS and AR counts) are pinned here."""

    CFG = {
        mode: sinkhole.SinkholeConfig(active_lists=("L",), blocking_mode=mode, blocked_ttl=2)
        for mode in ("null", "nxdomain")
    }
    LISTS = (BlockList("L", frozenset({"ads.example.com"})),)

    def reply(self, query_hex, mode="null"):
        return sinkhole.respond(hexbytes(query_hex), self.LISTS, self.CFG[mode]).response

    def test_blocked_a_null(self):
        query = f"beef 0100 0001 0000 0000 0000 {QNAME_HEX} 0001 0001"
        assert self.reply(query) == hexbytes(
            f"beef 8180 0001 0001 0000 0000 {QNAME_HEX} 0001 0001"
            " c00c 0001 0001 00000002 0004 00000000"
        )

    def test_blocked_aaaa_null(self):
        query = f"beef 0100 0001 0000 0000 0000 {QNAME_HEX} 001c 0001"
        assert self.reply(query) == hexbytes(
            f"beef 8180 0001 0001 0000 0000 {QNAME_HEX} 001c 0001"
            " c00c 001c 0001 00000002 0010 00000000000000000000000000000000"
        )

    def test_blocked_mx_null_without_rd(self):
        query = f"0007 0000 0001 0000 0000 0000 {QNAME_HEX} 000f 0001"
        assert self.reply(query) == hexbytes(
            f"0007 8080 0001 0000 0000 0000 {QNAME_HEX} 000f 0001"
        )

    def test_blocked_nxdomain_clears_aa_tc_z_and_keeps_opcode(self):
        # AA, TC, RD, RA, Z = 7 and rcode 5 in the query
        query = f"4242 07f5 0001 0000 0000 0000 {QNAME_HEX} 0001 0001"
        assert self.reply(query, "nxdomain") == hexbytes(
            f"4242 8183 0001 0000 0000 0000 {QNAME_HEX} 0001 0001"
        )
        # opcode 2 as well: not a QUERY, so a header-only NOTIMP that keeps the opcode
        query = f"4242 17f5 0001 0000 0000 0000 {QNAME_HEX} 0001 0001"
        assert self.reply(query, "nxdomain") == hexbytes("4242 9184 0000 0000 0000 0000")

    def test_formerr_for_a_three_byte_datagram(self):
        # the missing header bytes read as zero; opcode 15 and RD come from byte 3
        assert self.reply("abcd 79") == hexbytes("abcd f981 0000 0000 0000 0000")

    def test_formerr_for_two_questions(self):
        question = "01 61 03 636f6d 00 0001 0001"
        query = f"0505 0100 0002 0000 0000 0000 {question} {question}"
        assert self.reply(query) == hexbytes("0505 8181 0000 0000 0000 0000")

    def test_servfail(self):
        query = hexbytes(f"beef 0100 0001 0000 0000 0000 {QNAME_HEX} 0001 0001")
        outcome = sinkhole.Outcome(None, "forwarded")
        assert sinkhole._servfail(query, None, 0, outcome)[2] == hexbytes(
            "beef 8182 0000 0000 0000 0000"
        )

    def test_truncate_for_udp(self):
        # AA, RA, Z = 7 and rcode 3: TC and QR set, Z dropped, counts but QD zeroed
        data = hexbytes(f"0102 04f3 0001 0001 0001 0001 {QNAME_HEX} 0001 0001") + b"\0" * 600
        assert truncate_for_udp(data) == hexbytes(
            f"0102 8683 0001 0000 0000 0000 {QNAME_HEX} 0001 0001"
        )

    def test_build_query_without_rd(self):
        assert build_query("ads.example.com", TYPE_AAAA, 0x1234, rd=False) == hexbytes(
            f"1234 0000 0001 0000 0000 0000 {QNAME_HEX} 001c 0001"
        )
