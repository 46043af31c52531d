"""Minimal RFC 1035 wire codec: enough DNS to sinkhole and forward over UDP.

Parses the 12-byte header, the question section, and resource records
(with compression-pointer support, which responses need). Builds queries
and synthesized responses. Anything beyond single-question UDP messages is
out of scope; the server answers multi-question queries with FORMERR.

This module alone knows the header layout, through the flag constants below
that Header.pack and parse_header share, and the reply rule, in
_reply_header: a reply keeps the query's txid, opcode and RD, sets QR and
RA, and clears AA and TC. Callers read a datagram's txid and check a reply
against its query through get_txid and is_reply, not by offset.
"""

from __future__ import annotations

import socket
import struct
from typing import NamedTuple, Optional

TYPE_A = 1
TYPE_NS = 2
TYPE_CNAME = 5
TYPE_SOA = 6
TYPE_PTR = 12
TYPE_MX = 15
TYPE_TXT = 16
TYPE_AAAA = 28
TYPE_SRV = 33
TYPE_ANY = 255

CLASS_IN = 1

RCODE_NOERROR = 0
RCODE_FORMERR = 1
RCODE_SERVFAIL = 2
RCODE_NXDOMAIN = 3
RCODE_NOTIMP = 4

MAX_UDP_PAYLOAD = 512

_TYPE_NAMES = {
    TYPE_A: "A",
    TYPE_NS: "NS",
    TYPE_CNAME: "CNAME",
    TYPE_SOA: "SOA",
    TYPE_PTR: "PTR",
    TYPE_MX: "MX",
    TYPE_TXT: "TXT",
    TYPE_AAAA: "AAAA",
    TYPE_SRV: "SRV",
    TYPE_ANY: "ANY",
}


def type_name(qtype: int) -> str:
    return _TYPE_NAMES.get(qtype, f"TYPE{qtype}")


class WireError(ValueError):
    pass


# The header's flag word. Header.pack and parse_header both read these; no
# other code knows where a flag sits. Opcode and rcode are 4-bit fields.
_QR, _AA, _TC, _RD, _RA = 1 << 15, 1 << 10, 1 << 9, 1 << 8, 1 << 7
_OPCODE_SHIFT, _NIBBLE = 11, 0xF


class Header(NamedTuple):
    txid: int
    qr: bool
    opcode: int
    aa: bool
    tc: bool
    rd: bool
    ra: bool
    rcode: int
    qdcount: int
    ancount: int
    nscount: int
    arcount: int

    def pack(self) -> bytes:
        flags = (
            _QR * self.qr | (self.opcode & _NIBBLE) << _OPCODE_SHIFT | _AA * self.aa
            | _TC * self.tc | _RD * self.rd | _RA * self.ra | self.rcode & _NIBBLE
        )
        return struct.pack(
            ">HHHHHH", self.txid, flags, self.qdcount, self.ancount, self.nscount, self.arcount
        )


class Question(NamedTuple):
    qname: str
    qtype: int
    qclass: int
    wire: bytes  # the name, type and class bytes as received


class ResourceRecord(NamedTuple):
    name: str
    rtype: int
    rclass: int
    ttl: int
    rdata: bytes

    @property
    def address(self) -> str:
        """Dotted/colon text form of an A or AAAA record's rdata."""
        if self.rtype == TYPE_A and len(self.rdata) == 4:
            return socket.inet_ntop(socket.AF_INET, self.rdata)
        if self.rtype == TYPE_AAAA and len(self.rdata) == 16:
            return socket.inet_ntop(socket.AF_INET6, self.rdata)
        raise WireError(f"record type {self.rtype} has no address form")


class Message(NamedTuple):
    header: Header
    questions: tuple[Question, ...]
    answers: tuple[ResourceRecord, ...] = ()

    @property
    def question(self) -> Question:
        if len(self.questions) != 1:
            raise WireError(f"expected one question, found {len(self.questions)}")
        return self.questions[0]


def encode_name(name: str) -> bytes:
    out = bytearray()
    for label in name.rstrip(".").split("."):
        if not label:
            continue
        raw = label.encode("ascii")
        if len(raw) > 63:
            raise WireError(f"label too long: {label!r}")
        out.append(len(raw))
        out += raw
    if len(out) > 254:
        raise WireError(f"name too long: {name!r}")
    out.append(0)
    return bytes(out)


def decode_name(data: bytes, offset: int, pointers: bool = True) -> tuple[str, int]:
    """Decode a name, following compression pointers only if ``pointers``; returns (name, end)."""
    labels = []
    jumps = 0
    end = None
    pos = offset
    while True:
        if pos >= len(data):
            raise WireError("truncated name")
        length = data[pos]
        if length & 0xC0 == 0xC0:
            if not pointers:
                raise WireError("compression pointer where no name precedes")
            if pos + 1 >= len(data):
                raise WireError("truncated compression pointer")
            if end is None:
                end = pos + 2
            pos = ((length & 0x3F) << 8) | data[pos + 1]
            jumps += 1
            if jumps > 64:
                raise WireError("compression pointer loop")
            continue
        if length & 0xC0:
            raise WireError("reserved label type")
        pos += 1
        if length == 0:
            break
        if pos + length > len(data):
            raise WireError("truncated label")
        labels.append(data[pos:pos + length].decode("ascii", errors="replace"))
        pos += length
    return ".".join(labels), (end if end is not None else pos)


def parse_header(data: bytes) -> Header:
    if len(data) < 12:
        raise WireError("message shorter than DNS header")
    txid, flags, *counts = struct.unpack(">HHHHHH", data[:12])
    return Header(
        txid, bool(flags & _QR), flags >> _OPCODE_SHIFT & _NIBBLE, bool(flags & _AA),
        bool(flags & _TC), bool(flags & _RD), bool(flags & _RA), flags & _NIBBLE, *counts,
    )


def parse_message(data: bytes) -> Message:
    header = parse_header(data)
    offset = 12
    questions = []
    for _ in range(header.qdcount):
        start = offset
        # Only the header precedes the first name, so a pointer there names nothing.
        qname, offset = decode_name(data, offset, pointers=bool(questions))
        if offset - start > 255:
            raise WireError("name longer than 255 octets")
        if offset + 4 > len(data):
            raise WireError("truncated question")
        qtype, qclass = struct.unpack(">HH", data[offset:offset + 4])
        offset += 4
        questions.append(Question(qname, qtype, qclass, data[start:offset]))
    answers = []
    for section_count, keep in (
        (header.ancount, True),
        (header.nscount, False),
        (header.arcount, False),
    ):
        for _ in range(section_count):
            name, offset = decode_name(data, offset)
            if offset + 10 > len(data):
                raise WireError("truncated resource record")
            rtype, rclass, ttl, rdlength = struct.unpack(
                ">HHIH", data[offset:offset + 10]
            )
            offset += 10
            if offset + rdlength > len(data):
                raise WireError("truncated rdata")
            rdata = data[offset:offset + rdlength]
            offset += rdlength
            if keep:
                answers.append(ResourceRecord(name, rtype, rclass, ttl, rdata))
    return Message(header, tuple(questions), tuple(answers))


def build_query(qname: str, qtype: int, txid: int, rd: bool = True) -> bytes:
    header = parse_header(bytes(12))._replace(txid=txid, rd=rd, qdcount=1)  # every flag clear but RD
    return header.pack() + encode_name(qname) + struct.pack(">HH", qtype, CLASS_IN)


def _reply_header(query: Header, rcode: int, qdcount: int, ancount: int) -> bytes:
    """The reply rule: the query's txid, opcode and RD kept; QR and RA set; AA and TC clear."""
    return Header(  # txid, qr, opcode, aa, tc, rd, ra, rcode, then the four counts
        query.txid, True, query.opcode, False, False, query.rd, True, rcode, qdcount, ancount, 0, 0
    ).pack()


def build_response(
    query: Message,
    rcode: int = RCODE_NOERROR,
    answers: tuple[tuple[int, int, bytes], ...] = (),
) -> bytes:
    """Synthesize a response to a single-question query.

    The question section echoes the query's as sent. ``answers`` entries are
    (rtype, ttl, rdata) for the question name; the name is emitted as a
    compression pointer to the question. QR and RA are set, RD copied.
    """
    out = bytearray(_reply_header(query.header, rcode, 1, len(answers)))
    out += query.question.wire
    for rtype, ttl, rdata in answers:
        out += b"\xc0\x0c"  # pointer to the question name
        out += struct.pack(">HHIH", rtype, CLASS_IN, ttl, len(rdata))
        out += rdata
    return truncate_for_udp(bytes(out))


def build_error_response(data: bytes, rcode: int) -> bytes:
    """Header-only error response echoing the transaction id of raw bytes.

    Used when the question section itself is unusable (FORMERR) or when a
    parsed reply cannot be synthesized.
    """
    return _reply_header(parse_header(data[:12].ljust(12, b"\x00")), rcode, 0, 0)


def truncate_for_udp(data: bytes, limit: int = MAX_UDP_PAYLOAD) -> bytes:
    """Clamp an oversize UDP response: keep header+question, set TC.

    Classic-DNS clients retry over TCP on TC; this server's core is UDP
    only, so the flag is the whole contract.
    """
    if len(data) <= limit:
        return data
    header = parse_header(data)
    offset = 12
    for _ in range(header.qdcount):
        _, offset = decode_name(data, offset)
        offset += 4
    truncated = header._replace(qr=True, tc=True, ancount=0, nscount=0, arcount=0)
    return truncated.pack() + data[12:offset]


def a_rdata(address: str) -> bytes:
    return socket.inet_pton(socket.AF_INET, address)


def aaaa_rdata(address: str) -> bytes:
    return socket.inet_pton(socket.AF_INET6, address)


def get_txid(data: bytes) -> Optional[int]:
    """The transaction id of a datagram, or None when it is too short to hold one."""
    return int.from_bytes(data[:2], "big") if len(data) >= 2 else None


def set_txid(data: bytes, txid: int) -> bytes:
    if len(data) < 2:
        raise WireError("message too short for a transaction id")
    return struct.pack(">H", txid) + data[2:]


def is_reply(reply: bytes, txid: int, question: bytes) -> bool:
    """Whether ``reply`` answers the query sent with this txid and ``question``
    (its question section, lowercased): the txid matches, QDCOUNT is not zero
    and the question is echoed, its name in any case."""
    return (get_txid(reply) == txid and reply[4:6] != b"\0\0"
            and reply[12:12 + len(question)].lower() == question)
