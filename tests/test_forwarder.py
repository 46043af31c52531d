"""The sinkhole's forwarding rule, checked on a ``Forwarder`` with a fake clock.

No socket is opened: slots are integers and time is a number the machine
advances. The loop around the Forwarder answers a shed query at once, so the
machine does the same.
"""

import random
from dataclasses import dataclass
from typing import Optional

import pytest
from hypothesis import settings
from hypothesis import strategies as st
from hypothesis.stateful import (
    RuleBasedStateMachine,
    initialize,
    invariant,
    precondition,
    rule,
    run_state_machine_as_test,
)

from tvblock import dnswire, sinkhole
from tvblock.blocklists import BlockList
from tvblock.config import SinkholeConfig

TIMEOUT_MS = 400
CAP = 2  # MAX_PENDING while the machine runs, so that queries are shed
CFG = SinkholeConfig()
LISTS = (BlockList("L", frozenset({"ads.example.com"})),)


@dataclass
class Query:
    datagram: bytes  # as the client sent it
    outcome: sinkhole.Outcome
    started: int
    slot: Optional[int] = None  # None: shed
    request: bytes = b""  # as sent upstream
    answers: int = 0

    @property
    def deadline(self) -> int:
        return self.started + TIMEOUT_MS * 1_000_000


def reply_to(request: bytes, qname: Optional[str] = None) -> bytes:
    """The upstream's answer to ``request``, or one to another question with its txid."""
    query = dnswire.parse_message(request)
    if qname is not None:
        query = dnswire.parse_message(
            dnswire.build_query(qname, query.question.qtype, query.header.txid)
        )
    return dnswire.build_response(
        query, answers=((dnswire.TYPE_A, 60, dnswire.a_rdata("93.184.216.34")),)
    )


class ForwarderMachine(RuleBasedStateMachine):
    def __init__(self):
        super().__init__()
        self.now = 0
        self.forwarder = sinkhole.Forwarder(TIMEOUT_MS, [0, 1])
        self.next_slot = 2
        self.queries: list[Query] = []
        self.closed: set[int] = set()  # slots handed back to close
        self.patches = pytest.MonkeyPatch()

    @initialize(seed=st.integers(0, 2**32))
    def patch(self, seed):
        """A small MAX_PENDING, so that queries are shed, and slot and txid
        choices from a seeded generator, so that a failing run replays."""
        self.patches.setattr(sinkhole, "MAX_PENDING", CAP)
        self.patches.setattr(sinkhole, "RNG", random.Random(seed))

    def teardown(self):
        self.patches.undo()

    def sent(self) -> list[int]:
        return [i for i, q in enumerate(self.queries) if q.slot is not None]

    @rule(txid=st.integers(0, 0xFFFF), qtype=st.sampled_from([dnswire.TYPE_A, dnswire.TYPE_AAAA]))
    def query(self, txid, qtype):
        qid = len(self.queries)  # each query its own name: no reply fits two of them
        datagram = dnswire.build_query(f"Q{qid}.example.org", qtype, txid)
        outcome = sinkhole.respond(datagram, LISTS, CFG)
        assert outcome.response is None
        full = len(self.forwarder.pending) >= CAP
        query = Query(datagram, outcome, self.now)
        self.queries.append(query)
        sent = self.forwarder.submit(outcome, datagram, qid, self.now)
        if sent is None:
            assert full
            query.answers += 1  # SERVFAIL at once
            return
        assert not full
        query.slot, query.request = sent
        assert query.slot in self.forwarder.slots
        assert query.request[2:] == datagram[2:]

    @precondition(lambda self: self.sent())
    @rule(
        data=st.data(),
        kind=st.sampled_from(["match", "upper", "wrong_txid", "wrong_question", "other_slot"]),
    )
    def reply(self, data, kind):
        """A reply to any query sent so far: one still pending, or a duplicate
        or late reply to one already answered."""
        qid = data.draw(st.sampled_from(self.sent()), label="query")
        query = self.queries[qid]
        slot, reply = query.slot, reply_to(query.request)
        if kind == "upper":  # the upstream may change the name's case
            reply = reply_to(query.request, f"Q{qid}.EXAMPLE.ORG")
        elif kind == "wrong_txid":
            txid = int.from_bytes(reply[:2], "big") ^ data.draw(st.integers(1, 0xFFFF))
            reply = txid.to_bytes(2, "big") + reply[2:]
        elif kind == "wrong_question":
            reply = reply_to(query.request, f"other{qid}.example.org")
        elif kind == "other_slot":
            slot = data.draw(st.integers(0, self.next_slot).filter(lambda s: s != query.slot))
        was_pending = any(entry[2] == qid for entry in self.forwarder.pending.values())
        answer = self.forwarder.on_reply(slot, reply)
        if kind in ("match", "upper") and was_pending:
            assert answer == (qid, query.started, query.datagram[:2] + reply[2:], query.outcome)
            query.answers += 1
        else:
            assert answer is None

    @rule(ms=st.integers(0, 2 * TIMEOUT_MS))
    def advance(self, ms):
        """Time passes; the loop then expires what is due."""
        self.now += ms * 1_000_000
        closing, servfails = self.forwarder.expire(self.now)
        for slot in closing:
            assert slot not in self.closed and slot not in self.forwarder.slots
            assert all(q.deadline <= self.now for q in self.queries if q.slot == slot)
            self.closed.add(slot)
        for client, started, response, outcome in servfails:
            query = self.queries[client]
            assert query.deadline <= self.now and started == query.started
            assert response == dnswire.build_error_response(
                query.datagram, dnswire.RCODE_SERVFAIL
            )
            assert outcome == query.outcome._replace(verdict="upstream_error")
            query.answers += 1

    @rule()
    def rotate(self):
        self.forwarder.rotate(self.next_slot, self.now)
        self.next_slot += 1

    @invariant()
    def one_answer_bounded_table_no_closed_slot(self):
        pending = self.forwarder.pending
        waiting = [entry[2] for entry in pending.values()]
        assert len(set(waiting)) == len(waiting)
        for qid, query in enumerate(self.queries):  # pending, or answered exactly once
            assert query.answers == (0 if qid in waiting else 1), (qid, query)
        assert len(pending) <= sinkhole.MAX_PENDING
        deadlines = [entry[0] for entry in pending.values()]
        assert deadlines == sorted(deadlines)
        assert self.forwarder.next_deadline() == (deadlines[0] if deadlines else None)
        assert all(d > self.now for d in deadlines)  # expire() left none that is due
        assert not {slot for slot, _ in pending} & self.closed
        assert not set(self.forwarder.slots) & self.closed

def test_forwarding_rule():
    run_state_machine_as_test(
        ForwarderMachine,
        settings=settings(max_examples=200, stateful_step_count=40, deadline=None),
    )
