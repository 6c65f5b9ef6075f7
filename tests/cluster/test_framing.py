"""The wire frame: round-trips, every corruption mode, keys and fault sites."""

from __future__ import annotations

import pickle
import socket
import struct
import threading
import zlib

import pytest

from repro.cluster import ShardRef, WireError, recv_frame, send_frame, shard_key
from repro.cluster import framing
from repro.core import FlexOffer
from repro.faults import CLUSTER_RECV, CLUSTER_SEND, FaultInjected, FaultPlan, FaultRule


@pytest.fixture
def pair():
    left, right = socket.socketpair()
    yield left, right
    left.close()
    right.close()


def corrupted(payload: bytes, *, crc: int = None, length: int = None) -> bytes:
    """A raw frame with an optionally-forged header."""
    return framing._HEADER.pack(
        len(payload) if length is None else length,
        zlib.crc32(payload) if crc is None else crc,
    ) + payload


class TestRoundTrip:
    def test_json_control_frame(self, pair):
        left, right = pair
        sent = send_frame(left, {"op": "ping", "n": 3})
        assert sent > 0
        assert recv_frame(right) == {"op": "ping", "n": 3}

    def test_pickled_task_frame_carries_rich_objects(self, pair):
        left, right = pair
        offer = FlexOffer(2, 5, [(1, 3), (0, 2)], name="f1")
        message = {"op": "task", "args": [offer, ShardRef("abc")], "err": ValueError("x")}
        send_frame(left, message, pickled=True)
        received = recv_frame(right)
        assert received["args"][0] == offer
        assert received["args"][1].key == "abc"
        assert isinstance(received["err"], ValueError)

    def test_many_frames_share_one_stream(self, pair):
        left, right = pair
        for index in range(20):
            send_frame(left, {"i": index}, pickled=index % 2 == 0)
        for index in range(20):
            assert recv_frame(right) == {"i": index}

    def test_clean_eof_at_a_frame_boundary_is_none(self, pair):
        left, right = pair
        send_frame(left, {"op": "bye"})
        left.close()
        assert recv_frame(right) == {"op": "bye"}
        assert recv_frame(right) is None

    def test_large_frame_crosses_recv_chunks(self, pair):
        left, right = pair
        blob = "x" * (1 << 21)  # > the 1 MiB recv chunk

        def feed():
            send_frame(left, {"blob": blob})

        writer = threading.Thread(target=feed)
        writer.start()
        assert recv_frame(right) == {"blob": blob}
        writer.join()


class TestCorruption:
    def test_truncation_mid_payload_is_a_wire_error(self, pair):
        left, right = pair
        frame = corrupted(b"J" + b'{"op":"ping"}')
        left.sendall(frame[:-3])
        left.close()
        with pytest.raises(WireError, match="mid-frame"):
            recv_frame(right)

    def test_truncation_mid_header_is_a_wire_error(self, pair):
        left, right = pair
        left.sendall(b"\x01\x02")
        left.close()
        with pytest.raises(WireError, match="mid-frame"):
            recv_frame(right)

    def test_crc_mismatch_is_a_wire_error(self, pair):
        left, right = pair
        left.sendall(corrupted(b"J" + b'{"op":"ping"}', crc=0xDEADBEEF))
        with pytest.raises(WireError, match="CRC"):
            recv_frame(right)

    def test_zero_length_word_is_implausible(self, pair):
        left, right = pair
        left.sendall(framing._HEADER.pack(0, 0))
        with pytest.raises(WireError, match="implausible"):
            recv_frame(right)

    def test_oversized_length_word_is_implausible(self, pair, monkeypatch):
        left, right = pair
        monkeypatch.setattr(framing, "MAX_FRAME_BYTES", 64)
        left.sendall(corrupted(b"J" + b"{}", length=65))
        with pytest.raises(WireError, match="implausible"):
            recv_frame(right)

    def test_oversized_send_is_refused_before_any_byte_moves(
        self, pair, monkeypatch
    ):
        left, right = pair
        monkeypatch.setattr(framing, "MAX_FRAME_BYTES", 16)
        with pytest.raises(WireError, match="exceeds the cap"):
            send_frame(left, {"blob": "y" * 64})
        left.close()
        assert recv_frame(right) is None  # nothing was sent

    def test_unknown_payload_kind_is_a_wire_error(self, pair):
        left, right = pair
        left.sendall(corrupted(b"Z" + b"{}"))
        with pytest.raises(WireError, match="undecodable"):
            recv_frame(right)

    def test_undecodable_body_is_a_wire_error(self, pair):
        left, right = pair
        left.sendall(corrupted(b"J" + b"{nope"))
        with pytest.raises(WireError, match="undecodable"):
            recv_frame(right)

    def test_non_dict_payload_is_a_wire_error(self, pair):
        left, right = pair
        left.sendall(corrupted(b"P" + pickle.dumps([1, 2, 3])))
        with pytest.raises(WireError, match="not a message dict"):
            recv_frame(right)

    def test_wire_error_is_a_connection_error(self):
        # The contract the executor's redispatch loop rides on.
        assert issubclass(WireError, ConnectionError)


class TestFaultSites:
    def test_send_fault_fires_before_any_byte_hits_the_wire(self, pair):
        left, right = pair
        plan = FaultPlan([FaultRule(CLUSTER_SEND)])
        with pytest.raises(FaultInjected):
            send_frame(left, {"op": "task"}, faults=plan, site=CLUSTER_SEND)
        left.close()
        # The peer saw a clean close, never a torn frame.
        assert recv_frame(right) is None

    def test_recv_fault_fires_before_reading(self, pair):
        left, right = pair
        send_frame(left, {"op": "result"})
        plan = FaultPlan([FaultRule(CLUSTER_RECV)])
        with pytest.raises(FaultInjected):
            recv_frame(right, faults=plan, site=CLUSTER_RECV)
        # The frame is still intact on the stream once the window is spent.
        assert recv_frame(right, faults=plan, site=CLUSTER_RECV) == {
            "op": "result"
        }

    def test_kill_rules_degrade_to_a_raise_on_the_wire(self, pair):
        # A "kill" rule loads as a raise of FaultInjected (an OSError), so
        # the wire layer sees a connection loss instead of ignoring it.
        left, _right = pair
        plan = FaultPlan([FaultRule(CLUSTER_SEND, action="kill")])
        with pytest.raises(FaultInjected):
            send_frame(left, {"op": "task"}, faults=plan, site=CLUSTER_SEND)

    def test_no_plan_or_site_is_a_no_op(self, pair):
        left, right = pair
        plan = FaultPlan([FaultRule(CLUSTER_SEND)])
        send_frame(left, {"op": "x"}, faults=plan, site=None)
        assert recv_frame(right, faults=None, site=CLUSTER_RECV) == {"op": "x"}


class TestShardKey:
    def test_deterministic_and_content_addressed(self):
        offers = [FlexOffer(0, 2, [(1, 3)], name="a"), FlexOffer(1, 4, [(0, 2)], name="b")]
        clones = [FlexOffer(0, 2, [(1, 3)], name="a"), FlexOffer(1, 4, [(0, 2)], name="b")]
        assert shard_key(offers) == shard_key(clones)
        assert shard_key(offers) != shard_key(list(reversed(offers)))
        assert shard_key(offers) != shard_key(offers[:1])

    def test_names_participate_in_the_key(self):
        # Fingerprints are name-blind, but worker-side supports() overrides
        # may consult names, so renamed chunks must not alias.
        named = [FlexOffer(0, 2, [(1, 3)], name="a")]
        renamed = [FlexOffer(0, 2, [(1, 3)], name="b")]
        anonymous = [FlexOffer(0, 2, [(1, 3)])]
        assert shard_key(named) != shard_key(renamed)
        assert shard_key(named) != shard_key(anonymous)

    def test_shard_ref_pickles_to_its_key_alone(self):
        ref = ShardRef("deadbeef")
        clone = pickle.loads(pickle.dumps(ref))
        assert isinstance(clone, ShardRef)
        assert clone.key == "deadbeef"
