"""Framing protocol: frames, handshake, codecs, malformed peers."""

import io
import math

import pytest

from conftest import make_record
from repro.core.protocols import GeofenceDecision
from repro.serve.cluster.protocol import (
    MAX_FRAME_BYTES,
    PROTOCOL_VERSION,
    ProtocolError,
    check_hello,
    decode_decision,
    decode_record,
    encode_decision,
    encode_record,
    hello_frame,
    read_frame,
    write_frame,
)


def roundtrip(header, blobs=()):
    stream = io.BytesIO()
    write_frame(stream, header, blobs)
    stream.seek(0)
    return read_frame(stream), stream


class TestFraming:
    def test_header_only_roundtrip(self):
        (header, blobs), _ = roundtrip({"type": "request", "id": 7, "op": "ping"})
        assert header == {"type": "request", "id": 7, "op": "ping"}
        assert blobs == []

    def test_blobs_roundtrip_in_order(self):
        payload = [b"alpha", b"", b"\x00\x01\x02" * 100]
        (header, blobs), _ = roundtrip({"type": "replicate"}, payload)
        assert blobs == payload
        assert "blobs" not in header      # consumed into the blob list

    def test_write_does_not_mutate_caller_header(self):
        header = {"type": "replicate"}
        write_frame(io.BytesIO(), header, [b"x"])
        assert header == {"type": "replicate"}

    def test_multiple_frames_on_one_stream(self):
        stream = io.BytesIO()
        write_frame(stream, {"type": "a"})
        write_frame(stream, {"type": "b"}, [b"bb"])
        stream.seek(0)
        assert read_frame(stream)[0]["type"] == "a"
        header, blobs = read_frame(stream)
        assert header["type"] == "b" and blobs == [b"bb"]
        assert read_frame(stream) is None

    def test_clean_eof_at_boundary_is_none(self):
        assert read_frame(io.BytesIO()) is None

    def test_eof_inside_header_raises(self):
        stream = io.BytesIO()
        write_frame(stream, {"type": "request", "id": 1, "op": "x"})
        truncated = io.BytesIO(stream.getvalue()[:-3])
        with pytest.raises(ProtocolError, match="truncated"):
            read_frame(truncated)

    def test_eof_inside_blob_raises(self):
        stream = io.BytesIO()
        write_frame(stream, {"type": "replicate"}, [b"0123456789"])
        truncated = io.BytesIO(stream.getvalue()[:-4])
        with pytest.raises(ProtocolError, match="truncated"):
            read_frame(truncated)

    def test_absurd_length_prefix_rejected(self):
        stream = io.BytesIO((MAX_FRAME_BYTES + 1).to_bytes(4, "big"))
        with pytest.raises(ProtocolError, match="desynchronised"):
            read_frame(stream)

    def test_zero_length_prefix_rejected(self):
        with pytest.raises(ProtocolError, match="desynchronised"):
            read_frame(io.BytesIO((0).to_bytes(4, "big") * 2))

    def test_non_json_header_rejected(self):
        garbage = b"\xff\xfe\xfd\xfc"
        stream = io.BytesIO(len(garbage).to_bytes(4, "big") + garbage)
        with pytest.raises(ProtocolError, match="not JSON"):
            read_frame(stream)

    def test_untyped_header_rejected(self):
        payload = b'["a", "list"]'
        stream = io.BytesIO(len(payload).to_bytes(4, "big") + payload)
        with pytest.raises(ProtocolError, match="typed object"):
            read_frame(stream)

    def test_bad_blob_length_rejected(self):
        payload = b'{"type": "replicate", "blobs": [-5]}'
        stream = io.BytesIO(len(payload).to_bytes(4, "big") + payload)
        with pytest.raises(ProtocolError, match="blob length"):
            read_frame(stream)


class TestHandshake:
    def test_hello_roundtrip(self):
        (header, _), _ = roundtrip(hello_frame(worker=3, pid=123))
        checked = check_hello(header, who="worker 3")
        assert checked["version"] == PROTOCOL_VERSION
        assert checked["worker"] == 3

    def test_version_mismatch_is_error_not_downgrade(self):
        hello = hello_frame()
        hello["version"] = PROTOCOL_VERSION + 1
        with pytest.raises(ProtocolError, match="no downgrade"):
            check_hello(hello, who="peer")

    def test_non_hello_first_frame_rejected(self):
        with pytest.raises(ProtocolError, match="before the handshake"):
            check_hello({"type": "request", "id": 1}, who="peer")


class TestCodecs:
    def test_record_roundtrip_is_bit_exact(self):
        record = make_record({"aa": -50.123456789012345, "bb": -61.0}, t=17.25)
        back = decode_record(encode_record(record))
        assert back.readings == record.readings
        assert back.timestamp == record.timestamp

    def test_record_with_mac_ending_in_nul_is_refused(self):
        with pytest.raises(ValueError, match="NUL"):
            decode_record({"t": 0.0, "rss": {"aa": -50.0, "ab\0": -61.0}})
        inner = decode_record({"t": 0.0, "rss": {"a\0b": -50.0}})
        assert inner.readings == {"a\0b": -50.0}

    def test_decision_roundtrip_is_bit_exact(self):
        decision = GeofenceDecision(inside=True, score=0.1 + 0.2,  # 0.30000000000000004
                                    confident=False, buffered=True, updated=False)
        back = decode_decision(encode_decision(decision))
        assert back == decision
        assert back.score == decision.score          # exact, not approx

    def test_decision_with_infinite_score_survives_json(self):
        import json
        decision = GeofenceDecision(inside=False, score=math.inf,
                                    confident=True, buffered=False, updated=False)
        wire = json.loads(json.dumps(encode_decision(decision)))
        assert decode_decision(wire) == decision

    def test_malformed_decision_payload_raises(self):
        with pytest.raises(ProtocolError, match="malformed decision"):
            decode_decision({"inside": True})
