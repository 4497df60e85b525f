"""Length-prefixed, batched framing for router <-> worker links.

One frame is a JSON header plus zero or more raw binary blobs:

```
4 bytes  big-endian uint32: header length H
H bytes  UTF-8 JSON object (the header)
...      one run of raw bytes per entry of header["blobs"], whose
         values are the blob lengths in order
```

The header carries the message semantics (``type``, request ``id``,
``op``, JSON-safe payloads); blobs carry payloads that would be wasteful
as JSON — shipped checkpoint files (npz bytes) travel as blobs, signal
records and decisions as JSON (python's ``json`` round-trips floats
bit-exactly, including ``Infinity`` for footnote-3 unembeddable scores,
which is what keeps cluster decisions bit-identical to the serial
runtime).

Message types
-------------
``hello``
    First frame in each direction: versioned handshake.  The router
    sends ``{"type": "hello", "version": N, "config": {...}}``; the
    worker validates the version and replies ``{"type": "hello",
    "version": N, "worker": i, "pid": ...}``.  A version mismatch is a
    :class:`ProtocolError` on both sides, never a silent downgrade.
``request`` / ``response``
    ``request`` carries a caller-chosen ``id`` echoed by the matching
    ``response`` (``ok`` True with ``result``, or False with
    ``error: {kind, message}``), so responses can interleave with
    unsolicited frames.  Since version 2 a request header may carry an
    optional ``trace`` object (``{"trace_id", "span_id"}``, minted by
    the router's tracer): the worker opens its root span under that
    context so the two halves stitch back into one cross-process tree.
    Version 2 also adds two observability ops — ``obs_snapshot``
    (the worker's canonical ``runtime.metrics()`` dict: families,
    health, slow traces; ``None`` when the worker runs with
    observability off) and ``health`` (the worker's probe results as
    ``ProbeResult.as_dict()`` mappings) — both read-only and safe to
    fan out while requests are in flight.  Version 3 drops the
    single-record ``observe`` op: a single observation travels as an
    ``observe_many`` request with one item, so the worker has one
    observe path.  Version 4 drops the read-only ``score`` op, which
    only tests sent.
``replicate``
    Worker -> router, unsolicited: one committed checkpoint write
    (see :class:`~repro.serve.cluster.replicate.ShippedWrite`), the
    file bytes as blob 0.

Streams are plain binary file objects (``socket.makefile("rwb")``, a
subprocess's stdio pipes) — anything with ``read``/``write``/``flush``.
EOF at a frame boundary reads as ``None`` (clean close); EOF inside a
frame raises :class:`ProtocolError` (truncated peer).
"""

from __future__ import annotations

import json

from repro.core.io import record_from_dict, record_to_dict
from repro.core.protocols import GeofenceDecision
from repro.core.records import SignalRecord

__all__ = [
    "PROTOCOL_VERSION",
    "MAX_FRAME_BYTES",
    "ProtocolError",
    "read_frame",
    "write_frame",
    "hello_frame",
    "check_hello",
    "encode_record",
    "decode_record",
    "encode_decision",
    "decode_decision",
]

# Version 2: obs_snapshot/health ops + optional request trace context.
# Version 3: no single-record ``observe`` op (``observe_many`` only).
# Version 4: no read-only ``score`` op.
# The handshake requires exact equality (no downgrade), so a mixed
# router/worker pair fails loudly at hello, not quietly at the first
# request the other side cannot answer.
PROTOCOL_VERSION = 4

# A header larger than this is garbage (a desynchronised stream, or a
# peer speaking something else entirely): fail fast instead of trying to
# allocate gigabytes from four random bytes.
MAX_FRAME_BYTES = 256 * 1024 * 1024


class ProtocolError(RuntimeError):
    """The peer sent a malformed, truncated, or wrong-version frame."""


def _read_exact(stream, n: int, *, at_boundary: bool) -> bytes | None:
    """Read exactly ``n`` bytes; None on clean EOF at a frame boundary."""
    chunks: list[bytes] = []
    remaining = n
    while remaining:
        chunk = stream.read(remaining)
        if not chunk:
            if at_boundary and not chunks:
                return None
            got = n - remaining
            raise ProtocolError(f"stream truncated mid-frame: wanted {n} bytes, "
                                f"got {got} before EOF")
        chunks.append(chunk)
        remaining -= len(chunk)
    return b"".join(chunks)


def write_frame(stream, header: dict, blobs: tuple | list = ()) -> None:
    """Serialise one frame onto ``stream`` and flush it."""
    header = dict(header)
    if blobs:
        header["blobs"] = [len(blob) for blob in blobs]
    payload = json.dumps(header, sort_keys=True).encode("utf-8")
    if len(payload) > MAX_FRAME_BYTES:
        raise ProtocolError(f"frame header of {len(payload)} bytes exceeds the "
                            f"{MAX_FRAME_BYTES}-byte bound")
    stream.write(len(payload).to_bytes(4, "big"))
    stream.write(payload)
    for blob in blobs:
        stream.write(blob)
    stream.flush()


def read_frame(stream) -> tuple[dict, list[bytes]] | None:
    """Read one frame: ``(header, blobs)``, or None on clean EOF."""
    length_bytes = _read_exact(stream, 4, at_boundary=True)
    if length_bytes is None:
        return None
    length = int.from_bytes(length_bytes, "big")
    if not 0 < length <= MAX_FRAME_BYTES:
        raise ProtocolError(f"frame header length {length} outside (0, "
                            f"{MAX_FRAME_BYTES}]: desynchronised stream?")
    payload = _read_exact(stream, length, at_boundary=False)
    try:
        header = json.loads(payload.decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as error:
        raise ProtocolError(f"frame header is not JSON: {error}") from error
    if not isinstance(header, dict) or "type" not in header:
        raise ProtocolError(f"frame header is not a typed object: {header!r}")
    blobs = []
    for size in header.pop("blobs", []):
        if not isinstance(size, int) or not 0 <= size <= MAX_FRAME_BYTES:
            raise ProtocolError(f"bad blob length {size!r} in frame header")
        blobs.append(_read_exact(stream, size, at_boundary=False))
    return header, blobs


# ----------------------------------------------------------------------
# Handshake
# ----------------------------------------------------------------------
def hello_frame(**fields) -> dict:
    """A versioned hello header with extra identity ``fields``."""
    return {"type": "hello", "version": PROTOCOL_VERSION, **fields}


def check_hello(header: dict, *, who: str) -> dict:
    """Validate a peer's hello; returns it, or raises ProtocolError."""
    if header.get("type") != "hello":
        raise ProtocolError(f"{who} spoke before the handshake: expected a "
                            f"hello frame, got {header.get('type')!r}")
    version = header.get("version")
    if version != PROTOCOL_VERSION:
        raise ProtocolError(f"{who} speaks protocol version {version!r}; this "
                            f"build speaks {PROTOCOL_VERSION} (no downgrade)")
    return header


# ----------------------------------------------------------------------
# Payload codecs
# ----------------------------------------------------------------------
def encode_record(record: SignalRecord) -> dict:
    """JSON-safe record form (bit-exact float round trip via json)."""
    return record_to_dict(record)


def decode_record(data: dict) -> SignalRecord:
    return record_from_dict(data)


def encode_decision(decision: GeofenceDecision) -> dict:
    # score rides as a plain float: python's json emits the Infinity
    # literal for +inf and repr-shortest text otherwise, and both ends
    # of the link are this codec, so the round trip is bit-exact.
    return {"inside": decision.inside, "score": decision.score,
            "confident": decision.confident, "buffered": decision.buffered,
            "updated": decision.updated}


def decode_decision(data: dict) -> GeofenceDecision:
    try:
        return GeofenceDecision(inside=bool(data["inside"]),
                                score=float(data["score"]),
                                confident=bool(data["confident"]),
                                buffered=bool(data["buffered"]),
                                updated=bool(data["updated"]))
    except (KeyError, TypeError, ValueError) as error:
        raise ProtocolError(f"malformed decision payload {data!r}: {error}") \
            from error
