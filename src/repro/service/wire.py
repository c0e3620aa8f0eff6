"""Length-prefixed JSON framing shared by every sweep-service peer.

One frame is a 4-byte big-endian payload length followed by that many
bytes of UTF-8 JSON encoding a single message object. The framing is
deliberately minimal — no versioned handshake beyond the ``hello``
message, no compression, no pipelining — because the payloads are
small (unit descriptors and integer verdict counts) and the protocol
must stay debuggable with ``nc`` and a hex dump. The same codec backs
the synchronous :mod:`socket` endpoints (workers, the submit client)
and the coordinator's :mod:`asyncio` streams.

Message vocabulary (the ``type`` field):

===================  ==============================================
``hello``            First frame of every connection:
                     ``{"role": "worker" | "client"}``.
``welcome``          Coordinator → worker: the run context a worker
                     needs (``fault_plan``).
``unit``             Coordinator → worker: evaluate one
                     (point, task set) unit at a given attempt.
``result``           Worker → coordinator: the finished unit
                     (counts, ledger, cache stats, buffered events).
``submit``           Client → coordinator: run one sweep config.
``progress``         Coordinator → client: one completed point.
``unit_done``        Coordinator → client: live per-unit progress
                     (completed / served / total counts).
``sweep_done``       Coordinator → client: the finished sweep as a
                     :func:`repro.experiments.persistence.sweep_to_dict`
                     payload.
``error``            Coordinator → client: the sweep failed; carries
                     the error type and message.
===================  ==============================================
"""

from __future__ import annotations

import asyncio
import json
import socket
import struct

from repro.errors import ExperimentError

#: struct format of the frame header: one unsigned 32-bit big-endian
#: payload length.
_HEADER = ">I"
_HEADER_SIZE = struct.calcsize(_HEADER)

#: Upper bound on a single frame's payload. Sweep configs and unit
#: results are kilobytes; anything near this is a protocol violation
#: (or an attack), not data.
MAX_FRAME = 64 * 1024 * 1024


class WireError(ExperimentError):
    """A malformed or oversized frame on a sweep-service connection."""


def encode_frame(message: dict) -> bytes:
    """One message as header + JSON payload bytes."""
    payload = json.dumps(
        message, sort_keys=True, separators=(",", ":"), allow_nan=False
    ).encode("utf-8")
    if len(payload) > MAX_FRAME:
        raise WireError(
            f"frame of {len(payload)} bytes exceeds the {MAX_FRAME}-byte cap"
        )
    return struct.pack(_HEADER, len(payload)) + payload


def _decode_payload(payload: bytes) -> dict:
    try:
        message = json.loads(payload.decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise WireError(f"undecodable frame payload: {exc}") from exc
    if not isinstance(message, dict) or "type" not in message:
        raise WireError(
            f"frame payload is not a typed message object: {message!r}"
        )
    return message


def _parse_header(header: bytes) -> int:
    (length,) = struct.unpack(_HEADER, header)
    if length > MAX_FRAME:
        raise WireError(
            f"announced frame of {length} bytes exceeds the "
            f"{MAX_FRAME}-byte cap"
        )
    return length


# ----------------------------------------------------------------------
# synchronous endpoints (workers, the submit client)
# ----------------------------------------------------------------------
def send_message(sock: socket.socket, message: dict) -> None:
    sock.sendall(encode_frame(message))


def _recv_exact(sock: socket.socket, count: int) -> bytes:
    """Read exactly ``count`` bytes or raise ``ConnectionError``."""
    chunks: list[bytes] = []
    remaining = count
    while remaining:
        chunk = sock.recv(remaining)
        if not chunk:
            raise ConnectionError(
                f"peer closed the connection mid-frame "
                f"({count - remaining}/{count} bytes read)"
            )
        chunks.append(chunk)
        remaining -= len(chunk)
    return b"".join(chunks)


def recv_message(sock: socket.socket) -> "dict | None":
    """The next message, or ``None`` on a clean end-of-stream."""
    try:
        first = sock.recv(_HEADER_SIZE)
    except ConnectionError:
        return None
    if not first:
        return None
    if len(first) < _HEADER_SIZE:
        first += _recv_exact(sock, _HEADER_SIZE - len(first))
    return _decode_payload(_recv_exact(sock, _parse_header(first)))


# ----------------------------------------------------------------------
# asyncio endpoints (the coordinator)
# ----------------------------------------------------------------------
async def send_message_async(
    writer: asyncio.StreamWriter, message: dict
) -> None:
    writer.write(encode_frame(message))
    await writer.drain()


async def recv_message_async(reader: asyncio.StreamReader) -> "dict | None":
    """The next message, or ``None`` when the peer is gone."""
    try:
        header = await reader.readexactly(_HEADER_SIZE)
    except (asyncio.IncompleteReadError, ConnectionError):
        return None
    length = _parse_header(header)
    try:
        payload = await reader.readexactly(length)
    except (asyncio.IncompleteReadError, ConnectionError):
        return None
    return _decode_payload(payload)
