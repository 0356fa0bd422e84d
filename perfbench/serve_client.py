"""Minimal client for the rascad_serve frame protocol (src/serve/protocol.hpp).

Every frame is `u32 length | u8 type | u64 request_id | body`, little-endian,
where `length` counts the type byte, the id and the body.
"""

import socket
import struct

PING, SOLVE, SWEEP, SIMULATE, STATS, SHUTDOWN, METRICS = 1, 2, 3, 4, 5, 6, 7
PONG, CHUNK, RESULT, ERROR, RETRY_AFTER = 0x81, 0x82, 0x83, 0x84, 0x85

STATUS_OK = 0

_HEAD = struct.Struct("<IBQ")
_NO_DEADLINE = struct.pack("<I", 0)


class ServeError(RuntimeError):
    """A request ended in anything but an ok terminal frame."""


class Reply:
    __slots__ = ("status", "text", "chunks")

    def __init__(self, status, text, chunks):
        self.status = status
        self.text = text
        self.chunks = chunks

    def fields(self):
        """`key=value` result lines as a dict of strings."""
        out = {}
        for line in self.text.splitlines():
            key, sep, value = line.partition("=")
            if sep:
                out[key] = value
        return out


class Client:
    def __init__(self, path, timeout_s=60.0):
        self._sock = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
        self._sock.settimeout(timeout_s)
        self._sock.connect(path)
        self._file = self._sock.makefile("rb")
        self._next_id = 1

    def close(self):
        self._file.close()
        self._sock.close()

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.close()

    def _send(self, ftype, body):
        rid = self._next_id
        self._next_id += 1
        self._sock.sendall(_HEAD.pack(9 + len(body), ftype, rid) + body)
        return rid

    def _read_frame(self):
        head = self._file.read(_HEAD.size)
        if len(head) < _HEAD.size:
            raise ServeError("connection closed by the daemon")
        length, ftype, rid = _HEAD.unpack(head)
        body = self._file.read(length - 9)
        if len(body) < length - 9:
            raise ServeError("connection closed mid-frame")
        return ftype, rid, body

    def call(self, ftype, body=b""):
        """Sends one request and collects its chunks and terminal frame."""
        rid = self._send(ftype, body)
        chunks = []
        while True:
            rtype, got, payload = self._read_frame()
            if got != rid:
                raise ServeError(f"reply for request {got}, expected {rid}")
            if rtype == CHUNK:
                chunks.append(payload.decode())
                continue
            if rtype == PONG:
                return Reply(STATUS_OK, "", chunks)
            if rtype == RESULT:
                return Reply(payload[0], payload[1:].decode(), chunks)
            if rtype == ERROR:
                raise ServeError(f"error status {payload[0]}: "
                                 f"{payload[1:].decode(errors='replace')}")
            if rtype == RETRY_AFTER:
                raise ServeError("rejected by admission control")
            raise ServeError(f"unexpected frame type {rtype:#x}")

    # Verb bodies lead with u32 deadline_ms; 0 asks for no deadline.
    def ping(self):
        return self.call(PING, _NO_DEADLINE)

    def solve(self, model):
        return self.call(SOLVE, _NO_DEADLINE + model.encode())

    def sweep(self, model, diagram, block, param, lo, hi, points):
        head = f"{diagram}\n{block}\n{param}\n{lo!r}\n{hi!r}\n{points}\n\n"
        return self.call(SWEEP, _NO_DEADLINE + (head + model).encode())

    def simulate(self, model, horizon_h, replications, seed):
        head = f"{horizon_h!r}\n{replications}\n{seed}\n\n"
        return self.call(SIMULATE, _NO_DEADLINE + (head + model).encode())

    def metrics_delta(self):
        """What changed since this connection's previous delta scrape
        (flags bit 0 set), as delta JSONL."""
        return self.call(METRICS, struct.pack("<I", 1)).text

    def stats(self):
        return self.call(STATS).fields()

    def shutdown(self):
        return self.call(SHUTDOWN)
