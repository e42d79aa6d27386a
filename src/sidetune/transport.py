"""Ordered byte-stream transports the wire protocol runs over.

Three flavors cover every deployment the runtimes need: an in-process
loopback pair for tests, a rate-limited wrapper for timing experiments,
and plain TCP for real device/server splits. Local mode opens none: it
hands each batch to the server's step in the same process. All of
them move opaque byte chunks; framing lives one layer up in
:mod:`sidetune.wire`.

A transport's ``send(data)`` must send or copy `data` before it returns
and keep no reference to it: the device then writes a later batch into
the same frame.
"""

from __future__ import annotations

import queue
import socket
import time


class TransportClosed(Exception):
    pass


class LoopbackTransport:
    """One endpoint of an in-process duplex byte stream."""

    def __init__(self, inbox: queue.Queue, outbox: queue.Queue):
        self._inbox = inbox
        self._outbox = outbox
        self._closed = False

    def send(self, data: bytes) -> None:
        if self._closed:
            raise TransportClosed("send on closed transport")
        self._outbox.put(bytes(data))

    def recv(self, timeout: float | None = None) -> bytes:
        """Next chunk; b'' once the peer has closed and the queue drained."""
        try:
            chunk = self._inbox.get(timeout=timeout)
        except queue.Empty:
            raise TimeoutError("transport recv timed out") from None
        if chunk is None:
            return b""
        return chunk

    def close(self) -> None:
        if not self._closed:
            self._closed = True
            self._outbox.put(None)


def loopback_pair() -> tuple[LoopbackTransport, LoopbackTransport]:
    a_to_b: queue.Queue = queue.Queue()
    b_to_a: queue.Queue = queue.Queue()
    return (LoopbackTransport(b_to_a, a_to_b), LoopbackTransport(a_to_b, b_to_a))


class RateLimitedTransport:
    """Delays each send by len(data) * 8 / rate_bps seconds.

    The sleep happens inside send(), occupying the calling worker for the
    whole transmission -- exactly what a saturated uplink does to a send
    thread. Receives are unmodified.
    """

    def __init__(self, inner, rate_bps: float):
        if rate_bps <= 0:
            raise ValueError("rate must be positive")
        self._inner = inner
        self._rate = rate_bps

    def send(self, data: bytes) -> None:
        time.sleep(len(data) * 8.0 / self._rate)
        self._inner.send(data)

    def recv(self, timeout: float | None = None) -> bytes:
        return self._inner.recv(timeout)

    def close(self) -> None:
        self._inner.close()


class TcpTransport:
    """Byte-chunk adapter over a connected TCP socket."""

    CHUNK = 1 << 16

    def __init__(self, sock: socket.socket):
        self._sock = sock
        self._sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)

    @classmethod
    def connect(cls, host: str, port: int, timeout: float = 10.0) -> "TcpTransport":
        return cls(socket.create_connection((host, port), timeout=timeout))

    def send(self, data: bytes) -> None:
        try:
            self._sock.sendall(data)
        except OSError as exc:
            raise TransportClosed(str(exc)) from exc

    def recv(self, timeout: float | None = None) -> bytes:
        self._sock.settimeout(timeout)
        try:
            chunk = self._sock.recv(self.CHUNK)
        except socket.timeout:
            raise TimeoutError("transport recv timed out") from None
        except OSError as exc:
            raise TransportClosed(str(exc)) from exc
        return chunk

    def close(self) -> None:
        try:
            self._sock.shutdown(socket.SHUT_RDWR)
        except OSError:
            pass
        self._sock.close()


def tcp_listen_one(host: str, port: int, timeout: float | None = None):
    """Accept a single connection; returns (transport, bound_port)."""
    srv = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
    srv.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
    srv.bind((host, port))
    srv.listen(1)
    srv.settimeout(timeout)
    try:
        conn, _ = srv.accept()
    finally:
        srv.close()
    return TcpTransport(conn), conn.getsockname()[1]
