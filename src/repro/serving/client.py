"""Clients for the scoring protocol: blocking (pipelined) and asyncio.

:class:`ScoringClient` is the deployment-side handle: producers on another
process or machine call :meth:`ScoringClient.score` (blocking) or keep many
:meth:`ScoringClient.score_async` futures in flight on one connection —
requests are pipelined and matched to responses by ``request_id`` by a
background reader thread.  Typed error frames raise the same exception
classes the in-process scorer raises; a lost connection fails every
in-flight future with :class:`~repro.exceptions.RemoteScoringError` and, by
default, the next call transparently reconnects — a restarted server is a
transient, not an outage (pinned by the reconnect tests).

:class:`AsyncScoringClient` speaks the same protocol over asyncio streams
for event-loop producers; one connection, same pipelining, ``await``-shaped.
"""

from __future__ import annotations

import asyncio
import itertools
import socket
import threading
from concurrent.futures import Future
from typing import Dict, Optional, Tuple

import numpy as np

from ..exceptions import ProtocolError, RemoteScoringError
from . import protocol

__all__ = ["AsyncScoringClient", "ScoringClient"]


def _dial_error(address: Tuple[str, int], exc: OSError) -> RemoteScoringError:
    """The typed error a failed connection attempt surfaces as."""
    return RemoteScoringError(f"cannot connect to {address[0]}:{address[1]}: {exc}")


class ScoringClient:
    """Blocking, pipelining client of a :class:`~repro.serving.ScoringServer`.

    Parameters
    ----------
    address:
        ``(host, port)`` of the server.
    timeout:
        Default per-request timeout in seconds (connection setup uses it
        too); individual calls may override it.
    auto_reconnect:
        When True (default), a call on a lost connection dials again
        instead of raising — in-flight requests of the dead connection
        still fail (their responses are gone with it).
    """

    def __init__(
        self,
        address: Tuple[str, int],
        timeout: float = 30.0,
        auto_reconnect: bool = True,
        max_payload: int = protocol.DEFAULT_MAX_PAYLOAD,
    ) -> None:
        self.address = (str(address[0]), int(address[1]))
        self.timeout = float(timeout)
        self.auto_reconnect = bool(auto_reconnect)
        self.max_payload = int(max_payload)
        self._lock = threading.Lock()  # guards socket handoff + request ids
        self._sock: Optional[socket.socket] = None
        self._reader: Optional[threading.Thread] = None
        self._pending: Dict[int, Future] = {}
        self._ids = itertools.count(1)
        self._closed = False

    # ------------------------------------------------------------------
    # connection lifecycle
    # ------------------------------------------------------------------
    @property
    def is_connected(self) -> bool:
        with self._lock:
            return self._sock is not None

    def connect(self) -> "ScoringClient":
        """Dial the server (idempotent while connected)."""
        with self._lock:
            if self._closed:
                raise RemoteScoringError("this client has been closed")
            if self._sock is not None:
                return self
            try:
                sock = socket.create_connection(self.address, timeout=self.timeout)
            except OSError as exc:
                raise _dial_error(self.address, exc) from exc
            sock.settimeout(None)  # the reader blocks; timeouts are per-future
            self._sock = sock
            self._reader = threading.Thread(
                target=self._read_loop, args=(sock,), name="repro-scoring-client", daemon=True
            )
            self._reader.start()
        return self

    def close(self) -> None:
        """Drop the connection and fail anything still in flight."""
        with self._lock:
            self._closed = True
            sock, self._sock = self._sock, None
        if sock is not None:
            try:
                sock.shutdown(socket.SHUT_RDWR)
            except OSError:
                pass
            sock.close()
        self._fail_pending(RemoteScoringError("client closed"))

    def __enter__(self) -> "ScoringClient":
        return self.connect()

    def __exit__(self, exc_type, exc, tb) -> None:
        self.close()

    # ------------------------------------------------------------------
    # reader
    # ------------------------------------------------------------------
    def _read_loop(self, sock: socket.socket) -> None:
        decoder = protocol.FrameDecoder(max_payload=self.max_payload)
        error: Exception = RemoteScoringError("connection lost")
        try:
            while True:
                chunk = sock.recv(65536)
                if not chunk:
                    break
                for frame in decoder.feed(chunk):
                    self._handle_frame(frame)
        except ProtocolError as exc:
            error = exc
        except OSError:
            pass
        with self._lock:
            if self._sock is sock:  # a newer connection may already exist
                self._sock = None
        self._fail_pending(error)

    def _handle_frame(self, frame: protocol.Frame) -> None:
        with self._lock:
            future = self._pending.pop(frame.request_id, None)
        if future is None:
            return  # response to a request we gave up on
        try:
            if frame.type == protocol.FrameType.RESULT:
                future.set_result(protocol.decode_result(frame.payload))
            elif frame.type == protocol.FrameType.ERROR:
                code, message = protocol.decode_error(frame.payload)
                future.set_exception(protocol.error_to_exception(code, message))
            elif frame.type == protocol.FrameType.PONG:
                future.set_result(frame.payload)
            elif frame.type == protocol.FrameType.STATS_REPLY:
                future.set_result(protocol.decode_json(frame.payload))
            elif frame.type == protocol.FrameType.LIFECYCLE_REPLY:
                future.set_result(protocol.decode_json(frame.payload))
            else:
                future.set_exception(
                    ProtocolError(f"unexpected response frame type {frame.type.name}")
                )
        except ProtocolError as exc:
            future.set_exception(exc)

    def _fail_pending(self, error: Exception) -> None:
        with self._lock:
            pending, self._pending = self._pending, {}
        for future in pending.values():
            if not future.done():
                future.set_exception(error)

    # ------------------------------------------------------------------
    # requests
    # ------------------------------------------------------------------
    def _request(self, frame_type: protocol.FrameType, payload: bytes) -> Future:
        with self._lock:
            if self._closed:
                raise RemoteScoringError("this client has been closed")
            sock = self._sock
        if sock is None:
            if not self.auto_reconnect:
                raise RemoteScoringError(
                    f"not connected to {self.address[0]}:{self.address[1]}"
                )
            self.connect()
            with self._lock:
                sock = self._sock
            if sock is None:  # pragma: no cover - immediate re-loss
                raise RemoteScoringError("connection lost during reconnect")
        future: Future = Future()
        with self._lock:
            request_id = next(self._ids)
            self._pending[request_id] = future
        data = protocol.encode_frame(frame_type, request_id, payload)
        try:
            with self._lock:
                sock.sendall(data)
        except OSError as exc:
            with self._lock:
                self._pending.pop(request_id, None)
                if self._sock is sock:
                    self._sock = None
            raise RemoteScoringError(f"send failed: {exc}") from exc
        return future

    def _call(
        self, frame_type: protocol.FrameType, payload: bytes, timeout: Optional[float]
    ):
        """Blocking request with a single transparent retry on a dead link.

        A server restart leaves a half-open socket: the send may succeed
        into the void and only the reader's EOF reveals the loss.  All
        blocking requests are stateless (scoring is pure), so the client
        dials again and retries exactly once — the second failure (or any
        typed server-side error) propagates.
        """
        wait = self.timeout if timeout is None else timeout
        try:
            return self._request(frame_type, payload).result(wait)
        except RemoteScoringError:
            with self._lock:
                if self._closed or not self.auto_reconnect:
                    raise
            return self._request(frame_type, payload).result(wait)

    def score_async(self, frames: np.ndarray) -> Future:
        """Pipeline one score request; future resolves to the per-monitor
        warn vectors ``{name: bool array of len(frames)}``."""
        return self._request(
            protocol.FrameType.SCORE, protocol.encode_score_request(frames)
        )

    def score(
        self, frames: np.ndarray, timeout: Optional[float] = None
    ) -> Dict[str, np.ndarray]:
        """Score a frame batch and block for the verdicts."""
        return self._call(
            protocol.FrameType.SCORE, protocol.encode_score_request(frames), timeout
        )

    def ping(self, timeout: Optional[float] = None) -> bytes:
        """Round-trip liveness probe (echoes its payload)."""
        return self._call(protocol.FrameType.PING, b"ping", timeout)

    def stats(self, timeout: Optional[float] = None) -> dict:
        """Server-side stats snapshot (scorer ledger + server counters)."""
        return self._call(protocol.FrameType.STATS, b"", timeout)

    # ------------------------------------------------------------------
    # lifecycle control (requires a server started with lifecycle=...)
    # ------------------------------------------------------------------
    def lifecycle_status(self, timeout: Optional[float] = None) -> dict:
        """Lifecycle snapshot: per monitor the live version + state machine."""
        return self._call(protocol.FrameType.LIFECYCLE_STATUS, b"", timeout)

    def promote(
        self,
        name: str,
        guard: bool = True,
        watch_budget: Optional[float] = None,
        timeout: Optional[float] = None,
    ) -> dict:
        """Promote the staged version of ``name``; returns ``{name, version}``.

        A guarded promotion whose shadow evidence is missing or breached
        raises :class:`~repro.exceptions.LifecycleStateError` — the same
        exception an in-process ``LifecycleManager.promote`` raises.
        """
        request: dict = {"name": str(name), "guard": bool(guard)}
        if watch_budget is not None:
            request["watch_budget"] = float(watch_budget)
        # No transparent retry: unlike scoring, a promotion mutates server
        # state — a retry after a lost connection could double-promote.
        wait = self.timeout if timeout is None else timeout
        return self._request(
            protocol.FrameType.PROMOTE, protocol.encode_json(request)
        ).result(wait)

    def rollback(
        self,
        name: str,
        version: Optional[int] = None,
        timeout: Optional[float] = None,
    ) -> dict:
        """Roll ``name`` back to ``version`` (default: the predecessor)."""
        request: dict = {"name": str(name)}
        if version is not None:
            request["version"] = int(version)
        # Single attempt, like promote: rollback mutates server state.
        wait = self.timeout if timeout is None else timeout
        return self._request(
            protocol.FrameType.ROLLBACK, protocol.encode_json(request)
        ).result(wait)

    def shadow_report(
        self, name: Optional[str] = None, timeout: Optional[float] = None
    ) -> dict:
        """Agreement/disagreement ledgers of the attached shadow monitors."""
        request = {} if name is None else {"name": str(name)}
        return self._call(
            protocol.FrameType.SHADOW_REPORT, protocol.encode_json(request), timeout
        )


class AsyncScoringClient:
    """Asyncio counterpart of :class:`ScoringClient` (same wire protocol)."""

    def __init__(
        self,
        address: Tuple[str, int],
        max_payload: int = protocol.DEFAULT_MAX_PAYLOAD,
    ) -> None:
        self.address = (str(address[0]), int(address[1]))
        self.max_payload = int(max_payload)
        self._reader_task: Optional[asyncio.Task] = None
        self._writer: Optional[asyncio.StreamWriter] = None
        self._pending: Dict[int, asyncio.Future] = {}
        self._ids = itertools.count(1)

    async def connect(self) -> "AsyncScoringClient":
        if self._writer is not None:
            return self
        try:
            reader, writer = await asyncio.open_connection(*self.address)
        except OSError as exc:
            raise _dial_error(self.address, exc) from exc
        self._writer = writer
        self._reader_task = asyncio.ensure_future(self._read_loop(reader))
        return self

    async def close(self) -> None:
        writer, self._writer = self._writer, None
        if writer is not None:
            writer.close()
            try:
                await writer.wait_closed()
            except (OSError, ConnectionError):  # pragma: no cover
                pass
        if self._reader_task is not None:
            self._reader_task.cancel()
            try:
                await self._reader_task
            except (asyncio.CancelledError, Exception):
                pass
            self._reader_task = None
        self._fail_pending(RemoteScoringError("client closed"))

    async def __aenter__(self) -> "AsyncScoringClient":
        return await self.connect()

    async def __aexit__(self, exc_type, exc, tb) -> None:
        await self.close()

    def _fail_pending(self, error: Exception) -> None:
        pending, self._pending = self._pending, {}
        for future in pending.values():
            if not future.done():
                future.set_exception(error)

    async def _read_loop(self, reader: asyncio.StreamReader) -> None:
        decoder = protocol.FrameDecoder(max_payload=self.max_payload)
        error: Exception = RemoteScoringError("connection lost")
        try:
            while True:
                chunk = await reader.read(65536)
                if not chunk:
                    break
                for frame in decoder.feed(chunk):
                    future = self._pending.pop(frame.request_id, None)
                    if future is None or future.done():
                        continue
                    if frame.type == protocol.FrameType.RESULT:
                        future.set_result(protocol.decode_result(frame.payload))
                    elif frame.type == protocol.FrameType.ERROR:
                        code, message = protocol.decode_error(frame.payload)
                        future.set_exception(protocol.error_to_exception(code, message))
                    elif frame.type == protocol.FrameType.PONG:
                        future.set_result(frame.payload)
                    elif frame.type in (
                        protocol.FrameType.STATS_REPLY,
                        protocol.FrameType.LIFECYCLE_REPLY,
                    ):
                        future.set_result(protocol.decode_json(frame.payload))
        except ProtocolError as exc:
            error = exc
        except asyncio.CancelledError:
            raise
        except OSError:
            pass
        self._writer = None
        self._fail_pending(error)

    async def _request(self, frame_type: protocol.FrameType, payload: bytes):
        if self._writer is None:
            await self.connect()
        request_id = next(self._ids)
        future = asyncio.get_event_loop().create_future()
        self._pending[request_id] = future
        self._writer.write(protocol.encode_frame(frame_type, request_id, payload))
        await self._writer.drain()
        return await future

    async def score(self, frames: np.ndarray) -> Dict[str, np.ndarray]:
        return await self._request(
            protocol.FrameType.SCORE, protocol.encode_score_request(frames)
        )

    async def ping(self) -> bytes:
        return await self._request(protocol.FrameType.PING, b"ping")

    async def stats(self) -> dict:
        return await self._request(protocol.FrameType.STATS, b"")

    async def lifecycle_status(self) -> dict:
        return await self._request(protocol.FrameType.LIFECYCLE_STATUS, b"")

    async def promote(
        self, name: str, guard: bool = True, watch_budget: Optional[float] = None
    ) -> dict:
        request: dict = {"name": str(name), "guard": bool(guard)}
        if watch_budget is not None:
            request["watch_budget"] = float(watch_budget)
        return await self._request(
            protocol.FrameType.PROMOTE, protocol.encode_json(request)
        )

    async def rollback(self, name: str, version: Optional[int] = None) -> dict:
        request: dict = {"name": str(name)}
        if version is not None:
            request["version"] = int(version)
        return await self._request(
            protocol.FrameType.ROLLBACK, protocol.encode_json(request)
        )

    async def shadow_report(self, name: Optional[str] = None) -> dict:
        request = {} if name is None else {"name": str(name)}
        return await self._request(
            protocol.FrameType.SHADOW_REPORT, protocol.encode_json(request)
        )
