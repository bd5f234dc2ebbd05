"""Asyncio line-protocol frontend (the pool's replacement for thread-per-connection TCP).

Speaks exactly the protocol of :mod:`repro.serve.net` — the same verb
table (:func:`~repro.serve.net.control_reply`), same
answer formatting, same hardening (idle timeout, bounded line length,
per-request deadline) — but multiplexes every connection onto one event
loop instead of one thread each, so ten thousand mostly-idle connections
cost file descriptors rather than stacks.  The backend is duck-typed: a
threaded :class:`~repro.serve.server.SetServer` or a
:class:`~repro.serve.pool.WorkerPool` (anything with ``submit`` /
``kind`` / ``stats_dict`` / ``metrics_text`` / ``trace_spans``).  When
the backend is a pool, the ``WORKERS`` verb reports the per-worker
liveness/generation table as JSON.

The event loop never blocks on an answer: ``submit`` returns a
``concurrent.futures.Future`` resolved by the backend's own threads
(dispatcher or pipe receivers), which the handler awaits through
``asyncio.wrap_future`` — slow queries stall only their own connection.
"""

from __future__ import annotations

import asyncio
import threading
from typing import Any

from .net import _format_answer, check_limits, control_reply, parse_query_line

__all__ = ["AsyncTcpFrontend"]


class AsyncTcpFrontend:
    """Owns the listening socket; run with :meth:`serve_forever` (blocking)
    or :meth:`start_background` (tests), stop with :meth:`shutdown`.

    Parameters mirror :class:`~repro.serve.net.TcpServeFrontend`.
    """

    def __init__(
        self,
        backend: Any,
        host: str = "127.0.0.1",
        port: int = 0,
        idle_timeout_s: float | None = 300.0,
        max_line_bytes: int = 65536,
        request_deadline_s: float | None = 30.0,
    ):
        check_limits(idle_timeout_s, max_line_bytes, request_deadline_s)
        self.backend = backend
        self.host = host
        self.port = int(port)
        self.idle_timeout_s = idle_timeout_s
        self.max_line_bytes = int(max_line_bytes)
        self.request_deadline_s = request_deadline_s
        self._loop: asyncio.AbstractEventLoop | None = None
        self._stop: asyncio.Event | None = None
        self._thread: threading.Thread | None = None
        self._started = threading.Event()
        self._address: tuple[str, int] | None = None
        self._failure: BaseException | None = None

    # -- lifecycle -------------------------------------------------------------

    async def _main(self) -> None:
        self._loop = asyncio.get_running_loop()
        self._stop = asyncio.Event()
        try:
            server = await asyncio.start_server(
                self._handle, self.host, self.port,
                limit=self.max_line_bytes + 2,
            )
        except BaseException as exc:
            self._failure = exc
            self._started.set()
            raise
        self._address = server.sockets[0].getsockname()[:2]
        self._started.set()
        async with server:
            await self._stop.wait()

    def serve_forever(self) -> None:
        asyncio.run(self._main())

    def _serve_background(self) -> None:
        try:
            self.serve_forever()
        except BaseException:
            # Already surfaced through ``_failure`` -> start_background's
            # RuntimeError; re-raising here would only dirty the thread.
            if self._failure is None:
                raise

    def start_background(self) -> "AsyncTcpFrontend":
        self._thread = threading.Thread(
            target=self._serve_background, name="repro-serve-async", daemon=True
        )
        self._thread.start()
        self._started.wait(timeout=30.0)
        if self._failure is not None:
            raise RuntimeError(
                f"frontend failed to bind: {self._failure}"
            ) from self._failure
        return self

    def wait(self) -> None:
        """Block until a background frontend stops (``serve --workers``)."""
        if self._thread is not None:
            self._thread.join()

    def shutdown(self) -> None:
        loop, stop = self._loop, self._stop
        if loop is not None and stop is not None and loop.is_running():
            loop.call_soon_threadsafe(stop.set)
        if self._thread is not None:
            self._thread.join(timeout=10.0)

    @property
    def address(self) -> tuple[str, int]:
        """Bound (host, port) — resolves ephemeral port 0 requests."""
        self._started.wait(timeout=30.0)
        if self._address is None:
            raise RuntimeError("frontend is not listening")
        return self._address

    # -- connection handling ---------------------------------------------------

    async def _handle(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        try:
            await self._serve_lines(reader, writer)
        except (ConnectionError, OSError, asyncio.IncompleteReadError):
            pass
        finally:
            try:
                writer.close()
                await writer.wait_closed()
            except (ConnectionError, OSError):
                pass

    async def _serve_lines(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        backend = self.backend
        while True:
            try:
                raw = await asyncio.wait_for(
                    reader.readline(), timeout=self.idle_timeout_s
                )
            except asyncio.TimeoutError:
                return  # idle connection: drop it
            except (asyncio.LimitOverrunError, ValueError):
                # The line outgrew the stream limit; there is no safe way
                # to resynchronize mid-line, so answer and hang up.
                await self._reply(writer, "error line too long")
                return
            if not raw:
                return
            if len(raw) > self.max_line_bytes:
                await self._reply(writer, "error line too long")
                return
            line = raw.decode("utf-8", errors="replace").strip()
            if not line:
                continue
            tokens = line.split()
            if tokens[0].upper() == "QUIT":
                return
            control = control_reply(backend, tokens)
            if control is not None:
                await self._reply(writer, control)
                continue
            try:
                spec, query = parse_query_line(tokens)
            except ValueError:
                await self._reply(writer, "error malformed query")
                continue
            try:
                answer = await asyncio.wait_for(
                    asyncio.wrap_future(backend.submit(query, predicate=spec)),
                    timeout=self.request_deadline_s,
                )
            except asyncio.TimeoutError:
                await self._reply(writer, "error deadline exceeded")
            except Exception as exc:
                await self._reply(writer, f"error {type(exc).__name__}")
            else:
                await self._reply(writer, _format_answer(backend.kind, answer))

    @staticmethod
    async def _reply(writer: asyncio.StreamWriter, text: str) -> None:
        writer.write((text + "\n").encode("utf-8"))
        await writer.drain()
