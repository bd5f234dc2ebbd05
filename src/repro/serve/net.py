"""Line-protocol TCP frontend over a :class:`SetServer`.

``repro serve --port`` exposes a trained structure to remote clients with a
protocol deliberately simple enough for ``nc``:

* request: one query per line, element ids separated by spaces
  (``3 17 42\\n``); an optional leading predicate token selects the query
  semantics (``superset 3 17 42``, ``overlap>=2 3 17``,
  ``jaccard>=0.5 3 17``, ``subset 3 17`` — no token means ``subset``);
* response: one line per query — cardinality as a float, index position as
  an integer (``none`` for a miss), membership as ``true``/``false``;
* ``STATS`` returns the full server-stats JSON on one line;
* ``METRICS`` returns the Prometheus-style text exposition (latency
  histograms, cache hit rate, guard fallbacks, shard fan-out, training
  stats) — multi-line, terminated by a ``# EOF`` line (the OpenMetrics
  convention), since the exposition format is inherently line-oriented;
* ``TRACE`` (optionally ``TRACE <limit>``) returns the most recent
  query-path spans as a JSON array on one line;
* ``REFRESH`` returns the maintenance status JSON (delta backlog,
  staleness policy, refresh counts) when the server runs with
  ``--auto-refresh``, else ``{"auto_refresh": false}``; ``REFRESH NOW``
  additionally forces a refresh before reporting;
* ``STALENESS`` returns the adaptive-refresh status JSON (workload-log
  summary, per-shard observed q-error, tripped policy reasons) when the
  server runs an adaptive maintainer, else ``{"adaptive": false}``;
* ``WORKERS`` returns the per-worker liveness/generation table as JSON
  when the backend is a worker pool, else ``error not a worker pool``;
* ``QUIT`` ends the connection (as does EOF);
* a line that does not parse as integers is answered with
  ``error malformed query`` — the connection stays up.

Each client connection runs on its own thread (``ThreadingTCPServer``), so
concurrent connections exercise the micro-batcher exactly like in-process
client threads do.

The frontend defends its handler threads against hostile or broken
clients:

* **idle timeout** — a connection that sends nothing for ``idle_timeout_s``
  is dropped (a stalled client used to hold its handler thread forever);
* **bounded line length** — a request line longer than ``max_line_bytes``
  is answered with ``error line too long`` and the connection is closed (a
  newline-less firehose used to grow an unbounded buffer);
* **per-request deadline** — a query that the server cannot answer within
  ``request_deadline_s`` is answered with ``error deadline exceeded``
  instead of blocking the handler on the future indefinitely.
"""

from __future__ import annotations

import concurrent.futures
import json
import socketserver
import threading
from typing import Any

from ..sets.predicates import Predicate
from .server import SetServer

__all__ = ["TcpServeFrontend", "control_reply", "parse_query_line"]


def parse_query_line(tokens: list[str]) -> tuple[str, tuple[int, ...]]:
    """Split a request line into ``(predicate_spec, query)``.

    An optional leading non-numeric token names the predicate
    (``superset 3 17``, ``overlap>=2 3 17``); its absence means
    ``subset``.  Raises ``ValueError`` for unparseable lines — a leading
    token that is neither an integer nor a known predicate keeps the
    protocol's historical ``error malformed query`` answer.
    """
    spec = "subset"
    if tokens:
        head = tokens[0]
        if not (head.isdigit() or (head.startswith("-") and head[1:].isdigit())):
            spec = Predicate.parse(head).spec
            tokens = tokens[1:]
    return spec, tuple(int(token) for token in tokens)


def control_reply(backend: Any, tokens: list[str]) -> str | None:
    """Full reply text of a control verb; ``None`` when the line is not one.

    The one verb table both transports share.  ``backend`` is duck-typed:
    a :class:`SetServer` or a :class:`~repro.serve.pool.WorkerPool`.
    """
    command = tokens[0].upper()
    if command == "STATS":
        return json.dumps(backend.stats_dict(), sort_keys=True)
    if command == "METRICS":
        return "\n".join(backend.metrics_text().splitlines() + ["# EOF"])
    if command == "TRACE":
        limit = 200
        if len(tokens) > 1:
            try:
                limit = max(0, int(tokens[1]))
            except ValueError:
                return "error malformed trace limit"
        return json.dumps(backend.trace_spans(limit))
    if command == "WORKERS":
        info = getattr(backend, "workers_info", None)
        return "error not a worker pool" if info is None else json.dumps(info())
    if command == "REFRESH":
        maintainer = getattr(backend, "maintainer", None)
        if maintainer is None:
            return json.dumps({"auto_refresh": False})
        if len(tokens) > 1 and tokens[1].upper() == "NOW":
            try:
                maintainer.refresh_now(("manual",))
            except Exception as exc:
                return f"error {type(exc).__name__}"
        return json.dumps(maintainer.status(), sort_keys=True)
    if command == "STALENESS":
        maintainer = getattr(backend, "maintainer", None)
        status = getattr(maintainer, "staleness_status", None)
        if status is None:
            return json.dumps({"adaptive": False})
        try:
            return json.dumps(status(), sort_keys=True)
        except Exception as exc:
            return f"error {type(exc).__name__}"
    return None


def check_limits(
    idle_timeout_s: float | None,
    max_line_bytes: int,
    request_deadline_s: float | None,
) -> None:
    """Validate a frontend's hardening limits (shared by both transports)."""
    if idle_timeout_s is not None and idle_timeout_s <= 0:
        raise ValueError("idle_timeout_s must be positive or None")
    if max_line_bytes < 16:
        raise ValueError("max_line_bytes must be >= 16")
    if request_deadline_s is not None and request_deadline_s <= 0:
        raise ValueError("request_deadline_s must be positive or None")


class _Handler(socketserver.StreamRequestHandler):
    def setup(self) -> None:
        # StreamRequestHandler applies ``self.timeout`` to the socket, so
        # every blocking read on rfile observes the idle timeout.
        self.timeout = self.server.idle_timeout_s  # type: ignore[attr-defined]
        super().setup()

    def handle(self) -> None:
        try:
            self._serve_lines()
        except (TimeoutError, OSError):
            # Stalled, vanished, or misbehaving client: drop the
            # connection and free the handler thread.
            return

    def _serve_lines(self) -> None:
        server: SetServer = self.server.set_server  # type: ignore[attr-defined]
        max_line = self.server.max_line_bytes  # type: ignore[attr-defined]
        deadline = self.server.request_deadline_s  # type: ignore[attr-defined]
        while True:
            raw = self.rfile.readline(max_line + 1)
            if not raw:
                return
            if len(raw) > max_line:
                # The line kept going past the cap; there is no safe way
                # to resynchronize mid-line, so answer and hang up.
                self._reply("error line too long")
                return
            line = raw.decode("utf-8", errors="replace").strip()
            if not line:
                continue
            tokens = line.split()
            if tokens[0].upper() == "QUIT":
                return
            control = control_reply(server, tokens)
            if control is not None:
                self._reply(control)
                continue
            try:
                spec, query = parse_query_line(tokens)
            except ValueError:
                self._reply("error malformed query")
                continue
            try:
                answer = server.query(query, timeout=deadline, predicate=spec)
            except (concurrent.futures.TimeoutError, TimeoutError):
                self._reply("error deadline exceeded")
            except Exception as exc:
                self._reply(f"error {type(exc).__name__}")
            else:
                self._reply(_format_answer(server.kind, answer))

    def _reply(self, text: str) -> None:
        self.wfile.write((text + "\n").encode("utf-8"))
        self.wfile.flush()


def _format_answer(kind: str, answer: Any) -> str:
    if kind == "cardinality":
        return f"{float(answer):.2f}"
    if kind == "index":
        return "none" if answer is None else str(int(answer))
    return "true" if answer else "false"


class _TcpServer(socketserver.ThreadingTCPServer):
    allow_reuse_address = True
    daemon_threads = True


class TcpServeFrontend:
    """Owns the listening socket; start with :meth:`serve_forever` (blocking)
    or :meth:`start_background` (tests), stop with :meth:`shutdown`.

    Parameters
    ----------
    idle_timeout_s:
        Connections idle longer than this are dropped; ``None`` disables
        the timeout (not recommended outside tests).
    max_line_bytes:
        Longest accepted request line (including the newline).
    request_deadline_s:
        Per-query answer deadline; ``None`` waits forever.
    """

    def __init__(
        self,
        set_server: SetServer,
        host: str = "127.0.0.1",
        port: int = 0,
        idle_timeout_s: float | None = 300.0,
        max_line_bytes: int = 65536,
        request_deadline_s: float | None = 30.0,
    ):
        check_limits(idle_timeout_s, max_line_bytes, request_deadline_s)
        self._tcp = _TcpServer((host, port), _Handler)
        self._tcp.set_server = set_server  # type: ignore[attr-defined]
        self._tcp.idle_timeout_s = idle_timeout_s  # type: ignore[attr-defined]
        self._tcp.max_line_bytes = int(max_line_bytes)  # type: ignore[attr-defined]
        self._tcp.request_deadline_s = request_deadline_s  # type: ignore[attr-defined]
        self._thread: threading.Thread | None = None

    @property
    def address(self) -> tuple[str, int]:
        """Bound (host, port) — resolves ephemeral port 0 requests."""
        return self._tcp.server_address[:2]

    def serve_forever(self) -> None:
        self._tcp.serve_forever()

    def start_background(self) -> "TcpServeFrontend":
        self._thread = threading.Thread(
            target=self._tcp.serve_forever, name="repro-serve-tcp", daemon=True
        )
        self._thread.start()
        return self

    def shutdown(self) -> None:
        self._tcp.shutdown()
        self._tcp.server_close()
        if self._thread is not None:
            self._thread.join(timeout=5.0)
