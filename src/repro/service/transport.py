"""Threaded JSONL transport: the socket front end of a :class:`SearchService`.

:class:`ServiceServer` speaks the protocol of :mod:`repro.service.protocol`
over TCP or a unix socket with :mod:`socketserver`: one thread accepts, and
each connection gets its own daemon thread that calls the threaded core
directly, so the whole service runs on one concurrency model.

* Every request is checked against the verb table of
  :mod:`repro.service.protocol` before it reaches the service; a malformed
  one is answered with one error line, and the connection stays usable.
* Most verbs answer with one response line.
* **subscribe** writes the events of :meth:`SearchService.subscribe` as they
  arrive; between events the connection's thread blocks on the job's
  condition, and any number of connections may follow the same job.  A
  client that went away is noticed at the next write, which ends its thread.
* **shutdown** answers first, then drains the service and stops the server.

The server binds ``port=0`` to an ephemeral port and reports the bound
address from :meth:`ServiceServer.start`, which is what the tests and
``--ready-file`` use.
"""

from __future__ import annotations

import os
import socket
import socketserver
import stat
import threading
from typing import Any, Callable, Dict, Optional

from repro.obs import get_registry as _obs_registry
from repro.service.core import SearchService
from repro.service.protocol import decode_line, encode_line, error_payload, parse_request

__all__ = ["ServiceServer"]

#: Listen backlog: asyncio's default.  socketserver's own 5 makes a burst of
#: connections wait out 1 s SYN retries.
_BACKLOG = 100
#: Seconds between the accept thread's checks for :meth:`ServiceServer.stop`
#: when no connection arrives (socketserver's default, 0.5 s, is how long
#: every stop would take).
_STOP_POLL_S = 0.05


class _TCPServer(socketserver.ThreadingTCPServer):
    daemon_threads = True
    allow_reuse_address = True
    request_queue_size = _BACKLOG


class _UnixServer(socketserver.ThreadingUnixStreamServer):
    daemon_threads = True
    request_queue_size = _BACKLOG


class ServiceServer:
    """Serve one :class:`SearchService` over TCP (``host:port``) or unix socket."""

    def __init__(
        self,
        service: SearchService,
        *,
        host: str = "127.0.0.1",
        port: int = 0,
        socket_path: Optional[str] = None,
    ) -> None:
        self.service = service
        self.host = host
        self.port = port
        self.socket_path = socket_path
        self.address: Optional[str] = None
        self._server: Optional[socketserver.TCPServer] = None
        self._thread: Optional[threading.Thread] = None

    # ------------------------------------------------------------------ #
    # Lifecycle
    # ------------------------------------------------------------------ #
    def start(self) -> str:
        """Bind, then serve on a background thread; returns the bound address.

        The service's worker pool is started too, so a
        ``ServiceServer(SearchService(...)).start()`` is fully live.  A bind
        failure raises ``OSError`` before any worker starts.  A socket file
        already at ``socket_path`` (left by an earlier server) is replaced;
        any other file there makes the bind fail.
        """
        if self._server is not None:
            raise RuntimeError("server already started")
        if self.socket_path is not None:
            _remove_socket_file(self.socket_path)
            server: socketserver.TCPServer = _UnixServer(self.socket_path, self._handle)
            self.address = f"unix:{self.socket_path}"
        else:
            server = _TCPServer((self.host, self.port), self._handle)
            host, port = server.server_address[:2]
            self.address = f"{host}:{port}"
        self._server = server
        self.service.start()
        self._thread = threading.Thread(
            target=self._serve, args=(server,), name="repro-service-transport", daemon=True
        )
        self._thread.start()
        return self.address

    def wait(self) -> None:
        """Block until the server stops (shutdown verb or :meth:`stop`)."""
        if self._thread is not None:
            self._thread.join()

    def stop(self) -> None:
        """Stop the transport (idempotent); does not shut the service down."""
        if self._server is not None and self._thread is not None:
            # Waits for serve_forever to return, so never call it on _serve's thread.
            self._server.shutdown()
            self._thread.join(timeout=10.0)

    @staticmethod
    def _serve(server: socketserver.TCPServer) -> None:
        try:
            server.serve_forever(poll_interval=_STOP_POLL_S)
        finally:
            server.server_close()

    # ------------------------------------------------------------------ #
    # Connection handling
    # ------------------------------------------------------------------ #
    def _handle(self, sock: socket.socket, _client: Any, _server: Any) -> None:
        """Serve one connection on its own thread, answering requests in order.

        socketserver calls this in place of a request handler class and
        closes the socket when it returns.
        """
        try:
            with sock.makefile("rb") as reader:
                for line in reader:
                    if not line.strip():
                        continue
                    try:
                        self._dispatch(decode_line(line), sock.sendall)
                    except (ValueError, KeyError) as exc:
                        message = exc.args[0] if exc.args else str(exc)
                        sock.sendall(encode_line(error_payload(str(message))))
        except ConnectionError:
            pass  # client went away mid-stream; nothing to clean up

    def _dispatch(self, request: Dict[str, Any], send: Callable[[bytes], Any]) -> None:
        op, fields = parse_request(request)
        if op == "subscribe":
            job_id = fields["job_id"]
            for event in self.service.subscribe(job_id, replay=fields["replay"]):
                send(encode_line({"ok": True, "event": event}))
            send(encode_line({"ok": True, "done": True, "job": self.service.status(job_id)}))
        elif op == "shutdown":
            send(encode_line({"ok": True, "shutting_down": True, "drain": fields["drain"]}))
            self.service.shutdown(drain=fields["drain"])
            self.stop()
        else:
            send(encode_line({"ok": True, **self._reply(op, fields)}))

    def _reply(self, op: str, fields: Dict[str, Any]) -> Dict[str, Any]:
        """The response of a one-line verb, without its ``ok``."""
        if op == "ping":
            return {"pong": True}
        if op == "submit":
            payload = fields["spec"] if fields["spec"] is not None else fields["sweep"]
            return self.service.submit(payload, client=fields["client"])
        if op == "jobs":
            return {"jobs": self.service.jobs(), "stats": self.service.service_stats()}
        if op == "metrics":
            if fields["format"] == "prometheus":
                return {"text": _obs_registry().render_prometheus()}
            return {"metrics": _obs_registry().snapshot(), "service": self.service.service_stats()}
        job_id = fields["job_id"]  # status or cancel
        if op == "status":
            snapshot = self.service.status(job_id)
        else:
            snapshot = self.service.cancel(job_id)
        if snapshot is None:
            raise KeyError(f"unknown job {job_id!r}")
        return {"job": snapshot}


def _remove_socket_file(path: str) -> None:
    """Delete a unix socket file left at ``path`` by an earlier server; a
    file of any other kind is left for the bind to fail on."""
    try:
        if stat.S_ISSOCK(os.stat(path).st_mode):
            os.remove(path)
    except FileNotFoundError:
        pass
