"""Blocking client library for the service's JSONL protocol.

:class:`ServiceClient` talks to a running ``repro serve`` over TCP or a unix
socket.  Each verb opens its own short-lived connection (``subscribe`` holds
it open for the event stream), so one client object is safe to share across
threads — there is no connection state to corrupt.

>>> client = ServiceClient("127.0.0.1:7171")                  # doctest: +SKIP
>>> outcome = client.run({"workload": "leftmove", "max_steps": 1})  # doctest: +SKIP
>>> outcome["report"]["score"]                                 # doctest: +SKIP
"""

from __future__ import annotations

import socket
from typing import Any, Callable, Dict, Iterator, List, Mapping, Optional, Union

from repro.service.protocol import decode_line, encode_line, parse_address

__all__ = ["ServiceClient", "ServiceError"]


class ServiceError(RuntimeError):
    """A response-level failure (``ok: false`` or a rejected submission)."""


class ServiceClient:
    """Client for a running :class:`~repro.service.transport.ServiceServer`.

    Parameters
    ----------
    address:
        ``"host:port"`` or ``"unix:<path>"``.
    client:
        The label submitted with each job; the server records it on the job
        (``repro jobs`` shows it) and in its telemetry.
    timeout:
        Socket timeout (seconds) for request/response verbs.  ``subscribe``
        ignores it (events may be minutes apart on long sweeps).
    """

    def __init__(
        self, address: str, *, client: str = "anon", timeout: Optional[float] = 30.0
    ) -> None:
        self.address = address
        self.client = client
        self.timeout = timeout
        parse_address(address)  # fail fast on typos

    # ------------------------------------------------------------------ #
    # Low-level plumbing
    # ------------------------------------------------------------------ #
    def _connect(self, timeout: Optional[float]) -> socket.socket:
        family, target = parse_address(self.address)
        if family == "unix":
            sock = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
        else:
            sock = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        try:
            sock.settimeout(timeout)
            sock.connect(target)
        except OSError:
            sock.close()
            raise
        return sock

    def _request(self, payload: Mapping[str, Any]) -> Dict[str, Any]:
        """One request, one response line, connection closed."""
        with self._connect(self.timeout) as sock:
            sock.sendall(encode_line(payload))
            with sock.makefile("rb") as reader:
                line = reader.readline()
        if not line:
            raise ServiceError("connection closed before a response arrived")
        response = decode_line(line)
        if not response.get("ok"):
            raise ServiceError(response.get("error", "unknown service error"))
        return response

    def _request_stream(self, payload: Mapping[str, Any]) -> Iterator[Dict[str, Any]]:
        """One request, many response lines (until the ``done`` frame)."""
        with self._connect(None) as sock:
            sock.sendall(encode_line(payload))
            with sock.makefile("rb") as reader:
                for line in reader:
                    response = decode_line(line)
                    if not response.get("ok"):
                        raise ServiceError(response.get("error", "unknown service error"))
                    yield response
                    if response.get("done"):
                        return
        raise ServiceError("event stream ended without a 'done' frame")

    # ------------------------------------------------------------------ #
    # Verbs
    # ------------------------------------------------------------------ #
    def ping(self) -> bool:
        return bool(self._request({"op": "ping"}).get("pong"))

    def submit(
        self,
        spec: Optional[Union[Mapping[str, Any], Any]] = None,
        *,
        sweep: Optional[Union[Mapping[str, Any], Any]] = None,
        client: Optional[str] = None,
    ) -> Dict[str, Any]:
        """Submit a spec or sweep; returns the server's acknowledgement.

        ``spec``/``sweep`` accept plain dicts or ``SearchSpec``/``SweepSpec``
        objects (anything with ``to_dict``).  Exactly one must be given.
        A *rejected* ack is returned, not raised — backpressure is an
        expected answer the caller should handle (retry, shed, report).
        """
        if (spec is None) == (sweep is None):
            raise ValueError("submit takes exactly one of spec= or sweep=")
        request: Dict[str, Any] = {
            "op": "submit",
            "client": client if client is not None else self.client,
        }
        if spec is not None:
            request["spec"] = spec.to_dict() if hasattr(spec, "to_dict") else dict(spec)
        else:
            request["sweep"] = sweep.to_dict() if hasattr(sweep, "to_dict") else dict(sweep)
        response = self._request(request)
        response.pop("ok", None)
        return response

    def status(self, job_id: str) -> Dict[str, Any]:
        return self._request({"op": "status", "job_id": job_id})["job"]

    def jobs(self) -> Dict[str, Any]:
        """``{"jobs": [...snapshots...], "stats": {...}}`` from the server."""
        response = self._request({"op": "jobs"})
        return {"jobs": response["jobs"], "stats": response["stats"]}

    def cancel(self, job_id: str) -> Dict[str, Any]:
        return self._request({"op": "cancel", "job_id": job_id})["job"]

    def metrics(self, format: Optional[str] = None) -> Dict[str, Any]:
        """The server's telemetry.

        Default (JSON) form: ``{"metrics": <registry snapshot>, "service":
        <service_stats>}``.  ``format="prometheus"`` returns ``{"text": ...}``
        in Prometheus text exposition format.
        """
        request: Dict[str, Any] = {"op": "metrics"}
        if format is not None:
            request["format"] = format
        response = self._request(request)
        response.pop("ok", None)
        return response

    def shutdown(self, drain: bool = True) -> Dict[str, Any]:
        return self._request({"op": "shutdown", "drain": drain})

    def subscribe(
        self, job_id: str, *, replay: bool = True
    ) -> Iterator[Dict[str, Any]]:
        """Yield the job's wire-form events; the final ``done`` frame's job
        snapshot is not yielded (use :meth:`wait` to get it)."""
        for frame in self._request_stream(
            {"op": "subscribe", "job_id": job_id, "replay": replay}
        ):
            if frame.get("done"):
                return
            yield frame["event"]

    def wait(
        self,
        job_id: str,
        *,
        on_event: Optional[Callable[[Dict[str, Any]], None]] = None,
    ) -> Dict[str, Any]:
        """Follow ``job_id`` to the end; returns the collected outcome.

        The outcome is ``{"job": <final snapshot>, "counts": {...},
        "reports": [...]}`` — ``reports`` holds the wire-form
        :class:`~repro.api.RunReport` dict of every cached/completed cell in
        cell order (decode with ``RunReport.from_dict`` when objects are
        needed).
        """
        reports: Dict[int, Dict[str, Any]] = {}
        final: Optional[Dict[str, Any]] = None
        for frame in self._request_stream(
            {"op": "subscribe", "job_id": job_id, "replay": True}
        ):
            if frame.get("done"):
                final = frame["job"]
                break
            event = frame["event"]
            if on_event is not None:
                on_event(event)
            if event.get("report") is not None:
                reports[event["index"]] = event["report"]
        if final is None:
            raise ServiceError("event stream ended without a 'done' frame")
        ordered: List[Dict[str, Any]] = [reports[i] for i in sorted(reports)]
        return {"job": final, "counts": final["cells"], "reports": ordered}

    def run(
        self,
        spec: Optional[Union[Mapping[str, Any], Any]] = None,
        *,
        sweep: Optional[Union[Mapping[str, Any], Any]] = None,
        on_event: Optional[Callable[[Dict[str, Any]], None]] = None,
    ) -> Dict[str, Any]:
        """Submit and wait: the blocking convenience wrapper.

        Returns :meth:`wait`'s outcome plus ``"submit"`` (the ack), so the
        caller can see whether the job was fresh, cached, or attached to an
        in-flight duplicate.  Raises :class:`ServiceError` if the submission
        was rejected (full queue, shutdown).
        """
        ack = self.submit(spec, sweep=sweep)
        if ack.get("status") == "rejected":
            raise ServiceError(f"submission rejected: {ack.get('reason')}")
        outcome = self.wait(ack["job_id"], on_event=on_event)
        outcome["submit"] = ack
        return outcome
