"""The service's wire protocol: newline-delimited JSON over a byte stream.

Framing
-------
One JSON object per line (``\\n`` terminated, UTF-8).  Clients write
*request* lines; the server answers each request with one or more *response*
lines on the same connection, in order.  Every response carries ``ok``
(bool); failures carry ``error`` (str).  A connection may issue any number of
requests sequentially.

Requests name their verb with ``op``.  :data:`REQUESTS` lists each verb's
fields with their types and defaults, and :func:`parse_request` checks a
request against it: an unknown verb or field, a missing required field or a
value of the wrong type is an ``{"ok": false, "error": ...}`` answer, and the
connection stays usable.

=============  ============================================================
``submit``     ``{"op": "submit", "spec": {...}}`` or ``{"sweep": {...}}``,
               optional ``client`` (str).  One response: the
               acknowledgement (``status`` = queued/cached/attached/rejected,
               ``job_id`` when a job exists — see ``SearchService.submit``).
``status``     ``{"op": "status", "job_id": "..."}`` → ``{"ok", "job"}``.
``jobs``       ``{"op": "jobs"}`` → ``{"ok", "jobs": [...], "stats"}``.
``subscribe``  ``{"op": "subscribe", "job_id": "...", "replay": true}`` →
               a stream of ``{"ok", "event": {...}}`` lines (wire-form
               :class:`~repro.api.RunEvent` dicts, replayed from the start
               when ``replay``), terminated by ``{"ok", "done": true,
               "job": {...}}``.
``cancel``     ``{"op": "cancel", "job_id": "..."}`` → ``{"ok", "job"}``.
``shutdown``   ``{"op": "shutdown", "drain": true}`` → ``{"ok",
               "shutting_down": true}``; the server drains and stops.
``ping``       ``{"op": "ping"}`` → ``{"ok", "pong": true}``.
``metrics``    ``{"op": "metrics"}`` → ``{"ok", "metrics": {...},
               "service": {...}}`` (the :mod:`repro.obs` registry snapshot
               plus ``SearchService.service_stats()``);
               ``{"op": "metrics", "format": "prometheus"}`` → ``{"ok",
               "text": "..."}`` in Prometheus text exposition format.
=============  ============================================================

This module also owns address parsing: ``"host:port"`` for TCP,
``"unix:<path>"`` for unix-domain sockets.
"""

from __future__ import annotations

import json
from typing import Any, Callable, Dict, Mapping, Tuple, Union

from repro.api import SearchSpec
from repro.lab.sweep import SweepSpec

__all__ = [
    "REQUESTS",
    "REQUIRED",
    "decode_line",
    "encode_line",
    "error_payload",
    "parse_address",
    "parse_request",
]


def _string(value: Any) -> str:
    if not isinstance(value, str):
        raise ValueError(f"must be a string, got {value!r}")
    return value


def _boolean(value: Any) -> bool:
    if not isinstance(value, bool):
        raise ValueError(f"must be true or false, got {value!r}")
    return value


def _metrics_format(value: Any) -> str:
    if value not in ("json", "prometheus"):
        raise ValueError(f"unknown metrics format {value!r}; use 'json' or 'prometheus'")
    return value


#: The default of a field every request of its verb must carry.
REQUIRED = object()

#: Every request the server understands: verb -> field -> (parse, default).
#: ``parse`` takes the field's JSON value and returns what the server uses,
#: or raises ``ValueError``; an absent field takes ``default``.  A ``submit``
#: also needs exactly one of ``spec`` and ``sweep``.
REQUESTS: Dict[str, Dict[str, Tuple[Callable[[Any], Any], Any]]] = {
    "submit": {
        "spec": (SearchSpec.from_dict, None),
        "sweep": (SweepSpec.from_dict, None),
        "client": (_string, "anon"),
    },
    "status": {"job_id": (_string, REQUIRED)},
    "subscribe": {"job_id": (_string, REQUIRED), "replay": (_boolean, True)},
    "cancel": {"job_id": (_string, REQUIRED)},
    "jobs": {},
    "metrics": {"format": (_metrics_format, "json")},
    "shutdown": {"drain": (_boolean, True)},
    "ping": {},
}


def parse_request(request: Mapping[str, Any]) -> Tuple[str, Dict[str, Any]]:
    """``(op, fields)`` of a decoded request, checked against :data:`REQUESTS`.

    ``fields`` holds every field of the verb, parsed, with the defaults of
    absent ones.  Raises ``ValueError`` naming the first problem found.
    """
    op = request.get("op")
    if not isinstance(op, str) or op not in REQUESTS:
        raise ValueError(f"unknown op {op!r}; known ops: {', '.join(REQUESTS)}")
    table = REQUESTS[op]
    unknown = sorted(set(request) - set(table) - {"op"})
    if unknown:
        raise ValueError(
            f"{op}: unknown fields {', '.join(unknown)}; "
            f"known fields: {', '.join(table) or 'none'}"
        )
    fields: Dict[str, Any] = {}
    for name, (parse, default) in table.items():
        if name not in request:
            if default is REQUIRED:
                raise ValueError(f"{op} needs a {name!r} field")
            fields[name] = default
            continue
        try:
            fields[name] = parse(request[name])
        except ValueError as exc:
            raise ValueError(f"{op}.{name}: {exc}") from None
    if op == "submit" and (fields["spec"] is None) == (fields["sweep"] is None):
        raise ValueError("submit needs exactly one of 'spec' or 'sweep'")
    return op, fields


def encode_line(payload: Mapping[str, Any]) -> bytes:
    """One wire frame: compact JSON + newline, UTF-8."""
    return json.dumps(payload, separators=(",", ":"), sort_keys=True).encode("utf-8") + b"\n"


def decode_line(line: Union[bytes, str]) -> Dict[str, Any]:
    """Parse one frame; raises ``ValueError`` unless it is a JSON object."""
    try:
        if isinstance(line, bytes):
            line = line.decode("utf-8")
        payload = json.loads(line)
    except UnicodeDecodeError as exc:
        raise ValueError(f"a wire frame must be UTF-8: {exc}") from None
    except (json.JSONDecodeError, RecursionError) as exc:
        raise ValueError(f"bad JSON frame: {exc}") from None
    if not isinstance(payload, dict):
        raise ValueError("a wire frame must be a JSON object")
    return payload


def error_payload(message: str) -> Dict[str, Any]:
    """The uniform failure response."""
    return {"ok": False, "error": message}


def parse_address(address: str) -> Tuple[str, Any]:
    """``("unix", path)`` or ``("tcp", (host, port))`` from an address string.

    Accepted forms: ``unix:/run/repro.sock`` and ``host:port`` (the host may
    be empty — ``":7171"`` — meaning localhost).
    """
    if address.startswith("unix:"):
        path = address[len("unix:"):]
        if not path:
            raise ValueError("unix address needs a path: 'unix:/some/socket'")
        return "unix", path
    host, sep, port = address.rpartition(":")
    if not sep or not port.isdigit():
        raise ValueError(
            f"bad address {address!r}; expected 'host:port' or 'unix:<path>'"
        )
    return "tcp", (host or "127.0.0.1", int(port))
