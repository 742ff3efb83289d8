"""``repro.service`` — search-as-a-service: a threaded job server over the Engine.

The paper's whole architecture is a client/server system that keeps many
workers saturated with playout jobs; this package is that architecture for
the *library itself*.  A long-running :class:`SearchService` accepts
:class:`~repro.api.SearchSpec` / :class:`~repro.lab.sweep.SweepSpec`
submissions from any number of clients and multiplexes them onto a
persistent worker pool, with:

* a bounded, client-fair, priority :class:`~repro.service.queue.JobQueue`
  (overload answers *rejected/queue_full* — backpressure, not buffering);
* two-level deduplication against the content-addressed
  :class:`~repro.lab.store.ResultStore` (cache hit → immediate result,
  zero searches) and against in-flight jobs (identical submission →
  subscribe to the running job, exactly one search executes);
* per-client token-bucket rate limiting
  (:mod:`repro.service.ratelimit`) and cooperative cancellation (the
  ``threading.Event`` plumbing ``Engine.stream`` already honours);
* a subscription layer replaying/streaming wire-form
  :class:`~repro.api.RunEvent`\\ s to any number of subscribers per job;
* a newline-delimited-JSON transport: :class:`ServiceServer` (TCP or unix
  socket, one thread per connection), :class:`ServiceClient`, and the
  ``repro serve`` / ``repro submit`` / ``repro jobs`` CLI commands.

See ``docs/SERVICE.md`` for the architecture and wire protocol.

>>> from repro.service import SearchService, ServiceClient, ServiceServer
>>> server = ServiceServer(SearchService())           # doctest: +SKIP
>>> address = server.start()                          # doctest: +SKIP
>>> ServiceClient(address).run({"workload": "leftmove", "max_steps": 1})  # doctest: +SKIP
"""

from repro.service.client import ServiceClient, ServiceError
from repro.service.core import SearchService, ServiceConfig
from repro.service.jobs import Job, JobState
from repro.service.queue import JobQueue, QueueFull
from repro.service.ratelimit import ClientRateLimiter, TokenBucket
from repro.service.transport import ServiceServer

__all__ = [
    "SearchService",
    "ServiceConfig",
    "ServiceServer",
    "ServiceClient",
    "ServiceError",
    "Job",
    "JobState",
    "JobQueue",
    "QueueFull",
    "TokenBucket",
    "ClientRateLimiter",
]
