"""``repro.service`` — search-as-a-service: a threaded job server over the Engine.

The paper's whole architecture is a client/server system that keeps many
workers saturated with playout jobs; this package is that architecture for
the *library itself*.  A long-running :class:`SearchService` accepts
:class:`~repro.api.SearchSpec` / :class:`~repro.lab.sweep.SweepSpec`
submissions from any number of clients and multiplexes them onto a
persistent worker pool, with:

* a bounded FIFO job queue: jobs run in submission order, as the paper's
  dispatcher hands out client jobs, and overload answers
  *rejected/queue_full* — backpressure, not buffering;
* two-level deduplication against in-flight jobs (identical submission →
  subscribe to the running job, exactly one search executes) and against
  the content-addressed :class:`~repro.lab.store.ResultStore` (cache hit →
  immediate result, zero searches);
* cooperative cancellation (the ``threading.Event`` plumbing
  ``Engine.stream`` already honours);
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
from repro.service.transport import ServiceServer

__all__ = [
    "SearchService",
    "ServiceConfig",
    "ServiceServer",
    "ServiceClient",
    "ServiceError",
    "Job",
    "JobState",
]
