"""Content-addressed on-disk store of search results.

A :class:`ResultStore` maps :class:`~repro.api.SearchSpec`\\ s to their
:class:`~repro.api.RunReport`\\ s through :func:`repro.lab.keys.spec_key`:
the canonical hash of a spec (+ the code-version salt) names a JSON record
on disk.  Because the key is derived from *content*, not from when or where
a run happened, the store gives sweeps two properties for free:

* **skip** — re-running a sweep against a populated store executes zero new
  searches (every cell resolves to an existing record);
* **resume** — an interrupted sweep picks up where it stopped, completing
  only the missing cells, with no bookkeeping beyond the records themselves.

Layout: ``<root>/ab/<full-40-hex-key>.json`` (two-character fan-out so a
directory never accumulates every record).  Records are written atomically
(temp file + ``os.replace``), so a killed run never leaves a half-written
record to poison a resume.

A record keeps the spec, the report's serialised form and provenance
(salt, creation time, library version).  Reports loaded back carry rendered
move strings rather than live ``Move`` objects — scores, times and counters
round-trip exactly, and :func:`repro.games.base.play_sequence` replays the
strings.
"""

from __future__ import annotations

import json
import os
import tempfile
import threading
import time
from pathlib import Path
from typing import Any, Dict, Iterator, Optional, Union

try:  # POSIX advisory locking; the claim-file fallback covers the rest
    import fcntl
except ImportError:  # pragma: no cover - non-POSIX platforms
    fcntl = None  # type: ignore[assignment]

from repro.api import RunReport, SearchSpec
from repro.lab.keys import CODE_VERSION, spec_key
from repro.obs import metrics as _obs_metrics

__all__ = ["ResultStore", "StoreRecord"]

# Telemetry (no-ops unless repro.obs is enabled).
_STORE_HITS = _obs_metrics.counter(
    "repro_store_hits_total", "ResultStore.get lookups that found a record"
)
_STORE_MISSES = _obs_metrics.counter(
    "repro_store_misses_total", "ResultStore.get lookups that found nothing"
)
_STORE_WRITES = _obs_metrics.counter(
    "repro_store_writes_total", "records persisted by ResultStore.put"
)
_STORE_LOCK_WAIT = _obs_metrics.histogram(
    "repro_store_lock_wait_seconds",
    "time ResultStore.put waited for the write locks (thread + inter-process)",
    buckets=(0.0001, 0.001, 0.01, 0.1, 1.0, 10.0),
)

#: A stored record: ``{"key", "salt", "created_at", "spec", "report"}``.
StoreRecord = Dict[str, Any]

#: Per-process write lock shared by every :class:`ResultStore` instance.
#: This keeps the mkstemp/dump/replace path serialised across *threads* of
#: one process (the service's worker pool races ``put`` on the same key); the
#: :class:`_InterProcessFileLock` below extends the same guarantee across
#: *processes* (two ``repro sweep`` invocations, or a sweep racing a server,
#: sharing one store), so concurrent writers degrade to last-writer-wins
#: instead of interleaving temp-file churn.  ``os.replace`` keeps each
#: individual write atomic regardless.
_WRITE_LOCK = threading.Lock()

#: Seconds after which a claim file left by a killed process (claim-file
#: fallback only — ``flock`` locks die with their holder) is treated as stale
#: and broken.  Well above any single record write, well below a human retry.
_CLAIM_STALE_S = 30.0


class _InterProcessFileLock:
    """An advisory cross-process mutex on ``<root>/.lock``.

    On POSIX this is ``fcntl.flock(LOCK_EX)`` — kernel-mediated, released
    automatically when the holding process dies, zero polling.  Where
    ``fcntl`` is unavailable it degrades to an ``O_EXCL`` claim-file spin:
    atomically create ``<root>/.lock.claim`` to acquire, unlink to release,
    break claims older than :data:`_CLAIM_STALE_S` (a killed writer must not
    wedge the store forever).

    Callers must serialise *threads* themselves (``put`` holds
    :data:`_WRITE_LOCK` around this lock): ``flock`` is per open file
    description, so two threads of one process would not exclude each other
    through it.
    """

    def __init__(self, path: Path) -> None:
        self.path = path
        self._fd: Optional[int] = None
        self._claim: Optional[Path] = None

    def __enter__(self) -> "_InterProcessFileLock":
        self.path.parent.mkdir(parents=True, exist_ok=True)
        if fcntl is not None:
            self._fd = os.open(self.path, os.O_RDWR | os.O_CREAT, 0o644)
            fcntl.flock(self._fd, fcntl.LOCK_EX)
            return self
        claim = self.path.with_name(self.path.name + ".claim")
        while True:  # pragma: no cover - exercised only without fcntl
            try:
                fd = os.open(claim, os.O_CREAT | os.O_EXCL | os.O_WRONLY, 0o644)
                os.close(fd)
                self._claim = claim
                return self
            except FileExistsError:
                try:
                    age = time.time() - claim.stat().st_mtime
                except OSError:  # holder released between open and stat
                    continue
                if age > _CLAIM_STALE_S:
                    try:
                        claim.unlink()
                    except OSError:
                        pass
                    continue
                time.sleep(0.005)

    def __exit__(self, *exc_info: Any) -> None:
        if self._fd is not None:
            fcntl.flock(self._fd, fcntl.LOCK_UN)
            os.close(self._fd)
            self._fd = None
        if self._claim is not None:  # pragma: no cover - fcntl-less fallback
            try:
                self._claim.unlink()
            except OSError:
                pass
            self._claim = None


class ResultStore:
    """A content-addressed, process-safe store of run reports.

    Parameters
    ----------
    root:
        Directory holding the records (created on first write).
    salt:
        Key salt; defaults to :data:`repro.lab.keys.CODE_VERSION`.  A store
        under another salt never sees the default store's records.
    """

    def __init__(self, root: Union[str, Path], *, salt: str = CODE_VERSION) -> None:
        self.root = Path(root)
        self.salt = salt
        # Lives outside the ??/ record fan-out, so keys() never sees it.
        self._iplock = _InterProcessFileLock(self.root / ".lock")

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"ResultStore({str(self.root)!r}, salt={self.salt!r})"

    # ------------------------------------------------------------------ #
    # Keys and paths
    # ------------------------------------------------------------------ #
    def key(self, spec: SearchSpec) -> str:
        """The content address of ``spec`` under this store's salt."""
        return spec_key(spec, salt=self.salt)

    def path_for(self, key: str) -> Path:
        """Where the record for ``key`` lives (whether or not it exists)."""
        return self.root / key[:2] / f"{key}.json"

    # ------------------------------------------------------------------ #
    # Read side
    # ------------------------------------------------------------------ #
    def __contains__(self, spec: SearchSpec) -> bool:
        return self.path_for(self.key(spec)).is_file()

    def load(self, key: str) -> Optional[StoreRecord]:
        """The raw record for ``key``, or ``None`` when absent or unreadable.

        A truncated or otherwise corrupt record (killed writer, torn disk,
        encoding damage) reads as *missing* rather than raising: the store's
        contract is "a record may or may not exist", and a poisoned file
        should cost a re-run, not crash a resume.  Records are also rejected
        unless they decode to a JSON object (anything else cannot be a
        :data:`StoreRecord`).
        """
        path = self.path_for(key)
        try:
            with path.open("r", encoding="utf-8") as fh:
                record = json.load(fh)
        except (OSError, ValueError, UnicodeDecodeError):
            # OSError covers the missing file; ValueError covers truncated /
            # partial / non-JSON content (json.JSONDecodeError subclasses it).
            return None
        return record if isinstance(record, dict) else None

    def get(self, spec: SearchSpec) -> Optional[RunReport]:
        """The stored report for ``spec``, or ``None`` when absent."""
        record = self.load(self.key(spec))
        if record is None:
            _STORE_MISSES.inc()
            return None
        _STORE_HITS.inc()
        return self._report_from_record(record)

    def keys(self) -> Iterator[str]:
        """All record keys currently in the store (any order)."""
        if not self.root.is_dir():
            return
        for path in self.root.glob("??/*.json"):
            yield path.stem

    def records(self) -> Iterator[StoreRecord]:
        """All records currently in the store (any order)."""
        for key in self.keys():
            record = self.load(key)
            if record is not None:
                yield record

    def __len__(self) -> int:
        return sum(1 for _ in self.keys())

    # ------------------------------------------------------------------ #
    # Write side
    # ------------------------------------------------------------------ #
    def put(self, spec: SearchSpec, report: RunReport) -> str:
        """Persist ``report`` under ``spec``'s key (atomically); returns the key.

        An existing record for the same key is replaced — by construction it
        describes the same computation under the same code version, so the
        replacement is a no-op apart from provenance timestamps.
        """
        from repro import __version__

        key = self.key(spec)
        record: StoreRecord = {
            "key": key,
            "salt": self.salt,
            "created_at": time.time(),
            "library_version": __version__,
            "spec": spec.to_dict(),
            "report": report.to_dict(),
        }
        path = self.path_for(key)
        path.parent.mkdir(parents=True, exist_ok=True)
        lock_wait_start = time.perf_counter()
        with _WRITE_LOCK, self._iplock:
            _STORE_LOCK_WAIT.observe(time.perf_counter() - lock_wait_start)
            fd, tmp = tempfile.mkstemp(dir=path.parent, prefix=f".{key[:8]}-", suffix=".tmp")
            try:
                with os.fdopen(fd, "w", encoding="utf-8") as fh:
                    json.dump(record, fh, sort_keys=True)
                os.replace(tmp, path)
            except BaseException:
                try:
                    os.unlink(tmp)
                except OSError:
                    pass
                raise
        _STORE_WRITES.inc()
        return key

    def discard(self, spec: SearchSpec) -> bool:
        """Remove the record for ``spec``; returns whether one existed."""
        path = self.path_for(self.key(spec))
        try:
            path.unlink()
            return True
        except FileNotFoundError:
            return False

    # ------------------------------------------------------------------ #
    # Record decoding
    # ------------------------------------------------------------------ #
    @staticmethod
    def _report_from_record(record: StoreRecord) -> RunReport:
        data = dict(record["report"])
        # Records store the spec both at top level and inside the report's
        # serialised form; the top-level copy is authoritative.
        data["spec"] = record["spec"]
        return RunReport.from_dict(data, raw=record)
