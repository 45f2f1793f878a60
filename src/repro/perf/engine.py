"""Persistent-worker corpus engine: classify payloads through one model.

The per-file pipeline is fast (PR 3 columnar profile, PR 7 compiled
forest); the corpus — the unit of work Datamaran-style data-lake
extraction actually bills — was not.  A naive sweep pays process-pool
startup per fan-out and re-pickles the fitted model into every task,
and nothing survives between sweeps.  :class:`CorpusEngine` fixes all
three amortization failures:

* **warm workers** — one private :class:`~repro.perf.pool.WorkerPool`
  per engine, kept alive across :meth:`CorpusEngine.process_payloads`
  calls;
* **one-time model broadcast** — the fitted pipeline is pickled once
  (feature caches detached — they are process-local) into the pool
  initializer, so each worker deserializes the compiled forest tensors
  exactly once at spawn instead of once per task;
* **content-addressed sweep cache** — results are stored on disk keyed
  by ``(file content hash, model fingerprint, ingest policy)``, so
  re-sweeping an unchanged corpus never reaches a worker at all.

:meth:`CorpusEngine.process_payloads` is the one execution path.  It
takes ``(name, bytes)`` payloads, shards the cache misses into
*contiguous, size-balanced* micro-batches and submits **all** of them
up front; the result list is aligned with the input.  The caller
bounds how much raw data one call holds: the CLI lake sweep passes
64-source chunks, ``repro serve`` its ``batch_files`` batches.
Results are plain numpy arrays (class codes, cell positions), so
parity across ``n_jobs``, cache hits and misses is checkable with
``.tobytes()`` equality — the pinned guarantee that parallelism may
change *when* work happens, never *what* it computes.

Failure routing: a payload that cannot be classified becomes a
:class:`SkipEntry` in its slot instead of aborting the call.  A worker
death breaks the pool for the whole call: it is recorded loudly once
(``sweep.worker_crashes`` metric + one ``RuntimeWarning``), every
batch of the call that had not finished becomes replayable
``"worker"``-stage skips, and the pool respawns for the next call.
"""

from __future__ import annotations

import hashlib
import os
import pickle
import tempfile
import threading
import warnings
import zipfile
from concurrent.futures import CancelledError, Future
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass, field
from pathlib import Path
from typing import Sequence

import numpy as np

from repro.dialect.dialect import Dialect
from repro.errors import InvalidParameterError, NotFittedError
from repro.io.ingest import IngestPolicy
from repro.obs import get_metrics, get_tracer
from repro.perf.parallel import effective_jobs
from repro.perf.pool import WorkerPool
from repro.types import CONTENT_CLASSES, CellClass

#: Integer codes for every cell class, *including* the ``EMPTY``
#: sentinel (which deliberately has no index in ``CLASS_TO_INDEX`` —
#: it is not a content class, but line predictions do emit it).
_CLASS_CODES: dict[CellClass, int] = {
    cls: index for index, cls in enumerate(CONTENT_CLASSES)
}
_CLASS_CODES[CellClass.EMPTY] = len(CONTENT_CLASSES)
_CODE_TO_CLASS: dict[int, CellClass] = {
    code: cls for cls, code in _CLASS_CODES.items()
}

#: Public aliases of the code tables, for layers that serialize
#: :class:`FileResult` arrays across other boundaries (the serve
#: protocol re-encodes them as JSON and must agree on the codes).
CLASS_CODES = _CLASS_CODES
CODE_TO_CLASS = _CODE_TO_CLASS

#: Aim for this many micro-batches per worker, so one slow shard
#: cannot serialize the sweep's tail while keeping per-batch overhead
#: (submit + result pickling) amortized over many files.
_BATCHES_PER_WORKER = 4

#: Hard per-batch file count bound, so a corpus of tiny files still
#: produces batches a worker finishes promptly.
_MAX_BATCH_FILES = 64

#: What a damaged ``.npz`` raises on load: truncated zip containers,
#: bad headers, missing members.  Treated as a cache miss, never an
#: error — the corrupt file is removed so it cannot poison anything.
_CORRUPT_CACHE_ERRORS = (OSError, ValueError, KeyError, EOFError,
                         zipfile.BadZipFile)


def file_content_hash(data: bytes) -> str:
    """SHA-256 hex digest of a file's raw bytes."""
    return hashlib.sha256(data).hexdigest()


def model_fingerprint(pipeline) -> str:
    """SHA-256 digest of everything that determines a sweep's output.

    Hashes the compiled forest tensors of both classifiers (the same
    arrays ``ml.persistence`` stores — two models produce the same
    fingerprint iff they predict identically), the extractor
    configuration keys and the crop flag.  Cached sweep results are
    addressed by this fingerprint, so refitting the model can never
    serve stale results.
    """
    digest = hashlib.sha256()
    digest.update(f"crop={int(pipeline.crop)};".encode("ascii"))
    for clf in (pipeline.line_classifier, pipeline.cell_classifier):
        if clf._model is None:
            raise NotFittedError(
                "cannot fingerprint an unfitted pipeline; call fit() "
                "before building a CorpusEngine"
            )
        digest.update(clf.extractor.cache_key.encode("utf-8"))
        digest.update(b";")
        compiled = clf._model.compile()
        for tensor in (
            compiled.classes_, compiled._tree_classes,
            compiled._feature, compiled._threshold, compiled._left,
            compiled._right, compiled._proba, compiled._roots,
            compiled._tree_class_offsets,
        ):
            array = np.ascontiguousarray(tensor)
            digest.update(str(array.dtype).encode("ascii"))
            digest.update(str(array.shape).encode("ascii"))
            digest.update(array.tobytes())
    return digest.hexdigest()


def policy_fingerprint(policy: IngestPolicy) -> str:
    """A stable key for an ingest policy (frozen dataclass repr)."""
    return repr(policy)


# ----------------------------------------------------------------------
# Results and reports
# ----------------------------------------------------------------------
@dataclass(frozen=True, eq=False)
class FileResult:
    """One swept file's classified structure, in array form.

    Arrays, not objects, so results are cheap to ship across process
    boundaries, round-trip losslessly through the ``.npz`` sweep cache
    and compare byte-for-byte in the parity tests.  ``line_codes`` /
    ``cell_codes`` hold :data:`_CLASS_CODES` values; decode through
    :meth:`line_classes` / :meth:`cell_classes`.
    """

    path: Path
    dialect: Dialect
    n_rows: int
    n_cols: int
    line_codes: np.ndarray
    cell_positions: np.ndarray
    cell_codes: np.ndarray

    @property
    def provenance(self) -> str:
        """The source locator as the adapters produced it.

        For a loose file this is its path; for a container member it
        is the full ``archive.zip!member.csv`` locator that rode
        through ``process_payloads`` as the payload name (``path``
        merely stores it as a :class:`~pathlib.Path`).
        """
        return str(self.path)

    def line_classes(self) -> list[CellClass]:
        """Per-line classes, decoded to :class:`CellClass`."""
        return [_CODE_TO_CLASS[int(code)] for code in self.line_codes]

    def cell_classes(self) -> dict[tuple[int, int], CellClass]:
        """Non-empty cell positions mapped to their classes."""
        return {
            (int(row), int(col)): _CODE_TO_CLASS[int(code)]
            for (row, col), code in zip(
                self.cell_positions, self.cell_codes
            )
        }


@dataclass(frozen=True)
class SkipEntry:
    """One file the sweep could not classify, and why.

    ``stage`` is where it failed: ``"read"`` (the service front end
    could not read the source), ``"classify"`` (the pipeline raised)
    or ``"worker"`` (the worker process died before the batch
    finished).
    """

    path: Path
    stage: str
    reason: str


@dataclass
class SweepReport:
    """What a sweep did: counts, cache traffic, and the casualties."""

    files: int = 0
    completed: int = 0
    cache_hits: int = 0
    batches: int = 0
    worker_crashes: int = 0
    skipped: list[SkipEntry] = field(default_factory=list)

    def merge(self, other: "SweepReport") -> None:
        """Fold another report into this one — chunked lake sweeps
        call ``process_payloads`` per chunk and aggregate here."""
        self.files += other.files
        self.completed += other.completed
        self.cache_hits += other.cache_hits
        self.batches += other.batches
        self.worker_crashes += other.worker_crashes
        self.skipped.extend(other.skipped)

    def as_dict(self) -> dict:
        """A JSON-ready summary (paths as strings)."""
        return {
            "files": self.files,
            "completed": self.completed,
            "cache_hits": self.cache_hits,
            "batches": self.batches,
            "worker_crashes": self.worker_crashes,
            "skipped": [
                {
                    "path": str(entry.path),
                    "stage": entry.stage,
                    "reason": entry.reason,
                }
                for entry in self.skipped
            ],
        }


# ----------------------------------------------------------------------
# Result encoding (parent and workers share these, so every path —
# inline, worker, cache hit — produces identical arrays)
# ----------------------------------------------------------------------
def _encode_structure(result) -> dict[str, np.ndarray]:
    """Flatten a :class:`StructureResult` into deterministic arrays."""
    line_codes = np.array(
        [_CLASS_CODES[cls] for cls in result.line_classes],
        dtype=np.int8,
    )
    items = sorted(result.cell_classes.items())
    positions = np.array(
        [position for position, _ in items], dtype=np.int64
    ).reshape(len(items), 2)
    cell_codes = np.array(
        [_CLASS_CODES[cls] for _, cls in items], dtype=np.int8
    )
    dialect = np.array(
        [
            result.dialect.delimiter,
            result.dialect.quotechar,
            result.dialect.escapechar,
        ],
        dtype=np.str_,
    )
    shape = np.array(
        [result.table.n_rows, result.table.n_cols], dtype=np.int64
    )
    return {
        "line_codes": line_codes,
        "cell_positions": positions,
        "cell_codes": cell_codes,
        "dialect": dialect,
        "shape": shape,
    }


def _decode_arrays(path: Path, arrays: dict) -> FileResult:
    """Rebuild a :class:`FileResult` from encoded arrays."""
    dialect = arrays["dialect"]
    shape = arrays["shape"]
    return FileResult(
        path=path,
        dialect=Dialect(
            delimiter=str(dialect[0]),
            quotechar=str(dialect[1]),
            escapechar=str(dialect[2]),
        ),
        n_rows=int(shape[0]),
        n_cols=int(shape[1]),
        line_codes=np.asarray(arrays["line_codes"], dtype=np.int8),
        cell_positions=np.asarray(
            arrays["cell_positions"], dtype=np.int64
        ).reshape(-1, 2),
        cell_codes=np.asarray(arrays["cell_codes"], dtype=np.int8),
    )


# ----------------------------------------------------------------------
# Worker side
# ----------------------------------------------------------------------
#: Per-worker broadcast state, installed once by the pool initializer.
_WORKER_STATE: tuple | None = None


def _init_sweep_worker(payload: bytes) -> None:
    """Pool initializer: deserialize the broadcast model once."""
    global _WORKER_STATE
    _WORKER_STATE = pickle.loads(payload)


def _run_batch(pipeline, policy, batch):
    """Classify one micro-batch; per-file failures become markers.

    Returns ``(index, arrays_dict)`` per success and
    ``(index, ("error", reason))`` per failure — a sweep over a messy
    data lake must survive any single file.
    """
    out = []
    for index, _name, data in batch:
        try:
            encoded = _encode_structure(
                pipeline.analyze_bytes(data, policy=policy)
            )
        except Exception as exc:
            out.append(
                (index, ("error", f"{type(exc).__name__}: {exc}"))
            )
        else:
            out.append((index, encoded))
    return out


def _sweep_batch(batch):
    """Process-pool entry: run a batch against the broadcast model."""
    pipeline, policy = _WORKER_STATE
    return _run_batch(pipeline, policy, batch)


# ----------------------------------------------------------------------
# The content-addressed sweep cache
# ----------------------------------------------------------------------
class SweepCache:
    """On-disk cache of swept-file results, content-addressed.

    Entries are ``.npz`` files named by
    ``sha256(content hash | model fingerprint | policy)``, written
    atomically (temp file + ``os.replace``) so concurrent engines and
    mid-write crashes can never leave a partial file behind, and a
    corrupt entry (however it got there) is removed and treated as a
    miss.  Counters mirror into the metrics registry
    (``sweep_cache.hits`` / ``sweep_cache.misses`` /
    ``sweep_cache.evictions``) and snapshot through :meth:`stats`,
    exactly like :class:`~repro.perf.cache.FeatureCache`.
    """

    def __init__(
        self,
        directory: str | Path,
        max_entries: int = 8192,
    ):
        if max_entries < 1:
            raise InvalidParameterError("max_entries must be >= 1")
        self.directory = Path(directory)
        self.directory.mkdir(parents=True, exist_ok=True)
        self.max_entries = max_entries
        self._lock = threading.Lock()
        self._metrics = get_metrics()
        self.hits = 0
        self.misses = 0
        self.evictions = 0
        self._count = len(sorted(self.directory.glob("*.npz")))

    @staticmethod
    def entry_key(
        content_hash: str, model: str, policy: str
    ) -> str:
        """The cache address for one (file, model, policy) triple."""
        digest = hashlib.sha256()
        digest.update(content_hash.encode("ascii"))
        digest.update(b"|")
        digest.update(model.encode("ascii"))
        digest.update(b"|")
        digest.update(policy.encode("utf-8"))
        return digest.hexdigest()

    def stats(self) -> dict[str, int]:
        """A consistent locked snapshot of the counters."""
        with self._lock:
            return {
                "hits": self.hits,
                "misses": self.misses,
                "evictions": self.evictions,
                "size": self._count,
            }

    # ------------------------------------------------------------------
    def load(self, key: str, path: Path) -> FileResult | None:
        """The cached result for ``key``, or ``None`` on miss.

        A corrupt entry is deleted and reported as a miss: a crash
        that slipped past the atomic write must cost one recompute,
        never poison every later sweep.
        """
        entry = self.directory / f"{key}.npz"
        arrays: dict | None = None
        try:
            with np.load(entry) as archive:
                arrays = {name: archive[name] for name in archive.files}
            result = _decode_arrays(path, arrays)
        except FileNotFoundError:
            result = None
        except _CORRUPT_CACHE_ERRORS:
            result = None
            try:
                entry.unlink()
            except OSError:
                pass
        if result is None:
            with self._lock:
                self.misses += 1
            self._metrics.increment("sweep_cache.misses")
            return None
        with self._lock:
            self.hits += 1
        self._metrics.increment("sweep_cache.hits")
        return result

    def store(self, key: str, arrays: dict[str, np.ndarray]) -> None:
        """Write one entry atomically; evict oldest past the bound."""
        entry = self.directory / f"{key}.npz"
        if entry.exists():
            return
        handle = tempfile.NamedTemporaryFile(
            dir=self.directory, suffix=".tmp", delete=False
        )
        try:
            with handle:
                np.savez(handle, **arrays)
            os.replace(handle.name, entry)
        except BaseException:
            try:
                os.unlink(handle.name)
            except OSError:
                pass
            raise
        with self._lock:
            self._count += 1
            over = self._count - self.max_entries
        if over > 0:
            self._evict(over)

    def _evict(self, count: int) -> None:
        """Remove the ``count`` oldest entries (write-time LRU)."""
        entries = sorted(
            self.directory.glob("*.npz"),
            key=lambda p: (p.stat().st_mtime_ns, p.name),
        )
        removed = 0
        for stale in entries[:count]:
            try:
                stale.unlink()
            except OSError:
                continue
            removed += 1
        if removed:
            with self._lock:
                self.evictions += removed
                self._count -= removed
            self._metrics.increment("sweep_cache.evictions", removed)


# ----------------------------------------------------------------------
# The engine
# ----------------------------------------------------------------------
class CorpusEngine:
    """Sweep file corpora through one fitted pipeline, fast.

    Parameters
    ----------
    pipeline:
        A **fitted** :class:`~repro.core.strudel.StrudelPipeline`;
        fingerprinted at construction, broadcast to workers once.
    n_jobs:
        Worker processes (``parallel_map`` semantics: ``None``/``1``
        sequential, ``<=0`` all cores).  The worker pool persists
        across sweeps; results are byte-identical for any value.
    policy:
        Ingest policy applied to every file (part of the cache key).
    cache_dir:
        Optional directory for the content-addressed sweep cache.

    Use as a context manager (or call :meth:`close`) to release the
    warm workers deterministically; an engine left open is reaped at
    interpreter exit.
    """

    def __init__(
        self,
        pipeline,
        n_jobs: int | None = 1,
        policy: IngestPolicy | None = None,
        cache_dir: str | Path | None = None,
    ):
        self._pipeline = pipeline
        self._policy = policy or IngestPolicy()
        self._n_jobs = n_jobs
        self._fingerprint = model_fingerprint(pipeline)
        self._policy_key = policy_fingerprint(self._policy)
        self.cache = (
            SweepCache(cache_dir) if cache_dir is not None else None
        )
        self._pool: WorkerPool | None = None
        self._metrics = get_metrics()

    @property
    def fingerprint(self) -> str:
        """The model fingerprint sweeps are cached under."""
        return self._fingerprint

    def close(self) -> None:
        """Shut down the warm workers (idempotent)."""
        if self._pool is not None:
            self._pool.shutdown()
            self._pool = None

    def __enter__(self) -> "CorpusEngine":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    # ------------------------------------------------------------------
    def process_payloads(
        self, items: Sequence[tuple[str, bytes]]
    ) -> tuple[list["FileResult | SkipEntry"], SweepReport]:
        """Classify in-memory payloads through the warm pool.

        The engine's one execution path: no filesystem access, and
        the return value is a list **aligned with** ``items`` — a
        :class:`FileResult` per success, a :class:`SkipEntry` per
        failure (stage ``"classify"`` or ``"worker"``) — plus the
        run's :class:`SweepReport`.  The sweep cache is consulted
        before any work fans out and populated as results settle, so
        payloads with the same bytes share one cache entry whichever
        caller sent them.

        Every micro-batch is submitted up front; the caller bounds
        the call size (the CLI lake sweep's 64-source chunks, the
        service's ``batch_files``).  A worker crash therefore fails
        the unfinished batches of *this call* loudly instead of
        resubmitting them; the entries are replayable and the pool
        respawns for the next call.
        """
        indexed = [
            (i, str(name), bytes(data))
            for i, (name, data) in enumerate(items)
        ]
        report = SweepReport(files=len(indexed))
        out: list[FileResult | SkipEntry | None] = [None] * len(indexed)
        tracer = get_tracer()
        with tracer.span("sweep", n_files=len(indexed)):
            pending: list[tuple[int, str, bytes]] = []
            for i, name, data in indexed:
                if self.cache is not None:
                    cached = self.cache.load(
                        self._cache_key(data), Path(name)
                    )
                    if cached is not None:
                        report.cache_hits += 1
                        report.completed += 1
                        out[i] = cached
                        continue
                pending.append((i, name, data))
            for batch, results in self._compute_batches(
                pending, report, tracer
            ):
                if results is None:
                    # Worker crash: _skip_casualties named the
                    # casualties; align them with their slots.
                    entries = report.skipped[-len(batch):]
                    for (i, _name, _data), entry in zip(batch, entries):
                        out[i] = entry
                    continue
                settled = self._settle_batch(
                    batch, dict(results), report
                )
                for (i, _name, _data), (_path, payload) in zip(
                    batch, settled
                ):
                    out[i] = payload
        self._metrics.increment("sweep.files", len(indexed))
        self._metrics.increment("sweep.skipped", len(report.skipped))
        return list(out), report

    # ------------------------------------------------------------------
    def _cache_key(self, data: bytes) -> str:
        """The sweep-cache address of one payload under this engine."""
        return SweepCache.entry_key(
            file_content_hash(data), self._fingerprint, self._policy_key
        )

    @staticmethod
    def _payload_batches(
        pending: list[tuple[int, str, bytes]], workers: int
    ) -> list[list[tuple[int, str, bytes]]]:
        """Contiguous size-balanced micro-batches of raw payloads."""
        if not pending:
            return []
        total = sum(len(data) for _i, _name, data in pending)
        budget = max(1, total // max(1, workers * _BATCHES_PER_WORKER))
        batches: list[list[tuple[int, str, bytes]]] = []
        batch: list[tuple[int, str, bytes]] = []
        batch_bytes = 0
        for entry in pending:
            batch.append(entry)
            batch_bytes += len(entry[2])
            if batch_bytes >= budget or len(batch) >= _MAX_BATCH_FILES:
                batches.append(batch)
                batch = []
                batch_bytes = 0
        if batch:
            batches.append(batch)
        return batches

    def _compute_batches(self, pending, report, tracer):
        """Shard ``pending`` payloads and resolve every micro-batch.

        Yields ``(batch, results)`` pairs; ``results`` is ``None`` for
        a batch lost to a worker death (the casualties are already in
        the report).  One death breaks the pool, and with it every
        batch of this call that had not finished; that is one crash,
        recorded once after the last batch.  An interrupt mid-flight
        cancels the outstanding futures and discards the pool before
        re-raising, so the next call on this engine starts from a
        clean executor.
        """
        workers = effective_jobs(self._n_jobs, max(len(pending), 1))
        batches = self._payload_batches(pending, workers)
        if workers <= 1:
            for batch in batches:
                report.batches += 1
                self._metrics.increment("sweep.batches")
                with tracer.span("sweep_batch", n_files=len(batch)):
                    yield batch, _run_batch(
                        self._pipeline, self._policy, batch
                    )
            return
        pool = self._ensure_pool(workers)
        futures = []
        broken: BrokenProcessPool | None = None
        for batch in batches:
            if broken is None:
                try:
                    future = pool.submit(_sweep_batch, list(batch))
                except BrokenProcessPool as exc:
                    broken = exc
            if broken is not None:
                # A worker died while this call was still submitting:
                # the batches not yet submitted fail like the ones the
                # break caught in flight, not on a respawned pool.
                future = Future()
                future.set_exception(broken)
            futures.append((batch, future))
        for batch, _future in futures:
            report.batches += 1
            self._metrics.increment("sweep.batches")
        crash: BaseException | None = None
        casualties = 0
        try:
            for batch, future in futures:
                try:
                    with tracer.span("sweep_batch", n_files=len(batch)):
                        results = future.result()
                except (BrokenProcessPool, CancelledError) as exc:
                    crash = crash or exc
                    casualties += len(batch)
                    self._skip_casualties(batch, report, crash)
                    yield batch, None
                else:
                    yield batch, results
        except BaseException:
            for _batch, future in futures:
                future.cancel()
            self._discard_pool()
            raise
        if crash is not None:
            self._record_crash(report, crash, casualties)

    def _discard_pool(self) -> None:
        """Drop the warm pool; the next use respawns + rebroadcasts."""
        if self._pool is not None:
            self._pool.shutdown(wait=False)
            self._pool = None

    # ------------------------------------------------------------------
    def _ensure_pool(self, workers: int) -> WorkerPool:
        """The engine's private pool, broadcast included, grown to
        ``workers``."""
        pool = self._pool
        if pool is None or pool.max_workers < workers:
            if pool is not None:
                pool.shutdown(wait=False)
            payload = pickle.dumps((self._pipeline, self._policy))
            pool = WorkerPool(
                workers,
                initializer=_init_sweep_worker,
                initargs=(payload,),
            )
            self._pool = pool
        return pool

    def _settle_batch(
        self, files, outcomes: dict, report
    ) -> list[tuple[Path, "FileResult | SkipEntry"]]:
        """Resolve one computed batch against its submitted files.

        Returns exactly one ``(path, FileResult | SkipEntry)`` pair
        per file, in submission order; successes are decoded, cached,
        and counted, failures are appended to ``report.skipped`` with
        stage ``"classify"``.
        """
        settled: list[tuple[Path, FileResult | SkipEntry]] = []
        for index, name, data in files:
            path = Path(name)
            outcome = outcomes.get(index)
            if isinstance(outcome, dict):
                result = _decode_arrays(path, outcome)
                if self.cache is not None:
                    self.cache.store(self._cache_key(data), outcome)
                report.completed += 1
                settled.append((path, result))
            else:
                reason = (
                    outcome[1]
                    if isinstance(outcome, tuple)
                    else "no result returned for file"
                )
                entry = SkipEntry(path, "classify", reason)
                report.skipped.append(entry)
                settled.append((path, entry))
        return settled

    @staticmethod
    def _skip_casualties(files, report, exc) -> None:
        """Name a lost batch's files as replayable worker-stage skips."""
        for _index, name, _data in files:
            report.skipped.append(
                SkipEntry(
                    Path(name),
                    "worker",
                    f"worker crashed mid-batch "
                    f"({type(exc).__name__}: {exc})",
                )
            )

    def _record_crash(self, report, exc, casualties: int) -> None:
        """A worker died during this call: one loud metric + warning,
        pool discarded so the next call respawns workers."""
        if self._pool is not None:
            self._pool.discard_broken()
        report.worker_crashes += 1
        self._metrics.increment("sweep.worker_crashes")
        warnings.warn(
            f"sweep worker crashed; {casualties} file(s) skipped and "
            f"the pool was restarted: {type(exc).__name__}: {exc}",
            RuntimeWarning,
            stacklevel=3,
        )
