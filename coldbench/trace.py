"""The traced run: per-layer metrics, taken from outside.

It is separate from the gated runs.  Each workload's files are
replayed through the public layer functions in production order::

    decode_bytes -> DialectDetector.detect -> parse_csv_outcome
    -> crop_table -> table_profile(...).materialize()
    -> DerivedDetector.detect -> line extract_features /
    predict_proba_from_features -> extract_cells / predict_from_features

with a span around each call, recorded in memory (name, start, end,
parent, file id) and written out when the run ends.  A layer's self
time is its spans' duration minus the part their child spans cover.
Every replayed file must yield the same line and cell classes as the
untraced engine result for the same bytes; a drifting re-composition
fails the run instead of skewing the layer shares.
"""

from __future__ import annotations

import json
import os
import statistics
import time
from contextlib import contextmanager
from pathlib import Path

from repro.core.profile import table_profile
from repro.core.strudel import (
    LineInference,
    set_default_classifier_factory,
)
from repro.dialect.detector import (
    DialectDetector,
    clear_dialect_memo,
    dialect_memo_stats,
)
from repro.dialect.dialect import Dialect
from repro.errors import DialectError
from repro.io.adapters import DirectoryAdapter
from repro.io.cropping import crop_table
from repro.io.ingest import IngestPolicy, decode_bytes
from repro.ml.forest import RandomForestClassifier
from repro.parsing import parse_csv_outcome
from repro.perf.engine import CorpusEngine, FileResult
from repro.serve.protocol import (
    decode_request,
    decode_response,
    encode_request,
    encode_response,
    result_from_payload,
    success_response,
)
from repro.types import Table

from coldbench import inputs
from coldbench.measure import classes_key, result_key
from coldbench.workloads import (
    Size,
    cv_pass,
    drive_open_loop,
    start_server,
    train_cli_default,
)

#: Layer spans of the replay, in production order, with their units.
LAYERS = (
    "io.ingest", "dialect", "parsing", "io.cropping", "core.profile",
    "core.derived", "core.line_features", "ml.line_predict",
    "core.cell_features", "ml.cell_predict",
)

#: Every per-layer metric with its unit.  A metric whose layer a
#: workload does not exercise reads 0 there.
PER_LAYER_UNITS = {
    "io.adapters.enumerate_ms": "ms",
    "io.adapters.sources": "count",
    "io.ingest.self_ms": "ms",
    "io.ingest.repaired_share": "ratio",
    "dialect.self_ms": "ms",
    "dialect.candidates_per_file": "count",
    "dialect.memo_hit_ratio": "ratio",
    "parsing.self_ms": "ms",
    "parsing.mb_per_s": "MB/s",
    "io.cropping.self_ms": "ms",
    "core.profile.self_ms": "ms",
    "core.profile.unique_ratio": "ratio",
    "core.derived.self_ms": "ms",
    "core.derived.cells": "count",
    "core.line_features.self_ms": "ms",
    "core.cell_features.self_ms": "ms",
    "ml.line_predict_ms": "ms",
    "ml.cell_predict_ms": "ms",
    "ml.cells_per_s": "1/s",
    "perf.engine.overhead_ms": "ms",
    "perf.engine.batches": "count",
    "perf.engine.cache_hit_ratio": "ratio",
    "perf.engine.cache_load_ms": "ms",
    "perf.engine.cache_store_ms": "ms",
    "perf.pool.scaling_nproc": "ratio",
    "serve.protocol.encode_ms": "ms",
    "serve.protocol.decode_ms": "ms",
    "serve.service.inflight_mean": "count",
    "serve.service.inflight_max": "count",
    "ml.forest.fit_ms": "ms",
    "perf.cache.feature_hit_ratio": "ratio",
    "eval.runner.fold_ms": "ms",
    "eval.runner.folds_per_s": "1/s",
    "trace.coverage": "ratio",
    "trace.overhead_ms": "ms",
}


class Spans:
    """In-memory span recorder."""

    def __init__(self) -> None:
        #: ``[name, start, end, parent index, file id]`` per span.
        self.records: list[list] = []
        self._stack: list[int] = []

    @contextmanager
    def span(self, name: str, file: str | None = None):
        parent = self._stack[-1] if self._stack else None
        index = len(self.records)
        self.records.append([name, time.perf_counter(), None, parent, file])
        self._stack.append(index)
        try:
            yield
        finally:
            self._stack.pop()
            self.records[index][2] = time.perf_counter()

    def self_seconds(self) -> dict[str, float]:
        """Summed self time per span name."""
        covered = [0.0] * len(self.records)
        for name, start, end, parent, _file in self.records:
            if parent is not None:
                covered[parent] += end - start
        totals: dict[str, float] = {}
        for index, (name, start, end, _parent, _file) in enumerate(
            self.records
        ):
            totals[name] = totals.get(name, 0.0) + (end - start
                                                    - covered[index])
        return totals

    def write(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w", encoding="utf-8") as out:
            for index, (name, start, end, parent, file) in enumerate(
                self.records
            ):
                out.write(json.dumps({
                    "id": index, "name": name, "start": start,
                    "end": end, "parent": parent, "file": file,
                }) + "\n")


@contextmanager
def timed_forest_fits(spans: Spans):
    """Bind a default-forest factory whose ``fit`` is spanned as
    ``ml.forest.fit``; restores the plain forest afterwards.  Forests
    built here carry a closure, so use them only in-process."""

    def factory(**kwargs):
        forest = RandomForestClassifier(**kwargs)
        fit = forest.fit

        def spanned_fit(X, y):
            with spans.span("ml.forest.fit"):
                return fit(X, y)

        forest.fit = spanned_fit
        return forest

    set_default_classifier_factory(factory)
    try:
        yield
    finally:
        set_default_classifier_factory(RandomForestClassifier)


# ----------------------------------------------------------------------
# Replay
# ----------------------------------------------------------------------
def replay_file(pipeline, policy: IngestPolicy, file_id: str, data: bytes,
                spans: Spans) -> dict:
    """One file through the layer functions, each call spanned."""
    line_clf = pipeline.line_classifier
    cell_clf = pipeline.cell_classifier
    with spans.span("file", file_id):
        with spans.span("io.ingest", file_id):
            text, report = decode_bytes(data, policy)
            if text.startswith("\ufeff"):
                text = text.lstrip("\ufeff")
                report.bom = report.bom or "utf-8-sig"
        with spans.span("dialect", file_id):
            try:
                dialect = DialectDetector().detect(text)
            except DialectError:
                dialect = Dialect.standard()
        with spans.span("parsing", file_id):
            outcome = parse_csv_outcome(text, dialect)
            table = Table(outcome.records or [[""]])
        with spans.span("io.cropping", file_id):
            if pipeline.crop:
                table = crop_table(table)
        with spans.span("core.profile", file_id):
            profile = table_profile(table).materialize()
        with spans.span("core.derived", file_id):
            derived = line_clf.extractor.detector.detect(table)
            cell_clf.extractor.detector.detect(table)
        with spans.span("core.line_features", file_id):
            features = line_clf.extract_features([table])[0]
        with spans.span("ml.line_predict", file_id):
            proba = line_clf.predict_proba_from_features(features)
            line_classes = line_clf.predict(
                table, inference=LineInference(features, proba)
            )
        with spans.span("core.cell_features", file_id):
            positions, cell_features = cell_clf.extract_cells(table, proba)
        with spans.span("ml.cell_predict", file_id):
            positions, cell_classes = cell_clf.predict_from_features(
                positions, cell_features
            )
    repaired = bool(report.recovered or report.bom is not None
                    or report.encoding != "utf-8")
    return {
        "key": (dialect.delimiter, dialect.quotechar, dialect.escapechar,
                table.n_rows, table.n_cols,
                *classes_key(line_classes, positions, cell_classes)),
        "text": text,
        "repaired": repaired,
        "unique": len(profile.unique_values),
        "cells": table.n_rows * table.n_cols,
        "derived": len(derived),
        "predicted_cells": len(positions),
    }


def engine_pass(engine: CorpusEngine, items: list) -> tuple:
    """Untraced and cold, one ``process_payloads`` call per item as
    the gated ``lake_sweep`` makes them.  Returns (seconds, results,
    batches)."""
    clear_dialect_memo()
    results: list = []
    batches = 0
    started = time.perf_counter()
    for item in items:
        out, report = engine.process_payloads([item])
        results.extend(out)
        batches += report.batches
    return time.perf_counter() - started, results, batches


def sweep_seconds(pipeline, items: list, n_jobs: int) -> tuple:
    """A whole-lake ``process_payloads`` call on a fresh engine at
    ``n_jobs`` workers, pool start included: (seconds, results)."""
    clear_dialect_memo()
    started = time.perf_counter()
    with CorpusEngine(pipeline, n_jobs=n_jobs) as engine:
        results, _report = engine.process_payloads(items)
    return time.perf_counter() - started, results


def protocol_ms(items: list, results: list) -> tuple[float, float]:
    """Encode and decode time (ms) of the wire round trip of every
    request and its answer, both sides, on this process."""
    encode = decode = 0.0
    for k, ((name, data), result) in enumerate(zip(items, results)):
        started = time.perf_counter()
        request = encode_request(f"r{k}", data=data, name=name)
        response = encode_response(success_response(f"r{k}", result))
        encoded = time.perf_counter()
        decode_request(request)
        result_from_payload(decode_response(response)["result"])
        decode += time.perf_counter() - encoded
        encode += encoded - started
    return encode * 1000.0, decode * 1000.0


def cached_engine_metrics(pipeline, items: list, cache_dir: Path) -> dict:
    """Requests one at a time through an engine with a sweep cache,
    as the service runs them, timing the cache's load and store."""
    engine = CorpusEngine(pipeline, n_jobs=1, cache_dir=cache_dir)
    cache = engine.cache
    timings = {"load": 0.0, "store": 0.0}

    def timed(name, method):
        def call(*args, **kwargs):
            started = time.perf_counter()
            try:
                return method(*args, **kwargs)
            finally:
                timings[name] += time.perf_counter() - started
        return call

    cache.load = timed("load", cache.load)
    cache.store = timed("store", cache.store)
    hits = 0
    with engine:
        for item in items:
            _out, report = engine.process_payloads([item])
            hits += report.cache_hits
    return {
        "perf.engine.cache_hit_ratio": hits / len(items),
        "perf.engine.cache_load_ms": timings["load"] * 1000.0,
        "perf.engine.cache_store_ms": timings["store"] * 1000.0,
    }


def _items(workload: str, seed: int, seconds: float, workdir: Path,
           size: Size) -> tuple[list, dict, list]:
    """The workload's files as ``(name, bytes)`` items in production
    order, plus adapter metrics and the serve schedule (if any)."""
    metrics = {"io.adapters.enumerate_ms": 0.0, "io.adapters.sources": 0}
    if workload == "lake_sweep":
        root = workdir / "lake"
        inputs.materialize(inputs.lake_sources(seed, size.lake_scale), root)
        started = time.perf_counter()
        payloads = list(DirectoryAdapter(root).iterate())
        metrics["io.adapters.enumerate_ms"] = (
            (time.perf_counter() - started) * 1000.0)
        metrics["io.adapters.sources"] = len(payloads)
        return [(p.provenance, p.data) for p in payloads], metrics, []
    if workload == "serve_open":
        requests = inputs.serve_schedule(seed, size.serve_rate,
                                         seconds / size.setups)
        items = [(r.source.name, r.source.data) for r in requests]
        return items, metrics, requests
    corpus = inputs.cv_corpus(size.cv_scale)
    items = [(f"{f.name}.csv", inputs.csv_bytes(f)) for f in corpus.files]
    return items, metrics, []


def run_traced(workload: str, seed: int, seconds: float, workdir: Path,
               root: Path, out_dir: Path, size: Size = Size()) -> dict:
    """Per-layer metrics of ``workload`` (see :data:`PER_LAYER_UNITS`)."""
    spans = Spans()
    items, metrics, requests = _items(workload, seed, seconds, workdir,
                                      size)
    pipeline = train_cli_default(size)
    policy = IngestPolicy()
    mismatches: list[str] = []

    # Untraced baseline over the same files, same order; the first
    # pass only warms the process up, as the gated runs' first pass.
    with CorpusEngine(pipeline, n_jobs=1) as engine:
        engine_pass(engine, items)
        untraced_s, untraced, batches = engine_pass(engine, items)

    clear_dialect_memo()
    replays = []
    failed = 0
    traced_started = time.perf_counter()
    for k, (name, data) in enumerate(items):
        try:
            replays.append(replay_file(pipeline, policy, f"{k}:{name}",
                                       data, spans))
        except Exception as exc:  # counted, and fails the parity check
            failed += 1
            replays.append(None)
            mismatches.append(f"replay raised on {name}: {exc!r}")
    traced_s = time.perf_counter() - traced_started
    memo = dialect_memo_stats()

    for (name, _data), replay, result in zip(items, replays, untraced):
        if not isinstance(result, FileResult):
            failed += 1
            mismatches.append(f"untraced engine skipped {name}")
        elif replay is not None and replay["key"] != result_key(result):
            mismatches.append(f"replay != engine: {name}")
    done = [r for r in replays if r is not None]

    candidates = [len(DialectDetector().rank(r["text"])) for r in done]
    self_s = spans.self_seconds()
    layer_s = sum(self_s.get(layer, 0.0) for layer in LAYERS)
    nbytes = sum(len(data) for _name, data in items)
    total_cells = sum(r["cells"] for r in done)
    predicted = sum(r["predicted_cells"] for r in done)
    metrics.update({
        "io.ingest.self_ms": self_s["io.ingest"] * 1000.0,
        "io.ingest.repaired_share":
            sum(r["repaired"] for r in done) / len(items),
        "dialect.self_ms": self_s["dialect"] * 1000.0,
        "dialect.candidates_per_file": statistics.mean(candidates),
        "dialect.memo_hit_ratio":
            memo["hits"] / max(1, memo["hits"] + memo["misses"]),
        "parsing.self_ms": self_s["parsing"] * 1000.0,
        "parsing.mb_per_s": nbytes / 1e6 / self_s["parsing"],
        "io.cropping.self_ms": self_s["io.cropping"] * 1000.0,
        "core.profile.self_ms": self_s["core.profile"] * 1000.0,
        "core.profile.unique_ratio":
            sum(r["unique"] for r in done) / max(1, total_cells),
        "core.derived.self_ms": self_s["core.derived"] * 1000.0,
        "core.derived.cells": sum(r["derived"] for r in done),
        "core.line_features.self_ms":
            self_s["core.line_features"] * 1000.0,
        "core.cell_features.self_ms":
            self_s["core.cell_features"] * 1000.0,
        "ml.line_predict_ms": self_s["ml.line_predict"] * 1000.0,
        "ml.cell_predict_ms": self_s["ml.cell_predict"] * 1000.0,
        "ml.cells_per_s": predicted / self_s["ml.cell_predict"],
        "perf.engine.overhead_ms": (untraced_s - layer_s) * 1000.0,
        "perf.engine.batches": batches,
        "trace.coverage": layer_s / untraced_s,
        "trace.overhead_ms": (traced_s - untraced_s) * 1000.0,
    })

    # Training: forest fit time inside one CLI-default fit.
    with timed_forest_fits(spans):
        train_cli_default(size)
    fit_s = spans.self_seconds().get("ml.forest.fit", 0.0)
    metrics["ml.forest.fit_ms"] = fit_s * 1000.0

    metrics.update(_workload_layers(workload, seed, seconds, workdir, root,
                                    size, pipeline, items, untraced,
                                    untraced_s, requests, spans,
                                    mismatches))

    spans.write(out_dir / f"spans-{workload}-seed{seed}.jsonl")
    for name in PER_LAYER_UNITS:
        metrics.setdefault(name, 0.0)
    return {
        "correct": not mismatches,
        "attempted": len(items),
        "failed": failed,
        "metrics": {
            name: {"value": float(metrics[name]),
                   "unit": PER_LAYER_UNITS[name]}
            for name in PER_LAYER_UNITS
        },
        "details": {
            "files": len(items), "untraced_s": untraced_s,
            "traced_s": traced_s, "layer_self_s": self_s,
            "spans": len(spans.records),
            "mismatches": mismatches[:10],
        },
    }


def _workload_layers(workload, seed, seconds, workdir, root, size,
                     pipeline, items, untraced, untraced_s, requests,
                     spans, mismatches) -> dict:
    """The layers only some workloads load."""
    metrics: dict = {}
    if workload == "lake_sweep":
        jobs = os.cpu_count() or 1
        serial_s, _serial = sweep_seconds(pipeline, items, 1)
        parallel_s, parallel = sweep_seconds(pipeline, items, jobs)
        if [result_key(r) for r in parallel] != [
            result_key(r) for r in untraced
        ]:
            mismatches.append(f"n_jobs={jobs} results differ from n_jobs=1")
        metrics["perf.pool.scaling_nproc"] = serial_s / parallel_s
    if workload == "serve_open":
        encode_ms, decode_ms = protocol_ms(items, untraced)
        metrics["serve.protocol.encode_ms"] = encode_ms
        metrics["serve.protocol.decode_ms"] = decode_ms
        metrics.update(cached_engine_metrics(pipeline, items,
                                             workdir / "trace-cache"))
        server, _cold_start = start_server(root, workdir, size, "trace")
        try:
            drive = drive_open_loop(server.port, requests,
                                    stats_every=0.1)
        finally:
            server.stop()
        samples = drive["inflight"]
        metrics["serve.service.inflight_mean"] = statistics.mean(samples)
        metrics["serve.service.inflight_max"] = max(samples)
        if len(drive["received"]) != len(requests):
            mismatches.append("live server left requests unanswered")
    if workload == "paper_cv":
        corpus = inputs.cv_corpus(size.cv_scale)
        plain = cv_pass(corpus, size)
        before = len(spans.records)
        corpus = inputs.cv_corpus(size.cv_scale)
        with timed_forest_fits(spans):
            traced = cv_pass(corpus, size)
        fit_s = sum(end - start for name, start, end, _p, _f
                    in spans.records[before:] if name == "ml.forest.fit")
        for kind in ("lines", "cells"):
            if (plain[kind].scores.macro_f1
                    != traced[kind].scores.macro_f1):
                mismatches.append(f"traced CV {kind} F1 differs")
        stats = plain["cache"]
        metrics["ml.forest.fit_ms"] = fit_s * 1000.0
        metrics["perf.cache.feature_hit_ratio"] = (
            stats["hits"] / max(1, stats["hits"] + stats["misses"]))
        metrics["eval.runner.fold_ms"] = statistics.median(plain["fold_ms"])
        metrics["eval.runner.folds_per_s"] = (
            len(plain["fold_ms"]) / plain["seconds"])
    return metrics
