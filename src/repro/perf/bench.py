"""The ``repro bench`` harness: a perf trajectory for the pipeline.

Times the stages the paper profiles in Section 6.3.4 (dialect
detection, parsing, feature creation, prediction) plus the two ways
this repository can serve an ``analyze`` request:

* **single-pass** — one :class:`~repro.core.strudel.LineInference`
  shared by both output granularities (the current ``analyze``);
* **cached** — single-pass with a warm
  :class:`~repro.perf.cache.FeatureCache`, the repeated-traffic
  configuration where matrices for known content are lookups.

It also times repeated grouped CV with and without a corpus-level
cache and checks the scores are byte-identical — caching and
parallelism must never change a number.

Results are written to ``BENCH_pipeline.json`` (schema
``repro-bench/1``) so CI can archive one point per commit; see
``docs/performance.md`` for how to read the trajectory.

A saved report doubles as a **baseline**: :func:`diff_reports`
compares a fresh run against it metric by metric (stage seconds,
analyze variants, CV timings) and flags any timing that regressed by
more than a tolerance (default 25%).  ``repro bench --baseline`` wires
this into CI so a perf regression fails the build the same way a
broken test does.  Reports are only comparable when their workload
configuration matches — :func:`configs_comparable` guards against
diffing a ``--quick`` run against a full one.
"""

from __future__ import annotations

import asyncio
import json
import tarfile
import tempfile
import time
import zipfile
from dataclasses import asdict, dataclass
from pathlib import Path
from typing import Callable

import numpy as np

from repro.core.profile import table_profile
from repro.core.strudel import StrudelPipeline
from repro.datagen.corpora import make_corpus
from repro.datagen.filegen import generate_file
from repro.datagen.spec import FileSpec, TableSpec
from repro.errors import InvalidParameterError
from repro.eval.experiments import materialize_corpus
from repro.eval.runner import CVResult, cross_validate_lines
from repro.io.adapters import DirectoryAdapter
from repro.io.cropping import crop_table
from repro.io.ingest import IngestPolicy, decode_bytes, ingest_text
from repro.io.writer import write_csv_text
from repro.obs import PIPELINE_STAGES, Tracer, activate, get_tracer
from repro.perf.cache import FeatureCache
from repro.perf.engine import CorpusEngine, FileResult
from repro.serve.client import ServiceClient
from repro.serve.service import ClassificationService
from repro.types import Corpus
from repro.util.rng import as_generator

#: Schema tag for the emitted JSON, bumped on incompatible changes.
BENCH_SCHEMA = "repro-bench/1"

#: Default output file name (uploaded as a CI artifact).
DEFAULT_OUTPUT = "BENCH_pipeline.json"


@dataclass
class BenchConfig:
    """Workload knobs for one benchmark run."""

    corpus: str = "saus"
    scale: float = 0.15
    trees: int = 40
    rows: int = 600
    repeats: int = 3
    cv_splits: int = 3
    cv_repeats: int = 2
    cv_trees: int = 12
    seed: int = 0
    n_jobs: int = 1
    quick: bool = False

    @classmethod
    def quick_config(cls, seed: int = 0, n_jobs: int = 1) -> "BenchConfig":
        """A CI-sized workload (finishes in well under a minute)."""
        return cls(
            scale=0.06, trees=10, rows=200, repeats=2, cv_splits=2,
            cv_repeats=1, cv_trees=6, seed=seed, n_jobs=n_jobs,
            quick=True,
        )


def generated_text(rows: int, seed: int) -> str:
    """CSV text of a generated verbose file with ``rows`` data rows.

    Mirrors the file used by ``benchmarks/test_scalability.py`` so the
    two harnesses measure comparable inputs.
    """
    spec = FileSpec(
        domain="science",
        metadata_lines=2,
        notes_lines=2,
        tables=[
            TableSpec(
                n_numeric_cols=6,
                n_groups=0,
                rows_per_group=rows,
                grand_total=True,
            )
        ],
    )
    annotated = generate_file(spec, as_generator(seed), f"bench{rows}")
    return write_csv_text(annotated.table.rows())


def _median_seconds(fn: Callable[[], object], repeats: int) -> float:
    """Median wall-clock seconds of ``repeats`` calls (noise-resistant)."""
    samples = []
    for _ in range(max(1, repeats)):
        start = time.perf_counter()
        fn()
        samples.append(time.perf_counter() - start)
    return sorted(samples)[len(samples) // 2]


def _stage_breakdown(
    pipeline: StrudelPipeline, text: str, repeats: int = 1
) -> dict[str, float]:
    """Per-stage seconds for a single-pass analyze, read from the
    spans the instrumented pipeline emits.

    The pipeline's own :data:`~repro.obs.PIPELINE_STAGES` spans are
    the single source of truth: the bench report and a ``--trace``
    file are two renderings of the same measurements, never two
    timing implementations that can drift apart.  Runs are cold in
    the cache sense — feature caches were detached by the caller —
    and the traced analyze is repeated ``repeats`` times with the
    per-stage **median** reported, the same noise treatment every
    other timing in the harness gets (a single traced run can swing
    tens of percent on a busy machine, which at millisecond stage
    budgets is pure noise).
    """
    ambient = get_tracer()
    # Under ``repro bench --trace`` the CLI already activated a real
    # tracer; record into it so the breakdown's spans appear in the
    # trace file.  Otherwise use a private tracer just for this read.
    tracer = ambient if isinstance(ambient, Tracer) else Tracer()
    samples: list[dict[str, float]] = []
    for _ in range(max(1, repeats)):
        first = len(tracer.spans)
        with activate(tracer):
            # Encoding resolution over the raw bytes — the stage
            # every entry point pays before the text exists at all.
            decoded, _ = decode_bytes(text.encode("utf-8"))
            # No pre-detected dialect: detection and parsing run (and
            # are measured) inside the hardened ingestion stage.
            table = crop_table(ingest_text(decoded).table)
            # The compute-once columnar primitives every extractor
            # shares; materializing them under their own span leaves
            # the feature stages measuring pure consumption of the
            # profile.
            with tracer.span("profile"):
                table_profile(table).materialize()
            inference = pipeline.line_classifier.infer(table)
            pipeline.cell_classifier.predict(
                table, line_inference=inference
            )
        samples.append(tracer.durations(PIPELINE_STAGES, first))
    return {
        stage: sorted(run[stage] for run in samples)[len(samples) // 2]
        for stage in samples[0]
    }


def _bench_prediction(
    pipeline: StrudelPipeline, text: str, repeats: int
) -> dict:
    """Inference throughput of the two prediction stages.

    Features are extracted once up front so the probes time *pure*
    prediction — the quantity the compiled forest optimises and the
    one a serving deployment is provisioned by.  Rows/sec counts
    table lines through line prediction; cells/sec counts non-empty
    cells through cell prediction.
    """
    table = crop_table(ingest_text(text).table)
    line = pipeline.line_classifier
    cells = pipeline.cell_classifier
    inference = line.infer(table)
    positions, features = cells.extract_cells(
        table, inference.probabilities
    )
    line_seconds = _median_seconds(
        lambda: line.predict_proba_from_features(inference.features),
        repeats,
    )
    cell_seconds = _median_seconds(
        lambda: cells.predict_from_features(positions, features),
        repeats,
    )
    return {
        "rows": table.n_rows,
        "cells": len(positions),
        "line_seconds": line_seconds,
        "cell_seconds": cell_seconds,
        "rows_per_second": (
            table.n_rows / line_seconds if line_seconds > 0 else 0.0
        ),
        "cells_per_second": (
            len(positions) / cell_seconds if cell_seconds > 0 else 0.0
        ),
    }


def _cv_results_identical(a: CVResult, b: CVResult) -> bool:
    """Whether two CV runs produced bit-for-bit identical numbers."""
    if not np.array_equal(a.confusion, b.confusion):
        return False
    if a.scores.macro_f1 != b.scores.macro_f1:
        return False
    if a.scores.accuracy != b.scores.accuracy:
        return False
    pairs = zip(a.per_repetition, b.per_repetition)
    return len(a.per_repetition) == len(b.per_repetition) and all(
        x.macro_f1 == y.macro_f1 and x.per_class_f1 == y.per_class_f1
        for x, y in pairs
    )


def _bench_cv(config: BenchConfig, corpus: Corpus) -> dict:
    """Repeated grouped CV, cold vs corpus-cached, with a parity check."""
    from repro.core.strudel import StrudelLineClassifier

    def factory():
        return StrudelLineClassifier(
            n_estimators=config.cv_trees, random_state=config.seed,
            n_jobs=config.n_jobs,
        )

    def run(cache: FeatureCache | None) -> CVResult:
        return cross_validate_lines(
            corpus, factory, n_splits=config.cv_splits,
            n_repeats=config.cv_repeats, seed=config.seed,
            feature_cache=cache,
        )

    start = time.perf_counter()
    uncached = run(None)
    uncached_seconds = time.perf_counter() - start

    cache = FeatureCache(max_entries=2 * max(1, len(corpus.files)))
    start = time.perf_counter()
    cached = run(cache)
    cached_seconds = time.perf_counter() - start

    cache_stats = cache.stats()
    return {
        "uncached_seconds": uncached_seconds,
        "cached_seconds": cached_seconds,
        "speedup": uncached_seconds / cached_seconds,
        "byte_identical": _cv_results_identical(uncached, cached),
        "macro_f1": uncached.scores.macro_f1,
        "cache_hits": cache_stats["hits"],
        "cache_misses": cache_stats["misses"],
    }


def _sweep_results_identical(a: list[FileResult], b: list[FileResult]) -> bool:
    """Byte-level parity between two sweeps over the same paths."""
    if len(a) != len(b):
        return False
    return all(
        x.path == y.path
        and x.line_codes.tobytes() == y.line_codes.tobytes()
        and x.cell_positions.tobytes() == y.cell_positions.tobytes()
        and x.cell_codes.tobytes() == y.cell_codes.tobytes()
        for x, y in zip(a, b)
    )


def _bench_corpus_sweep(config: BenchConfig, corpus: Corpus,
                        pipeline: StrudelPipeline) -> dict:
    """Whole-corpus sweep throughput.

    Two measurements over the same materialized corpus, each through
    ``process_payloads`` with the file bytes read up front:

    * the persistent-worker engine at ``n_jobs`` in ``{1, jobs}``,
      timed on a *second* call so the pool is warm — the steady state
      the engine exists to provide (the cold number is the cache-cold
      pass below, which pays the one-time spawn + broadcast);
    * the on-disk sweep cache, cold pass vs all-hits warm pass.
    """
    jobs = config.n_jobs if config.n_jobs > 1 else 4
    policy = IngestPolicy()
    with tempfile.TemporaryDirectory(prefix="repro-bench-sweep-") as tmp:
        root = Path(tmp)
        paths = materialize_corpus(corpus, root / "files")
        items = [(str(path), path.read_bytes()) for path in paths]

        engine_results: dict[int, list[FileResult]] = {}
        engine_seconds: dict[int, float] = {}
        for level in sorted({1, jobs}):
            with CorpusEngine(
                pipeline, n_jobs=level, policy=policy
            ) as engine:
                engine.process_payloads(items)  # warm the pool + broadcast
                start = time.perf_counter()
                results, report = engine.process_payloads(items)
                engine_seconds[level] = time.perf_counter() - start
            if report.skipped:
                first = report.skipped[0]
                raise InvalidParameterError(
                    f"engine sweep skipped {first.path}: {first.reason}"
                )
            engine_results[level] = results

        with CorpusEngine(
            pipeline, n_jobs=jobs, policy=policy, cache_dir=root / "cache"
        ) as engine:
            start = time.perf_counter()
            engine.process_payloads(items)
            cache_cold_seconds = time.perf_counter() - start
            start = time.perf_counter()
            _, warm_report = engine.process_payloads(items)
            cache_warm_seconds = time.perf_counter() - start

        cells = sum(len(r.cell_codes) for r in engine_results[1])
        levels = {
            str(level): {
                "seconds": seconds,
                "files_per_second": len(paths) / seconds,
                "cells_per_second": cells / seconds,
            }
            for level, seconds in engine_seconds.items()
        }
        return {
            "files": len(paths),
            "cells": cells,
            "jobs": jobs,
            "sequential_seconds": engine_seconds[1],
            "engine": levels,
            "cache_cold_seconds": cache_cold_seconds,
            "cache_warm_seconds": cache_warm_seconds,
            "cache_speedup": cache_cold_seconds / cache_warm_seconds,
            "cache_hits": warm_report.cache_hits,
            "byte_identical": _sweep_results_identical(
                engine_results[1], engine_results[jobs]
            ),
        }


def _results_feature_identical(a: FileResult, b: FileResult) -> bool:
    """Byte-level parity between two results of *different* sources.

    The adapter parity promise compares a loose file against the same
    bytes classified out of an archive, so the paths legitimately
    differ; only the classified tensors must match.
    """
    return (
        a.line_codes.tobytes() == b.line_codes.tobytes()
        and a.cell_positions.tobytes() == b.cell_positions.tobytes()
        and a.cell_codes.tobytes() == b.cell_codes.tobytes()
    )


def _bench_adapter_sweep(config: BenchConfig, corpus: Corpus,
                         pipeline: StrudelPipeline) -> dict:
    """Lake-sweep throughput through the source-adapter layer.

    The corpus is materialized three times into one lake — loose CSV
    files, the same files zipped into one archive, and tarred into
    another — then swept in one pass: the directory adapter crawls the
    lake into ``(provenance, bytes)`` payloads and the warm engine
    classifies them through ``process_payloads``.  Enumeration and
    classification are timed separately, and the block checks the
    adapter layer's parity promise: a member classified out of an
    archive is byte-identical to the same file classified loose.
    """
    policy = IngestPolicy()
    with tempfile.TemporaryDirectory(prefix="repro-bench-lake-") as tmp:
        root = Path(tmp)
        paths = materialize_corpus(corpus, root / "loose")
        with zipfile.ZipFile(root / "lake.zip", "w") as archive:
            for path in paths:
                archive.writestr(
                    zipfile.ZipInfo(path.name), path.read_bytes()
                )
        with tarfile.open(root / "lake.tar", "w") as archive:
            for path in paths:
                archive.add(path, arcname=path.name)

        adapter = DirectoryAdapter(root, policy)
        start = time.perf_counter()
        payloads = list(adapter.iterate())
        enumerate_seconds = time.perf_counter() - start
        if adapter.skipped:
            name, reason = adapter.skipped[0]
            raise InvalidParameterError(
                f"adapter enumeration skipped {name}: {reason}"
            )

        items = [(p.provenance, p.data) for p in payloads]
        with CorpusEngine(pipeline, n_jobs=1, policy=policy) as engine:
            engine.process_payloads(items)  # warm the pool + broadcast
            start = time.perf_counter()
            results, report = engine.process_payloads(items)
            classify_seconds = time.perf_counter() - start
        if report.skipped:
            first = report.skipped[0]
            raise InvalidParameterError(
                f"adapter sweep skipped {first.path}: {first.reason}"
            )

        # Group the three variants of each member by leaf name: loose
        # provenance is a plain path, archive provenance is
        # ``container!member``.
        by_member: dict[str, dict[str, FileResult]] = {}
        for payload, result in zip(payloads, results):
            container, _, member = payload.provenance.partition("!")
            variant = Path(container).name if member else "loose"
            leaf = member or Path(container).name
            by_member.setdefault(leaf, {})[variant] = result
        byte_identical = all(
            _results_feature_identical(
                variants["loose"], variants[archive_name]
            )
            for variants in by_member.values()
            for archive_name in ("lake.zip", "lake.tar")
        )
        return {
            "sources": len(payloads),
            "files": len(paths),
            "enumerate_seconds": enumerate_seconds,
            "seconds": classify_seconds,
            "sources_per_second": len(payloads) / classify_seconds,
            "byte_identical": byte_identical,
        }


def _bench_service_roundtrip(config: BenchConfig, corpus: Corpus,
                             pipeline: StrudelPipeline) -> dict:
    """Async service round-trip throughput + parity.

    Every corpus file is submitted concurrently through the
    in-process :class:`~repro.serve.client.ServiceClient` against a
    single-worker service, timed submit-to-settle, then drained.  The
    served results must be byte-identical to a direct engine sweep of
    the same files — the serve layer may batch and reorder *work*,
    never *results*.
    """
    policy = IngestPolicy()
    with tempfile.TemporaryDirectory(prefix="repro-bench-serve-") as tmp:
        paths = materialize_corpus(corpus, Path(tmp) / "files")

        async def drive():
            service = ClassificationService(
                pipeline, n_jobs=1, policy=policy
            )
            await service.start()
            client = ServiceClient(service)
            start = time.perf_counter()
            results = await asyncio.gather(
                *(client.classify_path(path) for path in paths)
            )
            seconds = time.perf_counter() - start
            summary = await service.drain()
            return list(results), seconds, summary

        served, seconds, summary = asyncio.run(drive())
        failures = [
            r for r in served if not isinstance(r, FileResult)
        ]
        if failures:
            raise InvalidParameterError(
                f"service round-trip skipped {failures[0].path}: "
                f"{failures[0].reason}"
            )
        items = [(str(path), path.read_bytes()) for path in paths]
        with CorpusEngine(pipeline, n_jobs=1, policy=policy) as engine:
            direct, _report = engine.process_payloads(items)
        return {
            "files": len(paths),
            "seconds": seconds,
            "files_per_second": len(paths) / seconds,
            "requests": summary["requests"],
            "dead_letters": summary["dead_letters"],
            "byte_identical": _sweep_results_identical(served, direct),
        }


def run_benchmark(config: BenchConfig | None = None) -> dict:
    """Run the full harness and return the report as a plain dict."""
    config = config or BenchConfig()
    corpus = make_corpus(
        config.corpus, seed=config.seed, scale=config.scale
    )
    text = generated_text(config.rows, seed=config.seed)

    pipeline = StrudelPipeline(
        n_estimators=config.trees, random_state=config.seed,
        n_jobs=config.n_jobs,
    )
    start = time.perf_counter()
    pipeline.fit(corpus.files)
    fit_seconds = time.perf_counter() - start

    # Warm numpy/allocator caches before any timed region.
    pipeline.analyze(text)

    single_pass_seconds = _median_seconds(
        lambda: pipeline.analyze(text), config.repeats
    )

    cache = FeatureCache(max_entries=64)
    pipeline.set_feature_cache(cache)
    pipeline.analyze(text)  # populate the cache
    cached_seconds = _median_seconds(
        lambda: pipeline.analyze(text), config.repeats
    )
    pipeline.set_feature_cache(None)

    stages = _stage_breakdown(pipeline, text, config.repeats)
    prediction = _bench_prediction(pipeline, text, config.repeats)
    cv = _bench_cv(config, corpus)
    corpus_sweep = _bench_corpus_sweep(config, corpus, pipeline)
    adapter_sweep = _bench_adapter_sweep(config, corpus, pipeline)
    service_roundtrip = _bench_service_roundtrip(
        config, corpus, pipeline
    )

    cache_stats = cache.stats()
    return {
        "schema": BENCH_SCHEMA,
        "config": asdict(config),
        "fit_seconds": fit_seconds,
        "stages": stages,
        "prediction": prediction,
        "analyze": {
            "single_pass_seconds": single_pass_seconds,
            "cached_seconds": cached_seconds,
            "cache_hits": cache_stats["hits"],
            "cache_misses": cache_stats["misses"],
        },
        "cv": cv,
        "corpus_sweep": corpus_sweep,
        "adapter_sweep": adapter_sweep,
        "service_roundtrip": service_roundtrip,
    }


#: Config fields that must match for two reports to be comparable —
#: everything that shapes the workload.  ``n_jobs`` is excluded: the
#: worker count is a machine knob, and results never depend on it.
_COMPARABLE_CONFIG_KEYS: tuple[str, ...] = (
    "corpus", "scale", "trees", "rows", "repeats",
    "cv_splits", "cv_repeats", "cv_trees", "seed", "quick",
)

#: Default regression tolerance for :func:`diff_reports`: a timing
#: more than 25% above the baseline fails the diff.
DEFAULT_TOLERANCE = 0.25


def load_report(path: str | Path) -> dict:
    """Read a saved benchmark report, validating its schema tag."""
    report = json.loads(Path(path).read_text(encoding="utf-8"))
    schema = report.get("schema")
    if schema != BENCH_SCHEMA:
        raise ValueError(
            f"unsupported benchmark schema {schema!r} in {path} "
            f"(expected {BENCH_SCHEMA!r})"
        )
    return report


def configs_comparable(current: dict, baseline: dict) -> bool:
    """Whether two reports ran the same workload (see
    :data:`_COMPARABLE_CONFIG_KEYS`)."""
    a, b = current.get("config", {}), baseline.get("config", {})
    return all(a.get(key) == b.get(key) for key in _COMPARABLE_CONFIG_KEYS)


def _timing_metrics(report: dict) -> dict[str, float]:
    """Flat ``metric name -> seconds`` view of a report's timings."""
    metrics: dict[str, float] = {"fit_seconds": report["fit_seconds"]}
    for stage, seconds in report["stages"].items():
        metrics[f"stages.{stage}"] = seconds
    analyze = report["analyze"]
    for key in ("single_pass_seconds", "cached_seconds"):
        metrics[f"analyze.{key}"] = analyze[key]
    cv = report["cv"]
    for key in ("uncached_seconds", "cached_seconds"):
        metrics[f"cv.{key}"] = cv[key]
    prediction = report.get("prediction")
    if prediction is not None:
        metrics["prediction.line_seconds"] = prediction["line_seconds"]
        metrics["prediction.cell_seconds"] = prediction["cell_seconds"]
    sweep = report.get("corpus_sweep")
    if sweep is not None:
        # Only the sequential sweep is diffed: the parallel timings
        # depend on the jobs level, which ``_COMPARABLE_CONFIG_KEYS``
        # deliberately leaves out of the comparability check.
        metrics["corpus_sweep.sequential_seconds"] = (
            sweep["sequential_seconds"]
        )
    lake = report.get("adapter_sweep")
    if lake is not None:
        metrics["adapter_sweep.seconds"] = lake["seconds"]
    roundtrip = report.get("service_roundtrip")
    if roundtrip is not None:
        metrics["service_roundtrip.seconds"] = roundtrip["seconds"]
    return metrics


#: Ratio metrics compared by :func:`diff_reports` alongside the
#: timings.  These are **higher-is-better** (a speedup), so the
#: regression test is inverted: the metric regresses when the current
#: value falls below ``baseline * (1 - tolerance)``.  ``cv.speedup``
#: lives here so a cache that quietly stops paying for itself (the
#: 0.97x episode this guards against) fails the diff instead of
#: rotting in the report.
#: ``corpus_sweep.cache_speedup`` joins it for the same reason: the
#: on-disk sweep cache must keep its warm pass dramatically cheaper
#: than the cold pass, or the content-addressed store has rotted.
_RATIO_METRICS: tuple[str, ...] = (
    "cv.speedup", "corpus_sweep.cache_speedup"
)


def _ratio_metrics(report: dict) -> dict[str, float]:
    """Flat ``metric name -> ratio`` view of a report's speedups.

    Tolerates reports recorded before a ratio existed — the diff
    simply skips metrics absent from either side.
    """
    ratios: dict[str, float] = {}
    speedup = report.get("cv", {}).get("speedup")
    if speedup is not None:
        ratios["cv.speedup"] = speedup
    cache_speedup = report.get("corpus_sweep", {}).get("cache_speedup")
    if cache_speedup is not None:
        ratios["corpus_sweep.cache_speedup"] = cache_speedup
    return ratios


def diff_reports(
    current: dict,
    baseline: dict,
    tolerance: float = DEFAULT_TOLERANCE,
) -> dict:
    """Metric-by-metric comparison of two comparable reports.

    Returns a dict with one entry per shared timing metric (baseline
    seconds, current seconds, and the ratio ``current/baseline``), the
    list of metrics that regressed beyond ``tolerance``, and the
    tolerance used.  Metrics present in only one report (e.g. a stage
    added after the baseline was recorded) are listed separately and
    never gate.
    """
    if tolerance < 0:
        raise InvalidParameterError("tolerance must be non-negative")
    current_metrics = _timing_metrics(current)
    baseline_metrics = _timing_metrics(baseline)
    shared = [m for m in baseline_metrics if m in current_metrics]
    entries = {}
    regressions = []
    for metric in shared:
        before = baseline_metrics[metric]
        after = current_metrics[metric]
        ratio = after / before if before > 0 else float("inf")
        regressed = bool(after > before * (1.0 + tolerance))
        entries[metric] = {
            "baseline_seconds": before,
            "current_seconds": after,
            "ratio": ratio,
            "regressed": regressed,
        }
        if regressed:
            regressions.append(metric)
    current_ratios = _ratio_metrics(current)
    baseline_ratios = _ratio_metrics(baseline)
    ratio_entries = {}
    for metric in _RATIO_METRICS:
        if metric not in current_ratios or metric not in baseline_ratios:
            continue
        before = baseline_ratios[metric]
        after = current_ratios[metric]
        # Higher is better: regression means the speedup shrank by
        # more than the tolerance, not that it grew.
        regressed = bool(after < before * (1.0 - tolerance))
        ratio_entries[metric] = {
            "baseline_ratio": before,
            "current_ratio": after,
            "regressed": regressed,
        }
        if regressed:
            regressions.append(metric)
    return {
        "tolerance": tolerance,
        "metrics": entries,
        "ratios": ratio_entries,
        "regressions": regressions,
        "only_in_current": sorted(
            m for m in current_metrics if m not in baseline_metrics
        ),
        "only_in_baseline": sorted(
            m for m in baseline_metrics if m not in current_metrics
        ),
    }


def format_diff(diff: dict) -> str:
    """Human-readable per-metric delta table for terminal output."""
    lines = [
        f"baseline comparison (tolerance {diff['tolerance']:.0%}):"
    ]
    for metric, entry in diff["metrics"].items():
        marker = "REGRESSED" if entry["regressed"] else ""
        lines.append(
            f"  {metric:<32} {entry['baseline_seconds']:>8.3f}s ->"
            f" {entry['current_seconds']:>8.3f}s"
            f"  ({entry['ratio']:.2f}x) {marker}".rstrip()
        )
    for metric, entry in diff.get("ratios", {}).items():
        marker = "REGRESSED" if entry["regressed"] else ""
        lines.append(
            f"  {metric:<32} {entry['baseline_ratio']:>8.2f}x ->"
            f" {entry['current_ratio']:>8.2f}x"
            f"  (higher is better) {marker}".rstrip()
        )
    for metric in diff["only_in_current"]:
        lines.append(f"  {metric:<32} (new metric, not gated)")
    for metric in diff["only_in_baseline"]:
        lines.append(f"  {metric:<32} (absent from this run)")
    if diff["regressions"]:
        lines.append(
            f"{len(diff['regressions'])} metric(s) regressed beyond "
            f"tolerance: {', '.join(diff['regressions'])}"
        )
    else:
        lines.append("no regressions beyond tolerance")
    return "\n".join(lines)


def write_report(report: dict, path: str | Path) -> Path:
    """Persist a benchmark report as pretty-printed JSON."""
    path = Path(path)
    path.write_text(json.dumps(report, indent=2) + "\n", encoding="utf-8")
    return path


def format_summary(report: dict) -> str:
    """Human-readable digest of a report, for terminal output."""
    analyze = report["analyze"]
    cv = report["cv"]
    lines = [
        f"fit: {report['fit_seconds']:.2f}s "
        f"(trees={report['config']['trees']}, "
        f"scale={report['config']['scale']:g})",
        "stages (single analyze of the "
        f"{report['config']['rows']}-row file):",
    ]
    total = sum(report["stages"].values())
    for stage, seconds in report["stages"].items():
        share = seconds / total if total else 0.0
        lines.append(f"  {stage:<20} {seconds:>8.3f}s {share:>6.1%}")
    prediction = report.get("prediction")
    if prediction is not None:
        lines.extend(
            [
                "prediction throughput (features pre-extracted):",
                f"  lines  {prediction['rows']:>6} in "
                f"{prediction['line_seconds']:.4f}s  "
                f"({prediction['rows_per_second']:,.0f} rows/s)",
                f"  cells  {prediction['cells']:>6} in "
                f"{prediction['cell_seconds']:.4f}s  "
                f"({prediction['cells_per_second']:,.0f} cells/s)",
            ]
        )
    lines.extend(
        [
            "analyze:",
            f"  single-pass          {analyze['single_pass_seconds']:>8.3f}s",
            f"  single-pass + cache  {analyze['cached_seconds']:>8.3f}s",
            "cv:",
            f"  uncached             {cv['uncached_seconds']:>8.3f}s",
            f"  cached               {cv['cached_seconds']:>8.3f}s"
            f"  ({cv['speedup']:.2f}x)",
            f"  byte-identical       {cv['byte_identical']}",
        ]
    )
    sweep = report.get("corpus_sweep")
    if sweep is not None:
        jobs = sweep["jobs"]
        seq = sweep["engine"]["1"]
        par = sweep["engine"][str(jobs)]
        lines.extend(
            [
                f"corpus sweep ({sweep['files']} files, "
                f"{sweep['cells']} cells):",
                "  engine, 1 worker     "
                f"{seq['seconds']:>8.3f}s"
                f"  ({seq['files_per_second']:,.1f} files/s, "
                f"{seq['cells_per_second']:,.0f} cells/s)",
                f"  engine, {jobs} workers    "
                f"{par['seconds']:>8.3f}s"
                f"  ({par['files_per_second']:,.1f} files/s, "
                f"{par['cells_per_second']:,.0f} cells/s)",
                "  sweep cache warm     "
                f"{sweep['cache_warm_seconds']:>8.3f}s"
                f"  ({sweep['cache_speedup']:.2f}x vs cold "
                f"{sweep['cache_cold_seconds']:.3f}s)",
                f"  byte-identical       {sweep['byte_identical']}",
            ]
        )
    lake = report.get("adapter_sweep")
    if lake is not None:
        lines.extend(
            [
                f"adapter lake sweep ({lake['sources']} sources from "
                f"{lake['files']} files, loose + zip + tar):",
                "  enumerate            "
                f"{lake['enumerate_seconds']:>8.3f}s",
                "  classify             "
                f"{lake['seconds']:>8.3f}s"
                f"  ({lake['sources_per_second']:,.1f} sources/s)",
                f"  byte-identical       {lake['byte_identical']}",
            ]
        )
    roundtrip = report.get("service_roundtrip")
    if roundtrip is not None:
        lines.extend(
            [
                f"service round-trip ({roundtrip['files']} files, "
                "in-process async client):",
                "  submit-to-settle     "
                f"{roundtrip['seconds']:>8.3f}s"
                f"  ({roundtrip['files_per_second']:,.1f} files/s, "
                f"{roundtrip['dead_letters']} dead-lettered)",
                f"  byte-identical       {roundtrip['byte_identical']}",
            ]
        )
    return "\n".join(lines)
