"""Measurement helpers shared by the gated and the traced runs:
the host drift probe, percentiles, peak memory, scoring against
generator truth and the byte-level parity oracle."""

from __future__ import annotations

import resource
import statistics
import time

import numpy as np

from repro.io.cropping import crop_annotated_file
from repro.ml.metrics import macro_f1
from repro.perf.engine import CLASS_CODES, FileResult
from repro.types import CONTENT_CLASSES, AnnotatedFile, CellClass

#: Percentiles tried, highest first, for the tail latency.
TAIL_LADDER = (99.9, 99.5, 99.0, 98.0, 97.5, 95.0, 90.0, 80.0, 75.0, 50.0)
#: A tail percentile needs this many samples beyond it.
TAIL_MIN_BEYOND = 10


def drift_probe_ms(repeats: int = 3) -> float:
    """Median time of a fixed pure-Python loop, in ms.

    Recorded before and after every run so a steadiness report can
    tell host drift from program noise.  Never used to scale a metric.
    """
    samples = []
    for _ in range(repeats):
        started = time.perf_counter()
        total = 0
        for i in range(200_000):
            total += i * i % 7
        samples.append((time.perf_counter() - started) * 1000.0)
    return statistics.median(samples)


def tail(values: list[float]) -> dict:
    """The highest ladder percentile with at least ten samples beyond
    it, with the sample counts; the maximum when there are too few
    samples for any percentile (``beyond`` is then 0)."""
    data = np.asarray(values, dtype=float)
    for percentile in TAIL_LADDER:
        value = float(np.percentile(data, percentile))
        beyond = int(np.count_nonzero(data > value))
        if beyond >= TAIL_MIN_BEYOND:
            return {"percentile": percentile, "value": value,
                    "beyond": beyond, "samples": int(data.size)}
    return {"percentile": 100.0, "value": float(data.max()),
            "beyond": 0, "samples": int(data.size)}


def peak_rss_mb() -> float:
    """This process's peak resident set size so far, in MB."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def process_peak_rss_mb(pid: int) -> float | None:
    """Peak RSS of another live process (Linux ``VmHWM``), in MB."""
    try:
        with open(f"/proc/{pid}/status", encoding="ascii") as status:
            for line in status:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
    except OSError:
        return None
    return None


# ----------------------------------------------------------------------
# Scoring against generator truth
# ----------------------------------------------------------------------
class Scorer:
    """Accumulates line and cell predictions against truth.

    Truth is cropped exactly as the pipeline crops the parsed table.
    A truth line or cell the result does not cover (the detected
    dialect gave another shape) counts as predicted ``EMPTY``, which
    is never a content class, so it is scored wrong.
    """

    def __init__(self) -> None:
        self.line_true: list[CellClass] = []
        self.line_pred: list[CellClass] = []
        self.cell_true: list[CellClass] = []
        self.cell_pred: list[CellClass] = []

    def add(self, truth: AnnotatedFile, result: FileResult) -> None:
        cropped = crop_annotated_file(truth)
        lines = result.line_classes()
        for i, label in enumerate(cropped.line_labels):
            if label is CellClass.EMPTY:
                continue
            self.line_true.append(label)
            self.line_pred.append(
                lines[i] if i < len(lines) else CellClass.EMPTY
            )
        cells = result.cell_classes()
        for i, j, label in cropped.non_empty_cell_items():
            self.cell_true.append(label)
            self.cell_pred.append(cells.get((i, j), CellClass.EMPTY))

    def line_f1(self) -> float:
        return macro_f1(self.line_true, self.line_pred,
                        labels=CONTENT_CLASSES)

    def cell_f1(self) -> float:
        return macro_f1(self.cell_true, self.cell_pred,
                        labels=CONTENT_CLASSES)


# ----------------------------------------------------------------------
# Parity
# ----------------------------------------------------------------------
def result_key(result: FileResult) -> tuple:
    """Everything a :class:`FileResult` says, as comparable bytes."""
    return (
        result.dialect.delimiter, result.dialect.quotechar,
        result.dialect.escapechar, result.n_rows, result.n_cols,
        result.line_codes.astype(np.int8).tobytes(),
        result.cell_positions.astype(np.int64).reshape(-1, 2).tobytes(),
        result.cell_codes.astype(np.int8).tobytes(),
    )


def structure_key(structure) -> tuple:
    """The same key for a ``StrudelPipeline.analyze_bytes`` result:
    the oracle the engine's arrays must match byte for byte."""
    items = sorted(structure.cell_classes.items())
    return (
        structure.dialect.delimiter, structure.dialect.quotechar,
        structure.dialect.escapechar, structure.table.n_rows,
        structure.table.n_cols,
        np.array([CLASS_CODES[c] for c in structure.line_classes],
                 dtype=np.int8).tobytes(),
        np.array([pos for pos, _ in items],
                 dtype=np.int64).reshape(-1, 2).tobytes(),
        np.array([CLASS_CODES[c] for _, c in items],
                 dtype=np.int8).tobytes(),
    )


def classes_key(line_classes, positions, cell_classes) -> tuple:
    """Line and cell classes as bytes, for the traced-run check."""
    order = sorted(range(len(positions)), key=lambda k: positions[k])
    return (
        np.array([CLASS_CODES[c] for c in line_classes],
                 dtype=np.int8).tobytes(),
        np.array([positions[k] for k in order],
                 dtype=np.int64).reshape(-1, 2).tobytes(),
        np.array([CLASS_CODES[cell_classes[k]] for k in order],
                 dtype=np.int8).tobytes(),
    )
