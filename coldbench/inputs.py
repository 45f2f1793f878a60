"""Seeded inputs of the three workloads.

Every function here is a pure function of its arguments: two calls
with the same arguments return byte-identical payloads and identical
ground truth.  The program under test only ever sees the bytes; the
:class:`~repro.types.AnnotatedFile` truth stays on the benchmark side
for scoring.

The steadiness check compares runs made with *different* seeds, and
quality must be identical across runs.  So the content of every file
(layout, values, damage, which request repeats which) is fixed, drawn
by the package's own corpus builders with their default seeds, and
the run's seed only changes what cannot change a classification: the
order and placement of files in the lake and the arrival gaps of
the ``serve_open`` schedule.  ``paper_cv`` does not use the seed at
all, because any change of its corpus, even its order, moves the CV
folds.
"""

from __future__ import annotations

import hashlib
import zipfile
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from repro.datagen import make_corpus
from repro.io.adapters import join_provenance
from repro.io.writer import write_csv_text
from repro.types import AnnotatedFile, Corpus

#: The lake holds every corpus personality at this share of its
#: paper size (``CorpusSpec.n_files``: 226 GovUK, 223 SAUS, 269 CIUS,
#: 444 DeEx, 62 Mendeley, 200 Troy), built by ``make_corpus`` with the
#: personality's default seed.  Mendeley files are few and large, Troy
#: files many and tiny; together they span the per-file fixed cost and
#: the per-byte cost of the sweep.
LAKE_PERSONALITIES = ("govuk", "saus", "cius", "deex", "mendeley", "troy")
LAKE_SCALE = 0.1

#: Seed of the content that no corpus builder fixes by default (the
#: ``serve_open`` mix).
CONTENT_SEED = 2021

#: The ``serve_open`` mix.  These shares have no measured basis: they
#: are chosen so that repeats, damage and first sightings all occur
#: often enough to time.  They set ``perf.engine.cache_hit_ratio`` and
#: ``dialect.memo_hit_ratio`` (repeats) and ``io.ingest.repaired_share``
#: (damage), and through them part of the served latency.
SERVE_REPEAT_SHARE = 0.25
SERVE_DAMAGE_SHARE = 0.15
#: Byte range of a served file (also arbitrary): small files, so one
#: request is one short service time and the tail is set by queueing,
#: not by size.
SERVE_FILE_BYTES = (400, 4000)
#: The serve pool: the four personalities with small files at half
#: their paper size, default seeds (about 350 files in the byte range).
SERVE_PERSONALITIES = ("troy", "saus", "cius", "govuk")
SERVE_POOL_SCALE = 0.5

ZIP_DATE = (1980, 1, 1, 0, 0, 0)


def derive_seed(seed: int, tag: str) -> int:
    """A stable 32-bit child seed of ``seed`` for the stream ``tag``."""
    digest = hashlib.sha256(f"{seed}:{tag}".encode("utf-8")).digest()
    return int.from_bytes(digest[:4], "big")


def csv_bytes(annotated: AnnotatedFile) -> bytes:
    """The file as the program receives it: standard-dialect UTF-8."""
    return write_csv_text(annotated.table.rows()).encode("utf-8")


@dataclass(frozen=True)
class Source:
    """One input file: where it lives, its bytes and its truth."""

    name: str
    data: bytes
    truth: AnnotatedFile


# ----------------------------------------------------------------------
# lake_sweep
# ----------------------------------------------------------------------
def lake_sources(seed: int, scale: float = LAKE_SCALE) -> list[Source]:
    """Distinct files from all six personalities at ``scale``.

    ``name`` is the file's path relative to the lake root.  The seed
    shuffles where each file lands: every seventh file in the shuffled
    order goes into ``archive/bundle.zip``, the others into one of
    three nested directories.  The files themselves do not change.
    """
    files = [
        annotated
        for personality in LAKE_PERSONALITIES
        for annotated in make_corpus(personality, scale=scale).files
    ]
    order = np.random.default_rng(derive_seed(seed, "lake")).permutation(
        len(files)
    )
    sources: list[Source] = []
    for index, k in enumerate(order):
        annotated = files[int(k)]
        if index % 7 == 6:
            name = f"archive/bundle.zip!{annotated.name}.csv"
        else:
            personality = annotated.name.partition("_")[0]
            name = f"{personality}/part-{index % 3}/{annotated.name}.csv"
        sources.append(Source(name, csv_bytes(annotated), annotated))
    return sources


def materialize(sources: list[Source], root: Path) -> dict[str, Source]:
    """Write ``sources`` under ``root``; returns provenance -> source.

    The provenance keys are the locators the directory adapter
    yields (``root/a/b.csv`` or ``root/archive/bundle.zip!m.csv``).
    """
    by_provenance: dict[str, Source] = {}
    members: dict[str, list[Source]] = {}
    for source in sources:
        container, sep, member = source.name.partition("!")
        if sep:
            members.setdefault(container, []).append(source)
            by_provenance[
                join_provenance(str(root / container), member)
            ] = source
            continue
        path = root / source.name
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_bytes(source.data)
        by_provenance[str(path)] = source
    for container, contents in members.items():
        path = root / container
        path.parent.mkdir(parents=True, exist_ok=True)
        with zipfile.ZipFile(path, "w") as archive:
            for source in contents:
                info = zipfile.ZipInfo(
                    source.name.partition("!")[2], date_time=ZIP_DATE
                )
                info.compress_type = zipfile.ZIP_DEFLATED
                archive.writestr(info, source.data)
    return by_provenance


# ----------------------------------------------------------------------
# serve_open
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class Request:
    """One scheduled classify request."""

    id: str
    due: float
    kind: str
    source: Source


def _damage(
    data: bytes, kind: str, rng: np.random.Generator
) -> bytes | None:
    """Repairable damage whose repair restores a table with the same
    label positions; ``None`` when ``kind`` does not apply."""
    if kind == "bom":
        return b"\xef\xbb\xbf" + data
    if kind == "nul":
        cuts = sorted(rng.choice(len(data), size=3, replace=False))
        out = bytearray()
        last = 0
        for cut in cuts:
            out += data[last:cut] + b"\x00"
            last = cut
        return bytes(out + data[last:])
    # latin-1: one accented letter ends the first non-empty line, so
    # the bytes are no longer UTF-8 and ingest falls back to latin-1.
    text = data.decode("utf-8")
    lines = text.split("\n")
    for i, line in enumerate(lines):
        if line.strip(", "):
            lines[i] = line + "é"
            break
    try:
        return "\n".join(lines).encode("latin-1")
    except UnicodeEncodeError:
        return None


def serve_pool() -> list[tuple[AnnotatedFile, bytes]]:
    """Every pool file in the serve byte range, in a fixed order."""
    pool = [
        annotated
        for personality in SERVE_PERSONALITIES
        for annotated in make_corpus(
            personality, scale=SERVE_POOL_SCALE
        ).files
    ]
    rng = np.random.default_rng(derive_seed(CONTENT_SEED, "serve:pool"))
    fresh = []
    for k in rng.permutation(len(pool)):
        data = csv_bytes(pool[k])
        if SERVE_FILE_BYTES[0] <= len(data) <= SERVE_FILE_BYTES[1]:
            fresh.append((pool[k], data))
    return fresh


def serve_schedule(
    seed: int, rate: float, seconds: float
) -> list[Request]:
    """An open-loop schedule at ``rate`` requests per second.

    The request sequence (payloads, damage, repeats) is fixed; the
    seed draws the gaps, each the mean gap times a uniform factor in
    [0.5, 1.5]: an open loop (sends never wait for answers) with
    bounded burstiness, so the tail reflects the service rather than
    the arrival draw.
    """
    mix = np.random.default_rng(derive_seed(CONTENT_SEED, "serve:mix"))
    gaps = np.random.default_rng(derive_seed(seed, "serve:gaps"))
    fresh = serve_pool()
    fresh.reverse()
    n_requests = max(1, int(round(rate * seconds)))
    requests: list[Request] = []
    sent: list[Source] = []
    due = 0.0
    damages = ("bom", "nul", "latin1")
    for i in range(n_requests):
        u = mix.random()
        if sent and u < SERVE_REPEAT_SHARE:
            kind = "repeat"
            source = sent[int(mix.integers(len(sent)))]
        else:
            if not fresh:
                raise ValueError("serve pool exhausted; lower the rate")
            annotated, data = fresh.pop()
            kind = "fresh"
            if u < SERVE_REPEAT_SHARE + SERVE_DAMAGE_SHARE:
                kind = damages[i % len(damages)]
                damaged = _damage(data, kind, mix)
                if damaged is None:
                    kind = "fresh"
                else:
                    data = damaged
            source = Source(f"{annotated.name}.{kind}", data, annotated)
            sent.append(source)
        requests.append(Request(f"r{i:05d}", due, kind, source))
        due += float(gaps.uniform(0.5, 1.5)) / rate
    return requests


# ----------------------------------------------------------------------
# paper_cv
# ----------------------------------------------------------------------
#: The cross-validated corpus: the CIUS tenth of the lake (27 files,
#: ``make_corpus("cius", scale=0.1)``), templated, at a size that keeps
#: one repetition of 10-fold line + cell CV near three seconds.
CV_PERSONALITY = "cius"
CV_SCALE = LAKE_SCALE


def cv_corpus(scale: float = CV_SCALE) -> Corpus:
    """The paper corpus one ``paper_cv`` pass cross-validates.  It
    does not depend on the run's seed (see the module docstring)."""
    return make_corpus(CV_PERSONALITY, scale=scale)
