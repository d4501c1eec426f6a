"""Disruption scores for focal papers in a citation network.

For a focal paper i, every other paper falls into at most one class:
F (cites i but none of i's qualifying references), B (cites i and at
least one qualifying reference), or the R-class (cites a qualifying
reference but not i). The score is

    d = (n_f - n_b) / (n_f + n_b + n_r)

and is Undefined (d = None) when all three counts are zero; it is never
coerced to 0.

Two notions of "qualifying" are supported. Mode ``ref_indegree`` (the
default) keeps a reference only if its corpus-wide citation count is at
least l; the focal paper's own citation counts toward that in-degree,
which is what makes every reference qualify at l = 1 and the l = 1
variant collapse to the base score. Mode ``overlap`` instead requires a
citer to share at least l references with the focal paper to land in B,
while the R-class keeps the share-at-least-one rule at every l.
"""

from __future__ import annotations

import csv
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from pathlib import Path
from typing import Sequence

import numpy as np

from ._kernels import partition_counts
from .corpus import atomic_write
from .graph import CitationGraph

MODES = ("ref_indegree", "overlap")

DEFAULT_THRESHOLDS = (1, 2, 3, 5)

SCORE_COLUMNS = ("id", "l", "n_f", "n_b", "n_r", "d")


@dataclass(frozen=True)
class CiterPartition:
    n_f: int
    n_b: int
    n_r: int
    l: int
    mode: str

    def __post_init__(self):
        if min(self.n_f, self.n_b, self.n_r) < 0:
            raise ValueError("partition counts must be >= 0")
        if self.l < 1:
            raise ValueError(f"threshold must be >= 1, got {self.l}")
        if self.mode not in MODES:
            raise ValueError(f"mode must be one of {MODES}, got {self.mode!r}")

    @property
    def counts(self) -> tuple[int, int, int]:
        return (self.n_f, self.n_b, self.n_r)


@dataclass(frozen=True)
class DisruptionScore:
    paper_id: str
    partition: CiterPartition
    d: float | None

    @property
    def defined(self) -> bool:
        return self.d is not None


@dataclass(frozen=True, eq=False)
class ScoreTable:
    """A disruption.csv table as columns, one entry per row. ``d`` is
    NaN where the score is Undefined. ``mode`` is the partition mode
    when the table was computed here, and None when it was read from a
    file, which does not record it."""

    ids: tuple[str, ...]
    l: np.ndarray
    n_f: np.ndarray
    n_b: np.ndarray
    n_r: np.ndarray
    d: np.ndarray
    mode: str | None = None

    def __len__(self) -> int:
        return len(self.ids)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, ScoreTable):
            return NotImplemented
        return (self.ids == other.ids and self.mode == other.mode
                and all(np.array_equal(getattr(self, name), getattr(other, name))
                        for name in ("l", "n_f", "n_b", "n_r"))
                and np.array_equal(self.d, other.d, equal_nan=True))

    def row(self, k: int) -> DisruptionScore:
        """Row k as a DisruptionScore; needs the table's mode."""
        if self.mode is None:
            raise ValueError("the table records no partition mode")
        d = float(self.d[k])
        part = CiterPartition(n_f=int(self.n_f[k]), n_b=int(self.n_b[k]),
                              n_r=int(self.n_r[k]), l=int(self.l[k]), mode=self.mode)
        return DisruptionScore(paper_id=self.ids[k], partition=part,
                               d=None if np.isnan(d) else d)


def _score_from_counts(n_f: int, n_b: int, n_r: int) -> float | None:
    denom = n_f + n_b + n_r
    if denom == 0:
        return None
    return (n_f - n_b) / denom


def _validate_mode_and_thresholds(ls: Sequence[int], mode: str) -> list[int]:
    if mode not in MODES:
        raise ValueError(f"mode must be one of {MODES}, got {mode!r}")
    if not ls:
        raise ValueError("threshold list must be non-empty")
    cleaned = sorted({int(l) for l in ls})
    if cleaned[0] < 1:
        raise ValueError(f"thresholds must be >= 1, got {cleaned[0]}")
    return cleaned


def _focal_indices(graph: CitationGraph, ids: Sequence[str]) -> np.ndarray:
    idx = np.empty(len(ids), dtype=np.int64)
    for pos, paper_id in enumerate(ids):
        found = graph.index.get(paper_id)
        if found is None:
            raise KeyError(f"unknown focal paper {paper_id!r}")
        idx[pos] = found
    return idx


def _counts_for(graph: CitationGraph, focals: np.ndarray, ls: Sequence[int],
                mode: str, n_jobs: int = 1):
    ls_arr = np.asarray(ls, dtype=np.int64)
    overlap = mode == "overlap"
    args = (graph.fwd_indptr, graph.fwd_indices, graph.bwd_indptr,
            graph.bwd_indices, graph.in_deg)
    n_jobs = max(1, min(int(n_jobs), len(focals) or 1))
    if n_jobs == 1 or len(focals) < 2 * n_jobs:
        return partition_counts(*args, focals, ls_arr, overlap)
    chunks = np.array_split(focals, n_jobs)
    with ThreadPoolExecutor(max_workers=n_jobs) as pool:
        parts = list(pool.map(
            lambda chunk: partition_counts(*args, chunk, ls_arr, overlap),
            chunks,
        ))
    n_f = np.concatenate([p[0] for p in parts])
    n_b = np.concatenate([p[1] for p in parts])
    n_r = np.concatenate([p[2] for p in parts])
    return n_f, n_b, n_r


def partition_citers(graph: CitationGraph, focal: str, l: int = 1,
                     mode: str = "ref_indegree") -> CiterPartition:
    """Classify every other paper as F, B, or R-class relative to focal."""
    [l_clean] = _validate_mode_and_thresholds([l], mode)
    focals = _focal_indices(graph, [focal])
    n_f, n_b, n_r = _counts_for(graph, focals, [l_clean], mode)
    return CiterPartition(n_f=int(n_f[0, 0]), n_b=int(n_b[0, 0]),
                          n_r=int(n_r[0, 0]), l=l_clean, mode=mode)


def disruption_score(graph: CitationGraph, focal: str, l: int = 1,
                     mode: str = "ref_indegree") -> DisruptionScore:
    part = partition_citers(graph, focal, l=l, mode=mode)
    return DisruptionScore(paper_id=focal, partition=part,
                           d=_score_from_counts(*part.counts))


def disruption_batch(graph: CitationGraph, ids: Sequence[str],
                     ls: Sequence[int] = DEFAULT_THRESHOLDS,
                     mode: str = "ref_indegree",
                     n_jobs: int = 1) -> ScoreTable:
    """Score each id at each threshold, as a ScoreTable whose rows are
    ordered by input id, then ascending l (thresholds are deduplicated).

    One kernel pass counts every threshold (one sparse product per block
    of focals), and focal papers are processed in parallel when
    n_jobs > 1. The scores and the CiterPartition checks are applied to
    the count arrays as a whole; ``ScoreTable.row`` gives one row as a
    DisruptionScore."""
    ls_clean = _validate_mode_and_thresholds(ls, mode)
    focals = _focal_indices(graph, ids)
    n_f, n_b, n_r = (np.asarray(c, dtype=np.int64).reshape(-1)
                     for c in _counts_for(graph, focals, ls_clean, mode, n_jobs=n_jobs))
    if (n_f < 0).any() or (n_b < 0).any() or (n_r < 0).any():
        raise ValueError("partition counts must be >= 0")
    denom = n_f + n_b + n_r
    with np.errstate(divide="ignore", invalid="ignore"):
        d = np.where(denom > 0, (n_f - n_b) / denom, np.nan)
    return ScoreTable(
        ids=tuple(paper_id for paper_id in ids for _ in ls_clean),
        l=np.tile(np.asarray(ls_clean, dtype=np.int64), len(ids)),
        n_f=n_f, n_b=n_b, n_r=n_r, d=d, mode=mode,
    )


def format_score(d: float | None) -> str:
    """d with 6 decimals; NA when Undefined (None, or NaN in a table)."""
    return "NA" if d is None or d != d else f"{d:.6f}"


def write_scores(scores: ScoreTable, path: str | Path) -> None:
    """Write a ScoreTable as CSV with columns id, l, n_f, n_b, n_r, d:
    one row per table row, d with 6 decimals and NA where Undefined,
    with ``atomic_write``. read_scores parses it back."""
    d = [format_score(v) for v in scores.d.tolist()]
    with atomic_write(path) as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(SCORE_COLUMNS)
        writer.writerows(zip(scores.ids, scores.l.tolist(), scores.n_f.tolist(),
                             scores.n_b.tolist(), scores.n_r.tolist(), d))


_SCORE_DTYPE = np.dtype([("id", object), ("l", np.int64), ("n_f", np.int64),
                         ("n_b", np.int64), ("n_r", np.int64), ("d", np.float64)])


def _parse_d(text: str) -> float:
    return np.nan if text == "NA" else float(text)


def read_scores(path: str | Path) -> ScoreTable:
    """Parse a table written by write_scores: the header with the csv
    module, the body in one ``np.loadtxt`` pass."""
    with Path(path).open("r", encoding="utf-8", newline="") as fh:
        header = next(csv.reader([fh.readline()]), None)
        if header != list(SCORE_COLUMNS):
            raise ValueError(f"{path}: unexpected header {header}")
        # Skip blank lines up to the first row; loadtxt warns on a body
        # with no rows.
        body = fh.tell()
        while (line := fh.readline()) in ("\n", "\r\n"):
            body = fh.tell()
        table = np.zeros(0, dtype=_SCORE_DTYPE)
        if line:
            fh.seek(body)
            try:
                table = np.loadtxt(fh, dtype=_SCORE_DTYPE, delimiter=",", quotechar='"',
                                   comments=None, ndmin=1, converters={5: _parse_d})
            except ValueError as exc:
                fh.seek(body)
                raise ValueError(f"{path}: malformed row {_first_bad_row(fh, exc)}") from exc
    return ScoreTable(ids=tuple(table["id"].tolist()),
                      **{name: np.ascontiguousarray(table[name])
                         for name in ("l", "n_f", "n_b", "n_r", "d")})


def _first_bad_row(fh, exc: ValueError) -> list[str] | str:
    """The first row of a score file body that ``read_scores`` cannot
    take, found with the csv module; loadtxt's own message if none is."""
    for row in csv.reader(fh):
        if not row:
            continue
        if len(row) != len(SCORE_COLUMNS):
            return row
        try:
            [int(text) for text in row[1:5]]
            _parse_d(row[5])
        except ValueError:
            return row
    return f"({exc})"
