"""Disruption scores for focal papers in a citation network.

For a focal paper i, every other paper falls into at most one class:
F (cites i but none of i's qualifying references), B (cites i and at
least one qualifying reference), or the R-class (cites a qualifying
reference but not i). The score is

    d = (n_f - n_b) / (n_f + n_b + n_r)

and is Undefined when all three counts are zero: NaN in a ScoreTable
and NA in disruption.csv, never coerced to 0.

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
import os
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


@dataclass(frozen=True, eq=False)
class ScoreTable:
    """Scores as a paper × threshold grid: ``ids`` once per paper, ``ls``
    ascending, and counts and ``d`` (NaN if Undefined) as (paper, threshold) arrays."""

    ids: tuple[str, ...]
    ls: np.ndarray
    n_f: np.ndarray
    n_b: np.ndarray
    n_r: np.ndarray
    d: np.ndarray

    def __len__(self) -> int:
        return len(self.ids)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, ScoreTable):
            return NotImplemented
        return (self.ids == other.ids
                and all(np.array_equal(getattr(self, name), getattr(other, name))
                        for name in ("ls", "n_f", "n_b", "n_r"))
                and np.array_equal(self.d, other.d, equal_nan=True))


def _validate_scoring(ls: Sequence[int], mode: str, n_jobs: int) -> list[int]:
    """The thresholds deduplicated and ascending, once mode, thresholds
    and n_jobs are checked."""
    if mode not in MODES:
        raise ValueError(f"mode must be one of {MODES}, got {mode!r}")
    if not ls:
        raise ValueError("threshold list must be non-empty")
    cleaned = sorted({int(l) for l in ls})
    if cleaned[0] < 1:
        raise ValueError(f"thresholds must be >= 1, got {cleaned[0]}")
    if n_jobs < 1:
        raise ValueError(f"n_jobs must be >= 1, got {n_jobs}")
    return cleaned


def _focal_indices(graph: CitationGraph, ids: Sequence[str]) -> np.ndarray:
    idx = np.empty(len(ids), dtype=np.int64)
    for pos, paper_id in enumerate(ids):
        found = graph.index.get(paper_id)
        if found is None:
            raise KeyError(f"unknown focal paper {paper_id!r}")
        idx[pos] = found
    return idx


def disruption_batch(graph: CitationGraph, ids: Sequence[str],
                     ls: Sequence[int] = DEFAULT_THRESHOLDS,
                     mode: str = "ref_indegree",
                     n_jobs: int = 1) -> ScoreTable:
    """Score each id at each threshold, as a ScoreTable with one row per
    input id and one column per threshold (deduplicated, ascending).

    One kernel pass counts every threshold (one sparse product per block
    of focals), on min(n_jobs, CPU count) threads at once. The counts
    are checked and scored as whole arrays."""
    ls_clean = _validate_scoring(ls, mode, n_jobs)
    focals = _focal_indices(graph, ids)
    args = (graph.fwd_indptr, graph.fwd_indices, graph.bwd_indptr,
            graph.bwd_indices, graph.in_deg)
    ls_arr = np.asarray(ls_clean, dtype=np.int64)
    overlap = mode == "overlap"
    # each thread builds its own citer matrix: more threads than CPUs add only memory
    n_jobs = min(n_jobs, os.cpu_count() or 1)
    if n_jobs == 1 or len(focals) < 2 * n_jobs:
        counts = partition_counts(*args, focals, ls_arr, overlap)
    else:
        with ThreadPoolExecutor(max_workers=n_jobs) as pool:
            parts = list(pool.map(
                lambda chunk: partition_counts(*args, chunk, ls_arr, overlap),
                np.array_split(focals, n_jobs),
            ))
        counts = [np.concatenate(column) for column in zip(*parts)]
    n_f, n_b, n_r = counts
    if (n_f < 0).any() or (n_b < 0).any() or (n_r < 0).any():
        raise ValueError("partition counts must be >= 0")
    denom = n_f + n_b + n_r
    with np.errstate(divide="ignore", invalid="ignore"):
        d = np.where(denom > 0, (n_f - n_b) / denom, np.nan)
    return ScoreTable(ids=tuple(ids), ls=ls_arr, n_f=n_f, n_b=n_b, n_r=n_r, d=d)


def format_score(d: float) -> str:
    """d with 6 decimals; NA when Undefined (NaN)."""
    return "NA" if d != d else f"{d:.6f}"


def write_scores(scores: ScoreTable, path: str | Path) -> None:
    """Write a ScoreTable as CSV with columns id, l, n_f, n_b, n_r, d:
    one row per paper and threshold, paper by paper and each paper's
    thresholds ascending, d with 6 decimals and NA where Undefined, with
    ``atomic_write``. read_scores parses it back."""
    ids = np.repeat(np.array(scores.ids, dtype=object), len(scores.ls)).tolist()
    counts = (c.ravel().tolist() for c in (scores.n_f, scores.n_b, scores.n_r))
    d = [format_score(v) for v in scores.d.ravel().tolist()]
    with atomic_write(path) as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(SCORE_COLUMNS)
        writer.writerows(zip(ids, scores.ls.tolist() * len(scores.ids), *counts, d))


_SCORE_DTYPE = np.dtype([("id", object), ("l", np.int64), ("n_f", np.int64),
                         ("n_b", np.int64), ("n_r", np.int64), ("d", np.float64)])


def _parse_d(text: str) -> float:
    return np.nan if text == "NA" else float(text)


def read_scores(path: str | Path) -> ScoreTable:
    """Parse a table written by write_scores: the header with the csv
    module, the body in one ``np.loadtxt`` pass, then checked to be a grid."""
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
    ids, l, n = table["id"], table["l"], len(table)
    # Each id's block of rows repeats the first id's thresholds, the
    # ascending run that opens the body; a short last block is out of place.
    n_l = int(np.append(np.flatnonzero(np.diff(l) <= 0), n - 1)[0]) + 1
    first = np.arange(n) // (n_l or 1) * n_l
    bad = np.flatnonzero((l != l[np.arange(n) - first]) | (ids != ids[first]) | (first + n_l > n))
    if bad.size:
        raise ValueError(f"{path}: the row of {ids[bad[0]]!r} at l = {l[bad[0]]} is out of "
                         f"place; each id needs a row at each of l = {l[:n_l].tolist()}, in order")
    return ScoreTable(ids=tuple(ids[::n_l or 1].tolist()), ls=np.ascontiguousarray(l[:n_l]),
                      **{name: np.ascontiguousarray(table[name]).reshape(n // (n_l or 1), n_l)
                         for name in ("n_f", "n_b", "n_r", "d")})


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
