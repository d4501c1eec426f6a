"""Reference implementation of the citer partition for testing.

Deliberately naive: plain dicts of sets, full scans over every node,
and no reuse of the CSR machinery in the fast path. Used to validate
``disruption_batch`` and the kernel; never called by the pipeline.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Sequence

from .disruption import MODES


@dataclass(frozen=True)
class CiterPartition:
    """The oracle's result: the F, B and R-class sizes for one focal
    paper at one threshold and mode."""

    n_f: int
    n_b: int
    n_r: int

    @property
    def counts(self) -> tuple[int, int, int]:
        return (self.n_f, self.n_b, self.n_r)


def brute_force_partition(
    edge_list: Sequence[tuple[str, str]],
    focal: str,
    l: int = 1,
    mode: str = "ref_indegree",
    nodes: Iterable[str] | None = None,
) -> CiterPartition:
    """Partition every paper relative to the focal paper by direct scans.

    ``edge_list`` holds (referenced_id, citing_id) pairs. ``nodes`` may
    add isolated nodes that appear in no edge; they can only land in no
    class, but their presence legitimizes the focal id.
    """
    if l < 1:
        raise ValueError(f"threshold must be >= 1, got {l}")
    if mode not in MODES:
        raise ValueError(f"mode must be one of {MODES}, got {mode!r}")

    all_nodes: set[str] = set()
    cites: dict[str, set[str]] = {}
    for referenced, citing in edge_list:
        all_nodes.add(referenced)
        all_nodes.add(citing)
        cites.setdefault(citing, set()).add(referenced)
    if nodes is not None:
        all_nodes.update(nodes)
    if focal not in all_nodes:
        raise KeyError(f"unknown focal paper {focal!r}")

    focal_refs = set(cites.get(focal, set()))

    n_f = n_b = n_r = 0
    if mode == "ref_indegree":
        qualifying: set[str] = set()
        for ref in focal_refs:
            citations = 0
            for paper in all_nodes:
                if ref in cites.get(paper, set()):
                    citations += 1
            if citations >= l:
                qualifying.add(ref)
        for paper in all_nodes:
            if paper == focal:
                continue
            paper_refs = cites.get(paper, set())
            cites_focal = focal in paper_refs
            cites_qualifying = bool(paper_refs & qualifying)
            if cites_focal and cites_qualifying:
                n_b += 1
            elif cites_focal:
                n_f += 1
            elif cites_qualifying:
                n_r += 1
    else:
        for paper in all_nodes:
            if paper == focal:
                continue
            paper_refs = cites.get(paper, set())
            cites_focal = focal in paper_refs
            shared = len(paper_refs & focal_refs)
            if cites_focal and shared >= l:
                n_b += 1
            elif cites_focal:
                n_f += 1
            elif shared >= 1:
                n_r += 1

    return CiterPartition(n_f=n_f, n_b=n_b, n_r=n_r)
