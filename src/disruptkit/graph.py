"""In-corpus citation network with compressed sparse adjacency.

Every edge runs from a referenced paper to the paper citing it. Only
references that resolve to another record in the same corpus become
edges; references to anything outside the corpus are ignored.

Nodes are the corpus rows, whose ids are sorted lexicographically, so
node i is corpus row i. All adjacency arrays are expressed in those
indices, and each neighbor run is itself sorted, so two corpora with
identical records always produce identical arrays. The edges come from
the corpus's reference codes as arrays, and both CSR directions from one
sort of integer keys each.

The graph is the network only: a node's record fields stay in the
corpus, row i of which is node i. ``save_graph`` writes the CSR arrays
as plain ``.npy`` files, in the same layout as the corpus files, and
``load_graph`` reads them back with the node ids from ``corpus_ids.npy``.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import repeat
from pathlib import Path
from typing import Sequence

import numpy as np

from .corpus import corpus_files, load_array, load_columns, save_columns


@dataclass(frozen=True)
class CitationGraph:
    """CSR adjacency in both directions.

    ``fwd_*`` rows list the citers of a node (edges leaving a referenced
    paper); ``bwd_*`` rows list the references of a node. ``in_deg[i]``
    is the number of citers of node i, ``out_deg[i]`` the number of its
    in-corpus references.
    """

    ids: tuple[str, ...]
    index: dict[str, int]
    fwd_indptr: np.ndarray
    fwd_indices: np.ndarray
    bwd_indptr: np.ndarray
    bwd_indices: np.ndarray
    in_deg: np.ndarray
    out_deg: np.ndarray

    @property
    def n_nodes(self) -> int:
        return len(self.ids)

    @property
    def n_edges(self) -> int:
        return int(self.fwd_indices.shape[0])

    def citer_row(self, idx: int) -> np.ndarray:
        return self.fwd_indices[self.fwd_indptr[idx]:self.fwd_indptr[idx + 1]]

    def reference_row(self, idx: int) -> np.ndarray:
        return self.bwd_indices[self.bwd_indptr[idx]:self.bwd_indptr[idx + 1]]


def _csr_from_pairs(n: int, src: np.ndarray, dst: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """CSR with rows keyed by src and sorted column runs, from one sort of
    src * n + dst (distinct for distinct pairs)."""
    indptr = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(np.bincount(src, minlength=n), out=indptr[1:])
    keys = src * n + dst
    keys.sort()
    return indptr, keys - np.repeat(np.arange(n, dtype=np.int64) * n, np.diff(indptr))


def from_edge_arrays(ids: tuple[str, ...] | list[str], src: np.ndarray, dst: np.ndarray) -> CitationGraph:
    """Build a graph from parallel index arrays (src = referenced paper,
    dst = citing paper); assumes no duplicate or self edges."""
    ids = tuple(ids)
    n = len(ids)
    src = np.asarray(src, dtype=np.int64)
    dst = np.asarray(dst, dtype=np.int64)
    if src.shape != dst.shape:
        raise ValueError("src and dst must have identical shapes")
    if src.size and (src.min() < 0 or src.max() >= n or dst.min() < 0 or dst.max() >= n):
        raise ValueError("edge endpoints out of range")
    if np.any(src == dst):
        raise ValueError("self-citation edge")
    fwd_indptr, fwd_indices = _csr_from_pairs(n, src, dst)
    bwd_indptr, bwd_indices = _csr_from_pairs(n, dst, src)
    return _from_csr(ids, fwd_indptr, fwd_indices, bwd_indptr, bwd_indices)


def _from_csr(ids: tuple[str, ...], fwd_indptr: np.ndarray, fwd_indices: np.ndarray,
              bwd_indptr: np.ndarray, bwd_indices: np.ndarray) -> CitationGraph:
    return CitationGraph(
        ids=ids,
        index={pid: i for i, pid in enumerate(ids)},
        fwd_indptr=fwd_indptr,
        fwd_indices=fwd_indices,
        bwd_indptr=bwd_indptr,
        bwd_indices=bwd_indices,
        in_deg=np.diff(fwd_indptr).astype(np.int64),
        out_deg=np.diff(bwd_indptr).astype(np.int64),
    )


def build_graph(ids: Sequence[str], ref_offsets: np.ndarray, ref_codes: np.ndarray,
                ref_strings: Sequence[str]) -> CitationGraph:
    """Resolve the corpus's references against its ids and assemble the
    citation network from those four Corpus columns: node i is corpus
    row i. Each distinct reference string is looked up once, and the
    rows' reference codes then map to node indices (-1 outside the
    corpus) by one array lookup."""
    ids = tuple(ids)
    index = dict(zip(ids, range(len(ids))))
    node_of = np.fromiter(map(index.get, ref_strings, repeat(-1)),
                          dtype=np.int64, count=len(ref_strings))
    src = node_of[ref_codes]
    dst = np.repeat(np.arange(len(ids), dtype=np.int64), np.diff(ref_offsets))
    inside = src >= 0
    return from_edge_arrays(ids, src[inside], dst[inside])


def degree_stats(graph: CitationGraph) -> dict:
    """Summary counts used by reports and sanity checks."""
    n = graph.n_nodes
    return {
        "n_nodes": n,
        "n_edges": graph.n_edges,
        "max_in_deg": int(graph.in_deg.max()) if n else 0,
        "max_out_deg": int(graph.out_deg.max()) if n else 0,
        "mean_in_deg": float(graph.in_deg.mean()) if n else 0.0,
        "mean_out_deg": float(graph.out_deg.mean()) if n else 0.0,
    }


# The arrays save_graph writes, in the layout of corpus.save_columns.
GRAPH_FILES = ("graph_fwd_indptr.npy", "graph_fwd_indices.npy",
               "graph_bwd_indptr.npy", "graph_bwd_indices.npy")

# Every file load_graph reads.
LOAD_GRAPH_FILES = (*corpus_files(("ids",)), *GRAPH_FILES)


def save_graph(graph: CitationGraph, out_dir: str | Path) -> list[Path]:
    """Write the graph's CSR arrays as the GRAPH_FILES in out_dir and
    return their paths. The node ids are the corpus's (see load_graph)."""
    return save_columns(out_dir, {
        "graph_fwd_indptr": graph.fwd_indptr, "graph_fwd_indices": graph.fwd_indices,
        "graph_bwd_indptr": graph.bwd_indptr, "graph_bwd_indices": graph.bwd_indices,
    })


def load_graph(out_dir: str | Path) -> CitationGraph:
    """The graph save_graph wrote in out_dir, on the ids in corpus_ids.npy;
    ValueError names out_dir if the arrays disagree with them or each other."""
    out_dir = Path(out_dir)
    ids = load_columns(out_dir, ("ids",))["ids"]
    fwd_indptr, fwd_indices, bwd_indptr, bwd_indices = (
        load_array(out_dir, f"graph_{name}")
        for name in ("fwd_indptr", "fwd_indices", "bwd_indptr", "bwd_indices"))
    n = len(ids)
    if not (fwd_indptr.shape == bwd_indptr.shape == (n + 1,)
            and fwd_indptr[-1] == len(fwd_indices) == bwd_indptr[-1] == len(bwd_indices)):
        raise ValueError(f"{out_dir}: graph files disagree with the {n} ids of "
                         "corpus_ids.npy or with each other")
    return _from_csr(ids, fwd_indptr, fwd_indices, bwd_indptr, bwd_indices)
