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

``save_graph`` writes the network and the record fields the graph
carries for later stages as plain ``.npy`` arrays, and ``load_graph``
reads them back, so only the stage that builds the graph has to parse
the corpus.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from itertools import repeat
from pathlib import Path
from typing import Iterable

import numpy as np

from .corpus import Corpus, atomic_write


@dataclass(frozen=True)
class CitationGraph:
    """CSR adjacency in both directions.

    ``fwd_*`` rows list the citers of a node (edges leaving a referenced
    paper); ``bwd_*`` rows list the references of a node. ``in_deg[i]``
    is the number of citers of node i, ``out_deg[i]`` the number of its
    in-corpus references. ``year``, ``n_authors``, ``journal`` and
    ``gold_label`` are record fields in node order (no gold label: None).
    """

    ids: tuple[str, ...]
    index: dict[str, int]
    fwd_indptr: np.ndarray
    fwd_indices: np.ndarray
    bwd_indptr: np.ndarray
    bwd_indices: np.ndarray
    in_deg: np.ndarray
    out_deg: np.ndarray
    year: np.ndarray
    n_authors: np.ndarray
    journal: tuple[str, ...]
    gold_label: tuple[str | None, ...]

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
    dst = citing paper) with no records behind it: every node gets year
    0, n_authors 1, journal "" and no gold label. Used by the synthetic
    generator and benchmarks; assumes no duplicate or self edges."""
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
    return _from_csr(ids, fwd_indptr, fwd_indices, bwd_indptr, bwd_indices,
                     year=np.zeros(n, dtype=np.int64), n_authors=np.ones(n, dtype=np.int64),
                     journal=("",) * n, gold_label=(None,) * n)


def _from_csr(ids: tuple[str, ...], fwd_indptr: np.ndarray, fwd_indices: np.ndarray,
              bwd_indptr: np.ndarray, bwd_indices: np.ndarray, **columns) -> CitationGraph:
    return CitationGraph(
        ids=ids,
        index={pid: i for i, pid in enumerate(ids)},
        fwd_indptr=fwd_indptr,
        fwd_indices=fwd_indices,
        bwd_indptr=bwd_indptr,
        bwd_indices=bwd_indices,
        in_deg=np.diff(fwd_indptr).astype(np.int64),
        out_deg=np.diff(bwd_indptr).astype(np.int64),
        **columns,
    )


def build_graph(corpus: Corpus) -> CitationGraph:
    """Resolve the corpus's references against its ids and assemble the
    citation network: node i is corpus row i, and its year, n_authors,
    journal and gold_label are that row's. Each distinct reference
    string is looked up once, and the rows' reference codes then map to
    node indices (-1 outside the corpus) by one array lookup."""
    ids = corpus.ids
    index = dict(zip(ids, range(len(ids))))
    node_of = np.fromiter(map(index.get, corpus.ref_strings, repeat(-1)),
                          dtype=np.int64, count=len(corpus.ref_strings))
    src = node_of[corpus.ref_codes]
    dst = np.repeat(np.arange(len(ids), dtype=np.int64), np.diff(corpus.ref_offsets))
    inside = src >= 0
    return replace(from_edge_arrays(ids, src[inside], dst[inside]),
                   year=corpus.year, n_authors=corpus.n_authors,
                   journal=corpus.journal, gold_label=corpus.gold_label)


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


# The arrays save_graph writes, one np.save file each. A string column
# is stored as its UTF-8 bytes plus int64 offsets: numpy's own str
# dtype drops trailing NULs, and object arrays would need pickle.
GRAPH_FILES = (
    "graph_ids.npy", "graph_ids_offsets.npy",
    "graph_fwd_indptr.npy", "graph_fwd_indices.npy",
    "graph_bwd_indptr.npy", "graph_bwd_indices.npy",
    "graph_year.npy", "graph_n_authors.npy",
    "graph_journal.npy", "graph_journal_offsets.npy",
    "graph_gold_label.npy", "graph_gold_label_offsets.npy",
)


def _encode_strings(strings: Iterable[str]) -> tuple[np.ndarray, np.ndarray]:
    encoded = [s.encode("utf-8") for s in strings]
    lengths = np.fromiter(map(len, encoded), dtype=np.int64, count=len(encoded))
    offsets = np.concatenate(([0], np.cumsum(lengths)))
    return np.frombuffer(b"".join(encoded), dtype=np.uint8), offsets


def _decode_strings(data: np.ndarray, offsets: np.ndarray) -> tuple[str, ...]:
    blob = data.tobytes()
    bounds = offsets.tolist()
    return tuple(blob[a:b].decode("utf-8") for a, b in zip(bounds, bounds[1:]))


def save_graph(graph: CitationGraph, out_dir: str | Path) -> list[Path]:
    """Write the graph, node columns included, as the GRAPH_FILES arrays
    in out_dir, each with ``atomic_write``, and return their paths.
    ``np.save`` output depends only on the array, so equal graphs give
    byte-identical files."""
    ids, ids_offsets = _encode_strings(graph.ids)
    journal, journal_offsets = _encode_strings(graph.journal)
    gold, gold_offsets = _encode_strings(g or "" for g in graph.gold_label)
    arrays = {
        "graph_ids.npy": ids, "graph_ids_offsets.npy": ids_offsets,
        "graph_fwd_indptr.npy": graph.fwd_indptr,
        "graph_fwd_indices.npy": graph.fwd_indices,
        "graph_bwd_indptr.npy": graph.bwd_indptr,
        "graph_bwd_indices.npy": graph.bwd_indices,
        "graph_year.npy": graph.year, "graph_n_authors.npy": graph.n_authors,
        "graph_journal.npy": journal, "graph_journal_offsets.npy": journal_offsets,
        "graph_gold_label.npy": gold, "graph_gold_label_offsets.npy": gold_offsets,
    }
    paths = [Path(out_dir) / name for name in GRAPH_FILES]
    for path in paths:
        # np.save given a file name would append ".npy" to it
        with atomic_write(path, binary=True) as fh:
            np.save(fh, arrays[path.name], allow_pickle=False)
    return paths


def load_graph(out_dir: str | Path) -> CitationGraph:
    """Read back what save_graph wrote in out_dir."""
    out_dir = Path(out_dir)
    arrays = {name: np.load(out_dir / name, allow_pickle=False) for name in GRAPH_FILES}

    def strings(column: str) -> tuple[str, ...]:
        return _decode_strings(arrays[f"graph_{column}.npy"],
                               arrays[f"graph_{column}_offsets.npy"])

    ids, journal, gold = strings("ids"), strings("journal"), strings("gold_label")
    fwd_indptr, fwd_indices = arrays["graph_fwd_indptr.npy"], arrays["graph_fwd_indices.npy"]
    bwd_indptr, bwd_indices = arrays["graph_bwd_indptr.npy"], arrays["graph_bwd_indices.npy"]
    year, n_authors = arrays["graph_year.npy"], arrays["graph_n_authors.npy"]
    n = len(ids)
    if not (fwd_indptr.shape == bwd_indptr.shape == (n + 1,)
            and fwd_indptr[-1] == len(fwd_indices) == bwd_indptr[-1] == len(bwd_indices)
            and year.shape == n_authors.shape == (n,)
            and len(journal) == len(gold) == n):
        raise ValueError(f"{out_dir}: graph files disagree on the node or edge count")
    return _from_csr(ids, fwd_indptr, fwd_indices, bwd_indptr, bwd_indices,
                     year=year, n_authors=n_authors, journal=journal,
                     gold_label=tuple(g or None for g in gold))
