"""The counting kernel behind the citer partition.

``partition_counts`` scores a block of focals at every threshold with
one scipy.sparse product of a left factor (the focals' weighted
references) and the citer matrix.

Array contract: CSR adjacency as produced by ``graph.build_graph``.
``fwd_*`` rows are the citers of each node, ``bwd_*`` rows its
references, all int64 with sorted runs and no duplicate or self edges.
``focals`` may repeat and come in any order. ``ls`` must be ascending
thresholds >= 1. Returns (n_f, n_b, n_r) int64 arrays of shape
(len(focals), len(ls)).
"""

from __future__ import annotations

import numpy as np


# A focal's row of the product holds one cell per paper that cites the
# focal or one of its references. The cell value carries the citer flag
# in bit 62 and the reference counts in the 62 bits below it.
_FIELD_BITS = 62
_CITER_FLAG = 1 << _FIELD_BITS

# Upper bound on the (reference, citer) pairs one block of focals
# expands to. It bounds the product and its temporaries at a few tens of
# MB whatever the number of focals; a focal whose own pairs exceed it
# gets a block to itself.
BLOCK_PAIRS = 1 << 17


def _gather_rows(indptr, indices, rows):
    """The CSR rows ``rows`` (repeats allowed) as a new (indptr, indices)."""
    starts = indptr[rows]
    lengths = indptr[rows + 1] - starts
    sub_indptr = np.zeros(rows.shape[0] + 1, dtype=np.int64)
    np.cumsum(lengths, out=sub_indptr[1:])
    pos = np.arange(sub_indptr[-1]) + np.repeat(starts - sub_indptr[:-1], lengths)
    return sub_indptr, indices[pos]


def _threshold_words(in_deg, ls, overlap_mode, bits):
    """Per-reference weights, one set per packed word, as a list of
    (first threshold, last threshold + 1, weights, bin edges).

    A cell's reference part is the sum of the weights of the references
    the focal shares with that paper. Overlap mode weighs each reference
    1, so the part is the shared-reference count, binned against ``ls``.
    ``ref_indegree`` mode packs one ``bits``-wide count per threshold:
    field ``d`` counts the shared references with in-degree >= ls[d].
    As the thresholds ascend, the non-zero fields form a prefix, so the
    number of thresholds a cell reaches is the number of field offsets
    ``1 << (d * bits)`` its part reaches.
    """
    n_l = ls.shape[0]
    if overlap_mode:
        return [(0, n_l, np.ones(in_deg.shape[0], dtype=np.int64), ls)]
    reached = np.searchsorted(ls, in_deg, side="right")
    per_word = _FIELD_BITS // bits
    words = []
    for lo in range(0, n_l, per_word):
        hi = min(lo + per_word, n_l)
        offsets = np.left_shift(1, np.arange(hi - lo, dtype=np.int64) * bits)
        prefix = np.concatenate(([0], np.cumsum(offsets)))
        weights = prefix[np.clip(reached - lo, 0, hi - lo)]
        words.append((lo, hi, weights, offsets))
    return words


def partition_counts(fwd_indptr, fwd_indices, bwd_indptr, bwd_indices,
                     in_deg, focals, ls, overlap_mode):
    """One sparse product per block of focals (and per packed word of
    thresholds) scores every threshold at once.

    Row i of the left factor holds focal i's references, weighted as in
    ``_threshold_words``, plus the focal itself with weight
    ``_CITER_FLAG``. Times the citer matrix, cell (i, p) sums the
    weights of the references p shares with focal i, plus the flag if p
    cites focal i. The focal's own column is dropped; every other cell
    is one paper of the F, B or R class, binned by the threshold count
    its reference part reaches.
    """
    n = fwd_indptr.shape[0] - 1
    n_focal = focals.shape[0]
    n_l = ls.shape[0]
    citer_deg = np.diff(fwd_indptr)
    ref_deg = np.diff(bwd_indptr)
    out_nb = np.zeros((n_focal, n_l), dtype=np.int64)
    out_nr = np.zeros((n_focal, n_l), dtype=np.int64)
    n_citers = citer_deg[focals]
    if n_focal == 0:
        return n_citers[:, None] - out_nb, out_nb, out_nr

    idx = np.int32 if max(n, fwd_indices.shape[0]) < np.iinfo(np.int32).max else np.int64
    bits = max(int(ref_deg[focals].max()).bit_length(), 1)
    words = _threshold_words(in_deg, ls, overlap_mode, bits)

    # Left-factor rows of every focal: its references, then the focal.
    refs_ptr, refs = _gather_rows(bwd_indptr, bwd_indices, focals)
    row_ptr = refs_ptr + np.arange(n_focal + 1)
    is_ref = np.ones(row_ptr[-1], dtype=bool)
    is_ref[row_ptr[1:] - 1] = False
    cols = np.empty(row_ptr[-1], dtype=idx)
    cols[is_ref] = refs
    cols[~is_ref] = focals
    cum_pairs = np.cumsum(citer_deg[cols])[row_ptr[1:] - 1]
    cuts = np.searchsorted(cum_pairs, np.arange(BLOCK_PAIRS, cum_pairs[-1], BLOCK_PAIRS),
                           side="right")
    bounds = np.unique(np.concatenate(([0], cuts, [n_focal])))

    # Imported where it is used: it adds about 0.2 s to the start of
    # every process that imports this module.
    import scipy.sparse as sp

    citer_matrix = sp.csr_array(
        (np.ones(fwd_indices.shape[0], dtype=np.int64),
         fwd_indices.astype(idx, copy=False), fwd_indptr.astype(idx, copy=False)),
        shape=(n, n))

    for start, stop in zip(bounds[:-1], bounds[1:]):
        block = focals[start:stop]
        size = stop - start
        lo_pos, hi_pos = row_ptr[start], row_ptr[stop]
        block_cols = cols[lo_pos:hi_pos]
        block_ptr = (row_ptr[start:stop + 1] - lo_pos).astype(idx)
        for lo, hi, weights, edges in words:
            vals = np.where(is_ref[lo_pos:hi_pos], weights[block_cols], _CITER_FLAG)
            product = sp.csr_array((vals, block_cols, block_ptr),
                                   shape=(size, n)) @ citer_matrix
            rows = np.repeat(np.arange(size), np.diff(product.indptr))
            keep = product.indices != block[rows]
            cell = product.data[keep]
            is_citer = cell >= _CITER_FLAG
            reached = np.searchsorted(edges, cell & (_CITER_FLAG - 1), side="right")
            n_bins = hi - lo + 1
            hist = np.bincount((rows[keep] * 2 + is_citer) * n_bins + reached,
                               minlength=size * 2 * n_bins).reshape(size, 2, n_bins)
            # at_least[:, c, j]: cells of class c (1: citers of the focal)
            # that reach at least j of this word's thresholds
            at_least = np.cumsum(hist[:, :, ::-1], axis=2)[:, :, ::-1]
            out_nb[start:stop, lo:hi] = at_least[:, 1, 1:]
            if overlap_mode:
                out_nr[start:stop, lo:hi] = at_least[:, 0, :1]
            else:
                out_nr[start:stop, lo:hi] = at_least[:, 0, 1:]
    return n_citers[:, None] - out_nb, out_nb, out_nr

