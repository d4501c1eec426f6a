import csv
import dataclasses
import io
import os
import re
import tempfile
import warnings
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from disruptkit import _kernels, disruption
from disruptkit.disruption import (
    ScoreTable,
    disruption_batch,
    format_score,
    read_scores,
    write_scores,
)
from disruptkit.graph import from_edge_arrays
from disruptkit.oracle import brute_force_partition
from disruptkit.synth import synth_graph

from netgen import graph_from_pairs, random_digraph

THRESHOLDS = (1, 2, 3, 5)


def small_graph(pairs, extra_nodes=()):
    nodes = sorted({n for pair in pairs for n in pair} | set(extra_nodes))
    return graph_from_pairs(tuple(nodes), pairs)


def counts(scores, k=0, j=0):
    """Paper k's (n_f, n_b, n_r) at threshold j."""
    return (int(scores.n_f[k, j]), int(scores.n_b[k, j]), int(scores.n_r[k, j]))


# The two hand-checkable networks: in the first, the focal paper is
# cited by three papers that ignore its reference and the reference
# picks up one outside citation; in the second, every citer of the
# focal paper also cites its reference.
EXAMPLE_HIGH = [
    ("r1", "i"),
    ("i", "p1"), ("i", "p2"), ("i", "p3"),
    ("r1", "p4"),
]
EXAMPLE_LOW = [
    ("r1", "i"),
    ("i", "p1"), ("r1", "p1"),
    ("i", "p2"), ("r1", "p2"),
    ("i", "p3"), ("r1", "p3"),
    ("i", "p4"), ("r1", "p4"),
]
# c cites the focal and one of its two references; at l = 2 the
# reference qualifies by citation count (cited by i and c) but a single
# shared reference is below the overlap threshold.
MODES_DIFFER = [("r1", "i"), ("r2", "i"), ("i", "c"), ("r1", "c")]


class TestWorkedExamples:
    def test_high_disruption_network(self):
        scores = disruption_batch(small_graph(EXAMPLE_HIGH), ["i"], ls=(1,))
        assert counts(scores) == (3, 0, 1)
        assert scores.d.tolist() == [[0.75]]

    def test_low_disruption_network(self):
        scores = disruption_batch(small_graph(EXAMPLE_LOW), ["i"], ls=(1,))
        assert counts(scores) == (0, 4, 0)
        assert scores.d.tolist() == [[-1.0]]


class TestPartitionValidation:
    def test_rejects_threshold_below_one(self):
        with pytest.raises(ValueError, match="thresholds must be >= 1, got 0"):
            disruption_batch(small_graph(EXAMPLE_HIGH), ["i"], ls=(0,))

    def test_rejects_unknown_mode(self):
        with pytest.raises(ValueError, match="mode"):
            disruption_batch(small_graph(EXAMPLE_HIGH), ["i"], ls=(1,), mode="fancy")

    def test_unknown_focal(self):
        with pytest.raises(KeyError, match="ghost"):
            disruption_batch(small_graph(EXAMPLE_HIGH), ["ghost"], ls=(1,))

    def test_batch_checks_the_whole_table(self, monkeypatch):
        graph = small_graph(EXAMPLE_HIGH)
        with pytest.raises(ValueError, match=">= 1"):
            disruption_batch(graph, ["i"], ls=(0, 1))
        with pytest.raises(ValueError, match="mode"):
            disruption_batch(graph, ["i"], mode="fancy")
        for n_jobs in (0, -1):
            with pytest.raises(ValueError, match=f"n_jobs must be >= 1, got {n_jobs}"):
                disruption_batch(graph, ["i", "p1"], n_jobs=n_jobs)

        def negative(*args):
            counts = np.zeros((2, 1), dtype=np.int64)
            counts[1, 0] = -1
            return counts, counts.copy(), counts.copy()

        monkeypatch.setattr(disruption, "partition_counts", negative)
        with pytest.raises(ValueError, match=">= 0"):
            disruption_batch(graph, ["i", "p1"], ls=(1,))


class TestScoreSemantics:
    def test_isolated_focal_is_undefined_not_zero(self):
        graph = small_graph([("a", "b")], extra_nodes=["lone"])
        scores = disruption_batch(graph, ["lone"], ls=(1,))
        assert np.isnan(scores.d[0, 0])
        assert counts(scores) == (0, 0, 0)

    def test_zero_score_is_defined(self):
        # one paper cites the focal's reference but not the focal itself
        graph = small_graph([("r", "i"), ("r", "x")])
        scores = disruption_batch(graph, ["i"], ls=(1,))
        assert counts(scores) == (0, 0, 1)
        assert scores.d.tolist() == [[0.0]]

    def test_pure_forward_citations(self):
        graph = small_graph([("i", "p1"), ("i", "p2")])
        assert disruption_batch(graph, ["i"], ls=(1,)).d.tolist() == [[1.0]]

    def test_modes_differ_on_shared_reference_count(self):
        graph = small_graph(MODES_DIFFER)
        by_indegree = disruption_batch(graph, ["i"], ls=(2,), mode="ref_indegree")
        by_overlap = disruption_batch(graph, ["i"], ls=(2,), mode="overlap")
        assert counts(by_indegree)[:2] == (0, 1)
        assert counts(by_overlap)[:2] == (1, 0)

    def test_threshold_prunes_weak_references(self):
        # r1 is cited by the focal and by p1, so its citation count is 2:
        # it still qualifies at l = 2 (the focal's own citation counts)
        # and only drops out at l = 3, moving p1 from B to F.
        pairs = [("r1", "i"), ("i", "p1"), ("r1", "p1")]
        scores = disruption_batch(small_graph(pairs), ["i"], ls=(1, 2, 3))
        assert [counts(scores, 0, j) for j in range(3)] == [(0, 1, 0), (0, 1, 0), (1, 0, 0)]


class TestAgainstBruteForce:
    def sweep(self, mode):
        rng = np.random.default_rng(20240816)
        for _ in range(25):
            n = int(rng.integers(5, 50))
            p = float(rng.uniform(0.02, 0.3))
            ids, pairs = random_digraph(rng, n, p)
            graph = graph_from_pairs(ids, pairs)
            scores = disruption_batch(graph, list(ids), ls=THRESHOLDS, mode=mode)
            by_key = {(focal, l): counts(scores, k, j) for k, focal in enumerate(scores.ids)
                      for j, l in enumerate(scores.ls.tolist())}
            for focal in ids:
                for l in THRESHOLDS:
                    expected = brute_force_partition(pairs, focal, l=l,
                                                     mode=mode, nodes=ids)
                    got = by_key[(focal, l)]
                    assert got == expected.counts, (
                        f"{mode} l={l} focal={focal}: "
                        f"{got} != {expected.counts}"
                    )

    def test_ref_indegree_matches_oracle(self):
        self.sweep("ref_indegree")

    def test_overlap_matches_oracle(self):
        self.sweep("overlap")


@pytest.fixture(scope="module")
def sweep_graphs():
    rng = np.random.default_rng(7)
    out = []
    for _ in range(10):
        n = int(rng.integers(10, 60))
        ids, pairs = random_digraph(rng, n, float(rng.uniform(0.05, 0.25)))
        out.append((ids, graph_from_pairs(ids, pairs)))
    return out


class TestInvariants:
    def test_bounds_and_citer_conservation(self, sweep_graphs):
        for mode in ("ref_indegree", "overlap"):
            for ids, graph in sweep_graphs:
                scores = disruption_batch(graph, list(ids), ls=THRESHOLDS, mode=mode)
                idx = np.array([graph.index[pid] for pid in scores.ids], dtype=np.int64)
                # F and B exactly split the focal paper's citers
                assert (scores.n_f + scores.n_b == graph.in_deg[idx, None]).all()
                undefined = np.isnan(scores.d)
                assert (np.abs(scores.d[~undefined]) <= 1.0).all()
                np.testing.assert_array_equal(
                    undefined, scores.n_f + scores.n_b + scores.n_r == 0)

    def test_threshold_monotonicity(self, sweep_graphs):
        # raising l can only shrink the qualifying set, so n_b falls and
        # n_f rises; the R-class shrinks under ref_indegree and is flat
        # under overlap, whose R rule does not depend on l.
        for mode in ("ref_indegree", "overlap"):
            for ids, graph in sweep_graphs:
                scores = disruption_batch(graph, list(ids), ls=THRESHOLDS, mode=mode)
                # one row per id, one column per threshold
                assert scores.ls.tolist() == list(THRESHOLDS)
                assert scores.d.shape == (len(ids), len(THRESHOLDS))
                n_f, n_b, n_r = scores.n_f, scores.n_b, scores.n_r
                assert (np.diff(n_b, axis=1) <= 0).all()
                assert (np.diff(n_f, axis=1) >= 0).all()
                if mode == "ref_indegree":
                    assert (np.diff(n_r, axis=1) <= 0).all()
                else:
                    assert (np.diff(n_r, axis=1) == 0).all()

    def test_base_threshold_collapses_to_unthresholded_score(self, sweep_graphs):
        # at l = 1 every reference qualifies (the focal paper itself
        # supplies one citation), so the partition must match a direct
        # classification that ignores thresholds entirely
        for ids, graph in sweep_graphs:
            scores = disruption_batch(graph, list(ids), ls=(1,))
            for k, focal in enumerate(ids):
                f_idx = graph.index[focal]
                refs = set(graph.reference_row(f_idx).tolist())
                citer_set = set(graph.citer_row(f_idx).tolist())
                n_f = n_b = n_r = 0
                for other in range(graph.n_nodes):
                    if other == f_idx:
                        continue
                    other_refs = set(graph.reference_row(other).tolist())
                    hits_refs = bool(other_refs & refs)
                    if other in citer_set:
                        n_b += hits_refs
                        n_f += not hits_refs
                    else:
                        n_r += hits_refs
                assert counts(scores, k) == (n_f, n_b, n_r)


class TestBatch:
    def test_row_order_and_threshold_cleaning(self):
        graph = small_graph(EXAMPLE_HIGH)
        scores = disruption_batch(graph, ["p4", "i", "p4"], ls=(5, 1, 3, 3))
        # one row per input id, repeats kept; thresholds are deduplicated
        # and sorted ascending
        assert scores.ids == ("p4", "i", "p4")
        assert scores.ls.tolist() == [1, 3, 5]
        for column in (scores.n_f, scores.n_b, scores.n_r, scores.d):
            assert column.shape == (3, 3)
        assert counts(scores, 1, 0) == (3, 0, 1)
        assert scores == disruption_batch(graph, ["p4", "i", "p4"], ls=(1, 3, 5))

    def test_empty_ids(self):
        scores = disruption_batch(small_graph(EXAMPLE_HIGH), [])
        assert len(scores) == 0
        assert scores.d.shape == (0, len(disruption.DEFAULT_THRESHOLDS))

    def test_rejects_empty_thresholds(self):
        with pytest.raises(ValueError, match="non-empty"):
            disruption_batch(small_graph(EXAMPLE_HIGH), ["i"], ls=())

    def test_validates_ids_before_computing(self):
        with pytest.raises(KeyError, match="ghost"):
            disruption_batch(small_graph(EXAMPLE_HIGH), ["i", "ghost"])

    def test_parallel_equals_sequential(self, monkeypatch):
        graph = synth_graph(500, seed=11)
        ids = list(graph.ids)
        whole = disruption_batch(graph, ids, ls=THRESHOLDS, n_jobs=1)
        # Small blocks, so every thread's share of the focals spans
        # several sparse products.
        monkeypatch.setattr(_kernels, "BLOCK_PAIRS", 256)
        pairs = int(graph.in_deg[graph.bwd_indices].sum() + graph.in_deg.sum())
        assert pairs > 16 * _kernels.BLOCK_PAIRS
        seq = disruption_batch(graph, ids, ls=THRESHOLDS, n_jobs=1)
        par = disruption_batch(graph, ids, ls=THRESHOLDS, n_jobs=4)
        assert seq == par == whole

    @pytest.mark.parametrize("cpus, pools", [(2, [2]), (None, [])])
    def test_threads_never_outnumber_the_cpus(self, monkeypatch, cpus, pools):
        # every thread builds its own citer matrix, so more threads than
        # CPUs only add memory
        graph = synth_graph(500, seed=11)
        ids = list(graph.ids)
        seen = []

        class Recording(disruption.ThreadPoolExecutor):
            def __init__(self, max_workers):
                seen.append(max_workers)
                super().__init__(max_workers)

        monkeypatch.setattr(disruption, "ThreadPoolExecutor", Recording)
        monkeypatch.setattr(os, "cpu_count", lambda: cpus)
        scores = disruption_batch(graph, ids, ls=THRESHOLDS, n_jobs=64)
        assert seen == pools
        assert scores == disruption_batch(graph, ids, ls=THRESHOLDS, n_jobs=1)


def kernel_args(graph):
    return (graph.fwd_indptr, graph.fwd_indices,
            graph.bwd_indptr, graph.bwd_indices, graph.in_deg)


def sparse_counts(graph, focals, ls, mode):
    return _kernels.partition_counts(
        *kernel_args(graph), np.asarray(focals, dtype=np.int64),
        np.asarray(ls, dtype=np.int64), mode == "overlap")


class TestSparseKernelContract:
    @pytest.mark.parametrize("mode", ["ref_indegree", "overlap"])
    def test_empty_focals(self, mode):
        graph = small_graph(EXAMPLE_HIGH)
        for arr in sparse_counts(graph, [], (1, 2, 5), mode):
            assert arr.dtype == np.int64
            assert arr.shape == (0, 3)

    @pytest.mark.parametrize("mode", ["ref_indegree", "overlap"])
    def test_focal_without_references(self, mode):
        graph = small_graph([("i", "p1"), ("i", "p2"), ("r", "x")])
        n_f, n_b, n_r = sparse_counts(graph, [graph.index["i"]], (1, 2, 5), mode)
        assert n_f.tolist() == [[2, 2, 2]]
        assert n_b.tolist() == n_r.tolist() == [[0, 0, 0]]

    def test_focal_without_citers(self):
        # r is cited by i, x and y: x and y are R-class while r qualifies
        graph = small_graph([("r", "i"), ("r", "x"), ("r", "y")])
        focal = [graph.index["i"]]
        n_f, n_b, n_r = sparse_counts(graph, focal, (1, 3, 4), "ref_indegree")
        assert n_f.tolist() == n_b.tolist() == [[0, 0, 0]]
        assert n_r.tolist() == [[2, 2, 0]]
        n_f, n_b, n_r = sparse_counts(graph, focal, (1, 3, 4), "overlap")
        assert n_f.tolist() == n_b.tolist() == [[0, 0, 0]]
        assert n_r.tolist() == [[2, 2, 2]]

    def test_top_field_stays_below_citer_flag(self):
        # One reference per focal makes the fields 1 bit wide, so 70
        # thresholds fill a whole 62-field word; r, cited 70 times,
        # sets every field of its 69 R-class citers.
        pairs = [("r", "i"), ("i", "c")] + [("r", f"x{k:02d}") for k in range(69)]
        graph = small_graph(pairs)
        n_f, n_b, n_r = sparse_counts(graph, [graph.index["i"]], range(1, 71), "ref_indegree")
        assert n_f.tolist() == [[1] * 70]
        assert n_b.tolist() == [[0] * 70]
        assert n_r.tolist() == [[69] * 70]

    @pytest.mark.parametrize("mode", ["ref_indegree", "overlap"])
    def test_empty_graph(self, mode):
        empty = np.array([], dtype=np.int64)
        for arr in sparse_counts(from_edge_arrays((), empty, empty), [], (1, 2), mode):
            assert arr.dtype == np.int64 and arr.shape == (0, 2)
        edgeless = from_edge_arrays(("a", "b"), empty, empty)
        for arr in sparse_counts(edgeless, [1, 0, 1], (1, 2), mode):
            assert arr.tolist() == [[0, 0]] * 3


@st.composite
def kernel_cases(draw, min_hub_refs=0):
    """A random graph, a focal list (repeats, any order), an ascending
    threshold set that may reach above every in-degree, and a block
    budget. With min_hub_refs, one extra focal cites at least that many
    papers, so its field width times 9+ thresholds overflows one packed
    word."""
    n = draw(st.integers(1, 12))
    slots = [(i, j) for i in range(n) for j in range(n) if i != j]
    edges = set(draw(st.lists(st.sampled_from(slots), unique=True))) if slots else set()
    focals = draw(st.lists(st.integers(0, n - 1), min_size=1, max_size=8))
    n_ls = (1, 6)
    if min_hub_refs:
        hub, n_leaves = n, draw(st.integers(min_hub_refs, min_hub_refs + 16))
        leaves = range(n + 1, n + 1 + n_leaves)
        edges |= {(leaf, hub) for leaf in leaves}
        edges |= {(i, hub) for i in draw(st.sets(st.integers(0, n - 1)))}
        edges |= {(hub, i) for i in draw(st.sets(st.integers(0, n - 1)))}
        edges |= draw(st.sets(st.tuples(st.sampled_from(leaves), st.integers(0, n - 1)),
                              max_size=40))
        focals = draw(st.permutations(focals + [hub]))
        n += 1 + n_leaves
        n_ls = (9, 16)
    in_deg = np.bincount([ref for ref, _ in edges], minlength=n)
    ls = sorted(draw(st.sets(st.integers(1, max(int(in_deg.max()) + 2, 16)),
                             min_size=n_ls[0], max_size=n_ls[1])))
    block_pairs = draw(st.one_of(st.integers(1, 32), st.just(_kernels.BLOCK_PAIRS)))
    ids = tuple(f"n{i:03d}" for i in range(n))
    pairs = sorted((ids[ref], ids[cit]) for ref, cit in edges)
    return ids, pairs, focals, ls, block_pairs


def check_against_oracle(case, mode):
    ids, pairs, focals, ls, block_pairs = case
    graph = graph_from_pairs(ids, pairs)
    with mock.patch.object(_kernels, "BLOCK_PAIRS", block_pairs):
        got = sparse_counts(graph, focals, ls, mode)
    for arr in got:
        assert arr.dtype == np.int64 and arr.shape == (len(focals), len(ls))
    want = {}
    for pos, focal in enumerate(focals):
        for j, l in enumerate(ls):
            if (focal, l) not in want:
                want[focal, l] = brute_force_partition(
                    pairs, ids[focal], l=l, mode=mode, nodes=ids).counts
            assert tuple(int(a[pos, j]) for a in got) == want[focal, l], (
                f"{mode} focal={ids[focal]} l={l}")
    return graph


class TestSparseKernelProperties:
    @settings(max_examples=200, deadline=None)
    @given(case=kernel_cases(), mode=st.sampled_from(["ref_indegree", "overlap"]))
    def test_matches_oracle(self, case, mode):
        check_against_oracle(case, mode)

    @settings(max_examples=25, deadline=None)
    @given(case=kernel_cases(min_hub_refs=64),
           mode=st.sampled_from(["ref_indegree", "overlap"]))
    def test_hub_needs_several_packed_words(self, case, mode):
        graph = check_against_oracle(case, mode)
        _, _, focals, ls, _ = case
        bits = int(graph.out_deg[focals].max()).bit_length()
        assert bits * len(ls) > 62


class TestScoreSerialization:
    def test_format_score(self):
        assert format_score(float("nan")) == "NA"
        assert format_score(0.75) == "0.750000"
        assert format_score(-1) == "-1.000000"

    def test_roundtrip_including_undefined(self, tmp_path):
        graph = small_graph([("a", "b")], extra_nodes=["lone"])
        scores = disruption_batch(graph, ["a", "lone"], ls=(1, 2))
        path = tmp_path / "scores.csv"
        write_scores(scores, path)
        back = read_scores(path)
        assert back.ids == ("a", "lone")
        assert back.ls.tolist() == [1, 2]
        assert counts(back) == counts(scores)
        assert np.isnan(back.d[1]).all() and back == scores

    def test_read_rejects_wrong_header(self, tmp_path):
        path = tmp_path / "scores.csv"
        path.write_text("id,l,nf\n", encoding="utf-8")
        with pytest.raises(ValueError, match="unexpected header"):
            read_scores(path)

    def test_read_rejects_short_row(self, tmp_path):
        path = tmp_path / "scores.csv"
        path.write_text("id,l,n_f,n_b,n_r,d\na,1,0,0\n", encoding="utf-8")
        with pytest.raises(ValueError, match="malformed row"):
            read_scores(path)

    @pytest.mark.parametrize("row", [
        "b,1,0,0", "b,1,0,0,0,NA,7", "b,x,0,0,0,NA", "b,1,0,0,0,none", '"b,c",1.5,0,0,0,NA',
    ])
    def test_read_names_the_malformed_row(self, tmp_path, row):
        path = tmp_path / "scores.csv"
        path.write_text(f"id,l,n_f,n_b,n_r,d\na,1,0,0,0,NA\n\n{row}\nc,1,0,0,0,x\n",
                        encoding="utf-8")
        named = next(csv.reader([row]))
        with pytest.raises(ValueError, match=re.escape(f"malformed row {named}")):
            read_scores(path)

    @pytest.mark.parametrize("body", ["", "\n", "\r\n\n"])
    def test_read_empty_body(self, tmp_path, body):
        path = tmp_path / "scores.csv"
        path.write_text("id,l,n_f,n_b,n_r,d\n" + body, encoding="utf-8", newline="")
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            table = read_scores(path)
        assert len(table) == 0 and table.d.shape == (0, 0)
        assert table.ls.dtype == np.int64 and table.d.dtype == np.float64

    def test_table_from_scores_matches_file(self, tmp_path):
        graph = small_graph(EXAMPLE_HIGH, extra_nodes=["lone"])
        scores = disruption_batch(graph, ["i", "lone"], ls=(1, 2))
        path = tmp_path / "scores.csv"
        write_scores(scores, path)
        table, back = scores, read_scores(path)
        assert table.ids == back.ids
        for name in ("ls", "n_f", "n_b", "n_r"):
            np.testing.assert_array_equal(getattr(table, name), getattr(back, name))
        np.testing.assert_allclose(table.d, back.d, atol=5e-7)  # 6 decimals on disk

    def test_tables_compare_by_value(self):
        graph = small_graph(EXAMPLE_HIGH, extra_nodes=["lone"])
        scores = disruption_batch(graph, ["i", "lone"], ls=(1, 2))
        assert scores == disruption_batch(graph, ["i", "lone"], ls=(1, 2))
        assert scores != disruption_batch(graph, ["i", "p1"], ls=(1, 2))
        # the two modes count differently on this graph, so their tables differ
        graph = small_graph(MODES_DIFFER)
        assert (disruption_batch(graph, ["i"], ls=(2,))
                != disruption_batch(graph, ["i"], ls=(2,), mode="overlap"))

    def test_written_values_have_six_decimals(self, tmp_path):
        graph = small_graph(EXAMPLE_HIGH)
        path = tmp_path / "scores.csv"
        write_scores(disruption_batch(graph, ["i"], ls=(1,)), path)
        assert path.read_text().splitlines()[1] == "i,1,3,0,1,0.750000"


def reference_scores_csv(table):
    """disruption.csv as the per-row writer wrote it: one csv row per
    paper and threshold, paper by paper, d as "%.6f" or NA."""
    buf = io.StringIO(newline="")
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(["id", "l", "n_f", "n_b", "n_r", "d"])
    for k, paper_id in enumerate(table.ids):
        for j, l in enumerate(table.ls.tolist()):
            d = float(table.d[k, j])
            writer.writerow([paper_id, l, int(table.n_f[k, j]), int(table.n_b[k, j]),
                             int(table.n_r[k, j]), "NA" if np.isnan(d) else "%.6f" % d])
    return buf.getvalue().encode("utf-8")


_IDS = st.one_of(
    st.lists(st.one_of(
        st.sampled_from([",", '"', "'", " ", "\n", "\u00e9", "\u65e5", "\U0001f600"]),
        st.characters(blacklist_categories=("Cs", "Cc")),
    ), max_size=6).map("".join),
    st.sampled_from(["NA", "", "a,b", '"q"']),
)


@st.composite
def score_tables(draw):
    """ScoreTables as disruption_batch builds them: 1-12 papers, ids
    awkward and often repeated, 1-6 thresholds, and counts small enough
    that all-zero (NA) scores are common."""
    n = draw(st.integers(1, 12))
    ids = tuple(draw(st.lists(st.sampled_from(draw(st.lists(_IDS, min_size=1, max_size=n))),
                              min_size=n, max_size=n)))
    ls = np.array(sorted(draw(st.sets(st.integers(1, 99), min_size=1, max_size=6))),
                  dtype=np.int64)
    shape = (n, len(ls))
    n_f, n_b, n_r, big = (
        np.array(draw(st.lists(st.integers(0, 3 if j < 3 else 10**6),
                               min_size=n * len(ls), max_size=n * len(ls))),
                 dtype=np.int64).reshape(shape) for j in range(4))
    n_r = np.where(big % 2 == 0, n_r, n_r * big)  # some large denominators
    denom = n_f + n_b + n_r
    with np.errstate(divide="ignore", invalid="ignore"):
        d = np.where(denom > 0, (n_f - n_b) / denom, np.nan)
    return ScoreTable(ids=ids, ls=ls, n_f=n_f, n_b=n_b, n_r=n_r, d=d)


def on_disk(table):
    """``table`` with d as the file holds it, to 6 decimals."""
    return dataclasses.replace(table, d=np.array([float("%.6f" % v) for v in table.d.flat])
                               .reshape(table.d.shape))


class TestScoreTableFile:
    @settings(max_examples=150, deadline=None)
    @given(score_tables())
    def test_round_trip(self, table):
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "scores.csv"
            write_scores(table, path)
            back = read_scores(path)
        assert back == on_disk(table)
        for name in ("ls", "n_f", "n_b", "n_r"):
            assert getattr(back, name).dtype == np.int64

    @settings(max_examples=150, deadline=None)
    @given(score_tables())
    @example(ScoreTable(ids=("a",), ls=np.array([1]), n_f=np.array([[0]]), n_b=np.array([[1]]),
                        n_r=np.array([[3_000_000]]), d=np.array([[-1 / 3_000_001]])))
    def test_bytes_match_the_per_row_writer(self, table):
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "scores.csv"
            write_scores(table, path)
            assert path.read_bytes() == reference_scores_csv(table)

    def test_no_papers_is_an_empty_body(self, tmp_path):
        table = disruption_batch(small_graph(EXAMPLE_HIGH), [], ls=(1, 2))
        write_scores(table, tmp_path / "scores.csv")
        assert (tmp_path / "scores.csv").read_bytes() == b"id,l,n_f,n_b,n_r,d\n"

    @pytest.mark.parametrize("rows, named", [
        (["a,1", "a,2", "b,1"], "'b' at l = 1"),  # a paper short of a threshold
        (["a,1", "a,2", "b,1", "b,2", "b,2"], "'b' at l = 2"),  # a score twice
        (["a,1", "a,2", "b,1", "b,1"], "'b' at l = 1"),  # one in place of another
        (["a,1", "a,2", "b,2", "b,1"], "'b' at l = 2"),  # thresholds out of order
        (["a,2", "a,1", "b,2", "b,1"], "'a' at l = 1"),
        (["a,1", "a,2", "b,1", "c,2"], "'c' at l = 2"),  # a paper changing mid-grid
        (["a,1", "a,2", "b,1", "b,2", "b,3"], "'b' at l = 3"),  # a threshold the first lacks
    ])
    def test_a_body_that_is_not_a_grid_names_its_first_row_out_of_place(
            self, tmp_path, rows, named):
        path = tmp_path / "scores.csv"
        path.write_text("id,l,n_f,n_b,n_r,d\n" + "".join(f"{row},0,0,0,NA\n" for row in rows),
                        encoding="utf-8")
        with pytest.raises(ValueError, match=re.escape(
                f"{path}: the row of {named} is out of place; each id needs a row at each of "
                f"l = ")):
            read_scores(path)

    def test_batch_bytes_match_the_per_row_writer(self, tmp_path):
        ids, pairs = random_digraph(np.random.default_rng(4), 300, 0.01)
        graph = graph_from_pairs(ids, pairs)
        for mode in ("ref_indegree", "overlap"):
            table = disruption_batch(graph, list(graph.ids), ls=THRESHOLDS, mode=mode)
            assert np.isnan(table.d).any()
            write_scores(table, tmp_path / "scores.csv")
            assert (tmp_path / "scores.csv").read_bytes() == reference_scores_csv(table)
