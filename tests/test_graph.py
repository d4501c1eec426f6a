import json

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from disruptkit.corpus import EligibilityCriteria, eligible_ids, parse_corpus
from disruptkit.graph import (
    GRAPH_FILES,
    build_graph,
    degree_stats,
    from_edge_arrays,
    load_graph,
    save_graph,
)


def mk(paper_id, refs=()):
    return {"id": paper_id, "title": "t", "abstract": "a", "journal": "j",
            "year": 2000, "n_authors": 1, "references": list(refs)}


def corpus_of(*records):
    return parse_corpus(json.dumps(r) + "\n" for r in records)

@pytest.fixture
def diamond():
    # d cites b and c, both of which cite a
    return build_graph(corpus_of(
        mk("a"),
        mk("b", refs=("a",)),
        mk("c", refs=("a",)),
        mk("d", refs=("b", "c")),
    ))


class TestBuildGraph:
    def test_ids_sorted_and_indexed(self, diamond):
        assert diamond.ids == ("a", "b", "c", "d")
        assert diamond.index == {"a": 0, "b": 1, "c": 2, "d": 3}

    def test_edge_direction_and_degrees(self, diamond):
        # edges point referenced -> citing
        a, d = diamond.index["a"], diamond.index["d"]
        assert diamond.citer_row(a).tolist() == [1, 2]  # b and c
        assert diamond.citer_row(d).tolist() == []
        assert diamond.reference_row(d).tolist() == [1, 2]
        assert diamond.reference_row(a).tolist() == []
        assert diamond.in_deg.tolist() == [2, 1, 1, 0]
        assert diamond.out_deg.tolist() == [0, 1, 1, 2]
        assert diamond.n_nodes == 4 and diamond.n_edges == 4

    def test_out_of_corpus_references_are_ignored(self):
        graph = build_graph(corpus_of(mk("a", refs=("a-missing", "b")), mk("b")))
        assert graph.n_edges == 1
        assert graph.reference_row(graph.index["a"]).tolist() == [graph.index["b"]]

    def test_insertion_order_does_not_matter(self):
        records = [mk("a"), mk("b", refs=("a",)), mk("c", refs=("a", "b"))]
        g1 = build_graph(corpus_of(*records))
        g2 = build_graph(corpus_of(*reversed(records)))
        assert g1.ids == g2.ids
        for name in ("fwd_indptr", "fwd_indices", "bwd_indptr", "bwd_indices"):
            np.testing.assert_array_equal(getattr(g1, name), getattr(g2, name))

    def test_rows_are_sorted(self):
        graph = build_graph(corpus_of(
            mk("a"), mk("z", refs=("a",)), mk("m", refs=("a",)), mk("b", refs=("a",)),
        ))
        assert graph.ids == ("a", "b", "m", "z")
        assert graph.citer_row(graph.index["a"]).tolist() == [1, 2, 3]

    def test_empty_corpus(self):
        graph = build_graph(corpus_of())
        assert graph.n_nodes == 0 and graph.n_edges == 0
        stats = degree_stats(graph)
        assert stats["n_nodes"] == 0 and stats["max_in_deg"] == 0

    def test_arrays_are_int64(self, diamond):
        for name in ("fwd_indptr", "fwd_indices", "bwd_indptr", "bwd_indices",
                     "in_deg", "out_deg"):
            assert getattr(diamond, name).dtype == np.int64


class TestFromEdgeArrays:
    def test_matches_build_graph(self, diamond):
        ids = ("a", "b", "c", "d")
        src = np.array([0, 0, 1, 2])  # referenced
        dst = np.array([1, 2, 3, 3])  # citing
        graph = from_edge_arrays(ids, src, dst)
        for name in ("fwd_indptr", "fwd_indices", "bwd_indptr", "bwd_indices"):
            np.testing.assert_array_equal(getattr(graph, name), getattr(diamond, name))

    def test_record_fields_are_fixed(self):
        graph = from_edge_arrays(("a", "b"), np.array([0]), np.array([1]))
        assert graph.year.tolist() == [0, 0] and graph.n_authors.tolist() == [1, 1]
        assert graph.journal == ("", "") and graph.gold_label == (None, None)

    def test_rejects_out_of_range(self):
        with pytest.raises(ValueError, match="out of range"):
            from_edge_arrays(("a", "b"), np.array([0]), np.array([2]))

    def test_rejects_self_edges(self):
        with pytest.raises(ValueError, match="self-citation"):
            from_edge_arrays(("a", "b"), np.array([1]), np.array([1]))

    def test_rejects_shape_mismatch(self):
        with pytest.raises(ValueError, match="identical shapes"):
            from_edge_arrays(("a", "b"), np.array([0]), np.array([1, 0]))


class TestDegreeStats:
    def test_counts(self, diamond):
        stats = degree_stats(diamond)
        assert stats["n_nodes"] == 4
        assert stats["n_edges"] == 4
        assert stats["max_in_deg"] == 2
        assert stats["max_out_deg"] == 2
        assert stats["mean_in_deg"] == pytest.approx(1.0)

    def test_isolated_nodes(self):
        # a record with no in-corpus links is still a node
        graph = build_graph(corpus_of(mk("a"), mk("b", refs=("a",)), mk("lone")))
        stats = degree_stats(graph)
        assert (stats["n_nodes"], stats["n_edges"]) == (3, 1)
        assert (graph.in_deg[2], graph.out_deg[2]) == (0, 0)


class TestGraphFiles:
    def test_roundtrip(self, tmp_path, diamond):
        paths = save_graph(diamond, tmp_path)
        assert [p.name for p in paths] == list(GRAPH_FILES)
        graph = load_graph(tmp_path)
        assert graph.ids == diamond.ids and graph.index == diamond.index
        for name in ("fwd_indptr", "fwd_indices", "bwd_indptr", "bwd_indices",
                     "in_deg", "out_deg"):
            np.testing.assert_array_equal(getattr(graph, name), getattr(diamond, name))
        assert graph.journal == ("j",) * 4
        assert graph.gold_label == (None,) * 4
        assert graph.year.tolist() == [2000] * 4
        assert graph.n_authors.tolist() == [1] * 4

    def test_strings_roundtrip_exactly(self, tmp_path):
        # numpy's str dtype would turn "a\x00" into "a", colliding the two ids
        records = [
            {**mk("a", refs=["a\x00"]), "journal": "Revue d\u2019\u00e9tudes", "year": 1995,
             "n_authors": 2, "gold_label": "conceptual"},
            {**mk("a\x00"), "journal": "\u65e5\u672c\x00", "year": 2011, "n_authors": 7,
             "gold_label": None},
            {**mk("\u00fc\U0001f600", refs=["a"]), "journal": "", "year": 2020,
             "gold_label": "empirical"},
        ]
        save_graph(build_graph(corpus_of(*records)), tmp_path)
        graph = load_graph(tmp_path)
        assert graph.ids == ("a", "a\x00", "\u00fc\U0001f600")
        assert graph.citer_row(graph.index["a\x00"]).tolist() == [graph.index["a"]]
        assert graph.citer_row(graph.index["a"]).tolist() == [graph.index["\u00fc\U0001f600"]]
        by_id = {pid: i for i, pid in enumerate(graph.ids)}
        for rec in records:
            i = by_id[rec["id"]]
            assert graph.journal[i] == rec["journal"]
            assert graph.gold_label[i] == rec["gold_label"]
            assert int(graph.year[i]) == rec["year"]
            assert int(graph.n_authors[i]) == rec["n_authors"]

    def test_empty_graph(self, tmp_path):
        save_graph(build_graph(corpus_of()), tmp_path)
        graph = load_graph(tmp_path)
        assert graph.n_nodes == 0 and graph.n_edges == 0
        assert graph.journal == () and graph.year.shape == (0,)

    def test_rejects_mismatched_files(self, tmp_path, diamond):
        save_graph(diamond, tmp_path)
        np.save(tmp_path / "graph_year.npy", np.array([2000], dtype=np.int64))
        with pytest.raises(ValueError, match="disagree"):
            load_graph(tmp_path)


def _reference_csr(n, src, dst):
    """CSR rows keyed by src with sorted runs, by np.add.at and
    np.lexsort."""
    src = np.asarray(src, dtype=np.int64)
    dst = np.asarray(dst, dtype=np.int64)
    indptr = np.zeros(n + 1, dtype=np.int64)
    np.add.at(indptr, src + 1, 1)
    np.cumsum(indptr, out=indptr)
    return indptr, dst[np.lexsort((dst, src))]


def _reference_edges(raw):
    """(ids, src, dst) by walking decoded records: references deduplicated
    in order, self-references dropped, the rest resolved through a dict."""
    ids = sorted(obj["id"] for obj in raw)
    index = {pid: i for i, pid in enumerate(ids)}
    src, dst = [], []
    for obj in raw:
        seen = set()
        for ref in obj["references"]:
            if ref == obj["id"] or ref in seen:
                continue
            seen.add(ref)
            if ref in index:
                src.append(index[ref])
                dst.append(index[obj["id"]])
    return ids, src, dst


def _reference_eligible(raw, in_deg, out_deg, criteria):
    ids = sorted(obj["id"] for obj in raw)
    by_id = {obj["id"]: obj for obj in raw}
    out = []
    for i, pid in enumerate(ids):
        obj = by_id[pid]
        if (out_deg[i] >= criteria.min_out_links and in_deg[i] >= criteria.min_in_links
                and criteria.year_min <= obj["year"] <= criteria.year_max
                and len(obj["abstract"].replace("\r\n", "\n").replace("\r", "\n"))
                >= criteria.min_abstract_chars):
            out.append(pid)
    return out


def assert_csr_equal(graph, n, src, dst):
    fwd_indptr, fwd_indices = _reference_csr(n, src, dst)
    bwd_indptr, bwd_indices = _reference_csr(n, dst, src)
    np.testing.assert_array_equal(graph.fwd_indptr, fwd_indptr)
    np.testing.assert_array_equal(graph.fwd_indices, fwd_indices)
    np.testing.assert_array_equal(graph.bwd_indptr, bwd_indptr)
    np.testing.assert_array_equal(graph.bwd_indices, bwd_indices)
    np.testing.assert_array_equal(graph.in_deg, np.diff(fwd_indptr))
    np.testing.assert_array_equal(graph.out_deg, np.diff(bwd_indptr))


# Ids with NULs, non-ASCII text and a shared prefix, so that string
# order and byte order must agree.
_IDS = st.sampled_from(["a", "a\x00", "a\x00b", "b", "\u00e9", "\u00e9\u00e9",
                        "\U0001f600", "P000010", "P000002", "a\u2028b"])


@st.composite
def raw_corpora(draw):
    """Valid decoded records whose references repeat, cite the record
    itself, and name ids outside the corpus."""
    ids = draw(st.lists(_IDS, max_size=8, unique=True))
    pool = ids + ["zz-missing", "\x00"]
    return [{"id": pid, "title": "t",
             "abstract": draw(st.sampled_from(["x" * 3, "x\r\nxx", "xx\rx", "x" * 4])),
             "journal": "J", "year": draw(st.sampled_from([1990, 1991, 2020, 2021])),
             "n_authors": 1,
             "references": draw(st.lists(st.sampled_from(pool), max_size=12))}
            for pid in ids]


class TestAgainstRecordWalk:
    @settings(max_examples=300, deadline=None)
    @given(raw_corpora(), st.integers(0, 3), st.integers(0, 3), st.integers(3, 5))
    def test_graph_and_eligibility(self, raw, min_out, min_in, min_chars):
        corpus = parse_corpus(json.dumps(obj) + "\n" for obj in raw)
        graph = build_graph(corpus)
        ids, src, dst = _reference_edges(raw)
        assert graph.ids == tuple(ids)
        assert graph.index == {pid: i for i, pid in enumerate(ids)}
        assert_csr_equal(graph, len(ids), src, dst)
        criteria = EligibilityCriteria(min_out_links=min_out, min_in_links=min_in,
                                       min_abstract_chars=min_chars)
        assert eligible_ids(corpus, graph, criteria) == _reference_eligible(
            raw, graph.in_deg, graph.out_deg, criteria)

    @settings(max_examples=200, deadline=None)
    @given(st.integers(1, 40).flatmap(lambda n: st.tuples(
        st.just(n), st.sets(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1))
                            .filter(lambda e: e[0] != e[1]), max_size=4 * n))))
    def test_from_edge_arrays(self, case):
        n, edges = case
        edges = list(edges)
        src = [s for s, _ in edges]
        dst = [d for _, d in edges]
        graph = from_edge_arrays([f"n{i}" for i in range(n)], np.array(src, dtype=np.int64),
                                 np.array(dst, dtype=np.int64))
        assert_csr_equal(graph, n, src, dst)
