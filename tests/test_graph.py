import numpy as np
import pytest

from disruptkit.corpus import Corpus, PaperRecord
from disruptkit.graph import (
    GRAPH_FILES,
    build_graph,
    citers,
    degree_stats,
    from_edge_arrays,
    load_graph,
    node_attributes,
    references_of,
    save_graph,
)


def mk(paper_id, refs=()):
    return PaperRecord(
        id=paper_id, title="t", abstract="a", journal="j",
        year=2000, n_authors=1, references=tuple(refs),
    )


def corpus_of(*records):
    return Corpus(records={r.id: r for r in records})


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
        assert citers(diamond, "a") == ["b", "c"]
        assert citers(diamond, "d") == []
        assert references_of(diamond, "d") == ["b", "c"]
        assert references_of(diamond, "a") == []
        assert diamond.in_deg.tolist() == [2, 1, 1, 0]
        assert diamond.out_deg.tolist() == [0, 1, 1, 2]
        assert diamond.n_nodes == 4 and diamond.n_edges == 4

    def test_out_of_corpus_references_are_ignored(self):
        graph = build_graph(corpus_of(mk("a", refs=("a-missing", "b")), mk("b")))
        assert graph.n_edges == 1
        assert references_of(graph, "a") == ["b"]

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
        assert citers(graph, "a") == ["b", "m", "z"]

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

    def test_rejects_out_of_range(self):
        with pytest.raises(ValueError, match="out of range"):
            from_edge_arrays(("a", "b"), np.array([0]), np.array([2]))

    def test_rejects_self_edges(self):
        with pytest.raises(ValueError, match="self-citation"):
            from_edge_arrays(("a", "b"), np.array([1]), np.array([1]))

    def test_rejects_shape_mismatch(self):
        with pytest.raises(ValueError, match="identical shapes"):
            from_edge_arrays(("a", "b"), np.array([0]), np.array([1, 0]))


class TestLookups:
    def test_unknown_id_raises(self, diamond):
        with pytest.raises(KeyError):
            citers(diamond, "nope")
        with pytest.raises(KeyError):
            references_of(diamond, "nope")


class TestDegreeStats:
    def test_counts(self, diamond):
        stats = degree_stats(diamond)
        assert stats["n_nodes"] == 4
        assert stats["n_edges"] == 4
        assert stats["max_in_deg"] == 2
        assert stats["max_out_deg"] == 2
        assert stats["mean_in_deg"] == pytest.approx(1.0)
        assert stats["n_isolated"] == 0

    def test_isolated_nodes(self):
        graph = build_graph(corpus_of(mk("a"), mk("b", refs=("a",)), mk("lone")))
        assert degree_stats(graph)["n_isolated"] == 1


class TestGraphFiles:
    def test_roundtrip(self, tmp_path, diamond):
        corpus = corpus_of(*(mk(pid) for pid in diamond.ids))
        paths = save_graph(diamond, node_attributes(corpus, diamond), tmp_path)
        assert [p.name for p in paths] == list(GRAPH_FILES)
        graph, nodes = load_graph(tmp_path)
        assert graph.ids == diamond.ids and graph.index == diamond.index
        for name in ("fwd_indptr", "fwd_indices", "bwd_indptr", "bwd_indices",
                     "in_deg", "out_deg"):
            np.testing.assert_array_equal(getattr(graph, name), getattr(diamond, name))
        assert nodes.journal == ("j",) * 4
        assert nodes.gold_label == (None,) * 4
        assert nodes.year.tolist() == [2000] * 4
        assert nodes.n_authors.tolist() == [1] * 4

    def test_strings_roundtrip_exactly(self, tmp_path):
        # numpy's str dtype would turn "a\x00" into "a", colliding the two ids
        records = [
            PaperRecord(id="a", title="t", abstract="a", journal="Revue d\u2019\u00e9tudes",
                        year=1995, n_authors=2, references=("a\x00",),
                        gold_label="conceptual"),
            PaperRecord(id="a\x00", title="t", abstract="a", journal="\u65e5\u672c\x00",
                        year=2011, n_authors=7, references=()),
            PaperRecord(id="\u00fc\U0001f600", title="t", abstract="a", journal="",
                        year=2020, n_authors=1, references=("a",),
                        gold_label="empirical"),
        ]
        corpus = corpus_of(*records)
        built = build_graph(corpus)
        save_graph(built, node_attributes(corpus, built), tmp_path)
        graph, nodes = load_graph(tmp_path)
        assert graph.ids == ("a", "a\x00", "\u00fc\U0001f600")
        assert citers(graph, "a\x00") == ["a"]
        assert citers(graph, "a") == ["\u00fc\U0001f600"]
        by_id = {pid: i for i, pid in enumerate(graph.ids)}
        for rec in records:
            i = by_id[rec.id]
            assert nodes.journal[i] == rec.journal
            assert nodes.gold_label[i] == rec.gold_label
            assert int(nodes.year[i]) == rec.year
            assert int(nodes.n_authors[i]) == rec.n_authors

    def test_empty_graph(self, tmp_path):
        empty = build_graph(corpus_of())
        save_graph(empty, node_attributes(corpus_of(), empty), tmp_path)
        graph, nodes = load_graph(tmp_path)
        assert graph.n_nodes == 0 and graph.n_edges == 0
        assert nodes.journal == () and nodes.year.shape == (0,)

    def test_rejects_mismatched_files(self, tmp_path, diamond):
        corpus = corpus_of(*(mk(pid) for pid in diamond.ids))
        save_graph(diamond, node_attributes(corpus, diamond), tmp_path)
        np.save(tmp_path / "graph_year.npy", np.array([2000], dtype=np.int64))
        with pytest.raises(ValueError, match="disagree"):
            load_graph(tmp_path)
