import hashlib

import numpy as np
import pytest

from disruptkit.classify import _CONCEPTUAL_CUES, _EMPIRICAL_CUES
from disruptkit.corpus import parse_corpus
from disruptkit.disruption import disruption_batch
from disruptkit.synth import synth_corpus, synth_graph

from corpus_columns import abstract_lengths, columns, graph_of, references


class TestValidation:
    @pytest.mark.parametrize("kwargs,message", [
        (dict(n_papers=9, seed=0), "n_papers"),
        (dict(n_papers=50, seed=0, effect=-0.1), "effect"),
    ])
    def test_corpus_parameter_errors(self, kwargs, message):
        with pytest.raises(ValueError, match=message):
            synth_corpus(**kwargs)

    def test_graph_parameter_errors(self):
        with pytest.raises(ValueError, match="n_nodes"):
            synth_graph(1, seed=0)


class TestDeterminism:
    def test_same_seed_same_bytes(self, tmp_path):
        p1, p2 = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
        synth_corpus(n_papers=80, seed=99, path=p1)
        synth_corpus(n_papers=80, seed=99, path=p2)
        assert p1.read_bytes() == p2.read_bytes()

    def test_different_seed_differs(self, tmp_path):
        p1, p2 = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
        synth_corpus(n_papers=80, seed=1, path=p1)
        synth_corpus(n_papers=80, seed=2, path=p2)
        assert p1.read_bytes() != p2.read_bytes()

    def test_graph_is_deterministic(self):
        g1 = synth_graph(300, seed=4)
        g2 = synth_graph(300, seed=4)
        np.testing.assert_array_equal(g1.fwd_indptr, g2.fwd_indptr)
        np.testing.assert_array_equal(g1.fwd_indices, g2.fwd_indices)


class TestGoldenBytes:
    """The generator's output, pinned by digest: any change to the draw
    order, the mixture or the text shows here."""

    @pytest.mark.parametrize("n_papers,seed,effect,digest", [
        (80, 99, 0.0, "5a45b3ea7fcb1e2b27df126f1b5041892274768f495ec733d5cd33f087e90b49"),
        # the first papers have fewer earlier papers than references wanted
        (12, 0, 1.0, "8e6fa74a641a4c779d55f083c037a8ba00e58fc79e939e6b814307ffcd039d23"),
        # the draws run through many blocks of floats
        (2000, 5, 1.0, "24ccccf4f5fb365a62c27a6e9ad32df9d162920770269aa3c28cf8c2bdfe44cc"),
    ], ids=("80-papers", "12-papers", "2000-papers"))
    def test_corpus_file(self, tmp_path, n_papers, seed, effect, digest):
        path = tmp_path / "c.jsonl"
        synth_corpus(n_papers, seed=seed, effect=effect, path=path)
        assert hashlib.sha256(path.read_bytes()).hexdigest() == digest

    def test_graph_arrays(self):
        graph = synth_graph(300, seed=4)
        digests = {name: hashlib.sha256(getattr(graph, name).astype("<i8").tobytes()).hexdigest()
                   for name in ("fwd_indptr", "fwd_indices", "bwd_indptr", "bwd_indices")}
        assert digests == {
            "fwd_indptr": "f7fec281461b91287f0b121dcddfc33e52114c96d03661d3346ccb3f89486269",
            "fwd_indices": "90ea0ef2f270d043d1ca86834789b4159879f3325e6a5dbc9dd6881942d4b8b9",
            "bwd_indptr": "1694ce391e22afb3b1560e40aec71838d04d1719b749e149a644dc277469bdf0",
            "bwd_indices": "e07fb4af744208c54f0546641ef68ff3b4717e93e45ac0e808f5cb252786c2dc",
        }


@pytest.fixture(scope="module")
def corpus():
    return synth_corpus(n_papers=400, seed=12)


class TestStructure:
    def test_ids_and_count(self, corpus):
        assert len(corpus) == 400
        assert corpus.ids[0] == "P000000"
        assert corpus.ids[-1] == "P000399"

    def test_years_chronological_and_span_covered(self, corpus):
        years = corpus.year.tolist()
        assert years == sorted(years)
        assert years[0] == 1991
        assert years[-1] == 2020

    def test_references_point_strictly_backward(self, corpus):
        for paper_id, refs in zip(corpus.ids, references(corpus)):
            for ref in refs:
                assert ref < paper_id  # chronological ids sort by birth order

    def test_all_references_resolve_in_corpus(self, corpus):
        ids = set(corpus.ids)
        for refs in references(corpus):
            assert set(refs) <= ids

    def test_journals_cycle(self, corpus):
        names = set(corpus.journal)
        assert names == {f"Synthetic Journal {k:02d}" for k in range(8)}

    def test_abstracts_meet_length_floor(self, corpus):
        assert (abstract_lengths(corpus.abstract) >= 501).all()

    def test_gold_labels_present_and_balanced(self, corpus):
        labels = list(corpus.gold_label)
        assert set(labels) == {"conceptual", "empirical"}
        frac = labels.count("conceptual") / len(labels)
        assert 0.2 < frac < 0.4

    def test_author_counts_positive(self, corpus):
        assert (corpus.n_authors >= 1).all()

    def test_file_roundtrip(self, corpus, tmp_path):
        path = tmp_path / "c.jsonl"
        reloaded_source = synth_corpus(n_papers=400, seed=12, path=path)
        assert columns(parse_corpus(path)) == columns(reloaded_source)

    def test_cue_vocabulary_is_label_disjoint(self, corpus):
        # each abstract must carry only its own side's cue words, or the
        # offline classifier could not recover the embedded labels
        conceptual_cues = set(_CONCEPTUAL_CUES)
        empirical_cues = set(_EMPIRICAL_CUES)
        import re
        for paper_id, abstract, gold in zip(corpus.ids, corpus.abstract, corpus.gold_label):
            words = set(re.findall(r"[a-z]+", abstract.lower()))
            if gold == "conceptual":
                assert not (words & empirical_cues), paper_id
                assert words & conceptual_cues, paper_id
            else:
                assert not (words & conceptual_cues), paper_id
                assert words & empirical_cues, paper_id


class TestSynthGraph:
    def test_matches_reference_process_shape(self):
        graph = synth_graph(250, seed=8)
        assert graph.n_nodes == 250
        assert graph.ids[0] == "P000000"
        # every edge points from an earlier paper to a later one
        for r_idx in range(graph.n_nodes):
            assert np.all(graph.citer_row(r_idx) > r_idx)

    def test_mean_out_degree_tracks_reference_target(self):
        graph = synth_graph(600, seed=9)
        # papers request 11 + Poisson(3.3) references, capped by history
        mature = graph.out_deg[100:]
        assert 11 <= mature.mean() <= 15


class TestPlantedEffect:
    def label_stats(self, effect, seed=1):
        corpus = synth_corpus(1200, seed=seed, effect=effect)
        graph = graph_of(corpus)
        cited = [pid for pid, deg in zip(graph.ids, graph.in_deg.tolist()) if deg >= 3]
        scores = disruption_batch(graph, cited, ls=(1,))
        d_by_id = {pid: d for pid, d in zip(scores.ids, scores.d[:, 0].tolist()) if d == d}
        con_cites, emp_cites, con_d, emp_d = [], [], [], []
        # node i of the graph is row i of the corpus
        for pid, deg, gold in zip(graph.ids, graph.in_deg.tolist(), corpus.gold_label):
            bucket = (con_cites, con_d) if gold == "conceptual" else (emp_cites, emp_d)
            bucket[0].append(deg)
            if pid in d_by_id:
                bucket[1].append(d_by_id[pid])
        ratio = np.mean(con_cites) / np.mean(emp_cites)
        d_gap = np.mean(con_d) - np.mean(emp_d)
        return ratio, d_gap

    def test_effect_boosts_citations_and_disruption_of_conceptual_papers(self):
        ratio, d_gap = self.label_stats(effect=2.0)
        assert ratio > 2.0  # target is (1 + effect) = 3
        assert d_gap > 0.008

    def test_zero_effect_is_label_blind(self):
        ratio, d_gap = self.label_stats(effect=0.0)
        assert 0.85 < ratio < 1.20
        assert abs(d_gap) < 0.008
