"""Synthetic citation corpora with known ground truth.

Papers are generated in chronological order and cite only earlier
papers. Reference targets are drawn from a fixed mixture of uniform
draws over all earlier papers, draws from a recent window, so young
papers also accumulate citations the way they do in real
bibliographies, and preferential attachment (a pool holding one entry
per paper plus one per citation received). Two planted mechanisms are
controlled by a single ``effect`` knob:

* citation boost: during reference selection, a drawn empirical paper
  is accepted with probability 1/(1+effect), so conceptual papers
  accumulate citations at roughly (1+effect) times the empirical rate;
* disruption boost: after accepting an anchor reference, the citing
  paper also cites one of the anchor's own references with a follow-up
  probability that is divided by (1+effect) when the anchor is
  conceptual, so citers of conceptual work bridge back to its sources
  less often.

With effect = 0 both mechanisms are label-blind. Gold labels are
embedded in the records, and abstracts carry matching cue vocabulary
so the offline classifier stub can recover them without a network.
"""

from __future__ import annotations

import math
from itertools import chain
from pathlib import Path

import numpy as np

from .corpus import Corpus, EligibilityCriteria, id_order, write_corpus
from .graph import CitationGraph, from_edge_arrays

_BLOCK = 1 << 16

# The generator's fixed mixture; only ``effect`` varies between corpora.
_CONCEPTUAL_FRAC = 0.3  # share of papers with a conceptual gold label
_EXTRA_REFS_MEAN = 3.3  # each paper wants 11 + Poisson(this) references
_FOLLOW_PROB = 0.5  # chance of also citing one of an anchor's references
_UNIFORM_MIX = 0.25  # share of draws uniform over all earlier papers
_RECENCY_MIX = 0.65  # share from the recent window; the rest preferential
_N_JOURNALS = 8

_TOPICS = (
    "consumer trust", "brand communities", "market orientation",
    "service ecosystems", "pricing dynamics", "channel relationships",
    "digital platforms", "customer engagement", "retail experience",
    "advertising effectiveness", "product innovation", "loyalty programs",
)

_CONCEPTUAL_TEMPLATES = (
    "This article develops a theory of {t1} that reframes the study of {t2}.",
    "We propose a conceptual framework in which {t1} shapes {t2} through three formal propositions.",
    "The argument introduces new constructs for understanding {t1} beyond the prevailing paradigm.",
    "A typology of {t1} is derived, offering a fresh theoretical perspective on {t2}.",
    "We synthesize prior thought on {t1} into an integrative framework with testable propositions.",
    "The paper articulates theoretical mechanisms connecting {t1} to {t2}.",
    "By revisiting foundational constructs, the article opens a new perspective on {t1}.",
    "We outline a paradigm for {t1} research grounded in theory building rather than description.",
)

_EMPIRICAL_TEMPLATES = (
    "This study analyzes panel data on {t1} to estimate its association with {t2}.",
    "We report survey results from a large sample of respondents engaged with {t1}.",
    "A field experiment manipulating {t1} provides causal evidence on {t2}.",
    "Regression estimation on a multi-year dataset links {t1} with {t2}.",
    "The analysis draws on longitudinal data covering {t1} in dozens of markets.",
    "Measurement of {t1} across product categories yields robust evidence about {t2}.",
    "We test the predictions with archival data and report estimation results for {t1}.",
    "Secondary data on {t2} support an experiment-like comparison across {t1} conditions.",
)


class _FloatStream:
    """Sequential uniform floats drawn from a Generator in fixed-size
    blocks; keeps the hot loops off per-call RNG overhead while staying
    fully deterministic."""

    __slots__ = ("_rng", "_buf", "_pos")

    def __init__(self, rng: np.random.Generator):
        self._rng = rng
        self._buf = rng.random(_BLOCK)
        self._pos = 0

    def next(self) -> float:
        if self._pos == _BLOCK:
            self._buf = self._rng.random(_BLOCK)
            self._pos = 0
        u = self._buf[self._pos]
        self._pos += 1
        return u

    def pick(self, n: int) -> int:
        return int(self.next() * n)


def _generate_references(
    n: int,
    stream: _FloatStream,
    want_refs: np.ndarray,
    is_conceptual: np.ndarray,
    effect: float,
) -> list[list[int]]:
    """Reference lists per paper, chronological, mixed attachment with
    the two planted mechanisms described in the module docstring."""
    refs_by_paper: list[list[int]] = []
    pool: list[int] = []
    accept_empirical = 1.0 / (1.0 + effect)
    follow_reduced = _FOLLOW_PROB / (1.0 + effect)
    recency_cut = _UNIFORM_MIX + _RECENCY_MIX
    for i in range(n):
        want = min(int(want_refs[i]), i)
        refs: list[int] = []
        chosen: set[int] = set()
        attempts = 0
        window = min(i, max(25, i // 5))
        # Rejection sampling can stall on duplicate-heavy small pools,
        # so a soft cap lifts the label rejection and a hard cap stops
        # the search; a short reference list is acceptable output.
        soft_cap = 30 * want + 30
        hard_cap = 60 * want + 60
        while len(refs) < want and attempts < hard_cap:
            attempts += 1
            branch = stream.next()
            if branch < _UNIFORM_MIX:
                r = stream.pick(i)
            elif branch < recency_cut:
                r = i - window + stream.pick(window)
            else:
                r = pool[stream.pick(len(pool))]
            if effect > 0.0 and not is_conceptual[r] and attempts <= soft_cap:
                if stream.next() >= accept_empirical:
                    continue
            if r in chosen:
                continue
            chosen.add(r)
            refs.append(r)
            pool.append(r)
            anchor_refs = refs_by_paper[r]
            if anchor_refs and len(refs) < want:
                p_follow = follow_reduced if is_conceptual[r] else _FOLLOW_PROB
                if stream.next() < p_follow:
                    x = anchor_refs[stream.pick(len(anchor_refs))]
                    if x not in chosen:
                        chosen.add(x)
                        refs.append(x)
                        pool.append(x)
        refs_by_paper.append(refs)
        pool.append(i)
    return refs_by_paper


def _flatten(refs_by_paper: list[list[int]]) -> tuple[np.ndarray, np.ndarray]:
    """(offsets, referenced paper indices): paper i's references are
    refs[offsets[i]:offsets[i + 1]]."""
    offsets = np.zeros(len(refs_by_paper) + 1, dtype=np.int64)
    np.cumsum(np.fromiter(map(len, refs_by_paper), dtype=np.int64, count=len(refs_by_paper)),
              out=offsets[1:])
    refs = np.fromiter(chain.from_iterable(refs_by_paper), dtype=np.int64, count=offsets[-1])
    return offsets, refs


def _abstract(stream: _FloatStream, conceptual: bool) -> str:
    templates = _CONCEPTUAL_TEMPLATES if conceptual else _EMPIRICAL_TEMPLATES
    sentences: list[str] = []
    length = 0
    while length < EligibilityCriteria.min_abstract_chars:
        template = templates[stream.pick(len(templates))]
        t1 = _TOPICS[stream.pick(len(_TOPICS))]
        t2 = _TOPICS[stream.pick(len(_TOPICS))]
        sentence = template.format(t1=t1, t2=t2)
        length += len(sentence) + (1 if sentences else 0)
        sentences.append(sentence)
    return " ".join(sentences)


def _paper_id(i: int) -> str:
    return f"P{i:06d}"


def synth_corpus(
    n_papers: int,
    seed: int,
    effect: float = 0.0,
    path: str | Path | None = None,
) -> Corpus:
    """Generate a gold-labeled corpus; optionally write it to ``path``.

    Publication years spread evenly over the eligibility window.
    Deterministic for a given seed and effect: the same pair always
    yields byte-identical files.
    """
    if n_papers < 10:
        raise ValueError(f"n_papers must be >= 10, got {n_papers}")
    if not 0 <= effect < math.inf:
        raise ValueError(f"effect must be a finite number >= 0, got {effect}")

    rng = np.random.default_rng(seed)
    is_conceptual = rng.random(n_papers) < _CONCEPTUAL_FRAC
    want_refs = 11 + rng.poisson(_EXTRA_REFS_MEAN, size=n_papers)
    n_authors = 1 + rng.poisson(2.0, size=n_papers)
    stream = _FloatStream(rng)
    refs_by_paper = _generate_references(n_papers, stream, want_refs, is_conceptual, effect)

    year_min = EligibilityCriteria.year_min
    span = EligibilityCriteria.year_max - year_min + 1
    journals = [f"Synthetic Journal {k:02d}" for k in range(_N_JOURNALS)]
    titles: list[str] = []
    abstracts: list[str] = []
    for i, conceptual in enumerate(is_conceptual.tolist()):
        t1 = _TOPICS[stream.pick(len(_TOPICS))]
        t2 = _TOPICS[(stream.pick(len(_TOPICS) - 1) + _TOPICS.index(t1) + 1) % len(_TOPICS)]
        titles.append(f"Paper {i:06d} on {t1} and {t2}")
        abstracts.append(_abstract(stream, conceptual))
    # Built as columns: the references are paper indices, which serve as
    # codes into the id column, and every value is valid by construction.
    ids = tuple(map(_paper_id, range(n_papers)))
    ref_offsets, refs = _flatten(refs_by_paper)
    corpus = Corpus(
        ids=ids,
        title=tuple(titles),
        abstract=tuple(abstracts),
        journal=tuple(journals[i % _N_JOURNALS] for i in range(n_papers)),
        gold_label=tuple("conceptual" if c else "empirical" for c in is_conceptual.tolist()),
        year=year_min + (np.arange(n_papers, dtype=np.int64) * span) // n_papers,
        n_authors=n_authors.astype(np.int64),
        ref_offsets=ref_offsets,
        ref_codes=refs,
        ref_strings=ids,
    )
    order, _ = id_order(ids)
    if order is not None:  # beyond 10**6 papers the ids do not sort numerically
        corpus = corpus.take(np.array(order, dtype=np.int64))
    if path is not None:
        write_corpus(corpus, path)
    return corpus


def synth_graph(n_nodes: int, seed: int) -> CitationGraph:
    """Topology-only variant for scale tests and benchmarks: the same
    attachment process with no labels, no planted effect, and no text."""
    if n_nodes < 2:
        raise ValueError(f"n_nodes must be >= 2, got {n_nodes}")
    rng = np.random.default_rng(seed)
    is_conceptual = np.zeros(n_nodes, dtype=bool)
    want_refs = 11 + rng.poisson(_EXTRA_REFS_MEAN, size=n_nodes)
    stream = _FloatStream(rng)
    refs_by_paper = _generate_references(n_nodes, stream, want_refs, is_conceptual, 0.0)
    offsets, src = _flatten(refs_by_paper)
    dst = np.repeat(np.arange(n_nodes, dtype=np.int64), np.diff(offsets))
    ids = tuple(_paper_id(i) for i in range(n_nodes))
    return from_edge_arrays(ids, src, dst)
