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

After the per-paper labels and counts, every random choice takes the
next float of one stream (``_float_stream``): the references first,
then each paper's title and abstract. So a seed and an effect fix every
output byte, and tests/test_synth.py pins the digests of a few corpora
and of one graph. An abstract sentence is one template with two topics;
``synth_corpus`` formats each such sentence once per call, into a table
of (sentence, length), and an abstract picks its sentences from it.
"""

from __future__ import annotations

import math
from collections.abc import Callable
from itertools import chain
from pathlib import Path

import numpy as np

from .corpus import Corpus, EligibilityCriteria, id_order, write_corpus
from .graph import CitationGraph, from_edge_arrays

_BLOCK = 1 << 12  # floats per draw from the Generator: 128 KiB as a list

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


def _float_stream(rng: np.random.Generator) -> Callable[[], float]:
    """A draw function: each call returns the next uniform float of rng
    as a Python float. The floats come from rng ``_BLOCK`` at a time, are
    converted by ``tolist`` and handed out in order through one iterator,
    so a draw costs one C-level call and makes no numpy scalar. The
    sequence is the one ``rng.random`` gives, whatever the block size."""
    blocks = iter(lambda: rng.random(_BLOCK).tolist(), None)
    return chain.from_iterable(blocks).__next__


def _generate_references(
    n: int,
    draw: Callable[[], float],
    want_refs: list[int],
    is_conceptual: list[bool],
    effect: float,
) -> list[list[int]]:
    """Reference lists per paper, chronological, mixed attachment with
    the two planted mechanisms described in the module docstring."""
    refs_by_paper: list[list[int]] = []
    pool: list[int] = []
    to_pool = pool.append
    accept_empirical = 1.0 / (1.0 + effect)
    follow_reduced = _FOLLOW_PROB / (1.0 + effect)
    recency_cut = _UNIFORM_MIX + _RECENCY_MIX
    label_effect = effect > 0.0
    for i in range(n):
        want = min(want_refs[i], i)
        refs: list[int] = []
        chosen: set[int] = set()
        take, mark = refs.append, chosen.add
        accepted = attempts = 0
        window = min(i, max(25, i // 5))
        # Rejection sampling can stall on duplicate-heavy small pools,
        # so a soft cap lifts the label rejection and a hard cap stops
        # the search; a short reference list is acceptable output.
        soft_cap = 30 * want + 30
        hard_cap = 60 * want + 60
        while accepted < want and attempts < hard_cap:
            attempts += 1
            branch = draw()
            if branch < _UNIFORM_MIX:
                r = int(draw() * i)
            elif branch < recency_cut:
                r = i - window + int(draw() * window)
            else:
                r = pool[int(draw() * len(pool))]
            if label_effect and not is_conceptual[r] and attempts <= soft_cap:
                if draw() >= accept_empirical:
                    continue
            if r in chosen:
                continue
            mark(r)
            take(r)
            to_pool(r)
            accepted += 1
            anchor_refs = refs_by_paper[r]
            if anchor_refs and accepted < want:
                p_follow = follow_reduced if is_conceptual[r] else _FOLLOW_PROB
                if draw() < p_follow:
                    x = anchor_refs[int(draw() * len(anchor_refs))]
                    if x not in chosen:
                        mark(x)
                        take(x)
                        to_pool(x)
                        accepted += 1
        refs_by_paper.append(refs)
        to_pool(i)
    return refs_by_paper


def _flatten(refs_by_paper: list[list[int]]) -> tuple[np.ndarray, np.ndarray]:
    """(offsets, referenced paper indices): paper i's references are
    refs[offsets[i]:offsets[i + 1]]."""
    offsets = np.zeros(len(refs_by_paper) + 1, dtype=np.int64)
    np.cumsum(np.fromiter(map(len, refs_by_paper), dtype=np.int64, count=len(refs_by_paper)),
              out=offsets[1:])
    refs = np.fromiter(chain.from_iterable(refs_by_paper), dtype=np.int64, count=offsets[-1])
    return offsets, refs


def _sentence_table(templates: tuple[str, ...]) -> list[tuple[str, int]]:
    """Every sentence a template and two topics give, with its length, at
    index ``(template * len(_TOPICS) + t1) * len(_TOPICS) + t2``."""
    return [(sentence, len(sentence))
            for template in templates for t1 in _TOPICS for t2 in _TOPICS
            for sentence in (template.format(t1=t1, t2=t2),)]


def _abstract(draw: Callable[[], float], table: list[tuple[str, int]]) -> str:
    """Sentences drawn from one label's table, each as a template and two
    topics in that order, until the abstract meets the length floor."""
    n_topics = len(_TOPICS)
    n_templates = len(table) // n_topics ** 2
    sentences: list[str] = []
    length = -1  # the first sentence needs no separating space
    while length < EligibilityCriteria.min_abstract_chars:
        template = int(draw() * n_templates)
        t1 = int(draw() * n_topics)
        sentence, chars = table[(template * n_topics + t1) * n_topics + int(draw() * n_topics)]
        length += chars + 1
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
    is_conceptual = (rng.random(n_papers) < _CONCEPTUAL_FRAC).tolist()
    want_refs = (11 + rng.poisson(_EXTRA_REFS_MEAN, size=n_papers)).tolist()
    n_authors = 1 + rng.poisson(2.0, size=n_papers)
    draw = _float_stream(rng)
    refs_by_paper = _generate_references(n_papers, draw, want_refs, is_conceptual, effect)

    year_min = EligibilityCriteria.year_min
    span = EligibilityCriteria.year_max - year_min + 1
    journals = [f"Synthetic Journal {k:02d}" for k in range(_N_JOURNALS)]
    tables = {True: _sentence_table(_CONCEPTUAL_TEMPLATES),
              False: _sentence_table(_EMPIRICAL_TEMPLATES)}
    n_topics = len(_TOPICS)
    titles: list[str] = []
    abstracts: list[str] = []
    for i, conceptual in enumerate(is_conceptual):
        t1 = int(draw() * n_topics)
        t2 = (int(draw() * (n_topics - 1)) + t1 + 1) % n_topics  # any topic but t1
        titles.append(f"Paper {i:06d} on {_TOPICS[t1]} and {_TOPICS[t2]}")
        abstracts.append(_abstract(draw, tables[conceptual]))
    # Built as columns: the references are paper indices, which serve as
    # codes into the id column, and every value is valid by construction.
    ids = tuple(map(_paper_id, range(n_papers)))
    ref_offsets, refs = _flatten(refs_by_paper)
    corpus = Corpus(
        ids=ids,
        title=tuple(titles),
        abstract=tuple(abstracts),
        journal=tuple(journals[i % _N_JOURNALS] for i in range(n_papers)),
        gold_label=tuple("conceptual" if c else "empirical" for c in is_conceptual),
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
    want_refs = (11 + rng.poisson(_EXTRA_REFS_MEAN, size=n_nodes)).tolist()
    refs_by_paper = _generate_references(n_nodes, _float_stream(rng), want_refs,
                                         [False] * n_nodes, 0.0)
    offsets, src = _flatten(refs_by_paper)
    dst = np.repeat(np.arange(n_nodes, dtype=np.int64), np.diff(offsets))
    ids = tuple(_paper_id(i) for i in range(n_nodes))
    return from_edge_arrays(ids, src, dst)
