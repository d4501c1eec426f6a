"""A Corpus's columns as plain lists, the form tests compare them in, and
the graph, abstract lengths and eligible ids of an in-memory Corpus."""

import numpy as np

from disruptkit.corpus import eligible_ids
from disruptkit.graph import build_graph

FIELDS = ("id", "title", "abstract", "journal", "year", "n_authors", "references",
          "gold_label")


def references(corpus) -> list[tuple[str, ...]]:
    """Each row's references, as strings."""
    refs = [corpus.ref_strings[c] for c in corpus.ref_codes.tolist()]
    bounds = corpus.ref_offsets.tolist()
    return [tuple(refs[a:b]) for a, b in zip(bounds, bounds[1:])]


def columns(corpus) -> dict[str, list]:
    """Every column as a list, keyed by field name."""
    return {
        "id": list(corpus.ids), "title": list(corpus.title),
        "abstract": list(corpus.abstract), "journal": list(corpus.journal),
        "year": corpus.year.tolist(), "n_authors": corpus.n_authors.tolist(),
        "references": references(corpus), "gold_label": list(corpus.gold_label),
    }


def record_columns(records) -> dict[str, list]:
    """The same columns from records held as dicts, one entry per record."""
    return {name: [r[name] for r in records] for name in FIELDS}


def graph_of(corpus):
    """The citation network of the corpus's ids and references."""
    return build_graph(corpus.ids, corpus.ref_offsets, corpus.ref_codes, corpus.ref_strings)


def abstract_lengths(texts) -> np.ndarray:
    """Character count of each text, whitespace included, after
    normalizing CRLF/CR line endings to single characters, as an int64
    array: the oracle for corpus.load_char_counts, counted on str."""
    return np.array([len(text) - text.count("\r\n") for text in texts], dtype=np.int64)


def eligible_of(corpus, graph, criteria=None) -> list[str]:
    """eligible_ids on the corpus's years and abstract lengths."""
    return eligible_ids(graph, corpus.year, abstract_lengths(corpus.abstract), criteria)
