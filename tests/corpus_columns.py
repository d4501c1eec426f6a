"""A Corpus's columns as plain lists, the form tests compare them in."""

from dataclasses import fields

from disruptkit.corpus import PaperRecord

FIELDS = tuple(f.name for f in fields(PaperRecord))


def references(corpus) -> list[tuple[str, ...]]:
    """Each row's references, as strings."""
    refs = [corpus.ref_strings[c] for c in corpus.ref_codes.tolist()]
    bounds = corpus.ref_offsets.tolist()
    return [tuple(refs[a:b]) for a, b in zip(bounds, bounds[1:])]


def columns(corpus) -> dict[str, list]:
    """Every column as a list, keyed by PaperRecord field name."""
    return {
        "id": list(corpus.ids), "title": list(corpus.title),
        "abstract": list(corpus.abstract), "journal": list(corpus.journal),
        "year": corpus.year.tolist(), "n_authors": corpus.n_authors.tolist(),
        "references": references(corpus), "gold_label": list(corpus.gold_label),
    }


def record_columns(records) -> dict[str, list]:
    """The same columns from PaperRecords, one entry per record."""
    return {name: [getattr(r, name) for r in records] for name in FIELDS}

