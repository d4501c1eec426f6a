"""Bibliographic records: parsing, validation, journal filtering, and
per-record derived attributes (year group, abstract length, eligibility).

The corpus file format is line-delimited JSON, one record per line, with
fields ``id, title, abstract, journal, year, n_authors, references`` and an
optional ``gold_label``.

A parsed ``Corpus`` is a column table with its rows in ascending id
order, so row i is node i of the graph built from it. References are
stored once: each distinct reference string has an integer code, and a
row's references are a run of codes (deduplicated in first-seen order,
the record's own id dropped) between two offsets. ``_record_problem``
states every rule a record must meet, in the order the rules are checked,
and words each message.
"""

from __future__ import annotations

import enum
import json
import logging
import os
from array import array
from collections import defaultdict
from contextlib import contextmanager
from dataclasses import dataclass
from itertools import islice, repeat, zip_longest
from operator import contains, itemgetter, lt
from pathlib import Path
from typing import IO, Iterable, Iterator, Sequence

import numpy as np

logger = logging.getLogger(__name__)

YEAR_FLOOR = 1800
YEAR_CEIL = 2100

# n_authors is kept in an int64 column.
N_AUTHORS_MAX = np.iinfo(np.int64).max

GOLD_LABELS = ("conceptual", "empirical")

_REQUIRED_FIELDS = ("id", "title", "abstract", "journal", "year", "n_authors", "references")


def _normalize_gold(gold):
    return gold.strip().lower() if isinstance(gold, str) else gold


def _record_problem(obj) -> str | None:
    """The message of the first check a decoded record fails, or None if
    it passes them all. A record's references may repeat and may hold its
    own id; parsing drops both."""
    if not isinstance(obj, dict):
        return "record must be a JSON object"
    missing = [k for k in _REQUIRED_FIELDS if k not in obj]
    if missing:
        return f"missing field(s): {', '.join(missing)}"
    refs = obj["references"]
    if not isinstance(refs, list):
        return "references must be a list"
    rec_id = obj["id"]
    bad_refs = f"record {rec_id!r}: references must be non-empty strings"
    # Hashing a list or an object raises TypeError. One equal to the id
    # (a list or an object too, then) is a self-reference and is dropped
    # unchecked, so the id's own check words that record.
    try:
        {ref for ref in refs if ref != rec_id}
    except TypeError:
        return bad_refs
    if not isinstance(rec_id, str) or not rec_id:
        return "record id must be a non-empty string"
    if not _one_line_id(rec_id):
        return f"record {rec_id!r}: id must have no surrounding whitespace or line break"
    for name in ("title", "abstract", "journal"):
        if not isinstance(obj[name], str):
            return f"record {rec_id!r}: {name} must be a string"
    year, n_authors = obj["year"], obj["n_authors"]
    if not isinstance(year, int) or isinstance(year, bool):
        return f"record {rec_id!r}: year must be an integer"
    if not YEAR_FLOOR <= year <= YEAR_CEIL:
        return f"record {rec_id!r}: year {year} outside [{YEAR_FLOOR}, {YEAR_CEIL}]"
    if not isinstance(n_authors, int) or isinstance(n_authors, bool):
        return f"record {rec_id!r}: n_authors must be an integer"
    if n_authors < 1:
        return f"record {rec_id!r}: n_authors must be >= 1"
    if n_authors > N_AUTHORS_MAX:
        return f"record {rec_id!r}: n_authors must be <= {N_AUTHORS_MAX}"
    if not _valid_gold(obj.get("gold_label")):
        return f"record {rec_id!r}: gold_label must be one of {GOLD_LABELS}"
    if not all(isinstance(ref, str) and ref for ref in refs):
        return bad_refs
    return None


@dataclass(frozen=True, eq=False)
class Corpus:
    """Records as columns, one row per record, rows in ascending id order.

    Row i's references are ``ref_strings[c]`` for each code c in
    ``ref_codes[ref_offsets[i]:ref_offsets[i + 1]]``. ``ref_strings`` may
    hold strings no row refers to (after ``take``). The columns are
    validated when the corpus is built and are not to be modified.
    """

    ids: tuple[str, ...]
    title: tuple[str, ...]
    abstract: tuple[str, ...]
    journal: tuple[str, ...]
    gold_label: tuple[str | None, ...]
    year: np.ndarray
    n_authors: np.ndarray
    ref_offsets: np.ndarray
    ref_codes: np.ndarray
    ref_strings: tuple[str, ...]

    def __len__(self) -> int:
        return len(self.ids)

    def positions(self, ids: Iterable[str]) -> np.ndarray:
        """The row of each id; KeyError names the first id not in the
        corpus."""
        ids = tuple(ids)
        if ids == self.ids:
            return np.arange(len(ids), dtype=np.int64)
        row = dict(zip(self.ids, range(len(self.ids))))
        out = np.fromiter(map(row.get, ids, repeat(-1)), dtype=np.int64, count=len(ids))
        if len(out) and out.min() < 0:
            raise KeyError(ids[int(np.argmin(out))])
        return out

    def take(self, rows: np.ndarray) -> "Corpus":
        """The given rows, in the order given, sharing ``ref_strings``.
        Keep them ascending to keep the id order."""
        rows = np.asarray(rows, dtype=np.int64)
        picked = rows.tolist()
        starts = self.ref_offsets[rows]
        counts = self.ref_offsets[rows + 1] - starts
        offsets = np.zeros(len(rows) + 1, dtype=np.int64)
        np.cumsum(counts, out=offsets[1:])
        gather = np.arange(offsets[-1], dtype=np.int64) + np.repeat(starts - offsets[:-1], counts)

        def pick(column: tuple) -> tuple:
            return tuple(map(column.__getitem__, picked))

        return Corpus(
            ids=pick(self.ids), title=pick(self.title), abstract=pick(self.abstract),
            journal=pick(self.journal), gold_label=pick(self.gold_label),
            year=self.year[rows], n_authors=self.n_authors[rows],
            ref_offsets=offsets, ref_codes=self.ref_codes[gather],
            ref_strings=self.ref_strings,
        )


def parse_corpus(source: str | Path | IO[str] | Iterable[str]) -> Corpus:
    """Parse line-delimited records into a Corpus.

    Raises ValueError with the 1-based line number for malformed lines and
    names the offending id for duplicates. Of several faults the one on
    the lowest line is reported, and within a line the first that
    ``_record_problem`` checks.
    """
    if isinstance(source, (str, Path)):
        path = Path(source)
        with path.open("r", encoding="utf-8") as fh:
            return _parse_lines(fh, source_name=str(path))
    return _parse_lines(source, source_name=getattr(source, "name", "<stream>"))


def _parse_lines(lines: Iterable[str], source_name: str) -> Corpus:
    # Decode into columns, reference strings into codes. A line that is
    # not a record with those fields ends the scan; the lines before it
    # are then checked by column, and the lowest bad line is reported.
    scalar_fields = itemgetter("id", "title", "abstract", "journal", "year", "n_authors")
    # Looking a string up in the table gives it the next code if it has none.
    table: defaultdict = defaultdict()
    table.default_factory = table.__len__
    code = table.__getitem__
    rows: list[tuple] = []
    golds: list = []
    linenos: list[int] = []
    codes = array("q")
    offsets = array("q", [0])
    stop: tuple[int, str] | None = None
    for lineno, line in enumerate(lines, start=1):
        if not line or line.isspace():
            continue
        try:
            obj = json.loads(line)
        except json.JSONDecodeError as exc:
            stop = lineno, f"invalid JSON ({exc.msg})"
            break
        try:
            row = scalar_fields(obj)
            refs = obj["references"]
            if type(refs) is not list:
                raise TypeError("references must be a list")
            codes.extend(map(code, refs))  # TypeError on an unhashable reference
        except (KeyError, TypeError):
            stop = lineno, _record_problem(obj)
            break
        rows.append(row)
        golds.append(obj.get("gold_label"))
        linenos.append(lineno)
        offsets.append(len(codes))

    n = len(rows)
    columns = list(zip(*rows)) if rows else [()] * 6
    del rows
    ids, titles, abstracts, journals, years, n_authors = columns
    ref_offsets = np.array(offsets, dtype=np.int64)
    ref_codes = np.array(codes[:ref_offsets[-1]], dtype=np.int64)
    del codes

    def fail(row: int, message: str) -> ValueError:
        return ValueError(f"{source_name}: line {linenos[row]}: {message}")

    bad = problem = None
    if not _columns_valid(columns, golds, table):
        # A row fails a check, or else the stop line put a bad reference
        # in the table before it ended the scan.
        keys = list(table)
        bounds = ref_offsets.tolist()
        for row in range(n):
            problem = _record_problem(dict(
                zip(_REQUIRED_FIELDS[:6], (column[row] for column in columns)),
                references=[keys[c] for c in ref_codes[bounds[row]:bounds[row + 1]].tolist()],
                gold_label=golds[row]))
            if problem is not None:
                bad = row
                break
    valid = n if bad is None else bad
    order, dup = id_order(ids[:valid])
    if dup is not None:
        raise fail(dup, f"duplicate id {ids[dup]!r}")
    if bad is not None:
        raise fail(bad, problem)
    if stop is not None:
        raise ValueError(f"{source_name}: line {stop[0]}: {stop[1]}")

    ref_offsets, ref_codes = _dedupe_references(ids, ref_offsets, ref_codes, table)
    if set(golds) <= {None, *GOLD_LABELS}:
        gold = tuple(golds)
    else:
        gold = tuple(map(_normalize_gold, golds))
    corpus = Corpus(
        ids=ids, title=titles, abstract=abstracts, journal=journals, gold_label=gold,
        year=np.array(years, dtype=np.int64), n_authors=np.array(n_authors, dtype=np.int64),
        ref_offsets=ref_offsets, ref_codes=ref_codes, ref_strings=tuple(table),
    )
    return corpus if order is None else corpus.take(order)


def _columns_valid(columns: list[tuple], golds: list, table: dict) -> bool:
    """Whether every row passes ``_record_problem``'s checks, each tested
    a whole column at a time. ``table`` holds every reference string the
    rows hold, and may hold more."""
    ids, titles, abstracts, journals, years, n_authors = columns
    if any(set(map(type, column)) - {str} for column in (ids, titles, abstracts, journals)):
        return False
    # The joined ids hold a line break if any id does.
    if "" in ids or not _one_line_id("".join(ids)) or tuple(map(str.strip, ids)) != ids:
        return False
    for column, lo, hi in ((years, YEAR_FLOOR, YEAR_CEIL), (n_authors, 1, N_AUTHORS_MAX)):
        if column and (set(map(type, column)) - {int} or min(column) < lo or max(column) > hi):
            return False
    try:
        distinct_golds = set(golds)
    except TypeError:  # an unhashable gold_label: a list or an object
        return False
    return (all(map(_valid_gold, distinct_golds))
            and not set(map(type, table)) - {str} and "" not in table)


def _one_line_id(paper_id: str) -> bool:
    """Whether eligible.txt, which holds one id per line and strips each
    line, gives the id back unchanged."""
    return paper_id == paper_id.strip() and "\r" not in paper_id and "\n" not in paper_id


def _valid_gold(gold) -> bool:
    return gold is None or _normalize_gold(gold) in GOLD_LABELS


def id_order(ids: tuple[str, ...]) -> tuple[list[int] | None, int | None]:
    """(rows in id order, or None if already in it; the first row whose
    id an earlier row has, or None)."""
    if all(map(lt, ids, islice(ids, 1, None))):
        return None, None
    order = sorted(range(len(ids)), key=ids.__getitem__)
    dups = [later for earlier, later in zip(order, islice(order, 1, None))
            if ids[earlier] == ids[later]]
    return order, min(dups, default=None)


def _dedupe_references(ids: tuple[str, ...], offsets: np.ndarray, codes: np.ndarray,
                       table: dict) -> tuple[np.ndarray, np.ndarray]:
    """Drop each row's self-references and every repeat of a reference
    within a row, keeping first-seen order."""
    n = len(ids)
    row = np.repeat(np.arange(n, dtype=np.int64), np.diff(offsets))
    own = np.fromiter(map(table.get, ids, repeat(-1)), dtype=np.int64, count=n)
    keep = codes != own[row]
    key = row * len(table) + codes
    kept = np.sort(key[keep])
    if (kept[1:] == kept[:-1]).any():
        by_key = np.argsort(key, kind="stable")
        sorted_key = key[by_key]
        keep[by_key[1:][sorted_key[1:] == sorted_key[:-1]]] = False
    if keep.all():
        return offsets, codes
    new_offsets = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(np.bincount(row[keep], minlength=n), out=new_offsets[1:])
    return new_offsets, codes[keep]


@contextmanager
def atomic_write(path: str | Path, binary: bool = False) -> Iterator[IO]:
    """Open a file for writing ``path``: UTF-8 text with no newline
    translation, or bytes if ``binary``. It is written aside and renamed
    over ``path`` when the block ends, so a write that fails midway
    leaves any earlier file whole and no temporary file behind."""
    path = Path(path)
    tmp = path.with_name(f".{path.name}.tmp")
    try:
        with (tmp.open("wb") if binary
              else tmp.open("w", encoding="utf-8", newline="")) as fh:
            yield fh
        os.replace(tmp, path)
    finally:
        tmp.unlink(missing_ok=True)


def write_corpus(corpus: Corpus, path: str | Path) -> None:
    """Serialize records, one JSON object per line, in id order; each line
    is what ``json.dumps(obj, ensure_ascii=False)`` gives for the object
    with keys ``id, title, abstract, journal, year, n_authors, references``
    in that order, then ``gold_label`` if the row has one.

    The file is written with ``atomic_write``. A record that cannot be
    encoded as UTF-8 (a lone surrogate) raises ValueError naming its id.
    """
    quote = json.encoder.encode_basestring
    refs = np.array([quote(s) for s in corpus.ref_strings], dtype=object)
    refs = refs[corpus.ref_codes].tolist()
    bounds = corpus.ref_offsets.tolist()
    gold_tail = {g: "" if g is None else f', "gold_label": {quote(g)}'
                 for g in set(corpus.gold_label)}
    with atomic_write(path) as fh:
        for k, (paper_id, title, abstract, journal, year, n_authors, gold) in enumerate(zip(
                corpus.ids, corpus.title, corpus.abstract, corpus.journal,
                corpus.year.tolist(), corpus.n_authors.tolist(), corpus.gold_label)):
            line = (f'{{"id": {quote(paper_id)}, "title": {quote(title)}, '
                    f'"abstract": {quote(abstract)}, "journal": {quote(journal)}, '
                    f'"year": {year}, "n_authors": {n_authors}, '
                    f'"references": [{", ".join(refs[bounds[k]:bounds[k + 1]])}]'
                    f'{gold_tail[gold]}}}\n')
            try:
                fh.write(line)
            except UnicodeEncodeError as exc:
                raise ValueError(
                    f"record {paper_id!r}: not encodable as UTF-8 ({exc.reason})"
                ) from exc


def read_allowlist(path: str | Path) -> set[str]:
    """Journal allowlist: one name per line, exact match after trimming."""
    names: set[str] = set()
    with Path(path).open("r", encoding="utf-8") as fh:
        for line in fh:
            name = line.strip()
            if name:
                names.add(name)
    return names


def filter_journals(corpus: Corpus, allowlist: set[str]) -> Corpus:
    """Keep only records whose journal is in the allowlist."""
    if not allowlist:
        raise ValueError("journal allowlist must be non-empty")
    kept = corpus.take(np.flatnonzero(np.fromiter(
        map(allowlist.__contains__, corpus.journal), dtype=bool, count=len(corpus))))
    dropped = len(corpus) - len(kept)
    if dropped:
        logger.info(
            "filter_journals: dropped %d of %d records outside the %d allowed journals",
            dropped,
            len(corpus),
            len(allowlist),
        )
    return kept


class YearGroup(enum.IntEnum):
    """Five-year publication cohorts, ordered by start year."""

    G1991_1995 = 1991
    G1996_2000 = 1996
    G2001_2005 = 2001
    G2006_2010 = 2006
    G2011_2015 = 2011
    G2016_2020 = 2016

    @property
    def start(self) -> int:
        return int(self.value)

    @property
    def end(self) -> int:
        return int(self.value) + 4

    @property
    def label(self) -> str:
        return f"{self.start}-{self.end}"


def abstract_lengths(texts: Sequence[str]) -> np.ndarray:
    """Character count of each abstract, whitespace included, after
    normalizing CRLF/CR line endings to single characters, as an int64
    array."""
    chars = np.fromiter(map(len, texts), dtype=np.int64, count=len(texts))
    # Each CRLF pair counts once. Counting pairs is several times slower
    # than finding no "\r", so only texts holding one are counted.
    has_cr = np.fromiter(map(contains, texts, repeat("\r")), dtype=bool, count=len(texts))
    for k in np.flatnonzero(has_cr).tolist():
        chars[k] -= texts[k].count("\r\n")
    return chars


@dataclass(frozen=True)
class EligibilityCriteria:
    """Thresholds are minimum counts: the defaults encode 'strictly more
    than 10 links' and 'strictly more than 500 characters'."""

    min_out_links: int = 11
    min_in_links: int = 11
    year_min: int = 1991
    year_max: int = 2020
    min_abstract_chars: int = 501

    def __post_init__(self):
        for name in ("min_out_links", "min_in_links", "min_abstract_chars"):
            if getattr(self, name) < 0:
                raise ValueError(f"{name} must be >= 0")
        if self.year_min > self.year_max:
            raise ValueError("year_min must be <= year_max")


def check_node_rows(corpus: Corpus, graph) -> None:
    """Raise ValueError, naming the first node that differs, unless node i
    of the graph is row i of the corpus for every i."""
    if graph.ids == corpus.ids:
        return
    k = next(i for i, (node, row) in enumerate(zip_longest(graph.ids, corpus.ids))
             if node != row)
    if k < len(graph.ids):
        raise ValueError(f"graph node {graph.ids[k]!r} missing from corpus row {k}")
    raise ValueError(f"corpus row {k} ({corpus.ids[k]!r}) is not a graph node")


def eligible_ids(corpus: Corpus, graph, criteria: EligibilityCriteria | None = None) -> list[str]:
    """Ids meeting all eligibility thresholds, ascending.

    out_deg counts a paper's in-corpus references, in_deg its in-corpus
    citers; both must meet the minima, the year must fall in range, and
    the abstract must be long enough. Node i of the graph must be row i
    of the corpus (see ``check_node_rows``).
    """
    criteria = criteria or EligibilityCriteria()
    check_node_rows(corpus, graph)
    year = corpus.year
    keep = ((graph.out_deg >= criteria.min_out_links) & (graph.in_deg >= criteria.min_in_links)
            & (year >= criteria.year_min) & (year <= criteria.year_max)
            & (abstract_lengths(corpus.abstract) >= criteria.min_abstract_chars))
    out = list(map(graph.ids.__getitem__, np.flatnonzero(keep).tolist()))
    out.sort()
    return out
