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

``parse_corpus`` is the one JSON-lines parser, for the raw input, and
``write_corpus`` writes that format back (the synthetic generator uses
it). Within a pipeline's output directory the corpus is kept as its
columns instead: ``save_corpus`` writes them as ``.npy`` files and
``load_corpus`` reads them back, so no stage after ingest decodes JSON.
They are the one copy of each record field: ``load_columns`` loads only
the named columns, from the files ``corpus_files`` names. ``save_columns``
is the file layout they share with the graph's files.
"""

from __future__ import annotations

import enum
import json
import logging
import os
import re
from array import array
from collections import defaultdict
from contextlib import contextmanager
from dataclasses import dataclass, fields
from itertools import filterfalse, islice, repeat, zip_longest
from operator import contains, itemgetter, lt
from pathlib import Path
from typing import IO, Iterable, Iterator, Mapping, Sequence

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
    if not _utf8_encodable((rec_id, obj["title"], obj["abstract"], obj["journal"], *refs)):
        return f"record {rec_id!r}: not encodable as UTF-8 (surrogates not allowed)"
    return None


# A string has no UTF-8 form when it holds a surrogate code point, which
# only a JSON escape such as "\ud800" can put in a decoded string.
_SURROGATE = re.compile("[\ud800-\udfff]")


def _utf8_encodable(strings: Iterable[str]) -> bool:
    """Whether every string has a UTF-8 form; ASCII ones are not searched."""
    return not any(map(_SURROGATE.search, filterfalse(str.isascii, strings)))


@dataclass(frozen=True, eq=False)
class Corpus:
    """Records as columns, one row per record, rows in ascending id order.

    Row i's references are ``ref_strings[c]`` for each code c in
    ``ref_codes[ref_offsets[i]:ref_offsets[i + 1]]``. ``ref_strings`` may
    hold strings no row refers to (after ``take``). The columns are
    validated when the corpus is built, so every string has a UTF-8 form,
    and are not to be modified.
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
    ``_record_problem`` checks. A file's leading byte-order mark is
    dropped.
    """
    if isinstance(source, (str, Path)):
        path = Path(source)
        with path.open("r", encoding="utf-8-sig") as fh:
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
            and not set(map(type, table)) - {str} and "" not in table
            and all(map(_utf8_encodable, (ids, titles, abstracts, journals, table))))


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


# A column file is np.save's format. A string column takes two: its
# strings' UTF-8 bytes end to end (<name>.npy, uint8) and int64 offsets,
# 0 first and then where each string's bytes end (<name>_offsets.npy).
# numpy's own str dtype drops trailing NULs, and object arrays would
# need pickle. Strings are written in chunks of about this many bytes.
_CHUNK_BYTES = 1 << 20


def _utf8_offsets(strings: Sequence[str]) -> np.ndarray:
    """Where each string's UTF-8 bytes end in their concatenation, after a 0."""
    n = len(strings)
    lengths = np.fromiter(map(len, strings), dtype=np.int64, count=n)
    ascii = np.fromiter(map(str.isascii, strings), dtype=bool, count=n)
    for k in np.flatnonzero(~ascii).tolist():
        lengths[k] = len(strings[k].encode("utf-8"))
    offsets = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(lengths, out=offsets[1:])
    return offsets


def save_columns(out_dir: str | Path,
                 columns: Mapping[str, np.ndarray | Sequence[str]]) -> list[Path]:
    """Write each array in ``columns`` as ``<name>.npy`` in out_dir and each
    string column as ``<name>.npy`` and ``<name>_offsets.npy``, each file
    with ``atomic_write``, and return their paths in that order. Every
    string is measured first, so a string with no UTF-8 form raises
    UnicodeEncodeError before any file is touched. The files depend only
    on the columns, so equal columns give byte-identical files."""
    out_dir = Path(out_dir)
    offsets = {name: _utf8_offsets(values) for name, values in columns.items()
               if not isinstance(values, np.ndarray)}
    paths = []
    for name, values in columns.items():
        path = out_dir / f"{name}.npy"
        # np.save given a file name would append ".npy" to it
        with atomic_write(path, binary=True) as fh:
            if isinstance(values, np.ndarray):
                np.save(fh, values, allow_pickle=False)
            else:
                _write_blob(fh, values, offsets[name])
        paths.append(path)
        if name in offsets:
            paths.append(out_dir / f"{name}_offsets.npy")
            with atomic_write(paths[-1], binary=True) as fh:
                np.save(fh, offsets[name], allow_pickle=False)
    return paths


def _write_blob(fh: IO[bytes], strings: Sequence[str], offsets: np.ndarray) -> None:
    """What np.save writes for the strings' UTF-8 bytes as one uint8 array,
    encoded a chunk of strings at a time."""
    np.lib.format.write_array_header_1_0(fh, {"descr": "|u1", "fortran_order": False,
                                              "shape": (int(offsets[-1]),)})
    k, n = 0, len(strings)
    while k < n:
        end = int(np.searchsorted(offsets, offsets[k] + _CHUNK_BYTES, side="right")) - 1
        end = max(end, k + 1)
        fh.write("".join(strings[k:end]).encode("utf-8"))
        k = end


def load_array(out_dir: Path, name: str) -> np.ndarray:
    """The array save_columns wrote as ``<name>.npy`` in out_dir."""
    return np.load(out_dir / f"{name}.npy", allow_pickle=False)


def load_strings(out_dir: Path, name: str) -> tuple[str, ...]:
    """A string column that save_columns wrote. ValueError names out_dir if
    its offsets do not end at the length of its bytes."""
    offsets = load_array(out_dir, f"{name}_offsets")
    blob = load_array(out_dir, name).tobytes()
    if offsets.ndim != 1 or not len(offsets) or offsets[-1] != len(blob):
        raise ValueError(f"{out_dir}: {name}_offsets.npy does not end at the length "
                         f"of {name}.npy")
    bounds = offsets.tolist()
    return tuple(blob[a:b].decode("utf-8") for a, b in zip(bounds, bounds[1:]))


_COLUMNS = tuple(f.name for f in fields(Corpus))
_STRING_COLUMNS = {"ids", "title", "abstract", "journal", "gold_label", "ref_strings"}


def corpus_files(columns: Iterable[str]) -> tuple[str, ...]:
    """The files save_corpus writes for the named Corpus columns, in that order."""
    return tuple(name for column in columns for name in (
        (f"corpus_{column}.npy", f"corpus_{column}_offsets.npy")
        if column in _STRING_COLUMNS else (f"corpus_{column}.npy",)))


# Every file save_corpus writes, in Corpus field order.
CORPUS_FILES = corpus_files(_COLUMNS)


def save_corpus(corpus: Corpus, out_dir: str | Path) -> list[Path]:
    """Write the corpus's columns as the CORPUS_FILES in out_dir (see
    save_columns); a missing gold label is stored as ""."""
    columns = {f"corpus_{column}": getattr(corpus, column) for column in _COLUMNS}
    columns["corpus_gold_label"] = tuple(g or "" for g in corpus.gold_label)
    return save_columns(out_dir, columns)


def load_columns(out_dir: str | Path, columns: Iterable[str]) -> dict:
    """The named columns save_corpus wrote in out_dir (``corpus_files(columns)``)
    by name, loaded one at a time; an empty gold label reads as None.
    ValueError names out_dir if they disagree on the row count."""
    out_dir = Path(out_dir)
    loaded = {column: (load_strings if column in _STRING_COLUMNS else load_array)(
        out_dir, f"corpus_{column}") for column in columns}
    # one entry per row in each column but the ref_* ones; ref_offsets has one more
    shapes = {(len(values),) if column in _STRING_COLUMNS else values.shape
              for column, values in loaded.items() if not column.startswith("ref_")}
    offsets = loaded.get("ref_offsets")
    if offsets is not None:
        shapes.add(tuple(size - 1 for size in offsets.shape))
    agree = len(shapes) <= 1 and all(len(shape) == 1 and shape[0] >= 0 for shape in shapes)
    if agree and offsets is not None and "ref_codes" in loaded:
        agree = loaded["ref_codes"].shape == (offsets[-1],)
    if not agree:
        raise ValueError(f"{out_dir}: corpus files disagree on the row count")
    if "gold_label" in loaded:
        loaded["gold_label"] = tuple(g or None for g in loaded["gold_label"])
    return loaded


def load_corpus(out_dir: str | Path) -> Corpus:
    """Every column save_corpus wrote in out_dir (see load_columns)."""
    return Corpus(**load_columns(out_dir, _COLUMNS))


def write_corpus(corpus: Corpus, path: str | Path) -> None:
    """Serialize records, one JSON object per line, in id order; each line
    is what ``json.dumps(obj, ensure_ascii=False)`` gives for the object
    with keys ``id, title, abstract, journal, year, n_authors, references``
    in that order, then ``gold_label`` if the row has one. The file is
    written with ``atomic_write``.
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
            fh.write(line)


def read_allowlist(path: str | Path) -> set[str]:
    """Journal allowlist: one name per line, exact match after trimming.
    A leading byte-order mark, as spreadsheets write, is dropped."""
    names: set[str] = set()
    with Path(path).open("r", encoding="utf-8-sig") as fh:
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
