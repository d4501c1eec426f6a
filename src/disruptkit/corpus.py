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
columns instead: ``save_corpus`` writes them as ``.npy`` files, so no
stage after ingest decodes JSON. They are the one copy of each record
field, and a stage reads only what it uses: ``load_columns`` loads only
the named columns, from the files ``corpus_files`` names, and of a
string column it decodes only the rows asked for. ``load_char_counts``
counts each row's characters from a string column's UTF-8 bytes without
decoding any. Both read a string column's bytes a chunk of rows at a
time. ``save_columns`` is the file layout they share with the graph's
files, and ``load_corpus`` reads back every column.
"""

from __future__ import annotations

import enum
import io
import json
import logging
import os
import re
from array import array
from collections import defaultdict
from contextlib import contextmanager
from dataclasses import dataclass, fields
from itertools import filterfalse, islice, repeat
from operator import itemgetter, lt
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
    dropped, and a byte that is not UTF-8 is a fault of its line.
    """
    if not isinstance(source, (str, Path)):
        return _parse_lines(source, source_name=getattr(source, "name", "<stream>"))
    path = Path(source)
    try:
        with path.open("r", encoding="utf-8-sig") as fh:
            return _parse_lines(fh, source_name=str(path))
    except UnicodeDecodeError:
        fault = utf8_fault(path, path.read_bytes())
        if fault is None:  # the file changed since the failed read
            raise
    before, message = fault
    _parse_lines(before, source_name=str(path))
    raise ValueError(message)


def utf8_fault(path: Path, data: bytes) -> tuple[list[str], str] | None:
    """None if ``data``, the bytes of file ``path``, is UTF-8. Else the
    lines before the line of its first bad byte, split as a text-mode
    read splits them (universal newlines, a leading byte-order mark
    dropped), and a message that names that line and byte."""
    try:
        data.decode("utf-8-sig")
    except UnicodeDecodeError as exc:
        # exc.object is data without its byte-order mark; the "-" makes
        # the bad byte's own line the last line, even at a line's start.
        lines = io.StringIO(exc.object[:exc.start].decode("utf-8") + "-",
                            newline=None).readlines()
        return lines[:-1], (f"{path}: line {len(lines)}: not UTF-8 "
                            f"(byte {exc.object[exc.start]:#04x})")
    return None


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
# need pickle. Strings are written and read in chunks of whole rows of
# about this many bytes.
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


def _row_chunks(offsets: np.ndarray) -> Iterator[tuple[int, int]]:
    """Successive row ranges [k, end) of a string column with these
    offsets, each of about _CHUNK_BYTES of strings and one row at least."""
    k, n = 0, len(offsets) - 1
    while k < n:
        end = int(np.searchsorted(offsets, offsets[k] + _CHUNK_BYTES, side="right")) - 1
        end = max(end, k + 1)
        yield k, end
        k = end


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
    for k, end in _row_chunks(offsets):
        fh.write("".join(strings[k:end]).encode("utf-8"))


def load_array(out_dir: Path, name: str) -> np.ndarray:
    """The array save_columns wrote as ``<name>.npy`` in out_dir."""
    return np.load(out_dir / f"{name}.npy", allow_pickle=False)


def _string_offsets(out_dir: Path, name: str) -> np.ndarray:
    """The offsets of a string column that save_columns wrote. Rows are
    found by them, so ValueError names out_dir and the file if they do
    not start at 0 or decrease anywhere."""
    offsets = load_array(out_dir, f"{name}_offsets")
    if offsets.ndim != 1 or not len(offsets) or offsets[0] != 0:
        raise ValueError(f"{out_dir}: {name}_offsets.npy does not start at 0")
    drops = np.flatnonzero(offsets[1:] < offsets[:-1])
    if len(drops):
        raise ValueError(f"{out_dir}: {name}_offsets.npy puts the end of row {drops[0]} "
                         "before its start")
    return offsets


def _read_chunks(out_dir: Path, name: str,
                 offsets: np.ndarray) -> Iterator[tuple[int, int, bytes]]:
    """(k, end, the bytes of rows k to end - 1) for each of the
    ``_row_chunks`` of a string column, read from ``<name>.npy`` one chunk
    at a time. ValueError names out_dir if the file does not hold
    ``offsets[-1]`` bytes."""
    fmt = np.lib.format
    with (out_dir / f"{name}.npy").open("rb") as fh:
        version = fmt.read_magic(fh)
        read_header = fmt.read_array_header_1_0 if version == (1, 0) else fmt.read_array_header_2_0
        shape, _, dtype = read_header(fh)
        if dtype != np.uint8 or shape != (int(offsets[-1]),):
            raise ValueError(f"{out_dir}: {name}_offsets.npy does not end at the length "
                             f"of {name}.npy")
        for k, end in _row_chunks(offsets):
            size = int(offsets[end] - offsets[k])
            data = fh.read(size)
            if len(data) != size:
                raise ValueError(f"{out_dir}: {name}.npy ends before its header says")
            yield k, end, data


def load_strings(out_dir: Path, name: str, rows: Sequence[int] | None = None) -> tuple[str, ...]:
    """A string column that save_columns wrote, or only the given rows of
    it, which must be ascending. Its bytes are read a chunk of rows at a
    time and only the rows asked for are decoded. ValueError names out_dir
    if its offsets do not start at 0, decrease, or do not end at the
    length of its bytes, or if the rows are not ascending rows of it."""
    offsets = _string_offsets(out_dir, name)
    n = len(offsets) - 1
    if rows is not None:
        wanted = np.asarray(rows, dtype=np.int64)
        if len(wanted) and not (0 <= wanted[0] and wanted[-1] < n
                                and (wanted[1:] >= wanted[:-1]).all()):
            raise ValueError(f"{out_dir}: the rows asked of {name}.npy are not ascending "
                             f"or not among its {n} rows")
    decoded: list[str] = []
    for k, end, data in _read_chunks(out_dir, name, offsets):
        bounds = (offsets[k:end + 1] - offsets[k]).tolist()
        picked = (range(end - k) if rows is None
                  else (wanted[len(decoded):np.searchsorted(wanted, end)] - k).tolist())
        decoded.extend([data[bounds[j]:bounds[j + 1]].decode("utf-8") for j in picked])
    return tuple(decoded)


def _per_row(positions: np.ndarray, starts: np.ndarray, ends: np.ndarray) -> np.ndarray:
    """How many of the ascending positions fall in each row [start, end)."""
    return np.searchsorted(positions, ends) - np.searchsorted(positions, starts)


def load_char_counts(out_dir: str | Path, column: str) -> np.ndarray:
    """Each row's length in characters in a string column save_corpus
    wrote in out_dir, as an int64 array, counted from its UTF-8 bytes a
    chunk of rows at a time with nothing decoded: its code points, less
    one for each CRLF pair within the row, so CRLF, CR and LF line
    endings count one character each. ValueError names out_dir as
    ``load_strings`` does."""
    out_dir, name = Path(out_dir), f"corpus_{column}"
    offsets = _string_offsets(out_dir, name)
    counts = np.diff(offsets)
    for k, end, data in _read_chunks(out_dir, name, offsets):
        chunk = np.frombuffer(data, dtype=np.uint8)
        starts = offsets[k:end] - offsets[k]
        ends = offsets[k + 1:end + 1] - offsets[k]
        # every byte of a code point after its first is 10xxxxxx
        continuation = np.flatnonzero((chunk & 0xC0) == 0x80)
        # the LF of a CR LF, unless the CR ends the row before
        crlf = np.flatnonzero((chunk[1:] == 0x0A) & (chunk[:-1] == 0x0D)) + 1
        crlf = crlf[~np.isin(crlf, starts)]
        counts[k:end] -= _per_row(continuation, starts, ends) + _per_row(crlf, starts, ends)
    return counts


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


def load_columns(out_dir: str | Path, columns: Iterable[str],
                 rows: Sequence[int] | None = None) -> dict:
    """The named columns save_corpus wrote in out_dir (``corpus_files(columns)``)
    by name, loaded one at a time; an empty gold label reads as None.
    With ``rows`` (ascending), each column, which must have one entry per
    row, holds only those rows, and a string column decodes no other (see
    load_strings). ValueError names out_dir if the columns disagree on the
    row count."""
    out_dir = Path(out_dir)

    def load(column: str):
        name = f"corpus_{column}"
        if column in _STRING_COLUMNS:
            return load_strings(out_dir, name, rows)
        values = load_array(out_dir, name)
        return values if rows is None else values[np.asarray(rows, dtype=np.int64)]

    loaded = {column: load(column) for column in columns}
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
    path = Path(path)
    names: set[str] = set()
    try:
        with path.open("r", encoding="utf-8-sig") as fh:
            for line in fh:
                name = line.strip()
                if name:
                    names.add(name)
    except UnicodeDecodeError:
        fault = utf8_fault(path, path.read_bytes())
        if fault is None:  # the file changed since the failed read
            raise
        raise ValueError(fault[1]) from None
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


def eligible_ids(graph, year: np.ndarray, abstract_chars: np.ndarray,
                 criteria: EligibilityCriteria | None = None) -> list[str]:
    """Ids meeting all eligibility thresholds, ascending.

    out_deg counts a paper's in-corpus references, in_deg its in-corpus
    citers; both must meet the minima, the year must fall in range, and
    the abstract must be long enough. ``year`` and ``abstract_chars``
    (see ``load_char_counts``) are in node order; ValueError names the
    first that has another length than the graph has nodes.
    """
    criteria = criteria or EligibilityCriteria()
    for name, column in (("year", year), ("abstract_chars", abstract_chars)):
        if len(column) != graph.n_nodes:
            raise ValueError(f"{name} has {len(column)} rows, the graph {graph.n_nodes} nodes")
    keep = ((graph.out_deg >= criteria.min_out_links) & (graph.in_deg >= criteria.min_in_links)
            & (year >= criteria.year_min) & (year <= criteria.year_max)
            & (abstract_chars >= criteria.min_abstract_chars))
    out = list(map(graph.ids.__getitem__, np.flatnonzero(keep).tolist()))
    out.sort()
    return out
