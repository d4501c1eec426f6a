"""Bibliographic records: parsing, validation, journal filtering, and
per-record derived attributes (year group, abstract length, eligibility).

The corpus file format is line-delimited JSON, one record per line, with
fields ``id, title, abstract, journal, year, n_authors, references`` and an
optional ``gold_label``.
"""

from __future__ import annotations

import enum
import json
import logging
import os
from dataclasses import dataclass, field
from pathlib import Path
from typing import IO, Iterable, Iterator

logger = logging.getLogger(__name__)

YEAR_FLOOR = 1800
YEAR_CEIL = 2100

GOLD_LABELS = ("conceptual", "empirical")

_REQUIRED_FIELDS = ("id", "title", "abstract", "journal", "year", "n_authors", "references")


@dataclass(frozen=True)
class PaperRecord:
    """One bibliographic item. ``references`` is deduplicated and never
    contains the record's own id."""

    id: str
    title: str
    abstract: str
    journal: str
    year: int
    n_authors: int
    references: tuple[str, ...]
    gold_label: str | None = None

    def __post_init__(self):
        if not isinstance(self.id, str) or not self.id:
            raise ValueError("record id must be a non-empty string")
        for name in ("title", "abstract", "journal"):
            if not isinstance(getattr(self, name), str):
                raise ValueError(f"record {self.id!r}: {name} must be a string")
        if not isinstance(self.year, int) or isinstance(self.year, bool):
            raise ValueError(f"record {self.id!r}: year must be an integer")
        if not (YEAR_FLOOR <= self.year <= YEAR_CEIL):
            raise ValueError(
                f"record {self.id!r}: year {self.year} outside [{YEAR_FLOOR}, {YEAR_CEIL}]"
            )
        if not isinstance(self.n_authors, int) or isinstance(self.n_authors, bool):
            raise ValueError(f"record {self.id!r}: n_authors must be an integer")
        if self.n_authors < 1:
            raise ValueError(f"record {self.id!r}: n_authors must be >= 1")
        if self.gold_label is not None and self.gold_label not in GOLD_LABELS:
            raise ValueError(
                f"record {self.id!r}: gold_label must be one of {GOLD_LABELS}"
            )
        seen: set[str] = set()
        for ref in self.references:
            if not isinstance(ref, str) or not ref:
                raise ValueError(f"record {self.id!r}: references must be non-empty strings")
            if ref == self.id:
                raise ValueError(f"record {self.id!r}: references contain the record itself")
            if ref in seen:
                raise ValueError(f"record {self.id!r}: duplicate reference {ref!r}")
            seen.add(ref)

    @classmethod
    def from_dict(cls, obj: dict) -> "PaperRecord":
        """Build a record from a decoded JSON object, normalizing the
        reference list (duplicates collapsed, self-references dropped)."""
        if not isinstance(obj, dict):
            raise ValueError("record must be a JSON object")
        missing = [k for k in _REQUIRED_FIELDS if k not in obj]
        if missing:
            raise ValueError(f"missing field(s): {', '.join(missing)}")
        refs_raw = obj["references"]
        if not isinstance(refs_raw, list):
            raise ValueError("references must be a list")
        rec_id = obj["id"]
        refs: list[str] = []
        seen: set[str] = set()
        try:
            for ref in refs_raw:
                if ref == rec_id or ref in seen:
                    continue
                seen.add(ref)
                refs.append(ref)
        except TypeError:  # an unhashable reference: a list or an object
            raise ValueError(
                f"record {rec_id!r}: references must be non-empty strings") from None
        gold = obj.get("gold_label")
        if isinstance(gold, str):
            gold = gold.strip().lower()
        return cls(
            id=rec_id,
            title=obj["title"],
            abstract=obj["abstract"],
            journal=obj["journal"],
            year=obj["year"],
            n_authors=obj["n_authors"],
            references=tuple(refs),
            gold_label=gold,
        )

    def to_dict(self) -> dict:
        out = {
            "id": self.id,
            "title": self.title,
            "abstract": self.abstract,
            "journal": self.journal,
            "year": self.year,
            "n_authors": self.n_authors,
            "references": list(self.references),
        }
        if self.gold_label is not None:
            out["gold_label"] = self.gold_label
        return out


@dataclass(frozen=True)
class Provenance:
    sources: tuple[str, ...] = ()


@dataclass
class Corpus:
    """Immutable-after-parse keyed collection of records."""

    records: dict[str, PaperRecord]
    provenance: Provenance = field(default_factory=Provenance)

    def __len__(self) -> int:
        return len(self.records)

    def __contains__(self, paper_id: str) -> bool:
        return paper_id in self.records

    def __getitem__(self, paper_id: str) -> PaperRecord:
        return self.records[paper_id]

    def __iter__(self) -> Iterator[PaperRecord]:
        return iter(self.records.values())

    def sorted_ids(self) -> list[str]:
        return sorted(self.records)

    def journals(self) -> set[str]:
        return {r.journal for r in self}


def parse_corpus(source: str | Path | IO[str] | Iterable[str]) -> Corpus:
    """Parse line-delimited records into a Corpus.

    Raises ValueError with the 1-based line number for malformed lines and
    names the offending id for duplicates.
    """
    if isinstance(source, (str, Path)):
        path = Path(source)
        with path.open("r", encoding="utf-8") as fh:
            return _parse_lines(fh, source_name=str(path))
    return _parse_lines(source, source_name=getattr(source, "name", "<stream>"))


def _parse_lines(lines: Iterable[str], source_name: str) -> Corpus:
    records: dict[str, PaperRecord] = {}
    for lineno, line in enumerate(lines, start=1):
        if not line.strip():
            continue
        try:
            obj = json.loads(line)
        except json.JSONDecodeError as exc:
            raise ValueError(f"{source_name}: line {lineno}: invalid JSON ({exc.msg})") from exc
        try:
            record = PaperRecord.from_dict(obj)
        except ValueError as exc:
            raise ValueError(f"{source_name}: line {lineno}: {exc}") from exc
        if record.id in records:
            raise ValueError(f"{source_name}: line {lineno}: duplicate id {record.id!r}")
        records[record.id] = record
    return Corpus(records=records, provenance=Provenance(sources=(source_name,)))


def write_corpus(corpus: Corpus, path: str | Path) -> None:
    """Serialize records, one JSON object per line, sorted by id.

    The file is written aside and renamed over ``path``, so a failed
    write leaves any earlier file whole. A record that cannot be encoded
    as UTF-8 (a lone surrogate) raises ValueError naming its id.
    """
    path = Path(path)
    tmp = path.with_name(f".{path.name}.tmp")
    try:
        with tmp.open("w", encoding="utf-8", newline="\n") as fh:
            for paper_id in corpus.sorted_ids():
                line = json.dumps(corpus.records[paper_id].to_dict(), ensure_ascii=False)
                try:
                    fh.write(line)
                except UnicodeEncodeError as exc:
                    raise ValueError(
                        f"record {paper_id!r}: not encodable as UTF-8 ({exc.reason})"
                    ) from exc
                fh.write("\n")
        os.replace(tmp, path)
    finally:
        tmp.unlink(missing_ok=True)


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
    kept = {pid: rec for pid, rec in corpus.records.items() if rec.journal in allowlist}
    dropped = len(corpus.records) - len(kept)
    if dropped:
        logger.info(
            "filter_journals: dropped %d of %d records outside the %d allowed journals",
            dropped,
            len(corpus.records),
            len(allowlist),
        )
    return Corpus(records=kept, provenance=corpus.provenance)


def journal_counts(corpus: Corpus) -> dict[str, int]:
    """Number of records per journal (journals with zero papers simply
    do not appear; comparing against the allowlist shows which allowed
    journals contributed nothing)."""
    counts: dict[str, int] = {}
    for rec in corpus:
        counts[rec.journal] = counts.get(rec.journal, 0) + 1
    return counts


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


def year_group(year: int) -> YearGroup:
    """Map a publication year to its five-year cohort."""
    if not (YearGroup.G1991_1995.start <= year <= YearGroup.G2016_2020.end):
        raise ValueError(f"year {year} outside [1991, 2020]")
    return YearGroup(1991 + ((year - 1991) // 5) * 5)


def abstract_length(text: str) -> int:
    """Character count of the abstract, whitespace included, after
    normalizing CRLF/CR line endings to single characters."""
    return len(text.replace("\r\n", "\n").replace("\r", "\n"))


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


def eligible_ids(corpus: Corpus, graph, criteria: EligibilityCriteria | None = None) -> list[str]:
    """Ids meeting all eligibility thresholds, ascending.

    out_deg counts a paper's in-corpus references, in_deg its in-corpus
    citers; both must meet the minima, the year must fall in range, and
    the abstract must be long enough.
    """
    criteria = criteria or EligibilityCriteria()
    out: list[str] = []
    for idx, paper_id in enumerate(graph.ids):
        rec = corpus.records.get(paper_id)
        if rec is None:
            raise ValueError(f"graph node {paper_id!r} missing from corpus")
        if int(graph.out_deg[idx]) < criteria.min_out_links:
            continue
        if int(graph.in_deg[idx]) < criteria.min_in_links:
            continue
        if not (criteria.year_min <= rec.year <= criteria.year_max):
            continue
        if abstract_length(rec.abstract) < criteria.min_abstract_chars:
            continue
        out.append(paper_id)
    out.sort()
    return out
