"""Correctness checks shared by the workloads.

Each check takes the program's output and an independent expectation,
records one or more checks in a Ledger, and never raises on a wrong
answer, so a run reports every failure it finds. The self-test feeds
each check a deliberately wrong input to show that it rejects it.
"""

from __future__ import annotations

import hashlib
import json
from collections import Counter
from pathlib import Path

from disruptkit.oracle import brute_force_partition

CATEGORIES = ("stages", "papers", "checks")


class Ledger:
    """Counts attempted and failed operations per category: pipeline
    stages, classified papers, and correctness checks."""

    def __init__(self):
        self.attempted: Counter = Counter()
        self.failed: Counter = Counter()
        self.notes: list[str] = []

    def record(self, category: str, attempted: int, failed: int, note: str = "") -> None:
        self.attempted[category] += attempted
        self.failed[category] += failed
        if failed and note:
            self.notes.append(f"{category}: {note}")

    def check(self, ok: bool, note: str) -> bool:
        self.record("checks", 1, 0 if ok else 1, note)
        return ok

    @property
    def total_attempted(self) -> int:
        return sum(self.attempted.values())

    @property
    def total_failed(self) -> int:
        return sum(self.failed.values())

    def shares(self) -> dict[str, float]:
        out = {c: self.failed[c] / self.attempted[c] for c in CATEGORIES if self.attempted[c]}
        out["all"] = self.total_failed / max(1, self.total_attempted)
        return out


class Adjacency:
    """Plain-dict citation graph: references and citers by paper id."""

    def __init__(self, refs_of: dict[str, list[str]], citers_of: dict[str, list[str]]):
        self.refs_of = refs_of
        self.citers_of = citers_of

    @classmethod
    def from_corpus_file(cls, path: Path) -> tuple["Adjacency", dict[str, dict]]:
        """Adjacency over in-corpus references, plus each raw record."""
        records = {}
        with Path(path).open(encoding="utf-8") as fh:
            for line in fh:
                if line.strip():
                    obj = json.loads(line)
                    records[obj["id"]] = obj
        refs = {pid: [r for r in dict.fromkeys(obj["references"]) if r in records and r != pid]
                for pid, obj in records.items()}
        citers: dict[str, list[str]] = {pid: [] for pid in refs}
        for pid, targets in refs.items():
            for ref in targets:
                citers[ref].append(pid)
        return cls(refs, citers), records

    def neighbourhood(self, focal: str) -> list[tuple[str, str]]:
        """(referenced, citing) edges that decide the focal's partition:
        its citations, its references, and every citation of those
        references. Papers outside them land in no class."""
        edges = {(focal, c) for c in self.citers_of[focal]}
        for ref in self.refs_of[focal]:
            edges.update((ref, c) for c in self.citers_of[ref])
        return sorted(edges)

    def two_hop_scans(self, focals) -> int:
        """Citer entries a kernel scans: for each focal, the citers of
        each of its references."""
        return sum(len(self.citers_of[r]) for f in focals for r in self.refs_of[f])


def expected_score(n_f: int, n_b: int, n_r: int) -> float | None:
    denom = n_f + n_b + n_r
    return None if denom == 0 else (n_f - n_b) / denom


def _same_score(got: float | None, want: float | None) -> bool:
    """Equal to the six decimals that disruption.csv carries."""
    if got is None or want is None:
        return got is None and want is None
    return f"{got:.6f}" == f"{want:.6f}"


def check_partitions(ledger: Ledger, adjacency: Adjacency, got: dict, ls, mode: str) -> None:
    """got: focal id -> [(n_f, n_b, n_r, d)] per threshold in ls. Each
    (focal, l) is one check against the brute-force oracle."""
    for focal, rows in got.items():
        edges = adjacency.neighbourhood(focal)
        for l, (n_f, n_b, n_r, d) in zip(ls, rows):
            want = brute_force_partition(edges, focal, l=l, mode=mode, nodes=[focal]).counts
            ledger.check(
                (n_f, n_b, n_r) == want and _same_score(d, expected_score(*want)),
                f"{mode} l={l} {focal}: got {(n_f, n_b, n_r, d)}, oracle {want}",
            )


def check_citer_identity(ledger: Ledger, mode: str, n_f_plus_n_b: list[int],
                         citer_counts: list[int]) -> None:
    """n_f + n_b equals the focal's citer count in every score row; both
    lists hold one entry per (focal, threshold) row."""
    bad = sum(1 for got, want in zip(n_f_plus_n_b, citer_counts) if got != want)
    bad += abs(len(n_f_plus_n_b) - len(citer_counts))
    ledger.check(bad == 0, f"{mode}: n_f + n_b differs from the citer count in {bad} rows")


def check_labels(ledger: Ledger, what: str, got: dict[str, str], want: dict[str, str]) -> None:
    """One check per expected paper: the label matches, case-insensitively."""
    wrong = [pid for pid, label in want.items()
             if got.get(pid, "").lower() != label.lower()]
    ledger.record("checks", len(want), len(wrong),
                  f"{what}: {len(wrong)} of {len(want)} labels differ, e.g. {wrong[:3]}")


def check_sources(ledger: Ledger, what: str, sources: dict[str, str], expected: str) -> None:
    """Papers with source 'error' count as failed papers; any other
    unexpected source fails one check."""
    errors = sum(1 for s in sources.values() if s == "error")
    ledger.record("papers", len(sources), errors, f"{what}: {errors} papers with source error")
    other = Counter(s for s in sources.values() if s not in (expected, "error"))
    ledger.check(not other, f"{what}: expected source {expected!r}, also saw {dict(other)}")


def check_equal(ledger: Ledger, what: str, got, want) -> None:
    ledger.check(got == want, f"{what}: got {got!r}, expected {want!r}")


def file_digests(paths: list[Path]) -> dict[str, str]:
    return {p.name: hashlib.sha256(p.read_bytes()).hexdigest() for p in paths}


def check_digests(ledger: Ledger, store: Path, digests: dict[str, str]) -> bool:
    """Byte identity across runs of one seed: the first run records the
    digests, every later run compares one check per file. Returns
    whether a comparison was made."""
    if not store.exists():
        store.parent.mkdir(parents=True, exist_ok=True)
        store.write_text(json.dumps(digests, sort_keys=True), encoding="utf-8")
        return False
    previous = json.loads(store.read_text(encoding="utf-8"))
    for name, digest in sorted(digests.items()):
        check_equal(ledger, f"{name} digest against an earlier run of this seed",
                    digest, previous.get(name))
    return True
