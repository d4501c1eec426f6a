import io
import json
import tempfile
from pathlib import Path

import pytest
from hypothesis import example, given, settings, strategies as st

from disruptkit.corpus import (
    GOLD_LABELS,
    EligibilityCriteria,
    YearGroup,
    _record_problem,
    abstract_lengths,
    eligible_ids,
    filter_journals,
    parse_corpus,
    read_allowlist,
    write_corpus,
)
from disruptkit.graph import build_graph

from corpus_columns import columns, record_columns


def mk(paper_id, year=2000, refs=(), journal="J", n_authors=1,
       abstract=None, title="T", gold=None):
    if abstract is None:
        abstract = "a" * 600
    record = {"id": paper_id, "title": title, "abstract": abstract, "journal": journal,
              "year": year, "n_authors": n_authors, "references": list(refs)}
    if gold is not None:
        record["gold_label"] = gold
    return record


def corpus_of(*records):
    return parse_corpus(json.dumps(r) + "\n" for r in records)


def parse_error(*records) -> str:
    with pytest.raises(ValueError) as excinfo:
        corpus_of(*records)
    return str(excinfo.value)


class TestPaperRecord:
    """The checks on one record, through parse_corpus."""

    def test_rejects_empty_id(self):
        assert parse_error(mk("")) == "<stream>: line 1: record id must be a non-empty string"

    def test_rejects_year_out_of_range(self):
        assert parse_error(mk("p", year=1799)).endswith("year 1799 outside [1800, 2100]")
        assert parse_error(mk("p", year=2101)).endswith("year 2101 outside [1800, 2100]")

    def test_rejects_bool_year(self):
        # bool is an int subclass; a True year must still be an error
        assert parse_error(mk("p", year=True)).endswith("record 'p': year must be an integer")

    def test_rejects_nonpositive_author_count(self):
        assert parse_error(mk("p", n_authors=0)).endswith("record 'p': n_authors must be >= 1")

    def test_rejects_unknown_gold_label(self):
        assert parse_error(mk("p", gold="theoretical")).endswith(
            "record 'p': gold_label must be one of ('conceptual', 'empirical')")

    def test_from_dict_normalizes_references(self):
        corpus = corpus_of(mk("p", refs=["x", "p", "y", "x", "z"]))
        # self-reference and the duplicate vanish; first-seen order kept
        assert columns(corpus)["references"] == [("x", "y", "z")]

    def test_from_dict_normalizes_gold_label(self):
        assert corpus_of(mk("p", gold="  Conceptual ")).gold_label == ("conceptual",)

    def test_from_dict_lists_missing_fields(self):
        assert parse_error({"id": "p", "title": "t"}) == (
            "<stream>: line 1: missing field(s): abstract, journal, year, n_authors, references")


class TestParseCorpus:
    def test_parses_and_keys_by_id(self):
        lines = [json.dumps(mk(i)) for i in ("b", "a")]
        corpus = parse_corpus(io.StringIO("\n".join(lines)))
        assert corpus.ids == ("a", "b")

    def test_skips_blank_lines(self):
        text = json.dumps(mk("a")) + "\n\n\n" + json.dumps(mk("b"))
        assert len(parse_corpus(io.StringIO(text))) == 2

    def test_invalid_json_names_line(self):
        text = json.dumps(mk("a")) + "\n{not json\n"
        with pytest.raises(ValueError, match="line 2: invalid JSON"):
            parse_corpus(io.StringIO(text))

    def test_bad_record_names_line(self):
        text = json.dumps(mk("a")) + "\n" + json.dumps({"id": "b"}) + "\n"
        with pytest.raises(ValueError, match="line 2: missing field"):
            parse_corpus(io.StringIO(text))

    @pytest.mark.parametrize("refs", [[["a"]], [{"a": 1}], ["a", ["a"]], [5], [""]])
    def test_bad_reference_names_line(self, refs):
        bad = {**mk("b"), "references": refs}
        text = json.dumps(mk("a")) + "\n" + json.dumps(bad) + "\n"
        with pytest.raises(ValueError, match="line 2: record 'b': references must be "
                                             "non-empty strings"):
            parse_corpus(io.StringIO(text))

    @pytest.mark.parametrize("paper_id", ["b ", " b", "\tb", "b\u2028", "\x85", "b\rc", "b\nc"])
    def test_id_eligible_txt_cannot_hold_names_line(self, paper_id):
        bad = {**mk("b"), "id": paper_id}
        text = json.dumps(mk("a")) + "\n" + json.dumps(bad) + "\n"
        with pytest.raises(ValueError) as excinfo:
            parse_corpus(io.StringIO(text))
        assert str(excinfo.value) == (f"<stream>: line 2: record {paper_id!r}: id must have "
                                      "no surrounding whitespace or line break")

    def test_duplicate_id_names_line_and_id(self):
        text = "\n".join(json.dumps(mk("a")) for _ in range(2))
        with pytest.raises(ValueError, match="line 2: duplicate id 'a'"):
            parse_corpus(io.StringIO(text))

    def test_reads_from_path(self, tmp_path):
        path = tmp_path / "c.jsonl"
        write_corpus(corpus_of(mk("a"), mk("b")), path)
        corpus = parse_corpus(path)
        assert corpus.ids == ("a", "b")


class TestWriteCorpus:
    def test_sorted_by_id_and_stable(self, tmp_path):
        corpus = corpus_of(mk("z"), mk("a", gold="empirical"), mk("m"))
        p1, p2 = tmp_path / "one.jsonl", tmp_path / "two.jsonl"
        write_corpus(corpus, p1)
        write_corpus(corpus, p2)
        assert p1.read_bytes() == p2.read_bytes()
        ids = [json.loads(line)["id"] for line in p1.read_text().splitlines()]
        assert ids == ["a", "m", "z"]

    def test_roundtrip_preserves_records(self, tmp_path):
        original = corpus_of(mk("a", refs=("b",), gold="conceptual"), mk("b"))
        path = tmp_path / "c.jsonl"
        write_corpus(original, path)
        assert columns(parse_corpus(path)) == columns(original)


# Any text JSON can carry except lone surrogates, which have no UTF-8
# form; write_corpus refuses those (tested with the ingest stage).
_TEXT = st.text(st.one_of(
    st.characters(exclude_categories=("Cs",)),
    st.sampled_from('"\\\'\u2028\u2029\r\n\x00\x85\ufeff{}'),
))


@st.composite
def raw_records(draw):
    """Decoded JSON objects as a corpus file holds them, before
    from_dict normalizes references and gold labels."""
    # Ids hold no line break and no surrounding whitespace (eligible.txt
    # keeps one per line and strips each line).
    one_line = _TEXT.map(lambda s: s.replace("\r", "").replace("\n", "").strip())
    ids = draw(st.lists(one_line.filter(bool), min_size=1, max_size=6, unique=True))
    records = []
    for pid in ids:
        refs = draw(st.lists(st.one_of(st.sampled_from(ids), _TEXT.filter(bool)),
                             max_size=8))
        gold = None
        if draw(st.booleans()):
            label = draw(st.sampled_from(GOLD_LABELS))
            padding = st.text(" \t\n", max_size=2)
            gold = (draw(padding) + "".join(draw(st.sampled_from((c, c.upper())))
                                            for c in label) + draw(padding))
        obj = {"id": pid, "title": draw(_TEXT), "abstract": draw(_TEXT),
               "journal": draw(_TEXT), "year": draw(st.integers(1800, 2100)),
               "n_authors": draw(st.integers(1, 10**18)), "references": refs}
        if gold is not None:
            obj["gold_label"] = gold
        records.append(obj)
    return records


class TestCorpusRoundTrip:
    @settings(max_examples=200, deadline=None)
    @given(raw_records())
    @example([{"id": "a\u2028b", "title": '"q" \u2028 \\', "abstract": "é\r\n中",
               "journal": "J\u2029", "year": 1991, "n_authors": 1,
               "references": ["a\u2028b", "c", "c", "a\u2028b"],
               "gold_label": " CONCEPTUAL\t"}])
    def test_parse_of_written_corpus_equals_corpus(self, raw):
        corpus = parse_corpus(json.dumps(obj) + "\n" for obj in raw)
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "corpus.jsonl"
            write_corpus(corpus, path)
            assert columns(parse_corpus(path)) == columns(corpus)


class TestJournalFiltering:
    def test_read_allowlist_trims_and_skips_blanks(self, tmp_path):
        path = tmp_path / "allow.txt"
        path.write_text("  Journal A \n\nJournal B\n", encoding="utf-8")
        assert read_allowlist(path) == {"Journal A", "Journal B"}

    def test_filter_keeps_only_allowed(self):
        corpus = corpus_of(mk("a", journal="X"), mk("b", journal="Y"), mk("c", journal="X"))
        kept = filter_journals(corpus, {"X"})
        assert set(kept.ids) == {"a", "c"}

    def test_empty_allowlist_is_an_error(self):
        with pytest.raises(ValueError, match="non-empty"):
            filter_journals(corpus_of(mk("a")), set())


class TestYearGroups:
    def test_six_cohorts_in_order(self):
        labels = [g.label for g in YearGroup]
        assert labels == ["1991-1995", "1996-2000", "2001-2005",
                          "2006-2010", "2011-2015", "2016-2020"]

    def test_bounds(self):
        assert YearGroup.G1991_1995.start == 1991
        assert YearGroup.G1991_1995.end == 1995
        assert YearGroup.G2016_2020.end == 2020

    @pytest.mark.parametrize("year,group", [
        (1991, YearGroup.G1991_1995),
        (1995, YearGroup.G1991_1995),
        (1996, YearGroup.G1996_2000),
        (2003, YearGroup.G2001_2005),
        (2010, YearGroup.G2006_2010),
        (2016, YearGroup.G2016_2020),
        (2020, YearGroup.G2016_2020),
    ])
    def test_mapping(self, year, group):
        # the cohort dummies of regress.build_design_matrix test these bounds
        assert [g for g in YearGroup if g.start <= year <= g.end] == [group]

    @pytest.mark.parametrize("year", [1990, 2021])
    def test_out_of_range(self, year):
        assert not any(g.start <= year <= g.end for g in YearGroup)


class TestAbstractLength:
    def test_counts_whitespace(self):
        assert abstract_lengths(["a b"]).tolist() == [3]

    def test_normalizes_crlf(self):
        # each line break counts as one character regardless of encoding
        assert abstract_lengths(["a\r\nb", "a\rb", "a\nb"]).tolist() == [3, 3, 3]


class TestEligibility:
    def test_criteria_defaults(self):
        crit = EligibilityCriteria()
        assert (crit.min_out_links, crit.min_in_links) == (11, 11)
        assert (crit.year_min, crit.year_max) == (1991, 2020)
        assert crit.min_abstract_chars == 501

    def test_criteria_validation(self):
        with pytest.raises(ValueError, match="min_in_links"):
            EligibilityCriteria(min_in_links=-1)
        with pytest.raises(ValueError, match="year_min"):
            EligibilityCriteria(year_min=2000, year_max=1999)

    def _corpus_and_graph(self):
        # b cites a and c; c cites a; a cites nothing
        corpus = corpus_of(
            mk("a", year=1995),
            mk("b", year=2000, refs=("a", "c")),
            mk("c", year=2020, refs=("a",)),
        )
        return corpus, build_graph(corpus)

    def test_thresholds_and_order(self):
        corpus, graph = self._corpus_and_graph()
        crit = EligibilityCriteria(min_out_links=1, min_in_links=1,
                                   min_abstract_chars=1)
        assert eligible_ids(corpus, graph, crit) == ["c"]
        crit = EligibilityCriteria(min_out_links=0, min_in_links=0,
                                   min_abstract_chars=1)
        assert eligible_ids(corpus, graph, crit) == ["a", "b", "c"]

    def test_year_window(self):
        corpus, graph = self._corpus_and_graph()
        crit = EligibilityCriteria(min_out_links=0, min_in_links=0,
                                   year_min=1996, year_max=2019,
                                   min_abstract_chars=1)
        assert eligible_ids(corpus, graph, crit) == ["b"]

    def test_abstract_threshold_uses_normalized_length(self):
        short = mk("s", abstract="x" * 500)
        long_enough = mk("l", abstract="x" * 501)
        crlf = mk("c", abstract=("x" * 499) + "\r\n")  # 500 after normalization
        corpus = corpus_of(short, long_enough, crlf)
        graph = build_graph(corpus)
        crit = EligibilityCriteria(min_out_links=0, min_in_links=0)
        assert eligible_ids(corpus, graph, crit) == ["l"]

    def test_graph_node_missing_from_corpus(self):
        corpus, graph = self._corpus_and_graph()
        corpus = corpus.take(corpus.positions(["a", "c"]))
        with pytest.raises(ValueError, match="graph node 'b' missing"):
            eligible_ids(corpus, graph, EligibilityCriteria())

    def test_corpus_row_missing_from_graph(self):
        corpus, graph = self._corpus_and_graph()
        corpus = corpus_of(mk("a"), mk("b"), mk("c"), mk("d"))
        with pytest.raises(ValueError, match=r"corpus row 3 \('d'\) is not a graph node"):
            eligible_ids(corpus, graph, EligibilityCriteria())


def _line(paper_id, **fields):
    obj = {**mk(paper_id), **fields}
    return json.dumps(obj, ensure_ascii=False) + "\n"


class TestErrorPrecedence:
    """Every check reports the lowest bad line; within a line the
    checks run in _record_problem's order."""

    def test_bad_year_beats_later_invalid_json(self):
        text = (_line("a") + _line("b", year=1700) + _line("c") + _line("d")
                + "{not json\n")
        with pytest.raises(ValueError) as excinfo:
            parse_corpus(io.StringIO(text))
        assert str(excinfo.value) == (
            "<stream>: line 2: record 'b': year 1700 outside [1800, 2100]")

    def test_bad_field_beats_later_duplicate_id(self):
        text = _line("a") + _line("b") + _line("c", n_authors=0) + _line("a")
        with pytest.raises(ValueError) as excinfo:
            parse_corpus(io.StringIO(text))
        assert str(excinfo.value) == "<stream>: line 3: record 'c': n_authors must be >= 1"

    def test_duplicate_id_beats_later_bad_field(self):
        text = _line("a") + _line("a") + _line("c", title=5)
        with pytest.raises(ValueError) as excinfo:
            parse_corpus(io.StringIO(text))
        assert str(excinfo.value) == "<stream>: line 2: duplicate id 'a'"

    def test_invalid_json_beats_later_bad_field(self):
        text = _line("a") + "\n{not json\n" + _line("c", year="2000")
        with pytest.raises(ValueError, match=r"^<stream>: line 3: invalid JSON"):
            parse_corpus(io.StringIO(text))

    def test_first_check_of_a_line_wins(self):
        text = _line("a") + _line("b", year=True, journal=None, references=["", 3])
        with pytest.raises(ValueError) as excinfo:
            parse_corpus(io.StringIO(text))
        assert str(excinfo.value) == "<stream>: line 2: record 'b': journal must be a string"

    def test_unhashable_reference_beats_a_bad_field(self):
        text = _line("a") + _line("b", year=1700, references=["a", ["a"]])
        with pytest.raises(ValueError) as excinfo:
            parse_corpus(io.StringIO(text))
        assert str(excinfo.value) == (
            "<stream>: line 2: record 'b': references must be non-empty strings")

    # The stop line's references before the unhashable one reach the
    # reference table, though no decoded row holds them.
    @pytest.mark.parametrize("refs", [["", ["a"]], [3, {"a": 1}]])
    def test_stop_line_after_a_bad_reference_is_the_one_reported(self, refs):
        text = _line("a") + _line("b", references=refs) + _line("c")
        with pytest.raises(ValueError) as excinfo:
            parse_corpus(io.StringIO(text))
        assert str(excinfo.value) == (
            "<stream>: line 2: record 'b': references must be non-empty strings")

    def test_a_record_duplicating_a_bad_record_names_the_bad_one(self):
        text = _line("a") + _line("b", gold_label="other") + _line("b")
        with pytest.raises(ValueError) as excinfo:
            parse_corpus(io.StringIO(text))
        assert str(excinfo.value) == (
            "<stream>: line 2: record 'b': gold_label must be one of "
            "('conceptual', 'empirical')")


def _reference_parse(lines):
    """The record-at-a-time parse: each line checked by _record_problem,
    stopping at the first bad line, then its references deduplicated in
    first-seen order without its own id and its gold label normalized."""
    records = {}
    for lineno, line in enumerate(lines, start=1):
        if not line.strip():
            continue
        try:
            obj = json.loads(line)
        except json.JSONDecodeError as exc:
            raise ValueError(f"<stream>: line {lineno}: invalid JSON ({exc.msg})") from exc
        problem = _record_problem(obj)
        if problem is not None:
            raise ValueError(f"<stream>: line {lineno}: {problem}")
        paper_id, gold = obj["id"], obj.get("gold_label")
        if paper_id in records:
            raise ValueError(f"<stream>: line {lineno}: duplicate id {paper_id!r}")
        refs = tuple(dict.fromkeys(ref for ref in obj["references"] if ref != paper_id))
        records[paper_id] = {**obj, "references": refs,
                             "gold_label": None if gold is None else gold.strip().lower()}
    return records


# Values a field may hold in a damaged corpus: each is wrong for some
# field, and right for others.
_ODD_VALUES = st.sampled_from([
    None, True, 0, -1, 1799, 2101, 1.5, 10**19, "", "x", " Empirical ", "other", "a\rb",
    [], ["a"], [""], [3], [["a"]], [{"a": 1}], ["", ["a"]], [3, {"a": 1}], {"a": 1},
])


@st.composite
def damaged_lines(draw):
    """Corpus lines of which some may carry a bad field, miss a field,
    repeat an id, be blank, or not be JSON at all."""
    ids = draw(st.lists(st.sampled_from(["a", "b", "c", "d", "\x00", "é"]),
                        min_size=0, max_size=7))
    lines = []
    for pid in ids:
        obj = {"id": pid, "title": "t", "abstract": "x", "journal": "J", "year": 2000,
               "n_authors": 1,
               "references": draw(st.lists(st.sampled_from(["a", "b", "zz", pid]),
                                           max_size=4))}
        kind = draw(st.sampled_from(["ok", "ok", "ok", "field", "missing", "blank",
                                     "not json", "not object"]))
        if kind == "field":
            obj[draw(st.sampled_from(sorted(obj) + ["gold_label"]))] = draw(_ODD_VALUES)
        elif kind == "missing":
            del obj[draw(st.sampled_from(sorted(obj)))]
        if kind == "blank":
            lines.append("  \n")
        elif kind == "not json":
            lines.append("{not json\n")
        elif kind == "not object":
            lines.append(json.dumps(draw(_ODD_VALUES)) + "\n")
        else:
            lines.append(json.dumps(obj) + "\n")
    return lines


class TestParseMatchesRecordAtATime:
    @settings(max_examples=300, deadline=None)
    @given(damaged_lines())
    @example([_line("a"), _line("b", references=["", ["a"]])])
    def test_same_records_or_same_error(self, lines):
        try:
            expected = _reference_parse(lines)
        except ValueError as exc:
            with pytest.raises(ValueError) as excinfo:
                parse_corpus(iter(lines))
            assert str(excinfo.value) == str(exc)
            return
        corpus = parse_corpus(iter(lines))
        assert columns(corpus) == record_columns([expected[pid] for pid in sorted(expected)])


class TestReferencesOutsideTheCorpus:
    def test_survive_filtering_and_make_no_edge(self, tmp_path):
        raw = [
            {"id": "a", "title": "t", "abstract": "x", "journal": "Kept", "year": 2000,
             "n_authors": 1, "references": ["b", "zz-unknown", "c", "é\x00"]},
            {"id": "b", "title": "t", "abstract": "x", "journal": "Dropped", "year": 2000,
             "n_authors": 1, "references": ["c"]},
            {"id": "c", "title": "t", "abstract": "x", "journal": "Kept", "year": 2000,
             "n_authors": 1, "references": []},
        ]
        lines = [json.dumps(obj, ensure_ascii=False) + "\n" for obj in raw]
        kept = filter_journals(parse_corpus(iter(lines)), {"Kept"})
        path = tmp_path / "corpus.jsonl"
        write_corpus(kept, path)
        assert path.read_bytes() == (lines[0] + lines[2]).encode("utf-8")
        graph = build_graph(kept)
        assert graph.ids == ("a", "c") and graph.n_edges == 1
        assert graph.reference_row(0).tolist() == [1]
