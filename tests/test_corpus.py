import dataclasses
import io
import json
import re
import tempfile
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from disruptkit.corpus import (
    CORPUS_FILES,
    GOLD_LABELS,
    EligibilityCriteria,
    YearGroup,
    _record_problem,
    corpus_files,
    eligible_ids,
    filter_journals,
    load_char_counts,
    load_columns,
    load_corpus,
    parse_corpus,
    read_allowlist,
    save_columns,
    save_corpus,
    write_corpus,
)
from disruptkit import corpus as corpus_module

from corpus_columns import abstract_lengths, columns, eligible_of, graph_of, record_columns


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

    # Rule 13 holds for every record: journal "Dropped" is one the
    # allowlist would later drop.
    @pytest.mark.parametrize("field, value", [
        ("id", "b\ud800"), ("title", "t\ud800"), ("abstract", "\udfff"),
        ("journal", "Dropped\ud800"), ("references", ["a", "\ud800"]),
    ], ids=["id", "title", "abstract", "journal", "reference"])
    def test_string_with_no_utf8_form_names_line(self, field, value):
        bad = {**mk("b", journal="Dropped"), field: value}
        text = json.dumps(mk("a")) + "\n" + json.dumps(bad) + "\n" + json.dumps(mk("c"))
        with pytest.raises(ValueError) as excinfo:
            parse_corpus(io.StringIO(text))
        assert str(excinfo.value) == (f"<stream>: line 2: record {bad['id']!r}: not encodable "
                                      "as UTF-8 (surrogates not allowed)")

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

    def test_byte_order_mark_is_dropped(self, tmp_path):
        plain, marked = tmp_path / "plain.jsonl", tmp_path / "marked.jsonl"
        plain.write_text(json.dumps(mk("a")) + "\n", encoding="utf-8")
        marked.write_text(json.dumps(mk("a")) + "\n", encoding="utf-8-sig")
        assert marked.read_bytes().startswith(b"\xef\xbb\xbf")
        assert columns(parse_corpus(marked)) == columns(parse_corpus(plain))


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
# form; parse_corpus refuses those (see TestParseCorpus).
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


def stored(corpus) -> dict[str, list]:
    """Every Corpus field as a list, reference codes and all, with each
    array's dtype."""
    out = {}
    for field in dataclasses.fields(corpus):
        value = getattr(corpus, field.name)
        if isinstance(value, np.ndarray):
            out[f"{field.name}.dtype"] = str(value.dtype)
            value = value.tolist()
        out[field.name] = list(value)
    return out


def save_and_load(corpus, out_dir):
    paths = save_corpus(corpus, out_dir)
    assert [p.name for p in paths] == list(CORPUS_FILES)
    return load_corpus(out_dir)


class TestCorpusFiles:
    def test_strings_roundtrip_exactly(self, tmp_path):
        # numpy's str dtype would turn "a\x00" into "a", colliding the two ids
        corpus = corpus_of(
            mk("a", refs=("a\x00", "outside \u00e9\x00"), title="t\x00",
               journal="Revue d\u2019\u00e9tudes", gold="conceptual"),
            mk("a\x00", title="", abstract="\u4e2d\r\n\x00", journal="\u65e5\u672c\x00"),
            mk("\u00fc\U0001f600", refs=("a",), journal="", gold=" EMPIRICAL", n_authors=7),
        )
        loaded = save_and_load(corpus, tmp_path)
        assert stored(loaded) == stored(corpus)
        assert loaded.gold_label == ("conceptual", None, "empirical")

    def test_empty_corpus(self, tmp_path):
        loaded = save_and_load(corpus_of(), tmp_path)
        assert len(loaded) == 0
        assert stored(loaded) == stored(corpus_of())

    def test_strings_no_row_refers_to_survive(self, tmp_path):
        corpus = filter_journals(corpus_of(
            mk("a", refs=("b", "x"), journal="Kept"),
            mk("b", refs=("only-b", "\u00e9"), journal="Dropped"),
            mk("c", refs=("a",), journal="Kept")), {"Kept"})
        referred = {corpus.ref_strings[c] for c in corpus.ref_codes.tolist()}
        assert set(corpus.ref_strings) - referred == {"only-b", "\u00e9"}
        assert stored(save_and_load(corpus, tmp_path)) == stored(corpus)

    @settings(max_examples=100, deadline=None)
    @given(raw_records())
    def test_any_parsed_corpus_roundtrips(self, raw):
        corpus = parse_corpus(json.dumps(obj) + "\n" for obj in raw)
        with tempfile.TemporaryDirectory() as tmp:
            assert stored(save_and_load(corpus, Path(tmp))) == stored(corpus)

    def test_two_saves_are_byte_identical(self, tmp_path):
        corpus = corpus_of(mk("z", refs=("a", "\u00e9")), mk("a", gold="empirical"), mk("m"))
        for side in ("one", "two"):
            (tmp_path / side).mkdir()
        save_corpus(corpus, tmp_path / "one")
        save_corpus(corpus_of(mk("m"), mk("a", gold="empirical"), mk("z", refs=("a", "\u00e9"))),
                    tmp_path / "two")
        for name in CORPUS_FILES:
            first = (tmp_path / "one" / name).read_bytes()
            assert first == (tmp_path / "two" / name).read_bytes(), name
            # each file is what np.save writes for the array np.load reads back
            again = io.BytesIO()
            np.save(again, np.load(tmp_path / "one" / name, allow_pickle=False))
            assert again.getvalue() == first, name

    @pytest.mark.parametrize("name, array", [
        ("corpus_year.npy", np.array([2000], dtype=np.int64)),
        ("corpus_title_offsets.npy", np.array([0, 1, 1], dtype=np.int64)),
        ("corpus_title_offsets.npy", np.array([0, 1, 1, 2], dtype=np.int64)),
        ("corpus_abstract.npy", np.zeros(3, dtype=np.uint8)),
        ("corpus_ref_offsets.npy", np.array([0, 1], dtype=np.int64)),
        ("corpus_ref_codes.npy", np.array([0, 0, 0, 0], dtype=np.int64)),
    ])
    def test_mismatched_files_name_the_directory(self, tmp_path, name, array):
        save_corpus(corpus_of(mk("a"), mk("b", refs=("a",))), tmp_path)
        np.save(tmp_path / name, array)
        with pytest.raises(ValueError) as excinfo:
            load_corpus(tmp_path)
        assert str(excinfo.value).startswith(f"{tmp_path}: ")

    def test_named_columns_load_from_their_files_alone(self, tmp_path):
        corpus = corpus_of(mk("a", gold="conceptual", n_authors=3), mk("b", refs=("a",)))
        save_corpus(corpus, tmp_path)
        names = ("gold_label", "year", "ref_offsets", "ref_codes")
        assert corpus_files(names) == (
            "corpus_gold_label.npy", "corpus_gold_label_offsets.npy", "corpus_year.npy",
            "corpus_ref_offsets.npy", "corpus_ref_codes.npy")
        assert corpus_files(field.name for field in dataclasses.fields(corpus)) == CORPUS_FILES
        for name in set(CORPUS_FILES) - set(corpus_files(names)):
            (tmp_path / name).unlink()
        loaded = load_columns(tmp_path, names)
        assert list(loaded) == list(names)
        assert {name: list(column) for name, column in loaded.items()} == {
            name: stored(corpus)[name] for name in names}

    def test_named_columns_that_disagree_name_the_directory(self, tmp_path):
        save_corpus(corpus_of(mk("a"), mk("b", refs=("a",))), tmp_path)
        np.save(tmp_path / "corpus_year.npy", np.array([2000], dtype=np.int64))
        assert len(load_columns(tmp_path, ("year",))["year"]) == 1
        with pytest.raises(ValueError, match=re.escape(
                f"{tmp_path}: corpus files disagree on the row count")):
            load_columns(tmp_path, ("year", "n_authors"))

    def test_rows_asked_for_are_the_rows_loaded(self, tmp_path):
        corpus = corpus_of(mk("a", title="Ta", year=1991),
                           mk("b", title="T\u00e9b", gold="empirical", year=1992),
                           mk("c", title="", year=1993))
        save_corpus(corpus, tmp_path)
        for rows in ([0, 0, 1, 2], [0, 2], [1], []):
            loaded = load_columns(tmp_path, ("title", "gold_label", "year"), rows=rows)
            assert {name: list(column) for name, column in loaded.items()} == {
                name: [stored(corpus)[name][row] for row in rows]
                for name in ("title", "gold_label", "year")}

    @pytest.mark.parametrize("rows", [[3], [-1, 0], [2, 1]])
    def test_rows_that_are_not_ascending_rows_of_the_column_are_refused(self, tmp_path, rows):
        save_corpus(corpus_of(mk("a"), mk("b"), mk("c")), tmp_path)
        with pytest.raises(ValueError, match=re.escape(
                f"{tmp_path}: the rows asked of corpus_title.npy are not ascending "
                f"or not among its 3 rows")):
            load_columns(tmp_path, ("title",), rows=rows)

    @pytest.mark.parametrize("offsets, problem", [
        ([1, 600, 1200], "does not start at 0"),
        ([0, 1300, 1200], "puts the end of row 1 before its start"),
    ])
    def test_offsets_that_do_not_start_at_0_or_that_decrease_are_refused(
            self, tmp_path, offsets, problem):
        # rows are found by their offsets, so wrong ones would decode the wrong bytes
        save_corpus(corpus_of(mk("a"), mk("b")), tmp_path)
        np.save(tmp_path / "corpus_abstract_offsets.npy", np.array(offsets, dtype=np.int64))
        message = f"^{re.escape(f'{tmp_path}: corpus_abstract_offsets.npy {problem}')}$"
        with pytest.raises(ValueError, match=message):
            load_columns(tmp_path, ("abstract",), rows=[1])
        with pytest.raises(ValueError, match=message):
            load_char_counts(tmp_path, "abstract")
        with pytest.raises(ValueError, match=message):
            load_corpus(tmp_path)

    def test_string_with_no_utf8_form_touches_no_file(self, tmp_path):
        # parse_corpus refuses such a string; a corpus built by hand may hold one
        corpus = dataclasses.replace(corpus_of(mk("a"), mk("b")), abstract=("x", "\ud800"))
        with pytest.raises(UnicodeEncodeError):
            save_corpus(corpus, tmp_path)
        assert not list(tmp_path.iterdir())


class TestJournalFiltering:
    def test_read_allowlist_trims_and_skips_blanks(self, tmp_path):
        path = tmp_path / "allow.txt"
        path.write_text("  Journal A \n\nJournal B\n", encoding="utf-8")
        assert read_allowlist(path) == {"Journal A", "Journal B"}

    def test_read_allowlist_drops_a_byte_order_mark(self, tmp_path):
        # as a spreadsheet's "CSV UTF-8" starts a file
        path = tmp_path / "allow.txt"
        path.write_bytes(b"\xef\xbb\xbfJournal A\nJournal B\n")
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


def char_counts(texts, out_dir):
    """load_char_counts of the texts, saved as the abstract column."""
    save_columns(out_dir, {"corpus_abstract": texts})
    return load_char_counts(out_dir, "abstract").tolist()


# Rows of 1- to 4-byte characters and every kind of line ending.
_ROWS = st.lists(st.lists(st.sampled_from(
    ["a", " ", "\u00e9", "\u4e2d", "\U0001f600", "\r", "\n", "\r\n"])).map("".join))


class TestAbstractLength:
    def test_counts_whitespace(self, tmp_path):
        assert char_counts(["a b"], tmp_path) == abstract_lengths(["a b"]).tolist() == [3]

    def test_normalizes_crlf(self, tmp_path):
        # each line break counts as one character regardless of encoding
        texts = ["a\r\nb", "a\rb", "a\nb"]
        assert char_counts(texts, tmp_path) == abstract_lengths(texts).tolist() == [3, 3, 3]

    def test_cr_ending_a_row_and_lf_starting_the_next_count_apart(self, tmp_path):
        texts = ["a\r", "\nb", "", "\r", "", "\n"]
        assert char_counts(texts, tmp_path) == abstract_lengths(texts).tolist() == [
            2, 2, 0, 1, 0, 1]

    def test_empty_column(self, tmp_path):
        assert char_counts([], tmp_path) == []

    @settings(max_examples=200, deadline=None)
    @given(_ROWS, st.integers(1, 16))
    @example(["x\r", "\ny"], 1)
    @example(["\u00e9\r", "", "\n\U0001f600\r\n"], 4)
    def test_byte_count_equals_str_count(self, texts, chunk_bytes):
        # small chunks put chunk bounds between rows of every kind
        with tempfile.TemporaryDirectory() as tmp, \
                mock.patch.object(corpus_module, "_CHUNK_BYTES", chunk_bytes):
            assert char_counts(texts, Path(tmp)) == abstract_lengths(texts).tolist()


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
        return corpus, graph_of(corpus)

    def test_thresholds_and_order(self):
        corpus, graph = self._corpus_and_graph()
        crit = EligibilityCriteria(min_out_links=1, min_in_links=1,
                                   min_abstract_chars=1)
        assert eligible_of(corpus, graph, crit) == ["c"]
        crit = EligibilityCriteria(min_out_links=0, min_in_links=0,
                                   min_abstract_chars=1)
        assert eligible_of(corpus, graph, crit) == ["a", "b", "c"]

    def test_year_window(self):
        corpus, graph = self._corpus_and_graph()
        crit = EligibilityCriteria(min_out_links=0, min_in_links=0,
                                   year_min=1996, year_max=2019,
                                   min_abstract_chars=1)
        assert eligible_of(corpus, graph, crit) == ["b"]

    def test_abstract_threshold_uses_normalized_length(self):
        short = mk("s", abstract="x" * 500)
        long_enough = mk("l", abstract="x" * 501)
        crlf = mk("c", abstract=("x" * 499) + "\r\n")  # 500 after normalization
        corpus = corpus_of(short, long_enough, crlf)
        graph = graph_of(corpus)
        crit = EligibilityCriteria(min_out_links=0, min_in_links=0)
        assert eligible_of(corpus, graph, crit) == ["l"]

    @pytest.mark.parametrize("rows", [2, 4])
    def test_columns_of_another_length_than_the_graph_are_refused(self, rows):
        _, graph = self._corpus_and_graph()
        year, chars = np.full(3, 2000), np.full(3, 600)
        with pytest.raises(ValueError, match=f"^year has {rows} rows, the graph 3 nodes$"):
            eligible_ids(graph, np.full(rows, 2000), chars)
        with pytest.raises(ValueError,
                           match=f"^abstract_chars has {rows} rows, the graph 3 nodes$"):
            eligible_ids(graph, year, np.full(rows, 600))


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

    def test_string_with_no_utf8_form_beats_a_later_bad_field(self):
        text = _line("a", title="t\ud800") + _line("b") + _line("c", year=3000)
        with pytest.raises(ValueError) as excinfo:
            parse_corpus(io.StringIO(text))
        assert str(excinfo.value) == (
            "<stream>: line 1: record 'a': not encodable as UTF-8 (surrogates not allowed)")

    def test_string_with_no_utf8_form_is_the_last_check_of_a_line(self):
        text = _line("a") + _line("b", title="t\ud800", year=3000)
        with pytest.raises(ValueError) as excinfo:
            parse_corpus(io.StringIO(text))
        assert str(excinfo.value) == "<stream>: line 2: record 'b': year 3000 outside [1800, 2100]"

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
    "\ud800", [], ["a"], [""], [3], [["a"]], [{"a": 1}], ["", ["a"]], [3, {"a": 1}],
    ["\ud800"], {"a": 1},
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
        graph = graph_of(kept)
        assert graph.ids == ("a", "c") and graph.n_edges == 1
        assert graph.reference_row(0).tolist() == [1]
