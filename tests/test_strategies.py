from __future__ import annotations

import unicodedata
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from medlex.errors import LintError, ParseError
from medlex.model import Category, Provenance, fold
from medlex.strategies import (
    MIN_CONTAINED_KEYWORD_LEN,
    KeywordTable,
    SuffixTable,
    contained_keyword,
    kw_entry_vote,
    kw_firstnoun_vote,
    load_keyword_table,
    load_suffix_table,
    suffix_vote,
)

WORD = st.text(alphabet="abcdefghijklmnopqrstuvwxyzæøå", min_size=1, max_size=14)


def table_of(*pairs: tuple[str, Category]) -> KeywordTable:
    return KeywordTable(tuple(pairs))


def suffixes_of(*pairs: tuple[str, Category]) -> SuffixTable:
    return SuffixTable(tuple(pairs))


def find_oracle(haystack: str, needle: str, start: int) -> int:
    """Independent substring search used to pin expected positions."""
    for i in range(start, len(haystack) - len(needle) + 1):
        if haystack[i : i + len(needle)] == needle:
            return i
    return -1


# Brute-force oracles: linear scans over every table row, the rules the
# indexed lookups in medlex.strategies must reproduce.


def suffix_vote_oracle(term: str, table: SuffixTable) -> tuple[str, Category] | None:
    best = None
    for suffix, category in table.entries:
        if len(term) > len(suffix) and term.endswith(suffix):
            if best is None or len(suffix) > len(best[0]):
                best = (suffix, category)
    return best


def contained_keyword_oracle(
    haystack: str, table: KeywordTable
) -> tuple[str, Category, int] | None:
    best = None
    for keyword, category in table.entries:
        if len(keyword) < MIN_CONTAINED_KEYWORD_LEN:
            continue
        pos = haystack.find(keyword, 1)
        if pos < 1:
            continue
        if best is None or (pos, -len(keyword)) < (best[2], -len(best[0])):
            best = (keyword, category, pos)
    return best


def exact_keyword_oracle(word: str, table: KeywordTable) -> Category | None:
    for keyword, category in table.entries:
        if word == keyword:
            return category
    return None


def lint_oracle(table: SuffixTable) -> list[str]:
    warnings = []
    for short, cat_short in table.entries:
        for long, cat_long in table.entries:
            if long != short and long.endswith(short) and cat_long is not cat_short:
                warnings.append(
                    f"suffix -{short} ({cat_short}) nests inside -{long} "
                    f"({cat_long}); longest match wins"
                )
    return warnings


# A small alphabet makes nested and overlapping triggers common; lengths
# up to 7 cover keywords both below and above the containment minimum.
TRIGGER = st.text(alphabet="aeæøå", min_size=1, max_size=7)
ROWS = st.dictionaries(TRIGGER, st.sampled_from(list(Category)), max_size=12).map(
    lambda rows: tuple(rows.items())
)


@st.composite
def rows_and_terms(draw):
    """A table's rows and terms built from triggers, stray letters and
    spaces, so terms equal to, nesting and spanning triggers all occur."""
    rows = draw(ROWS)
    triggers = [trigger for trigger, _ in rows]
    piece = st.one_of(TRIGGER, st.just(" "), *([st.sampled_from(triggers)] if triggers else []))
    term = st.lists(piece, min_size=1, max_size=4).map("".join)
    return rows, draw(st.lists(term, min_size=1, max_size=8))


def shape(vote):
    return None if vote is None else (vote.trigger, vote.category, vote.position)


class TestIndexedEqualsOracle:
    @settings(max_examples=250)
    @given(rows_and_terms())
    def test_votes(self, case):
        rows, terms = case
        suffixes, keywords = SuffixTable(rows), KeywordTable(rows)
        for term in terms:
            suffix = suffix_vote_oracle(term, suffixes)
            assert shape(suffix_vote(term, suffixes)) == (suffix and (*suffix, None))

            contained = contained_keyword_oracle(term, keywords)
            assert contained_keyword(term, keywords) == contained
            assert shape(kw_entry_vote(term, keywords)) == contained

            exact = exact_keyword_oracle(term, keywords)
            expected = (term, exact, None) if exact is not None else contained
            assert shape(kw_firstnoun_vote(term, keywords)) == expected

    # Two letters and lengths 4-9 make many keywords share their first five
    # characters, so one head lists several lengths.
    @settings(max_examples=300)
    @given(
        st.dictionaries(
            st.text(alphabet="ab", min_size=4, max_size=9),
            st.sampled_from(list(Category)),
            max_size=20,
        ),
        st.lists(st.text(alphabet="ab", max_size=12), min_size=1, max_size=10),
    )
    def test_containment_with_shared_heads(self, rows, haystacks):
        keywords = KeywordTable(tuple(rows.items()))
        for haystack in haystacks:
            assert contained_keyword(haystack, keywords) == contained_keyword_oracle(
                haystack, keywords
            )

    @given(ROWS)
    def test_suffix_lint(self, rows):
        table = SuffixTable(rows)
        assert table.lint() == lint_oracle(table)

    def test_index_stays_out_of_equality_hash_and_repr(self):
        rows = (
            ("sykdom", Category.CONDITION),
            ("sykdommer", Category.CONDITION),
            ("lege", Category.PERSON),
        )
        a, b = KeywordTable(rows), KeywordTable(rows)
        assert a.heads == {"sykdo": (9, 6)}
        assert a == b and hash(a) == hash(b)
        assert repr(a) == f"KeywordTable(entries={rows!r})"
        assert a != KeywordTable(rows[:1])
        # The derived fields are no constructor arguments, and cannot be set.
        with pytest.raises(TypeError):
            KeywordTable(rows, a.index)
        with pytest.raises(TypeError):
            KeywordTable(rows, heads=a.heads)
        for name in ("index", "heads"):
            with pytest.raises(AttributeError):
                setattr(a, name, {})
        assert a.index == dict(rows)


class TestSuffixVote:
    def test_known_terms(self, suffixes):
        vote = suffix_vote("nyrebiopsi", suffixes)
        assert (vote.category, vote.trigger) == (Category.PROCEDURE, "biopsi")
        vote = suffix_vote("nevrolog", suffixes)
        assert (vote.category, vote.trigger) == (Category.PERSON, "olog")
        vote = suffix_vote("leukemi", suffixes)
        assert (vote.category, vote.trigger) == (Category.CONDITION, "emi")

    def test_term_equal_to_suffix_is_not_a_match(self, suffixes):
        assert suffix_vote("itis", suffixes) is None

    def test_no_match(self, suffixes):
        assert suffix_vote("hjerte", suffixes) is None

    def test_longest_match_wins(self):
        table = suffixes_of(("emi", Category.CONDITION), ("temi", Category.CONDITION))
        vote = suffix_vote("xxtemi", table)
        assert vote.trigger == "temi"

    def test_vote_strategy_and_shape(self, suffixes):
        vote = suffix_vote("leukemi", suffixes)
        assert vote.strategy is Provenance.SUFF
        assert vote.position is None

    @given(WORD)
    def test_returned_vote_is_a_proper_suffix(self, term):
        table = suffixes_of(
            ("emi", Category.CONDITION),
            ("graf", Category.TOOL),
            ("a", Category.PERSON),
        )
        vote = suffix_vote(term, table)
        if vote is not None:
            assert term.endswith(vote.trigger)
            assert len(term) > len(vote.trigger)
            assert dict(table.entries)[vote.trigger] is vote.category

    @given(WORD)
    def test_removing_a_row_never_creates_votes(self, term):
        full = suffixes_of(
            ("emi", Category.CONDITION),
            ("graf", Category.TOOL),
        )
        reduced = suffixes_of(("emi", Category.CONDITION))
        before = suffix_vote(term, full)
        after = suffix_vote(term, reduced)
        if after is not None:
            assert before is not None


class TestContainedKeyword:
    def test_position_from_independent_search(self, keywords):
        hit = contained_keyword("tannhelsetjeneste", keywords)
        assert hit is not None
        keyword, category, pos = hit
        assert (keyword, category) == ("tjeneste", Category.SERVICE)
        assert pos == find_oracle("tannhelsetjeneste", "tjeneste", 1) == 9

    def test_short_keywords_never_fire(self):
        table = table_of(("tap", Category.CONDITION))
        assert contained_keyword("katapleksi", table) is None

    def test_match_at_position_zero_excluded(self):
        table = table_of(("tjeneste", Category.SERVICE))
        assert contained_keyword("tjeneste", table) is None
        assert contained_keyword("tjenesten", table) is None

    def test_five_letter_keyword_at_the_last_start_position(self):
        table = table_of(("sykdo", Category.CONDITION))
        assert contained_keyword("xyzsykdo", table) == ("sykdo", Category.CONDITION, 3)
        assert contained_keyword("xyzsykd", table) is None

    def test_five_character_haystack_has_no_start_position(self):
        table = table_of(("sykdo", Category.CONDITION), ("ykdom", Category.CONDITION))
        assert contained_keyword("sykdo", table) is None
        assert contained_keyword("sykdom", table) == ("ykdom", Category.CONDITION, 1)

    def test_leftmost_match_wins(self):
        table = table_of(("sykdom", Category.CONDITION), ("mangel", Category.CONDITION))
        hit = contained_keyword("xsykdommangel", table)
        assert hit[0] == "sykdom"

    def test_ties_on_position_go_to_longest(self):
        table = table_of(("hjerte", Category.ANAT_LOC), ("hjertesykdom", Category.CONDITION))
        hit = contained_keyword("xhjertesykdom", table)
        assert hit[0] == "hjertesykdom"

    @given(WORD)
    def test_never_position_zero_nor_short_keyword(self, haystack):
        table = table_of(
            ("sykdom", Category.CONDITION),
            ("lege", Category.PERSON),
            ("omsorg", Category.SERVICE),
        )
        hit = contained_keyword(haystack, table)
        if hit is not None:
            keyword, category, pos = hit
            assert pos >= 1
            assert len(keyword) > 4
            assert haystack[pos : pos + len(keyword)] == keyword
            assert dict(table.entries)[keyword] is category


class TestKwEntryVote:
    def test_schizoid_personlighetstype_false_positive_fires(self):
        table = table_of(("person", Category.PERSON))
        vote = kw_entry_vote("schizoid personlighetstype", table)
        assert vote is not None
        assert (vote.category, vote.trigger) == (Category.PERSON, "person")
        assert vote.position == find_oracle("schizoid personlighetstype", "person", 1) == 9
        assert vote.strategy is Provenance.KW_E

    def test_omsorg_not_contained_in_sjelesorg(self, keywords):
        assert kw_entry_vote("sjelesorg", keywords) is None

    def test_immunapparatet_tool_confusion(self):
        table = table_of(("apparat", Category.TOOL))
        vote = kw_entry_vote("immunapparatet", table)
        assert (vote.category, vote.trigger) == (Category.TOOL, "apparat")
        assert vote.position == find_oracle("immunapparatet", "apparat", 1) == 5

    def test_no_exact_match_semantics(self):
        # KW-E is containment only: a term equal to a keyword casts no vote.
        table = table_of(("sykdom", Category.CONDITION))
        assert kw_entry_vote("sykdom", table) is None


class TestKwFirstNounVote:
    def test_exact_match(self, keywords):
        vote = kw_firstnoun_vote("sykdom", keywords)
        assert (vote.category, vote.trigger) == (Category.CONDITION, "sykdom")
        assert vote.strategy is Provenance.KW_1N
        assert vote.position is None

    def test_containment_match(self, keywords):
        vote = kw_firstnoun_vote("strålebehandling", keywords)
        assert (vote.category, vote.trigger) == (Category.PROCEDURE, "behandling")
        assert vote.position == find_oracle("strålebehandling", "behandling", 1) == 6

    def test_absent_first_noun(self, keywords):
        assert kw_firstnoun_vote(None, keywords) is None

    def test_exact_match_allowed_for_short_keywords(self):
        table = table_of(("lege", Category.PERSON))
        vote = kw_firstnoun_vote("lege", table)
        assert vote.category is Category.PERSON
        # but containment still requires length > 4
        assert kw_firstnoun_vote("overlege", table) is None

    def test_exact_beats_containment(self):
        table = table_of(
            ("sykdom", Category.CONDITION),
            ("somsykdom", Category.PHYSIOLOGY),
        )
        vote = kw_firstnoun_vote("somsykdom", table)
        assert (vote.trigger, vote.category) == ("somsykdom", Category.PHYSIOLOGY)
        assert vote.position is None

    @given(st.one_of(st.none(), WORD))
    def test_category_always_matches_table(self, first_noun):
        table = table_of(
            ("sykdom", Category.CONDITION),
            ("behandling", Category.PROCEDURE),
        )
        vote = kw_firstnoun_vote(first_noun, table)
        if vote is not None:
            assert dict(table.entries)[vote.trigger] is vote.category


def table_file(tmp_path, *lines: str) -> Path:
    """A table file that holds ``lines``."""
    path = tmp_path / "t.tsv"
    path.write_text("".join(line + "\n" for line in lines), encoding="utf-8")
    return path


class TestTableParsing:
    def test_leading_dash_stripped(self, tmp_path):
        table = load_suffix_table(table_file(tmp_path, "-emi\tCONDITION"))
        assert table.entries == (("emi", Category.CONDITION),)

    def test_comments_and_blanks_skipped(self, tmp_path):
        table = load_keyword_table(table_file(tmp_path, "# note", "", "sykdom\tCONDITION"))
        assert table.entries == (("sykdom", Category.CONDITION),)

    def test_wrong_column_count(self, tmp_path):
        with pytest.raises(ParseError) as exc_info:
            load_suffix_table(table_file(tmp_path, "emi CONDITION"))
        assert exc_info.value.line == 1

    def test_unknown_category(self, tmp_path):
        with pytest.raises(ParseError):
            load_keyword_table(table_file(tmp_path, "sykdom\tDISEASE"))

    def test_duplicate_trigger_is_lint_error(self, tmp_path):
        path = table_file(tmp_path, "emi\tCONDITION", "-emi\tCONDITION")
        with pytest.raises(LintError) as exc_info:
            load_suffix_table(path)
        assert str(exc_info.value) == f"{path}:2: duplicate suffix 'emi'"

    def test_row_fault_after_a_duplicate_wins(self, tmp_path):
        # Every row is parsed before a repeated trigger is refused.
        with pytest.raises(ParseError) as exc_info:
            load_keyword_table(table_file(tmp_path, "kniv\tTOOL", "kniv\tTOOL", "sykdom\tDISEASE"))
        assert exc_info.value.line == 3

    def test_triggers_lowercased(self, tmp_path):
        table = load_keyword_table(table_file(tmp_path, "SYKDOM\tCONDITION"))
        assert table.entries[0][0] == "sykdom"

    def test_nfd_keyword_fires_on_nfc_term(self, tmp_path):
        nfd = unicodedata.normalize("NFD", "blåsebelg")
        assert nfd != "blåsebelg"
        table = load_keyword_table(table_file(tmp_path, f"{nfd}\tTOOL"))
        assert table.entries == (("blåsebelg", Category.TOOL),)
        vote = kw_entry_vote("xblåsebelg", table)
        assert (vote.trigger, vote.category, vote.position) == ("blåsebelg", Category.TOOL, 1)

    def test_nfd_suffix_fires_on_nfc_term(self, tmp_path):
        table = load_suffix_table(table_file(tmp_path, f"-{unicodedata.normalize('NFD', 'blå')}\tCONDITION"))
        vote = suffix_vote("xxblå", table)
        assert (vote.trigger, vote.category) == ("blå", Category.CONDITION)

    @pytest.mark.parametrize(
        ("load", "kind"), [(load_keyword_table, "keyword"), (load_suffix_table, "suffix")]
    )
    def test_triggers_differing_only_in_normalisation_are_duplicates(self, load, kind, tmp_path):
        path = table_file(tmp_path, "# blåsebelg", "blåsebelg\tTOOL",
                          f"{unicodedata.normalize('NFD', 'blåsebelg')}\tTOOL")
        with pytest.raises(LintError) as exc_info:
            load(path)
        assert str(exc_info.value) == f"{path}:3: duplicate {kind} 'blåsebelg'"

    @pytest.mark.parametrize(("table", "kind"), [(KeywordTable, "keyword"), (SuffixTable, "suffix")])
    @pytest.mark.parametrize(
        "trigger", ["Sykdom", unicodedata.normalize("NFD", "blåsebelg")], ids=["upper", "NFD"]
    )
    def test_table_built_directly_rejects_unfolded_triggers(self, table, kind, trigger, tmp_path):
        with pytest.raises(ValueError) as exc_info:
            table(((trigger, Category.CONDITION),))
        assert str(exc_info.value) == f"{kind} {trigger!r} is not folded (NFC, lowercase, NFC)"
        # The loaders fold, so the same row read from a file is accepted.
        load = load_keyword_table if table is KeywordTable else load_suffix_table
        path = table_file(tmp_path, f"{trigger}\tCONDITION")
        assert load(path).entries == ((fold(trigger), Category.CONDITION),)

    @pytest.mark.parametrize(("table", "kind"), [(KeywordTable, "keyword"), (SuffixTable, "suffix")])
    @pytest.mark.parametrize(
        ("rows", "message"),
        [((("", Category.TOOL),), "empty {kind}"),
         ((("blodet", Category.TOOL), ("blodet", Category.CONDITION)), "duplicate {kind} 'blodet'")],
        ids=["empty", "repeated"],
    )
    def test_table_built_directly_rejects_empty_and_repeated_triggers(self, table, kind, rows, message):
        with pytest.raises(ValueError) as exc_info:
            table(rows)
        assert str(exc_info.value) == message.format(kind=kind)

    def test_trigger_that_lowercases_to_a_composable_sequence_is_accepted(self, tmp_path):
        # "W" + combining ring lowercases to "w" + ring, which NFC composes
        # to U+1E98; the table must hold that composed form.
        table = load_keyword_table(table_file(tmp_path, "W\u030aabcde\tCONDITION"))
        assert table.entries == (("\u1e98abcde", Category.CONDITION),)
        vote = kw_entry_vote("x\u1e98abcde", table)
        assert (vote.trigger, vote.category, vote.position) == ("\u1e98abcde", Category.CONDITION, 1)


class TestLint:
    def test_nested_suffixes_with_conflicting_categories_flagged(self):
        table = suffixes_of(("graf", Category.TOOL), ("tograf", Category.PROCEDURE))
        problems = table.lint()
        assert len(problems) == 1
        assert "tograf" in problems[0]

    def test_nested_agreeing_suffixes_pass(self, suffixes):
        assert suffixes.lint() == []

    def test_short_keywords_noted(self, keywords):
        notes = keywords.lint()
        assert any("lege" in n for n in notes)
