from __future__ import annotations

import ast
import copy
import inspect
import pickle
import re
import sys
import unicodedata
from pathlib import Path
from types import SimpleNamespace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from medlex.evaluate import CategoryScore, ConfusionMatrix, EvalReport, OverlapResult
from medlex.merge import (
    ChapterRule,
    Correction,
    IngestResult,
    MergeReport,
    ResourceMode,
    ResourceSpec,
    SourceRecord,
)
from medlex.model import (
    ASSIGNABLE_CATEGORIES,
    Category,
    Definition,
    Entry,
    Frozen,
    LexiconRecord,
    MappingOutcome,
    Provenance,
    Token,
    STRATEGY_PRIORITY,
    Vote,
    fold,
    normalize_term,
    parse_category,
)
from medlex.pipeline import MappingStats
from medlex.strategies import KeywordTable, SuffixTable
from medlex.textprep import StopConfig

TERM_TEXT = st.text(alphabet="abcæøå ABZ\t\n  ", min_size=0, max_size=30)
UNICODE_SPACE = [c for c in map(chr, range(0x3001)) if re.fullmatch(r"\s", c)]


class TestNormalizeTerm:
    def test_trims_collapses_and_lowercases(self):
        assert normalize_term("  Røde  Kors ", lowercase=True) == "røde kors"

    def test_fixpoint_without_lowercase(self):
        assert normalize_term("aspartam", lowercase=False) == "aspartam"

    def test_strength_variant_kept_verbatim(self):
        assert normalize_term("Kortison Tab 25 mg", lowercase=True) == "kortison tab 25 mg"

    def test_empty_after_trim_rejected(self):
        with pytest.raises(ValueError, match="empty term"):
            normalize_term("   ")

    @given(TERM_TEXT)
    def test_idempotent(self, raw):
        for lowercase in (True, False):
            try:
                once = normalize_term(raw, lowercase)
            except ValueError:
                continue
            assert normalize_term(once, lowercase) == once

    @given(st.lists(TERM_TEXT, max_size=20))
    def test_lowercase_never_increases_distinct_count(self, terms):
        def distinct(lowercase):
            out = set()
            for t in terms:
                try:
                    out.add(normalize_term(t, lowercase))
                except ValueError:
                    pass
            return len(out)

        assert distinct(True) <= distinct(False)

    def test_split_breaks_at_exactly_the_regex_whitespace(self):
        every = "".join(map(chr, range(sys.maxunicode + 1)))
        split_at = {c for c in every if len(f"a{c}a".split()) == 2}
        assert split_at == set(re.findall(r"\s", every))

    @given(st.text(alphabet=st.one_of(st.characters(), st.sampled_from(UNICODE_SPACE))))
    def test_matches_regex_normalisation(self, raw):
        for lowercase in (True, False):
            expected = re.sub(r"\s+", " ", unicodedata.normalize("NFC", raw)).strip()
            if not expected:
                with pytest.raises(ValueError, match="empty term"):
                    normalize_term(raw, lowercase)
                continue
            if lowercase:
                expected = unicodedata.normalize("NFC", expected.lower())
            assert normalize_term(raw, lowercase) == expected

    @given(st.text(alphabet=st.characters()))
    def test_fold_and_normalize_term_are_idempotent(self, raw):
        assert fold(fold(raw)) == fold(raw)
        for lowercase in (True, False):
            try:
                once = normalize_term(raw, lowercase)
            except ValueError:
                continue
            assert normalize_term(once, lowercase) == once

    @pytest.mark.parametrize("raw", ["W\u030ax", "Y\u030a", "J\u030c", "H\u0331", "T\u0308"])
    def test_lowercasing_into_a_composable_sequence_is_composed(self, raw):
        composed = unicodedata.normalize("NFC", raw.lower())
        assert composed != raw.lower()
        assert fold(raw) == fold(composed) == composed
        assert normalize_term(raw) == normalize_term(composed) == composed


class TestCategory:
    def test_round_trip_all_labels(self):
        for cat in Category:
            assert parse_category(str(cat), allow_other=True) is cat

    def test_label_is_the_member_name(self):
        # A lexicon row stores a category's value, and the merge turns that
        # label back into its member with Category[label].
        for cat in Category:
            assert cat._value_ == cat.name
            assert Category[cat._value_] is cat

    def test_exactly_twelve_assignable(self):
        assert len(ASSIGNABLE_CATEGORIES) == 12
        assert Category.OTHER not in ASSIGNABLE_CATEGORIES

    def test_hyphen_and_underscore_equivalent(self):
        assert parse_category("ANAT-LOC") is Category.ANAT_LOC
        assert parse_category("ANAT_LOC") is Category.ANAT_LOC

    def test_long_spelling_accepted(self):
        assert parse_category("MICROORGANISM") is Category.MICROORG

    def test_unknown_label_rejected(self):
        with pytest.raises(ValueError):
            parse_category("DISEASE")

    def test_other_is_gold_only(self):
        with pytest.raises(ValueError):
            parse_category("OTHER")
        assert parse_category("OTHER", allow_other=True) is Category.OTHER


class TestEntry:
    def test_empty_term_rejected(self):
        with pytest.raises(ValueError):
            Entry("x", "   ")

    def test_first_sense(self):
        entry = Entry("x", "term", (Definition("a"), Definition("b")))
        assert entry.first_sense().text == "a"
        assert Entry("y", "term").first_sense() is None


class TestToken:
    def test_empty_surface_rejected(self):
        with pytest.raises(ValueError, match="empty"):
            Token("", "NOUN")


class TestDefinitionTokenAlignment:
    def test_aligned_tokens_accepted(self):
        Definition("form av", (Token("form", "NOUN"), Token("av", "ADP")))

    def test_mismatched_surface_rejected(self):
        with pytest.raises(ValueError, match="'xx' does not align with text at offset 5"):
            Definition("form av", (Token("form", "NOUN"), Token("xx", "ADP")))

    def test_overlapping_tokens_rejected(self):
        with pytest.raises(ValueError, match="'mav' does not align with text at offset 4"):
            Definition("formav", (Token("form", "NOUN"), Token("mav", "ADP")))

    def test_whitespace_between_tokens_ignored(self):
        Definition("  sykdom \u2028 i", (Token("sykdom", "NOUN"), Token("i", "ADP")))

    def test_misaligned_surface_rejected(self):
        with pytest.raises(ValueError, match="does not align with text at offset 0"):
            Definition("noe annet", (Token("sykdom", "NOUN"),))

    def test_surface_starting_with_a_space_never_aligns(self):
        # " i" is what the text starts with, but a surface begins at the
        # first non-whitespace character.
        with pytest.raises(ValueError, match="^token ' i' does not align with text at offset 1$"):
            Definition(" i", (Token(" i", "ADP"),))
        tokens = (Token("sykdom", "NOUN"), Token(" i", "ADP"))
        with pytest.raises(ValueError, match="^token ' i' does not align with text at offset 7$"):
            Definition("sykdom i blodet", tokens)

    def test_tab_separated_text_accepted(self):
        tokens = (Token("sykdom", "NOUN"), Token("i", "ADP"), Token("blodet", "NOUN"))
        assert Definition("sykdom\ti\t blodet", tokens).tokens == tokens

    def test_punctuation_written_against_the_word(self):
        Definition("sykdom.", (Token("sykdom", "NOUN"), Token(".", "PUNCT")))
        with pytest.raises(ValueError, match="^token 'sykdom.' does not align with text at offset 0$"):
            Definition("sykdom .", (Token("sykdom.", "NOUN"),))

    @settings(max_examples=500, deadline=None)
    @given(st.data())
    def test_accepts_exactly_what_the_cursor_loop_accepts(self, data):
        surfaces = data.draw(st.lists(st.text(ALIGN_CHARS, min_size=1, max_size=4), max_size=5))
        # Half the runs are the single space the usual text has.
        seps = data.draw(st.lists(st.one_of(st.just(" "), st.text(ALIGN_SPACES, max_size=2)),
                                  min_size=len(surfaces) + 1, max_size=len(surfaces) + 1))
        text = seps[0] + "".join(s + sep for s, sep in zip(surfaces, seps[1:]))
        kind = data.draw(st.sampled_from(["none", "delete", "insert", "replace"]))
        if kind != "none":
            i = data.draw(st.integers(0, len(text)))
            ch = data.draw(st.sampled_from(ALIGN_CHARS))
            if kind == "delete":
                text = text[:i] + text[i + 1 :]
            else:
                text = text[:i] + ch + text[i + (kind == "replace") :]
        tokens = tuple(Token(s, "NOUN") for s in surfaces)
        expected = cursor_loop(text, surfaces)
        if expected is None:
            assert Definition(text, tokens).tokens == tokens
        else:
            with pytest.raises(ValueError) as exc_info:
                Definition(text, tokens)
            assert str(exc_info.value) == expected


# Letters, the period and four kinds of whitespace: a space, a tab, U+00A0
# and U+2028, each of which str.isspace and str.split treat as whitespace.
ALIGN_SPACES = " \t\u00a0\u2028"
ALIGN_CHARS = "ab." + ALIGN_SPACES


def cursor_loop(text, surfaces):
    """Definition's alignment check as it was before its single-space fast
    path, kept as the reference: the message it raises, or None."""
    cursor = 0
    for surface in surfaces:
        while cursor < len(text) and text[cursor].isspace():
            cursor += 1
        if not text.startswith(surface, cursor):
            return f"token {surface!r} does not align with text at offset {cursor}"
        cursor += len(surface)
    return None


def _vote(strategy=Provenance.SUFF, category=Category.CONDITION):
    return Vote(strategy, category, "emi")


class TestMappingOutcomeInvariants:
    def test_unmapped_iff_no_category(self):
        MappingOutcome("e", "t", None, Provenance.UNMAPPED).validate()
        with pytest.raises(ValueError):
            MappingOutcome("e", "t", None, Provenance.SUFF).validate()
        with pytest.raises(ValueError):
            MappingOutcome("e", "t", Category.CONDITION, Provenance.UNMAPPED).validate()

    def test_multi_needs_two_agreeing_votes(self):
        votes = (_vote(), _vote(Provenance.KW_1N))
        MappingOutcome("e", "t", Category.CONDITION, Provenance.MULTI, votes).validate()
        with pytest.raises(ValueError):
            MappingOutcome(
                "e", "t", Category.CONDITION, Provenance.MULTI, (_vote(),)
            ).validate()
        with pytest.raises(ValueError):
            MappingOutcome(
                "e",
                "t",
                Category.CONDITION,
                Provenance.MULTI,
                (_vote(), _vote(Provenance.KW_1N, Category.PROCEDURE)),
            ).validate()

    def test_single_strategy_provenance_matches_votes(self):
        MappingOutcome(
            "e", "t", Category.CONDITION, Provenance.SUFF, (_vote(),)
        ).validate()
        with pytest.raises(ValueError):
            MappingOutcome("e", "t", Category.CONDITION, Provenance.SUFF).validate()
        with pytest.raises(ValueError):
            MappingOutcome(
                "e",
                "t",
                Category.PROCEDURE,
                Provenance.SUFF,
                (_vote(category=Category.CONDITION),),
            ).validate()

    def test_iter_carries_no_votes(self):
        MappingOutcome("e", "t", Category.CONDITION, Provenance.ITER).validate()
        with pytest.raises(ValueError):
            MappingOutcome(
                "e", "t", Category.CONDITION, Provenance.ITER, (_vote(),)
            ).validate()

    def test_iter_has_a_category(self):
        with pytest.raises(ValueError, match="^e: an ITER outcome has a category and no votes$"):
            MappingOutcome("e", "t", None, Provenance.ITER).validate()


def map_could_write(category, provenance, votes):
    """The outcome rule stated case by case: an ITER outcome has a category
    and no votes; no votes mean UNMAPPED; two or more agreeing votes mean
    MULTI; otherwise the vote of the earliest strategy in SUFF, KW_E, KW_1N
    gives the category and names the provenance. Votes must come from
    distinct voting strategies."""
    if provenance is Provenance.ITER:
        return category is not None and not votes
    strategies = [v.strategy for v in votes]
    if len(set(strategies)) < len(strategies) or not set(strategies) <= set(STRATEGY_PRIORITY):
        return False
    if not votes:
        return (category, provenance) == (None, Provenance.UNMAPPED)
    if len(votes) > 1 and all(v.category is votes[0].category for v in votes):
        return (category, provenance) == (votes[0].category, Provenance.MULTI)
    first = min(votes, key=lambda v: STRATEGY_PRIORITY.index(v.strategy))
    return (category, provenance) == (first.category, first.strategy)


# Mostly voting strategies and two categories, so that duplicate strategies,
# agreement and disagreement all come up often.
DRAWN_VOTE = st.builds(
    Vote,
    st.sampled_from(list(STRATEGY_PRIORITY) * 3 + [Provenance.MULTI, Provenance.ITER]),
    st.sampled_from([Category.CONDITION, Category.TOOL]),
    st.just("x"),
)


@given(st.lists(DRAWN_VOTE, max_size=4))
def test_validate_is_the_rule_map_applies(votes):
    votes = tuple(votes)
    for category in (None, Category.CONDITION, Category.TOOL, Category.PROCEDURE):
        for provenance in Provenance:
            outcome = MappingOutcome("e7", "t", category, provenance, votes)
            if map_could_write(category, provenance, votes):
                outcome.validate()
            else:
                with pytest.raises(ValueError, match="^e7: "):
                    outcome.validate()


# The plain row types, each built positionally, with its fields in order.
ROWS = [
    (Vote(Provenance.KW_E, Category.TOOL, "kniv", 3), ("strategy", "category", "trigger", "position")),
    (
        SourceRecord("kniv", Category.TOOL, "ICD-10", "ICD-10", 1),
        ("term", "category", "source", "provenance", "trust_rank"),
    ),
    (
        LexiconRecord("kniv", "TOOL", "ATC,MO", "KW_E"),
        ("term", "category", "sources", "provenance"),
    ),
    (
        Correction("kniv", Category.TOOL, Category.SUBSTANCE, "ATC"),
        ("term", "old_category", "new_category", "resource"),
    ),
    (ChapterRule("Procedure codes", None), ("chapter", "category")),
    (IngestResult("ATC", (), 2, 2), ("name", "records", "ingested", "excluded")),
    (
        MergeReport((("ATC", 2, 0, 2),), (), (), {}, 0),
        ("resource_counts", "overlap_pairs", "corrections", "category_counts", "total"),
    ),
    (OverlapResult(4, 3, (("TOOL", 4, 3),)), ("overlap", "correct", "per_category")),
    (ConfusionMatrix(("TOOL",), ((1,),)), ("labels", "counts")),
    (CategoryScore("TOOL", 1, 2, 3), ("label", "tp", "pred_n", "gold_n")),
    (
        EvalReport((CategoryScore("TOOL", 1, 2, 3),), 3, (1, 3), (1, 3)),
        ("per_category", "scored_n", "accuracy_incl_other", "accuracy_excl_other"),
    ),
    (
        MappingStats({"TOOL": 1}, {"KW_E": 1}, 0, 1, 0),
        ("category_counts", "provenance_counts", "disagreements", "mapped", "unmapped"),
    ),
    (
        MappingOutcome("e1", "kniv", Category.TOOL, Provenance.KW_E,
                       (Vote(Provenance.KW_E, Category.TOOL, "kniv"),)),
        ("entry_id", "term", "category", "provenance", "votes"),
    ),
]

ROW_IDS = [type(row).__name__ for row, _ in ROWS]


class TestPlainRows:
    @pytest.mark.parametrize("row, fields", ROWS, ids=ROW_IDS)
    def test_fields_in_order_and_read_by_name(self, row, fields):
        assert [getattr(row, name) for name in fields] == list(row)

    @pytest.mark.parametrize("row, fields", ROWS, ids=ROW_IDS)
    def test_attribute_assignment_rejected(self, row, fields):
        for name in fields:
            with pytest.raises(AttributeError):
                setattr(row, name, None)
        with pytest.raises(AttributeError):
            row.extra = None

    def test_constructors_store_only_derived_fields(self):
        # A constructor checks its fields and converts none of them; the
        # readers convert. It stores each argument as given, and besides
        # may store only what it derives from them.
        derived = {"index", "lengths", "heads", "chapter_index", "layout"}
        assert {cls for cls, _ in CHECKED} == set(Frozen.__subclasses__())
        for cls, args in CHECKED:
            value = cls(*args)
            for name, arg in zip(cls._fields, args):
                assert getattr(value, name) is arg, (cls.__name__, name)
            assert set(cls.__slots__) - set(cls._fields) <= derived, cls.__name__

    def test_vote_position_defaults_to_none(self):
        assert Vote(Provenance.SUFF, Category.CONDITION, "emi").position is None


# One value of each type whose constructor checks its arguments, with every
# argument given: none of them is converted, so each is stored as it is.
CHECKED = [
    (Token, ("kniv", "NOUN")),
    (Definition, (" en kniv", (Token("en", "X"), Token("kniv", "NOUN")))),
    (Entry, ("e1", " Kniv ", (Definition("en kniv"),), " e0")),
    (SuffixTable, ((("emi", Category.CONDITION), ("itis", Category.CONDITION)),)),
    (KeywordTable, ((("kniv", Category.TOOL), ("sykdom", Category.CONDITION)),)),
    (StopConfig, (frozenset({"form", "plur."}), frozenset({"form av"}))),
    (
        ResourceSpec,
        ("ICD-10", "icd.tsv", ResourceMode.CHAPTERED, 2, None,
         (ChapterRule(" Kap I ", Category.CONDITION), ChapterRule("kap ii", None)), Category.TOOL,
         {"term": 1, "chapter": 0}),
    ),
]
CHECKED_IDS = [cls.__name__ for cls, _ in CHECKED]


class TestCheckedValues:
    """Each type whose constructor checks its arguments compares, hashes and
    prints as a frozen dataclass would, over its constructor's arguments."""

    @pytest.mark.parametrize("cls, args", CHECKED, ids=CHECKED_IDS)
    def test_constructor_takes_the_fields_in_order(self, cls, args):
        assert list(inspect.signature(cls).parameters) == list(cls._fields)
        assert cls(*args) == cls(**dict(zip(cls._fields, args)))

    @pytest.mark.parametrize("cls, args", CHECKED, ids=CHECKED_IDS)
    def test_equality_and_repr_read_the_fields(self, cls, args):
        a = cls(*args)
        assert a == cls(*args) and not a != cls(*args)
        fields = ", ".join(f"{name}={arg!r}" for name, arg in zip(cls._fields, args))
        assert repr(a) == f"{cls.__name__}({fields})"
        # Unlike a NamedTuple, a value equals no tuple and no value of another type.
        assert a != args and a != tuple(getattr(a, name) for name in cls._fields)
        assert a != SimpleNamespace(**dict(zip(cls._fields, args)))

    @pytest.mark.parametrize("cls, args", CHECKED, ids=CHECKED_IDS)
    def test_equal_values_hash_alike(self, cls, args):
        if cls is ResourceSpec:
            # Its layout is a dict, as a frozen dataclass's would make it unhashable.
            with pytest.raises(TypeError):
                hash(cls(*args))
        else:
            assert hash(cls(*args)) == hash(cls(*args))
            assert len({cls(*args), cls(*args)}) == 1

    def test_a_field_decides_equality(self):
        rows = (("emi", Category.CONDITION),)
        assert SuffixTable(rows) != KeywordTable(rows)
        assert Token("kniv", "NOUN") != Token("kniv", "X")
        assert Entry("e1", "kniv") != Entry("e1", "kniv", synonym_of="e0")
        assert StopConfig() != StopConfig(frozenset({"form"}))

    @pytest.mark.parametrize("cls, args", CHECKED, ids=CHECKED_IDS)
    def test_attributes_cannot_be_set_or_deleted(self, cls, args):
        value = cls(*args)
        for name in cls.__slots__ + ("extra",):
            with pytest.raises(AttributeError):
                setattr(value, name, None)
            with pytest.raises(AttributeError):
                delattr(value, name)
        assert value == cls(*args)

    @pytest.mark.parametrize("cls, args", CHECKED, ids=CHECKED_IDS)
    def test_copy_and_pickle_rebuild_the_value(self, cls, args):
        value = cls(*args)
        for other in (copy.copy(value), copy.deepcopy(value), pickle.loads(pickle.dumps(value))):
            assert type(other) is cls and other == value
            for name in cls.__slots__:
                assert getattr(other, name) == getattr(value, name)

    def test_no_module_imports_dataclasses(self):
        # dataclasses imports inspect, ast and dis, and a dataclass generates
        # its methods' code at import: every command would pay for both.
        src = Path(__file__).resolve().parent.parent / "src" / "medlex"
        imports = []
        for path in sorted(src.glob("*.py")):
            for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
                if isinstance(node, ast.Import):
                    names = [alias.name for alias in node.names]
                elif isinstance(node, ast.ImportFrom):
                    names = [node.module or ""]
                else:
                    continue
                imports += [f"{path.name}: {name}" for name in names if name.split(".")[0] == "dataclasses"]
        assert imports == []
