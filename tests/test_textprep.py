from __future__ import annotations

import io
import logging
import re
import unicodedata

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from medlex.errors import ParseError
from medlex.model import Definition, Entry, Token, fold
from medlex.pipeline import attach_tokens
from medlex.textprep import (
    StopConfig,
    extract_first_noun,
    heuristic_tag,
    ingest_conllu,
    parse_stoplist,
)
from tests.conftest import load_fixture_entries

ROW = "{i}\t{form}\t_\t{upos}\t_\t_\t0\tdep\t_\t_"


def conllu_text(*sentences: tuple[str, list[tuple[str, str]]]) -> str:
    lines = []
    for sent_id, tokens in sentences:
        lines.append(f"# sent_id = {sent_id}")
        for i, (form, upos) in enumerate(tokens, start=1):
            lines.append(ROW.format(i=i, form=form, upos=upos))
        lines.append("")
    return "\n".join(lines)


# The tagger as it was before it tagged each distinct whitespace piece once,
# token by token, kept as the reference the memoised tagger must reproduce.
# It keeps only the combining marks U+0300-U+036F with their letter.
_ORACLE_ABBREV = re.compile(r"^\S{1,5}\.$")
_ORACLE_WORD_OR_PUNCT = re.compile(
    r"\w[\w\u0300-\u036f]*(?:-\w[\w\u0300-\u036f]*)*|[^\w\s]+"
)


def heuristic_tag_oracle(text: str, function_words: frozenset[str]) -> list[tuple[str, str]]:
    pairs = []
    for piece in text.split():
        if piece.endswith(".") and _ORACLE_ABBREV.match(unicodedata.normalize("NFC", piece)):
            pairs.append((piece, "X"))
            continue
        for m in _ORACLE_WORD_OR_PUNCT.finditer(piece):
            surface = m.group()
            if not any(ch.isalnum() for ch in surface):
                upos = "X"
            elif fold(surface) in function_words:
                upos = "X"
            else:
                upos = "NOUN"
            pairs.append((surface, upos))
    return pairs


class TestIngestConllu:
    def test_extracts_form_and_upos(self):
        text = conllu_text(("e1", [("kronisk", "ADJ"), ("sykdom", "NOUN")]))
        result = ingest_conllu(io.StringIO(text))
        assert list(result) == ["e1"]
        assert [(t.surface, t.upos) for t in result["e1"]] == [
            ("kronisk", "ADJ"),
            ("sykdom", "NOUN"),
        ]

    def test_empty_stream_gives_empty_map(self):
        assert ingest_conllu(io.StringIO("")) == {}

    def test_malformed_line_names_line_number(self):
        bad = "# sent_id = e1\n1\tx\t_\tNOUN\t_\t_\t0\tdep\t_\n"
        with pytest.raises(ParseError, match="9") as exc_info:
            ingest_conllu(io.StringIO(bad), path="bad.conllu")
        assert exc_info.value.line == 2
        assert "bad.conllu" in str(exc_info.value)

    def test_duplicate_sent_id_rejected(self):
        text = conllu_text(
            ("e1", [("a", "NOUN")]),
            ("e1", [("b", "NOUN")]),
        )
        with pytest.raises(ParseError, match="duplicate sent_id"):
            ingest_conllu(io.StringIO(text))

    def test_unknown_sent_id_skipped_with_warning(self, caplog):
        text = conllu_text(("e9", [("a", "NOUN")]))
        with caplog.at_level(logging.WARNING):
            result = ingest_conllu(io.StringIO(text), id_map={"e1": "e1"})
        assert result == {}
        assert "e9" in caplog.text

    def test_multiword_ranges_and_empty_nodes_skipped(self):
        text = (
            "# sent_id = e1\n"
            "1\tdu\t_\tPRON\t_\t_\t0\tdep\t_\t_\n"
            "2-3\tkontrakt\t_\t_\t_\t_\t_\t_\t_\t_\n"
            "2\tkon\t_\tNOUN\t_\t_\t0\tdep\t_\t_\n"
            "3\ttrakt\t_\tNOUN\t_\t_\t0\tdep\t_\t_\n"
            "3.1\tellipse\t_\tNOUN\t_\t_\t0\tdep\t_\t_\n"
        )
        tokens = ingest_conllu(io.StringIO(text))["e1"]
        assert [t.surface for t in tokens] == ["du", "kon", "trakt"]

    def test_crlf_tolerated(self):
        text = conllu_text(("e1", [("a", "NOUN")])).replace("\n", "\r\n")
        result = ingest_conllu(io.StringIO(text))
        assert [t.surface for t in result["e1"]] == ["a"]

    def test_sentence_without_sent_id_rejected(self):
        text = "1\ta\t_\tNOUN\t_\t_\t0\tdep\t_\t_\n"
        with pytest.raises(ParseError, match="sent_id"):
            ingest_conllu(io.StringIO(text))


class TestHeuristicTag:
    def test_function_words_get_x(self):
        tokens = heuristic_tag("form av anemi", frozenset({"av"}))
        assert [(t.surface, t.upos) for t in tokens] == [
            ("form", "NOUN"),
            ("av", "X"),
            ("anemi", "NOUN"),
        ]

    def test_empty_text(self):
        assert heuristic_tag("", frozenset()) == []

    def test_abbreviation_pattern_matches_conllu_annotation(self):
        # The same sentence annotated in CoNLL-U must yield the same
        # surface/tag pairs as the heuristic fallback.
        text = conllu_text(("e1", [("lat.", "X"), ("morbus", "NOUN")]))
        ingested = ingest_conllu(io.StringIO(text))["e1"]
        heuristic = heuristic_tag("lat. morbus", frozenset())
        assert [(t.surface, t.upos) for t in heuristic] == [
            (t.surface, t.upos) for t in ingested
        ]

    def test_tokens_align_with_text(self):
        text = "form av anemi, akutt\u2028lat. x-y--z_ ¶"
        Definition(text, tuple(heuristic_tag(text, frozenset({"av"}))))

    @given(st.text(alphabet="påaeéö. ,-", max_size=40))
    def test_nfd_text_tags_as_its_nfc_form(self, text):
        words = frozenset({"på", "é"})
        nfd = unicodedata.normalize("NFD", text)
        tokens = heuristic_tag(nfd, words)
        Definition(nfd, tuple(tokens))
        nfc_tokens = heuristic_tag(unicodedata.normalize("NFC", text), words)
        assert [(fold(t.surface), t.upos) for t in tokens] == [
            (fold(t.surface), t.upos) for t in nfc_tokens
        ]

    def test_punctuation_not_tagged_noun(self):
        tokens = heuristic_tag("anemi, akutt", frozenset())
        surfaces = {t.surface: t.upos for t in tokens}
        assert surfaces[","] == "X"
        assert surfaces["anemi"] == "NOUN"

    def test_vowel_signs_and_viramas_stay_with_their_letter(self):
        # Devanagari vowel signs (Mc) and the virama (Mn) are not \w.
        tokens = heuristic_tag("हिन्दी रोग", frozenset())
        assert [(t.surface, t.upos) for t in tokens] == [("हिन्दी", "NOUN"), ("रोग", "NOUN")]

    @given(st.text(max_size=30))
    def test_any_text_aligns(self, text):
        Definition(text, tuple(heuristic_tag(text, frozenset({"av"}))))


# Function words in several cases, abbreviations, NFD marks, punctuation
# runs and hyphen compounds, separated by unusual whitespace or by nothing,
# so that a piece may also join its neighbour.
TAGGER_PIECE = st.sampled_from(
    [
        "av", "Av", "AV", "på", "PÅ", unicodedata.normalize("NFD", "På"), "i", "I",
        "lat.", "Lat.", "plur.", "anemi", unicodedata.normalize("NFD", "blåbær"),
        "e\u0301", "hjerte-kar", "x--y", "-", ",", "...", "(", ")", ";:", "¶", "_",
    ]
)
TAGGER_GAP = st.sampled_from(["", " ", " ", "  ", "\u2028", "\t\n"])
TAGGER_TEXT = st.lists(st.tuples(TAGGER_PIECE, TAGGER_GAP), max_size=12).map(
    lambda pairs: "".join(piece + gap for piece, gap in pairs)
)


class TestMemoisedTaggerEqualsOracle:
    @settings(max_examples=200)
    @given(
        st.lists(TAGGER_TEXT, min_size=1, max_size=15),
        st.sampled_from([frozenset(), frozenset({"av", "på", "i"}), frozenset({"lat.", "anemi"})]),
    )
    def test_attach_tokens_tags_each_entry_as_the_oracle(self, texts, function_words):
        entries = [Entry(f"e{i}", "term", (Definition(t),)) for i, t in enumerate(texts)]
        attached, heuristic = attach_tokens(entries, None, function_words)
        assert heuristic
        for text, entry in zip(texts, attached):
            tokens = entry.first_sense().tokens
            assert [(t.surface, t.upos) for t in tokens] == heuristic_tag_oracle(
                text, function_words
            )

    def test_each_call_tags_with_its_own_function_words(self):
        entries = [Entry("e1", "term", (Definition("form av anemi"),))]
        tagged = [
            [t.upos for t in attach_tokens(entries, None, words)[0][0].first_sense().tokens]
            for words in (frozenset({"av"}), frozenset({"anemi"}))
        ]
        assert tagged == [["NOUN", "X", "NOUN"], ["NOUN", "NOUN", "X"]]


def make_stops(**kwargs) -> StopConfig:
    base = dict(stop_nouns=frozenset(), stop_phrases=frozenset(), abbreviations=frozenset())
    base.update(kwargs)
    return StopConfig(**base)


def nouns(*surfaces: str) -> list[Token]:
    return [Token(s, "NOUN") for s in surfaces]


class TestExtractFirstNoun:
    def test_stop_phrase_skips_head_noun_only(self):
        tokens = heuristic_tag("form av anemi hos unge", frozenset({"av", "hos"}))
        stops = make_stops(stop_phrases=frozenset({"form av"}))
        assert extract_first_noun(tokens, stops) == "anemi"

    def test_stop_noun_skipped(self):
        tokens = heuristic_tag("uttrykk for glede", frozenset({"for"}))
        stops = make_stops(stop_nouns=frozenset({"uttrykk"}))
        assert extract_first_noun(tokens, stops) == "glede"

    def test_no_noun_tokens_gives_none(self):
        tokens = [Token("av", "ADP"), Token("ved", "ADP")]
        assert extract_first_noun(tokens, make_stops()) is None

    def test_abbreviations_skipped_regardless_of_tag(self):
        tokens = [Token("plur.", "NOUN"), Token("celler", "NOUN")]
        stops = make_stops(abbreviations=frozenset({"plur."}))
        assert extract_first_noun(tokens, stops) == "celler"

    def test_propn_counts_as_nominal(self):
        tokens = [Token("Akershus", "PROPN")]
        assert extract_first_noun(tokens, make_stops()) == "akershus"

    def test_result_is_lowercased_surface(self):
        tokens = [Token("Anemi", "NOUN")]
        assert extract_first_noun(tokens, make_stops()) == "anemi"

    @given(
        st.lists(
            st.tuples(
                st.text(alphabet="abcøæå", min_size=1, max_size=6),
                st.sampled_from(["NOUN", "PROPN", "ADJ", "VERB", "X"]),
            ),
            max_size=8,
        )
    )
    def test_result_is_an_input_nominal_surface_or_none(self, pairs):
        tokens = [Token(surface, upos) for surface, upos in pairs]
        result = extract_first_noun(tokens, make_stops())
        if result is None:
            return
        assert result in [
            t.surface.lower() for t in tokens if t.upos in ("NOUN", "PROPN")
        ]

    @given(
        st.lists(st.text(alphabet="abcd", min_size=1, max_size=5), max_size=6),
        st.text(alphabet="xyz", min_size=1, max_size=5),
    )
    def test_adding_absent_stop_nouns_is_local(self, surfaces, absent):
        tokens = nouns(*surfaces)
        base = make_stops()
        extended = make_stops(stop_nouns=frozenset({absent}))
        if absent in [s.lower() for s in surfaces]:
            return
        assert extract_first_noun(tokens, base) == extract_first_noun(tokens, extended)


class TestStoplistParsing:
    def test_classification_by_shape(self):
        config = parse_stoplist(
            ["# comment", "form av", "uttrykk", "plur.", "lat.", ""]
        )
        assert config.stop_phrases == frozenset({"form av"})
        assert config.stop_nouns == frozenset({"uttrykk"})
        assert config.abbreviations == frozenset({"plur.", "lat."})

    def test_items_lowercased(self):
        config = parse_stoplist(["UTTRYKK"])
        assert config.stop_nouns == frozenset({"uttrykk"})

    def test_three_token_phrase_rejected(self):
        with pytest.raises(ParseError):
            parse_stoplist(["en to tre"])

    def test_config_validates_phrase_shape(self):
        with pytest.raises(ValueError):
            StopConfig(stop_phrases=frozenset({"bare-en"}))
        with pytest.raises(ValueError):
            StopConfig(stop_nouns=frozenset({"Upper"}))

    @pytest.mark.parametrize("field", ["stop_nouns", "stop_phrases", "abbreviations"])
    def test_config_rejects_items_not_in_nfc(self, field):
        item = {"stop_nouns": "måte", "stop_phrases": "måte på", "abbreviations": "må."}[field]
        nfd = unicodedata.normalize("NFD", item)
        with pytest.raises(ValueError) as exc_info:
            StopConfig(**{field: frozenset({nfd})})
        assert str(exc_info.value) == f"stoplist entries must be folded (NFC, lowercase, NFC): {nfd!r}"
        assert getattr(parse_stoplist([nfd]), field) == frozenset({item})


class TestTaggerIndependence:
    def test_first_nouns_agree_between_conllu_and_heuristic(self, stops):
        with_conllu = load_fixture_entries(conllu=True)
        with_heuristic = load_fixture_entries(conllu=False)
        for a, b in zip(with_conllu, with_heuristic):
            sense_a, sense_b = a.first_sense(), b.first_sense()
            if sense_a is None or sense_a.tokens is None:
                continue
            fn_a = extract_first_noun(sense_a.tokens, stops)
            fn_b = extract_first_noun(sense_b.tokens, stops)
            assert fn_a == fn_b, a.id
