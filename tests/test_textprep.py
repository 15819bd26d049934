from __future__ import annotations

import io
import logging
import re
import unicodedata

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from medlex.errors import ParseError
from medlex.io import split_lines
from medlex.model import Definition, Entry, Token, fold
from medlex.pipeline import attach_tokens
from medlex.textprep import (
    StopConfig,
    extract_first_noun,
    heuristic_tag,
    ingest_conllu,
    load_stoplist,
)
from tests.conftest import load_fixture_entries

ROW = "{i}\t{form}\t_\t{upos}\t_\t_\t0\tdep\t_\t_"


def stoplist_of(tmp_path, *lines: str) -> StopConfig:
    """The StopConfig of a stoplist file that holds ``lines``."""
    path = tmp_path / "stops.txt"
    path.write_text("".join(line + "\n" for line in lines), encoding="utf-8")
    return load_stoplist(path)


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

    def test_equal_pairs_share_one_token(self):
        text = conllu_text(
            ("e1", [("sykdom", "NOUN"), ("i", "ADP"), ("sykdom", "NOUN")]),
            ("e2", [("i", "ADP"), ("sykdom", "NOUN"), ("sykdom", "PROPN"), ("Sykdom", "NOUN")]),
        )
        result = ingest_conllu(io.StringIO(text))
        (a, i, b), (j, c, proper, upper) = result["e1"], result["e2"]
        assert a is b is c and i is j
        assert len({id(t) for t in (a, i, proper, upper)}) == 4
        assert type(result["e1"]) is list
        # Each call has its own tokens.
        assert ingest_conllu(io.StringIO(text))["e1"][0] is not a

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


# ingest_conllu as it was before it became one loop, kept as the reference
# the loop must reproduce on every input it accepted: the sentence ends in
# a nested flush(), called once more after the last line.
_REFERENCE_SENT_ID = re.compile(r"^#\s*sent_id\s*=\s*(\S+)\s*$")
_textprep_log = logging.getLogger("medlex.textprep")


def reference_ingest_conllu(stream, id_map=None, path=None):
    results = {}
    seen_ids = set()
    sent_id = None
    tokens = []
    sent_start_line = 0

    def flush():
        nonlocal sent_id, tokens
        if not tokens and sent_id is None:
            return
        if sent_id is None:
            raise ParseError("sentence without a # sent_id comment", path, sent_start_line)
        if sent_id in seen_ids:
            raise ParseError(f"duplicate sent_id {sent_id!r}", path, sent_start_line)
        seen_ids.add(sent_id)
        entry_id = sent_id
        if id_map is not None:
            if sent_id not in id_map:
                _textprep_log.warning("sent_id %r matches no entry; sentence skipped", sent_id)
                sent_id, tokens = None, []
                return
            entry_id = id_map[sent_id]
        results[entry_id] = tokens
        sent_id, tokens = None, []

    for lineno, raw in enumerate(stream, start=1):
        line = raw.rstrip("\r\n")
        if not line:
            flush()
            continue
        if line.startswith("#"):
            m = _REFERENCE_SENT_ID.match(line)
            if m:
                if sent_id is None and not tokens:
                    sent_start_line = lineno
                sent_id = m.group(1)
            continue
        if not tokens and sent_id is None:
            sent_start_line = lineno
        cols = line.split("\t")
        if len(cols) != 10:
            raise ParseError(f"expected 10 tab-separated columns, got {len(cols)}", path, lineno)
        token_id = cols[0]
        if "-" in token_id or "." in token_id:
            continue
        if not cols[1]:
            raise ParseError("empty FORM column", path, lineno)
        tokens.append(Token(cols[1], cols[3]))
    flush()
    return results


def _token_row(token_id: str, form: str, upos: str = "NOUN") -> str:
    return f"{token_id}\t{form}\t_\t{upos}\t_\t_\t0\tdep\t_\t_"


SENT_IDS = ["a", "b", "c", "d"]
# Lines a sentence may hold anywhere: comments other than # sent_id, words,
# multiword-token ranges and empty nodes.
CONLLU_WORD = st.builds(
    _token_row,
    st.sampled_from(["1", "2", "17"]),
    st.sampled_from(["blod", "måling", "."]),
    st.sampled_from(["NOUN", "PROPN", "ADP", "_"]),
)
CONLLU_BODY_LINE = st.one_of(
    st.sampled_from(["# text = blod og måling", "#", "# newdoc", "# sent_id =", "#sent_idx = a"]),
    CONLLU_WORD,
    CONLLU_WORD,
    st.builds(_token_row, st.sampled_from(["1-2", "3-4", "1.1", "2.3"]), st.sampled_from(["kontrakt", "_"])),
)
CONLLU_FAULTY_LINE = st.sampled_from(["1\tblod\t_\tNOUN", _token_row("1", ""), " "])
SENT_ID_LINE = st.builds(
    lambda fmt, sent_id: fmt.format(sent_id),
    st.sampled_from(["# sent_id = {}", "#sent_id={}", "#  sent_id =  {} "]),
    st.sampled_from(SENT_IDS),
)


@st.composite
def conllu_sentence(draw) -> list[str]:
    """One block of lines with no blank line and at most one # sent_id,
    which comes before the block's first word; it may follow comments,
    ranges and empty nodes."""
    body = draw(st.lists(CONLLU_BODY_LINE, max_size=5))
    if draw(st.integers(0, 15)) == 0:
        body.insert(draw(st.integers(0, len(body))), draw(CONLLU_FAULTY_LINE))
    if draw(st.integers(0, 3)):
        ids = [line.split("\t")[0] for line in body]
        words = [i for i, tid in enumerate(ids) if tid.isdigit()]
        at = draw(st.integers(0, words[0] if words else len(body)))
        body.insert(at, draw(SENT_ID_LINE))
    return body


@st.composite
def conllu_documents(draw) -> str:
    gap = st.lists(st.just(""), min_size=1, max_size=3)
    lines = draw(st.lists(st.just(""), max_size=2))
    for sentence in draw(st.lists(conllu_sentence(), max_size=5)):
        lines += sentence + draw(gap)
    if lines and draw(st.booleans()):
        # No blank line after the last sentence.
        while lines and lines[-1] == "":
            lines.pop()
    end = draw(st.sampled_from(["\n", "\r\n"]))
    return "".join(line + end for line in lines)


class _Warnings(logging.Handler):
    def __init__(self):
        super().__init__(logging.WARNING)
        self.messages = []

    def emit(self, record):
        self.messages.append(record.getMessage())


def ingest_outcome(ingest, lines, id_map):
    """(result or error text, warnings) of one ingest function."""
    handler = _Warnings()
    _textprep_log.addHandler(handler)
    try:
        got = ingest(lines, id_map=id_map, path="d.conllu")
    except ParseError as exc:
        got = f"ParseError: {exc}"
    finally:
        _textprep_log.removeHandler(handler)
    return got, handler.messages


class TestIngestConlluAgainstReference:
    @settings(max_examples=400, deadline=None)
    @given(
        conllu_documents(),
        st.one_of(st.none(), st.dictionaries(st.sampled_from(SENT_IDS), st.sampled_from(["e1", "e2", "a"]))),
        st.booleans(),
    )
    def test_same_tokens_errors_and_warnings(self, text, id_map, as_stream):
        def lines():
            # A text stream keeps each line's terminator; the CLI passes split lines.
            return io.StringIO(text) if as_stream else split_lines(text)

        assert ingest_outcome(ingest_conllu, lines(), id_map) == ingest_outcome(
            reference_ingest_conllu, lines(), id_map
        )

    @pytest.mark.parametrize(
        ("rows", "line"),
        [
            (["# sent_id = a", "1", "# sent_id = b", "1"], 3),
            (["1", "# sent_id = a"], 2),
            (["1-2", "1", "2", "# sent_id = a"], 4),
            (["# sent_id = a", "# sent_id = a", "1"], 2),
            (["# sent_id = a", "# sent_id = b"], 2),
        ],
    )
    def test_sent_id_inside_a_sentence_is_refused_at_its_line(self, rows, line):
        lines = [_token_row(r, "blod") if r[:1].isdigit() else r for r in rows]
        with pytest.raises(ParseError) as exc_info:
            ingest_conllu(lines, path="d.conllu")
        assert str(exc_info.value) == f"d.conllu:{line}: # sent_id inside a sentence; a blank line ends one"


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


def nouns(*surfaces: str) -> list[Token]:
    return [Token(s, "NOUN") for s in surfaces]


class TestExtractFirstNoun:
    def test_stop_phrase_skips_head_noun_only(self):
        tokens = heuristic_tag("form av anemi hos unge", frozenset({"av", "hos"}))
        stops = StopConfig(stop_phrases=frozenset({"form av"}))
        assert extract_first_noun(tokens, stops) == "anemi"

    def test_stop_noun_skipped(self):
        tokens = heuristic_tag("uttrykk for glede", frozenset({"for"}))
        stops = StopConfig(stop_nouns=frozenset({"uttrykk"}))
        assert extract_first_noun(tokens, stops) == "glede"

    def test_no_noun_tokens_gives_none(self):
        tokens = [Token("av", "ADP"), Token("ved", "ADP")]
        assert extract_first_noun(tokens, StopConfig()) is None

    def test_abbreviations_skipped_regardless_of_tag(self, tmp_path):
        # The stoplist lists an abbreviation as a stop noun.
        tokens = [Token("plur.", "NOUN"), Token("celler", "NOUN")]
        stops = stoplist_of(tmp_path, "plur.")
        assert stops == StopConfig(stop_nouns=frozenset({"plur."}))
        assert extract_first_noun(tokens, stops) == "celler"

    def test_propn_counts_as_nominal(self):
        tokens = [Token("Akershus", "PROPN")]
        assert extract_first_noun(tokens, StopConfig()) == "akershus"

    def test_result_is_lowercased_surface(self):
        tokens = [Token("Anemi", "NOUN")]
        assert extract_first_noun(tokens, StopConfig()) == "anemi"

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
        result = extract_first_noun(tokens, StopConfig())
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
        base = StopConfig()
        extended = StopConfig(stop_nouns=frozenset({absent}))
        if absent in [s.lower() for s in surfaces]:
            return
        assert extract_first_noun(tokens, base) == extract_first_noun(tokens, extended)


class TestStoplistParsing:
    def test_classification_by_shape(self, tmp_path):
        config = stoplist_of(tmp_path, "# comment", "form av", "uttrykk", "plur.", "lat.", "")
        assert config.stop_phrases == frozenset({"form av"})
        assert config.stop_nouns == frozenset({"uttrykk", "plur.", "lat."})

    def test_items_lowercased(self, tmp_path):
        config = stoplist_of(tmp_path, "UTTRYKK")
        assert config.stop_nouns == frozenset({"uttrykk"})

    def test_three_token_phrase_rejected(self, tmp_path):
        with pytest.raises(ParseError) as exc_info:
            stoplist_of(tmp_path, "uttrykk", "en to tre")
        assert exc_info.value.line == 2

    def test_config_validates_phrase_shape(self):
        with pytest.raises(ValueError):
            StopConfig(stop_phrases=frozenset({"bare-en"}))
        with pytest.raises(ValueError):
            StopConfig(stop_nouns=frozenset({"Upper"}))

    # An abbreviation is a stop noun that ends in a period.
    @pytest.mark.parametrize("kind", ["stop_nouns", "stop_phrases", "abbreviations"])
    def test_config_rejects_items_not_in_nfc(self, kind, tmp_path):
        field, item = {"stop_nouns": ("stop_nouns", "måte"), "stop_phrases": ("stop_phrases", "måte på"),
                       "abbreviations": ("stop_nouns", "må.")}[kind]
        nfd = unicodedata.normalize("NFD", item)
        with pytest.raises(ValueError) as exc_info:
            StopConfig(**{field: frozenset({nfd})})
        assert str(exc_info.value) == f"stoplist entries must be folded (NFC, lowercase, NFC): {nfd!r}"
        assert getattr(stoplist_of(tmp_path, nfd), field) == frozenset({item})


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
