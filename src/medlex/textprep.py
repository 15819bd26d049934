"""Definition text preparation: CoNLL-U ingestion, a heuristic fallback
tagger, and first-noun extraction with stoplist filtering."""

from __future__ import annotations

import logging
import re
import unicodedata
from itertools import chain
from pathlib import Path
from typing import Iterable, Mapping, TextIO

from .errors import ParseError
from .io import column_count_error, data_lines, read_text
from .model import Frozen, Token, fold

log = logging.getLogger(__name__)

# Tags accepted as nominal: proper nouns matter for organization/person terms.
NOMINAL_TAGS = frozenset({"NOUN", "PROPN"})

# Period-terminated short token, e.g. "plur." or "lat.".
_ABBREV_PATTERN = re.compile(r"^\S{1,5}\.$")

# Combining marks are not \w, but they belong to the letter before them, so a
# word written in NFD, or with the vowel signs of a script such as Devanagari,
# stays one token. The pattern names U+0300-U+036F only; ``_tag_piece`` runs it
# over a copy of the piece in which every other non-\w mark is U+0300.
_WORD_OR_PUNCT = re.compile(r"\w[\w\u0300-\u036f]*(?:-\w[\w\u0300-\u036f]*)*|[^\w\s]+")

_SENT_ID_COMMENT = re.compile(r"^#\s*sent_id\s*=\s*(\S+)\s*$")


class StopConfig(Frozen):
    """Filters applied before picking a definition's first noun. Items are
    compared with folded words, so each must be folded (``model.fold``)."""

    __slots__ = _fields = ("stop_nouns", "stop_phrases")

    def __init__(
        self, stop_nouns: frozenset[str] = frozenset(), stop_phrases: frozenset[str] = frozenset()
    ) -> None:
        for item in stop_nouns | stop_phrases:
            if item != fold(item):
                raise ValueError(f"stoplist entries must be folded (NFC, lowercase, NFC): {item!r}")
        for phrase in stop_phrases:
            if len(phrase.split()) != 2:
                raise ValueError(
                    f"stop phrase must be exactly two tokens (noun, preposition): {phrase!r}"
                )
        object.__setattr__(self, "stop_nouns", stop_nouns)
        object.__setattr__(self, "stop_phrases", stop_phrases)


def load_stoplist(path: str | Path) -> StopConfig:
    """The StopConfig of a one-item-per-line listing, rows as ``data_lines``
    finds them (``#`` comments). Two-token lines are noun+preposition stop
    phrases; any other line, an abbreviation such as ``plur.`` too, is a
    stop noun."""
    p = Path(path)
    nouns: set[str] = set()
    phrases: set[str] = set()
    lineno = 0
    try:
        for lineno, line in data_lines(read_text(p, "stoplist"), tsv=False, comments=True):
            item = " ".join(fold(line).split())
            parts = item.split(" ")
            if len(parts) > 2:
                raise ValueError(f"stop phrases take exactly two tokens, got {item!r}")
            (phrases if len(parts) == 2 else nouns).add(item)
    except ValueError as exc:
        raise ParseError(str(exc), str(p), lineno) from None
    # fold is idempotent, so every item is folded and StopConfig takes them all.
    return StopConfig(frozenset(nouns), frozenset(phrases))


def load_wordlist(path: str | Path) -> frozenset[str]:
    """Plain word list, one item per line, ``#`` comments, folded as terms are."""
    text = read_text(Path(path), "word list")
    return frozenset(fold(line).strip() for _, line in data_lines(text, tsv=False, comments=True))


class Sentences(dict):
    """``ingest_conllu``'s tokens of each entry id, with their file (``path``)
    and the line of each entry's ``# sent_id`` (``lines``), so that a fault
    found when the tokens meet the entry's definition names its place."""

    def __init__(self, path: str | None = None) -> None:
        super().__init__()
        self.path, self.lines = path, {}


def ingest_conllu(
    stream: TextIO | Iterable[str],
    id_map: Mapping[str, str] | None = None,
    path: str | None = None,
) -> Sentences:
    """Read CoNLL-U sentences into per-entry token lists.

    A blank line ends a sentence. Its ``# sent_id`` comment, once and
    before its first token, carries the entry id; ``id_map``, when
    given, translates sent_ids to entry ids and any sent_id missing from
    it is skipped with a warning. Multiword-token ranges (id "3-4") and
    empty nodes (id "3.1") are dropped in favor of their parts. Tokens
    carry only FORM and UPOS; attaching them to a definition checks that
    the FORMs spell out its text in order (see ``model.Definition``).
    A faulty line raises ParseError naming it; a fault of a whole
    sentence names the sentence's first line. Equal (FORM, UPOS) pairs
    share one ``Token`` object.
    """
    results = Sentences(path)
    # (FORM, UPOS) -> its Token: definitions reuse a small vocabulary.
    shared: dict[tuple[str, str], Token] = {}
    seen_ids: set[str] = set()
    sent_id: str | None = None
    tokens: list[Token] = []
    sent_start_line = lineno = 0
    try:
        # The blank line after the last line ends the last sentence.
        for lineno, raw in enumerate(chain(stream, ("",)), start=1):
            line = raw.rstrip("\r\n")
            if not line:
                # A fault of the sentence names its first line.
                lineno = sent_start_line
                if sent_id is not None:
                    if sent_id in seen_ids:
                        raise ValueError(f"duplicate sent_id {sent_id!r}")
                    seen_ids.add(sent_id)
                    entry_id = sent_id if id_map is None else id_map.get(sent_id)
                    if entry_id is None:
                        log.warning("sent_id %r matches no entry; sentence skipped", sent_id)
                    else:
                        results[entry_id] = tokens
                        results.lines[entry_id] = sent_start_line
                elif tokens:
                    raise ValueError("sentence without a # sent_id comment")
                sent_id, tokens = None, []
                continue
            if line.startswith("#"):
                m = _SENT_ID_COMMENT.match(line) if "sent_id" in line else None
                if m:
                    if sent_id is not None or tokens:
                        raise ValueError("# sent_id inside a sentence; a blank line ends one")
                    sent_id, sent_start_line = m.group(1), lineno
                continue
            cols = line.split("\t")
            if len(cols) != 10:
                raise column_count_error("10", len(cols))
            token_id = cols[0]
            if "-" in token_id or "." in token_id:
                continue
            if not cols[1]:
                raise ValueError("empty FORM column")
            if sent_id is None and not tokens:
                sent_start_line = lineno
            key = (cols[1], cols[3])
            token = shared.get(key)
            if token is None:
                token = shared[key] = Token(*key)
            tokens.append(token)
    except ValueError as exc:
        raise ParseError(str(exc), path, lineno) from None
    return results


def _tag_piece(piece: str, function_words: frozenset[str] | set[str]) -> tuple[Token, ...]:
    """Tokens of one whitespace-free piece of a definition, cut from it as written."""
    if piece.endswith(".") and _ABBREV_PATTERN.match(unicodedata.normalize("NFC", piece)):
        return (Token(piece, "X"),)
    shadow = piece
    if not piece.isascii():
        # Same length as the piece, so match spans cut surfaces from it.
        shadow = "".join(
            "\u0300" if unicodedata.category(ch)[0] == "M" and not ch.isalnum() else ch
            for ch in piece
        )
    tokens = []
    for m in _WORD_OR_PUNCT.finditer(shadow):
        surface = piece[m.start() : m.end()]
        if not any(ch.isalnum() for ch in surface):
            upos = "X"
        elif fold(surface) in function_words:
            upos = "X"
        else:
            upos = "NOUN"
        tokens.append(Token(surface, upos))
    return tuple(tokens)


def heuristic_tag(
    text: str,
    function_words: frozenset[str] | set[str],
    memo: dict[str, tuple[Token, ...]] | None = None,
) -> list[Token]:
    """Fallback tokenizer/tagger used when no CoNLL-U annotation is supplied.

    Whitespace and punctuation tokenization; short period-terminated
    tokens stay whole. Function words, abbreviation-shaped tokens and
    bare punctuation get tag X, everything else NOUN; each token is judged
    in its NFC form but cut from ``text`` as written. Callers must flag
    downstream output as heuristically tagged.

    ``memo`` maps whitespace pieces to their tokens; a caller tagging many
    texts passes one dict, used with one ``function_words`` only, so each
    distinct piece is tagged once.
    """
    if memo is None:
        memo = {}
    tokens: list[Token] = []
    # str.split() breaks at exactly the characters re's \s matches.
    for piece in text.split():
        tagged = memo.get(piece)
        if tagged is None:
            tagged = memo[piece] = _tag_piece(piece, function_words)
        tokens.extend(tagged)
    return tokens


def extract_first_noun(
    tokens: Iterable[Token], stops: StopConfig, folded: dict[str, str] | None = None
) -> str | None:
    """First semantically loaded noun of a definition, folded as terms are.

    Scans left to right skipping stop nouns (abbreviations among them)
    and nouns heading a stop phrase; absence of a noun is a valid
    outcome, not an error.

    ``folded`` maps surfaces to their ``fold``; a caller scanning many
    definitions passes one dict, so each distinct surface is folded once.
    """
    if folded is None:
        folded = {}
    toks = list(tokens)
    for i, tok in enumerate(toks):
        if tok.upos not in NOMINAL_TAGS:
            continue
        surface = folded.get(tok.surface)
        if surface is None:
            surface = folded[tok.surface] = fold(tok.surface)
        if surface in stops.stop_nouns:
            continue
        if i + 1 < len(toks):
            following = toks[i + 1].surface
            after = folded.get(following)
            if after is None:
                after = folded[following] = fold(following)
            if f"{surface} {after}" in stops.stop_phrases:
                continue
        return surface
    return None
