"""The three voting strategies: suffix match on the term, contained
keyword in the term, and keyword match on the definition's first noun."""

from __future__ import annotations

from pathlib import Path
from typing import Iterable

from .errors import LintError, ParseError
from .io import column_count_error, data_lines, read_text
from .model import Category, Frozen, Provenance, Vote, fold, parse_category

# Containment only fires for keywords longer than this, to avoid short
# sequences over-generating false positives.
MIN_CONTAINED_KEYWORD_LEN = 5


def _index(entries: tuple[tuple[str, Category], ...], kind: str) -> dict[str, Category]:
    """Trigger -> category lookup; raises ValueError on an empty or
    repeated trigger, or one that is not in the folded form terms are
    compared in."""
    index: dict[str, Category] = {}
    for trigger, category in entries:
        if not trigger:
            raise ValueError(f"empty {kind}")
        if trigger != fold(trigger):
            raise ValueError(f"{kind} {trigger!r} is not folded (NFC, lowercase, NFC)")
        if trigger in index:
            raise ValueError(f"duplicate {kind} {trigger!r}")
        index[trigger] = category
    return index


def _lengths_longest_first(triggers: Iterable[str]) -> tuple[int, ...]:
    return tuple(sorted({len(t) for t in triggers}, reverse=True))


class SuffixTable(Frozen):
    """Suffix -> category mapping; suffixes are stored without the
    leading dash, folded (``model.fold``), and must be unique.

    ``index`` and ``lengths`` are derived from ``entries`` once, so a
    vote costs one lookup per distinct suffix length; equality, hashing
    and repr come from ``entries`` alone.
    """

    _fields = ("entries",)
    __slots__ = _fields + ("index", "lengths")

    def __init__(self, entries: tuple[tuple[str, Category], ...]) -> None:
        index = _index(entries, "suffix")
        object.__setattr__(self, "entries", entries)
        object.__setattr__(self, "index", index)
        object.__setattr__(self, "lengths", _lengths_longest_first(index))

    def lint(self) -> list[str]:
        """Warn about length-nested suffixes mapped to different
        categories; longest-match then silently prefers one of them."""
        # Table suffix -> the longer rows ending in it, in table order.
        enclosing: dict[str, list[tuple[str, Category]]] = {}
        for long, cat_long in self.entries:
            for start in range(1, len(long)):
                if long[start:] in self.index:
                    enclosing.setdefault(long[start:], []).append((long, cat_long))
        warnings = []
        for short, cat_short in self.entries:
            for long, cat_long in enclosing.get(short, ()):
                if cat_long is not cat_short:
                    warnings.append(
                        f"suffix -{short} ({cat_short}) nests inside -{long} "
                        f"({cat_long}); longest match wins"
                    )
        return warnings


class KeywordTable(Frozen):
    """Keyword -> category mapping; keywords unique and folded (``model.fold``).

    ``index`` serves exact matches; ``heads`` maps the first
    ``MIN_CONTAINED_KEYWORD_LEN`` characters of each keyword long enough
    to fire by containment to the distinct lengths of the keywords that
    start with them, longest first. Both are derived from ``entries`` once;
    equality, hashing and repr come from ``entries`` alone.
    """

    _fields = ("entries",)
    __slots__ = _fields + ("index", "heads")

    def __init__(self, entries: tuple[tuple[str, Category], ...]) -> None:
        index = _index(entries, "keyword")
        by_head: dict[str, list[str]] = {}
        for keyword in index:
            if len(keyword) >= MIN_CONTAINED_KEYWORD_LEN:
                by_head.setdefault(keyword[:MIN_CONTAINED_KEYWORD_LEN], []).append(keyword)
        object.__setattr__(self, "entries", entries)
        object.__setattr__(self, "index", index)
        object.__setattr__(
            self, "heads", {head: _lengths_longest_first(kws) for head, kws in by_head.items()}
        )

    def lint(self) -> list[str]:
        short = [
            f"keyword {kw!r} has length <= {MIN_CONTAINED_KEYWORD_LEN - 1}; it can "
            "only fire as an exact first-noun match"
            for kw, _ in self.entries
            if len(kw) < MIN_CONTAINED_KEYWORD_LEN
        ]
        return short


def _load_table(path: str | Path, table: type, kind: str) -> SuffixTable | KeywordTable:
    """The two-column ``kind`` table of (trigger, category) rows in the file
    at ``path``; a suffix's leading ``-`` is decorative and stripped. A
    faulty row raises ParseError at its line; once every row has parsed,
    a trigger that an earlier row holds raises LintError at its line."""
    p = Path(path)
    where = str(p)
    rows = []
    seen: set[str] = set()
    repeats: list[tuple[int, str]] = []
    lineno = 0
    try:
        for lineno, line in data_lines(read_text(p, f"{kind} table"), tsv=True, comments=True):
            cols = line.split("\t")
            if len(cols) != 2:
                raise column_count_error("2", len(cols))
            # Folded as terms are, so an NFD trigger still matches.
            trigger = fold(cols[0]).strip()
            # A vote is written as strategy:category:trigger:position, joined by ";".
            if ":" in trigger or ";" in trigger:
                raise ValueError(f"trigger {trigger!r} must not contain ':' or ';'")
            category = parse_category(cols[1])
            if kind == "suffix":
                trigger = trigger.lstrip("-")
            if not trigger:
                raise ValueError(f"empty {kind}")
            if trigger in seen:
                repeats.append((lineno, trigger))
            seen.add(trigger)
            rows.append((trigger, category))
    except ValueError as exc:
        raise ParseError(str(exc), where, lineno) from None
    if repeats:
        lineno, trigger = repeats[0]
        raise LintError(f"{where}:{lineno}: duplicate {kind} {trigger!r}")
    return table(tuple(rows))


def load_suffix_table(path: str | Path) -> SuffixTable:
    """A two-column TSV suffix table; a leading ``-`` on suffixes is decorative and stripped."""
    return _load_table(path, SuffixTable, "suffix")


def load_keyword_table(path: str | Path) -> KeywordTable:
    """A two-column TSV keyword table."""
    return _load_table(path, KeywordTable, "keyword")


def suffix_vote(term: str, table: SuffixTable) -> Vote | None:
    """Longest table suffix that is a proper suffix of the term.

    The term must already be normalized lowercase. Equality is not a
    match: the term has to be strictly longer than the suffix.
    """
    for length in table.lengths:
        if length < len(term):
            category = table.index.get(term[-length:])
            if category is not None:
                return Vote(Provenance.SUFF, category, term[-length:])
    return None


def contained_keyword(
    haystack: str, table: KeywordTable
) -> tuple[str, Category, int] | None:
    """Leftmost containment match from the second character onward.

    Keywords of length <= 4 never fire; ties on start position go to the
    longest keyword. Position 0 matches are excluded to approximate the
    keyword occurring as the second part of a compound. Each start
    position costs one lookup of the ``MIN_CONTAINED_KEYWORD_LEN``
    characters there, then one per length of the keywords they begin.
    """
    heads, index = table.heads, table.index
    end = len(haystack)
    for pos in range(1, end - MIN_CONTAINED_KEYWORD_LEN + 1):
        lengths = heads.get(haystack[pos : pos + MIN_CONTAINED_KEYWORD_LEN])
        if lengths is None:
            continue
        for length in lengths:
            if pos + length <= end:
                keyword = haystack[pos : pos + length]
                category = index.get(keyword)
                if category is not None:
                    return keyword, category, pos
    return None


def kw_entry_vote(term: str, table: KeywordTable) -> Vote | None:
    """Containment vote over the whole (possibly multi-word) entry term."""
    hit = contained_keyword(term, table)
    if hit is None:
        return None
    keyword, category, pos = hit
    return Vote(Provenance.KW_E, category, keyword, pos)


def kw_firstnoun_vote(first_noun: str | None, table: KeywordTable) -> Vote | None:
    """Keyword vote on the definition's first noun.

    Exact matches win regardless of keyword length; otherwise the
    containment rules apply.
    """
    if first_noun is None:
        return None
    category = table.index.get(first_noun)
    if category is not None:
        return Vote(Provenance.KW_1N, category, first_noun)
    hit = contained_keyword(first_noun, table)
    if hit is None:
        return None
    keyword, category, pos = hit
    return Vote(Provenance.KW_1N, category, keyword, pos)
