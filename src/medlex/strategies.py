"""The three voting strategies: suffix match on the term, contained
keyword in the term, and keyword match on the definition's first noun."""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path
from typing import Iterable

from .errors import LintError, ParseError
from .io import data_lines, read_text, split_lines
from .model import Category, Strategy, Vote, parse_category

# Containment only fires for keywords longer than this, to avoid short
# sequences over-generating false positives.
MIN_CONTAINED_KEYWORD_LEN = 5


@dataclass(frozen=True)
class SuffixTable:
    """Suffix -> category mapping; suffixes are stored without the
    leading dash and must be unique."""

    entries: tuple[tuple[str, Category], ...]

    def __post_init__(self) -> None:
        seen: set[str] = set()
        for suffix, _ in self.entries:
            if not suffix:
                raise ValueError("empty suffix")
            if suffix in seen:
                raise ValueError(f"duplicate suffix {suffix!r}")
            seen.add(suffix)

    def lint(self) -> list[str]:
        """Warn about length-nested suffixes mapped to different
        categories; longest-match then silently prefers one of them."""
        warnings = []
        for short, cat_short in self.entries:
            for long, cat_long in self.entries:
                if long != short and long.endswith(short) and cat_long is not cat_short:
                    warnings.append(
                        f"suffix -{short} ({cat_short}) nests inside -{long} "
                        f"({cat_long}); longest match wins"
                    )
        return warnings


@dataclass(frozen=True)
class KeywordTable:
    """Keyword -> category mapping; keywords unique and lowercase."""

    entries: tuple[tuple[str, Category], ...]

    def __post_init__(self) -> None:
        seen: set[str] = set()
        for keyword, _ in self.entries:
            if not keyword:
                raise ValueError("empty keyword")
            if keyword in seen:
                raise ValueError(f"duplicate keyword {keyword!r}")
            seen.add(keyword)

    def lint(self) -> list[str]:
        short = [
            f"keyword {kw!r} has length <= {MIN_CONTAINED_KEYWORD_LEN - 1}; it can "
            "only fire as an exact first-noun match"
            for kw, _ in self.entries
            if len(kw) < MIN_CONTAINED_KEYWORD_LEN
        ]
        return short


def _parse_table_rows(
    lines: Iterable[str], path: str | None
) -> list[tuple[str, Category, int]]:
    rows = []
    for lineno, line in data_lines(lines):
        cols = line.split("\t")
        if len(cols) != 2:
            raise ParseError(
                f"expected trigger<TAB>CATEGORY, got {len(cols)} columns", path, lineno
            )
        trigger = cols[0].strip().lower()
        try:
            category = parse_category(cols[1])
        except ValueError as exc:
            raise ParseError(str(exc), path, lineno) from None
        rows.append((trigger, category, lineno))
    return rows


def parse_suffix_table(lines: Iterable[str], path: str | None = None) -> SuffixTable:
    """Two-column TSV; a leading ``-`` on suffixes is decorative and stripped."""
    entries = []
    for trigger, category, lineno in _parse_table_rows(lines, path):
        suffix = trigger.lstrip("-")
        if not suffix:
            raise ParseError("empty suffix", path, lineno)
        entries.append((suffix, category))
    try:
        return SuffixTable(tuple(entries))
    except ValueError as exc:
        raise LintError(f"{path or 'suffix table'}: {exc}") from None


def parse_keyword_table(lines: Iterable[str], path: str | None = None) -> KeywordTable:
    entries = []
    for trigger, category, lineno in _parse_table_rows(lines, path):
        if not trigger:
            raise ParseError("empty keyword", path, lineno)
        entries.append((trigger, category))
    try:
        return KeywordTable(tuple(entries))
    except ValueError as exc:
        raise LintError(f"{path or 'keyword table'}: {exc}") from None


def load_suffix_table(path: str | Path) -> SuffixTable:
    p = Path(path)
    return parse_suffix_table(split_lines(read_text(p, "suffix table")), str(p))


def load_keyword_table(path: str | Path) -> KeywordTable:
    p = Path(path)
    return parse_keyword_table(split_lines(read_text(p, "keyword table")), str(p))


def suffix_vote(term: str, table: SuffixTable) -> Vote | None:
    """Longest table suffix that is a proper suffix of the term.

    The term must already be normalized lowercase. Equality is not a
    match: the term has to be strictly longer than the suffix.
    """
    best: tuple[str, Category] | None = None
    for suffix, category in table.entries:
        if len(term) > len(suffix) and term.endswith(suffix):
            if best is None or len(suffix) > len(best[0]):
                best = (suffix, category)
    if best is None:
        return None
    return Vote(Strategy.SUFF, best[1], best[0])


def contained_keyword(
    haystack: str, table: KeywordTable
) -> tuple[str, Category, int] | None:
    """Leftmost containment match from the second character onward.

    Keywords of length <= 4 never fire; ties on start position go to the
    longest keyword. Position 0 matches are excluded to approximate the
    keyword occurring as the second part of a compound.
    """
    best: tuple[int, int, str, Category] | None = None
    for keyword, category in table.entries:
        if len(keyword) < MIN_CONTAINED_KEYWORD_LEN:
            continue
        pos = haystack.find(keyword, 1)
        if pos < 1:
            continue
        rank = (pos, -len(keyword))
        if best is None or rank < (best[0], best[1]):
            best = (pos, -len(keyword), keyword, category)
    if best is None:
        return None
    return best[2], best[3], best[0]


def kw_entry_vote(term: str, table: KeywordTable) -> Vote | None:
    """Containment vote over the whole (possibly multi-word) entry term."""
    hit = contained_keyword(term, table)
    if hit is None:
        return None
    keyword, category, pos = hit
    return Vote(Strategy.KW_E, category, keyword, pos)


def kw_firstnoun_vote(first_noun: str | None, table: KeywordTable) -> Vote | None:
    """Keyword vote on the definition's first noun.

    Exact matches win regardless of keyword length; otherwise the
    containment rules apply.
    """
    if first_noun is None:
        return None
    for keyword, category in table.entries:
        if first_noun == keyword:
            return Vote(Strategy.KW_1N, category, keyword)
    hit = contained_keyword(first_noun, table)
    if hit is None:
        return None
    keyword, category, pos = hit
    return Vote(Strategy.KW_1N, category, keyword, pos)
