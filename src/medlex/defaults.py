"""The tables and lists shipped with the package, read by the loaders
that read a user's own."""

from __future__ import annotations

from pathlib import Path

from .strategies import KeywordTable, SuffixTable, load_keyword_table, load_suffix_table
from .textprep import StopConfig, load_stoplist, load_wordlist

DATA = Path(__file__).parent / "data"
SUFFIX_TABLE = DATA / "suffixes.tsv"
KEYWORD_TABLE = DATA / "keywords.tsv"
STOPLIST = DATA / "stops.txt"
FUNCTION_WORDS = DATA / "function_words.txt"


def default_suffix_table() -> SuffixTable:
    return load_suffix_table(SUFFIX_TABLE)


def default_keyword_table() -> KeywordTable:
    return load_keyword_table(KEYWORD_TABLE)


def default_stops() -> StopConfig:
    return load_stoplist(STOPLIST)


def default_function_words() -> frozenset[str]:
    return load_wordlist(FUNCTION_WORDS)
