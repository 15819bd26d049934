"""Loaders for the tables and lists shipped with the package."""

from __future__ import annotations

from pathlib import Path

from .io import read_text, split_lines
from .strategies import KeywordTable, SuffixTable, parse_keyword_table, parse_suffix_table
from .textprep import StopConfig, parse_stoplist, parse_wordlist


def _data_lines(name: str) -> list[str]:
    return split_lines(read_text(Path(__file__).parent / "data" / name, "shipped data"))


def default_suffix_table() -> SuffixTable:
    return parse_suffix_table(_data_lines("suffixes.tsv"), "medlex:data/suffixes.tsv")


def default_keyword_table() -> KeywordTable:
    return parse_keyword_table(_data_lines("keywords.tsv"), "medlex:data/keywords.tsv")


def default_stops() -> StopConfig:
    return parse_stoplist(_data_lines("stops.txt"), "medlex:data/stops.txt")


def default_function_words() -> frozenset[str]:
    return parse_wordlist(_data_lines("function_words.txt"))
