from __future__ import annotations

from pathlib import Path

import pytest

from medlex.defaults import (
    default_function_words,
    default_keyword_table,
    default_stops,
    default_suffix_table,
)
from medlex.io import read_text, split_lines
from medlex.pipeline import build_entries, map_dictionary, read_dictionary_rows
from medlex.textprep import ingest_conllu

DATA = Path(__file__).parent / "data"


@pytest.fixture(scope="session")
def data_dir() -> Path:
    return DATA


@pytest.fixture(scope="session")
def suffixes():
    return default_suffix_table()


@pytest.fixture(scope="session")
def keywords():
    return default_keyword_table()


@pytest.fixture(scope="session")
def stops():
    return default_stops()


@pytest.fixture(scope="session")
def function_words():
    return default_function_words()


def load_fixture_entries(conllu: bool = True):
    """The fixture dictionary's entries, built as ``map`` builds them."""
    rows = read_dictionary_rows(DATA / "dict_50.tsv")
    tokens = None
    if conllu:
        path = str(DATA / "dict_50.conllu")
        lines = split_lines(read_text(path, "CoNLL-U"))
        tokens = ingest_conllu(lines, id_map={row.id: row.id for row in rows}, path=path)
    entries, _ = build_entries(rows, tokens, default_function_words())
    return entries


@pytest.fixture(scope="session")
def fixture_entries():
    return load_fixture_entries()


@pytest.fixture(scope="session")
def fixture_outcomes(fixture_entries, suffixes, keywords, stops):
    return map_dictionary(fixture_entries, suffixes, keywords, stops, iter_rounds=1)
