"""Toolkit for building a categorized medical term lexicon: rule-based
mapping of dictionary entries to entity types, merging with external
terminology resources, and evaluation of the result."""

from .model import (
    Category,
    Definition,
    Entry,
    LexiconRecord,
    MappingOutcome,
    Provenance,
    Token,
    Vote,
    normalize_term,
    parse_category,
)

__all__ = [
    "Category",
    "Definition",
    "Entry",
    "LexiconRecord",
    "MappingOutcome",
    "Provenance",
    "Token",
    "Vote",
    "normalize_term",
    "parse_category",
]

__version__ = "0.1.0"
