"""The outcome file that ``map`` writes and ``merge`` and ``eval`` read:
its TSV and JSON-lines codec, with the vote text, and the frequency table
that the ``map`` and ``merge`` reports print."""

from __future__ import annotations

from itertools import islice
from pathlib import Path
from typing import Any, Iterable

from .errors import ParseError
from .io import (column_count_error, json_field, json_line_values, json_lines, json_object, json_string, read_text,
                 sniff_format, split_lines, write_texts)
from .model import STRATEGY_PRIORITY, Category, MappingOutcome, Provenance, Vote, parse_category

OUTCOME_HEADER = ("id", "term", "category", "provenance", "votes")


def format_votes(votes: Iterable[Vote]) -> str:
    # _value_ is the label str() gives, read without calling the enum's
    # Python-level __str__ (as in merge.mapped_source).
    return ";".join(
        [
            f"{strategy._value_}:{category._value_}:{trigger}:"
            f"{'-' if position is None else position}"
            for strategy, category, trigger, position in votes
        ]
    )


# The label of each strategy that votes; a vote naming any other is refused.
_VOTERS = {strategy.value: strategy for strategy in STRATEGY_PRIORITY}


def parse_votes(text: str, parsed: dict[str, Vote] | None = None) -> tuple[Vote, ...]:
    """The votes ``format_votes`` wrote as ``text``. ``parsed`` maps each
    vote's text to its Vote; a caller parsing many texts passes one dict,
    so each distinct vote is parsed once. Only a vote that parses is kept,
    so a bad one raises wherever it appears."""
    if not text:
        return ()
    if parsed is None:
        parsed = {}
    votes = []
    for part in text.split(";"):
        vote = parsed.get(part)
        if vote is None:
            fields = part.split(":")
            if len(fields) != 4 or fields[0] not in _VOTERS:
                raise ValueError(f"bad vote serialization: {part!r}")
            strategy, category, trigger, pos = fields
            voter, category = _VOTERS[strategy], parse_category(category)
            # format_votes writes a position as "-" or ASCII digits, nothing
            # else int() reads ("1_0", " 7", "-3", "\u0663").
            if pos != "-" and not (pos.isascii() and pos.isdigit()):
                raise ValueError(f"bad vote serialization: {part!r}")
            vote = parsed[part] = Vote(voter, category, trigger, None if pos == "-" else int(pos))
        votes.append(vote)
    return tuple(votes)


def render_outcomes(outcomes: Iterable[MappingOutcome], fmt: str = "tsv") -> str:
    """The outcome file's text: TSV with a header, or one JSON object per
    outcome, with the header's keys; no outcomes give empty JSON lines."""
    if fmt == "jsonl":
        enc = json_string
        return json_lines(
            OUTCOME_HEADER,
            (
                (enc(o.entry_id), enc(o.term), "null" if o.category is None else enc(o.category._value_),
                 enc(o.provenance._value_), enc(format_votes(o.votes)))
                for o in outcomes
            ),
        )
    lines = ["\t".join(OUTCOME_HEADER)]
    for o in outcomes:
        lines.append(
            "\t".join(
                (
                    o.entry_id,
                    o.term,
                    "" if o.category is None else o.category._value_,
                    o.provenance._value_,
                    format_votes(o.votes),
                )
            )
        )
    return "\n".join(lines) + "\n"


def write_outcomes(outcomes: Iterable[MappingOutcome], path: str | Path, fmt: str | None = None) -> None:
    write_texts([(path, render_outcomes(outcomes, sniff_format(path, fmt)))])


def id_and_term(row: dict[str, Any]) -> tuple[str, str]:
    """The id and term, as written, of a decoded JSON-lines dictionary or
    outcome row. Checked in this order, each fault a ValueError: the id
    must be a string or an integer (read as its decimal text) and the term
    a string (each one ``json_field`` call), neither may hold a tab, CR or
    LF, and the term, then the id, must not be blank."""
    entry_id, term = str(json_field(row, "id", str, int)), json_field(row, "term", str)
    # The outcome file holds both in tab-separated lines.
    if "\t" in entry_id or "\n" in entry_id or "\r" in entry_id:
        raise ValueError("ids must not contain tabs or newlines")
    if "\t" in term or "\n" in term or "\r" in term:
        raise ValueError("terms must not contain tabs or newlines")
    if not term.strip():
        raise ValueError("empty term")
    if not entry_id.strip():
        raise ValueError("missing entry id")
    return entry_id, term


def _provenance(text: str) -> Provenance:
    """The provenance a row names; any other text raises ValueError."""
    try:
        return Provenance[text]
    except KeyError:
        raise ValueError(f"unknown provenance {text!r}") from None


def read_outcomes(path: str | Path) -> list[MappingOutcome]:
    """Outcome rows as ``write_outcomes`` writes them; every row must have
    a term and a non-blank id no earlier row has, and pass
    ``MappingOutcome.validate``.

    A JSON-lines row in the writer's form, with a string id, term,
    provenance and votes, is read by one match (``json_line_values``); it
    holds no tab, CR or LF, so only the blank term and id are checked
    there. Any other row is decoded and checked as ``id_and_term`` and
    ``json_field`` say, in the same order and with the same messages.

    Votes come from K-row tables, so (category, provenance, votes) texts
    repeat across rows: each distinct one is parsed and validated once, and
    later rows with the same text reuse the values. Distinct votes texts
    share most of their votes, so each distinct vote is parsed once too.
    """
    p = Path(path)
    where = str(p)
    lines = split_lines(read_text(p, "outcomes"))
    jsonl = sniff_format(p) == "jsonl"
    # Only a JSON-lines read compiles the writer-form pattern.
    writer_form = json_line_values(OUTCOME_HEADER) if jsonl else None
    # Line 1 of a TSV file is the header when it begins with id and term,
    # whatever its column count.
    skip = 1 if not jsonl and lines and lines[0].split("\t", 2)[:2] == ["id", "term"] else 0
    outcomes: list[MappingOutcome] = []
    append = outcomes.append
    seen: set[str] = set()
    # (category, provenance, votes) text -> their values, for texts that
    # have passed validate(); the checks do not depend on the id or term.
    checked: dict[tuple[str, str, str], tuple[Category | None, Provenance, tuple[Vote, ...]]] = {}
    parsed_votes: dict[str, Vote] = {}
    new = tuple.__new__
    for lineno, line in enumerate(islice(lines, skip, None), start=1 + skip):
        try:
            if jsonl:
                row = writer_form(line)
                if row is not None:
                    entry_id, term, category, provenance, votes = row
                    if entry_id is None or term is None or provenance is None or votes is None:
                        row = None
                if row is None:
                    # A blank line is no row; any other takes the decoder.
                    if not line.strip():
                        continue
                    entry_id, term, category, provenance, votes = _json_row(line)
                elif category is None:
                    category = ""
            else:
                # A line that holds a tab is a row, even of blank columns.
                cols = line.split("\t")
                if len(cols) != 5:
                    if len(cols) == 1 and not line.strip():
                        continue
                    raise column_count_error("5", len(cols))
                entry_id, term, category, provenance, votes = cols
            # The blank checks id_and_term makes of a decoded row; neither
            # format's row here holds a tab, CR or LF.
            if not term.strip():
                raise ValueError("empty term")
            if not entry_id.strip():
                raise ValueError("missing entry id")
            key = (category, provenance, votes)
            values = checked.get(key)
            if values is None:
                outcome = MappingOutcome(entry_id, term, parse_category(category) if category else None,
                                         _provenance(provenance), parse_votes(votes, parsed_votes))
                outcome.validate()
                checked[key] = outcome[2:]
            else:
                # What MappingOutcome._make does, without the Python-level __new__.
                outcome = new(MappingOutcome, (entry_id, term) + values)
            if entry_id in seen:
                raise ValueError(f"duplicate entry id {entry_id!r}")
        except ValueError as exc:
            raise ParseError(f"bad outcome row: {exc}", where, lineno) from None
        seen.add(entry_id)
        append(outcome)
    return outcomes


def _json_row(line: str) -> tuple[str, str, str, str, str]:
    """The id, term, category ("" for null or absent), provenance and votes
    ("" when absent) of a JSON-lines outcome row not in the writer's form:
    decoded by ``json_object``, then checked in that order by
    ``id_and_term`` and one ``json_field`` call for each other value."""
    obj = json_object(line)
    entry_id, term = id_and_term(obj)
    category = json_field(obj, "category", str, optional=True) or ""
    provenance = json_field(obj, "provenance", str)
    votes = json_field(obj, "votes", str) if "votes" in obj else ""
    return entry_id, term, category, provenance, votes


def count_table(title: str, counts: dict[str, int], footer: list[tuple[str, int]]) -> list[str]:
    """The lines of a frequency table: most frequent first, ties by name,
    then the ``footer`` rows, in one column as wide as its longest name."""
    rows = sorted(counts.items(), key=lambda kv: (-kv[1], kv[0]))
    width = max([len(title)] + [len(k) for k, _ in rows] + [len(k) for k, _ in footer])
    lines = [f"{title.ljust(width)}  entries"]
    for name, n in rows:
        lines.append(f"{name.ljust(width)}  {n}")
    for name, n in footer:
        lines.append(f"{name.ljust(width)}  {n}")
    return lines
