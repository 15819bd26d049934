"""Orchestration: runs the voting strategies over a dictionary, resolves
votes with the fixed precedence, applies the iterative second pass, and
serializes outcomes."""

from __future__ import annotations

import logging
from json.encoder import encode_basestring
from pathlib import Path
from typing import Iterable, Mapping, NamedTuple, Sequence

from .errors import ParseError
from .io import json_field, json_object, read_text, sniff_format, split_lines, write_text
from .model import (
    STRATEGY_PRIORITY,
    Category,
    Definition,
    Entry,
    MappingOutcome,
    Provenance,
    Token,
    Vote,
    normalize_term,
    parse_category,
)
from .strategies import KeywordTable, SuffixTable, kw_entry_vote, kw_firstnoun_vote, suffix_vote
from .textprep import StopConfig, extract_first_noun, heuristic_tag

log = logging.getLogger(__name__)

OUTCOME_HEADER = ("id", "term", "category", "provenance", "votes")


def resolve_votes(votes: Sequence[Vote]) -> tuple[Category | None, Provenance]:
    """Resolve per-strategy votes into one category with provenance.

    Unanimous multi-strategy agreement becomes MULTI; any disagreement
    falls back to the highest-priority voter (SUFF > KW_E > KW_1N). Two
    votes from one strategy, or a vote from a provenance that does not
    vote, raise ValueError.
    """
    by_strategy = {v.strategy: v for v in votes}
    if len(by_strategy) != len(votes):
        raise ValueError("more than one vote from the same strategy")
    for strategy in by_strategy:
        if strategy not in STRATEGY_PRIORITY:
            raise ValueError(f"{strategy} is not a voting strategy")
    if not votes:
        return None, Provenance.UNMAPPED
    if len(votes) == 1:
        return votes[0].category, votes[0].strategy
    if len({v.category for v in votes}) == 1:
        return votes[0].category, Provenance.MULTI
    winner = next(by_strategy[s] for s in STRATEGY_PRIORITY if s in by_strategy)
    return winner.category, winner.strategy


def entry_votes(
    term: str,
    first_noun: str | None,
    suffixes: SuffixTable,
    keywords: KeywordTable,
) -> list[Vote]:
    """All strategy votes for one entry, in priority order; ``term`` is the
    entry's term as ``normalize_term`` gives it, and ``first_noun`` the first
    noun of its definition, if any."""
    votes = []
    vote = suffix_vote(term, suffixes)
    if vote is not None:
        votes.append(vote)
    vote = kw_entry_vote(term, keywords)
    if vote is not None:
        votes.append(vote)
    vote = kw_firstnoun_vote(first_noun, keywords)
    if vote is not None:
        votes.append(vote)
    return votes


def _first_noun(entry: Entry, stops: StopConfig) -> str | None:
    sense = entry.first_sense()
    if sense is None or sense.tokens is None:
        return None
    return extract_first_noun(sense.tokens, stops)


def map_dictionary(
    entries: Sequence[Entry],
    suffixes: SuffixTable,
    keywords: KeywordTable,
    stops: StopConfig,
    iter_rounds: int = 1,
) -> list[MappingOutcome]:
    """Run the full mapping over a dictionary, in input order.

    Pass 0 resolves strategy votes per entry; each of the following
    ``iter_rounds`` passes assigns a still-unmapped entry the category of
    an already-mapped entry whose term equals the definition's first
    noun (provenance ITER). Passes are barriers: an assignment becomes
    visible to lookups only in the next round.
    """
    if iter_rounds < 0:
        raise ValueError("iter_rounds must be >= 0")
    seen_ids: set[str] = set()
    for entry in entries:
        if entry.id in seen_ids:
            raise ValueError(f"duplicate entry id {entry.id!r}")
        seen_ids.add(entry.id)

    outcomes: list[MappingOutcome] = []
    terms = [normalize_term(entry.term) for entry in entries]
    first_nouns = [_first_noun(entry, stops) for entry in entries]
    for entry, term, first_noun in zip(entries, terms, first_nouns):
        votes = entry_votes(term, first_noun, suffixes, keywords)
        category, provenance = resolve_votes(votes)
        outcomes.append(
            MappingOutcome(entry.id, entry.term, category, provenance, tuple(votes))
        )

    # (position, ITER key) of each entry left unmapped by pass 0 that has a
    # first noun; an assignment removes it.
    pending: list[tuple[int, str]] = []
    if iter_rounds:
        pending = [
            (i, normalize_term(first_noun))
            for i, first_noun in enumerate(first_nouns)
            if first_noun is not None and outcomes[i].category is None
        ]
    warned: set[str] = set()
    for _ in range(iter_rounds):
        index: dict[str, Category] = {}
        for key, outcome in zip(terms, outcomes):
            if outcome.category is None:
                continue
            if key not in index:
                index[key] = outcome.category
            elif index[key] is not outcome.category and key not in warned:
                log.info(
                    "term %r mapped to both %s and %s; ITER uses the earliest",
                    key,
                    index[key],
                    outcome.category,
                )
                warned.add(key)
        still_pending = []
        for i, key in pending:
            category = index.get(key)
            if category is None:
                still_pending.append((i, key))
            else:
                outcome = outcomes[i]
                outcomes[i] = MappingOutcome(
                    outcome.entry_id, outcome.term, category, Provenance.ITER
                )
        if len(still_pending) == len(pending):
            break
        pending = still_pending
    if warned:
        log.warning(
            "%d term(s) mapped to more than one category; ITER uses the earliest "
            "of each (listed at INFO level, -v)",
            len(warned),
        )

    for outcome in outcomes:
        outcome.validate()
    return outcomes


class MappingStats(NamedTuple):
    """Frequency tables over a mapping run."""

    category_counts: dict[str, int]
    provenance_counts: dict[str, int]
    disagreements: int
    mapped: int
    unmapped: int

    @property
    def total(self) -> int:
        return self.mapped + self.unmapped


def mapping_stats(outcomes: Iterable[MappingOutcome]) -> MappingStats:
    category_counts: dict[str, int] = {}
    provenance_counts: dict[str, int] = {}
    disagreements = 0
    mapped = unmapped = 0
    for outcome in outcomes:
        provenance_counts[str(outcome.provenance)] = (
            provenance_counts.get(str(outcome.provenance), 0) + 1
        )
        if outcome.category is None:
            unmapped += 1
        else:
            mapped += 1
            category_counts[str(outcome.category)] = (
                category_counts.get(str(outcome.category), 0) + 1
            )
        if len({v.category for v in outcome.votes}) > 1:
            disagreements += 1
    return MappingStats(category_counts, provenance_counts, disagreements, mapped, unmapped)


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


def format_stats(stats: MappingStats, heuristic_tagging: bool = False) -> str:
    """Render the two frequency tables the map command prints."""
    lines = count_table(
        "category",
        stats.category_counts,
        [("total mapped", stats.mapped), ("not mapped", stats.unmapped), ("total", stats.total)],
    )
    lines.append("")
    lines += count_table(
        "strategy",
        stats.provenance_counts,
        [("disagreements", stats.disagreements)],
    )
    if heuristic_tagging:
        lines.append("")
        lines.append("tagging: heuristic (no CoNLL-U annotation supplied)")
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# dictionary and outcome I/O


def _json_id_term(obj: dict, path: str, lineno: int) -> tuple[str, str]:
    """A JSON-lines row's ``id`` and ``term``: strings, except that an
    integer ``id`` is read as its decimal text."""
    try:
        entry_id = json_field(obj, "id", str, int)
        return str(entry_id), json_field(obj, "term", str)
    except ValueError as exc:
        raise ParseError(str(exc), path, lineno) from None


def _json_outcome_texts(obj: dict) -> tuple[str, str, str]:
    """A JSON-lines outcome row's category (a string, null or absent: ""
    when none), provenance (a string) and votes (a string or absent). A
    missing provenance raises KeyError, as ``obj["provenance"]`` would."""
    category = json_field(obj, "category", str, optional=True) or ""
    if "provenance" not in obj:
        raise KeyError("provenance")
    provenance = json_field(obj, "provenance", str)
    votes = json_field(obj, "votes", str) if "votes" in obj else ""
    return category, provenance, votes


def _check_tab_free(entry_id: str, term: str) -> None:
    """Outcome rows are tab-separated lines holding the id and the term."""
    if "\t" in entry_id or "\n" in entry_id or "\r" in entry_id:
        raise ValueError("ids must not contain tabs or newlines")
    if "\t" in term or "\n" in term or "\r" in term:
        raise ValueError("terms must not contain tabs or newlines")


def read_dictionary(path: str | Path, fmt: str | None = None) -> list[Entry]:
    """Load dictionary entries from TSV (id, term, definition[, synonym_of])
    or JSON-lines with the same fields (plus multi-sense ``definitions``).

    Both formats follow one rule: the id, term and ``synonym_of`` are
    trimmed, an empty ``synonym_of`` is none, and a definition that is
    blank after trimming is dropped (its text is kept as written)."""
    p = Path(path)
    where = str(p)
    text = read_text(p, "dictionary")
    entries: list[Entry] = []
    seen: set[str] = set()
    use = sniff_format(p, fmt)
    for lineno, raw in enumerate(split_lines(text), start=1):
        # A TSV line with a tab is a row, even when its columns are blank.
        if not raw.strip() and (use == "jsonl" or "\t" not in raw):
            continue
        try:
            if use == "jsonl":
                obj = json_object(raw, where, lineno)
                entry_id, term = _json_id_term(obj, where, lineno)
                if "definitions" in obj:
                    defs = json_field(obj, "definitions", list, items=str)
                else:
                    defs = [json_field(obj, "definition", str, optional=True) or ""]
                synonym_of = json_field(obj, "synonym_of", str, int, optional=True)
                synonym_of = "" if synonym_of is None else str(synonym_of)
            else:
                cols = raw.split("\t")
                if len(cols) not in (3, 4):
                    raise ValueError(
                        "expected id<TAB>term<TAB>definition[<TAB>synonym_of], got "
                        f"{len(cols)} columns"
                    )
                entry_id, term, defs = cols[0], cols[1], [cols[2]]
                synonym_of = cols[3] if len(cols) == 4 else ""
            entry_id = entry_id.strip()
            if not entry_id:
                raise ValueError("missing entry id")
            if entry_id in seen:
                raise ValueError(f"duplicate entry id {entry_id!r}")
            seen.add(entry_id)
            _check_tab_free(entry_id, term)
            if not term.strip():
                raise ValueError("empty term")
        except ValueError as exc:
            raise ParseError(str(exc), where, lineno) from None
        senses = tuple(Definition(d) for d in defs if d.strip())
        entries.append(Entry(entry_id, term.strip(), senses, synonym_of.strip() or None))
    return entries


def attach_tokens(
    entries: Sequence[Entry],
    conllu_tokens: Mapping[str, list[Token]] | None = None,
    function_words: frozenset[str] | None = None,
) -> tuple[list[Entry], bool]:
    """Attach tokens to each entry's first sense.

    CoNLL-U tokens win when present for an entry (their surfaces must
    spell out the definition text, see ``Definition``); otherwise the
    heuristic tagger fills in when a function-word list is supplied.
    Returns the new entries and whether any heuristic tagging happened.
    """
    out: list[Entry] = []
    heuristic_used = False
    # Whitespace piece -> its heuristic tokens, for this function-word list.
    memo: dict[str, tuple[Token, ...]] = {}
    for entry in entries:
        sense = entry.first_sense()
        if sense is None or sense.tokens is not None:
            out.append(entry)
            continue
        if conllu_tokens is not None and entry.id in conllu_tokens:
            try:
                tagged = Definition(sense.text, tuple(conllu_tokens[entry.id]))
            except ValueError as exc:
                raise ParseError(f"entry {entry.id}: {exc}") from None
        elif function_words is not None:
            tagged = Definition(sense.text, tuple(heuristic_tag(sense.text, function_words, memo)))
            heuristic_used = True
        else:
            out.append(entry)
            continue
        senses = (tagged,) + entry.senses[1:]
        out.append(Entry(entry.id, entry.term, senses, entry.synonym_of))
    return out, heuristic_used


def resolve_synonyms(entries: Sequence[Entry]) -> list[Entry]:
    """Give definition-less synonym entries their target's senses.

    Synonyms remain standalone entries; only the senses are shared.
    """
    by_id = {e.id: e for e in entries}
    out: list[Entry] = []
    for entry in entries:
        if entry.synonym_of is None or entry.senses:
            out.append(entry)
            continue
        target_id = entry.synonym_of
        visited = {entry.id}
        senses: tuple[Definition, ...] = ()
        while True:
            target = by_id.get(target_id)
            if target is None:
                raise ParseError(
                    f"entry {entry.id}: synonym_of points to unknown id {target_id!r}"
                )
            if target.id in visited:
                raise ParseError(f"entry {entry.id}: synonym chain loops")
            visited.add(target.id)
            if target.senses or target.synonym_of is None:
                senses = target.senses
                break
            target_id = target.synonym_of
        out.append(Entry(entry.id, entry.term, senses, entry.synonym_of))
    return out


def format_votes(votes: Iterable[Vote]) -> str:
    # _value_ is the label str() gives, read without calling the enum's
    # Python-level __str__ (as in merge.render_lexicon).
    return ";".join(
        [
            f"{strategy._value_}:{category._value_}:{trigger}:"
            f"{'-' if position is None else position}"
            for strategy, category, trigger, position in votes
        ]
    )


# The label of each strategy that votes; a KeyError names any other text.
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
            if len(fields) != 4:
                raise ValueError(f"bad vote serialization: {part!r}")
            strategy, category, trigger, pos = fields
            vote = parsed[part] = Vote(
                _VOTERS[strategy],
                parse_category(category),
                trigger,
                None if pos == "-" else int(pos),
            )
        votes.append(vote)
    return tuple(votes)


def render_outcomes(outcomes: Iterable[MappingOutcome], fmt: str = "tsv") -> str:
    if fmt == "jsonl":
        # The bytes json.dumps(row, ensure_ascii=False) writes for the row
        # {"id", "term", "category", "provenance", "votes"}: the same string
        # encoder, key order and separators, without building a dict per row.
        # Labels are ASCII identifiers, which the encoder leaves as they are.
        enc = encode_basestring
        lines = []
        for o in outcomes:
            category = "null" if o.category is None else f'"{o.category._value_}"'
            lines.append(
                f'{{"id": {enc(o.entry_id)}, "term": {enc(o.term)}, "category": {category}, '
                f'"provenance": "{o.provenance._value_}", "votes": {enc(format_votes(o.votes))}}}'
            )
    else:
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
    write_text(path, render_outcomes(outcomes, sniff_format(path, fmt)))


def read_outcomes(path: str | Path) -> list[MappingOutcome]:
    """Outcome rows as ``write_outcomes`` writes them; every row must have
    a term and a non-blank id no earlier row has, and pass
    ``MappingOutcome.validate``.

    Votes come from K-row tables, so (category, provenance, votes) texts
    repeat across rows: each distinct one is parsed and validated once, and
    later rows with the same text reuse the values. Distinct votes texts
    share most of their votes, so each distinct vote is parsed once too.
    """
    p = Path(path)
    where = str(p)
    text = read_text(p, "outcomes")
    jsonl = sniff_format(p) == "jsonl"
    outcomes = []
    seen: set[str] = set()
    # (category, provenance, votes) text -> their values, for texts that
    # have passed validate(); the checks do not depend on the id or term.
    checked: dict[tuple[str, str, str], tuple[Category | None, Provenance, tuple[Vote, ...]]] = {}
    parsed_votes: dict[str, Vote] = {}
    for lineno, raw in enumerate(split_lines(text), start=1):
        # A TSV line with a tab is a row, even when its columns are blank.
        if not raw.strip() and (jsonl or "\t" not in raw):
            continue
        try:
            if jsonl:
                obj = json_object(raw, where, lineno)
                entry_id, term = obj.get("id"), obj.get("term")
                if type(entry_id) is not str or type(term) is not str:
                    entry_id, term = _json_id_term(obj, where, lineno)
                _check_tab_free(entry_id, term)
                category, provenance = obj.get("category", ""), obj.get("provenance")
                votes = obj.get("votes", "")
                if category is None:
                    category = ""
                if type(category) is not str or type(provenance) is not str or type(votes) is not str:
                    category, provenance, votes = _json_outcome_texts(obj)
            else:
                cols = raw.split("\t")
                if lineno == 1 and cols[:2] == ["id", "term"]:
                    continue
                if len(cols) != 5:
                    raise ValueError(f"expected 5 columns, got {len(cols)}")
                entry_id, term, category, provenance, votes = cols
            if not term.strip():
                raise ValueError("empty term")
            if not entry_id.strip():
                raise ValueError("missing entry id")
            key = (category, provenance, votes)
            values = checked.get(key)
            if values is None:
                outcome = MappingOutcome(entry_id, term, parse_category(category) if category else None,
                                         Provenance[provenance], parse_votes(votes, parsed_votes))
                outcome.validate()
                checked[key] = (outcome.category, outcome.provenance, outcome.votes)
            else:
                outcome = MappingOutcome(entry_id, term, *values)
        except (ValueError, KeyError) as exc:
            raise ParseError(f"bad outcome row: {exc}", where, lineno) from None
        if entry_id in seen:
            raise ParseError(f"duplicate entry id {entry_id!r}", where, lineno)
        seen.add(entry_id)
        outcomes.append(outcome)
    return outcomes
