"""Orchestration: runs the voting strategies over a dictionary, resolves
votes with the fixed precedence and applies the iterative second pass.
The outcome file it writes is ``outcomes``'s; ``read_outcomes`` and
``write_outcomes`` are re-exported here, as is ``model.resolve_votes``."""

from __future__ import annotations

import logging
from pathlib import Path
from typing import Iterable, Mapping, NamedTuple, Sequence

from .errors import ParseError
from .io import column_count_error, data_lines, json_field, json_object, read_text, sniff_format, split_lines
from .model import (
    Category,
    Definition,
    Entry,
    MappingOutcome,
    Provenance,
    Token,
    Vote,
    normalize_term,
    resolve_votes,
)
from .outcomes import count_table, id_and_term, read_outcomes, write_outcomes
from .strategies import KeywordTable, SuffixTable, kw_entry_vote, kw_firstnoun_vote, suffix_vote
from .textprep import Sentences, StopConfig, extract_first_noun, heuristic_tag

log = logging.getLogger(__name__)


def entry_votes(
    term: str,
    first_noun: str | None,
    suffixes: SuffixTable,
    keywords: KeywordTable,
    memo: dict[str | None, Vote | None] | None = None,
) -> list[Vote]:
    """All strategy votes for one entry, in priority order; ``term`` is the
    entry's term as ``normalize_term`` gives it, and ``first_noun`` the first
    noun of its definition, if any.

    ``memo`` maps first nouns to their KW-1N vote; a caller voting on many
    entries passes one dict, used with one ``keywords`` only, so each
    distinct first noun is voted on once."""
    if memo is None:
        memo = {}
    votes = []
    vote = suffix_vote(term, suffixes)
    if vote is not None:
        votes.append(vote)
    vote = kw_entry_vote(term, keywords)
    if vote is not None:
        votes.append(vote)
    if first_noun in memo:
        vote = memo[first_noun]
    else:
        vote = memo[first_noun] = kw_firstnoun_vote(first_noun, keywords)
    if vote is not None:
        votes.append(vote)
    return votes


def _first_noun(entry: Entry, stops: StopConfig, folded: dict[str, str]) -> str | None:
    sense = entry.first_sense()
    if sense is None or sense.tokens is None:
        return None
    return extract_first_noun(sense.tokens, stops, folded)


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
    # Definitions share most of their words, so each distinct surface is
    # folded once and each distinct first noun voted on once.
    folded: dict[str, str] = {}
    first_nouns = [_first_noun(entry, stops, folded) for entry in entries]
    kw_1n: dict[str | None, Vote | None] = {}
    new_outcome = tuple.__new__
    for entry, term, first_noun in zip(entries, terms, first_nouns):
        votes = entry_votes(term, first_noun, suffixes, keywords, kw_1n)
        category, provenance = resolve_votes(votes)
        # The tuple MappingOutcome(...) builds, without its Python-level __new__.
        outcomes.append(
            new_outcome(MappingOutcome, (entry.id, entry.term, category, provenance, tuple(votes)))
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
    # _value_ is the label str() gives, read without calling the enum's
    # Python-level __str__ (as in outcomes.format_votes).
    for outcome in outcomes:
        label = outcome.provenance._value_
        provenance_counts[label] = provenance_counts.get(label, 0) + 1
        if outcome.category is None:
            unmapped += 1
        else:
            mapped += 1
            label = outcome.category._value_
            category_counts[label] = category_counts.get(label, 0) + 1
        votes = outcome.votes
        if len(votes) > 1:
            first = votes[0].category
            if any(v.category is not first for v in votes):
                disagreements += 1
    return MappingStats(category_counts, provenance_counts, disagreements, mapped, unmapped)


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
# dictionary input


def read_dictionary(path: str | Path, fmt: str | None = None) -> list[Entry]:
    """Load dictionary entries from TSV (id, term, definition[, synonym_of])
    or JSON-lines with the same fields (plus multi-sense ``definitions``).

    Both formats follow one rule: the id, term and ``synonym_of`` are
    trimmed, an empty ``synonym_of`` is none, and a definition that is
    blank after trimming is dropped (its text is kept as written). A
    synonym that ``resolve_synonyms`` could not resolve is refused at its
    own row."""
    p = Path(path)
    text = read_text(p, "dictionary")
    entries: list[Entry] = []
    by_id: dict[str, Entry] = {}
    # (line, entry) of each entry that takes its senses from a synonym_of.
    synonyms: list[tuple[int, Entry]] = []
    jsonl = sniff_format(p, fmt) == "jsonl"
    lineno = 0
    try:
        for lineno, raw in data_lines(split_lines(text), tsv=not jsonl, comments=False):
            if jsonl:
                obj = json_object(raw)
                entry_id, term = id_and_term(obj)
                defs, synonym_of = [obj.get("definition", "")], obj.get("synonym_of", "")
                # The usual row has only strings; any other goes through
                # json_field, which names the first value of the wrong type.
                if type(defs[0]) is not str or type(synonym_of) is not str or "definitions" in obj:
                    if "definitions" in obj:
                        defs = json_field(obj, "definitions", list, items=str)
                    else:
                        defs = [json_field(obj, "definition", str, optional=True) or ""]
                    synonym_of = json_field(obj, "synonym_of", str, int, optional=True)
                    synonym_of = "" if synonym_of is None else str(synonym_of)
            else:
                cols = raw.split("\t")
                if len(cols) not in (3, 4):
                    raise column_count_error("3 or 4", len(cols))
                entry_id, term = id_and_term(cols)
                defs, synonym_of = [cols[2]], cols[3] if len(cols) == 4 else ""
            entry_id, term = entry_id.strip(), term.strip()
            if entry_id in by_id:
                raise ValueError(f"duplicate entry id {entry_id!r}")
            senses = tuple(Definition(d) for d in defs if d.strip())
            entry = by_id[entry_id] = Entry(entry_id, term, senses, synonym_of.strip() or None)
            entries.append(entry)
            if entry.synonym_of is not None and not senses:
                synonyms.append((lineno, entry))
        for lineno, entry in synonyms:
            _synonym_senses(entry, by_id)
    except ValueError as exc:
        raise ParseError(str(exc), str(p), lineno) from None
    return entries


def attach_tokens(
    entries: Sequence[Entry],
    conllu_tokens: Sentences | None = None,
    function_words: frozenset[str] | None = None,
) -> tuple[list[Entry], bool]:
    """Attach tokens to each entry's first sense.

    CoNLL-U tokens from ``ingest_conllu`` win when present for an entry
    (their surfaces must spell out the definition text, see ``Definition``,
    or a ParseError names the sentence); otherwise the heuristic tagger
    fills in when a function-word list is supplied. Returns the new entries
    and whether any heuristic tagging happened.
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
                raise ParseError(
                    f"entry {entry.id}: {exc}", conllu_tokens.path, conllu_tokens.lines[entry.id]
                ) from None
        elif function_words is not None:
            tagged = Definition(sense.text, tuple(heuristic_tag(sense.text, function_words, memo)))
            heuristic_used = True
        else:
            out.append(entry)
            continue
        senses = (tagged,) + entry.senses[1:]
        out.append(Entry(entry.id, entry.term, senses, entry.synonym_of))
    return out, heuristic_used


def _synonym_senses(entry: Entry, by_id: Mapping[str, Entry]) -> tuple[Definition, ...]:
    """The senses a definition-less synonym takes: those of the first entry
    along its ``synonym_of`` chain that has senses or no ``synonym_of``.
    An unknown id or a loop raises ValueError."""
    target_id = entry.synonym_of
    visited = {entry.id}
    while True:
        target = by_id.get(target_id)
        if target is None:
            raise ValueError(f"entry {entry.id}: synonym_of points to unknown id {target_id!r}")
        if target.id in visited:
            raise ValueError(f"entry {entry.id}: synonym chain loops")
        visited.add(target.id)
        if target.senses or target.synonym_of is None:
            return target.senses
        target_id = target.synonym_of


def resolve_synonyms(entries: Sequence[Entry]) -> list[Entry]:
    """Give definition-less synonym entries their target's senses.

    Synonyms remain standalone entries; only the senses are shared. An
    unknown target or a loop raises ParseError (``read_dictionary``
    refuses both at the synonym's row).
    """
    by_id = {e.id: e for e in entries}
    out: list[Entry] = []
    for entry in entries:
        if entry.synonym_of is None or entry.senses:
            out.append(entry)
            continue
        try:
            senses = _synonym_senses(entry, by_id)
        except ValueError as exc:
            raise ParseError(str(exc)) from None
        out.append(Entry(entry.id, entry.term, senses, entry.synonym_of))
    return out
