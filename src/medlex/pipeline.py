"""Orchestration: runs the voting strategies over a dictionary, resolves
votes with the fixed precedence and applies the iterative second pass.
The outcome file it writes is ``outcomes``'s; ``read_outcomes`` and
``write_outcomes`` are re-exported here, as is ``model.resolve_votes``."""

from __future__ import annotations

import logging
from pathlib import Path
from typing import Iterable, Mapping, NamedTuple, Sequence

from .errors import ParseError
from .io import column_count_error, data_lines, json_field, json_line_values, json_object, read_text, sniff_format
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

    Pass 0 gives each entry the votes of ``suffix_vote`` and ``kw_entry_vote``
    on its term and of ``kw_firstnoun_vote`` on its definition's first noun,
    in that order, and resolves them; each of the following
    ``iter_rounds`` passes assigns a still-unmapped entry the category of
    an already-mapped entry whose term equals the definition's first
    noun (provenance ITER). Passes are barriers: each round indexes the
    outcomes as the last round left them (each term's earliest mapped
    entry), so an assignment becomes visible to lookups only in the next
    round. The rounds stop early once one assigns nothing.
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
        votes = []
        vote = suffix_vote(term, suffixes)
        if vote is not None:
            votes.append(vote)
        vote = kw_entry_vote(term, keywords)
        if vote is not None:
            votes.append(vote)
        if first_noun in kw_1n:
            vote = kw_1n[first_noun]
        else:
            vote = kw_1n[first_noun] = kw_firstnoun_vote(first_noun, keywords)
        if vote is not None:
            votes.append(vote)
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
        # ITER key -> the category of its earliest mapped entry, as of the
        # end of the last round.
        index: dict[str, Category] = {}
        for key, outcome in zip(terms, outcomes):
            category = outcome.category
            if category is None:
                continue
            earliest = index.setdefault(key, category)
            if earliest is not category and key not in warned:
                log.info("term %r mapped to both %s and %s; ITER uses the earliest", key, earliest, category)
                warned.add(key)
        still_pending = []
        for i, key in pending:
            category = index.get(key)
            if category is None:
                still_pending.append((i, key))
            else:
                outcome = outcomes[i]
                outcomes[i] = MappingOutcome(outcome.entry_id, outcome.term, category, Provenance.ITER)
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
    for outcome in outcomes:
        provenance = outcome.provenance
        provenance_counts[provenance] = provenance_counts.get(provenance, 0) + 1
        category = outcome.category
        if category is None:
            unmapped += 1
        else:
            mapped += 1
            category_counts[category] = category_counts.get(category, 0) + 1
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


class DictionaryRow(NamedTuple):
    """One dictionary row as ``read_dictionary_rows`` gives it: the id, the
    term, the texts of its senses and the id it is a ``synonym_of``."""

    id: str
    term: str
    senses: tuple[str, ...]
    synonym_of: str | None


def read_dictionary_rows(path: str | Path, fmt: str | None = None) -> list[DictionaryRow]:
    """The rows of a TSV (id, term, definition[, synonym_of]) or JSON-lines
    dictionary with the same fields (plus multi-sense ``definitions``, which
    a row may give in place of ``definition``, not beside it).

    Both formats follow one rule: the id, term and ``synonym_of`` are
    trimmed, an empty ``synonym_of`` is none, and a definition that is
    blank after trimming is dropped (its text is kept as written). A
    synonym without senses whose ``synonym_of`` chain names an unknown id
    or loops is refused at its own row, once every row has been read.

    A JSON-lines row in its common form, ``json.dumps(row,
    ensure_ascii=False)`` of the id, the term and then the definition or
    the ``synonym_of``, each a string without ``"``, ``\\`` or
    U+0000-U+001F, is read by one match (``json_line_values``); it holds no
    tab, CR or LF, so only the blank term and id are checked there. Any
    other row is decoded and checked as ``id_and_term`` and ``json_field``
    say, in the same order and with the same messages."""
    p = Path(path)
    text = read_text(p, "dictionary")
    rows: list[DictionaryRow] = []
    by_id: dict[str, DictionaryRow] = {}
    # (line, row) of each row that takes its senses from a synonym_of.
    synonyms: list[tuple[int, DictionaryRow]] = []
    jsonl = sniff_format(p, fmt) == "jsonl"
    if jsonl:
        # The common forms: one definition, or the id the entry is a synonym
        # of. Only a JSON-lines read compiles their patterns.
        definition_row = json_line_values(("id", "term", "definition"))
        synonym_row = json_line_values(("id", "term", "synonym_of"))
    new_row = tuple.__new__
    lineno = 0
    try:
        for lineno, raw in data_lines(text, tsv=not jsonl, comments=False):
            if not jsonl:
                cols = raw.split("\t")
                if len(cols) not in (3, 4):
                    raise column_count_error("3 or 4", len(cols))
                entry_id, term, definition = cols[0], cols[1], cols[2]
                synonym_of = cols[3] if len(cols) == 4 else ""
                senses = (definition,) if definition.strip() else ()
            else:
                values = definition_row(raw)
                if values is not None and None not in values:
                    entry_id, term, definition = values
                    synonym_of, senses = "", (definition,) if definition.strip() else ()
                else:
                    values = synonym_row(raw)
                    if values is not None and None not in values:
                        entry_id, term, synonym_of = values
                        senses = ()
                    else:
                        entry_id, term, senses, synonym_of = _json_dictionary_row(raw)
            # The blank checks id_and_term makes of a decoded row, which has passed them.
            if not term.strip():
                raise ValueError("empty term")
            if not entry_id.strip():
                raise ValueError("missing entry id")
            entry_id, term, synonym_of = entry_id.strip(), term.strip(), synonym_of.strip() or None
            if entry_id in by_id:
                raise ValueError(f"duplicate entry id {entry_id!r}")
            # The tuple DictionaryRow(...) builds, without its Python-level __new__.
            row = by_id[entry_id] = new_row(DictionaryRow, (entry_id, term, senses, synonym_of))
            rows.append(row)
            if synonym_of is not None and not senses:
                synonyms.append((lineno, row))
        for lineno, row in synonyms:
            _synonym_target(row, by_id)
    except ValueError as exc:
        raise ParseError(str(exc), str(p), lineno) from None
    return rows


def _json_dictionary_row(line: str) -> tuple[str, str, tuple[str, ...], str]:
    """The id, term, non-blank definition texts and ``synonym_of`` (empty
    when none) of a JSON-lines dictionary row that is not in the common
    form: decoded by ``json_object``, then checked in the order
    ``read_dictionary_rows`` promises by ``id_and_term`` and one
    ``json_field`` call for each other value."""
    obj = json_object(line)
    entry_id, term = id_and_term(obj)
    if "definitions" in obj:
        if "definition" in obj:
            raise ValueError('a row takes "definition" or "definitions", not both')
        defs = json_field(obj, "definitions", list, items=str)
    else:
        defs = [json_field(obj, "definition", str, optional=True) or ""]
    synonym_of = json_field(obj, "synonym_of", str, int, optional=True)
    synonym_of = "" if synonym_of is None else str(synonym_of)
    return entry_id, term, tuple([d for d in defs if d.strip()]), synonym_of


def _tagged(
    entry_id: str,
    text: str,
    conllu_tokens: Sentences | None,
    function_words: frozenset[str] | None,
    memo: dict[str, tuple[Token, ...]],
) -> tuple[Definition | None, bool]:
    """``text``, the first sense of entry ``entry_id``, with tokens, and
    whether the heuristic tagger gave them: CoNLL-U tokens from
    ``ingest_conllu`` win when present for the entry (their surfaces must
    spell out the text, see ``Definition``, or a ParseError names the
    sentence); otherwise the heuristic tagger fills in when a function-word
    list is supplied, with ``memo`` as ``heuristic_tag`` takes it. (None,
    False) when neither applies."""
    if conllu_tokens is not None and entry_id in conllu_tokens:
        try:
            return Definition(text, tuple(conllu_tokens[entry_id])), False
        except ValueError as exc:
            raise ParseError(
                f"entry {entry_id}: {exc}", conllu_tokens.path, conllu_tokens.lines[entry_id]
            ) from None
    if function_words is None:
        return None, False
    return Definition(text, tuple(heuristic_tag(text, function_words, memo))), True


def build_entries(
    rows: Iterable[DictionaryRow],
    conllu_tokens: Sentences | None = None,
    function_words: frozenset[str] | None = None,
) -> tuple[list[Entry], bool]:
    """Build each entry of ``read_dictionary_rows``'s rows, in row order,
    with its first sense tagged as ``attach_tokens`` tags it, then give
    each synonym without senses its target's tagged senses by
    ``resolve_synonyms``. Returns the entries and whether any heuristic
    tagging happened: ``build_entries(read_dictionary_rows(path),
    conllu_tokens, function_words)`` gives what ``read_dictionary``, then
    ``attach_tokens`` and ``resolve_synonyms``, give. An unknown or looping
    ``synonym_of``, which only rows built by hand can hold, raises
    ParseError without a location."""
    entries: list[Entry] = []
    heuristic_used = False
    # Whitespace piece -> its heuristic tokens, for this function-word list.
    memo: dict[str, tuple[Token, ...]] = {}
    for entry_id, term, texts, synonym_of in rows:
        senses: tuple[Definition, ...] = ()
        if texts:
            first, heuristic = _tagged(entry_id, texts[0], conllu_tokens, function_words, memo)
            heuristic_used = heuristic_used or heuristic
            if first is None:
                first = Definition(texts[0])
            senses = (first,) if len(texts) == 1 else (first, *map(Definition, texts[1:]))
        entries.append(Entry(entry_id, term, senses, synonym_of))
    return resolve_synonyms(entries), heuristic_used


def read_dictionary(path: str | Path, fmt: str | None = None) -> list[Entry]:
    """The entries of ``read_dictionary_rows``' rows, with untagged senses;
    a synonym without senses is left without them (``resolve_synonyms``
    gives it its target's). ``build_entries`` builds them tagged and
    resolved in one pass."""
    return [
        Entry(row.id, row.term, tuple(map(Definition, row.senses)), row.synonym_of)
        for row in read_dictionary_rows(path, fmt)
    ]


def attach_tokens(
    entries: Sequence[Entry],
    conllu_tokens: Sentences | None = None,
    function_words: frozenset[str] | None = None,
) -> tuple[list[Entry], bool]:
    """Attach tokens to each entry's first sense that has none, as
    ``build_entries`` does. Returns the new entries and whether any
    heuristic tagging happened.
    """
    out: list[Entry] = []
    heuristic_used = False
    memo: dict[str, tuple[Token, ...]] = {}
    for entry in entries:
        sense = entry.first_sense()
        if sense is not None and sense.tokens is None:
            tagged, heuristic = _tagged(entry.id, sense.text, conllu_tokens, function_words, memo)
            if tagged is not None:
                heuristic_used = heuristic_used or heuristic
                entry = Entry(entry.id, entry.term, (tagged,) + entry.senses[1:], entry.synonym_of)
        out.append(entry)
    return out, heuristic_used


def _synonym_target(
    entry: Entry | DictionaryRow, by_id: Mapping[str, Entry | DictionaryRow]
) -> Entry | DictionaryRow:
    """The entry (or row) whose senses a synonym without senses takes: the
    first along its ``synonym_of`` chain that has senses or no
    ``synonym_of``. An unknown id or a loop raises ValueError."""
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
            return target
        target_id = target.synonym_of


def resolve_synonyms(entries: Sequence[Entry]) -> list[Entry]:
    """Give definition-less synonym entries their target's senses: the
    synonym step ``build_entries``, and so ``map``, ends in.

    Synonyms remain standalone entries; only the senses are shared. An
    unknown target or a loop raises ParseError without a location
    (``read_dictionary_rows`` refuses both at the synonym's row).
    """
    by_id = {e.id: e for e in entries}
    out: list[Entry] = []
    for entry in entries:
        if entry.synonym_of is None or entry.senses:
            out.append(entry)
            continue
        try:
            senses = _synonym_target(entry, by_id).senses
        except ValueError as exc:
            raise ParseError(str(exc)) from None
        out.append(Entry(entry.id, entry.term, senses, entry.synonym_of))
    return out
