from __future__ import annotations

import contextlib
import itertools
import json
import logging
import tempfile
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from medlex.errors import ParseError
from medlex.io import (column_count_error, data_lines, json_field, json_object, read_text, sniff_format,
                       split_lines)
from medlex.model import (
    Category,
    Definition,
    Entry,
    MappingOutcome,
    Provenance,
    Token,
    Vote,
    normalize_term,
)
from medlex.outcomes import format_votes, id_and_term, parse_votes, read_outcomes, render_outcomes, write_outcomes
from medlex.pipeline import (
    attach_tokens,
    build_entries,
    entry_votes,
    map_dictionary,
    mapping_stats,
    read_dictionary,
    read_dictionary_rows,
    resolve_synonyms,
    resolve_votes,
)
from medlex.strategies import KeywordTable, SuffixTable
from medlex.textprep import StopConfig, extract_first_noun, heuristic_tag, ingest_conllu

EMPTY_STOPS = StopConfig()


def vote(strategy: Provenance, category: Category) -> Vote:
    return Vote(strategy, category, "trigger")


def resolver_oracle(votes):
    """Rule restated independently: unanimity -> MULTI, disagreement ->
    first voter in SUFF, KW_E, KW_1N order, singleton -> that strategy."""
    if len(votes) == 0:
        return None, Provenance.UNMAPPED
    categories = sorted({v.category.value for v in votes})
    if len(votes) == 1:
        return votes[0].category, Provenance[votes[0].strategy.value]
    if len(categories) == 1:
        return votes[0].category, Provenance.MULTI
    for name in ("SUFF", "KW_E", "KW_1N"):
        for v in votes:
            if v.strategy.value == name:
                return v.category, Provenance[name]
    raise AssertionError


class TestResolveVotes:
    def test_agreement_is_multi(self):
        votes = [vote(Provenance.SUFF, Category.CONDITION), vote(Provenance.KW_1N, Category.CONDITION)]
        assert resolve_votes(votes) == (Category.CONDITION, Provenance.MULTI)

    def test_disagreement_prefers_suffix(self):
        votes = [vote(Provenance.SUFF, Category.PROCEDURE), vote(Provenance.KW_1N, Category.CONDITION)]
        assert resolve_votes(votes) == (Category.PROCEDURE, Provenance.SUFF)

    def test_empty_is_unmapped(self):
        assert resolve_votes([]) == (None, Provenance.UNMAPPED)

    def test_kw_e_beats_kw_1n(self):
        votes = [vote(Provenance.KW_E, Category.SERVICE), vote(Provenance.KW_1N, Category.ORGANIZATION)]
        assert resolve_votes(votes) == (Category.SERVICE, Provenance.KW_E)

    def test_two_agreeing_one_disagreeing_is_not_multi(self):
        votes = [
            vote(Provenance.SUFF, Category.CONDITION),
            vote(Provenance.KW_E, Category.CONDITION),
            vote(Provenance.KW_1N, Category.PROCEDURE),
        ]
        assert resolve_votes(votes) == (Category.CONDITION, Provenance.SUFF)

    def test_duplicate_strategy_rejected(self):
        votes = [vote(Provenance.SUFF, Category.CONDITION), vote(Provenance.SUFF, Category.PROCEDURE)]
        with pytest.raises(ValueError):
            resolve_votes(votes)

    @pytest.mark.parametrize("provenance", [Provenance.MULTI, Provenance.ITER, Provenance.UNMAPPED])
    def test_vote_from_a_provenance_that_does_not_vote_rejected(self, provenance):
        for votes in ([vote(provenance, Category.CONDITION)],
                      [vote(Provenance.SUFF, Category.TOOL), vote(provenance, Category.CONDITION)]):
            with pytest.raises(ValueError, match=f"{provenance} is not a voting strategy"):
                resolve_votes(votes)

    def test_exhaustive_enumeration_matches_oracle(self):
        categories = (Category.CONDITION, Category.PROCEDURE, Category.SERVICE)
        strategies = (Provenance.SUFF, Provenance.KW_E, Provenance.KW_1N)
        checked = 0
        for r in range(len(strategies) + 1):
            for subset in itertools.combinations(strategies, r):
                for assignment in itertools.product(categories, repeat=len(subset)):
                    votes = [vote(s, c) for s, c in zip(subset, assignment)]
                    assert resolve_votes(votes) == resolver_oracle(votes)
                    checked += 1
        assert checked == 1 + 3 * 3 + 3 * 9 + 27


KEYWORDS = KeywordTable(
    (
        ("sykdom", Category.CONDITION),
        ("behandling", Category.PROCEDURE),
    )
)
SUFFIXES = SuffixTable((("oma", Category.CONDITION),))


def entry(entry_id, term, definition=None, synonym_of=None, tokens=True):
    senses = ()
    if definition is not None:
        sense = Definition(definition)
        if tokens:
            from medlex.textprep import heuristic_tag

            sense = Definition(
                definition, tuple(heuristic_tag(definition, frozenset({"av", "med", "i", "som"})))
            )
        senses = (sense,)
    return Entry(entry_id, term, senses, synonym_of)


class TestMapDictionary:
    def test_keyword_table_only_maps_via_first_noun(self):
        entries = [entry("e1", "leverkoma", "sykdom med bevisstløshet")]
        outcomes = map_dictionary(entries, SuffixTable(()), KEYWORDS, EMPTY_STOPS)
        assert outcomes[0].category is Category.CONDITION
        assert outcomes[0].provenance is Provenance.KW_1N

    def test_suffix_and_keyword_agree_to_multi(self):
        entries = [entry("e1", "leverkoma", "sykdom med bevisstløshet")]
        outcomes = map_dictionary(entries, SUFFIXES, KEYWORDS, EMPTY_STOPS)
        assert outcomes[0].category is Category.CONDITION
        assert outcomes[0].provenance is Provenance.MULTI

    def test_iter_assigns_from_mapped_term(self):
        entries = [
            entry("e1", "leukemi", "sykdom i blodet"),
            entry("e2", "blodkreft", "leukemi i beinmargen"),
        ]
        outcomes = map_dictionary(entries, SuffixTable(()), KEYWORDS, EMPTY_STOPS, iter_rounds=1)
        assert outcomes[1].category is Category.CONDITION
        assert outcomes[1].provenance is Provenance.ITER
        assert outcomes[1].votes == ()

    def test_iter_zero_rounds_leaves_unmapped(self):
        entries = [
            entry("e1", "leukemi", "sykdom i blodet"),
            entry("e2", "blodkreft", "leukemi i beinmargen"),
        ]
        outcomes = map_dictionary(entries, SuffixTable(()), KEYWORDS, EMPTY_STOPS, iter_rounds=0)
        assert outcomes[1].provenance is Provenance.UNMAPPED

    def test_iter_rounds_are_barriers(self):
        entries = [
            entry("e1", "leukemi", "sykdom i blodet"),
            entry("e2", "blodkreft", "leukemi i beinmargen"),
            entry("e3", "kreftform", "blodkreft med spredning"),
        ]
        one = map_dictionary(entries, SuffixTable(()), KEYWORDS, EMPTY_STOPS, iter_rounds=1)
        assert one[2].provenance is Provenance.UNMAPPED
        two = map_dictionary(entries, SuffixTable(()), KEYWORDS, EMPTY_STOPS, iter_rounds=2)
        assert two[2].provenance is Provenance.ITER
        assert two[2].category is Category.CONDITION

    def test_mapped_entries_never_revisited_by_iter(self):
        entries = [
            entry("e1", "leukemi", "sykdom i blodet"),
            entry("e2", "behandlingsform", "behandling av leukemi"),
        ]
        outcomes = map_dictionary(entries, SuffixTable(()), KEYWORDS, EMPTY_STOPS, iter_rounds=3)
        assert outcomes[1].provenance is Provenance.KW_1N
        assert outcomes[1].category is Category.PROCEDURE

    def test_iter_key_is_case_normalized(self):
        entries = [
            entry("e1", "Leukemi", "sykdom i blodet"),
            entry("e2", "blodkreft", "leukemi i beinmargen"),
        ]
        outcomes = map_dictionary(entries, SuffixTable(()), KEYWORDS, EMPTY_STOPS)
        assert outcomes[1].provenance is Provenance.ITER

    def test_duplicate_ids_rejected(self):
        entries = [entry("e1", "a", "sykdom"), entry("e1", "b", "sykdom")]
        with pytest.raises(ValueError, match="duplicate"):
            map_dictionary(entries, SuffixTable(()), KEYWORDS, EMPTY_STOPS)

    def test_empty_definition_is_not_an_error(self):
        outcomes = map_dictionary(
            [Entry("e1", "leukemi")], SuffixTable(()), KEYWORDS, EMPTY_STOPS
        )
        assert outcomes[0].provenance is Provenance.UNMAPPED

    def test_output_order_equals_input_order(self, fixture_entries, suffixes, keywords, stops):
        outcomes = map_dictionary(fixture_entries, suffixes, keywords, stops)
        assert [o.entry_id for o in outcomes] == [e.id for e in fixture_entries]

    def test_permutation_stability(self, fixture_entries, suffixes, keywords, stops):
        base = {
            o.entry_id: (o.category, o.provenance)
            for o in map_dictionary(fixture_entries, suffixes, keywords, stops)
        }
        reordered = list(reversed(fixture_entries))
        permuted = {
            o.entry_id: (o.category, o.provenance)
            for o in map_dictionary(reordered, suffixes, keywords, stops)
        }
        assert base == permuted

    def test_two_runs_serialize_identically(self, fixture_entries, suffixes, keywords, stops):
        first = render_outcomes(map_dictionary(fixture_entries, suffixes, keywords, stops))
        second = render_outcomes(map_dictionary(fixture_entries, suffixes, keywords, stops))
        assert first == second

    def test_all_outcomes_satisfy_invariants(self, fixture_outcomes):
        for outcome in fixture_outcomes:
            outcome.validate()

    def test_precedence_law_on_stored_votes(self, fixture_outcomes):
        priority = {Provenance.SUFF: 0, Provenance.KW_E: 1, Provenance.KW_1N: 2}
        for o in fixture_outcomes:
            if len({v.category for v in o.votes}) > 1:
                winner = min(o.votes, key=lambda v: priority[v.strategy])
                assert o.category is winner.category


# Small vocabularies, so that terms, surfaces and first nouns repeat across
# entries: terms that draw a suffix vote, a contained keyword or none, and
# tokens among which are stop nouns, a stop phrase, keywords in three cases,
# an NFD word and words that are also terms (ITER chains).
MEMO_SUFFIXES = SuffixTable((("oma", Category.CONDITION), ("logi", Category.DISCIPLINE)))
MEMO_KEYWORDS = KeywordTable((("sykdom", Category.CONDITION), ("behandling", Category.PROCEDURE),
                              ("lege", Category.PERSON), ("svulst", Category.CONDITION)))
MEMO_STOPS = StopConfig(frozenset({"form", "lat."}), frozenset({"type av"}))
MEMO_TERMS = ["leverkoma", "hudsykdom", "nevrologi", "kreft", "blodkreft", "Kreft", "svulstoma",
              "behandlingslogi", "noe", "lege"]
MEMO_TOKENS = [("sykdom", "NOUN"), ("Sykdom", "NOUN"), ("SYKDOM", "PROPN"), ("behandling", "NOUN"),
               ("i", "ADP"), ("av", "ADP"), ("type", "NOUN"), ("form", "NOUN"), ("lat.", "NOUN"),
               ("kreft", "NOUN"), ("blodkreft", "NOUN"), ("noe", "NOUN"), ("leverkoma", "NOUN"),
               ("hudsvulst", "NOUN"), ("nevrologi", "NOUN"), ("lege", "PROPN"), ("W\u030a", "NOUN"),
               ("stor", "ADJ")]


@st.composite
def memo_entries(draw):
    """Entries with no sense, a sense without tokens, or tokens drawn from
    MEMO_TOKENS, each a fresh Token or one shared with other entries."""
    shared = {pair: Token(*pair) for pair in MEMO_TOKENS}
    entries = []
    for i in range(draw(st.integers(0, 25))):
        term = draw(st.sampled_from(MEMO_TERMS))
        kind = draw(st.sampled_from(["tokens", "tokens", "tokens", "untagged", "none"]))
        senses = ()
        if kind != "none":
            pairs = draw(st.lists(st.sampled_from(MEMO_TOKENS), max_size=4))
            text = " ".join(surface for surface, _ in pairs)
            tokens = tuple(shared[p] if draw(st.booleans()) else Token(*p) for p in pairs)
            senses = (Definition(text, tokens if kind == "tokens" else None),)
        entries.append(Entry(f"e{i}", term, senses))
    return entries


def reference_mapping(entries, suffixes, keywords, stops, iter_rounds):
    """map_dictionary restated entry by entry with no memo: extract_first_noun,
    entry_votes and resolve_votes for each entry, then the ITER rounds."""
    outcomes, keys = [], []
    for e in entries:
        sense = e.first_sense()
        noun = None if sense is None or sense.tokens is None else extract_first_noun(sense.tokens, stops)
        votes = entry_votes(normalize_term(e.term), noun, suffixes, keywords)
        outcomes.append(MappingOutcome(e.id, e.term, *resolve_votes(votes), tuple(votes)))
        keys.append(None if noun is None else normalize_term(noun))
    for _ in range(iter_rounds):
        index = {}
        for e, o in zip(entries, outcomes):
            if o.category is not None:
                index.setdefault(normalize_term(e.term), o.category)
        assigned = [
            MappingOutcome(o.entry_id, o.term, index[key], Provenance.ITER)
            if o.category is None and key in index else o
            for o, key in zip(outcomes, keys)
        ]
        if assigned == outcomes:
            break
        outcomes = assigned
    return outcomes


def recount(outcomes):
    """mapping_stats's counts by str() of each label, and disagreement as
    more than one distinct category among an outcome's votes."""
    by_category: dict[str, int] = {}
    by_provenance: dict[str, int] = {}
    disagreements = 0
    for o in outcomes:
        by_provenance[str(o.provenance)] = by_provenance.get(str(o.provenance), 0) + 1
        if o.category is not None:
            by_category[str(o.category)] = by_category.get(str(o.category), 0) + 1
        if len({v.category for v in o.votes}) > 1:
            disagreements += 1
    return by_category, by_provenance, disagreements


class TestMemoizedMapping:
    @settings(max_examples=300, deadline=None)
    @given(memo_entries(), st.integers(0, 3))
    def test_map_dictionary_equals_the_per_entry_reference(self, entries, iter_rounds):
        outcomes = map_dictionary(entries, MEMO_SUFFIXES, MEMO_KEYWORDS, MEMO_STOPS, iter_rounds)
        assert outcomes == reference_mapping(entries, MEMO_SUFFIXES, MEMO_KEYWORDS, MEMO_STOPS, iter_rounds)
        assert all(type(o) is MappingOutcome for o in outcomes)
        stats = mapping_stats(outcomes)
        assert (stats.category_counts, stats.provenance_counts, stats.disagreements) == recount(outcomes)

    def test_the_vocabulary_reaches_every_provenance(self):
        shared = {pair: Token(*pair) for pair in MEMO_TOKENS}
        entries = [Entry(f"e{i}", term, (Definition(noun, (shared[(noun, "NOUN")],)),))
                   for i, (term, noun) in enumerate([
                       ("leverkoma", "sykdom"), ("leverkoma", "behandling"), ("hudsykdom", "noe"),
                       ("noe", "kreft"), ("kreft", "blodkreft"), ("blodkreft", "leverkoma")])]
        outcomes = map_dictionary(entries, MEMO_SUFFIXES, MEMO_KEYWORDS, MEMO_STOPS, 3)
        assert [o.provenance for o in outcomes] == [
            Provenance.MULTI, Provenance.SUFF, Provenance.KW_E, Provenance.ITER, Provenance.ITER,
            Provenance.ITER]
        assert outcomes == reference_mapping(entries, MEMO_SUFFIXES, MEMO_KEYWORDS, MEMO_STOPS, 3)


class TestMappingStats:
    def test_simple_counts(self):
        outcomes = map_dictionary(
            [
                entry("e1", "leverkoma", "sykdom"),
                entry("e2", "hudkreft", "sykdom i huden"),
                entry("e3", "ukjent", "noe rart"),
            ],
            SUFFIXES,
            KEYWORDS,
            EMPTY_STOPS,
        )
        stats = mapping_stats(outcomes)
        assert stats.category_counts == {"CONDITION": 2}
        assert stats.provenance_counts == {"MULTI": 1, "KW_1N": 1, "UNMAPPED": 1}
        assert (stats.mapped, stats.unmapped, stats.total) == (2, 1, 3)

    def test_empty(self):
        stats = mapping_stats([])
        assert stats.category_counts == {}
        assert stats.total == 0

    def test_fixture_counts_match_brute_force_recount(self, fixture_outcomes):
        stats = mapping_stats(fixture_outcomes)
        by_category, by_provenance, disagreements = recount(fixture_outcomes)
        assert stats.category_counts == by_category
        assert stats.provenance_counts == by_provenance
        assert stats.disagreements == disagreements == 2
        assert stats.mapped == 47 and stats.unmapped == 3


class TestDictionaryIO:
    def test_tsv_round_trip(self, tmp_path):
        path = tmp_path / "d.tsv"
        path.write_text("e1\tleukemi\tsykdom i blodet\ne2\thepatisk koma\t\te1\n", encoding="utf-8")
        entries = read_dictionary(path)
        assert entries[0].term == "leukemi"
        assert entries[0].senses[0].text == "sykdom i blodet"
        assert entries[1].synonym_of == "e1"
        assert entries[1].senses == ()

    def test_jsonl_with_multiple_senses(self, tmp_path):
        path = tmp_path / "d.jsonl"
        rows = [
            {"id": "e1", "term": "puls", "definitions": ["trykkbølge i årene", "rytme"]},
            {"id": "e2", "term": "hjerte", "definition": "muskel"},
        ]
        path.write_text("\n".join(json.dumps(r) for r in rows), encoding="utf-8")
        entries = read_dictionary(path)
        assert [d.text for d in entries[0].senses] == ["trykkbølge i årene", "rytme"]
        assert entries[1].senses[0].text == "muskel"

    def test_only_first_sense_consulted(self, tmp_path):
        path = tmp_path / "d.jsonl"
        row = {"id": "e1", "term": "puls", "definitions": ["bølge i årene", "sykdom i rytmen"]}
        path.write_text(json.dumps(row), encoding="utf-8")
        entries, _ = attach_tokens(read_dictionary(path), None, frozenset({"i"}))
        outcomes = map_dictionary(entries, SuffixTable(()), KEYWORDS, EMPTY_STOPS)
        # second sense's "sykdom" must not be consulted
        assert outcomes[0].provenance is Provenance.UNMAPPED

    def test_duplicate_ids_rejected_with_line(self, tmp_path):
        path = tmp_path / "d.tsv"
        path.write_text("e1\ta\tx\ne1\tb\ty\n", encoding="utf-8")
        with pytest.raises(ParseError) as exc_info:
            read_dictionary(path)
        assert exc_info.value.line == 2

    def test_empty_term_rejected(self, tmp_path):
        path = tmp_path / "d.tsv"
        path.write_text("e1\t \tx\n", encoding="utf-8")
        with pytest.raises(ParseError, match="empty term"):
            read_dictionary(path)

    def test_tab_in_jsonl_term_rejected(self, tmp_path):
        path = tmp_path / "d.jsonl"
        path.write_text(json.dumps({"id": "e1", "term": "a\tb", "definition": "x"}), encoding="utf-8")
        with pytest.raises(ParseError, match="tabs"):
            read_dictionary(path)

    def test_wrong_column_count(self, tmp_path):
        path = tmp_path / "d.tsv"
        path.write_text("e1\tonly-term\n", encoding="utf-8")
        with pytest.raises(ParseError):
            read_dictionary(path)

    def test_missing_file(self, tmp_path):
        with pytest.raises(ParseError):
            read_dictionary(tmp_path / "absent.tsv")


class TestSynonyms:
    def test_synonym_inherits_target_senses(self):
        entries = [
            entry("e1", "leverkoma", "sykdom med bevisstløshet"),
            Entry("e2", "hepatisk koma", (), "e1"),
        ]
        resolved = resolve_synonyms(entries)
        assert resolved[1].senses == entries[0].senses
        outcomes = map_dictionary(resolved, SUFFIXES, KEYWORDS, EMPTY_STOPS)
        # own term still votes: "hepatisk koma" ends in -oma
        assert outcomes[1].provenance is Provenance.MULTI

    def test_unknown_target_rejected(self):
        with pytest.raises(ParseError, match="unknown id"):
            resolve_synonyms([Entry("e2", "alias", (), "missing")])

    def test_synonym_chain_followed(self):
        entries = [
            entry("e1", "term", "sykdom"),
            Entry("e2", "alias", (), "e1"),
            Entry("e3", "alias2", (), "e2"),
        ]
        resolved = resolve_synonyms(entries)
        assert resolved[2].senses == entries[0].senses

    def test_synonym_loop_rejected(self):
        entries = [Entry("e1", "a", (), "e2"), Entry("e2", "b", (), "e1")]
        with pytest.raises(ParseError, match="loops"):
            resolve_synonyms(entries)

    def test_synonym_with_own_definition_untouched(self):
        entries = [
            entry("e1", "term", "sykdom"),
            entry("e2", "alias", "behandling", synonym_of="e1"),
        ]
        resolved = resolve_synonyms(entries)
        assert resolved[1].senses[0].text == "behandling"


class TestOutcomeIO:
    def test_round_trip_tsv(self, tmp_path, fixture_outcomes):
        path = tmp_path / "out.tsv"
        write_outcomes(fixture_outcomes, path)
        back = read_outcomes(path)
        assert [(o.entry_id, o.term, o.category, o.provenance, o.votes) for o in back] == [
            (o.entry_id, o.term, o.category, o.provenance, o.votes) for o in fixture_outcomes
        ]

    def test_round_trip_jsonl(self, tmp_path, fixture_outcomes):
        path = tmp_path / "out.jsonl"
        write_outcomes(fixture_outcomes, path)
        back = read_outcomes(path)
        assert [(o.entry_id, o.term, o.category, o.provenance, o.votes) for o in back] == [
            (o.entry_id, o.term, o.category, o.provenance, o.votes) for o in fixture_outcomes
        ]

    def test_vote_serialization_round_trip(self):
        votes = (
            Vote(Provenance.KW_E, Category.SERVICE, "tjeneste", 9),
            Vote(Provenance.SUFF, Category.CONDITION, "emi", None),
        )
        assert parse_votes(format_votes(votes)) == votes

    def test_parse_votes_keeps_only_votes_that_parse(self):
        parsed = {}
        good = Vote(Provenance.SUFF, Category.TOOL, "kniv", None)
        assert parse_votes("SUFF:TOOL:kniv:-", parsed) == (good,)
        for _ in range(2):
            with pytest.raises(ValueError, match="bad vote serialization: 'SUFF:TOOL'"):
                parse_votes("SUFF:TOOL:kniv:-;SUFF:TOOL", parsed)
        assert parsed == {"SUFF:TOOL:kniv:-": good}
        assert parse_votes("SUFF:TOOL:kniv:-;KW_E:TOOL:kniv:3", parsed)[0] is parsed["SUFF:TOOL:kniv:-"]

    @pytest.mark.parametrize("pos", ["1_0", " 7", "7 ", "-3", "+3", "\u0663", "\u00b2", "}-", "", "--"])
    def test_vote_position_is_a_dash_or_ascii_digits(self, pos):
        # format_votes writes nothing else, though int() reads several of these.
        part = f"SUFF:TOOL:kniv:{pos}"
        with pytest.raises(ValueError) as info:
            parse_votes(part)
        assert str(info.value) == f"bad vote serialization: {part!r}"
        assert parse_votes("SUFF:TOOL:kniv:007") == (Vote(Provenance.SUFF, Category.TOOL, "kniv", 7),)


# ---------------------------------------------------------------------------
# Each entry built once, against the three passes it replaced.
#
# The reference is read_dictionary, attach_tokens and resolve_synonyms as
# they were before build_entries: the first builds each entry with text-only
# senses and checks synonym chains, the second rebuilds each entry whose first
# sense it tags, the third rebuilds each synonym with its target's senses.


def reference_read_dictionary(path):
    p = Path(path)
    text = read_text(p, "dictionary")
    entries, by_id, synonyms = [], {}, []
    jsonl = sniff_format(p) == "jsonl"
    lineno = 0
    try:
        for lineno, raw in data_lines(text, tsv=not jsonl, comments=False):
            if jsonl:
                obj = json_object(raw)
                entry_id, term = id_and_term(obj)
                defs, synonym_of = [obj.get("definition", "")], obj.get("synonym_of", "")
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
                entry_id, term = cols[0], cols[1]
                if not term.strip():
                    raise ValueError("empty term")
                if not entry_id.strip():
                    raise ValueError("missing entry id")
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
            reference_synonym_senses(entry, by_id)
    except ValueError as exc:
        raise ParseError(str(exc), str(p), lineno) from None
    return entries


def reference_attach_tokens(entries, conllu_tokens=None, function_words=None):
    out, heuristic_used, memo = [], False, {}
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
        out.append(Entry(entry.id, entry.term, (tagged,) + entry.senses[1:], entry.synonym_of))
    return out, heuristic_used


def reference_synonym_senses(entry, by_id):
    target_id, visited = entry.synonym_of, {entry.id}
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


def reference_resolve_synonyms(entries):
    by_id = {e.id: e for e in entries}
    out = []
    for entry in entries:
        if entry.synonym_of is None or entry.senses:
            out.append(entry)
            continue
        try:
            senses = reference_synonym_senses(entry, by_id)
        except ValueError as exc:
            raise ParseError(str(exc)) from None
        out.append(Entry(entry.id, entry.term, senses, entry.synonym_of))
    return out


@contextlib.contextmanager
def medlex_records():
    """The log records of medlex's loggers, INFO and up, while the block runs."""
    logger = logging.getLogger("medlex")
    records = []
    handler = logging.Handler()
    handler.emit = records.append
    level = logger.level
    logger.addHandler(handler)
    logger.setLevel(logging.INFO)
    try:
        yield records
    finally:
        logger.removeHandler(handler)
        logger.setLevel(level)


BUILD_TERMS = ["leukemi", " kniv ", "sag", "leukemi", "blodkreft", "Sag", "kreft", "lege", ""]
BUILD_TEXTS = ["sykdom i blodet", "sykdom", "et  redskap", "redskap\u00a0for saging", " ", ""]


@st.composite
def built_dictionaries(draw):
    """A dictionary as TSV or JSON-lines text, and a CoNLL-U text or None.

    Ids may repeat, terms may be blank, synonyms point at known ids, unknown
    ones or each other (chains and loops), JSON-lines rows may have several
    senses or none, and CoNLL-U sentences name known and unknown ids with
    tokens that may or may not spell out the entry's first definition."""
    jsonl = draw(st.booleans())
    lines = []
    # Id -> the text of its first definition, which a sentence may spell out.
    texts_of = {}
    for n in range(1, draw(st.integers(0, 6)) + 1):
        entry_id = draw(st.sampled_from([f"e{n}"] * 6 + [f" e{n}", "e1"]))
        term = draw(st.sampled_from(BUILD_TERMS))
        synonym_of = draw(st.sampled_from([None, None, None, "e1", "e2", " e3", "e5", "e9"]))
        if jsonl:
            row = {"id": entry_id, "term": term}
            texts = draw(st.lists(st.sampled_from(BUILD_TEXTS), max_size=3))
            texts_of[entry_id.strip()] = texts[0] if texts else ""
            if len(texts) == 1 and draw(st.booleans()):
                row["definition"] = texts[0]
            elif texts or draw(st.booleans()):
                row["definitions"] = texts
            if synonym_of is not None:
                row["synonym_of"] = synonym_of
            lines.append(json.dumps(row, ensure_ascii=draw(st.booleans())))
        else:
            cols = [entry_id, term, draw(st.sampled_from(BUILD_TEXTS))]
            texts_of[entry_id.strip()] = cols[2]
            lines.append("\t".join(cols + ([] if synonym_of is None else [synonym_of])))
    conllu = None
    if draw(st.booleans()):
        sentences = []
        for sent_id in draw(st.lists(st.sampled_from(["e1", "e2", "e3", "e4", "e5", "e9"]), max_size=4,
                                     unique=True)):
            words = draw(st.sampled_from([texts_of.get(sent_id, "")] * 3 + BUILD_TEXTS[:4])).split()
            sentences.append(f"# sent_id = {sent_id}\n" + "".join(
                f"{n}\t{word}\t_\tNOUN\t_\t_\t0\tdep\t_\t_\n" for n, word in enumerate(words, start=1)))
        conllu = "\n".join(sentences)
    return ("d.jsonl" if jsonl else "d.tsv"), "".join(line + "\n" for line in lines), conllu


def dictionary_passes(dict_path, conllu_path, function_words, read, build):
    """(entries, heuristic flag) or the ParseError's text, and the log
    records, of reading a dictionary as ``map`` does: ``read`` gives rows or
    entries, CoNLL-U sentences are matched to their ids, and ``build`` turns
    rows and sentences into tagged and resolved entries."""
    with medlex_records() as records:
        try:
            rows = read(dict_path)
            conllu = None
            if conllu_path is not None:
                conllu = ingest_conllu(split_lines(read_text(conllu_path, "CoNLL-U")),
                                       id_map={row.id: row.id for row in rows}, path=conllu_path)
            result = build(rows, conllu, function_words)
        except ParseError as exc:
            result = str(exc)
    return result, [(r.levelname, r.getMessage()) for r in records]


def three_passes(attach, resolve):
    def build(entries, conllu, function_words):
        entries, heuristic = attach(entries, conllu, function_words)
        return resolve(entries), heuristic
    return build


class TestOneBuild:
    @settings(max_examples=300, deadline=None)
    @given(built_dictionaries(), st.sampled_from([None, frozenset(), frozenset({"i", "for"})]))
    def test_build_entries_equals_the_three_passes(self, dictionary, function_words):
        name, text, conllu = dictionary
        with tempfile.TemporaryDirectory() as tmp:
            dict_path = Path(tmp) / name
            dict_path.write_text(text, encoding="utf-8")
            conllu_path = None
            if conllu is not None:
                conllu_path = str(Path(tmp) / "d.conllu")
                Path(conllu_path).write_text(conllu, encoding="utf-8")
            reference = dictionary_passes(
                dict_path, conllu_path, function_words, reference_read_dictionary,
                three_passes(reference_attach_tokens, reference_resolve_synonyms))
            built = dictionary_passes(dict_path, conllu_path, function_words, read_dictionary_rows,
                                      build_entries)
            # The three functions the one build replaced keep their results.
            kept = dictionary_passes(dict_path, conllu_path, function_words, read_dictionary,
                                     three_passes(attach_tokens, resolve_synonyms))
        assert built == reference
        assert kept == reference
        if type(built[0]) is tuple:
            assert all(type(e) is Entry for e in built[0][0])

    def test_a_synonym_shares_its_target_s_tagged_senses(self, tmp_path):
        path = tmp_path / "d.tsv"
        path.write_text("e3\talias2\t\te2\ne1\tleukemi\tsykdom i blodet\ne2\talias\t\te1\n", encoding="utf-8")
        entries, heuristic = build_entries(read_dictionary_rows(path), None, frozenset({"i"}))
        assert heuristic
        assert entries[0].senses is entries[1].senses is entries[2].senses
        assert [t.upos for t in entries[1].first_sense().tokens] == ["NOUN", "X", "NOUN"]
        assert [e.id for e in entries] == ["e3", "e1", "e2"]


# ITER rounds as the reference for map_dictionary: each round rebuilds the
# index from every outcome and logs each key newly seen mapped to two
# categories.
def reference_iter_rounds(entries, suffixes, keywords, stops, iter_rounds):
    outcomes = map_dictionary(entries, suffixes, keywords, stops, 0)
    terms = [normalize_term(e.term) for e in entries]
    first_nouns = [
        None if e.first_sense() is None or e.first_sense().tokens is None
        else extract_first_noun(e.first_sense().tokens, stops)
        for e in entries
    ]
    pending = [(i, normalize_term(noun)) for i, noun in enumerate(first_nouns)
               if noun is not None and outcomes[i].category is None]
    warned, infos = set(), []
    for _ in range(iter_rounds):
        index = {}
        for key, outcome in zip(terms, outcomes):
            if outcome.category is None:
                continue
            if key not in index:
                index[key] = outcome.category
            elif index[key] is not outcome.category and key not in warned:
                infos.append(f"term {key!r} mapped to both {index[key]} and {outcome.category}; "
                             "ITER uses the earliest")
                warned.add(key)
        still_pending = []
        for i, key in pending:
            if key in index:
                o = outcomes[i]
                outcomes[i] = MappingOutcome(o.entry_id, o.term, index[key], Provenance.ITER)
            else:
                still_pending.append((i, key))
        if len(still_pending) == len(pending):
            break
        pending = still_pending
    return outcomes, infos, len(warned)


def iter_records(entries, iter_rounds):
    """map_dictionary's outcomes, INFO messages and the count its WARNING gives."""
    with medlex_records() as records:
        outcomes = map_dictionary(entries, MEMO_SUFFIXES, MEMO_KEYWORDS, MEMO_STOPS, iter_rounds)
    infos = [r.getMessage() for r in records if r.levelno == logging.INFO]
    warnings = [r.getMessage() for r in records if r.levelno == logging.WARNING]
    assert len(warnings) <= 1
    return outcomes, infos, int(warnings[0].split()[0]) if warnings else 0


# Terms most of which draw no vote, so that homographs map by their first
# nouns, which are keywords or terms (ITER chains).
ITER_TERMS = ["kreft", "Kreft", "blodkreft", "noe", "leverkoma", "nevrologi", "lege"]
ITER_NOUNS = ["kreft", "blodkreft", "noe", "leverkoma", "nevrologi", "lege", "sykdom", "behandling"]


@st.composite
def iter_entries(draw):
    """Entries whose term is one of ITER_TERMS and whose definition is one noun of ITER_NOUNS."""
    shared = {noun: Token(noun, "NOUN") for noun in ITER_NOUNS}
    pairs = draw(st.lists(st.tuples(st.sampled_from(ITER_TERMS), st.sampled_from(ITER_NOUNS)), max_size=30))
    return [Entry(f"e{i}", term, (Definition(noun, (shared[noun],)),)) for i, (term, noun) in enumerate(pairs)]


class TestIterIndexBuiltOnce:
    @settings(max_examples=400, deadline=None)
    @given(st.one_of(memo_entries(), iter_entries()), st.integers(0, 4))
    def test_iter_rounds_equal_the_per_round_rebuild(self, entries, iter_rounds):
        assert iter_records(entries, iter_rounds) == reference_iter_rounds(
            entries, MEMO_SUFFIXES, MEMO_KEYWORDS, MEMO_STOPS, iter_rounds)

    def test_an_assignment_before_a_homograph_takes_its_place(self):
        # Pass 0 maps only e4 of the "kreft" entries (PROCEDURE); round 1
        # gives the earlier e0 CONDITION and e2 DISCIPLINE. From round 2 on
        # e0 is the earliest "kreft", and e2, not e4, the first to disagree.
        shared = {pair: Token(*pair) for pair in MEMO_TOKENS}
        entries = [Entry(f"e{i}", term, (Definition(noun, (shared[(noun, "NOUN")],)),))
                   for i, (term, noun) in enumerate([
                       ("kreft", "leverkoma"), ("leverkoma", "noe"), ("Kreft", "nevrologi"),
                       ("nevrologi", "noe"), ("kreft", "behandling"), ("noe", "kreft")])]
        outcomes, infos, warned = iter_records(entries, 2)
        assert (outcomes, infos, warned) == reference_iter_rounds(
            entries, MEMO_SUFFIXES, MEMO_KEYWORDS, MEMO_STOPS, 2)
        assert [o.category for o in outcomes] == [Category.CONDITION, Category.CONDITION, Category.DISCIPLINE,
                                                  Category.DISCIPLINE, Category.PROCEDURE, Category.PROCEDURE]
        assert infos == ["term 'kreft' mapped to both CONDITION and DISCIPLINE; ITER uses the earliest"]
        # After the last round nothing looks the index up, so nothing is logged.
        assert iter_records(entries, 1)[1:] == ([], 0)
