"""Outcome files: the reader and writer against the plain per-row codec
they replaced, and the map -> merge/eval contract on generated inputs."""

from __future__ import annotations

import contextlib
import io
import json
import tempfile
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from medlex.cli import main
from medlex.defaults import default_function_words, default_stops
from medlex.errors import ParseError
from medlex.io import json_field
from medlex.model import (
    STRATEGY_PRIORITY,
    Category,
    MappingOutcome,
    Provenance,
    Vote,
    fold,
    normalize_term,
    parse_category,
)
from medlex.outcomes import read_outcomes, render_outcomes
from medlex.pipeline import build_entries, map_dictionary, read_dictionary_rows, resolve_votes
from medlex.strategies import load_keyword_table, load_suffix_table

# ---------------------------------------------------------------------------
# Oracles: the codec as it was before each distinct (category, provenance,
# votes) text and each distinct vote was parsed once and rows were written
# without json.dumps.


_VOTERS = {strategy.value: strategy for strategy in STRATEGY_PRIORITY}


def oracle_parse_votes(text):
    votes = []
    if not text:
        return ()
    for part in text.split(";"):
        fields = part.split(":")
        if len(fields) != 4 or fields[0] not in _VOTERS:
            raise ValueError(f"bad vote serialization: {part!r}")
        strategy, category, trigger, pos = fields
        voter, category = _VOTERS[strategy], parse_category(category)
        if pos != "-" and (not pos or any(ch not in "0123456789" for ch in pos)):
            raise ValueError(f"bad vote serialization: {part!r}")
        votes.append(Vote(voter, category, trigger, None if pos == "-" else int(pos)))
    return tuple(votes)


def oracle_json_object(line):
    try:
        obj = json.loads(line)
    except (ValueError, RecursionError) as exc:
        raise ValueError(f"bad JSON: {exc}") from None
    if not isinstance(obj, dict):
        raise ValueError(f"expected a JSON object, got {type(obj).__name__}")
    return obj


def oracle_read(path):
    p = Path(path)
    # utf-8-sig drops one byte-order mark at the start, as the reader does.
    text = p.read_bytes().decode("utf-8-sig")
    lines = text.replace("\r\n", "\n").replace("\r", "\n").split("\n")
    lines = lines[:-1] if lines[-1] == "" else lines
    use = "jsonl" if p.suffix == ".jsonl" else "tsv"
    outcomes = []
    seen = set()
    for lineno, raw in enumerate(lines, start=1):
        # A TSV line with a tab is a row, even when its columns are blank.
        if not raw.strip() and (use == "jsonl" or "\t" not in raw):
            continue
        try:
            if use == "jsonl":
                obj = oracle_json_object(raw)
                entry_id, term = str(json_field(obj, "id", str, int)), json_field(obj, "term", str)
                # As in a dictionary: the TSV outcome and lexicon rows hold
                # both, so they are checked before any other field is read.
                for what, text in (("ids", entry_id), ("terms", term)):
                    if "\t" in text or "\n" in text or "\r" in text:
                        raise ValueError(f"{what} must not contain tabs or newlines")
            else:
                if lineno == 1 and raw.split("\t")[:2] == ["id", "term"]:
                    continue
                cols = raw.split("\t")
                if len(cols) != 5:
                    raise ValueError(f"expected 5 tab-separated columns, got {len(cols)}")
                entry_id, term = cols[:2]
            if not term.strip():
                raise ValueError("empty term")
            if not entry_id.strip():
                raise ValueError("missing entry id")
            if use == "jsonl":
                # Each value must have its JSON type: category a string or
                # null, provenance a string, votes a string; only category and
                # votes may be absent.
                category = json_field(obj, "category", str, optional=True) or ""
                provenance = json_field(obj, "provenance", str)
                votes = json_field(obj, "votes", str) if "votes" in obj else ""
            else:
                category, provenance, votes = cols[2:]
            category = parse_category(category) if category else None
            if provenance not in Provenance.__members__:
                raise ValueError(f"unknown provenance {provenance!r}")
            outcome = MappingOutcome(entry_id, term, category, Provenance[provenance], oracle_parse_votes(votes))
            outcome.validate()
            if entry_id in seen:
                raise ValueError(f"duplicate entry id {entry_id!r}")
        except ValueError as exc:
            raise ParseError(f"bad outcome row: {exc}", str(p), lineno) from None
        seen.add(entry_id)
        outcomes.append(outcome)
    return outcomes


def oracle_format_votes(votes):
    parts = []
    for strategy, category, trigger, position in votes:
        pos = "-" if position is None else str(position)
        parts.append(f"{strategy}:{category}:{trigger}:{pos}")
    return ";".join(parts)


def oracle_render(outcomes, fmt="tsv"):
    lines = []
    if fmt == "jsonl":
        for o in outcomes:
            obj = {
                "id": o.entry_id,
                "term": o.term,
                "category": str(o.category) if o.category else None,
                "provenance": str(o.provenance),
                "votes": oracle_format_votes(o.votes),
            }
            lines.append(json.dumps(obj, ensure_ascii=False))
        # No outcomes give an empty file, not one blank line.
        if not lines:
            return ""
    else:
        lines.append("\t".join(("id", "term", "category", "provenance", "votes")))
        for o in outcomes:
            lines.append("\t".join((o.entry_id, o.term, str(o.category) if o.category else "",
                                    str(o.provenance), oracle_format_votes(o.votes))))
    return "\n".join(lines) + "\n"


OUTCOME_KEYS = ("id", "term", "category", "provenance", "votes")


def fields(outcomes):
    return [(o.entry_id, o.term, o.category, o.provenance, o.votes) for o in outcomes]


def outcome_or_error(read, path):
    try:
        return fields(read(path))
    except ParseError as exc:
        return f"ParseError: {exc}"


def both_readers(path):
    """The reader's result next to the oracle's: rows, or the error text."""
    return outcome_or_error(read_outcomes, path), outcome_or_error(oracle_read, path)


# ---------------------------------------------------------------------------
# Generated outcome rows

# Non-ASCII text, JSON's escaped characters and line separators other than
# CR and LF, which neither format breaks lines at.
AWKWARD = ['"', "\\", "\x00", "\x1f", "\x7f", "\u2028", "\u2029", "\x85", "å", "ø", "é", "\u0301",
           "\U0001f600", "/", "<", " ", "\t"]
TEXT = st.text(alphabet=st.one_of(st.characters(exclude_categories=("Cs",)), st.sampled_from(AWKWARD)),
               max_size=8)
# What an id or term may hold: the reader refuses a tab, CR or LF.
TAB_FREE = TEXT.map(lambda text: text.translate({9: " ", 10: " ", 13: " "}))
# Few distinct ids, so duplicates come up.
IDS = st.one_of(st.sampled_from(["e1", "e2", "e3", "7"]), TEXT)
TRIGGERS = st.one_of(st.sampled_from(["sykdom", "emi", "blå"]),
                     st.text(alphabet=st.characters(exclude_categories=("Cs",),
                                                    exclude_characters=":;\t\r\n"),
                             min_size=1, max_size=6))
CATEGORIES = st.sampled_from([c for c in Category if c is not Category.OTHER])
POSITIONS = st.one_of(st.none(), st.integers(0, 30))
VOTE = st.builds(Vote, st.sampled_from(list(STRATEGY_PRIORITY)), CATEGORIES, TRIGGERS, POSITIONS)


# The values of each field of a vote one file's rows share.
POOL_FIELDS = (
    st.sampled_from(list(STRATEGY_PRIORITY)),
    st.sampled_from([Category.TOOL, Category.CONDITION]),
    st.sampled_from(["kniv", "emi"]),
    st.sampled_from([None, 3]),
)


@st.composite
def vote_pool(draw):
    """Votes for one file's rows to share: a vote and, for each of its
    fields, the vote with that field changed, so that votes differing in
    one field only come up in one file."""
    first = [draw(values) for values in POOL_FIELDS]
    pool = [Vote(*first)]
    for i, values in enumerate(POOL_FIELDS):
        changed = list(first)
        changed[i] = draw(values.filter(lambda value, old=first[i]: value != old))
        pool.append(Vote(*changed))
    return draw(st.permutations(pool))


@st.composite
def valid_outcomes(draw, id_text=IDS, term_text=TEXT, pool=None):
    """An outcome that passes validate(): resolved votes, ITER or UNMAPPED;
    with a ``pool``, its votes come from the pool."""
    term = draw(term_text.filter(str.strip))
    kind = draw(st.sampled_from(["votes", "votes", "iter", "unmapped"]))
    if kind == "iter":
        return MappingOutcome(draw(id_text), term, draw(CATEGORIES), Provenance.ITER)
    if pool is None:
        strategies = draw(st.lists(st.sampled_from(list(STRATEGY_PRIORITY)), unique=True, max_size=3))
        votes = tuple(Vote(s, draw(CATEGORIES), draw(TRIGGERS), draw(POSITIONS)) for s in strategies)
    else:
        votes = tuple(draw(st.lists(st.sampled_from(pool), min_size=1, max_size=3,
                                    unique_by=lambda v: v.strategy)))
    if kind == "unmapped":
        votes = ()
    category, provenance = resolve_votes(votes)
    return MappingOutcome(draw(id_text), term, category, provenance, votes)


CATEGORY_TEXT = st.sampled_from(["CONDITION", "TOOL", "microorganism", "ANAT-LOC", " PERSON ",
                                 "OTHER", "", " ", "BOGUS"])
PROVENANCE_TEXT = st.sampled_from([p.name for p in Provenance] + ["multi", "BOGUS", ""])
BAD_PART = st.sampled_from(["KW_1N:OTHER:x:-", "SUFF:TOOL:kniv:x", "SUFF:TOOL", "SUFF:TOOL:a:b:c",
                            "BOGUS:TOOL:kniv:-", "SUFF:BOGUS:kniv:-", "", ":::", "SUFF:TOOL:kniv:1_0",
                            "SUFF:TOOL:kniv:-3", "SUFF:TOOL:kniv:\u0663", "SUFF:TOOL:kniv:}-"])
VOTE_PART = st.one_of(
    st.builds(lambda v: oracle_format_votes([v]), VOTE),
    st.sampled_from(["SUFF:TOOL:kniv:-", "KW_E:CONDITION:sykdom:3", "SUFF:TOOL:kniv: 4"]),
    BAD_PART,
)


@st.composite
def row_texts(draw, pool, parts):
    """(id, term, category, provenance, votes) texts of one row: mostly
    those of a valid outcome, half of them with votes from ``pool``, the
    file's votes; some drawn at random, so that validate() fails for MULTI,
    ITER and winning-strategy mismatches. A random row's votes come from
    ``parts``, the file's vote texts, and some end in a bad vote after
    votes that parse."""
    kind = draw(st.integers(0, 5))
    if kind < 4:
        o = draw(valid_outcomes(pool=pool if kind % 2 else None))
        return [o.entry_id, o.term, str(o.category) if o.category else "", str(o.provenance),
                oracle_format_votes(o.votes)]
    votes = draw(st.lists(st.sampled_from(parts), max_size=3))
    if kind == 5:
        votes.append(draw(BAD_PART))
    return [draw(IDS), draw(st.one_of(TEXT, st.sampled_from(["", " ", "\u2028"]))), draw(CATEGORY_TEXT),
            draw(PROVENANCE_TEXT), ";".join(votes)]


@st.composite
def file_votes(draw):
    """The pool of votes one file's rows share, and their texts with a few
    other vote texts, some bad."""
    pool = draw(vote_pool())
    return pool, [oracle_format_votes([v]) for v in pool] + draw(st.lists(VOTE_PART, max_size=2))


@st.composite
def tsv_lines(draw):
    lines = []
    if draw(st.booleans()):
        # A header on line 1 is skipped whatever its column count.
        lines.append("\t".join(OUTCOME_KEYS[: draw(st.integers(2, 5))]))
    pool, parts = draw(file_votes())
    for _ in range(draw(st.integers(0, 8))):
        kind = draw(st.integers(0, 9))
        cols = draw(row_texts(pool, parts))
        if kind == 0:
            cols = cols[: draw(st.integers(0, 4))] + ([] if draw(st.booleans()) else ["x", "y"])
        if kind == 1:
            # A line of tabs and spaces is a row with blank columns, not a blank line.
            lines.append(draw(st.sampled_from(["", "   ", "\t \t\t\t", " \t", "id\tterm\tcategory\tprovenance\tvotes"])))
            continue
        lines.append("\t".join(cols))
    return lines


@st.composite
def jsonl_lines(draw):
    lines = []
    pool, parts = draw(file_votes())
    for _ in range(draw(st.integers(0, 8))):
        kind = draw(st.integers(0, 11))
        entry_id, term, category, provenance, votes = draw(row_texts(pool, parts))
        obj = {"id": entry_id, "term": term, "category": category or None,
               "provenance": provenance, "votes": votes}
        if kind == 0:
            key = draw(st.sampled_from(sorted(obj)))
            obj[key] = draw(st.sampled_from([None, 7, 0, True, [], {}, "", 1.5]))
        if kind == 1:
            del obj[draw(st.sampled_from(sorted(obj)))]
        if kind == 2:
            lines.append(draw(st.sampled_from(
                ["", "  ", "[]", "1", "null", '"x"', "{", '{"id": "a"', "\ufeff{}", '{"id": "a"} x',
                 '{"id": "a", "term": "b", "provenance": "ITER", "category": "TOOL"}  '])))
            continue
        items = list(obj.items())
        if kind == 3:
            items = draw(st.permutations(items))
        line = json.dumps(dict(items), ensure_ascii=draw(st.booleans()))
        if kind == 7:
            # The writer's form but for one detail: the row is decoded, not
            # matched, and reads as the oracle reads it.
            line = draw(st.sampled_from([
                json.dumps(obj, separators=(",", ":")),
                json.dumps(obj, separators=(", ", ":")),
                json.dumps(obj, ensure_ascii=False).replace('", "', '",  "', 1),
                json.dumps(obj, ensure_ascii=False)[:-1] + f', "term": {json.dumps(draw(TEXT))}}}',
                json.dumps(obj, ensure_ascii=False)[:-1] + ', "note": ""}',
                json.dumps(obj, ensure_ascii=False).replace('"id"', '"\\u0069d"', 1),
                json.dumps({**obj, "id": draw(st.integers(0, 30))}, ensure_ascii=False),
                json.dumps({**obj, draw(st.sampled_from(sorted(obj))): None}, ensure_ascii=False),
                json.dumps(obj, ensure_ascii=False).replace(': "', ': "\\/', 1),
            ]))
        if kind == 4:
            line = draw(st.sampled_from([" ", "\t", ""])) + line
        if kind == 5:
            # A row split over two lines must not parse.
            cut = draw(st.integers(1, len(line) - 1))
            lines += [line[:cut], line[cut:]]
            continue
        if kind == 6:
            # Text after the object: whitespace is allowed, anything else not.
            line += draw(st.sampled_from([" ", "\t ", " x", "{}", "]", ",", "0"]))
        lines.append(line)
    return lines


def write_and_compare(suffix, lines, end):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / f"mapped{suffix}"
        path.write_bytes("".join(line + end for line in lines).encode("utf-8"))
        got, want = both_readers(path)
    assert got == want
    return got


class TestReaderAgainstOracle:
    @settings(max_examples=300, deadline=None)
    @given(tsv_lines(), st.sampled_from(["\n", "\r\n", "\r"]))
    # A header that ends in CR LF, and a file of CR line ends.
    @example(["id\tterm\tcategory\tprovenance\tvotes", "e1\tt\tTOOL\tITER\t"], "\r\n")
    @example(["id\tterm", "", "e1\tt\tTOOL\tITER\t", "e2\tu\t\tUNMAPPED\t"], "\r")
    def test_tsv(self, lines, end):
        write_and_compare(".tsv", lines, end)

    @settings(max_examples=300, deadline=None)
    @given(jsonl_lines(), st.sampled_from(["\n", "\r\n"]))
    def test_jsonl(self, lines, end):
        write_and_compare(".jsonl", lines, end)

    @settings(max_examples=200, deadline=None)
    @given(st.data(), st.sampled_from(["tsv", "jsonl"]))
    def test_rows_sharing_votes(self, data, fmt):
        # Valid rows whose votes come from one small pool, each pool vote
        # alone and others next to each other, so that each vote text comes
        # up again; some files end in a row with a bad vote after votes
        # that parse.
        pool, parts = data.draw(file_votes())
        alone = [MappingOutcome("", "t", v.category, v.strategy, (v,)) for v in pool]
        outcomes = alone + data.draw(st.lists(valid_outcomes(IDS, TAB_FREE, pool=pool), max_size=6))
        outcomes = [o._replace(entry_id=f"e{i}") for i, o in enumerate(data.draw(st.permutations(outcomes)))]
        lines = oracle_render(outcomes, fmt).split("\n")[:-1]
        bad = data.draw(st.booleans())
        if bad:
            votes = ";".join([*data.draw(st.lists(st.sampled_from(parts), max_size=2)), data.draw(BAD_PART)])
            row = ["bad", "t", "TOOL", "SUFF", votes]
            lines.append("\t".join(row) if fmt == "tsv" else json.dumps(dict(zip(OUTCOME_KEYS, row))))
        got = write_and_compare(f".{fmt}", lines, "\n")
        if not bad:
            assert got == fields(outcomes)

    @pytest.mark.parametrize(
        ("suffix", "lines", "error"),
        [
            (".tsv", ["e1\tt\tBOGUS\tKW_E\t"], "2: bad outcome row: unknown category label: 'BOGUS'"),
            (".tsv", ["e1\tt\tTOOL\tBOGUS\t"], "2: bad outcome row: unknown provenance 'BOGUS'"),
            (".tsv", ["e1\tt\tTOOL\tSUFF\tSUFF:TOOL:x"],
             "2: bad outcome row: bad vote serialization: 'SUFF:TOOL:x'"),
            (".tsv", ["e1\tt\tTOOL\tSUFF\tSUFF:TOOL:x:y"],
             "2: bad outcome row: bad vote serialization: 'SUFF:TOOL:x:y'"),
            (".tsv", ["e1\tt\tTOOL\tMULTI\tSUFF:TOOL:x:-"],
             "2: bad outcome row: e1: votes resolve to TOOL SUFF, not TOOL MULTI"),
            (".tsv", ["e1\tt\tTOOL\tMULTI\tSUFF:TOOL:x:-;KW_E:SERVICE:y:1"],
             "2: bad outcome row: e1: votes resolve to TOOL SUFF, not TOOL MULTI"),
            (".tsv", ["e1\tt\tTOOL\tITER\tSUFF:TOOL:x:-"],
             "2: bad outcome row: e1: an ITER outcome has a category and no votes"),
            (".tsv", ["e1\tt\tTOOL\tKW_E\tSUFF:TOOL:x:-"],
             "2: bad outcome row: e1: votes resolve to TOOL SUFF, not TOOL KW_E"),
            (".tsv", ["e1\tt\t\tSUFF\tSUFF:TOOL:x:-"],
             "2: bad outcome row: e1: votes resolve to TOOL SUFF, not (none) SUFF"),
            (".tsv", ["e1\t \tTOOL\tITER\t"], "2: bad outcome row: empty term"),
            (".tsv", ["e1\tt\tTOOL\tITER"], "2: bad outcome row: expected 5 tab-separated columns, got 4"),
            (".tsv", ["e1\tt\tTOOL\tITER\t", "e1\tu\tTOOL\tITER\t"], "3: bad outcome row: duplicate entry id 'e1'"),
            (".tsv", ["e1\tt\tTOOL\tITER\t", "e2\tu\tTOOL\tITER\t", "e2\tu\tTOOL\tMULTI\t"],
             "4: bad outcome row: e2: votes resolve to (none) UNMAPPED, not TOOL MULTI"),
            (".jsonl", ['{"id": "e1", "term": "t", "category": "TOOL", "provenance": "ITER"}',
                        '{"id": "e2", "term": "t"'], "2: bad outcome row: bad JSON: Expecting ',' delimiter"),
            (".jsonl", ['{"id": "e1",', '"term": "t", "provenance": "ITER", "category": "TOOL"}'],
             "1: bad outcome row: bad JSON: Expecting property name enclosed in double quotes"),
            (".jsonl", ['{"id": "e1", "term": "t", "provenance": "ITER", "category": "TOOL"} x'],
             "1: bad outcome row: bad JSON: Extra data"),
            (".jsonl", ['{"id": "e1", "term": "t", "provenance": "ITER", "category": "TOOL"}{}'],
             "1: bad outcome row: bad JSON: Extra data"),
            # The reader drops one byte-order mark at the start of the file, not two.
            (".jsonl", ['\ufeff\ufeff{"id": "e1", "term": "t", "provenance": "ITER", "category": "TOOL"}'],
             "1: bad outcome row: bad JSON: Unexpected UTF-8 BOM"),
            (".jsonl", ["[1]"], "1: bad outcome row: expected a JSON object, got list"),
            (".jsonl", ['{"id": null, "term": "t"}'],
             '1: bad outcome row: "id" must be a JSON string or integer, not null'),
            (".jsonl", ['{"id": "e1", "term": 5}'],
             '1: bad outcome row: "term" must be a JSON string, not int'),
            (".jsonl", ['{"id": "e1", "term": "t", "category": "TOOL"}'],
             '1: bad outcome row: "provenance" is missing'),
            (".jsonl", ['{"id": "e1", "term": "t", "provenance": "UNMAPPED", "votes": null}'],
             '1: bad outcome row: "votes" must be a JSON string, not null'),
            (".tsv", ["e1\tt\tTOOL\tMULTI\tMULTI:TOOL:x:-;SUFF:TOOL:y:-"],
             "2: bad outcome row: bad vote serialization: 'MULTI:TOOL:x:-'"),
            (".tsv", ["e1\tt\tTOOL\tSUFF\tSUFF:TOOL:x:-;ITER:TOOL:y:-"],
             "2: bad outcome row: bad vote serialization: 'ITER:TOOL:y:-'"),
            (".tsv", ["e1\tt\t\tUNMAPPED\tUNMAPPED:TOOL:x:-"],
             "2: bad outcome row: bad vote serialization: 'UNMAPPED:TOOL:x:-'"),
            (".jsonl", ['{"id": "e1", "term": "a\\tb", "category": "TOOL", "provenance": "ITER"}'],
             "1: bad outcome row: terms must not contain tabs or newlines"),
            # A value of another JSON type is refused, not turned into text.
            (".jsonl", ['{"id": "e1", "term": "t", "category": false, "provenance": "UNMAPPED", "votes": ""}'],
             '1: bad outcome row: "category" must be a JSON string, not bool'),
            (".jsonl", ['{"id": "e1", "term": "t", "category": 0, "provenance": "UNMAPPED"}'],
             '1: bad outcome row: "category" must be a JSON string, not int'),
            (".jsonl", ['{"id": "e1", "term": "t", "category": "TOOL", "provenance": ["ITER"]}'],
             '1: bad outcome row: "provenance" must be a JSON string, not list'),
            (".jsonl", ['{"id": "e1", "term": "t", "category": "TOOL", "provenance": null}'],
             '1: bad outcome row: "provenance" must be a JSON string, not null'),
            (".jsonl", ['{"id": "e1", "term": "t", "category": "CONDITION", "provenance": "SUFF", '
                        '"votes": ["SUFF:CONDITION:te:-"]}'],
             '1: bad outcome row: "votes" must be a JSON string, not list'),
            (".tsv", ["e1\tt\tTOOL\tITER\t", "\t \t\t\t"], "3: bad outcome row: empty term"),
            (".tsv", [" \t"], "2: bad outcome row: expected 5 tab-separated columns, got 2"),
            (".tsv", ["\tblodtrykk\t\tUNMAPPED\t"], "2: bad outcome row: missing entry id"),
            (".tsv", ["e1\tt\tTOOL\tITER\t", " \tblodtrykk\t\tUNMAPPED\t"], "3: bad outcome row: missing entry id"),
            (".jsonl", ['{"id": "", "term": "blodtrykk", "category": null, "provenance": "UNMAPPED", "votes": ""}'],
             "1: bad outcome row: missing entry id"),
            # A bad vote after one that parsed in an earlier row.
            (".tsv", ["e1\tt\tTOOL\tSUFF\tSUFF:TOOL:kniv:-",
                      "e2\tt\tTOOL\tMULTI\tSUFF:TOOL:kniv:-;KW_E:TOOL:kniv:x"],
             "3: bad outcome row: bad vote serialization: 'KW_E:TOOL:kniv:x'"),
            (".tsv", ["e1\tt\tTOOL\tSUFF\tSUFF:TOOL:kniv:-;BOGUS:TOOL:kniv:-",
                      "e2\tt\tTOOL\tSUFF\tSUFF:TOOL:kniv:-"],
             "2: bad outcome row: bad vote serialization: 'BOGUS:TOOL:kniv:-'"),
            # The writer's keys and spacing, with null where a string belongs.
            (".jsonl", ['{"id": null, "term": "t", "category": null, "provenance": "UNMAPPED", "votes": ""}'],
             '1: bad outcome row: "id" must be a JSON string or integer, not null'),
            (".jsonl", ['{"id": "e1", "term": null, "category": null, "provenance": "UNMAPPED", "votes": ""}'],
             '1: bad outcome row: "term" must be a JSON string, not null'),
            (".jsonl", ['{"id": "e1", "term": "t", "category": null, "provenance": null, "votes": ""}'],
             '1: bad outcome row: "provenance" must be a JSON string, not null'),
            (".jsonl", ['{"id": "e1", "term": "t", "category": null, "provenance": "UNMAPPED", "votes": null}'],
             '1: bad outcome row: "votes" must be a JSON string, not null'),
        ],
    )
    def test_bad_rows_fail_as_before(self, suffix, lines, error):
        if suffix == ".tsv":
            lines = ["id\tterm\tcategory\tprovenance\tvotes", *lines]
        got = write_and_compare(suffix, lines, "\n")
        assert got.startswith("ParseError: ") and f"mapped{suffix}:{error}" in got

    def test_whitespace_around_a_json_row_is_allowed(self):
        row = '{"id": "e1", "term": "t", "provenance": "ITER", "category": "TOOL"}'
        got = write_and_compare(".jsonl", [f" {row}", f"\t{row.replace('e1', 'e2')} \t"], "\n")
        assert [o[0] for o in got] == ["e1", "e2"]

    def test_repeated_texts_give_equal_outcomes(self, tmp_path):
        row = "\tTOOL\tMULTI\tSUFF:TOOL:kniv:-;KW_1N:TOOL:kniv:-"
        path = tmp_path / "mapped.tsv"
        path.write_text("".join(f"e{i}\tterm {i}{row}\n" for i in range(3)), encoding="utf-8")
        got = read_outcomes(path)
        assert got == oracle_read(path)
        assert [o.entry_id for o in got] == ["e0", "e1", "e2"]
        assert [o.term for o in got] == ["term 0", "term 1", "term 2"]


class TestWriterAgainstOracle:
    @settings(max_examples=300, deadline=None)
    @given(st.lists(valid_outcomes(), max_size=6))
    def test_render_is_byte_identical(self, outcomes):
        for fmt in ("tsv", "jsonl"):
            assert render_outcomes(outcomes, fmt) == oracle_render(outcomes, fmt)

    @settings(max_examples=200, deadline=None)
    @given(st.lists(valid_outcomes(TAB_FREE.filter(str.strip), TAB_FREE), max_size=6,
                    unique_by=lambda o: o.entry_id))
    def test_jsonl_round_trip_keeps_every_field(self, outcomes):
        # JSON escapes the other line separators and control characters, so
        # any non-blank id and any term without a tab, CR or LF survive.
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "mapped.jsonl"
            path.write_text(render_outcomes(outcomes, "jsonl"), encoding="utf-8")
            assert read_outcomes(path) == outcomes

    def test_jsonl_row_shape(self):
        outcomes = [
            MappingOutcome("e\"1", "blå\u2028\\", None, Provenance.UNMAPPED),
            MappingOutcome("e2", "x", Category.TOOL, Provenance.KW_1N,
                           (Vote(Provenance.KW_1N, Category.TOOL, "kniv", 3),)),
        ]
        assert render_outcomes(outcomes, "jsonl") == (
            '{"id": "e\\"1", "term": "blå\u2028\\\\", "category": null, "provenance": "UNMAPPED", '
            '"votes": ""}\n'
            '{"id": "e2", "term": "x", "category": "TOOL", "provenance": "KW_1N", '
            '"votes": "KW_1N:TOOL:kniv:3"}\n'
        )


# ---------------------------------------------------------------------------
# What map writes, merge and eval read

# Nouns the tables can hold, and other words: function words, stop nouns
# and awkward text. Triggers with ':' or ';' are refused at table parse.
NOUNS = ["sykdom", "lege", "kniv", "blodet", "blåsebelg", "bla\u030asebelg", "leukemi", "Sykdom",
         "røde", "kors"]
WORDS = st.sampled_from(NOUNS + ["i", "av", "med", "til", "form", "a:b", "x;y", "\u2028", '"q"', "b\\s"])
DEFINITION = st.builds(lambda first, rest: " ".join([first, *rest]).strip(),
                       st.sampled_from(NOUNS + ["form av", "i", ""]), st.lists(WORDS, max_size=3))
TERM = st.one_of(st.sampled_from(NOUNS), st.builds(" ".join, st.lists(WORDS, min_size=1, max_size=2)))
ENTRY_IDS = st.sampled_from([f"e{i}" for i in range(12)] + ['a"b', "å\u2028", "x:y;z", "b\\s", "7", 7])


@st.composite
def map_inputs(draw):
    """Keyword and suffix tables and a dictionary, in either format, with
    homographs, synonym chains and entries ITER can reach."""
    keywords = draw(st.lists(st.tuples(st.sampled_from(NOUNS), CATEGORIES), min_size=2, max_size=8,
                             unique_by=lambda r: fold(r[0])))
    suffixes = draw(st.lists(st.tuples(st.sampled_from(["emi", "oma", "ose", "lege", "belg"]), CATEGORIES),
                             max_size=3, unique_by=lambda r: r[0]))
    dict_fmt = draw(st.sampled_from(["tsv", "jsonl"]))
    ids = draw(st.lists(ENTRY_IDS, min_size=1, max_size=12, unique_by=str))
    if dict_fmt == "tsv":
        ids = [str(i) for i in ids]
    rows = []
    for i, entry_id in enumerate(ids):
        # Synonyms point back, so chains end.
        synonym_of = str(draw(st.sampled_from(ids[:i]))) if i and draw(st.integers(0, 4)) == 0 else None
        definition = "" if synonym_of else draw(DEFINITION)
        rows.append((entry_id, draw(TERM), definition, synonym_of))
    out_fmt = draw(st.sampled_from(["tsv", "jsonl"]))
    return keywords, suffixes, rows, dict_fmt, out_fmt, draw(st.integers(0, 3))


def run_quietly(argv):
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()) as err:
        code = main(argv)
    return code, err.getvalue()


@settings(max_examples=80, deadline=None)
@given(map_inputs())
def test_what_map_writes_merge_and_eval_read(inputs):
    keywords, suffixes, rows, dict_fmt, out_fmt, iter_rounds = inputs
    with tempfile.TemporaryDirectory() as tmp:
        d = Path(tmp)
        (d / "kw.tsv").write_text("".join(f"{k}\t{c}\n" for k, c in keywords), encoding="utf-8")
        (d / "suf.tsv").write_text("".join(f"-{s}\t{c}\n" for s, c in suffixes), encoding="utf-8")
        dict_file = d / f"dict.{dict_fmt}"
        if dict_fmt == "tsv":
            lines = ["\t".join([i, t, df] + ([s] if s else [])) for i, t, df, s in rows]
        else:
            lines = [json.dumps({"id": i, "term": t, "definition": df, "synonym_of": s})
                     for i, t, df, s in rows]
        dict_file.write_text("".join(line + "\n" for line in lines), encoding="utf-8")
        mapped = str(d / f"mapped.{out_fmt}")
        code, err = run_quietly(["map", "--dict", str(dict_file), "--keywords", str(d / "kw.tsv"),
                                 "--suffixes", str(d / "suf.tsv"), "--iter", str(iter_rounds),
                                 "--out", mapped, "--lax"])
        if code != 0:
            assert code in (2, 3) and "Traceback" not in err
            return
        # The outcomes map computed, through the library calls cmd_map makes.
        entries, _ = build_entries(read_dictionary_rows(dict_file), None, default_function_words())
        in_memory = map_dictionary(
            entries,
            load_suffix_table(d / "suf.tsv"),
            load_keyword_table(d / "kw.tsv"),
            default_stops(),
            iter_rounds,
        )
        outcomes = read_outcomes(mapped)
        assert outcomes == in_memory

        (d / "res.tsv").write_text("sykdom\tCONDITION\nkniv\tTOOL\n", encoding="utf-8")
        (d / "manifest.json").write_text(json.dumps([{
            "name": "RES", "file": "res.tsv", "mode": "PER_ENTRY", "trust_rank": 1,
            "layout": {"term": 0, "category": 1}}]), encoding="utf-8")
        predicted = {}
        for o in outcomes:
            if o.category is not None:
                predicted.setdefault(normalize_term(o.term), (o.term, o.category))
        # Every gold term has a prediction; a line starting with '#' is a comment.
        gold = [f"{term}\t{category}\n" for term, category in predicted.values()
                if not term.lstrip().startswith("#")]
        (d / "gold.tsv").write_text("".join(gold), encoding="utf-8")
        manifest = str(d / "manifest.json")
        for argv in (
            ["merge", "--manifest", manifest, "--mapped", mapped, "--out", str(d / "lex.tsv")],
            ["merge", "--manifest", manifest, "--mapped", mapped, "--lowercase",
             "--out", str(d / "lex.jsonl")],
            ["eval", "overlap", "--mapped", mapped, "--manifest", manifest],
            ["eval", "gold", "--gold", str(d / "gold.tsv"), "--mapped", mapped],
            ["eval", "sample", "--mapped", mapped, "--quota", "2", "--seed", "1"],
        ):
            code, err = run_quietly(argv)
            assert code == 0, (argv, err)
