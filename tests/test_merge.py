from __future__ import annotations

import json
import logging
import re
import tempfile
import unicodedata
from contextlib import redirect_stderr, redirect_stdout
from io import StringIO
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from medlex.cli import main
from medlex.errors import MedlexError, MergeConflictError, ParseError
from medlex.io import read_text, split_lines
from medlex.merge import (
    ChapterRule,
    Correction,
    IngestResult,
    ResourceMode,
    ResourceSpec,
    SourceRecord,
    export_lexicon,
    format_merge_report,
    ingest_resource,
    load_manifest,
    mapped_records,
    mapped_source,
    merge_lexicons,
    merge_sources,
    render_lexicon,
    resource_rows,
    resource_source,
)
from medlex.merge import _route_chapter
from medlex.model import (
    Category,
    LexiconRecord,
    MappingOutcome,
    Provenance,
    Vote,
    normalize_term,
    parse_category,
)
from medlex.outcomes import read_outcomes, write_outcomes


def fixed_spec(tmp_path, rows, name="RES", category="SUBSTANCE", rank=1):
    path = tmp_path / f"{name.lower()}.tsv"
    path.write_text("\n".join(rows) + "\n", encoding="utf-8")
    return ResourceSpec(
        name=name,
        file=str(path),
        mode=ResourceMode.FIXED,
        trust_rank=rank,
        category=Category[category],
    )


def source(*rows, name="RES", rank=1):
    """A source for ``merge_sources`` holding the (term, category) ``rows``;
    a row's provenance is the source's name."""
    return name, rank, [(term, category, name) for term, category in rows]


def lexicon_of(mapped, resources, lowercase=True):
    """``merge_sources``, its rows named by ``LexiconRecord``."""
    rows, report = merge_sources(mapped, resources, lowercase)
    return list(map(LexiconRecord._make, rows)), report


def counts(rows):
    """(ingested, kept, excluded) of ``resource_rows``' rows."""
    excluded = sum(category is None for _, category in rows)
    return len(rows), len(rows) - excluded, excluded


class TestIngestResource:
    def test_fixed_assigns_spec_category_to_every_row(self, tmp_path):
        spec = fixed_spec(tmp_path, ["aspartam", "insulin", "glukose"])
        rows = list(resource_rows(spec))
        assert [category for _, category in rows] == [Category.SUBSTANCE] * 3
        assert counts(rows) == (3, 3, 0)

    def test_chaptered_routes_and_excludes(self, tmp_path):
        path = tmp_path / "c.tsv"
        path.write_text(
            "blodtrykksmåling\tProcedure codes\n"
            "lav inntekt\tSocial problems\n"
            "feber\tGeneral\n",
            encoding="utf-8",
        )
        spec = ResourceSpec(
            name="ICPC-2",
            file=str(path),
            mode=ResourceMode.CHAPTERED,
            trust_rank=1,
            chapter_rules=(
                ChapterRule("Procedure codes", Category.PROCEDURE),
                ChapterRule("Social problems", None),
            ),
            chapter_default=Category.CONDITION,
        )
        rows = list(resource_rows(spec))
        categories = {term: category for term, category in rows if category is not None}
        assert categories == {
            "blodtrykksmåling": Category.PROCEDURE,
            "feber": Category.CONDITION,
        }
        assert counts(rows) == (3, 2, 1)

    def test_per_entry_reads_category_column(self, tmp_path):
        path = tmp_path / "aloc.tsv"
        path.write_text("tracheostomi\tPROCEDURE\n", encoding="utf-8")
        spec = ResourceSpec(
            name="ALOC", file=str(path), mode=ResourceMode.PER_ENTRY, trust_rank=1
        )
        assert next(resource_rows(spec))[1] is Category.PROCEDURE

    def test_per_entry_unknown_category_names_row(self, tmp_path):
        path = tmp_path / "aloc.tsv"
        path.write_text("god term\tANAT-LOC\nvond term\tukjent\n", encoding="utf-8")
        spec = ResourceSpec(
            name="ALOC", file=str(path), mode=ResourceMode.PER_ENTRY, trust_rank=1
        )
        with pytest.raises(ParseError) as exc_info:
            list(resource_rows(spec))
        assert exc_info.value.line == 2

    def test_unmatched_chapter_without_default_rejected(self, tmp_path):
        path = tmp_path / "c.tsv"
        path.write_text("feber\tUkjent kapittel\n", encoding="utf-8")
        spec = ResourceSpec(
            name="X",
            file=str(path),
            mode=ResourceMode.CHAPTERED,
            trust_rank=1,
            chapter_rules=(ChapterRule("Procedure codes", Category.PROCEDURE),),
        )
        with pytest.raises(ParseError, match="no default"):
            list(resource_rows(spec))

    def test_chapter_match_is_case_insensitive(self, tmp_path):
        path = tmp_path / "c.tsv"
        path.write_text("x\tprocedure CODES\n", encoding="utf-8")
        spec = ResourceSpec(
            name="X",
            file=str(path),
            mode=ResourceMode.CHAPTERED,
            trust_rank=1,
            chapter_rules=(ChapterRule("Procedure codes", Category.PROCEDURE),),
        )
        assert next(resource_rows(spec))[1] is Category.PROCEDURE

    def test_fixed_spec_requires_category(self, tmp_path):
        with pytest.raises(ValueError, match="category"):
            ResourceSpec(name="X", file="x.tsv", mode=ResourceMode.FIXED, trust_rank=1)

    def test_empty_term_rejected(self, tmp_path):
        path = tmp_path / "r.tsv"
        path.write_text("ok\tA10\n \tB20\n", encoding="utf-8")
        spec = ResourceSpec(
            name="R",
            file=str(path),
            mode=ResourceMode.FIXED,
            trust_rank=1,
            category=Category.CONDITION,
            layout={"term": 0, "code": 1},
        )
        with pytest.raises(ParseError, match="empty term"):
            list(resource_rows(spec))


def reference_ingest(spec, base_dir):
    """``resource_rows`` as a list, as it was before it resolved each
    distinct category or chapter text once: every row parses its own.
    Lines are filtered by the documented rule, written out here: a line
    with a tab is a row unless its first column begins with ``#`` after
    leading blanks; a line without one is a row unless it is blank or
    begins with ``#`` after leading blanks."""
    path = str(base_dir / spec.file)
    text = read_text(path, f"resource {spec.name}")
    need = max(spec.layout.values()) + 1
    rows = []
    for lineno, line in enumerate(split_lines(text), start=1):
        if "\t" in line:
            if line.split("\t")[0].lstrip().startswith("#"):
                continue
        elif not line.strip() or line.lstrip().startswith("#"):
            continue
        cols = line.split("\t")
        if len(cols) < need:
            raise ParseError(
                f"resource {spec.name}: expected at least {need} tab-separated columns, got {len(cols)}",
                path,
                lineno,
            )
        term = cols[spec.layout["term"]].strip()
        if not term:
            raise ParseError(f"resource {spec.name}: empty term", path, lineno)
        if spec.mode is ResourceMode.FIXED:
            category = spec.category
        elif spec.mode is ResourceMode.PER_ENTRY:
            try:
                category = parse_category(cols[spec.layout["category"]])
            except ValueError as exc:
                raise ParseError(f"resource {spec.name}: {exc}", path, lineno) from None
        else:
            category = route_chapter(spec, cols[spec.layout["chapter"]], path, lineno)
        rows.append((term, category))
    return rows


def variant(words, pads=("", " ", "\u00a0")):
    """Case and space variants of ``words``; no tab, which splits columns."""
    return st.builds(
        lambda word, case, pad: pad + case(word) + pad,
        st.sampled_from(words),
        st.sampled_from([str.lower, str.upper, str.title]),
        st.sampled_from(pads),
    )


GOOD_RESOURCE_TERMS = variant(["feber", "blå kors", "Ærlig sak"])
RESOURCE_TERMS = st.one_of(GOOD_RESOURCE_TERMS, st.sampled_from([" ", ""]))
GOOD_LABELS = variant(["CONDITION", "ANAT_LOC", "anat-loc", "MICROORGANISM", "Procedure"])
# A bad value often starts like a good one, as a cache keyed on less than
# the whole text would confuse them.
BAD_LABELS = st.one_of(GOOD_LABELS.map(lambda label: label + "S"), variant(["ukjent", "OTHER", ""]))
RULE_CHAPTERS = ["Procedure codes", "Social problems", "General", "ß"]
RULE_LABELS = st.sampled_from(["PROCEDURE", "condition", "Tool", "EXCLUDE", "exclude", " Exclude "])
NOISE_LINES = st.sampled_from(["", "   ", "\u00a0", "# note", "  # indented\tnote", "#"])


@st.composite
def resource_files(draw, faults=True):
    """(manifest TSV line, resource file text) for one resource of any mode;
    without ``faults``, no row is blank or has a bad value."""
    mode = draw(st.sampled_from(["FIXED", "PER_ENTRY", "CHAPTERED"]))
    columns = draw(st.permutations([0, 1, 2]))
    term_column, value_column, code_column = columns
    layout = {"term": term_column}
    rules_text = "CONDITION"
    if mode == "PER_ENTRY":
        rules_text, good, bad = "", GOOD_LABELS, BAD_LABELS
        layout["category"] = value_column
    elif mode == "CHAPTERED":
        chapters = draw(st.lists(st.sampled_from(RULE_CHAPTERS), min_size=1, max_size=4))
        rules = [f"{chapter}={draw(RULE_LABELS)}" for chapter in chapters]
        if draw(st.booleans()):
            rules.append(f"*={draw(st.sampled_from(['CONDITION', 'tool']))}")
        rules_text = ";".join(rules)
        good = variant(chapters, pads=("", " ", "\u00a0", "  "))
        # A miss unless there is a default.
        bad = st.one_of(good.map(lambda chapter: chapter + " x"), variant(["Ukjent kapittel", "SS"]))
        layout["chapter"] = value_column
    else:
        good = bad = st.just("A10")
    if draw(st.booleans()):
        layout["code"] = code_column
    need = max(layout.values()) + 1

    def row(value):
        cols = ["A10"] * (need + draw(st.integers(0, 1)))
        cols[term_column] = draw(RESOURCE_TERMS if faults else GOOD_RESOURCE_TERMS)
        if mode != "FIXED":
            cols[value_column] = value
        return "\t".join(cols)

    lines = [row(draw(good)) for _ in range(draw(st.integers(1, 12)))]
    if faults and draw(st.booleans()):
        lines.insert(draw(st.integers(1, len(lines))), row(draw(bad)))
    for _ in range(draw(st.integers(0, 4))):
        lines.insert(draw(st.integers(0, len(lines))), draw(NOISE_LINES))
    ending = draw(st.sampled_from(["\n", "\r\n", "\r"]))
    text = ending.join(lines) + draw(st.sampled_from([ending, ""]))
    layout_text = ",".join(f"{k}={v}" for k, v in layout.items())
    return f"R\tres.tsv\t{mode}\t{rules_text}\t1\t{layout_text}\n", text


# A TSV row of blank columns is a row, refused with ``empty term`` at its line.
BLANK_COLUMNS_MANIFEST = "R\tres.tsv\tPER_ENTRY\t\t1\tterm=0,category=1\n"


class TestIngestOracle:
    @settings(max_examples=300, deadline=None)
    @given(resource_files())
    @example((BLANK_COLUMNS_MANIFEST, "feber\tcondition\n \t\nfeber\tcondition\nfeber\tcondition\n"))
    @example((BLANK_COLUMNS_MANIFEST, "feber\tcondition\n \t\nfeber\tcondition\n \tcondition\n"))
    def test_ingest_matches_per_row_reference(self, files):
        manifest_line, text = files
        with tempfile.TemporaryDirectory() as tmp:
            base = Path(tmp)
            (base / "m.tsv").write_text(manifest_line, encoding="utf-8")
            (base / "res.tsv").write_bytes(text.encode("utf-8"))
            [spec] = load_manifest(base / "m.tsv")
            try:
                want = reference_ingest(spec, base)
            except ParseError as exc:
                with pytest.raises(ParseError) as got:
                    list(resource_rows(spec, base))
                assert (str(got.value), got.value.line) == (str(exc), exc.line)
                return
            got = list(resource_rows(spec, base))
        assert got == want
        assert all(type(r) is tuple for r in got)


class TestMergeLexicons:
    def test_agreeing_overlap_unions_sources_without_correction(self):
        mo = source(("leukemi", Category.CONDITION), name="MO", rank=100)
        icd = source(("leukemi", Category.CONDITION), name="ICD-10", rank=2)
        records, report = lexicon_of(mo, [icd])
        assert len(records) == 1
        assert records[0].sources == "ICD-10,MO"
        assert records[0].category == "CONDITION"
        assert report.corrections == ()

    def test_trusted_resource_overrides_and_logs_correction(self):
        mo = source(("forbrenning", Category.PHYSIOLOGY), name="MO", rank=100)
        icpc = source(("forbrenning", Category.CONDITION), name="ICPC-2", rank=3)
        records, report = lexicon_of(mo, [icpc])
        assert records[0].category == "CONDITION"
        assert len(report.corrections) == 1
        c = report.corrections[0]
        assert (c.term, c.old_category, c.new_category, c.resource) == (
            "forbrenning",
            Category.PHYSIOLOGY,
            Category.CONDITION,
            "ICPC-2",
        )

    def test_case_variants_collapse_under_lowercase(self):
        res = source(("Aspartam", Category.SUBSTANCE), ("aspartam", Category.SUBSTANCE))
        lower, _ = lexicon_of(None, [res], lowercase=True)
        cased, _ = lexicon_of(None, [res], lowercase=False)
        assert len(lower) == 1
        assert len(cased) == 2

    def test_spellings_that_lowercase_to_one_composed_form_merge(self):
        # "W" + ring lowercases to "w" + ring, which NFC writes as U+1E98.
        res = source(("W\u030ax", Category.SUBSTANCE), ("\u1e98x", Category.SUBSTANCE))
        lower, _ = lexicon_of(None, [res], lowercase=True)
        assert [(r.term, r.sources) for r in lower] == [("W\u030ax", "RES")]
        cased, _ = lexicon_of(None, [res], lowercase=False)
        assert len(cased) == 2

    def test_equal_rank_disagreement_is_refused(self):
        a = source(("x", Category.CONDITION), name="A")
        b = source(("x", Category.PROCEDURE), name="B")
        with pytest.raises(MergeConflictError) as exc_info:
            merge_sources(None, [a, b])
        assert exc_info.value.conflicts

    @pytest.mark.parametrize(
        ("n", "tail"), [(20, None), (25, "  … and 5 more (25 conflicts in total)")]
    )
    def test_conflict_message_lists_the_first_twenty(self, n, tail):
        terms = [f"term{i:02}" for i in range(n)]
        a = source(*((t, Category.CONDITION) for t in terms), name="A")
        b = source(*((t, Category.PROCEDURE) for t in terms), name="B")
        with pytest.raises(MergeConflictError) as exc_info:
            merge_sources(None, [a, b])
        assert [c[0] for c in exc_info.value.conflicts] == terms
        lines = str(exc_info.value).splitlines()[1:]
        listed = [f"  'term{i:02}': A=CONDITION vs B=PROCEDURE" for i in range(20)]
        assert lines == listed + ([tail] if tail else [])

    def test_equal_rank_agreement_is_fine(self):
        a = source(("x", Category.CONDITION), name="A")
        b = source(("x", Category.CONDITION), name="B")
        records, _ = lexicon_of(None, [a, b])
        assert len(records) == 1

    def test_output_sorted_by_normalized_term(self):
        res = source(("Zebra", Category.CONDITION), ("alfa", Category.CONDITION))
        records, _ = lexicon_of(None, [res])
        assert [r.term for r in records] == ["alfa", "Zebra"]

    def test_provenance_of_winner_kept(self):
        votes = (
            Vote(Provenance.SUFF, Category.CONDITION, "emi"),
            Vote(Provenance.KW_1N, Category.CONDITION, "sykdom"),
        )
        outcome = MappingOutcome("e1", "leukemi", Category.CONDITION, Provenance.MULTI, votes)
        records, _ = lexicon_of(mapped_source([outcome]), [])
        assert records[0].provenance == "MULTI"

    def test_unmapped_outcomes_counted_as_excluded(self):
        outcomes = [
            MappingOutcome("e1", "leukemi", Category.CONDITION, Provenance.ITER),
            MappingOutcome("e2", "ukjent", None, Provenance.UNMAPPED),
        ]
        _, report = merge_sources(mapped_source(outcomes), [])
        assert report.resource_counts == (("MO", 2, 1, 1),)


def merge_warnings(caplog):
    return [r.getMessage() for r in caplog.records if r.name == "medlex.merge"]


class TestWithinSourceDisagreement:
    """At the lowest rank each source counts once, by its earliest row."""

    def test_mapped_homographs_earliest_wins(self, caplog):
        outcomes = [
            MappingOutcome("e1", "kjerne", Category.ANAT_LOC, Provenance.ITER),
            MappingOutcome("e2", "kjerne", Category.TOOL, Provenance.ITER),
        ]
        records, report = lexicon_of(mapped_source(outcomes), [])
        assert [(r.term, r.category, r.sources) for r in records] == [("kjerne", "ANAT_LOC", "MO")]
        assert report.corrections == ()
        assert merge_warnings(caplog) == [
            "term 'kjerne' has both ANAT_LOC and TOOL in MO; merge uses the earliest"
        ]

    def test_homographs_below_a_trusted_resource_are_not_a_disagreement(self, caplog):
        outcomes = [
            MappingOutcome("e1", "kjerne", Category.ANAT_LOC, Provenance.ITER),
            MappingOutcome("e2", "kjerne", Category.TOOL, Provenance.ITER),
        ]
        icd = source(("kjerne", Category.TOOL), name="ICD-10", rank=2)
        records, report = lexicon_of(mapped_source(outcomes), [icd])
        assert records[0].category == "TOOL"
        assert report.corrections == (
            Correction("kjerne", Category.ANAT_LOC, Category.TOOL, "ICD-10"),
        )
        assert merge_warnings(caplog) == []

    def test_resource_disagreeing_with_itself_after_case_folding(self, caplog):
        res = source(("Aspartam", Category.SUBSTANCE), ("aspartam", Category.TOOL))
        cased, _ = lexicon_of(None, [res], lowercase=False)
        assert len(cased) == 2
        assert merge_warnings(caplog) == []
        lower, report = lexicon_of(None, [res], lowercase=True)
        assert [(r.term, r.category) for r in lower] == [("Aspartam", "SUBSTANCE")]
        assert report.category_counts == {"SUBSTANCE": 1}
        assert merge_warnings(caplog) == [
            "term 'aspartam' has both SUBSTANCE and TOOL in RES; merge uses the earliest"
        ]

    def test_other_source_disagreeing_with_the_earliest_row_is_refused(self, caplog):
        a = source(("x", Category.CONDITION), ("x", Category.PROCEDURE), name="A")
        b = source(("x", Category.PROCEDURE), name="B")
        with pytest.raises(MergeConflictError) as exc_info:
            merge_sources(None, [a, b])
        assert exc_info.value.conflicts == [("x", "A", "CONDITION", "B", "PROCEDURE")]
        assert merge_warnings(caplog) == [
            "term 'x' has both CONDITION and PROCEDURE in A; merge uses the earliest"
        ]

    def test_other_source_agreeing_with_the_earliest_row_merges(self, caplog):
        a = source(("x", Category.CONDITION), ("x", Category.PROCEDURE), name="A")
        b = source(("x", Category.CONDITION), name="B")
        records, report = lexicon_of(None, [a, b])
        assert [(r.category, r.sources) for r in records] == [("CONDITION", "A,B")]
        assert report.overlap_pairs == (("A", "B", 1),)
        assert len(merge_warnings(caplog)) == 1


# The normalisation and merge as they were before the merge loop was
# rewritten, plus the within-source rule, as oracles for the rewrite.
_WS_RUN = re.compile(r"\s+")


def reference_normalize(raw, lowercase=True):
    text = _WS_RUN.sub(" ", unicodedata.normalize("NFC", raw)).strip()
    if not text:
        raise ValueError("empty term")
    return unicodedata.normalize("NFC", text.lower()) if lowercase else text


def reference_merge(mapped, resources, lowercase=True):
    """Returns (records, their keys, report fields, conflicts, dropped);
    ``dropped`` lists (term, earliest category, dropped category, source).
    The merge is refused if there are conflicts."""
    sources = ([mapped] if mapped is not None else []) + list(resources)
    mapped_name = mapped.name if mapped is not None else None
    groups = {}
    for result in sources:
        for record in result.records:
            groups.setdefault(reference_normalize(record.term, lowercase), []).append(record)
    conflicts, dropped, corrections, records, keys, pair_counts = [], [], [], [], [], {}
    for key in sorted(groups):
        group = groups[key]
        best_rank = min(r.trust_rank for r in group)
        winners = [r for r in group if r.trust_rank == best_rank]
        winner = winners[0]
        earliest = {}
        for r in winners:
            earliest.setdefault(r.source, r)
        for other in winners[1:]:
            first = earliest[other.source]
            if first is not other:
                if other.category is not first.category:
                    dropped.append((key, str(first.category), str(other.category), other.source))
            elif other.category is not winner.category:
                conflicts.append(
                    (key, winner.source, str(winner.category), other.source, str(other.category))
                )
        group_sources = {r.source for r in group}
        for a in sorted(group_sources):
            for b in sorted(group_sources):
                if a < b:
                    pair_counts[(a, b)] = pair_counts.get((a, b), 0) + 1
        if mapped_name is not None and winner.source != mapped_name:
            for r in group:
                if r.source == mapped_name and r.category is not winner.category:
                    corrections.append(
                        Correction(r.term, r.category, winner.category, winner.source)
                    )
                    break
        records.append(
            LexiconRecord(
                term=winner.term,
                category=str(winner.category),
                sources=",".join(sorted(group_sources)),
                provenance=winner.provenance,
            )
        )
        keys.append(key)
    category_counts = {}
    for record in records:
        category_counts[str(record.category)] = category_counts.get(str(record.category), 0) + 1
    report = (
        tuple((res.name, res.ingested, res.kept, res.excluded) for res in sources),
        tuple((a, b, n) for (a, b), n in sorted(pair_counts.items())),
        tuple(corrections),
        category_counts,
        len(records),
    )
    return records, keys, report, conflicts, dropped


def reference_render(records, fmt):
    if fmt == "jsonl":
        lines = [
            json.dumps(
                {
                    "term": r.term,
                    "category": r.category,
                    "sources": sorted(r.sources.split(",")),
                    "provenance": r.provenance,
                },
                ensure_ascii=False,
            )
            for r in records
        ]
        # No rows give an empty file, not one blank line.
        if not lines:
            return ""
    else:
        lines = ["term\tcategory\tsources\tprovenance"] + [
            "\t".join((r.term, r.category, ",".join(sorted(r.sources.split(","))), r.provenance))
            for r in records
        ]
    return "\n".join(lines) + "\n"


class _Captured(logging.Handler):
    def __init__(self):
        super().__init__(logging.WARNING)
        self.dropped = []

    def emit(self, record):
        key, first, other, source = record.args
        self.dropped.append((key, str(first), str(other), source))


# Case and whitespace variants of a few words (U+00A0 and U+2003 are
# whitespace too), so that groups mix sources, cases and spellings.
TERMS = st.builds(
    lambda word, case, pad: pad + case(word).replace(" ", pad or " ") + pad,
    st.sampled_from(["alfa", "al fa", "beta", "gamma", "æøå", "blå kors"]),
    st.sampled_from([str.lower, str.upper, str.title]),
    st.sampled_from(["", " ", "\t", "\u00a0", "  \u2003"]),
)
CATEGORIES = st.sampled_from([Category.CONDITION, Category.PROCEDURE, Category.TOOL])


# Mostly distinct words, with a few TERMS among them: most keys are seen once.
MOSTLY_SINGLE_TERMS = st.one_of(
    st.text(alphabet="abcdefghijklmnopqrstuvwxyzæøå", min_size=4, max_size=10),
    st.text(alphabet="abcdefghijklmnopqrstuvwxyzæøå", min_size=4, max_size=10).map(str.title),
    TERMS,
)


@st.composite
def merge_inputs(draw, terms=TERMS, max_rows=8):
    def rows(name, rank, provenance):
        pairs = draw(st.lists(st.tuples(terms, CATEGORIES), max_size=max_rows))
        return tuple(SourceRecord(t, c, name, provenance(), rank) for t, c in pairs)

    ranks = st.integers(1, 3)
    mapped = None
    if draw(st.booleans()):
        rank = draw(st.sampled_from([1, 2, 100]))
        provenances = st.sampled_from(["SUFF", "KW_E", "MULTI", "ITER"])
        records = rows("MO", rank, lambda: draw(provenances))
        excluded = draw(st.integers(0, 2))
        mapped = IngestResult("MO", records, len(records) + excluded, excluded)
    resources = []
    for name in draw(st.lists(st.sampled_from("ABCD"), min_size=1, max_size=4, unique=True)):
        rank = draw(ranks)
        records = rows(name, rank, lambda: name)
        excluded = draw(st.integers(0, 2))
        resources.append(IngestResult(name, records, len(records) + excluded, excluded))
    return mapped, resources, draw(st.booleans())


# The provenance of every mapped outcome that has a category.
MAPPED_PROVENANCES = st.sampled_from([str(p) for p in Provenance if p is not Provenance.UNMAPPED])


@st.composite
def source_inputs(draw):
    """Sources as ``merge_sources`` takes them, with excluded rows (no
    category) among the rest, and the lowercase flag."""

    def rows(provenance):
        pairs = draw(st.lists(st.tuples(TERMS, st.one_of(st.none(), CATEGORIES)), max_size=8))
        return [(t, c, "UNMAPPED" if c is None else provenance()) for t, c in pairs]

    mapped = None
    if draw(st.booleans()):
        mapped = ("MO", draw(st.sampled_from([1, 2, 100])), rows(lambda: draw(MAPPED_PROVENANCES)))
    names = draw(st.lists(st.sampled_from("ABCD"), max_size=4, unique=True))
    resources = [(name, draw(st.integers(1, 3)), rows(lambda: name)) for name in names]
    return mapped, resources, draw(st.booleans())


def as_result(source):
    """A ``merge_sources`` source as the ``IngestResult`` of its rows."""
    name, rank, rows = source
    records = tuple(SourceRecord(t, c, name, p, rank) for t, c, p in rows if c is not None)
    return IngestResult(name, records, len(rows), len(rows) - len(records))


def check_against_reference(merge, mapped, resources, lowercase):
    """Check ``merge()``, a merge of the ``IngestResult``s ``mapped`` and
    ``resources``, against ``reference_merge``: its rows, report and
    warnings, or its refusal. Returns the rows, or None if refused."""
    captured = _Captured()
    logger = logging.getLogger("medlex.merge")
    logger.addHandler(captured)
    want_records, want_keys, want_report, conflicts, dropped = reference_merge(
        mapped, resources, lowercase
    )
    try:
        if conflicts:
            with pytest.raises(MergeConflictError) as refused:
                merge()
            assert refused.value.conflicts == conflicts
        else:
            records, report = merge()
    finally:
        logger.removeHandler(captured)
    assert captured.dropped == dropped
    if conflicts:
        return None
    assert records == want_records
    assert [normalize_term(r[0], lowercase) for r in records] == want_keys
    got_report = (
        report.resource_counts,
        report.overlap_pairs,
        report.corrections,
        report.category_counts,
        report.total,
    )
    assert got_report == want_report
    assert list(report.category_counts.items()) == list(want_report[3].items())
    for fmt in ("tsv", "jsonl"):
        assert render_lexicon(records, fmt) == reference_render(want_records, fmt)
    # Rows with the same combination of sources share one sources string.
    shared = {}
    for r in records:
        assert shared.setdefault(r[2], r[2]) is r[2]
    return records


def check_lexicons_against_reference(mapped, resources, lowercase):
    records = check_against_reference(
        lambda: merge_lexicons(mapped, resources, lowercase), mapped, resources, lowercase
    )
    assert records is None or all(type(r) is LexiconRecord for r in records)


class TestMergeOracle:
    @settings(max_examples=200, deadline=None)
    @given(merge_inputs())
    def test_merge_matches_reference(self, inputs):
        check_lexicons_against_reference(*inputs)

    @settings(max_examples=200, deadline=None)
    @given(merge_inputs(terms=MOSTLY_SINGLE_TERMS, max_rows=30))
    def test_merge_of_mostly_single_keys_matches_reference(self, inputs):
        check_lexicons_against_reference(*inputs)

    @settings(max_examples=300, deadline=None)
    @given(source_inputs())
    def test_merge_sources_matches_reference(self, inputs):
        mapped, resources, lowercase = inputs
        # The resources are an iterator, as the command streams them.
        rows = check_against_reference(
            lambda: merge_sources(mapped, iter(resources), lowercase),
            None if mapped is None else as_result(mapped),
            [as_result(r) for r in resources],
            lowercase,
        )
        assert rows is None or all(type(r) is tuple and list(map(type, r)) == [str] * 4 for r in rows)

    def test_merge_sources_counts_excluded_rows(self):
        rows, report = merge_sources(
            ("MO", 100, [("x", None, "UNMAPPED"), ("x", Category.TOOL, "KW_1N")]),
            [("A", 1, [("y", None, "A")])],
        )
        assert rows == [("x", "TOOL", "MO", "KW_1N")]
        assert report.resource_counts == (("MO", 2, 1, 1), ("A", 1, 0, 1))

    @pytest.mark.parametrize(
        ("names", "message"),
        [
            (["A", "A"], "source name 'A' is given twice"),
            (["A,B"], "source name 'A,B' must not contain a tab, CR, LF or ','"),
            ([" "], "source name ' ' is blank"),
        ],
    )
    def test_merge_sources_refuses_a_name_the_sources_column_cannot_hold(self, names, message):
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            merge_sources(None, [(name, 1, []) for name in names])


OUTCOME_KINDS = st.sampled_from([str(p) for p in Provenance])


def outcome(i, term, kind, category):
    """An outcome ``map`` could write, with the provenance ``kind``."""
    provenance = Provenance[kind]
    if provenance is Provenance.UNMAPPED:
        return MappingOutcome(f"e{i}", term, None, provenance)
    if provenance is Provenance.ITER:
        return MappingOutcome(f"e{i}", term, category, provenance)
    strategies = [Provenance.SUFF, Provenance.KW_E] if provenance is Provenance.MULTI else [provenance]
    votes = tuple(Vote(strategy, category, "x") for strategy in strategies)
    return MappingOutcome(f"e{i}", term, category, provenance, votes)


@st.composite
def merge_jobs(draw):
    """(manifest, resource files, outcomes, mapped rank, lowercase) for a
    ``merge`` run: up to three resources of any mode, whose rows may be
    excluded and, now and then, faulty, at ranks that may tie with each
    other and with the mapped entries."""
    manifest, files = [], {}
    for name in draw(st.lists(st.sampled_from(["A", "B", "C"]), min_size=1, max_size=3, unique=True)):
        line, text = draw(resource_files(faults=draw(st.integers(0, 9)) == 0))
        cols = line.split("\t")
        cols[0], cols[1], cols[4] = name, f"{name.lower()}.tsv", str(draw(st.integers(1, 3)))
        manifest.append("\t".join(cols))
        files[cols[1]] = text
    drawn = draw(st.lists(st.tuples(variant(["feber", "blå kors", "Ærlig sak"], pads=("",)), OUTCOME_KINDS,
                                    CATEGORIES), max_size=8))
    outcomes = [outcome(i, *row) for i, row in enumerate(drawn)]
    return "".join(manifest), files, outcomes, draw(st.sampled_from([1, 2, 100])), draw(st.booleans())


class TestCommandMatchesAdapters:
    """``merge`` streams rows into ``merge_sources``; the record path
    (``ingest_resource``, ``mapped_records``, ``merge_lexicons``,
    ``export_lexicon``) must write the same lexicon and report, or fail
    with the same message."""

    @settings(max_examples=150, deadline=None)
    @given(merge_jobs(), st.sampled_from(["tsv", "jsonl"]))
    def test_command_and_adapters_write_the_same_bytes(self, job, mapped_format):
        manifest_text, files, outcomes, mapped_rank, lowercase = job
        with tempfile.TemporaryDirectory() as tmp:
            base = Path(tmp)
            manifest = base / "m.tsv"
            manifest.write_text(manifest_text, encoding="utf-8")
            for name, text in files.items():
                (base / name).write_bytes(text.encode("utf-8"))
            mapped = base / f"mapped.{mapped_format}"
            write_outcomes(outcomes, mapped)
            for suffix in ("tsv", "jsonl"):
                out = base / f"x.{suffix}"
                argv = ["merge", "--manifest", str(manifest), "--mapped", str(mapped), "--out", str(out),
                        "--mapped-rank", str(mapped_rank)] + ["--lowercase"] * lowercase
                command_warnings, adapter_warnings = _Captured(), _Captured()
                logger = logging.getLogger("medlex.merge")
                logger.addHandler(command_warnings)
                try:
                    with redirect_stdout(StringIO()) as stdout, redirect_stderr(StringIO()) as stderr:
                        code = main(argv)
                finally:
                    logger.removeHandler(command_warnings)
                written = out.read_bytes() if out.exists() else None
                out.unlink(missing_ok=True)
                logger.addHandler(adapter_warnings)
                try:
                    specs = load_manifest(manifest, "MO")
                    resources = [ingest_resource(spec, base) for spec in specs]
                    records, report = merge_lexicons(
                        mapped_records(read_outcomes(mapped), "MO", mapped_rank), resources, lowercase
                    )
                    export_lexicon(records, out)
                except MedlexError as exc:
                    assert (code, stdout.getvalue(), written) == (exc.exit_code, "", None)
                    assert stderr.getvalue().endswith(f"{exc.prefix}: {exc}\n")
                    continue
                finally:
                    logger.removeHandler(adapter_warnings)
                assert command_warnings.dropped == adapter_warnings.dropped
                assert code == 0
                assert stdout.getvalue() == format_merge_report(report)
                assert written == out.read_bytes()


@st.composite
def ranked_merge_jobs(draw):
    """(resources, outcomes, lowercase, order) for a ``merge`` run: two to
    four resources of any mode without faults, each (manifest TSV line,
    file name, file text), at distinct ranks below the mapped entries'
    default, and a permutation ``order`` of the resources."""
    resources = []
    names = ["A", "B", "C", "D"][: draw(st.integers(2, 4))]
    for name, rank in zip(names, draw(st.permutations([1, 2, 3, 4, 5]))):
        # A chapter "ß" upper-cased is "SS", which no rule for "ß" matches: a fault.
        line, text = draw(resource_files(faults=False).filter(lambda resource: "ß" not in resource[0]))
        cols = line.split("\t")
        cols[0], cols[1], cols[4] = name, f"{name.lower()}.tsv", str(rank)
        resources.append(("\t".join(cols), cols[1], text))
    drawn = draw(st.lists(st.tuples(variant(["feber", "blå kors", "Ærlig sak"], pads=("",)), OUTCOME_KINDS,
                                    CATEGORIES), max_size=8))
    outcomes = [outcome(i, *row) for i, row in enumerate(drawn)]
    return resources, outcomes, draw(st.booleans()), draw(st.permutations(range(len(resources))))


class TestManifestOrder:
    """With distinct ranks, the order of a manifest's resources decides
    only the order of the report's resource-count rows."""

    @settings(max_examples=150, deadline=None)
    @given(ranked_merge_jobs(), st.sampled_from(["tsv", "jsonl"]))
    def test_permuted_resources_merge_alike(self, job, out_format):
        resources, outcomes, lowercase, order = job
        runs = []
        with tempfile.TemporaryDirectory() as tmp:
            base = Path(tmp)
            for _, name, text in resources:
                (base / name).write_bytes(text.encode("utf-8"))
            mapped = base / "mapped.tsv"
            write_outcomes(outcomes, mapped)
            for listed in (resources, [resources[i] for i in order]):
                manifest = base / "m.tsv"
                manifest.write_text("".join(line for line, _, _ in listed), encoding="utf-8")
                out = base / f"lexicon.{out_format}"
                argv = ["merge", "--manifest", str(manifest), "--mapped", str(mapped), "--out", str(out)]
                # The command logs its warnings, and logging set up earlier in the
                # process may send them elsewhere than stderr: take them from the logger.
                warnings = _Captured()
                logger = logging.getLogger("medlex.merge")
                logger.addHandler(warnings)
                try:
                    with redirect_stdout(StringIO()) as printed, redirect_stderr(StringIO()) as stderr:
                        code = main(argv + ["--lowercase"] * lowercase)
                finally:
                    logger.removeHandler(warnings)
                runs.append((code, stderr.getvalue(), warnings.dropped, out.read_bytes() if out.exists() else None,
                             printed.getvalue().split("\n")))
                out.unlink(missing_ok=True)
        (code, *same, report), permuted = runs
        assert code == 0
        assert permuted[:-1] == (code, *same)
        # The header, the mapped entries' row, then one row per resource.
        counts = 2 + len(resources)
        assert permuted[-1][counts:] == report[counts:]
        assert permuted[-1][:counts] == report[:2] + [report[2 + i] for i in order]


CHAPTERS = st.builds(
    lambda word, case, pad: pad + case(word) + pad,
    st.sampled_from(["A", "b", "Procedure codes", "İx", "ß"]),
    st.sampled_from([str.lower, str.upper, str.title, str.casefold]),
    st.sampled_from(["", " ", "\t", "\u00a0"]),
)


def route_chapter(spec, chapter, path, lineno):
    """The chapter router, with the location resource_rows gives its fault."""
    try:
        return _route_chapter(spec, chapter)
    except ValueError as exc:
        raise ParseError(f"resource {spec.name}: {exc}", path, lineno) from None


def linear_route(spec, chapter):
    for rule in spec.chapter_rules:
        if chapter.strip().lower() == rule.chapter.strip().lower():
            return rule.category
    if spec.chapter_default is None:
        raise ParseError(
            f"resource {spec.name}: chapter {chapter!r} matches no rule and "
            "the spec has no default",
            "r.tsv",
            7,
        )
    return spec.chapter_default


class TestChapterRouting:
    @given(
        st.lists(
            st.builds(ChapterRule, CHAPTERS, st.one_of(st.none(), CATEGORIES)),
            min_size=1,
            max_size=6,
        ),
        st.one_of(st.none(), CATEGORIES),
        st.lists(CHAPTERS, max_size=6),
    )
    def test_lookup_matches_first_matching_rule(self, rules, default, chapters):
        spec = ResourceSpec(
            name="R",
            file="r.tsv",
            mode=ResourceMode.CHAPTERED,
            trust_rank=1,
            chapter_rules=tuple(rules),
            chapter_default=default,
        )
        for chapter in chapters + [r.chapter for r in rules]:
            try:
                expected = linear_route(spec, chapter)
            except ParseError as exc:
                with pytest.raises(ParseError) as got:
                    route_chapter(spec, chapter, "r.tsv", 7)
                assert str(got.value) == str(exc)
                continue
            assert route_chapter(spec, chapter, "r.tsv", 7) is expected

    def test_first_of_two_rules_for_one_chapter_wins(self, tmp_path):
        path = tmp_path / "c.tsv"
        path.write_text("x\t Procedure CODES\n", encoding="utf-8")
        spec = ResourceSpec(
            name="X",
            file=str(path),
            mode=ResourceMode.CHAPTERED,
            trust_rank=1,
            chapter_rules=(
                ChapterRule("procedure codes", Category.PROCEDURE),
                ChapterRule("Procedure codes", None),
            ),
        )
        assert next(resource_rows(spec))[1] is Category.PROCEDURE

    def test_index_is_not_part_of_equality_or_repr(self):
        rules = (ChapterRule("A", Category.CONDITION),)
        a, b = (
            ResourceSpec("R", "r.tsv", ResourceMode.CHAPTERED, 1, chapter_rules=rules)
            for _ in range(2)
        )
        assert a == b
        assert a.chapter_index == {"a": Category.CONDITION}
        assert "chapter_index" not in repr(a)


def fixture_sources(data_dir, outcomes):
    """The mapped outcomes and the ``tests/data`` manifest's resources as
    sources for ``merge_sources``."""
    specs = load_manifest(data_dir / "manifest.json")
    return mapped_source(outcomes), [resource_source(s, data_dir) for s in specs]


def kept_rows(mapped, resources):
    """(source, rank, term, category) for every row of the sources that has
    a category, in source and row order."""
    return [(name, rank, term, category)
            for name, rank, rows in [mapped, *resources] for term, category, _ in rows if category is not None]


class TestFixtureMerge:
    @pytest.fixture()
    def merged(self, data_dir, fixture_outcomes):
        mo, resources = fixture_sources(data_dir, fixture_outcomes)
        return lexicon_of(mo, resources, lowercase=True), kept_rows(*fixture_sources(data_dir, fixture_outcomes))

    def test_no_duplicate_normalized_terms(self, merged):
        (records, _), _ = merged
        keys = [normalize_term(r.term, True) for r in records]
        assert len(keys) == len(set(keys))

    def test_conservation_every_kept_record_lands_exactly_once(self, merged):
        (records, _), kept = merged
        by_key = {normalize_term(r.term, True): r for r in records}
        for name, _, term, _ in kept:
            key = normalize_term(term, True)
            assert key in by_key
            assert name in by_key[key].sources.split(",")

    def test_trust_dominance(self, merged):
        (records, _), kept = merged
        all_records: dict[str, list] = {}
        for row in kept:
            all_records.setdefault(normalize_term(row[2], True), []).append(row)
        for out in records:
            key = normalize_term(out.term, True)
            group = all_records[key]
            best = min(rank for _, rank, _, _ in group)
            for _, rank, _, category in group:
                if rank < best or (rank == best and str(category) != out.category):
                    pytest.fail(f"trust dominance violated for {key}")

    def test_expected_corrections(self, merged):
        (_, report), _ = merged
        got = {(c.term, str(c.old_category), str(c.new_category), c.resource) for c in report.corrections}
        assert got == {
            ("forbrenning", "PHYSIOLOGY", "CONDITION", "ICPC-2"),
            ("immunapparatet", "TOOL", "ANAT_LOC", "ALOC"),
        }

    def test_corrections_match_overlap_disagreements(self, merged, fixture_outcomes):
        (_, report), kept = merged
        mo_cats = {}
        for o in fixture_outcomes:
            if o.category is not None:
                mo_cats.setdefault(normalize_term(o.term), o.category)
        disagreements = set()
        # key -> (rank, category) of the earliest resource row of the lowest rank
        winner_by_key: dict[str, tuple[int, Category]] = {}
        for name, rank, term, category in kept:
            if name == "MO":
                continue
            key = normalize_term(term)
            prev = winner_by_key.get(key)
            if prev is None or rank < prev[0]:
                winner_by_key[key] = (rank, category)
        for key, (_, category) in winner_by_key.items():
            if key in mo_cats and mo_cats[key] is not category:
                disagreements.add(key)
        assert {normalize_term(c.term) for c in report.corrections} == disagreements

    def test_lowercase_shrinks_or_preserves(self, data_dir, fixture_outcomes):
        lower, _ = merge_sources(*fixture_sources(data_dir, fixture_outcomes), lowercase=True)
        cased, _ = merge_sources(*fixture_sources(data_dir, fixture_outcomes), lowercase=False)
        assert len(lower) <= len(cased)
        assert len(cased) - len(lower) == 2  # Aspartam and Paracetamol variants

    def test_report_counts_reconcile(self, merged):
        (records, report), _ = merged
        for name, ingested, kept, excluded in report.resource_counts:
            assert kept + excluded == ingested, name
        recount: dict[str, int] = {}
        for r in records:
            recount[str(r.category)] = recount.get(str(r.category), 0) + 1
        assert report.category_counts == recount
        assert report.total == len(records)

    def test_icpc2_exclusions_counted(self, merged):
        (_, report), _ = merged
        by_name = {name: (ingested, kept, excluded) for name, ingested, kept, excluded in report.resource_counts}
        assert by_name["ICPC-2"] == (7, 5, 2)


MANIFEST_NAMES = st.text(alphabet="AZ09-_ .", min_size=1, max_size=6).map(str.strip).filter(bool)
MANIFEST_MODES = st.sampled_from(
    ["FIXED", "fixed", " Fixed ", "PER_ENTRY", "per-entry", "CHAPTERED", "Chaptered", "BOGUS", ""]
)
MANIFEST_LABELS = st.sampled_from(["CONDITION", "tool", "anat-loc", " SUBSTANCE ", "NOPE", "OTHER", ""])
MANIFEST_RULE_LABELS = st.one_of(MANIFEST_LABELS, st.sampled_from(["EXCLUDE", " exclude "]))
MANIFEST_RANKS = st.sampled_from(["1", " 2 ", "10", "-3", "x", ""])
MANIFEST_LAYOUTS = st.dictionaries(
    st.sampled_from(["term", "category", "chapter", "code"]), st.integers(-1, 3), max_size=3
)


MANIFEST_CHAPTERS = st.sampled_from(["K01", "k02 ", "General"])
MANIFEST_RULES = st.lists(st.tuples(MANIFEST_CHAPTERS, MANIFEST_RULE_LABELS), max_size=3)


def json_rules(rules):
    return [{"chapter": chapter, "category": label} for chapter, label in rules]


@st.composite
def manifest_entries(draw):
    """(TSV row, JSON object, JSON-only fields) declaring the same resource
    as the README describes each format: the fourth TSV column is a FIXED
    or PER_ENTRY category or CHAPTERED ``chapter=CATEGORY`` rules with ``*``
    the default, which the JSON object gives as ``category``, or ``rules``
    and ``default``. The JSON-only fields are ones a TSV row cannot hold:
    a CHAPTERED ``category``, or FIXED or PER_ENTRY ``rules`` or ``default``."""
    name, file, mode = draw(MANIFEST_NAMES), draw(MANIFEST_NAMES), draw(MANIFEST_MODES)
    rank, layout = draw(MANIFEST_RANKS), draw(MANIFEST_LAYOUTS)
    number = rank.strip(" -").isdigit()
    obj = {"name": name, "file": file, "mode": mode, "trust_rank": int(rank) if number else rank}
    if layout or draw(st.booleans()):
        obj["layout"] = layout
    kind = mode.strip().upper().replace("-", "_")
    extra = {}
    if kind == "CHAPTERED":
        rules = draw(MANIFEST_RULES)
        default = draw(st.one_of(st.none(), MANIFEST_RULE_LABELS))
        pairs = [f"{chapter}={label}" for chapter, label in rules]
        if default is not None:
            pairs.append(f"{draw(st.sampled_from(['*', ' * ']))}={default}")
            obj["default"] = default
        column4 = ";".join(pairs)
        obj["rules"] = json_rules(rules)
        if draw(st.integers(0, 3)) == 0:
            extra["category"] = draw(MANIFEST_LABELS)
    else:
        column4 = draw(MANIFEST_LABELS)
        if column4:
            obj["category"] = column4
        if kind in ("FIXED", "PER_ENTRY") and draw(st.integers(0, 3)) == 0:
            extra = draw(st.sampled_from([{"rules": draw(MANIFEST_RULES)},
                                          {"default": draw(MANIFEST_RULE_LABELS)}]))
            if "rules" in extra:
                extra["rules"] = json_rules(extra["rules"])
    layout_text = ",".join(f"{k}={v}" for k, v in layout.items())
    return "\t".join([name, file, mode, column4, rank, layout_text]), obj, extra


# A valid JSON manifest resource; each fault case changes one thing in it.
JSON_A = {"name": "A", "file": "a.tsv", "mode": "FIXED", "category": "TOOL", "trust_rank": 1}


def load_one(tmp, filename, text):
    """The spec a one-entry manifest loads to, or the error message with
    its location prefix removed."""
    path = Path(tmp) / filename
    path.write_text(text, encoding="utf-8")
    try:
        [spec] = load_manifest(path)
    except ParseError as exc:
        where = f"{path}:1: " if filename.endswith(".tsv") else f"{path}: resource #1: "
        assert str(exc).startswith(where)
        return str(exc)[len(where):]
    return spec


class TestManifest:
    def test_tsv_and_json_manifests_agree(self, data_dir):
        json_specs = load_manifest(data_dir / "manifest.json")
        tsv_specs = load_manifest(data_dir / "manifest.tsv")
        assert len(json_specs) == len(tsv_specs)
        for a, b in zip(json_specs, tsv_specs):
            assert (a.name, a.file, a.mode, a.trust_rank, a.category) == (
                b.name,
                b.file,
                b.mode,
                b.trust_rank,
                b.category,
            )
            assert a.chapter_rules == b.chapter_rules
            assert a.chapter_default == b.chapter_default

    def test_duplicate_names_rejected(self, tmp_path):
        path = tmp_path / "m.json"
        path.write_text(
            '[{"name": "A", "file": "a.tsv", "mode": "FIXED", "category": "CONDITION", "trust_rank": 1},'
            ' {"name": "A", "file": "b.tsv", "mode": "FIXED", "category": "CONDITION", "trust_rank": 2}]',
            encoding="utf-8",
        )
        with pytest.raises(ParseError, match="duplicate"):
            load_manifest(path)

    def test_duplicate_name_is_reported_where_it_appears(self, tmp_path):
        rows = ["A\ta.tsv\tFIXED\tTOOL\t1\tterm=0", "B\tb.tsv\tFIXED\tTOOL\t2\tterm=0",
                "A\tc.tsv\tFIXED\tTOOL\t3\tterm=0"]
        tsv, json_path = tmp_path / "m.tsv", tmp_path / "m.json"
        tsv.write_text("\n".join(rows) + "\n", encoding="utf-8")
        keys = ("name", "file", "mode", "category", "trust_rank")
        objs = [dict(zip(keys, row.split("\t"))) for row in rows]
        json_path.write_text(json.dumps([{**o, "trust_rank": int(o["trust_rank"])} for o in objs]),
                             encoding="utf-8")
        for path, where in ((tsv, f"{tsv}:3"), (json_path, f"{json_path}: resource #3")):
            with pytest.raises(ParseError) as got:
                load_manifest(path)
            assert str(got.value) == f"{where}: resource A: duplicate resource name"

    @pytest.mark.parametrize("suffix", [".jsonl", ".ndjson", ".JSON"])
    def test_every_json_suffix_reads_a_json_manifest(self, data_dir, tmp_path, suffix):
        # One sniffer decides the format of every input from its suffix.
        path = tmp_path / f"manifest{suffix}"
        path.write_bytes((data_dir / "manifest.json").read_bytes())
        assert load_manifest(path) == load_manifest(data_dir / "manifest.json")

    @pytest.mark.parametrize("suffix", [".jsonl", ".ndjson", ".json"])
    def test_one_object_per_line_reads_as_the_json_list(self, data_dir, tmp_path, suffix):
        # A blank line and a comment line are not resources, as in a TSV manifest.
        path = tmp_path / f"manifest{suffix}"
        path.write_text("# resources\n\n" + (data_dir / "manifest.jsonl").read_text(encoding="utf-8"),
                        encoding="utf-8")
        want = load_manifest(data_dir / "manifest.json")
        assert load_manifest(data_dir / "manifest.jsonl") == want
        assert load_manifest(path) == want

    @pytest.mark.parametrize(
        ("row", "message"),
        [
            (json.dumps({**JSON_A, "trust_rank": "1"}), 'resource A: "trust_rank" must be a JSON integer, not str'),
            (json.dumps({**JSON_A, "name": "G"}), "resource G: duplicate resource name"),
            ('["A"]', "expected a JSON object, got list"),
            (json.dumps(JSON_A)[:-1], "bad JSON: Expecting ',' delimiter"),
        ],
        ids=["text-rank", "duplicate-name", "list-row", "cut-row"],
    )
    def test_json_lines_fault_names_file_and_line(self, tmp_path, row, message):
        path = tmp_path / "m.jsonl"
        path.write_text(json.dumps({**JSON_A, "name": "G"}) + "\n\n# next\n" + row + "\n", encoding="utf-8")
        with pytest.raises(ParseError) as got:
            load_manifest(path)
        assert str(got.value).startswith(f"{path}:4: {message}")

    def test_missing_manifest(self, tmp_path):
        with pytest.raises(ParseError):
            load_manifest(tmp_path / "missing.json")

    @settings(max_examples=300, deadline=None)
    @given(manifest_entries())
    def test_tsv_row_and_json_object_load_alike(self, entry):
        row, obj, extra = entry
        with tempfile.TemporaryDirectory() as tmp:
            from_tsv = load_one(tmp, "m.tsv", row + "\n")
            from_json = load_one(tmp, "m.json", json.dumps([obj]))
            with_extra = load_one(tmp, "m.json", json.dumps([{**obj, **extra}]))
        name, rank = obj["name"], obj["trust_rank"]
        if isinstance(rank, str):
            # A rank that is not a number has no JSON form: a JSON string is
            # refused first, and the TSV text is refused first too.
            assert from_tsv == f'resource {name}: "trust_rank" must be an integer, not {rank!r}'
            assert from_json == with_extra == f'resource {name}: "trust_rank" must be a JSON integer, not str'
            return
        assert from_tsv == from_json
        mode = obj["mode"].strip().upper().replace("-", "_")
        if mode not in ("FIXED", "PER_ENTRY", "CHAPTERED"):
            return
        # A field the mode does not use is refused before any value is parsed;
        # an empty category counts as absent.
        if {**obj, **extra}.get("category") and mode != "FIXED":
            assert with_extra == f"resource {name}: {mode} mode takes no category"
        elif extra.get("rules") or "default" in extra:
            assert with_extra == f"resource {name}: {mode} mode takes no chapter rules or default"
        else:
            assert with_extra == from_json

    @pytest.mark.parametrize(
        ("row", "obj", "message"),
        [
            (
                "A\ta.tsv\tCHAPTERED\tK01=TOOL;*=EXCLUDE\t1\tterm=0,chapter=1",
                {"mode": "CHAPTERED", "rules": [{"chapter": "K01", "category": "TOOL"}],
                 "default": "EXCLUDE"},
                "resource A: default rule cannot exclude",
            ),
            (
                "A\ta.tsv\tBOGUS\tCONDITION\t1\tterm=0",
                {"mode": "BOGUS", "category": "CONDITION"},
                "resource A: unknown mode 'BOGUS'",
            ),
            (
                "A\ta.tsv\tFIXED\t\t1\tterm=0",
                {"mode": "FIXED"},
                "resource A: FIXED mode needs a category",
            ),
            (
                "A\ta.tsv\tFIXED\tXYZ\t1\tterm=0",
                {"mode": "FIXED", "category": "XYZ"},
                "resource A: unknown category label: 'XYZ'",
            ),
            (
                "A\ta.tsv\tCHAPTERED\tK01=XYZ\t1\tterm=0,chapter=1",
                {"mode": "CHAPTERED", "rules": [{"chapter": "K01", "category": "XYZ"}]},
                "resource A: unknown category label: 'XYZ'",
            ),
            (
                "A\ta.tsv\tCHAPTERED\t\t1\tterm=0,chapter=1",
                {"mode": "CHAPTERED"},
                "resource A: CHAPTERED mode needs chapter rules",
            ),
            (
                "A\ta.tsv\tPER_ENTRY\tCONDITION\t1\tterm=0,category=1",
                {"mode": "PER_ENTRY", "category": "CONDITION"},
                "resource A: PER_ENTRY mode takes no category",
            ),
            # A TSV row cannot hold the fields of the cases below.
            (
                None,
                {"mode": "CHAPTERED", "category": "TOOL", "rules": [{"chapter": "K01", "category": "TOOL"}]},
                "resource A: CHAPTERED mode takes no category",
            ),
            (
                None,
                {"mode": "FIXED", "category": "TOOL", "rules": [{"chapter": "K01", "category": "TOOL"}]},
                "resource A: FIXED mode takes no chapter rules or default",
            ),
            (
                None,
                {"mode": "FIXED", "category": "TOOL", "default": "TOOL"},
                "resource A: FIXED mode takes no chapter rules or default",
            ),
            (
                None,
                {"mode": "PER_ENTRY", "rules": [{"chapter": "K01", "category": "NOPE"}]},
                "resource A: PER_ENTRY mode takes no chapter rules or default",
            ),
            # The lexicon's sources column joins the names of a term's sources with ",".
            (
                " \ta.tsv\tFIXED\tTOOL\t1\tterm=0",
                {"name": "", "mode": "FIXED", "category": "TOOL"},
                "source name '' is blank",
            ),
            (
                "CUR,ATED\ta.tsv\tFIXED\tTOOL\t1\tterm=0",
                {"name": "CUR,ATED", "mode": "FIXED", "category": "TOOL"},
                "source name 'CUR,ATED' must not contain a tab, CR, LF or ','",
            ),
            (None, {"name": " ", "mode": "FIXED", "category": "TOOL"}, "source name ' ' is blank"),
            # The name is checked before the rank and the layout, which name it.
            (
                " \t \t \t \t \t ",
                {"name": "", "file": " ", "mode": " ", "trust_rank": " ", "layout": " "},
                "source name '' is blank",
            ),
            (
                " \tr.tsv\tFIXED\tTOOL\tx\tterm=0",
                {"name": "", "mode": "FIXED", "category": "TOOL", "trust_rank": "x"},
                "source name '' is blank",
            ),
            (
                "\tr.tsv\tFIXED\tTOOL\t1\tterm=x",
                {"name": "", "mode": "FIXED", "category": "TOOL", "layout": {"term": "x"}},
                "source name '' is blank",
            ),
            *(
                (
                    None,
                    {"name": f"CUR{ch}ATED", "mode": "FIXED", "category": "TOOL"},
                    f"source name {f'CUR{ch}ATED'!r} must not contain a tab, CR, LF or ','",
                )
                for ch in "\t\r\n"
            ),
        ],
        ids=["default-exclude", "unknown-mode", "fixed-without-category", "unknown-label",
             "unknown-rule-label", "chaptered-without-rules",
             "per-entry-with-category", "chaptered-with-category", "fixed-with-rules",
             "fixed-with-default", "per-entry-with-rules", "blank-name", "comma-in-name",
             "space-name", "blank-columns", "blank-name-bad-rank", "blank-name-bad-layout",
             "tab-in-name", "cr-in-name", "lf-in-name"],
    )
    def test_manifest_fault_names_resource_and_location(self, tmp_path, row, obj, message):
        if row is not None:
            tsv = tmp_path / "m.tsv"
            tsv.write_text("# resources\n" + row + "\n", encoding="utf-8")
            with pytest.raises(ParseError) as got:
                load_manifest(tsv)
            assert str(got.value) == f"{tsv}:2: {message}"
        good = {"name": "G", "file": "g.tsv", "mode": "FIXED", "category": "TOOL", "trust_rank": 0}
        objs = [good, {"name": "A", "file": "a.tsv", "trust_rank": 1, **obj}]
        json_path, jsonl_path = tmp_path / "m.json", tmp_path / "m.jsonl"
        json_path.write_text(json.dumps(objs), encoding="utf-8")
        jsonl_path.write_text("".join(json.dumps(o) + "\n" for o in objs), encoding="utf-8")
        for path, where in ((json_path, f"{json_path}: resource #2"), (jsonl_path, f"{jsonl_path}:2")):
            with pytest.raises(ParseError) as got:
                load_manifest(path)
            assert str(got.value) == f"{where}: {message}"

    @pytest.mark.parametrize(
        ("resource", "message"),
        [
            ({**JSON_A, "trust_rank": 1.5}, 'resource A: "trust_rank" must be a JSON integer, not float'),
            ({**JSON_A, "trust_rank": True}, 'resource A: "trust_rank" must be a JSON integer, not bool'),
            ({**JSON_A, "trust_rank": "1"}, 'resource A: "trust_rank" must be a JSON integer, not str'),
            ({**JSON_A, "trust_rank": None}, 'resource A: "trust_rank" must be a JSON integer, not null'),
            ({k: v for k, v in JSON_A.items() if k != "trust_rank"}, 'resource A: "trust_rank" is missing'),
            ({**JSON_A, "layout": {"term": 0.9}},
             'resource A: "layout" must be a JSON object of integers, not one holding float'),
            ({**JSON_A, "layout": [0]}, 'resource A: "layout" must be a JSON object, not list'),
            ({**JSON_A, "category": 5}, 'resource A: "category" must be a JSON string, not int'),
            ({**JSON_A, "mode": "CHAPTERED", "rules": ["K01=TOOL"]},
             'resource A: "rules" must be a JSON list of objects, not one holding str'),
            ({**JSON_A, "mode": "CHAPTERED", "rules": [{"category": "TOOL"}]},
             'resource A: "chapter" is missing'),
            ({**JSON_A, "name": 5}, '"name" must be a JSON string, not int'),
            ({k: v for k, v in JSON_A.items() if k != "name"}, '"name" is missing'),
            ("A", "expected a JSON object, got str"),
        ],
        ids=["float-rank", "true-rank", "text-rank", "null-rank", "no-rank", "float-column",
             "layout-list", "number-category", "text-rule", "rule-without-chapter", "number-name",
             "no-name", "text-resource"],
    )
    def test_json_value_of_the_wrong_type_names_resource_and_key(self, tmp_path, resource, message):
        path = tmp_path / "m.json"
        path.write_text(json.dumps([{**JSON_A, "name": "G"}, resource]), encoding="utf-8")
        with pytest.raises(ParseError) as got:
            load_manifest(path)
        assert str(got.value) == f"{path}: resource #2: {message}"

    @pytest.mark.parametrize(
        ("rank", "layout", "message"),
        [
            ("x", "term=0", """resource A: "trust_rank" must be an integer, not 'x'"""),
            ("1.5", "term=0", """resource A: "trust_rank" must be an integer, not '1.5'"""),
            ("", "term=0", """resource A: "trust_rank" must be an integer, not ''"""),
            ("1", "term=x", """resource A: layout column "term" must be an integer, not 'x'"""),
            ("1", " term = 0.9 ", """resource A: layout column "term" must be an integer, not ' 0.9 '"""),
            ("1", "term", """resource A: layout column "term" must be an integer, not ''"""),
        ],
        ids=["text-rank", "decimal-rank", "empty-rank", "text-column", "decimal-column", "no-column"],
    )
    def test_tsv_integer_fault_names_resource_and_key(self, tmp_path, rank, layout, message):
        path = tmp_path / "m.tsv"
        path.write_text(f"G\tg.tsv\tFIXED\tTOOL\t0\t\nA\ta.tsv\tFIXED\tTOOL\t{rank}\t{layout}\n",
                        encoding="utf-8")
        with pytest.raises(ParseError) as got:
            load_manifest(path)
        assert str(got.value) == f"{path}:2: {message}"

    def test_tsv_integer_is_read_as_int_reads_it(self, tmp_path):
        path = tmp_path / "m.tsv"
        path.write_text("A\ta.tsv\tFIXED\tTOOL\t 2 \tterm= 1 \nB\tb.tsv\tFIXED\tTOOL\t-3\t\n",
                        encoding="utf-8")
        assert [(s.trust_rank, s.layout) for s in load_manifest(path)] == [(2, {"term": 1}), (-3, {"term": 0})]

    def test_json_null_optional_value_is_absent(self, tmp_path):
        path = tmp_path / "m.json"
        path.write_text(json.dumps([{"name": "A", "file": "a.tsv", "mode": "PER_ENTRY", "trust_rank": 1,
                                     "category": None, "rules": None, "default": None, "layout": None}]),
                        encoding="utf-8")
        [spec] = load_manifest(path)
        assert (spec.category, spec.chapter_rules, spec.layout) == (None, (), {"term": 0, "category": 1})


class TestExport:
    def test_header_plus_rows(self, tmp_path):
        res = source(("alfa", Category.CONDITION), ("beta", Category.PROCEDURE))
        records, _ = merge_sources(None, [res])
        path = tmp_path / "lex.tsv"
        export_lexicon(records, path)
        lines = path.read_text(encoding="utf-8").splitlines()
        assert lines[0] == "term\tcategory\tsources\tprovenance"
        assert len(lines) == 3

    def test_empty_lexicon_is_header_only(self, tmp_path):
        path = tmp_path / "lex.tsv"
        export_lexicon([], path)
        assert path.read_text(encoding="utf-8") == "term\tcategory\tsources\tprovenance\n"

    def test_file_recount_matches_report(self, data_dir, fixture_outcomes, tmp_path):
        records, report = merge_sources(*fixture_sources(data_dir, fixture_outcomes))
        path = tmp_path / "lex.tsv"
        export_lexicon(records, path)
        recount: dict[str, int] = {}
        for line in path.read_text(encoding="utf-8").splitlines()[1:]:
            category = line.split("\t")[1]
            recount[category] = recount.get(category, 0) + 1
        assert recount == report.category_counts

    def test_jsonl_render_is_stable(self):
        res = source(("alfa", Category.CONDITION))
        records, _ = merge_sources(None, [res])
        assert render_lexicon(records, "jsonl") == render_lexicon(records, "jsonl")
