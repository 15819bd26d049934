"""Ingestion of external terminology resources under declarative specs,
merging with mapped dictionary output, deduplication, and the
overlap-based automatic correction of mapped categories."""

from __future__ import annotations

import enum
import json
import logging
from collections import Counter
from operator import attrgetter
from pathlib import Path
from typing import Iterable, Iterator, NamedTuple, Sequence

from .errors import MergeConflictError, ParseError
from .io import (column_count_error, data_lines, json_field, json_object, line_at, read_text, sniff_format,
                 split_lines, write_text)
from .model import Category, Frozen, LexiconRecord, MappingOutcome, normalize_term, parse_category
from .outcomes import count_table

log = logging.getLogger(__name__)

# The automatically mapped dictionary ranks below every curated resource
# unless the caller says otherwise.
DEFAULT_MAPPED_NAME = "MO"
DEFAULT_MAPPED_RANK = 100


class ResourceMode(enum.Enum):
    FIXED = "FIXED"
    PER_ENTRY = "PER_ENTRY"
    CHAPTERED = "CHAPTERED"


# The layout column each mode reads a row's category from (FIXED: none).
_CATEGORY_COLUMN: dict[ResourceMode, str | None] = {
    ResourceMode.FIXED: None,
    ResourceMode.PER_ENTRY: "category",
    ResourceMode.CHAPTERED: "chapter",
}

# Sentinel used in chapter rules: rows under this "category" are dropped.
EXCLUDE = "EXCLUDE"


class ChapterRule(NamedTuple):
    chapter: str
    category: Category | None  # None means exclude


def check_source_name(name: str) -> None:
    """Raise ValueError unless ``name`` can name a source in the lexicon's
    sources column, which joins names with ``,``: it must not be blank or
    hold a tab, CR, LF or ``,``."""
    if not name.strip():
        raise ValueError(f"source name {name!r} is blank")
    if any(ch in name for ch in "\t\r\n,"):
        raise ValueError(f"source name {name!r} must not contain a tab, CR, LF or ','")


class ResourceSpec(Frozen):
    """Declarative description of one external terminology source.

    An empty ``layout`` stands for the mode's default: the term in column
    0, then any category or chapter column. ``chapter_index`` maps each
    rule's trimmed, lowercased chapter to its category (None: exclude);
    where two rules share a chapter, the first wins. It is derived from
    ``chapter_rules`` once; equality, hashing and repr leave it out.
    """

    _fields = (
        "name", "file", "mode", "trust_rank", "category", "chapter_rules", "chapter_default", "layout"
    )
    __slots__ = _fields + ("chapter_index",)

    def __init__(
        self,
        name: str,
        file: str,
        mode: ResourceMode,
        trust_rank: int,
        category: Category | None = None,
        chapter_rules: tuple[ChapterRule, ...] = (),
        chapter_default: Category | None = None,
        layout: dict[str, int] | None = None,
    ) -> None:
        check_source_name(name)
        if mode is ResourceMode.FIXED and category is None:
            raise ValueError(f"resource {name}: FIXED mode needs a category")
        if mode is ResourceMode.CHAPTERED and not chapter_rules:
            raise ValueError(f"resource {name}: CHAPTERED mode needs chapter rules")
        category_field = _CATEGORY_COLUMN[mode]
        if not layout:
            layout = {"term": 0} if category_field is None else {"term": 0, category_field: 1}
        for column_name, column in layout.items():
            if column < 0:
                raise ValueError(f"resource {name}: layout column {column_name}={column} is negative")
        if "term" not in layout:
            raise ValueError(f"resource {name}: layout must place the term column")
        if category_field is not None and category_field not in layout:
            raise ValueError(
                f"resource {name}: {mode.value} layout needs a {category_field} column"
            )
        index: dict[str, Category | None] = {}
        for rule in chapter_rules:
            index.setdefault(rule.chapter.strip().lower(), rule.category)
        object.__setattr__(self, "name", name)
        object.__setattr__(self, "file", file)
        object.__setattr__(self, "mode", mode)
        object.__setattr__(self, "trust_rank", trust_rank)
        object.__setattr__(self, "category", category)
        object.__setattr__(self, "chapter_rules", chapter_rules)
        object.__setattr__(self, "chapter_default", chapter_default)
        object.__setattr__(self, "layout", layout)
        object.__setattr__(self, "chapter_index", index)

    def category_descriptor(self) -> str:
        """Short per-resource category summary, for report rows."""
        if self.mode is ResourceMode.FIXED:
            return str(self.category)
        return "Multiple"


class SourceRecord(NamedTuple):
    """One categorized term with its origin and trust."""

    term: str
    category: Category
    source: str
    provenance: str
    trust_rank: int


class IngestResult(NamedTuple):
    name: str
    records: tuple[SourceRecord, ...]
    ingested: int
    excluded: int

    @property
    def kept(self) -> int:
        return len(self.records)


class Correction(NamedTuple):
    """A mapped-dictionary category overridden by a trusted resource."""

    term: str
    old_category: Category
    new_category: Category
    resource: str


class MergeReport(NamedTuple):
    resource_counts: tuple[tuple[str, int, int, int], ...]  # name, ingested, kept, excluded
    overlap_pairs: tuple[tuple[str, str, int], ...]
    corrections: tuple[Correction, ...]
    category_counts: dict[str, int]
    total: int


def load_manifest(path: str | Path, mapped_name: str | None = None) -> list[ResourceSpec]:
    """Resource manifest: JSON (a list of objects, or one object per line)
    or TSV. A fault names its line, except that a JSON list's resource
    faults name ``resource #N``. A resource may not take the name of
    another, nor ``mapped_name``, the source name of the mapped entries.

    A TSV row is read as the JSON object it stands for (``_tsv_object``),
    so both formats load, check and word their faults alike. Its columns:
    name, file, mode, category-or-rules (empty for PER_ENTRY), trust_rank,
    layout. Rules use ``chapter=CATEGORY`` pairs joined by ``;`` with ``*``
    for the default; layout uses ``field=column`` pairs joined by ``,``.
    """
    p = Path(path)
    where = str(p)
    text = read_text(p, "manifest")
    jsonl = sniff_format(p) == "jsonl"
    specs = []
    # Each name taken -> the fault of a resource that takes it again.
    names = {} if mapped_name is None else {mapped_name: "name is also the --mapped-name"}
    if jsonl and text.lstrip().startswith("["):
        try:
            data = json.loads(text)
        # RecursionError: nested too deep; a plain ValueError: an integer too long to convert.
        except (ValueError, RecursionError) as exc:
            # A syntax error names its line, or at the end of the text the
            # last line that is not blank; a fault without a position (nested
            # too deep, an integer too long) names the line the list begins on.
            # Python's own "line L column C" counts LF only, so it is left out.
            pos = getattr(exc, "pos", len(text) - len(text.lstrip()))
            at = line_at(text[:pos] if pos < len(text) else text.rstrip())
            raise ParseError(f"bad JSON manifest: {getattr(exc, 'msg', exc)}", where, at) from None
        for i, obj in enumerate(data, start=1):
            try:
                specs.append(_spec(obj, names))
            except ValueError as exc:
                raise ParseError(f"resource #{i}: {exc}", where) from None
        return specs
    for lineno, line in data_lines(split_lines(text), tsv=not jsonl, comments=True):
        try:
            specs.append(_spec(json_object(line) if jsonl else _tsv_object(line), names))
        except ValueError as exc:
            raise ParseError(str(exc), where, lineno) from None
    return specs


def _mode(text: str) -> ResourceMode | None:
    """The mode a manifest names, or None; case, ``-`` and ``_`` do not matter."""
    return ResourceMode.__members__.get(text.strip().upper().replace("-", "_"))


def _tsv_object(line: str) -> dict[str, object]:
    """The JSON manifest object a TSV manifest row stands for. Column 4 is
    a CHAPTERED resource's ``rules``, the default as chapter ``*``, and any
    other resource's ``category``."""
    cols = line.split("\t")
    if len(cols) != 6:
        raise column_count_error("6", len(cols))
    name, file, mode, cat_or_rules, rank, layout_text = cols
    name = name.strip()
    obj: dict[str, object] = {"name": name, "file": file.strip(), "mode": mode,
                              "trust_rank": _tsv_int(name, '"trust_rank"', rank)}
    layout = obj["layout"] = {}
    for pair in layout_text.split(","):
        if pair.strip():
            k, _, v = pair.partition("=")
            layout[k.strip()] = _tsv_int(name, f'layout column "{k.strip()}"', v)
    if _mode(mode) is ResourceMode.CHAPTERED:
        # An empty column gives no rules, which ResourceSpec refuses.
        pairs = cat_or_rules.split(";") if cat_or_rules.strip() else []
        obj["rules"] = [{"chapter": chapter, "category": label}
                        for chapter, _, label in (pair.partition("=") for pair in pairs)]
    else:
        obj["category"] = cat_or_rules
    return obj


def _tsv_int(name: str, key: str, text: str) -> int:
    """A TSV manifest integer, as ``int`` reads it (surrounding spaces and a
    sign allowed)."""
    try:
        return int(text)
    except ValueError:
        raise ValueError(f"resource {name}: {key} must be an integer, not {text!r}") from None


def _spec(obj: object, names: dict[str, str]) -> ResourceSpec:
    """The resource one manifest object declares; ``names`` maps each name
    taken before it to the fault of taking it again, and this one's is
    added. Each value must
    have its JSON type; an optional one (``category``, ``rules``,
    ``default``, ``layout``) may be null or absent, and a category (other
    than empty) or rules that the mode does not use are refused. A fault
    raises ValueError, to which the reader adds where the entry is."""
    if type(obj) is not dict:
        raise ValueError(f"expected a JSON object, got {type(obj).__name__}")
    name = json_field(obj, "name", str)
    try:
        file = json_field(obj, "file", str)
        mode_text = json_field(obj, "mode", str)
        trust_rank = json_field(obj, "trust_rank", int)
        category = json_field(obj, "category", str, optional=True)
        rules = [
            (json_field(rule, "chapter", str), json_field(rule, "category", str))
            for rule in json_field(obj, "rules", list, optional=True, items=dict) or ()
        ]
        default = json_field(obj, "default", str, optional=True)
        layout = json_field(obj, "layout", dict, optional=True, items=int) or {}
        if default is not None:
            rules.append(("*", default))
        mode = _mode(mode_text)
        if mode is None:
            raise ValueError(f"unknown mode {mode_text.strip()!r}")
        if name in names:
            raise ValueError(names[name])
        names[name] = "duplicate resource name"
        if category and mode is not ResourceMode.FIXED:
            raise ValueError(f"{mode.value} mode takes no category")
        if rules and mode is not ResourceMode.CHAPTERED:
            raise ValueError(f"{mode.value} mode takes no chapter rules or default")
        chapter_rules: list[ChapterRule] = []
        chapter_default: Category | None = None
        for chapter, label in rules:
            routed = None if label.strip().upper() == EXCLUDE else parse_category(label)
            if chapter.strip() != "*":
                chapter_rules.append(ChapterRule(chapter, routed))
            elif routed is None:
                raise ValueError("default rule cannot exclude")
            else:
                chapter_default = routed
        fixed = parse_category(category) if category else None
    except ValueError as exc:
        raise ValueError(f"resource {name}: {exc}") from None
    return ResourceSpec(name, file, mode, trust_rank, category=fixed, chapter_rules=tuple(chapter_rules),
                        chapter_default=chapter_default, layout=layout)


def resource_rows(
    spec: ResourceSpec, base_dir: str | Path | None = None
) -> Iterator[tuple[str, Category | None]]:
    """(term, category) for each data row of one resource file, in file
    order; the category is None for a row its chapter rule excludes.

    FIXED stamps the spec category on every row; PER_ENTRY reads the
    category column; CHAPTERED routes rows through the chapter rules. A
    faulty row raises ParseError when the loop reaches it, naming the
    resource, the file and the row's line.
    """
    p = Path(spec.file)
    if base_dir is not None and not p.is_absolute():
        p = Path(base_dir) / p
    text = read_text(p, f"resource {spec.name}")
    need = max(spec.layout.values()) + 1
    term_column = spec.layout["term"]
    category_field = _CATEGORY_COLUMN[spec.mode]
    column = None if category_field is None else spec.layout[category_field]
    chaptered = spec.mode is ResourceMode.CHAPTERED
    # The category (None: excluded) of each distinct category or chapter
    # text. Only a success is cached, so the first row with a bad value
    # raises with its own line.
    resolved: dict[str, Category | None] = {}
    lineno = 0
    try:
        for lineno, line in data_lines(split_lines(text), tsv=True, comments=True):
            cols = line.split("\t")
            if len(cols) < need:
                raise column_count_error(f"at least {need}", len(cols))
            term = cols[term_column].strip()
            if not term:
                raise ValueError("empty term")
            if column is None:
                yield term, spec.category
                continue
            raw = cols[column]
            try:
                category = resolved[raw]
            except KeyError:
                category = resolved[raw] = _route_chapter(spec, raw) if chaptered else parse_category(raw)
            yield term, category
    except ValueError as exc:
        raise ParseError(f"resource {spec.name}: {exc}", str(p), lineno) from None


def ingest_resource(spec: ResourceSpec, base_dir: str | Path | None = None) -> IngestResult:
    """Read one resource file into categorized records; a row its chapter
    rule excludes is counted, not kept."""
    name, rank = spec.name, spec.trust_rank
    records: list[SourceRecord] = []
    append = records.append
    ingested = 0
    for ingested, (term, category) in enumerate(resource_rows(spec, base_dir), start=1):
        if category is not None:
            # What SourceRecord._make does, without the Python-level __new__.
            append(tuple.__new__(SourceRecord, (term, category, name, name, rank)))
    return IngestResult(spec.name, tuple(records), ingested, ingested - len(records))


def _route_chapter(spec: ResourceSpec, chapter: str) -> Category | None:
    """The category a CHAPTERED row's chapter text routes to (None:
    excluded); a chapter no rule names, with no default, raises ValueError."""
    key = chapter.strip().lower()
    category = spec.chapter_index.get(key, spec.chapter_default)
    if category is None and key not in spec.chapter_index:
        raise ValueError(f"chapter {chapter!r} matches no rule and the spec has no default")
    return category


def mapped_records(
    outcomes: Iterable[MappingOutcome],
    name: str = DEFAULT_MAPPED_NAME,
    trust_rank: int = DEFAULT_MAPPED_RANK,
) -> IngestResult:
    """Mapped dictionary outcomes as a mergeable source; unmapped entries
    are counted as excluded."""
    records = []
    ingested = excluded = 0
    for o in outcomes:
        ingested += 1
        if o.category is None:
            excluded += 1
            continue
        records.append(SourceRecord(o.term, o.category, name, str(o.provenance), trust_rank))
    return IngestResult(name, tuple(records), ingested, excluded)


def merge_lexicons(
    mapped: IngestResult | None,
    resources: Sequence[IngestResult],
    lowercase: bool = True,
) -> tuple[list[LexiconRecord], MergeReport]:
    """Merge all sources into one deduplicated lexicon.

    Groups records by normalized term. Within a group the category of
    the lowest trust rank wins; a mapped-dictionary category overridden
    by a more trusted resource is logged as a correction. At the lowest
    rank each source counts once, by its earliest row (a later row that
    disagrees with it is dropped with a warning); disagreements between
    different sources at that rank are refused.
    """
    sources = ([mapped] if mapped is not None else []) + list(resources)
    mapped_name = mapped.name if mapped is not None else None

    # The first record of each key; a key seen again gets its whole group,
    # in source and row order, in ``more``. Most keys are seen once.
    firsts: dict[str, SourceRecord] = {}
    more: dict[str, list[SourceRecord]] = {}
    for result in sources:
        for record in result.records:
            key = normalize_term(record.term, lowercase)
            first = firsts.get(key)
            if first is None:
                firsts[key] = record
            else:
                group = more.get(key)
                if group is None:
                    more[key] = [first, record]
                else:
                    group.append(record)

    conflicts: list[tuple[str, str, str, str, str]] = []
    corrections: list[Correction] = []
    records: list[LexiconRecord] = []
    append = records.append
    # One frozenset per distinct combination of sources, shared by every
    # record with that combination (``single`` finds a one-source set by the
    # source's name); the combinations of two or more sources are counted
    # and expanded into overlap pairs once, after the loop.
    single: dict[str, frozenset[str]] = {}
    shared: dict[frozenset[str], frozenset[str]] = {}
    combination_counts: dict[frozenset[str], int] = {}

    for key in sorted(firsts):
        group = more.get(key)
        if group is None:
            term, category, source, provenance, _ = firsts[key]
            group_sources = single.get(source)
            if group_sources is None:
                combination = frozenset((source,))
                group_sources = single[source] = shared.setdefault(combination, combination)
            # What LexiconRecord._make does, without the Python-level __new__.
            append(tuple.__new__(LexiconRecord, (term, category, group_sources, provenance)))
            continue
        winner = min(group, key=attrgetter("trust_rank"))  # the earliest of the most trusted
        rank, category = winner.trust_rank, winner.category
        if any(r.category is not category and r.trust_rank == rank for r in group):
            conflicts += _equal_rank_conflicts(key, group, winner)
        combination = frozenset([r.source for r in group])
        group_sources = shared.setdefault(combination, combination)
        if len(group_sources) > 1:
            combination_counts[group_sources] = combination_counts.get(group_sources, 0) + 1
        if mapped_name is not None and winner.source != mapped_name:
            for r in group:
                if r.source == mapped_name and r.category is not category:
                    corrections.append(Correction(r.term, r.category, category, winner.source))
                    break
        append(LexiconRecord(winner.term, category, group_sources, winner.provenance))

    if conflicts:
        raise MergeConflictError(conflicts)

    pair_counts: dict[tuple[str, str], int] = {}
    for combination, n in combination_counts.items():
        names = sorted(combination)
        for i, a in enumerate(names):
            for b in names[i + 1 :]:
                pair_counts[(a, b)] = pair_counts.get((a, b), 0) + n

    report = MergeReport(
        resource_counts=tuple(
            (res.name, res.ingested, res.kept, res.excluded) for res in sources
        ),
        overlap_pairs=tuple(
            (a, b, n) for (a, b), n in sorted(pair_counts.items())
        ),
        corrections=tuple(corrections),
        # _value_ is the label str() gives, read without calling the enum's
        # Python-level __str__ or __hash__ (as in render_lexicon).
        category_counts=dict(Counter(r.category._value_ for r in records)),
        total=len(records),
    )
    return records, report


def _equal_rank_conflicts(
    key: str, group: list[SourceRecord], winner: SourceRecord
) -> list[tuple[str, str, str, str, str]]:
    """Disagreements with ``winner`` among the group's rows at its rank.

    Each source counts once, by its earliest such row; a later row of the
    same source that disagrees with it is dropped with a warning.
    """
    conflicts = []
    earliest: dict[str, SourceRecord] = {}
    for r in group:
        if r.trust_rank != winner.trust_rank:
            continue
        first = earliest.setdefault(r.source, r)
        if first is not r:
            if r.category is not first.category:
                log.warning(
                    "term %r has both %s and %s in %s; merge uses the earliest",
                    key,
                    first.category,
                    r.category,
                    r.source,
                )
        elif r.category is not winner.category:
            conflicts.append(
                (key, winner.source, str(winner.category), r.source, str(r.category))
            )
    return conflicts


def format_merge_report(report: MergeReport) -> str:
    width = max([len("resource")] + [len(name) for name, *_ in report.resource_counts])
    lines = [f"{'resource'.ljust(width)}  ingested  kept  excluded"]
    for name, ingested, kept, excluded in report.resource_counts:
        lines.append(f"{name.ljust(width)}  {str(ingested).rjust(8)}  {str(kept).rjust(4)}  {str(excluded).rjust(8)}")
    lines.append("")
    if report.overlap_pairs:
        lines.append("overlapping terms between sources")
        for a, b, n in report.overlap_pairs:
            lines.append(f"  {a} & {b}: {n}")
        lines.append("")
    if report.corrections:
        lines.append("corrections applied to mapped categories")
        for c in report.corrections:
            lines.append(f"  {c.term}: {c.old_category} -> {c.new_category} (by {c.resource})")
        lines.append("")
    lines += count_table("category", report.category_counts, [("total", report.total)])
    return "\n".join(lines) + "\n"


def render_lexicon(records: Sequence[LexiconRecord], fmt: str = "tsv") -> str:
    # Records share their sources sets, so each distinct set is sorted once.
    sorted_sources: dict[frozenset[str], list[str]] = {}
    lines = [] if fmt == "jsonl" else ["term\tcategory\tsources\tprovenance"]
    for term, category, sources, provenance in records:
        names = sorted_sources.get(sources)
        if names is None:
            names = sorted_sources[sources] = sorted(sources)
        if fmt == "jsonl":
            row = {"term": term, "category": category._value_, "sources": names,
                   "provenance": provenance}
            lines.append(json.dumps(row, ensure_ascii=False))
        else:
            lines.append("\t".join((term, category._value_, ",".join(names), provenance)))
    return "\n".join(lines) + "\n"


def export_lexicon(records: Sequence[LexiconRecord], path: str | Path) -> None:
    """Write the merged lexicon as TSV, or as JSON-lines when the path's
    suffix says so, with a stable ordering; callers pass records already
    sorted by merge."""
    write_text(path, render_lexicon(records, sniff_format(path)))

