"""Ingestion of external terminology resources under declarative specs,
merging with mapped dictionary output, deduplication, and the
overlap-based automatic correction of mapped categories."""

from __future__ import annotations

import enum
import logging
from collections import Counter
from itertools import chain
from operator import itemgetter
from pathlib import Path
from typing import Iterable, Iterator, NamedTuple, Sequence

from .errors import MergeConflictError, ParseError
from .io import (column_count_error, data_lines, json_document, json_field, json_lines, json_object, json_string,
                 read_text, sniff_format, write_texts)
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

    A blank ``file`` is refused: it would name the manifest's directory.
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
        if not file.strip():
            raise ValueError(f"resource {name}: file is blank")
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


# The lexicon file's columns, and the keys of its JSON lines.
LEXICON_HEADER = LexiconRecord._fields


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
        for i, obj in enumerate(json_document(text, where, "manifest"), start=1):
            try:
                specs.append(_spec(obj, names))
            except ValueError as exc:
                raise ParseError(f"resource #{i}: {exc}", where) from None
        return specs
    for lineno, line in data_lines(text, tsv=not jsonl, comments=True):
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
    check_source_name(name)  # first, as in _spec
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
    added. The name is checked first, as every later fault names it. Each
    value must have its JSON type; an optional one (``category``, ``rules``,
    ``default``, ``layout``) may be null or absent, and a category (other
    than empty) or rules that the mode does not use are refused. A fault
    raises ValueError, to which the reader adds where the entry is."""
    if type(obj) is not dict:
        raise ValueError(f"expected a JSON object, got {type(obj).__name__}")
    name = json_field(obj, "name", str)
    check_source_name(name)
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


def resource_path(spec: ResourceSpec, base_dir: str | Path | None = None) -> Path:
    """The file of a resource: ``spec.file``, under ``base_dir`` unless it is absolute."""
    p = Path(spec.file)
    return p if base_dir is None or p.is_absolute() else Path(base_dir) / p


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
    p = resource_path(spec, base_dir)
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
        for lineno, line in data_lines(text, tsv=True, comments=True):
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


def _route_chapter(spec: ResourceSpec, chapter: str) -> Category | None:
    """The category a CHAPTERED row's chapter text routes to (None:
    excluded); a chapter no rule names, with no default, raises ValueError."""
    key = chapter.strip().lower()
    category = spec.chapter_index.get(key, spec.chapter_default)
    if category is None and key not in spec.chapter_index:
        raise ValueError(f"chapter {chapter!r} matches no rule and the spec has no default")
    return category


# A source for ``merge_sources``: its name, its trust rank and its rows,
# (term, category, provenance) in order; a row whose category is None is
# counted as excluded.
Source = tuple[str, int, Iterable[tuple[str, Category | None, str]]]


def resource_source(spec: ResourceSpec, base_dir: str | Path | None = None) -> Source:
    """One resource as a source for ``merge_sources``, its file read when
    the merge reaches it; a row's provenance is the resource's name."""
    name = spec.name
    return name, spec.trust_rank, ((term, category, name) for term, category in resource_rows(spec, base_dir))


def mapped_source(
    outcomes: Iterable[MappingOutcome],
    name: str = DEFAULT_MAPPED_NAME,
    trust_rank: int = DEFAULT_MAPPED_RANK,
) -> Source:
    """Mapped dictionary outcomes as a source for ``merge_sources``; an
    unmapped entry is counted as excluded."""
    # _value_ is the label str() gives, read without the enum's Python-level __str__.
    return name, trust_rank, ((o.term, o.category, o.provenance._value_) for o in outcomes)


def _ingest(source: Source) -> IngestResult:
    """A source's rows as records; a row without a category is counted, not kept."""
    name, rank, rows = source
    records = []
    ingested = 0
    for ingested, (term, category, provenance) in enumerate(rows, start=1):
        if category is not None:
            records.append(SourceRecord(term, category, name, provenance, rank))
    return IngestResult(name, tuple(records), ingested, ingested - len(records))


def ingest_resource(spec: ResourceSpec, base_dir: str | Path | None = None) -> IngestResult:
    """Read one resource file into records, as ``resource_source`` reads it."""
    return _ingest(resource_source(spec, base_dir))


def mapped_records(
    outcomes: Iterable[MappingOutcome],
    name: str = DEFAULT_MAPPED_NAME,
    trust_rank: int = DEFAULT_MAPPED_RANK,
) -> IngestResult:
    """Mapped dictionary outcomes as records, as ``mapped_source`` reads
    them; unmapped entries are counted as excluded."""
    return _ingest(mapped_source(outcomes, name, trust_rank))


def merge_sources(
    mapped: Source | None,
    resources: Iterable[Source],
    lowercase: bool = True,
) -> tuple[list[tuple[str, str, str, str]], MergeReport]:
    """Merge the sources, the mapped one first, into the lexicon's rows,
    one per normalized term, sorted by it. A row is a plain tuple of the
    four columns ``LexiconRecord`` names.

    Within a term's group of rows the category of the lowest trust rank
    wins; a mapped-dictionary category overridden by a more trusted
    resource is logged as a correction. At the lowest rank each source
    counts once, by its earliest row (a later row that disagrees with it
    is dropped with a warning); disagreements between different sources
    at that rank are refused. Each source's name must pass
    ``check_source_name`` and differ from the others' (ValueError).

    A term's row is built at its first row; a term met again keeps its
    rows, and only those groups are resolved.
    """
    sources = resources if mapped is None else chain([mapped], resources)
    mapped_name = None if mapped is None else mapped[0]
    lexicon: dict[str, tuple[str, str, str, str]] = {}
    setdefault = lexicon.setdefault
    # The rows of each key met more than once, in source and row order.
    more: dict[str, list[tuple[str, str, str, str]]] = {}
    ranks: dict[str, int] = {}
    # The one string for each combination of sources (a lone name is one).
    combinations: dict[str, str] = {}
    resource_counts = []
    for name, rank, rows in sources:
        check_source_name(name)
        if name in ranks:
            raise ValueError(f"source name {name!r} is given twice")
        ranks[name] = rank
        combinations[name] = name
        ingested = excluded = 0
        for ingested, (term, category, provenance) in enumerate(rows, start=1):
            if category is None:
                excluded += 1
                continue
            key = normalize_term(term, lowercase)
            row = (term, category._value_, name, provenance)
            first = setdefault(key, row)
            if first is not row:
                group = more.get(key)
                if group is None:
                    more[key] = [first, row]
                else:
                    group.append(row)
        resource_counts.append((name, ingested, ingested - excluded, excluded))

    conflicts: list[tuple[str, str, str, str, str]] = []
    corrections: list[Correction] = []
    combination_counts: dict[str, int] = {}  # of two or more sources
    for key in sorted(more):
        group = more[key]
        # The winner: the earliest row of the lowest trust rank.
        term, label, source, provenance = min(group, key=lambda r: ranks[r[2]])
        rank = ranks[source]
        # At the winner's rank each source counts once, by the label of its
        # earliest row; a later row that disagrees with it is dropped.
        earliest: dict[str, str] = {}
        names = set()
        corrected = source == mapped_name  # the mapped category won: nothing to correct
        for row_term, row_label, name, _ in group:
            names.add(name)
            if ranks[name] == rank:
                first_label = earliest.get(name)
                if first_label is None:
                    earliest[name] = row_label
                    if row_label != label:
                        conflicts.append((key, source, label, name, row_label))
                elif row_label != first_label:
                    log.warning("term %r has both %s and %s in %s; merge uses the earliest",
                                key, first_label, row_label, name)
            if not corrected and name == mapped_name and row_label != label:
                # A label is its member's name.
                corrections.append(Correction(row_term, Category[row_label], Category[label], source))
                corrected = True
        sources_column = ",".join(sorted(names))
        sources_column = combinations.setdefault(sources_column, sources_column)
        if "," in sources_column:
            combination_counts[sources_column] = combination_counts.get(sources_column, 0) + 1
        lexicon[key] = (term, label, sources_column, provenance)

    if conflicts:
        raise MergeConflictError(conflicts)

    pair_counts: dict[tuple[str, str], int] = {}
    for sources_column, n in combination_counts.items():
        combination = sources_column.split(",")
        for i, a in enumerate(combination):
            for b in combination[i + 1 :]:
                pair_counts[(a, b)] = pair_counts.get((a, b), 0) + n

    rows = [lexicon[key] for key in sorted(lexicon)]
    report = MergeReport(
        resource_counts=tuple(resource_counts),
        overlap_pairs=tuple((a, b, n) for (a, b), n in sorted(pair_counts.items())),
        corrections=tuple(corrections),
        category_counts=dict(Counter(map(itemgetter(1), rows))),
        total=len(rows),
    )
    return rows, report


def merge_lexicons(
    mapped: IngestResult | None,
    resources: Sequence[IngestResult],
    lowercase: bool = True,
) -> tuple[list[LexiconRecord], MergeReport]:
    """``merge_sources`` over ingested records, its rows as records: each
    result is a source at the rank its records carry, counted as it was
    ingested."""

    def source(result: IngestResult) -> Source:
        rank = result.records[0].trust_rank if result.records else 0  # no rows, no rank used
        return result.name, rank, [(r.term, r.category, r.provenance) for r in result.records]

    rows, report = merge_sources(None if mapped is None else source(mapped), map(source, resources), lowercase)
    results = ([mapped] if mapped is not None else []) + list(resources)
    counts = tuple((r.name, r.ingested, r.kept, r.excluded) for r in results)
    return list(map(LexiconRecord._make, rows)), report._replace(resource_counts=counts)


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


def render_lexicon(records: Sequence[tuple[str, str, str, str]], fmt: str = "tsv") -> str:
    """The lexicon's text from its rows (or records): TSV with a header,
    or one JSON object per row, with the header's keys, whose ``sources``
    lists the names the row joins with ``,``; no rows give empty JSON
    lines."""
    if fmt != "jsonl":
        return "\n".join(["\t".join(LEXICON_HEADER), *map("\t".join, records)]) + "\n"
    enc = json_string
    # Rows with one combination of sources share its string: each distinct
    # one is encoded once, as a JSON list.
    lists = {sources: "[" + ", ".join(map(enc, sources.split(","))) + "]" for sources in {r[2] for r in records}}
    return json_lines(
        LEXICON_HEADER,
        ((enc(term), enc(category), lists[sources], enc(provenance))
         for term, category, sources, provenance in records),
    )


def export_lexicon(records: Sequence[tuple[str, str, str, str]], path: str | Path) -> None:
    """Write the merged lexicon as TSV, or as JSON-lines when the path's
    suffix says so, in the order of ``records``."""
    write_texts([(path, render_lexicon(records, sniff_format(path)))])
