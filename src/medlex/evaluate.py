"""Evaluation protocols: overlap accuracy against external resources,
gold-label precision/recall with confusion matrix and label merging,
per-strategy accuracy, and stratified sampling for manual annotation."""

from __future__ import annotations

import math
import random
from collections import Counter
from pathlib import Path
from typing import TYPE_CHECKING, Iterable, Mapping, NamedTuple, Sequence

from .errors import GoldCoverageError, ParseError
from .io import column_count_error, data_lines, read_text
from .model import (
    ASSIGNABLE_CATEGORIES,
    Category,
    MappingOutcome,
    Provenance,
    normalize_term,
    parse_category,
)

if TYPE_CHECKING:
    # Only an annotation: each command imports merge only when it runs it.
    from .merge import SourceRecord

# Sampling strata: the three base strategies plus the two derived ones.
SAMPLE_STRATA: tuple[Provenance, ...] = (
    Provenance.SUFF,
    Provenance.KW_E,
    Provenance.KW_1N,
    Provenance.MULTI,
    Provenance.ITER,
)


def _fixed(num: int, den: int, places: int) -> str:
    """num/den with ``places`` decimals, exact integer arithmetic, half-up."""
    if den <= 0:
        raise ValueError("denominator must be positive")
    scale = 10**places
    units = (2 * scale * num + den) // (2 * den)
    return f"{units // scale}.{units % scale:0{places}d}"


def pct1(num: int, den: int) -> str:
    """Percentage with one decimal, half-up."""
    return _fixed(100 * num, den, 1)


def ratio3(num: int, den: int) -> str:
    """Ratio with three decimals, half-up."""
    return _fixed(num, den, 3)


def _ratio(num: int, den: int, empty: str = "N/A") -> str:
    """``ratio3``, or ``empty`` when there is nothing to divide by."""
    return empty if den == 0 else ratio3(num, den)


# ---------------------------------------------------------------------------
# overlap evaluation (mapped entries vs one external resource)


class OverlapResult(NamedTuple):
    overlap: int
    correct: int
    per_category: tuple[tuple[str, int, int], ...]  # label, overlap, correct

    @property
    def percent_correct(self) -> str | None:
        """Formatted percentage, or None (reported as N/A) when there is
        no overlap."""
        if self.overlap == 0:
            return None
        return pct1(self.correct, self.overlap)


def mapped_categories(outcomes: Iterable[MappingOutcome]) -> dict[str, Category]:
    """The category of each mapped term, keyed by its normalized lowercase
    form; where a term repeats, its first mapped outcome wins."""
    categories: dict[str, Category] = {}
    for o in outcomes:
        if o.category is not None:
            categories.setdefault(normalize_term(o.term), o.category)
    return categories


def overlap_eval(
    mapped: Iterable[MappingOutcome], resource: Iterable[SourceRecord]
) -> OverlapResult:
    """Score mapped entries against one resource's records on shared terms,
    as ``score_overlap`` does."""
    return score_overlap(mapped_categories(mapped), ((r.term, r.category) for r in resource))


def score_overlap(
    categories: Mapping[str, Category], rows: Iterable[tuple[str, Category | None]]
) -> OverlapResult:
    """Score the mapped entries, as ``mapped_categories`` gives them, against
    one resource's (term, category) rows on shared terms.

    Terms are compared in normalized lowercase form, each resource term
    normalized once. Where the resource repeats a term its first row
    decides; a row without a category (excluded by a chapter rule) never
    counts.
    """
    # Only the keys both sides have are kept.
    shared: dict[str, Category] = {}
    for term, category in rows:
        if category is None:
            continue
        key = normalize_term(term)
        if key in categories and key not in shared:
            shared[key] = category
    # Gold scoring with the resource as the gold side.
    report, _ = score(shared, categories)
    return OverlapResult(
        overlap=report.scored_n,
        correct=report.accuracy_incl_other[0],
        per_category=tuple((s.label, s.gold_n, s.tp) for s in report.per_category if s.gold_n),
    )


# ---------------------------------------------------------------------------
# stratified sampling


def stratified_sample(
    outcomes: Sequence[MappingOutcome], quota_per_category: int, seed: int
) -> list[str]:
    """Pick entry ids for manual annotation, balanced per category.

    Categories at or below the quota contribute everything they have;
    larger ones are filled by round-robin over provenance strata with a
    seeded shuffle inside each stratum, so a fixed seed reproduces the
    sample exactly.
    """
    if quota_per_category < 1:
        raise ValueError("quota must be >= 1")
    rng = random.Random(seed)
    # _value_ is the label str() gives, without the enum's Python-level __str__ and __hash__.
    by_category: dict[str, list[MappingOutcome]] = {}
    for o in outcomes:
        if o.category is not None:
            by_category.setdefault(o.category._value_, []).append(o)

    sample: list[str] = []
    for label in sorted(by_category):
        members = by_category[label]
        if len(members) <= quota_per_category:
            sample.extend(o.entry_id for o in members)
            continue
        strata: dict[str, list[str]] = {p._value_: [] for p in SAMPLE_STRATA}
        for o in members:
            strata[o.provenance._value_].append(o.entry_id)
        for stratum in strata.values():
            rng.shuffle(stratum)
        # Members outnumber the quota, so each round picks at least one.
        picked: list[str] = []
        while len(picked) < quota_per_category:
            for stratum in strata.values():
                if stratum and len(picked) < quota_per_category:
                    picked.append(stratum.pop())
        sample.extend(picked)
    return sample


# ---------------------------------------------------------------------------
# gold scoring


class ConfusionMatrix(NamedTuple):
    """Square gold x predicted count grid over an ordered label set."""

    labels: tuple[str, ...]
    counts: tuple[tuple[int, ...], ...]

    def row_sums(self) -> tuple[int, ...]:
        return tuple(sum(row) for row in self.counts)

    def col_sums(self) -> tuple[int, ...]:
        return tuple(sum(row[j] for row in self.counts) for j in range(len(self.labels)))

    def to_csv(self) -> str:
        lines = ["gold\\pred," + ",".join(self.labels)]
        for label, row in zip(self.labels, self.counts):
            lines.append(label + "," + ",".join(str(n) for n in row))
        return "\n".join(lines) + "\n"


class CategoryScore(NamedTuple):
    label: str
    tp: int
    pred_n: int
    gold_n: int


class EvalReport(NamedTuple):
    per_category: tuple[CategoryScore, ...]
    scored_n: int
    accuracy_incl_other: tuple[int, int]  # matches, total over all gold terms
    accuracy_excl_other: tuple[int, int]  # matches, total over non-OTHER terms

    @property
    def micro_precision(self) -> tuple[int, int]:
        return (
            sum(s.tp for s in self.per_category),
            sum(s.pred_n for s in self.per_category),
        )

    @property
    def micro_recall(self) -> tuple[int, int]:
        return (
            sum(s.tp for s in self.per_category),
            sum(s.gold_n for s in self.per_category),
        )


def _merge_label_map(
    merge_groups: Sequence[tuple[str, frozenset[Category]]] | None,
) -> dict[Category, str]:
    """Each category's label: its own, or its group's. Raises ValueError unless every
    group holds two or more categories, none OTHER, and no two groups share one."""
    mapping: dict[Category, str] = {c: str(c) for c in Category}
    seen: set[Category] = set()
    for group_label, members in merge_groups or ():
        if len(members) < 2:
            raise ValueError(f"merge group needs at least two distinct categories: {group_label!r}")
        for member in members:
            if member is Category.OTHER:
                raise ValueError("OTHER cannot be merged into a group")
            if member in seen:
                raise ValueError(f"category {member} appears in two merge groups")
            seen.add(member)
            mapping[member] = group_label
    return mapping


def check_coverage(gold: Mapping[str, Category], predicted: Mapping[str, Category], *files: str) -> None:
    """Raise GoldCoverageError unless every gold term is in ``predicted``;
    ``files``, when given, are the gold file and the outcome file."""
    missing = [term for term in gold if term not in predicted]
    if missing:
        raise GoldCoverageError(missing, *files)


def score(
    gold: Mapping[str, Category],
    predicted: Mapping[str, Category],
    merge_groups: Sequence[tuple[str, frozenset[Category]]] | None = None,
    exclude_other: bool = False,
    global_precision: bool = False,
) -> tuple[EvalReport, ConfusionMatrix]:
    """Per-category precision/recall and confusion matrix over gold terms.

    Every gold term must be present in ``predicted``. OTHER-labeled gold
    terms are dropped before scoring when ``exclude_other`` is set.
    ``merge_groups`` collapses member categories into one label on both
    axes. Precision denominators are restricted to the scored terms
    unless ``global_precision`` asks for the whole predicted map.
    """
    check_coverage(gold, predicted)
    label_of = _merge_label_map(merge_groups)
    other = str(Category.OTHER)
    has_other = not exclude_other and Category.OTHER in gold.values()
    labels = sorted({label_of[c] for c in ASSIGNABLE_CATEGORIES})
    if has_other:
        labels.append(other)
    index = {label: i for i, label in enumerate(labels)}
    scored = gold
    if exclude_other:
        scored = {t: g for t, g in gold.items() if g is not Category.OTHER}

    grid = [[0] * len(labels) for _ in labels]
    for term, g in scored.items():
        grid[index[label_of[g]]][index[label_of[predicted[term]]]] += 1
    matrix = ConfusionMatrix(tuple(labels), tuple(tuple(row) for row in grid))
    tp = [grid[i][i] for i in range(len(labels))]
    gold_n, pred_n = matrix.row_sums(), matrix.col_sums()
    if global_precision:
        everywhere = Counter(label_of[c] for c in predicted.values())
        pred_n = tuple(everywhere[label] for label in labels)

    # Every non-OTHER gold term is scored, in a row of its own label; a gold
    # OTHER term, scored or not, never matches.
    assignable = len(labels) - has_other
    matches = sum(tp[:assignable])
    report = EvalReport(
        per_category=tuple(map(CategoryScore, labels, tp, pred_n, gold_n)),
        scored_n=len(scored),
        accuracy_incl_other=(matches, len(gold)),
        accuracy_excl_other=(matches, sum(gold_n[:assignable])),
    )
    return report, matrix


def strategy_accuracy(
    gold: Mapping[str, Category], outcomes: Iterable[MappingOutcome]
) -> dict[str, tuple[int, int]]:
    """Correct/total per provenance over outcomes covered by the gold map.

    Provenances with no sampled outcomes are simply absent from the
    result rather than reported as zero.
    """
    result: dict[str, tuple[int, int]] = {}
    for o in outcomes:
        if o.category is None:
            continue
        key = normalize_term(o.term)
        if key not in gold:
            continue
        correct, total = result.get(str(o.provenance), (0, 0))
        total += 1
        if gold[key] is o.category:
            correct += 1
        result[str(o.provenance)] = (correct, total)
    return result


# ---------------------------------------------------------------------------
# gold file I/O and report rendering


def read_gold(path: str | Path) -> dict[str, Category]:
    """Gold file: term<TAB>CATEGORY rows; OTHER allowed; terms normalized."""
    p = Path(path)
    text = read_text(p, "gold file")
    gold: dict[str, Category] = {}
    lineno, cols = 0, []
    try:
        for lineno, line in data_lines(text, tsv=True, comments=True):
            cols = line.split("\t")
            if len(cols) != 2:
                raise column_count_error("2", len(cols))
            term = normalize_term(cols[0])
            category = parse_category(cols[1], allow_other=True)
            if gold.setdefault(term, category) is not category:
                raise ValueError("labeled twice with different categories")
    except ValueError as exc:
        # A row of two columns names its term.
        named = f"term {cols[0]!r}: " if len(cols) == 2 else ""
        raise ParseError(f"{named}{exc}", str(p), lineno) from None
    return gold


def parse_merge_groups(
    spec: str,
) -> list[tuple[str, frozenset[Category]]]:
    """Parse ``--merge-labels`` values like ``ORG+SER`` or
    ``ORGANIZATION+SERVICE,ANAT-LOC+PHYSIOLOGY``; components may be
    unambiguous prefixes of category names. Groups are checked as ``score`` checks them."""
    groups = []
    for group_text in spec.split(","):
        group_text = group_text.strip()
        members = frozenset(
            _resolve_category(part.strip()) for part in group_text.split("+")
        )
        groups.append((group_text, members))
    _merge_label_map(groups)
    return groups


def _resolve_category(text: str) -> Category:
    try:
        return parse_category(text)
    except ValueError:
        pass
    key = text.strip().upper().replace("-", "_")
    hits = [c for c in ASSIGNABLE_CATEGORIES if c.value.startswith(key)]
    if len(hits) != 1:
        raise ValueError(f"category {text!r} is unknown or ambiguous")
    return hits[0]


def format_eval_report(
    report: EvalReport, strategy_acc: Mapping[str, tuple[int, int]] | None = None
) -> str:
    rows = sorted(report.per_category, key=lambda s: s.label)
    width = max([len("category"), len("total (micro)"), len("total (macro)")] + [len(s.label) for s in rows])
    lines = [f"{'category'.ljust(width)}  precision  recall  gold_n"]
    for s in rows:
        lines.append(
            f"{s.label.ljust(width)}  {_ratio(s.tp, s.pred_n):>9}  {_ratio(s.tp, s.gold_n):>6}  {s.gold_n}"
        )
    micro_p, micro_r = _ratio(*report.micro_precision), _ratio(*report.micro_recall)
    lines.append(f"{'total (micro)'.ljust(width)}  {micro_p:>9}  {micro_r:>6}  {report.scored_n}")
    macro_p = [(s.tp, s.pred_n) for s in rows if s.pred_n > 0]
    macro_r = [(s.tp, s.gold_n) for s in rows if s.gold_n > 0]
    macro_p_s = _macro(macro_p) if macro_p else "N/A"
    macro_r_s = _macro(macro_r) if macro_r else "N/A"
    lines.append(f"{'total (macro)'.ljust(width)}  {macro_p_s:>9}  {macro_r_s:>6}")
    lines.append("")
    for which, (num, den) in (("incl", report.accuracy_incl_other), ("excl", report.accuracy_excl_other)):
        lines.append(f"accuracy {which} OTHER  " + ("N/A" if den == 0 else pct1(num, den) + "%"))
    if strategy_acc:
        lines.append("")
        lines.append("strategy  correct  total  accuracy")
        for name in sorted(strategy_acc):
            correct, total = strategy_acc[name]
            lines.append(
                f"{name.ljust(8)}  {str(correct).rjust(7)}  {str(total).rjust(5)}  {pct1(correct, total)}%"
            )
    return "\n".join(lines) + "\n"


def _macro(pairs: list[tuple[int, int]]) -> str:
    # Mean of the exact per-label ratios, summed over their least common
    # denominator: no float drift, and ratio3 rounds num/den as it would
    # the reduced fraction.
    common = math.lcm(*(den for _, den in pairs))
    return ratio3(sum(tp * (common // den) for tp, den in pairs), common * len(pairs))


def format_eval_tsv(report: EvalReport) -> str:
    lines = ["label\ttp\tpred_n\tgold_n\tprecision\trecall"]
    for s in sorted(report.per_category, key=lambda s: s.label):
        precision, recall = _ratio(s.tp, s.pred_n, ""), _ratio(s.tp, s.gold_n, "")
        lines.append(f"{s.label}\t{s.tp}\t{s.pred_n}\t{s.gold_n}\t{precision}\t{recall}")
    return "\n".join(lines) + "\n"


def format_overlap_report(
    rows: Sequence[tuple[str, str, OverlapResult]]
) -> str:
    """Rows of (resource name, category descriptor, result)."""
    width = max([len("resource")] + [len(name) for name, _, _ in rows])
    lines = [f"{'resource'.ljust(width)}  overlap  correct(%)  category"]
    for name, descriptor, result in rows:
        percent = result.percent_correct
        lines.append(
            f"{name.ljust(width)}  {str(result.overlap).rjust(7)}  "
            f"{(percent if percent is not None else 'N/A').rjust(10)}  {descriptor}"
        )
        for label, n, correct in result.per_category:
            lines.append(
                f"{''.ljust(width)}    {label}: {correct}/{n} ({pct1(correct, n)}%)"
            )
    return "\n".join(lines) + "\n"
