from __future__ import annotations

import io
import random
import tempfile
import unicodedata
from contextlib import redirect_stdout
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from medlex.cli import main
from medlex.errors import GoldCoverageError, ParseError
from medlex.evaluate import (
    OverlapResult,
    _macro,
    check_coverage,
    format_eval_tsv,
    format_overlap_report,
    mapped_categories,
    overlap_eval,
    parse_merge_groups,
    pct1,
    ratio3,
    read_gold,
    score,
    score_overlap,
    strategy_accuracy,
    stratified_sample,
)
from medlex.merge import SourceRecord
from medlex.model import (
    ASSIGNABLE_CATEGORIES,
    Category,
    MappingOutcome,
    Provenance,
    normalize_term,
)
from medlex.outcomes import write_outcomes


def outcome(entry_id, term, category, provenance=Provenance.KW_1N):
    return MappingOutcome(entry_id, term, category, provenance)


class TestRounding:
    def test_pct1_half_up(self):
        assert pct1(1, 16) == "6.3"  # 6.25 rounds up
        assert pct1(3, 4) == "75.0"
        assert pct1(1, 3) == "33.3"
        assert pct1(2, 3) == "66.7"
        assert pct1(1, 800) == "0.1"  # 0.125
        assert pct1(0, 5) == "0.0"
        assert pct1(5, 5) == "100.0"

    def test_ratio3_half_up(self):
        assert ratio3(1, 2) == "0.500"
        assert ratio3(1, 16) == "0.063"  # 0.0625 rounds up
        assert ratio3(779, 1000) == "0.779"
        assert ratio3(1, 3) == "0.333"

    @given(st.lists(st.integers(1, 10_000).flatmap(lambda den: st.tuples(st.integers(0, den), st.just(den))),
                    min_size=1, max_size=14))
    def test_macro_matches_the_mean_of_fractions(self, pairs):
        mean = sum(Fraction(tp, den) for tp, den in pairs) / len(pairs)
        assert _macro(pairs) == ratio3(mean.numerator, mean.denominator)

    def test_zero_denominator_rejected(self):
        with pytest.raises(ValueError):
            pct1(1, 0)


class TestOverlapEval:
    def test_counts_match_set_intersection_oracle(self):
        mapped = [
            outcome("e1", "a", Category.CONDITION),
            outcome("e2", "b", Category.CONDITION),
            outcome("e3", "c", Category.PROCEDURE),
            outcome("e4", "d", Category.SUBSTANCE),
            outcome("e5", "e", Category.TOOL),
        ]
        resource = [
            ("a", Category.CONDITION),
            ("b", Category.CONDITION),
            ("c", Category.PROCEDURE),
            ("d", Category.CONDITION),
            ("x", Category.CONDITION),
        ]
        # independent oracle: intersect dicts explicitly
        m = {o.term: o.category for o in mapped}
        r = dict(resource)
        shared = set(m) & set(r)
        agree = sum(1 for t in shared if m[t] is r[t])
        assert (len(shared), agree) == (4, 3)

        result = score_overlap(mapped_categories(mapped), resource)
        assert (result.overlap, result.correct) == (4, 3)
        assert result.percent_correct == "75.0"

    def test_disjoint_sets_report_na(self):
        result = score_overlap(
            mapped_categories([outcome("e1", "a", Category.CONDITION)]), [("z", Category.CONDITION)]
        )
        assert result.overlap == 0
        assert result.percent_correct is None

    def test_identical_sets_are_all_correct(self):
        mapped = [outcome(f"e{i}", f"t{i}", Category.CONDITION) for i in range(5)]
        resource = [(f"t{i}", Category.CONDITION) for i in range(5)]
        result = score_overlap(mapped_categories(mapped), resource)
        assert (result.overlap, result.percent_correct) == (5, "100.0")

    def test_permutation_invariance(self):
        mapped = [
            outcome("e1", "a", Category.CONDITION),
            outcome("e2", "b", Category.PROCEDURE),
        ]
        resource = [("b", Category.PROCEDURE), ("a", Category.TOOL)]
        fwd = score_overlap(mapped_categories(mapped), resource)
        rev = score_overlap(mapped_categories(list(reversed(mapped))), list(reversed(resource)))
        assert (fwd.overlap, fwd.correct) == (rev.overlap, rev.correct)

    def test_unmapped_outcomes_ignored(self):
        mapped = [MappingOutcome("e1", "a", None, Provenance.UNMAPPED)]
        result = score_overlap(mapped_categories(mapped), [("a", Category.CONDITION)])
        assert result.overlap == 0

    def test_terms_compared_normalized(self):
        mapped = [outcome("e1", "Aspartam", Category.SUBSTANCE)]
        result = score_overlap(mapped_categories(mapped), [("aspartam", Category.SUBSTANCE)])
        assert (result.overlap, result.correct) == (1, 1)


def reference_overlap(mapped, resource):
    """The overlap score as it was before it scored a resource's rows in
    one pass: both sides folded into whole dicts, first row wins on each
    side. ``resource`` holds the (term, category) rows that have a
    category."""
    mapped_cats = {}
    for o in mapped:
        if o.category is not None:
            mapped_cats.setdefault(normalize_term(o.term), o.category)
    resource_cats = {}
    for term, category in resource:
        resource_cats.setdefault(normalize_term(term), category)

    shared = sorted(set(mapped_cats) & set(resource_cats))
    per_category = {}
    correct = 0
    for term in shared:
        label = str(resource_cats[term])
        bucket = per_category.setdefault(label, [0, 0])
        bucket[0] += 1
        if mapped_cats[term] is resource_cats[term]:
            bucket[1] += 1
            correct += 1
    return OverlapResult(
        overlap=len(shared),
        correct=correct,
        per_category=tuple((k, v[0], v[1]) for k, v in sorted(per_category.items())),
    )


OVERLAP_WORDS = ["blåbær", "allé", "kåpe kniv", "feber"]
OVERLAP_CATEGORIES = [Category.CONDITION, Category.TOOL, Category.PROCEDURE]
# The chapter each category (None: excluded) is written under in a resource file.
CHAPTER_OF = {Category.CONDITION: "c", Category.TOOL: "t", Category.PROCEDURE: "p", None: "x"}


@st.composite
def term_variant(draw):
    """One of a few words in another case, NFC or NFD, padded and with its
    inner space as one or more spaces or a no-break space; no tab, line
    break or leading ``#``, which a resource file would read otherwise."""
    word = draw(st.sampled_from(OVERLAP_WORDS))
    word = unicodedata.normalize(draw(st.sampled_from(["NFC", "NFD"])), word)
    word = draw(st.sampled_from([str.lower, str.upper, str.title]))(word)
    word = word.replace(" ", draw(st.sampled_from([" ", "  ", "\u00a0"])))
    pad = draw(st.sampled_from(["", " ", "\u00a0"]))
    return pad + word + pad


@st.composite
def overlap_inputs(draw):
    """(mapped outcomes, resource rows): the same term repeats on either
    side with other categories, some outcomes are UNMAPPED and some rows
    are excluded (category None)."""
    categories = st.sampled_from([*OVERLAP_CATEGORIES, None])
    outcomes = []
    for i in range(draw(st.integers(0, 8))):
        category = draw(categories)
        provenance = Provenance.UNMAPPED if category is None else Provenance.ITER
        outcomes.append(MappingOutcome(f"e{i}", draw(term_variant()), category, provenance))
    rows = draw(st.lists(st.tuples(term_variant(), categories), max_size=10))
    return outcomes, rows


class TestOverlapOracle:
    @settings(max_examples=200, deadline=None)
    @given(overlap_inputs())
    def test_scorer_matches_the_whole_dict_reference(self, inputs):
        outcomes, rows = inputs
        kept = [(term.strip(), category) for term, category in rows if category is not None]
        assert score_overlap(mapped_categories(outcomes), rows) == reference_overlap(outcomes, kept)

    @settings(max_examples=100, deadline=None)
    @given(overlap_inputs())
    def test_record_adapter_matches_the_scorer(self, inputs):
        """``overlap_eval``, kept for the benchmark's replay, scores a
        resource's records as ``score_overlap`` scores its rows."""
        outcomes, rows = inputs
        records = [SourceRecord(term, category, "RES", "RES", 1)
                   for term, category in rows if category is not None]
        assert overlap_eval(outcomes, records) == score_overlap(mapped_categories(outcomes), rows)

    @settings(max_examples=100, deadline=None)
    @given(overlap_inputs())
    def test_eval_overlap_command_matches_the_reference(self, inputs):
        outcomes, rows = inputs
        kept = [(term.strip(), category) for term, category in rows if category is not None]
        want = format_overlap_report([("R", "Multiple", reference_overlap(outcomes, kept))])
        with tempfile.TemporaryDirectory() as tmp:
            base = Path(tmp)
            write_outcomes(outcomes, base / "mapped.tsv")
            lines = [f"{term}\t{CHAPTER_OF[category]}" for term, category in rows]
            (base / "r.tsv").write_text("".join(line + "\n" for line in lines), encoding="utf-8")
            (base / "m.tsv").write_text(
                "R\tr.tsv\tCHAPTERED\tc=CONDITION;t=TOOL;p=PROCEDURE;x=EXCLUDE\t1\tterm=0,chapter=1\n",
                encoding="utf-8",
            )
            out = io.StringIO()
            with redirect_stdout(out):
                code = main(["eval", "overlap", "--mapped", str(base / "mapped.tsv"),
                             "--manifest", str(base / "m.tsv")])
        assert (code, out.getvalue()) == (0, want)


def build_outcomes(per_provenance: int, category=Category.CONDITION):
    outcomes = []
    strata = (Provenance.SUFF, Provenance.KW_E, Provenance.KW_1N, Provenance.MULTI, Provenance.ITER)
    i = 0
    for provenance in strata:
        for _ in range(per_provenance):
            outcomes.append(outcome(f"e{i}", f"t{i}", category, provenance))
            i += 1
    return outcomes


class TestStratifiedSample:
    def test_under_quota_takes_everything(self):
        outcomes = build_outcomes(per_provenance=8)  # 40 in category
        ids = stratified_sample(outcomes, quota_per_category=100, seed=7)
        assert sorted(ids) == sorted(o.entry_id for o in outcomes)

    def test_balanced_across_strata(self):
        outcomes = build_outcomes(per_provenance=100)  # 500 in category
        ids = stratified_sample(outcomes, quota_per_category=100, seed=7)
        assert len(ids) == 100
        by_id = {o.entry_id: o for o in outcomes}
        per_stratum: dict[str, int] = {}
        for entry_id in ids:
            p = str(by_id[entry_id].provenance)
            per_stratum[p] = per_stratum.get(p, 0) + 1
        assert per_stratum == {"SUFF": 20, "KW_E": 20, "KW_1N": 20, "MULTI": 20, "ITER": 20}

    def test_same_seed_reproduces_sample(self):
        outcomes = build_outcomes(per_provenance=50)
        a = stratified_sample(outcomes, 60, seed=42)
        b = stratified_sample(outcomes, 60, seed=42)
        assert a == b

    def test_different_seed_changes_sample(self):
        outcomes = build_outcomes(per_provenance=50)
        a = stratified_sample(outcomes, 60, seed=1)
        b = stratified_sample(outcomes, 60, seed=2)
        assert a != b

    def test_uneven_strata_round_robin_continues(self):
        # 10 SUFF + 90 KW_1N, quota 20: round robin alternates while both
        # last, then fills from the remaining stratum.
        outcomes = [
            outcome(f"s{i}", f"s{i}", Category.CONDITION, Provenance.SUFF) for i in range(10)
        ] + [
            outcome(f"k{i}", f"k{i}", Category.CONDITION, Provenance.KW_1N) for i in range(90)
        ]
        ids = stratified_sample(outcomes, 20, seed=3)
        suff = sum(1 for i in ids if i.startswith("s"))
        assert suff == 10
        assert len(ids) == 20

    def test_quota_must_be_positive(self):
        with pytest.raises(ValueError):
            stratified_sample([], 0, seed=1)


def score_oracle(gold, predicted, groups=None, exclude_other=False, global_precision=False):
    """Brute-force recount: label translation then plain counting. Returns
    per-label tp, pred_n and gold_n, the number of scored terms, and the
    number of non-OTHER gold terms whose label the prediction matches."""

    def label(category):
        if groups:
            for name, members in groups:
                if category in members:
                    return name
        return str(category)

    scored = {
        t: g for t, g in gold.items() if not (exclude_other and g is Category.OTHER)
    }
    tp: dict[str, int] = {}
    gold_n: dict[str, int] = {}
    pred_n: dict[str, int] = {}
    for t, g in scored.items():
        gold_n[label(g)] = gold_n.get(label(g), 0) + 1
        if label(g) == label(predicted[t]):
            tp[label(g)] = tp.get(label(g), 0) + 1
    for t in predicted if global_precision else scored:
        pred_n[label(predicted[t])] = pred_n.get(label(predicted[t]), 0) + 1
    matches = sum(
        1 for t, g in gold.items() if g is not Category.OTHER and label(g) == label(predicted[t])
    )
    return tp, pred_n, gold_n, len(scored), matches


GOLD3 = {"a": Category.CONDITION, "b": Category.CONDITION, "c": Category.PHYSIOLOGY}
PRED3 = {"a": Category.CONDITION, "b": Category.PHYSIOLOGY, "c": Category.PHYSIOLOGY}


class TestScore:
    def test_identity_predictions_are_perfect(self):
        gold = {f"t{i}": c for i, c in enumerate(ASSIGNABLE_CATEGORIES)}
        report, matrix = score(gold, dict(gold))
        for s in report.per_category:
            if s.gold_n:
                assert s.tp == s.pred_n == s.gold_n
        assert report.micro_precision == (12, 12)
        assert report.scored_n == 12
        assert sum(matrix.row_sums()) == 12

    def test_small_example_counts(self):
        report, _ = score(GOLD3, PRED3)
        by_label = {s.label: s for s in report.per_category}
        cond, phys = by_label["CONDITION"], by_label["PHYSIOLOGY"]
        assert (cond.tp, cond.pred_n, cond.gold_n) == (1, 1, 2)
        assert (phys.tp, phys.pred_n, phys.gold_n) == (1, 2, 1)
        rows = {line.split("\t")[0]: line for line in format_eval_tsv(report).splitlines()}
        assert rows["CONDITION"] == "CONDITION\t1\t1\t2\t1.000\t0.500"
        assert rows["PHYSIOLOGY"] == "PHYSIOLOGY\t1\t2\t1\t0.500\t1.000"
        assert (report.micro_precision[0], report.scored_n) == (2, 3)

    def test_small_example_matches_oracle(self):
        report, matrix = score(GOLD3, PRED3)
        tp, pred_n, gold_n, scored, _ = score_oracle(GOLD3, PRED3)
        for s in report.per_category:
            assert s.tp == tp.get(s.label, 0)
            assert s.pred_n == pred_n.get(s.label, 0)
            assert s.gold_n == gold_n.get(s.label, 0)
        assert report.scored_n == scored

    def test_merged_groups_equal_explicit_relabeling(self):
        gold = {
            "a": Category.SERVICE,
            "b": Category.ORGANIZATION,
            "c": Category.CONDITION,
        }
        predicted = {
            "a": Category.ORGANIZATION,
            "b": Category.SERVICE,
            "c": Category.CONDITION,
        }
        groups = parse_merge_groups("ORG+SER")
        report, _ = score(gold, predicted, merge_groups=groups)
        assert report.micro_precision[0] == 3  # cross-labels count as correct

        # equivalence: relabel inputs explicitly, score without groups
        def relabel(c):
            return Category.SERVICE if c in (Category.SERVICE, Category.ORGANIZATION) else c

        relabeled_report, _ = score(
            {t: relabel(c) for t, c in gold.items()},
            {t: relabel(c) for t, c in predicted.items()},
        )
        assert relabeled_report.micro_precision[0] == report.micro_precision[0]
        assert relabeled_report.scored_n == report.scored_n

    def test_other_included_vs_excluded(self):
        gold = {"a": Category.CONDITION, "b": Category.OTHER}
        predicted = {"a": Category.CONDITION, "b": Category.CONDITION}
        incl, matrix_incl = score(gold, predicted, exclude_other=False)
        excl, matrix_excl = score(gold, predicted, exclude_other=True)
        assert incl.scored_n == 2 and excl.scored_n == 1
        assert "OTHER" in matrix_incl.labels
        assert "OTHER" not in matrix_excl.labels
        # both accuracies are always reported, on fixed denominators
        assert incl.accuracy_incl_other == (1, 2)
        assert incl.accuracy_excl_other == (1, 1)
        assert excl.accuracy_incl_other == (1, 2)

    def test_matrix_sums_reconcile(self):
        report, matrix = score(GOLD3, PRED3)
        assert sum(matrix.row_sums()) == report.scored_n
        assert sum(matrix.col_sums()) == report.scored_n
        by_label = {s.label: s for s in report.per_category}
        for label, row_sum, col_sum in zip(matrix.labels, matrix.row_sums(), matrix.col_sums()):
            assert by_label[label].gold_n == row_sum
            assert by_label[label].pred_n == col_sum

    def test_global_precision_denominator(self):
        gold = {"a": Category.CONDITION}
        predicted = {
            "a": Category.CONDITION,
            "z1": Category.CONDITION,
            "z2": Category.CONDITION,
        }
        local, _ = score(gold, predicted)
        glob, _ = score(gold, predicted, global_precision=True)
        cond_local = next(s for s in local.per_category if s.label == "CONDITION")
        cond_glob = next(s for s in glob.per_category if s.label == "CONDITION")
        assert cond_local.pred_n == 1
        assert cond_glob.pred_n == 3

    def test_missing_prediction_names_term(self):
        with pytest.raises(GoldCoverageError) as got:
            score({"borte": Category.CONDITION}, {})
        assert str(got.value) == "no prediction for 1 gold term(s), the first 'borte'"
        # With the files: both are named, with every missing term counted
        # and the first in gold order shown.
        gold = {"a": Category.CONDITION, "borte": Category.TOOL, "vekk": Category.OTHER}
        with pytest.raises(GoldCoverageError) as got:
            check_coverage(gold, {"a": Category.CONDITION, "z": Category.TOOL}, "g.tsv", "m.tsv")
        assert str(got.value) == "g.tsv: no prediction in m.tsv for 2 gold term(s), the first 'borte'"
        assert (got.value.terms, got.value.exit_code) == (["borte", "vekk"], 5)
        check_coverage(gold, dict.fromkeys(gold, Category.TOOL), "g.tsv", "m.tsv")

    def test_random_pairs_match_oracle(self):
        rng = random.Random(20240817)
        labels = list(ASSIGNABLE_CATEGORIES)
        for _ in range(100):
            n = rng.randint(1, 15)
            terms = [f"t{i}" for i in range(n)]
            gold = {t: rng.choice(labels + [Category.OTHER]) for t in terms}
            # Terms outside the gold set count only in a global precision.
            extra = [f"x{i}" for i in range(rng.randint(0, 5))]
            predicted = {t: rng.choice(labels) for t in terms + extra}
            exclude = rng.random() < 0.5
            global_precision = rng.random() < 0.5
            # Up to three disjoint groups of two or three categories.
            pool = rng.sample(labels, len(labels))
            groups = []
            for _ in range(rng.randint(0, 3)):
                members = frozenset(pool.pop() for _ in range(rng.randint(2, 3)))
                groups.append(("+".join(sorted(map(str, members))), members))
            report, matrix = score(gold, predicted, merge_groups=groups or None,
                                   exclude_other=exclude, global_precision=global_precision)
            tp, pred_n, gold_n, scored, matches = score_oracle(
                gold, predicted, groups, exclude_other=exclude, global_precision=global_precision
            )
            assert {s.label for s in report.per_category} >= set(gold_n) | set(pred_n)
            for s in report.per_category:
                assert s.tp == tp.get(s.label, 0)
                assert s.pred_n == pred_n.get(s.label, 0)
                assert s.gold_n == gold_n.get(s.label, 0)
            assert report.scored_n == scored
            assert sum(matrix.row_sums()) == scored
            non_other = sum(1 for g in gold.values() if g is not Category.OTHER)
            assert report.accuracy_incl_other == (matches, len(gold))
            assert report.accuracy_excl_other == (matches, non_other)


class TestStrategyAccuracy:
    def test_all_multi_correct(self):
        gold = {"a": Category.CONDITION}
        outcomes = [outcome("e1", "a", Category.CONDITION, Provenance.MULTI)]
        assert strategy_accuracy(gold, outcomes) == {"MULTI": (1, 1)}

    def test_nine_of_ten(self):
        gold = {f"t{i}": Category.CONDITION for i in range(10)}
        outcomes = [
            outcome(f"e{i}", f"t{i}", Category.CONDITION, Provenance.SUFF) for i in range(9)
        ] + [outcome("e9", "t9", Category.PROCEDURE, Provenance.SUFF)]
        acc = strategy_accuracy(gold, outcomes)
        assert acc == {"SUFF": (9, 10)}
        assert pct1(*acc["SUFF"]) == "90.0"

    def test_absent_provenance_omitted(self):
        gold = {"a": Category.CONDITION}
        outcomes = [outcome("e1", "a", Category.CONDITION, Provenance.ITER)]
        acc = strategy_accuracy(gold, outcomes)
        assert "SUFF" not in acc

    def test_outcomes_outside_gold_ignored(self):
        gold = {"a": Category.CONDITION}
        outcomes = [
            outcome("e1", "a", Category.CONDITION),
            outcome("e2", "unsampled", Category.CONDITION),
        ]
        assert strategy_accuracy(gold, outcomes) == {"KW_1N": (1, 1)}


class TestGoldFile:
    def test_reads_categories_and_other(self, data_dir):
        gold = read_gold(data_dir / "gold.tsv")
        assert gold["leukemi"] is Category.CONDITION
        assert gold["morbus"] is Category.OTHER
        assert gold["ahus"] is Category.ABBREV  # normalized key

    def test_bad_label_names_term(self, tmp_path):
        path = tmp_path / "g.tsv"
        path.write_text("fin term\tCONDITION\nvond term\tWRONG\n", encoding="utf-8")
        with pytest.raises(ParseError, match="vond term"):
            read_gold(path)

    def test_conflicting_duplicate_rejected(self, tmp_path):
        path = tmp_path / "g.tsv"
        path.write_text("x\tCONDITION\nx\tPROCEDURE\n", encoding="utf-8")
        with pytest.raises(ParseError):
            read_gold(path)


class TestMergeGroups:
    def test_prefixes_resolve(self):
        groups = parse_merge_groups("ORG+SER")
        assert groups[0][0] == "ORG+SER"
        assert groups[0][1] == frozenset({Category.ORGANIZATION, Category.SERVICE})

    def test_full_names_and_hyphens(self):
        groups = parse_merge_groups("ANAT-LOC+PHYSIOLOGY")
        assert groups[0][1] == frozenset({Category.ANAT_LOC, Category.PHYSIOLOGY})

    def test_ambiguous_prefix_rejected(self):
        with pytest.raises(ValueError, match="ambiguous"):
            parse_merge_groups("P+SER")

    def test_single_member_group_rejected(self):
        with pytest.raises(ValueError):
            parse_merge_groups("SER+SERVICE")

    def test_score_checks_the_groups_it_is_given(self):
        with pytest.raises(ValueError, match="OTHER cannot be merged"):
            score({}, {}, merge_groups=[("X", frozenset({Category.OTHER, Category.TOOL}))])
        with pytest.raises(ValueError, match="appears in two merge groups"):
            score({}, {}, merge_groups=parse_merge_groups("ORG+SER") * 2)
