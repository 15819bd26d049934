"""Acceptance suite: one test per release criterion, each printing a
PASS/FAIL line. Run with ``pytest tests/test_acceptance.py -v -s``."""

from __future__ import annotations

import functools
import itertools
import random
import time

from medlex.cli import main
from medlex.defaults import default_keyword_table, default_stops, default_suffix_table
from medlex.evaluate import score, stratified_sample
from medlex.merge import load_manifest, mapped_source, merge_sources, resource_rows, resource_source
from medlex.model import (
    ASSIGNABLE_CATEGORIES,
    Category,
    MappingOutcome,
    Provenance,
    Vote,
    normalize_term,
)
from medlex.pipeline import map_dictionary, resolve_votes
from medlex.strategies import KeywordTable, contained_keyword, kw_entry_vote, suffix_vote
from tests.conftest import DATA, load_fixture_entries
from tests.test_evaluate import score_oracle
from tests.test_pipeline import resolver_oracle


def criterion(name):
    def decorate(fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            try:
                fn(*args, **kwargs)
            except BaseException:
                print(f"[FAIL] {name}")
                raise
            print(f"[PASS] {name}")

        return wrapper

    return decorate


# Mapped entry examples with their categories, one pair per category row.
GOLDEN_ENTRIES = {
    "Ahus": Category.ABBREV,
    "ADH": Category.ABBREV,
    "fødselskanalen": Category.ANAT_LOC,
    "halsmusklene": Category.ANAT_LOC,
    "leukemi": Category.CONDITION,
    "leverkoma": Category.CONDITION,
    "dietetikk": Category.DISCIPLINE,
    "biomekanikk": Category.DISCIPLINE,
    "kolibakterie": Category.MICROORG,
    "blodparasitter": Category.MICROORG,
    "Røde Kors": Category.ORGANIZATION,
    "sanatorium": Category.ORGANIZATION,
    "myop": Category.PERSON,
    "nevrolog": Category.PERSON,
    "adsorpsjon": Category.PHYSIOLOGY,
    "forbrenning": Category.PHYSIOLOGY,
    "nyrebiopsi": Category.PROCEDURE,
    "detoksifisering": Category.PROCEDURE,
    "tannhelsetjeneste": Category.SERVICE,
    "sjelesorg": Category.SERVICE,
    "aspartam": Category.SUBSTANCE,
    "paracetamol": Category.SUBSTANCE,
    "diatermikniv": Category.TOOL,
    "defibrillator": Category.TOOL,
}


@criterion("golden table: published example entries map to their categories")
def test_golden_entry_examples():
    started = time.perf_counter()
    outcomes = map_dictionary(
        load_fixture_entries(conllu=False),
        default_suffix_table(),
        default_keyword_table(),
        default_stops(),
    )
    by_term = {o.term: o for o in outcomes}
    for term, expected in GOLDEN_ENTRIES.items():
        outcome = by_term[term]
        assert outcome.category is expected, (
            f"{term}: expected {expected}, got {outcome.category} "
            f"({outcome.provenance})"
        )
    elapsed = time.perf_counter() - started
    assert elapsed < 1.0, f"golden suite took {elapsed:.2f}s"


@criterion("suffix table: every shipped suffix classifies a synthetic term")
def test_suffix_suite():
    table = default_suffix_table()
    for suffix, category in table.entries:
        vote = suffix_vote("xxx" + suffix, table)
        assert vote is not None, suffix
        assert vote.category is category, suffix
        assert vote.strategy is Provenance.SUFF
        # boundary: a term equal to the suffix itself is not a proper
        # match for that suffix (a strictly shorter nested one may fire)
        boundary = suffix_vote(suffix, table)
        if boundary is not None:
            assert boundary.trigger != suffix, suffix
            assert suffix.endswith(boundary.trigger) and len(boundary.trigger) < len(suffix)


@criterion("containment: length and position constraints always hold")
def test_containment_rules():
    keywords = default_keyword_table()
    rng = random.Random(101)
    alphabet = "abcdefghijklmnopqrstuvwxyzæøå "
    kw_pool = [kw for kw, _ in keywords.entries]
    for _ in range(2000):
        base = "".join(rng.choice(alphabet) for _ in range(rng.randint(0, 12)))
        if rng.random() < 0.5:
            base += rng.choice(kw_pool)
        if rng.random() < 0.5:
            base += "".join(rng.choice(alphabet) for _ in range(rng.randint(0, 6)))
        hit = contained_keyword(base, keywords)
        if hit is not None:
            keyword, category, pos = hit
            assert pos >= 1
            assert len(keyword) > 4
            assert base[pos : pos + len(keyword)] == keyword
            assert dict(keywords.entries)[keyword] is category

    negative = KeywordTable((("tap", Category.CONDITION),))
    assert contained_keyword("katapleksi", negative) is None

    false_positive = KeywordTable((("person", Category.PERSON),))
    vote = kw_entry_vote("schizoid personlighetstype", false_positive)
    assert vote is not None and vote.category is Category.PERSON
    assert vote.position == 9


@criterion("resolver: exhaustive enumeration matches the brute-force oracle")
def test_resolver_law():
    categories = (Category.CONDITION, Category.PROCEDURE, Category.SERVICE)
    strategies = (Provenance.SUFF, Provenance.KW_E, Provenance.KW_1N)
    total = 0
    for r in range(len(strategies) + 1):
        for subset in itertools.combinations(strategies, r):
            for assignment in itertools.product(categories, repeat=r):
                votes = [Vote(s, c, "t") for s, c in zip(subset, assignment)]
                expected = resolver_oracle(votes)
                assert resolve_votes(votes) == expected
                category, provenance = expected
                if r >= 2:
                    distinct = {v.category for v in votes}
                    if len(distinct) == 1:
                        assert provenance is Provenance.MULTI
                    else:
                        by_strategy = {v.strategy: v for v in votes}
                        for s in (Provenance.SUFF, Provenance.KW_E, Provenance.KW_1N):
                            if s in by_strategy:
                                assert category is by_strategy[s].category
                                break
                total += 1
    assert total == 64  # 1 + 3*3 + 3*3^2 + 1*3^3 vote configurations


def _fixture_outcomes(iter_rounds):
    return map_dictionary(
        load_fixture_entries(conllu=False),
        default_suffix_table(),
        default_keyword_table(),
        default_stops(),
        iter_rounds,
    )


@criterion("iteration: second pass only grows the mapping, from mapped terms")
def test_iteration_pass():
    round0 = _fixture_outcomes(iter_rounds=0)
    round1 = _fixture_outcomes(iter_rounds=1)
    assert len(round0) == len(round1) == 50

    assert all(o.provenance is not Provenance.ITER for o in round0)

    mapped0 = {o.entry_id for o in round0 if o.category is not None}
    mapped1 = {o.entry_id for o in round1 if o.category is not None}
    assert mapped0 <= mapped1
    assert mapped1 - mapped0  # the fixture does exercise ITER

    # every ITER assignment's first noun is a term mapped in round 0,
    # and it received exactly that term's category
    terms0 = {}
    for o in round0:
        if o.category is not None:
            terms0.setdefault(normalize_term(o.term), o.category)
    entries = load_fixture_entries(conllu=False)
    from medlex.textprep import extract_first_noun

    first_noun = {}
    for e in entries:
        sense = e.first_sense()
        if sense is not None and sense.tokens is not None:
            noun = extract_first_noun(sense.tokens, default_stops())
            if noun is not None:
                first_noun[e.id] = noun
    for o in round1:
        if o.provenance is Provenance.ITER:
            noun = first_noun[o.entry_id]
            assert noun in terms0
            assert o.category is terms0[noun]

    # categories assigned at round k never change at round k+1
    round2 = _fixture_outcomes(iter_rounds=2)
    for a, b in zip(round1, round2):
        if a.category is not None:
            assert b.category is a.category


@criterion("merge: dedup, lowercase monotonicity, corrections one-to-one")
def test_merge_fixtures():
    outcomes = _fixture_outcomes(iter_rounds=1)
    specs = load_manifest(DATA / "manifest.json")

    def merged(lowercase):
        return merge_sources(mapped_source(outcomes), [resource_source(s, DATA) for s in specs], lowercase)

    lower, report = merged(lowercase=True)
    cased, _ = merged(lowercase=False)

    # no duplicate normalized terms
    keys = [normalize_term(term) for term, *_ in lower]
    assert len(keys) == len(set(keys))
    cased_terms = [term for term, *_ in cased]
    assert len(cased_terms) == len(set(cased_terms))

    # lowercase mode shrinks or preserves
    assert len(lower) <= len(cased)

    # chapter routing: excluded rows never surface
    all_terms = set(keys)
    assert "lav inntekt" not in all_terms
    assert "blodtrykksmåling" in all_terms
    routed = next(category for term, category, *_ in lower if normalize_term(term) == "blodtrykksmåling")
    assert routed == "PROCEDURE"

    # independent recount oracle, exact
    recount: dict[str, int] = {}
    for _, category, *_ in lower:
        recount[category] = recount.get(category, 0) + 1
    assert recount == report.category_counts
    assert sum(recount.values()) == report.total == len(lower)
    for name, ingested, kept, excluded in report.resource_counts:
        assert kept + excluded == ingested

    # corrections are exactly the MO-overlap disagreements
    mo_cats: dict[str, Category] = {}
    for o in outcomes:
        if o.category is not None:
            mo_cats.setdefault(normalize_term(o.term), o.category)
    expected = set()
    best: dict[str, tuple[int, Category]] = {}
    for spec in specs:
        for term, category in resource_rows(spec, DATA):
            if category is None:
                continue
            key = normalize_term(term)
            if key not in best or spec.trust_rank < best[key][0]:
                best[key] = (spec.trust_rank, category)
    for key, (_, category) in best.items():
        if key in mo_cats and mo_cats[key] is not category:
            expected.add(key)
    got = [normalize_term(c.term) for c in report.corrections]
    assert len(got) == len(set(got))  # exactly one correction per term
    assert set(got) == expected
    assert expected  # the fixture exercises the correction path


@criterion("metrics: scorer equals the counting oracle on random inputs")
def test_metrics_against_oracle():
    rng = random.Random(1128)
    labels = list(ASSIGNABLE_CATEGORIES)
    for round_no in range(1000):
        n = rng.randint(1, 15)
        terms = [f"t{i}" for i in range(n)]
        gold = {t: rng.choice(labels + [Category.OTHER]) for t in terms}
        predicted = {t: rng.choice(labels) for t in terms}
        exclude = rng.random() < 0.5
        merge_groups = None
        if rng.random() < 0.5:
            merge_groups = [
                ("ORG+SER", frozenset({Category.ORGANIZATION, Category.SERVICE}))
            ]
        report, matrix = score(
            gold, predicted, merge_groups=merge_groups, exclude_other=exclude
        )
        tp, pred_n, gold_n, scored, matches = score_oracle(
            gold, predicted, groups=merge_groups, exclude_other=exclude
        )
        for s in report.per_category:
            assert s.tp == tp.get(s.label, 0)
            assert s.pred_n == pred_n.get(s.label, 0)
            assert s.gold_n == gold_n.get(s.label, 0)
        assert report.scored_n == scored
        assert report.accuracy_incl_other == (matches, len(gold))

        # confusion-matrix row/column sums reconcile, exact
        assert sum(matrix.row_sums()) == scored
        assert sum(matrix.col_sums()) == scored
        by_label = {s.label: s for s in report.per_category}
        for label, row, col in zip(matrix.labels, matrix.row_sums(), matrix.col_sums()):
            assert by_label[label].gold_n == row
            assert by_label[label].pred_n == col

        # merged scoring equals scoring after explicit relabeling
        if merge_groups:
            def relabel(c):
                return (
                    Category.SERVICE
                    if c in (Category.ORGANIZATION, Category.SERVICE)
                    else c
                )

            merged_equiv, _ = score(
                {t: c if c is Category.OTHER else relabel(c) for t, c in gold.items()},
                {t: relabel(c) for t, c in predicted.items()},
                exclude_other=exclude,
            )
            assert merged_equiv.micro_precision[0] == report.micro_precision[0]
            assert merged_equiv.scored_n == report.scored_n


@criterion("sampler: quota rules, determinism, and throughput")
def test_sampler():
    strata = (Provenance.SUFF, Provenance.KW_E, Provenance.KW_1N, Provenance.MULTI, Provenance.ITER)

    # below quota: everything is taken
    small = [
        MappingOutcome(f"a{i}", f"a{i}", Category.SERVICE, Provenance.ITER)
        for i in range(40)
    ]
    assert sorted(stratified_sample(small, 100, seed=1)) == sorted(o.entry_id for o in small)

    # above quota: per-stratum balance
    big = []
    for s, provenance in enumerate(strata):
        for i in range(100):
            big.append(
                MappingOutcome(f"e{s}_{i}", f"t{s}_{i}", Category.CONDITION, provenance)
            )
    picked = stratified_sample(big, 100, seed=9)
    by_provenance: dict[str, int] = {}
    lookup = {o.entry_id: o for o in big}
    for entry_id in picked:
        key = str(lookup[entry_id].provenance)
        by_provenance[key] = by_provenance.get(key, 0) + 1
    assert by_provenance == {str(p): 20 for p in strata}

    # fixed seed -> byte-identical sample
    a = "\n".join(stratified_sample(big, 100, seed=9)).encode()
    b = "\n".join(stratified_sample(big, 100, seed=9)).encode()
    assert a == b

    # 100k synthetic outcomes under the time budget
    rng = random.Random(5)
    categories = list(ASSIGNABLE_CATEGORIES)
    huge = [
        MappingOutcome(
            f"e{i}", f"t{i}", rng.choice(categories), rng.choice(strata)
        )
        for i in range(100_000)
    ]
    started = time.perf_counter()
    sample = stratified_sample(huge, 100, seed=3)
    elapsed = time.perf_counter() - started
    assert len(sample) == 12 * 100
    assert elapsed < 5.0, f"sampling took {elapsed:.2f}s"


def _end_to_end(workdir, threads):
    """One full map -> merge -> eval run; returns all artifact bytes."""
    mapped = workdir / "mapped.tsv"
    lexicon = workdir / "lexicon.tsv"
    matrix = workdir / "matrix.csv"
    report = workdir / "report.tsv"
    sample = workdir / "sample.tsv"
    t = str(threads)
    assert main(
        [
            "map",
            "--dict", str(DATA / "dict_50.tsv"),
            "--conllu", str(DATA / "dict_50.conllu"),
            "--out", str(mapped),
            "--threads", t,
        ]
    ) == 0
    assert main(
        [
            "merge",
            "--manifest", str(DATA / "manifest.json"),
            "--mapped", str(mapped),
            "--lowercase",
            "--out", str(lexicon),
            "--threads", t,
        ]
    ) == 0
    assert main(
        [
            "eval", "overlap",
            "--mapped", str(mapped),
            "--manifest", str(DATA / "manifest.json"),
            "--threads", t,
        ]
    ) == 0
    assert main(
        [
            "eval", "gold",
            "--gold", str(DATA / "gold.tsv"),
            "--mapped", str(mapped),
            "--exclude-other",
            "--matrix-out", str(matrix),
            "--report-tsv", str(report),
            "--threads", t,
        ]
    ) == 0
    assert main(
        [
            "eval", "sample",
            "--mapped", str(mapped),
            "--quota", "100",
            "--seed", "7",
            "--out", str(sample),
            "--threads", t,
        ]
    ) == 0
    return tuple(p.read_bytes() for p in (mapped, lexicon, matrix, report, sample))


@criterion("end to end: three runs and both thread counts are byte-identical")
def test_end_to_end_determinism(tmp_path, capsys):
    runs = []
    for i, threads in enumerate((1, 1, 1, 8)):
        workdir = tmp_path / f"run{i}"
        workdir.mkdir()
        runs.append(_end_to_end(workdir, threads))
        capsys.readouterr()
    assert runs[0] == runs[1] == runs[2]  # three identical runs
    assert runs[0] == runs[3]  # independent of thread bound
