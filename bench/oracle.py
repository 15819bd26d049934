"""Correctness oracle for the medlex benchmark.

It re-derives expected results from the README's rules and the
generator's plan, by brute force, and imports nothing from medlex. Each
``check_*`` function returns a list of problems; an empty list passes.
"""

from __future__ import annotations

import csv
import json
import random
import re
import unicodedata
from pathlib import Path

MIN_CONTAINED = 5
MERGED = {"ORGANIZATION": "ORG+SER", "SERVICE": "ORG+SER"}  # --merge-labels ORG+SER
MAPPED_NAME, MAPPED_RANK = "MO", 100
VOTE_SAMPLE = 400
_WS = re.compile(r"\s+")


def norm(term: str) -> str:
    """README normalization with --lowercase: NFC, whitespace collapsed, lowercased."""
    return _WS.sub(" ", unicodedata.normalize("NFC", term)).strip().lower()


def read_outcome_rows(path: Path) -> list[tuple[str, str, str, str]]:
    """(id, term, category or "", provenance) per outcome row, TSV or JSONL."""
    rows = []
    text = path.read_text(encoding="utf-8")
    if path.suffix == ".jsonl":
        for line in text.splitlines():
            obj = json.loads(line)
            rows.append((obj["id"], obj["term"], obj["category"] or "", obj["provenance"]))
    else:
        for line in text.splitlines()[1:]:
            entry_id, term, category, provenance, _votes = line.split("\t")
            rows.append((entry_id, term, category, provenance))
    return rows


def _contained(haystack: str, keywords) -> str | None:
    best = None
    for keyword, category in keywords:
        if len(keyword) < MIN_CONTAINED:
            continue
        pos = haystack.find(keyword, 1)
        if pos >= 1 and (best is None or (pos, -len(keyword)) < best[0]):
            best = ((pos, -len(keyword)), category)
    return None if best is None else best[1]


def expected_vote_outcome(term: str, first_noun: str | None, suffixes, keywords) -> tuple[str, str]:
    """(category or "", provenance) from the vote pass alone."""
    votes = []
    best = None
    for suffix, category in suffixes:
        if len(term) > len(suffix) and term.endswith(suffix):
            if best is None or len(suffix) > len(best[0]):
                best = (suffix, category)
    if best is not None:
        votes.append(("SUFF", best[1]))
    hit = _contained(term, keywords)
    if hit is not None:
        votes.append(("KW_E", hit))
    if first_noun is not None:
        exact = [c for k, c in keywords if k == first_noun]
        hit = exact[0] if exact else _contained(first_noun, keywords)
        if hit is not None:
            votes.append(("KW_1N", hit))
    if not votes:
        return "", "UNMAPPED"
    if len(votes) == 1:
        return votes[0][1], votes[0][0]
    if len({c for _, c in votes}) == 1:
        return votes[0][1], "MULTI"
    return votes[0][1], votes[0][0]  # votes are already in SUFF > KW_E > KW_1N order


def iter_replay(rows, first_nouns, rounds: int) -> tuple[list[str], int]:
    """Categories after ITER, and the number of rounds that assigned any.

    Barrier rounds over the vote-pass result: each round indexes mapped
    terms, earliest row first, then assigns every unmapped row whose
    first noun names an indexed term (its donor).
    """
    cats = [r[2] if r[3] not in ("ITER", "UNMAPPED") else "" for r in rows]
    keys = [norm(r[1]) for r in rows]
    nouns = [None if n is None else norm(n) for n in first_nouns]
    used = 0
    for _ in range(rounds):
        index: dict[str, str] = {}
        for key, cat in zip(keys, cats):
            if cat:
                index.setdefault(key, cat)
        assigned = {
            i: index[noun] for i, noun in enumerate(nouns)
            if not cats[i] and noun is not None and noun in index
        }
        if not assigned:
            break
        used += 1
        for i, cat in assigned.items():
            cats[i] = cat
    return cats, used


def check_map(plan, rows, iter_rounds: int, stats: str, seed: int) -> list[str]:
    """Vote rules on a seeded sample of rows; ITER rounds over every row."""
    entries = plan.entries
    if [(r[0], r[1]) for r in rows] != [(e.id, e.term) for e in entries]:
        return [f"outcome ids/terms differ from the dictionary ({len(rows)} rows, {len(entries)} entries)"]
    problems = []
    rng = random.Random(f"oracle:{seed}")
    for i in rng.sample(range(len(entries)), min(VOTE_SAMPLE, len(entries))):
        e = entries[i]
        want = expected_vote_outcome(norm(e.term), e.first_noun, plan.suffixes, plan.keywords)
        got = (rows[i][2], rows[i][3])
        if want[1] == "UNMAPPED" and got[1] in ("UNMAPPED", "ITER"):
            continue
        if got != want:
            problems.append(f"{e.id}: got {got}, vote rules give {want}")

    cats, _ = iter_replay(rows, [e.first_noun for e in entries], iter_rounds)
    for i, row in enumerate(rows):
        if row[3] in ("ITER", "UNMAPPED"):
            want = (cats[i], "ITER") if cats[i] else ("", "UNMAPPED")
            if (row[2], row[3]) != want:
                problems.append(f"{row[0]}: got {(row[2], row[3])}, ITER replay gives {want}")

    totals = dict(re.findall(r"^(total mapped|not mapped|total)\s+(\d+)$", stats, re.M))
    mapped = sum(1 for r in rows if r[2])
    if totals != {"total mapped": str(mapped), "not mapped": str(len(rows) - mapped), "total": str(len(rows))}:
        problems.append(f"map stats totals {totals} do not match the outcome file")
    return problems


def self_check(plan, rows, iter_rounds: int, stats: str, seed: int) -> bool:
    """A planted wrong category on a vote-mapped, sampled row must be caught."""
    rng = random.Random(f"oracle:{seed}")
    sampled = rng.sample(range(len(rows)), min(VOTE_SAMPLE, len(rows)))
    target = next(i for i in sampled if rows[i][3] not in ("ITER", "UNMAPPED"))
    entry_id, term, category, provenance = rows[target]
    wrong = "TOOL" if category != "TOOL" else "PERSON"
    planted = list(rows)
    planted[target] = (entry_id, term, wrong, provenance)
    return bool(check_map(plan, planted, iter_rounds, stats, seed))


def _resource_records(plan):
    """Per resource: (name, rank, kept records as (term, category, provenance), excluded count)."""
    out = []
    for res in plan.resources:
        kept = [(term.strip(), cat, res.name) for term, cat, _chapter in res.rows if cat is not None]
        out.append((res.name, res.trust_rank, kept, len(res.rows) - len(kept)))
    return out


def check_merge(plan, rows, lexicon: str, report: str) -> list[str]:
    """Each lexicon row is the lowest-rank source of its normalized term;
    report counts match the inputs."""
    sources = [(MAPPED_NAME, MAPPED_RANK, [(r[1], r[2], r[3]) for r in rows if r[2]], None)]
    sources += _resource_records(plan)
    groups: dict[str, list] = {}  # key -> [rank, term, category, provenance, source names]
    for name, rank, records, _ in sources:
        for term, cat, prov in records:
            key = norm(term)
            group = groups.get(key)
            if group is None:
                groups[key] = [rank, term, cat, prov, {name}]
            else:
                group[4].add(name)
                if rank < group[0]:
                    group[:4] = [rank, term, cat, prov]
    want = []
    for key in sorted(groups):
        _, term, cat, prov, names = groups[key]
        want.append(f"{term}\t{cat}\t{','.join(sorted(names))}\t{prov}")
    got = lexicon.splitlines()[1:]
    problems = []
    if got != want:
        bad = sum(1 for a, b in zip(got, want) if a != b) + abs(len(got) - len(want))
        problems.append(f"lexicon: {bad} rows differ from the lowest-rank rule ({len(got)} vs {len(want)} rows)")
    counts = {}
    for line in report.splitlines()[1:]:
        if not line.strip():
            break
        name, ingested, kept, excluded = line.split()
        counts[name] = (int(ingested), int(kept), int(excluded))
    want_counts = {MAPPED_NAME: (len(rows), len(sources[0][2]), len(rows) - len(sources[0][2]))}
    for name, _, kept, excluded in sources[1:]:
        want_counts[name] = (len(kept) + excluded, len(kept), excluded)
    if counts != want_counts:
        problems.append(f"merge report counts {counts} != {want_counts}")
    return problems


def _first_categories(pairs) -> dict[str, str]:
    out: dict[str, str] = {}
    for term, cat in pairs:
        if cat:
            out.setdefault(norm(term), cat)
    return out


def check_overlap(plan, rows, report: str) -> list[str]:
    mapped = _first_categories((r[1], r[2]) for r in rows)
    want = {}
    for name, _, records, _ in _resource_records(plan):
        resource = _first_categories((term, cat) for term, cat, _ in records)
        per_cat: dict[str, list[int]] = {}
        for key in set(mapped) & set(resource):
            bucket = per_cat.setdefault(resource[key], [0, 0])
            bucket[0] += 1
            bucket[1] += mapped[key] == resource[key]
        want[name] = {label: tuple(v) for label, v in per_cat.items()}
    got: dict[str, dict] = {}
    current = None
    for line in report.splitlines()[1:]:
        m = re.match(r"^\s+(\S+): (\d+)/(\d+) \(", line)
        if m and current is not None:
            got[current][m.group(1)] = (int(m.group(3)), int(m.group(2)))
        else:
            current = line.split()[0]
            got[current] = {}
    return [] if got == want else [f"overlap counts differ: {_diff(got, want)}"]


def check_gold(plan, rows, report_tsv: str, matrix_csv: str) -> list[str]:
    predicted = _first_categories((r[1], r[2]) for r in rows)
    missing = [t for t in plan.gold if t not in predicted]
    if missing:
        return [f"{len(missing)} gold terms have no prediction, e.g. {missing[0]!r}"]
    scored = {t: g for t, g in plan.gold.items() if g != "OTHER"}
    matched = sum(1 for t, g in scored.items() if MERGED.get(g, g) == MERGED.get(predicted[t], predicted[t]))
    gold_n: dict[str, int] = {}
    for g in scored.values():
        gold_n[MERGED.get(g, g)] = gold_n.get(MERGED.get(g, g), 0) + 1
    tp = 0
    got_gold_n = {}
    for line in report_tsv.splitlines()[1:]:
        label, label_tp, _pred_n, label_gold_n, _p, _r = line.split("\t")
        tp += int(label_tp)
        if int(label_gold_n):
            got_gold_n[label] = int(label_gold_n)
    problems = []
    if tp != matched:
        problems.append(f"gold matched {tp} != {matched}")
    if got_gold_n != gold_n:
        problems.append(f"gold_n differs: {_diff(got_gold_n, gold_n)}")
    grid = list(csv.reader(matrix_csv.splitlines()))[1:]
    if sum(int(n) for row in grid for n in row[1:]) != len(scored):
        problems.append(f"confusion matrix total != {len(scored)} scored terms")
    return problems


def check_sample(rows, sample: str, quota: int) -> list[str]:
    by_id = {r[0]: r for r in rows}
    members: dict[str, int] = {}
    for r in rows:
        if r[2]:
            members[r[2]] = members.get(r[2], 0) + 1
    got: dict[str, int] = {}
    problems = []
    lines = sample.splitlines()[1:]
    if len({line.split("\t")[0] for line in lines}) != len(lines):
        problems.append("sample repeats an id")
    for line in lines:
        entry_id, term, category, provenance = line.split("\t")
        if by_id.get(entry_id) != (entry_id, term, category, provenance):
            problems.append(f"sample row {entry_id} does not match its outcome row")
            break
        got[category] = got.get(category, 0) + 1
    want = {c: min(quota, n) for c, n in members.items()}
    if got != want:
        problems.append(f"sample sizes differ from min(quota, members): {_diff(got, want)}")
    return problems


def _diff(got: dict, want: dict) -> str:
    keys = sorted(k for k in set(got) | set(want) if got.get(k) != want.get(k))
    return ", ".join(f"{k}: {got.get(k)} vs {want.get(k)}" for k in keys[:5])
