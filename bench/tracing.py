"""Traced run: times calls into medlex's modules from outside.

Each command's public functions are called in the same order as the
matching ``cmd_*`` in ``medlex/cli.py``, each call inside a span. Costs
hidden inside ``map_dictionary`` and ``merge_lexicons`` are measured by
replaying public functions over the same inputs, in spans under a
``replay.*`` parent, after the command. Spans stay in memory and are
written out when the run ends.
"""

from __future__ import annotations

import json
import logging
import time
from contextlib import contextmanager
from pathlib import Path

import oracle


class Tracer:
    """In-memory spans: name, start, end, parent span and run id."""

    def __init__(self, run_id: str):
        self.run_id = run_id
        self.spans: list[dict] = []
        self._stack: list[int] = []

    @contextmanager
    def span(self, name: str):
        span = {"id": len(self.spans), "name": name, "run": self.run_id,
                "parent": self._stack[-1] if self._stack else None}
        self.spans.append(span)
        self._stack.append(span["id"])
        span["start"] = time.perf_counter()
        try:
            yield
        finally:
            span["end"] = time.perf_counter()
            self._stack.pop()

    def duration(self, span: dict) -> float:
        return span["end"] - span["start"]

    def self_times(self) -> dict[str, float]:
        """Per span name: summed duration minus the time its children cover."""
        child_time = [0.0] * len(self.spans)
        for s in self.spans:
            if s["parent"] is not None:
                child_time[s["parent"]] += self.duration(s)
        out: dict[str, float] = {}
        for s in self.spans:
            out[s["name"]] = out.get(s["name"], 0.0) + self.duration(s) - child_time[s["id"]]
        return out

    def total(self, name: str) -> float:
        return sum(self.duration(s) for s in self.spans if s["name"] == name)

    def dump(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps({"run": self.run_id, "spans": self.spans}), encoding="utf-8")


def traced_job(job, tracer: Tracer, out_dir: Path) -> tuple[dict, dict[str, bytes]]:
    """Run one workload's commands in process under ``tracer``.

    Returns the layer counts and, per command step, the bytes it printed
    and wrote, to compare with the untraced command's output.
    """
    from medlex import defaults
    from medlex.evaluate import (format_eval_report, format_eval_tsv, format_overlap_report,
                                 overlap_eval, parse_merge_groups, read_gold, score,
                                 strategy_accuracy, stratified_sample)
    from medlex.merge import (export_lexicon, format_merge_report, ingest_resource, load_manifest,
                              mapped_records, merge_lexicons)
    from medlex.model import Provenance, normalize_term
    from medlex.pipeline import (attach_tokens, format_stats, map_dictionary, mapping_stats,
                                 read_dictionary, read_outcomes, resolve_synonyms, write_outcomes)
    from medlex.strategies import kw_entry_vote, kw_firstnoun_vote, load_keyword_table, suffix_vote
    from medlex.textprep import extract_first_noun, ingest_conllu

    # The CLI sends these warnings to stderr; here they go nowhere.
    medlex_log = logging.getLogger("medlex")
    medlex_log.addHandler(logging.NullHandler())
    medlex_log.propagate = False

    span = tracer.span
    plan, src = job.plan, job.dir
    out_dir.mkdir(parents=True, exist_ok=True)
    counts: dict[str, float] = {}
    printed: dict[str, bytes] = {}
    mapped_out = out_dir / job.mapped
    manifest = src / plan.manifest_file

    with span("cmd.map"):
        with span("strategies.load"):
            suffixes = defaults.default_suffix_table()
            keywords = (load_keyword_table(src / plan.keyword_file) if plan.keyword_file
                        else defaults.default_keyword_table())
            stops = defaults.default_stops()
            function_words = defaults.default_function_words()
            suffixes.lint()
            keywords.lint()
        with span("pipeline.read"):
            entries = read_dictionary(src / plan.dict_file, job.fmt)
        conllu = None
        if plan.conllu_file:
            with span("textprep.ingest_conllu"):
                with open(src / plan.conllu_file, encoding="utf-8") as fh:
                    conllu = ingest_conllu(fh, id_map={e.id: e.id for e in entries},
                                           path=str(src / plan.conllu_file))
        with span("pipeline.attach"):
            attached, heuristic = attach_tokens(entries, conllu, function_words)
        with span("pipeline.synonyms"):
            resolved = resolve_synonyms(attached)
        with span("pipeline.map_dictionary"):
            outcomes = map_dictionary(resolved, suffixes, keywords, stops, job.iter_rounds)
        with span("pipeline.render"):
            write_outcomes(outcomes, mapped_out, job.fmt)
            printed["map"] = format_stats(mapping_stats(outcomes), heuristic).encode()

    with span("replay.map"):
        with span("pipeline.vote_pass"):
            map_dictionary(resolved, suffixes, keywords, stops, 0)
        with span("textprep.first_noun"):
            first_nouns = [
                None if e.first_sense() is None or e.first_sense().tokens is None
                else extract_first_noun(e.first_sense().tokens, stops)
                for e in resolved
            ]
        terms = [normalize_term(e.term) for e in resolved]
        with span("strategies.suffix_vote"):
            suff = sum(1 for t in terms if suffix_vote(t, suffixes) is not None)
        with span("strategies.kw_entry_vote"):
            kw_e = sum(1 for t in terms if kw_entry_vote(t, keywords) is not None)
        with span("strategies.kw_firstnoun_vote"):
            kw_1n = sum(1 for n in first_nouns if kw_firstnoun_vote(n, keywords) is not None)
    rows = [(o.entry_id, o.term, str(o.category or ""), str(o.provenance)) for o in outcomes]
    _, rounds_used = oracle.iter_replay(rows, first_nouns, job.iter_rounds)
    counts.update({
        "pipeline.entries_read": len(entries),
        "textprep.sentences": len(conllu or ()),
        "textprep.heuristic_tagged": sum(
            1 for e in entries
            if e.first_sense() is not None and e.first_sense().tokens is None
            and (conllu is None or e.id not in conllu)
        ),
        "pipeline.synonyms_resolved": sum(1 for e in attached if e.synonym_of and not e.senses),
        "pipeline.iter_assigned": sum(1 for o in outcomes if o.provenance is Provenance.ITER),
        "pipeline.iter_rounds_used": rounds_used,
        "pipeline.out_bytes": mapped_out.stat().st_size,
        "strategies.votes_suff": suff,
        "strategies.votes_kw_e": kw_e,
        "strategies.votes_kw_1n": kw_1n,
        "strategies.vote_hit_ratio": (suff + kw_e + kw_1n) / (3 * len(resolved)),
    })

    lexicon = out_dir / "lexicon.tsv"
    with span("cmd.merge"):
        with span("pipeline.read_outcomes"):
            outcomes = read_outcomes(mapped_out)
        with span("merge.ingest"):
            resources = [ingest_resource(spec, manifest.parent) for spec in load_manifest(manifest)]
            mapped = mapped_records(outcomes)
        with span("merge.merge_lexicons"):
            records, report = merge_lexicons(mapped, resources, lowercase=True)
        with span("merge.export"):
            export_lexicon(records, lexicon)
            printed["merge"] = format_merge_report(report).encode()
    with span("replay.merge"):
        inputs = [r.term for source in [mapped, *resources] for r in source.records]
        with span("model.normalize"):
            for term in inputs:
                normalize_term(term, True)
    counts.update({
        "model.normalize_calls": len(inputs),
        "merge.rows_ingested": sum(r.ingested for r in resources),
        "merge.rows_excluded": sum(r.excluded for r in resources),
        "merge.groups": len(records),
        "merge.corrections": len(report.corrections),
        "merge.out_bytes": lexicon.stat().st_size,
    })
    del records, report, resources, mapped, inputs

    with span("cmd.eval_overlap"):
        with span("pipeline.read_outcomes"):
            outcomes = read_outcomes(mapped_out)
        results = []
        for spec in load_manifest(manifest):
            with span("merge.ingest"):
                result = ingest_resource(spec, manifest.parent)
            with span("evaluate.overlap"):
                results.append((spec.name, spec.category_descriptor(), overlap_eval(outcomes, result.records)))
        with span("evaluate.overlap"):
            printed["overlap"] = format_overlap_report(results).encode()
    counts["evaluate.overlap_terms"] = sum(r.overlap for _, _, r in results)

    matrix_out, report_out = out_dir / "matrix.csv", out_dir / "report.tsv"
    with span("cmd.eval_gold"):
        with span("evaluate.gold"):
            gold = read_gold(src / plan.gold_file)
        with span("pipeline.read_outcomes"):
            outcomes = read_outcomes(mapped_out)
        with span("evaluate.gold"):
            predicted = {}
            for o in outcomes:
                if o.category is not None:
                    predicted.setdefault(normalize_term(o.term), o.category)
            report, matrix = score(gold, predicted, merge_groups=parse_merge_groups("ORG+SER"),
                                   exclude_other=True)
            printed["gold"] = format_eval_report(report, strategy_accuracy(gold, outcomes)).encode()
            matrix_out.write_text(matrix.to_csv(), encoding="utf-8")
            report_out.write_text(format_eval_tsv(report), encoding="utf-8")
    counts["evaluate.gold_terms"] = len(gold)

    sample_out = out_dir / "sample.tsv"
    with span("cmd.eval_sample"):
        with span("pipeline.read_outcomes"):
            outcomes = read_outcomes(mapped_out)
        with span("evaluate.sample"):
            ids = stratified_sample(outcomes, job.quota, job.seed)
            by_id = {o.entry_id: o for o in outcomes}
            lines = ["id\tterm\tcategory\tprovenance"]
            lines += [f"{i}\t{by_id[i].term}\t{by_id[i].category}\t{by_id[i].provenance}" for i in ids]
            sample_out.write_text("\n".join(lines) + "\n", encoding="utf-8")
    counts["evaluate.sample_size"] = len(ids)

    outputs = {
        "map": printed["map"] + mapped_out.read_bytes(),
        "merge": printed["merge"] + lexicon.read_bytes(),
        "overlap": printed["overlap"],
        "gold": printed["gold"] + matrix_out.read_bytes() + report_out.read_bytes(),
        "sample": sample_out.read_bytes(),
    }
    return counts, outputs
