"""Command-line front end: map a dictionary, merge resources, evaluate.

Exit codes: 0 success, 2 missing or unparseable input or a bad option
value, 3 configuration lint failure, 4 equal-trust merge conflict, 5 gold
term without a prediction. Reports go to stdout, diagnostics to stderr.
"""

from __future__ import annotations

import argparse
import gc
import logging
import sys
from pathlib import Path

from .errors import LintError, MedlexError, ParseError
from .io import check_outputs, read_text, sniff_format, split_lines, tsv_lines, write_texts
from .outcomes import read_outcomes, render_outcomes, write_outcomes

# A command imports its stage's modules (map's pipeline, strategies, textprep
# and defaults; merge; evaluate) when it runs, so it loads only what it uses.

log = logging.getLogger("medlex")


def _int_at_least(minimum: int):
    """argparse ``type=`` for integers no smaller than ``minimum``."""

    # argparse turns the ValueError of a non-number into "invalid integer value".
    def integer(text: str) -> int:
        value = int(text)
        if value < minimum:
            raise argparse.ArgumentTypeError(f"must be >= {minimum}, got {value}")
        return value

    return integer


def _path(text: str) -> str:
    """argparse ``type=`` for a file option: any text but the empty string,
    which names no file (``Path("")`` is the working directory)."""
    if not text:
        raise argparse.ArgumentTypeError("expected a file path, got an empty string")
    return text


def build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument(
        "--threads",
        type=_int_at_least(1),
        default=1,
        help="reserved: accepted and checked (>= 1), but mapping runs in one "
        "thread and output never depends on it",
    )
    common.add_argument(
        "-v", "--verbose", action="store_true", help="also show INFO diagnostics on stderr"
    )

    parser = argparse.ArgumentParser(
        prog="medlex",
        description="Categorize dictionary terms, merge terminology resources, evaluate.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_map = sub.add_parser("map", parents=[common], help="map dictionary entries to categories")
    p_map.add_argument("--dict", type=_path, required=True, dest="dict_file")
    # None: the shipped file, which cmd_map names.
    p_map.add_argument("--suffixes", type=_path, help="suffix table TSV (default: shipped table)")
    p_map.add_argument("--keywords", type=_path, help="keyword table TSV (default: shipped table)")
    p_map.add_argument("--stops", type=_path, help="stoplist (default: shipped list)")
    p_map.add_argument(
        "--function-words",
        type=_path,
        help="function word list for the heuristic tagger (default: shipped list)",
    )
    p_map.add_argument("--conllu", type=_path, help="CoNLL-U token/POS annotation keyed by sent_id")
    p_map.add_argument("--iter", type=_int_at_least(0), default=1, dest="iter_rounds")
    p_map.add_argument("--out", type=_path, help="outcome file (omit to print outcomes to stdout)")
    p_map.add_argument("--format", choices=("tsv", "jsonl"), dest="fmt", help="outcome format")
    p_map.add_argument(
        "--lax",
        action="store_true",
        help="demote configuration lint failures to warnings",
    )
    p_map.set_defaults(func=cmd_map)

    p_merge = sub.add_parser("merge", parents=[common], help="merge mapped output with resources")
    p_merge.add_argument("--manifest", type=_path, required=True)
    p_merge.add_argument("--mapped", type=_path, required=True, help="outcome file produced by map")
    p_merge.add_argument("--lowercase", action="store_true")
    p_merge.add_argument(
        "--out", type=_path, required=True, help="lexicon file, in the format its suffix names"
    )
    # None: the defaults of merge.mapped_source.
    p_merge.add_argument(
        "--mapped-name",
        help="source name of the mapped entries: not blank, no tab, CR, LF or ',', "
        "and no resource's name",
    )
    p_merge.add_argument("--mapped-rank", type=int)
    p_merge.set_defaults(func=cmd_merge)

    p_eval = sub.add_parser("eval", help="evaluation protocols")
    eval_sub = p_eval.add_subparsers(dest="protocol", required=True)

    p_overlap = eval_sub.add_parser(
        "overlap", parents=[common], help="score mapped entries against resources"
    )
    p_overlap.add_argument("--mapped", type=_path, required=True)
    p_overlap.add_argument("--manifest", type=_path, required=True)
    p_overlap.set_defaults(func=cmd_eval_overlap)

    p_gold = eval_sub.add_parser(
        "gold", parents=[common], help="precision/recall against a gold file"
    )
    p_gold.add_argument("--gold", type=_path, required=True)
    p_gold.add_argument("--mapped", type=_path, required=True)
    p_gold.add_argument(
        "--merge-labels",
        help="label groups to collapse, e.g. ORG+SER or ORGANIZATION+SERVICE",
    )
    p_gold.add_argument("--exclude-other", action="store_true")
    p_gold.add_argument(
        "--global-precision",
        action="store_true",
        help="precision denominators over all predictions, not the scored set",
    )
    p_gold.add_argument("--matrix-out", type=_path, help="write the confusion matrix as CSV")
    p_gold.add_argument("--report-tsv", type=_path, help="write the machine-readable report")
    p_gold.set_defaults(func=cmd_eval_gold)

    p_sample = eval_sub.add_parser(
        "sample", parents=[common], help="stratified sample for manual annotation"
    )
    p_sample.add_argument("--mapped", type=_path, required=True)
    p_sample.add_argument("--quota", type=_int_at_least(1), required=True)
    p_sample.add_argument("--seed", type=int, required=True)
    p_sample.add_argument("--out", type=_path, help="sample file (omit to print to stdout)")
    p_sample.set_defaults(func=cmd_eval_sample)

    return parser


def cmd_map(args: argparse.Namespace) -> int:
    from . import defaults
    from .pipeline import build_entries, format_stats, map_dictionary, mapping_stats, read_dictionary_rows
    from .strategies import load_keyword_table, load_suffix_table
    from .textprep import ingest_conllu, load_stoplist, load_wordlist

    # merge and eval read an outcome file in the format its suffix names.
    if args.out and args.fmt and args.fmt != sniff_format(args.out):
        raise ParseError(f"--format {args.fmt} contradicts the suffix of --out {args.out}")
    suffix_file = args.suffixes or defaults.SUFFIX_TABLE
    keyword_file = args.keywords or defaults.KEYWORD_TABLE
    stop_file = args.stops or defaults.STOPLIST
    word_file = args.function_words or defaults.FUNCTION_WORDS
    check_outputs([args.out], [args.dict_file, args.conllu, suffix_file, keyword_file, stop_file, word_file])
    suffixes = load_suffix_table(suffix_file)
    keywords = load_keyword_table(keyword_file)
    stops = load_stoplist(stop_file)
    function_words = load_wordlist(word_file)

    problems = suffixes.lint()
    if problems:
        if not args.lax:
            raise LintError("; ".join(problems))
        for p in problems:
            log.warning("lint: %s", p)
    for note in keywords.lint():
        log.info("lint: %s", note)

    rows = read_dictionary_rows(args.dict_file)
    conllu_tokens = None
    if args.conllu:
        conllu_tokens = ingest_conllu(
            split_lines(read_text(args.conllu, "CoNLL-U")),
            id_map={row.id: row.id for row in rows},
            path=args.conllu,
        )
    entries, heuristic_used = build_entries(rows, conllu_tokens, function_words)
    if heuristic_used:
        log.warning("one or more definitions were tagged heuristically")
    outcomes = map_dictionary(entries, suffixes, keywords, stops, args.iter_rounds)

    if args.out:
        write_outcomes(outcomes, args.out)
        sys.stdout.write(format_stats(mapping_stats(outcomes), heuristic_used))
    else:
        sys.stdout.write(render_outcomes(outcomes, args.fmt or "tsv"))
    return 0


def cmd_merge(args: argparse.Namespace) -> int:
    from .merge import (
        DEFAULT_MAPPED_NAME,
        DEFAULT_MAPPED_RANK,
        check_source_name,
        export_lexicon,
        format_merge_report,
        load_manifest,
        mapped_source,
        merge_sources,
        resource_path,
        resource_source,
    )

    name = DEFAULT_MAPPED_NAME if args.mapped_name is None else args.mapped_name
    rank = DEFAULT_MAPPED_RANK if args.mapped_rank is None else args.mapped_rank
    try:
        check_source_name(name)
    except ValueError as exc:
        raise ParseError(f"--mapped-name: {exc}") from None
    outcomes = read_outcomes(args.mapped)
    specs = load_manifest(args.manifest, name)
    base_dir = Path(args.manifest).parent
    check_outputs([args.out], [args.mapped, args.manifest, *(resource_path(spec, base_dir) for spec in specs)])
    resources = (resource_source(spec, base_dir) for spec in specs)
    rows, report = merge_sources(mapped_source(outcomes, name, rank), resources, args.lowercase)
    export_lexicon(rows, args.out)
    sys.stdout.write(format_merge_report(report))
    return 0


def cmd_eval_overlap(args: argparse.Namespace) -> int:
    from .evaluate import format_overlap_report, mapped_categories, score_overlap
    from .merge import load_manifest, resource_rows

    outcomes = read_outcomes(args.mapped)
    specs = load_manifest(args.manifest)
    base_dir = Path(args.manifest).parent
    categories = mapped_categories(outcomes)
    rows = [
        (spec.name, spec.category_descriptor(), score_overlap(categories, resource_rows(spec, base_dir)))
        for spec in specs
    ]
    sys.stdout.write(format_overlap_report(rows))
    return 0


def cmd_eval_gold(args: argparse.Namespace) -> int:
    from .evaluate import (
        check_coverage,
        format_eval_report,
        format_eval_tsv,
        mapped_categories,
        parse_merge_groups,
        read_gold,
        score,
        strategy_accuracy,
    )

    try:
        groups = None if args.merge_labels is None else parse_merge_groups(args.merge_labels)
    except ValueError as exc:
        raise ParseError(f"--merge-labels: {exc}") from None
    check_outputs([args.matrix_out, args.report_tsv], [args.gold, args.mapped])
    gold = read_gold(args.gold)
    outcomes = read_outcomes(args.mapped)
    predicted = mapped_categories(outcomes)
    check_coverage(gold, predicted, args.gold, args.mapped)
    report, matrix = score(
        gold,
        predicted,
        merge_groups=groups,
        exclude_other=args.exclude_other,
        global_precision=args.global_precision,
    )
    acc = strategy_accuracy(gold, outcomes)
    # Render every output, write the files, then print: a run that fails
    # prints nothing and changes no file.
    printed = format_eval_report(report, acc)
    files = [(args.matrix_out, matrix.to_csv()), (args.report_tsv, format_eval_tsv(report))]
    write_texts([(path, text) for path, text in files if path])
    sys.stdout.write(printed)
    return 0


def cmd_eval_sample(args: argparse.Namespace) -> int:
    from .evaluate import stratified_sample

    check_outputs([args.out], [args.mapped])
    outcomes = read_outcomes(args.mapped)
    ids = stratified_sample(outcomes, args.quota, args.seed)
    by_id = {o.entry_id: o for o in outcomes}
    sampled = (by_id[entry_id] for entry_id in ids)
    text = tsv_lines(("id", "term", "category", "provenance"),
                     ((o.entry_id, o.term, o.category, o.provenance) for o in sampled))
    if args.out:
        write_texts([(args.out, text)])
    else:
        sys.stdout.write(text)
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    # This call's diagnostics go to this call's stderr, once, at the level
    # -v picks, whatever handlers the process's root logger has.
    handler = logging.StreamHandler(sys.stderr)
    handler.setFormatter(logging.Formatter("%(levelname)s: %(message)s"))
    old_level, old_propagate = log.level, log.propagate
    log.setLevel(logging.INFO if args.verbose else logging.WARNING)
    log.propagate = False
    log.addHandler(handler)
    # A command builds up to millions of acyclic records, which every full
    # collection would re-walk to free nothing; collection resumes on return.
    gc_was_enabled = gc.isenabled()
    gc.disable()
    try:
        return args.func(args)
    except MedlexError as exc:
        print(f"{exc.prefix}: {exc}", file=sys.stderr)
        return exc.exit_code
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    finally:
        log.removeHandler(handler)
        log.setLevel(old_level)
        log.propagate = old_propagate
        if gc_was_enabled:
            gc.enable()


if __name__ == "__main__":
    sys.exit(main())
