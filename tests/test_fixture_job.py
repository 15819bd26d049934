"""The fixture job: map, merge and eval on the ``tests/data`` fixtures,
for each check that no other test makes. Commands run in process through
``cli.main`` with every warning an error, so a file left unclosed fails
the test as ``-W error`` would. One run of each command, and one failed
run of each of exits 2 to 5, is a real ``python -X dev -W error -m
medlex``, whose stderr must show no traceback and no ``Exception
ignored`` when the interpreter exits."""

from __future__ import annotations

import json
import shutil
from pathlib import Path

import pytest

from medlex.outcomes import render_outcomes
from tests.test_cli import run, run_module

pytestmark = pytest.mark.filterwarnings("error")


def reencode(path: Path, copy: Path) -> None:
    """Write ``path``'s JSON lines to ``copy`` with no row in the writer's
    form: the keys in reverse order, ASCII escapes and no spaces."""
    rows = [json.loads(line) for line in path.read_text(encoding="utf-8").splitlines()]
    lines = [json.dumps(dict(reversed(row.items())), ensure_ascii=True, separators=(",", ":")) for row in rows]
    assert rows and not set(lines) & {json.dumps(row, ensure_ascii=False) for row in rows}
    copy.write_text("".join(line + "\n" for line in lines), encoding="utf-8")


@pytest.fixture(scope="module")
def inputs(tmp_path_factory, data_dir, fixture_outcomes) -> Path:
    """A directory holding the fixtures, the fixture outcomes in both
    formats, re-encoded copies of both JSON-lines files, copies that begin
    with a byte-order mark under ``bom/``, and a definition whose words
    are separated by a tab and by two spaces."""
    d = tmp_path_factory.mktemp("inputs")
    for path in data_dir.iterdir():
        shutil.copy(path, d)
    for fmt in ("tsv", "jsonl"):
        (d / f"mapped.{fmt}").write_text(render_outcomes(fixture_outcomes, fmt), encoding="utf-8")
    reencode(d / "dict_50.jsonl", d / "dict_50.reencoded.jsonl")
    reencode(d / "mapped.jsonl", d / "mapped.reencoded.jsonl")
    (d / "bom").mkdir()
    for path in [*data_dir.glob("*.tsv"), data_dir / "manifest.json"]:
        bom = b"\xef\xbb\xbf" if path.name in ("dict_50.tsv", "gold.tsv", "icd10.tsv") else b""
        (d / "bom" / path.name).write_bytes(bom + path.read_bytes())
    (d / "single.tsv").write_text("e1\tleukemi\tsykdom i blodet\n", encoding="utf-8")
    (d / "spaced.jsonl").write_text('{"id": "e1", "term": "leukemi", "definition": "sykdom\\ti  blodet"}\n',
                                    encoding="utf-8")
    (d / "spaced.conllu").write_text("# sent_id = e1\n1\tsykdom\t_\tNOUN\t_\t_\t0\tdep\t_\t_\n"
                                     "2\ti\t_\tADP\t_\t_\t0\tdep\t_\t_\n3\tblodet\t_\tNOUN\t_\t_\t0\tdep\t_\t_\n",
                                     encoding="utf-8")
    return d


def map_dictionary(d, out, dictionary, conllu="dict_50.conllu"):
    return [["map", "--dict", str(d / dictionary), "--conllu", str(d / conllu), "--out", str(out / "mapped.tsv")]]


def merge(manifest, mapped, out, lexicon="lexicon.tsv"):
    return ["merge", "--manifest", str(manifest), "--mapped", str(mapped), "--lowercase", "--out", str(out / lexicon)]


def overlap(mapped, manifest):
    return ["eval", "overlap", "--mapped", str(mapped), "--manifest", str(manifest)]


def gold(gold_file, mapped, out):
    return ["eval", "gold", "--gold", str(gold_file), "--mapped", str(mapped), "--merge-labels", "ORG+SER",
            "--matrix-out", str(out / "matrix.csv"), "--report-tsv", str(out / "report.tsv")]


def sample(mapped, out):
    return ["eval", "sample", "--mapped", str(mapped), "--quota", "3", "--seed", "7", "--out", str(out / "sample.tsv")]


def read_outcome_file(d, out, mapped):
    mapped, manifest = d / mapped, d / "manifest.json"
    return [merge(manifest, mapped, out), overlap(mapped, manifest), gold(d / "gold.tsv", mapped, out),
            sample(mapped, out)]


def read_manifest(d, out, manifest):
    return [merge(d / manifest, d / "mapped.tsv", out), overlap(d / "mapped.tsv", d / manifest)]


def read_inputs_in(d, out, folder):
    """map, merge and eval gold on the dictionary, manifest and gold file in ``d / folder``."""
    return [*map_dictionary(d, out, f"{folder}/dict_50.tsv"), merge(d / folder / "manifest.json", d / "mapped.tsv", out),
            gold(d / folder / "gold.tsv", d / "mapped.tsv", out)]


# Inputs that say the same thing in other words, each with the commands
# that read it: every run exits 0, and the runs print and write alike.
ALIKE = {
    "dictionary formats": (map_dictionary, ["dict_50.tsv", "dict_50.jsonl", "dict_50.reencoded.jsonl"]),
    "outcome formats": (read_outcome_file, ["mapped.tsv", "mapped.jsonl", "mapped.reencoded.jsonl"]),
    "manifest formats": (read_manifest, ["manifest.json", "manifest.tsv", "manifest.jsonl"]),
    "byte-order marks": (read_inputs_in, [".", "bom"]),
    "definition spacing": (lambda d, out, dictionary: map_dictionary(d, out, dictionary, "spaced.conllu"),
                           ["single.tsv", "spaced.jsonl"]),
}


@pytest.mark.parametrize("case", sorted(ALIKE))
def test_inputs_that_say_the_same_give_the_same_outputs(case, inputs, tmp_path, capsys):
    commands, variants = ALIKE[case]
    runs = []
    for i, variant in enumerate(variants):
        out = tmp_path / str(i)
        out.mkdir()
        printed = [run(capsys, argv)[:2] for argv in commands(inputs, out, variant)]
        runs.append((printed, {path.name: path.read_bytes() for path in sorted(out.iterdir())}))
    printed, files = runs[0]
    assert files and all(code == 0 for code, _ in printed)
    for other in runs[1:]:
        assert other == runs[0]


DUPLICATE = {"name": "A", "file": "a.tsv", "mode": "FIXED", "category": "TOOL", "trust_rank": 1}
# The same manifest, naming resource A twice, in each format.
DUPLICATES = {
    "tsv": "A\ta.tsv\tFIXED\tTOOL\t1\tterm=0\nA\ta.tsv\tFIXED\tTOOL\t2\tterm=0\n",
    "jsonl": f"{json.dumps(DUPLICATE)}\n{json.dumps(DUPLICATE)}\n",
    "json": f"[{json.dumps(DUPLICATE)},\n {json.dumps(DUPLICATE)}]\n",
}


def manifest_fault(fmt, *extra):
    """merge on ``DUPLICATES[fmt]``: the second A is refused, or the first
    when ``extra`` is ``--mapped-name A``."""
    def case(d, tmp):
        manifest = tmp / f"dup.{fmt}"
        manifest.write_text(DUPLICATES[fmt], encoding="utf-8")
        argv = ["merge", "--manifest", str(manifest), "--mapped", str(d / "mapped.tsv"), *extra,
                "--out", str(tmp / "lexicon.tsv")]
        n = 1 if extra else 2
        where = f"{manifest}: resource #{n}" if fmt == "json" else f"{manifest}:{n}"
        fault = "name is also the --mapped-name" if extra else "duplicate resource name"
        return argv, f"error: {where}: resource A: {fault}"
    return case


def gold_output_in_a_missing_folder(d, tmp):
    # eval gold renders both files and stages them before it writes either.
    return ["eval", "gold", "--gold", str(d / "gold.tsv"), "--mapped", str(d / "mapped.tsv"),
            "--matrix-out", str(tmp / "m.csv"), "--report-tsv", str(tmp / "nodir" / "r.tsv")], None


def nested_suffixes(d, tmp):
    # Nested suffixes mapped to different categories are a lint error unless --lax.
    (tmp / "nested.tsv").write_text("itis\tCONDITION\ntis\tPROCEDURE\n", encoding="utf-8")
    return ["map", "--dict", str(d / "dict_50.tsv"), "--suffixes", str(tmp / "nested.tsv"),
            "--out", str(tmp / "nested.out.tsv")], None


def equal_rank_conflict(d, tmp):
    (tmp / "tie.tsv").write_text("A\ttie_a.tsv\tFIXED\tTOOL\t1\t\nB\ttie_b.tsv\tFIXED\tCONDITION\t1\t\n",
                                 encoding="utf-8")
    for name in ("tie_a.tsv", "tie_b.tsv"):
        (tmp / name).write_text("kniv\n", encoding="utf-8")
    return ["merge", "--manifest", str(tmp / "tie.tsv"), "--mapped", str(d / "mapped.tsv"),
            "--out", str(tmp / "tie.lex.tsv")], "  'kniv': A=TOOL vs B=CONDITION"


def gold_term_without_prediction(d, tmp):
    (tmp / "uncovered.tsv").write_text("finnes ikke\tCONDITION\n", encoding="utf-8")
    return ["eval", "gold", "--gold", str(tmp / "uncovered.tsv"), "--mapped", str(d / "mapped.tsv")], None


def token_with_a_leading_space(d, tmp):
    # A CoNLL-U form keeps its spaces, and a surface begins at a character that is not one.
    (tmp / "aligned.conllu").write_text("# sent_id = e1\n1\t sykdom\t_\tNOUN\t_\t_\t0\tdep\t_\t_\n",
                                        encoding="utf-8")
    return (["map", "--dict", str(d / "single.tsv"), "--conllu", str(tmp / "aligned.conllu"),
             "--out", str(tmp / "aligned.out.tsv")],
            f"error: {tmp / 'aligned.conllu'}:1: entry e1: token ' sykdom' does not align with text at offset 0")


# Each failed run: its inputs, arguments and one line its stderr must hold
# (None: another test checks the message), its exit code, and whether it
# runs in a -X dev -W error interpreter.
FAILED = {
    "gold output in a missing folder": (gold_output_in_a_missing_folder, 2, True),
    "nested suffixes": (nested_suffixes, 3, True),
    "equal-rank conflict": (equal_rank_conflict, 4, True),
    "gold term without prediction": (gold_term_without_prediction, 5, True),
    **{f"duplicate name in {fmt}": (manifest_fault(fmt), 2, False) for fmt in DUPLICATES},
    # tests/test_cli.py checks the JSON list's --mapped-name clash.
    **{f"--mapped-name in {fmt}": (manifest_fault(fmt, "--mapped-name", "A"), 2, False) for fmt in ("tsv", "jsonl")},
    "token with a leading space": (token_with_a_leading_space, 2, False),
}


def run_dev(argv):
    """Run ``python -X dev -W error -m medlex argv``, whose stderr must show
    no traceback and no ``Exception ignored``; (exit code, stdout, stderr)."""
    proc = run_module(argv, "-X", "dev", "-W", "error")
    assert "Traceback" not in proc.stderr and "Exception ignored" not in proc.stderr, proc.stderr
    return proc.returncode, proc.stdout, proc.stderr


@pytest.mark.parametrize("case", sorted(FAILED))
def test_a_failed_run_prints_nothing_and_writes_nothing(case, inputs, tmp_path, capsys):
    setup, want, dev = FAILED[case]
    argv, line = setup(inputs, tmp_path)
    before = sorted(tmp_path.iterdir())
    code, stdout, stderr = run_dev(argv) if dev else run(capsys, argv)
    assert (code, stdout) == (want, ""), stderr
    assert line is None or line in stderr.splitlines(), stderr
    assert sorted(tmp_path.iterdir()) == before


def test_each_command_exits_cleanly_in_development_mode(inputs, tmp_path):
    d, out = inputs, tmp_path
    heuristic = out / "heuristic.jsonl"
    for argv in (
        ["map", "--dict", str(d / "dict_50.tsv"), "--out", str(heuristic)],
        merge(d / "manifest.tsv", heuristic, out, "lexicon.jsonl"),
        overlap(heuristic, d / "manifest.json"),
        gold(d / "gold.tsv", d / "mapped.tsv", out),
        sample(heuristic, out),
    ):
        code, _, stderr = run_dev(argv)
        assert code == 0, stderr
    assert sorted(path.name for path in out.iterdir()) == [
        "heuristic.jsonl", "lexicon.jsonl", "matrix.csv", "report.tsv", "sample.tsv"]
