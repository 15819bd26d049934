from __future__ import annotations

import ast
import gc
import json
import os
import subprocess
import sys
import unicodedata
from pathlib import Path

import pytest

import medlex
from medlex import cli
from medlex.cli import main
from medlex.outcomes import read_outcomes

MAP_BASE = ["map", "--dict"]


def run(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


@pytest.fixture()
def mapped_file(tmp_path, data_dir, capsys):
    out = tmp_path / "mapped.tsv"
    code = main(
        [
            "map",
            "--dict",
            str(data_dir / "dict_50.tsv"),
            "--conllu",
            str(data_dir / "dict_50.conllu"),
            "--out",
            str(out),
        ]
    )
    assert code == 0
    capsys.readouterr()  # drain the stats so tests see only their own output
    return out


class TestCmdMap:
    def test_maps_fixture_and_prints_stats(self, capsys, tmp_path, data_dir):
        out = tmp_path / "out.tsv"
        code, stdout, stderr = run(
            capsys,
            [
                "map",
                "--dict",
                str(data_dir / "dict_50.tsv"),
                "--conllu",
                str(data_dir / "dict_50.conllu"),
                "--out",
                str(out),
            ],
        )
        assert code == 0
        lines = out.read_text(encoding="utf-8").splitlines()
        assert lines[0].startswith("id\tterm")
        assert len(lines) == 51  # header + 50 entries
        assert "category" in stdout and "strategy" in stdout
        assert "disagreements" in stdout

    def test_outcomes_to_stdout_without_out_flag(self, capsys, tmp_path):
        dict_file = tmp_path / "d.tsv"
        dict_file.write_text("e1\tleukemi\tsykdom i blodet\n", encoding="utf-8")
        code, stdout, _ = run(capsys, ["map", "--dict", str(dict_file)])
        assert code == 0
        assert stdout.startswith("id\tterm")
        assert "leukemi" in stdout

    def test_iter_zero_removes_iter_rows(self, capsys, tmp_path, data_dir):
        out = tmp_path / "out.tsv"
        code, _, _ = run(
            capsys,
            [
                "map",
                "--dict",
                str(data_dir / "dict_50.tsv"),
                "--conllu",
                str(data_dir / "dict_50.conllu"),
                "--iter",
                "0",
                "--out",
                str(out),
            ],
        )
        assert code == 0
        assert "ITER" not in out.read_text(encoding="utf-8")

    def test_duplicate_ids_exit_2(self, capsys, tmp_path):
        dict_file = tmp_path / "d.tsv"
        dict_file.write_text("e1\ta\tx\ne1\tb\ty\n", encoding="utf-8")
        code, stdout, stderr = run(capsys, ["map", "--dict", str(dict_file)])
        assert code == 2
        assert "e1" in stderr and stdout == ""

    def test_missing_dict_exit_2(self, capsys, tmp_path):
        code, _, stderr = run(capsys, ["map", "--dict", str(tmp_path / "absent.tsv")])
        assert code == 2
        assert "absent.tsv" in stderr

    def test_conflicting_nested_suffixes_exit_3(self, capsys, tmp_path):
        table = tmp_path / "suffixes.tsv"
        table.write_text("graf\tTOOL\ntograf\tPROCEDURE\n", encoding="utf-8")
        dict_file = tmp_path / "d.tsv"
        dict_file.write_text("e1\tleukemi\tsykdom\n", encoding="utf-8")
        code, _, stderr = run(
            capsys,
            ["map", "--dict", str(dict_file), "--suffixes", str(table)],
        )
        assert code == 3
        assert "tograf" in stderr

    def test_keywords_differing_only_in_normalisation_exit_3(self, capsys, tmp_path):
        table = tmp_path / "keywords.tsv"
        nfd = unicodedata.normalize("NFD", "blåsebelg")
        table.write_text(f"blåsebelg\tTOOL\n{nfd}\tTOOL\n", encoding="utf-8")
        dict_file = tmp_path / "d.tsv"
        dict_file.write_text("e1\txblåsebelg\tapparat\n", encoding="utf-8")
        code, stdout, stderr = run(
            capsys, ["map", "--dict", str(dict_file), "--keywords", str(table)]
        )
        assert code == 3 and stdout == ""
        assert stderr == f"lint error: {table}: duplicate keyword 'blåsebelg'\n"

    @pytest.mark.parametrize(
        ("option", "row", "message"),
        [("--suffixes", "-\tCONDITION", "empty suffix"), ("--keywords", "\tTOOL", "empty keyword")],
        ids=["suffix", "keyword"],
    )
    def test_empty_trigger_exit_2(self, capsys, tmp_path, option, row, message):
        table = tmp_path / "table.tsv"
        table.write_text(f"feber\tCONDITION\n{row}\n", encoding="utf-8")
        dict_file = tmp_path / "d.tsv"
        dict_file.write_text("e1\tleukemi\tsykdom\n", encoding="utf-8")
        code, stdout, stderr = run(capsys, ["map", "--dict", str(dict_file), option, str(table)])
        assert (code, stdout) == (2, "")
        assert stderr == f"error: {table}:2: {message}\n"

    @pytest.mark.parametrize("text_form, list_form", [("NFD", "NFC"), ("NFC", "NFD")])
    def test_definitions_and_lists_fold_like_terms(self, capsys, tmp_path, text_form, list_form):
        def write(name, text, form):
            path = tmp_path / name
            path.write_text(unicodedata.normalize(form, text), encoding="utf-8")
            return str(path)

        # "form" heads the stop phrase "form på", "på" is a function word and
        # "måte" a stop noun, so the first noun is "blåsebelg" only if each
        # is compared in one Unicode form.
        argv = [
            "map",
            "--dict", write("d.tsv", "e1\tapparat\tform på måte blåsebelg til luft\n", text_form),
            "--keywords", write("kw.tsv", "blåsebelg\tTOOL\n", list_form),
            "--stops", write("stops.txt", "form på\nmåte\n", list_form),
            "--function-words", write("fw.txt", "på\ntil\n", list_form),
        ]
        code, stdout, _ = run(capsys, argv)
        assert code == 0
        assert stdout.splitlines()[1] == "e1\tapparat\tTOOL\tKW_1N\tKW_1N:TOOL:blåsebelg:-"

    def test_lax_demotes_lint_to_warning(self, capsys, tmp_path):
        table = tmp_path / "suffixes.tsv"
        table.write_text("graf\tTOOL\ntograf\tPROCEDURE\n", encoding="utf-8")
        dict_file = tmp_path / "d.tsv"
        dict_file.write_text("e1\tleukemi\tsykdom i blodet\n", encoding="utf-8")
        code, stdout, _ = run(
            capsys,
            ["map", "--dict", str(dict_file), "--suffixes", str(table), "--lax"],
        )
        assert code == 0
        assert "tograf" not in stdout  # diagnostics never land on stdout

    def test_malformed_conllu_exit_2(self, capsys, tmp_path, data_dir):
        bad = tmp_path / "bad.conllu"
        bad.write_text("# sent_id = e1\n1\tx\t_\tNOUN\n", encoding="utf-8")
        code, _, stderr = run(
            capsys,
            [
                "map",
                "--dict",
                str(data_dir / "dict_50.tsv"),
                "--conllu",
                str(bad),
            ],
        )
        assert code == 2
        assert "bad.conllu" in stderr

    def test_conllu_forms_not_matching_definition_exit_2(self, capsys, tmp_path):
        dict_file = tmp_path / "d.tsv"
        dict_file.write_text("e1\tleukemi\tsykdom i blodet\n", encoding="utf-8")
        conllu = tmp_path / "d.conllu"
        conllu.write_text(
            "# sent_id = e1\n"
            "1\tsykdom\t_\tNOUN\t_\t_\t0\tdep\t_\t_\n"
            "2\tav\t_\tADP\t_\t_\t0\tdep\t_\t_\n",
            encoding="utf-8",
        )
        out = tmp_path / "out.tsv"
        code, stdout, stderr = run(
            capsys,
            ["map", "--dict", str(dict_file), "--conllu", str(conllu), "--out", str(out)],
        )
        assert code == 2
        # The sentence is named by its # sent_id line.
        assert stderr == f"error: {conllu}:1: entry e1: token 'av' does not align with text at offset 7\n"
        assert stdout == ""
        assert not out.exists()

    @pytest.mark.parametrize(
        ("rows", "message"),
        [
            (["e1\tleukemi\tsykdom i blodet", "e2\tblodkreft\t\te6"],
             "2: entry e2: synonym_of points to unknown id 'e6'"),
            (["e1\tleukemi\t\te2", "e2\tblodkreft\t\te1"], "1: entry e1: synonym chain loops"),
        ],
        ids=["unknown-target", "loop"],
    )
    def test_synonym_fault_names_the_dictionary(self, capsys, tmp_path, rows, message):
        dict_file = tmp_path / "d.tsv"
        dict_file.write_text("\n".join(rows) + "\n", encoding="utf-8")
        out = tmp_path / "out.tsv"
        code, stdout, stderr = run(capsys, ["map", "--dict", str(dict_file), "--out", str(out)])
        # The synonym's own row is named.
        assert (code, stdout, stderr) == (2, "", f"error: {dict_file}:{message}\n")
        assert not out.exists()

    def test_shipped_tables_passed_as_flags_change_nothing(self, capsys, tmp_path, data_dir):
        data = Path(medlex.__file__).parent / "data"
        base = ["map", "--dict", str(data_dir / "dict_50.tsv"), "--conllu", str(data_dir / "dict_50.conllu")]
        flags = ["--suffixes", str(data / "suffixes.tsv"), "--keywords", str(data / "keywords.tsv"),
                 "--stops", str(data / "stops.txt"), "--function-words", str(data / "function_words.txt")]
        runs = []
        for name, extra in (("default.tsv", []), ("flags.tsv", flags)):
            out = tmp_path / name
            runs.append((run(capsys, base + extra + ["--out", str(out)]), out.read_bytes()))
        assert runs[0] == runs[1]
        assert runs[0][0][0] == 0

    def test_format_sets_only_the_outcome_format(self, capsys, data_dir):
        code, stdout, _ = run(
            capsys, ["map", "--dict", str(data_dir / "dict_50.tsv"), "--format", "jsonl"]
        )
        assert code == 0
        rows = [json.loads(line) for line in stdout.splitlines()]
        assert len(rows) == 50

    def test_format_agreeing_with_out_suffix(self, capsys, tmp_path, data_dir):
        out = tmp_path / "mapped.jsonl"
        argv = ["map", "--dict", str(data_dir / "dict_50.tsv"), "--format", "jsonl"]
        code, _, _ = run(capsys, argv + ["--out", str(out)])
        assert code == 0
        assert len(read_outcomes(out)) == 50
        json.loads(out.read_text(encoding="utf-8").splitlines()[0])

    @pytest.mark.parametrize("fmt, name", [("jsonl", "mapped.tsv"), ("tsv", "mapped.jsonl")])
    def test_format_contradicting_out_suffix_exit_2(self, capsys, tmp_path, data_dir, fmt, name):
        out = tmp_path / name
        code, stdout, stderr = run(
            capsys,
            ["map", "--dict", str(data_dir / "dict_50.tsv"), "--format", fmt, "--out", str(out)],
        )
        assert code == 2
        assert f"--format {fmt}" in stderr and str(out) in stderr
        assert stdout == ""
        assert not out.exists()


def file_options(data, tmp):
    """Each command's file options, each given a file the command can read
    or write; ``tmp`` holds ``mapped.tsv``."""
    shipped = Path(medlex.__file__).parent / "data"
    mapped, manifest = str(tmp / "mapped.tsv"), str(data / "manifest.json")
    return {
        ("map",): {
            "--dict": str(data / "dict_50.tsv"),
            "--suffixes": str(shipped / "suffixes.tsv"),
            "--keywords": str(shipped / "keywords.tsv"),
            "--stops": str(shipped / "stops.txt"),
            "--function-words": str(shipped / "function_words.txt"),
            "--conllu": str(data / "dict_50.conllu"),
            "--out": str(tmp / "remapped.tsv"),
        },
        ("merge",): {"--manifest": manifest, "--mapped": mapped, "--out": str(tmp / "lexicon.tsv")},
        ("eval", "overlap"): {"--mapped": mapped, "--manifest": manifest},
        ("eval", "gold"): {
            "--gold": str(data / "gold.tsv"),
            "--mapped": mapped,
            "--matrix-out": str(tmp / "matrix.csv"),
            "--report-tsv": str(tmp / "report.tsv"),
        },
        ("eval", "sample"): {"--mapped": mapped, "--out": str(tmp / "sample.tsv")},
    }


FILE_OPTIONS = [
    (command, option)
    for command, options in file_options(Path("data"), Path("tmp")).items()
    for option in options
]


class TestFileOptions:
    @pytest.mark.parametrize(
        "command, option", FILE_OPTIONS, ids=["-".join(c) + o for c, o in FILE_OPTIONS]
    )
    def test_empty_path_is_a_usage_error(self, capsys, tmp_path, data_dir, mapped_file, command, option):
        # "" names no file: Path("") is the working directory.
        options = file_options(data_dir, tmp_path)[command]
        extra = ["--quota", "3", "--seed", "7"] if command == ("eval", "sample") else []
        argv = [*command, *extra]
        for name, value in options.items():
            argv += [name, "" if name == option else value]
        before = sorted(tmp_path.iterdir())
        with pytest.raises(SystemExit) as exc_info:
            main(argv)
        stdout, stderr = capsys.readouterr()
        assert (exc_info.value.code, stdout) == (2, "")
        assert stderr.startswith("usage:")
        assert f"argument {option}: expected a file path, got an empty string\n" in stderr
        assert sorted(tmp_path.iterdir()) == before
        # With every path given, the command runs.
        assert run(capsys, [*command, *extra, *(x for kv in options.items() for x in kv)])[0] == 0


# Each command with an output, and an input that output names: the
# command's arguments, the output's and the input's text as given, both
# relative to a working directory holding copies of tests/data and a
# mapped.tsv.
OUTPUT_NAMES_INPUT = {
    "map --dict": (["map", "--dict", "dict_50.tsv", "--out", "./dict_50.tsv"], "./dict_50.tsv", "dict_50.tsv"),
    "map --conllu": (["map", "--dict", "dict_50.tsv", "--conllu", "dict_50.conllu", "--out", "link.conllu"],
                     "link.conllu", "dict_50.conllu"),
    "map --keywords": (["map", "--dict", "dict_50.tsv", "--keywords", "kw.tsv", "--out", "sub/../kw.tsv"],
                       "sub/../kw.tsv", "kw.tsv"),
    "merge --mapped": (["merge", "--manifest", "manifest.tsv", "--mapped", "mapped.tsv", "--out", "mapped.tsv"],
                       "mapped.tsv", "mapped.tsv"),
    "merge --manifest": (["merge", "--manifest", "manifest.json", "--mapped", "mapped.tsv", "--out", "manifest.json"],
                         "manifest.json", "manifest.json"),
    "merge resource": (["merge", "--manifest", "manifest.tsv", "--mapped", "mapped.tsv", "--out", "./icd10.tsv"],
                       "./icd10.tsv", "icd10.tsv"),
    "eval gold --gold": (["eval", "gold", "--gold", "gold.tsv", "--mapped", "mapped.tsv", "--matrix-out", "gold.tsv"],
                         "gold.tsv", "gold.tsv"),
    "eval gold --mapped": (["eval", "gold", "--gold", "gold.tsv", "--mapped", "mapped.tsv", "--matrix-out", "m.csv",
                            "--report-tsv", "mapped.tsv"], "mapped.tsv", "mapped.tsv"),
    "eval sample --mapped": (["eval", "sample", "--mapped", "mapped.tsv", "--quota", "3", "--seed", "7",
                              "--out", "mapped.tsv"], "mapped.tsv", "mapped.tsv"),
}


class TestOutputNamingAnInput:
    @pytest.mark.parametrize("case", sorted(OUTPUT_NAMES_INPUT))
    def test_is_refused_before_anything_is_written(self, case, capsys, tmp_path, data_dir, monkeypatch):
        for path in data_dir.iterdir():
            (tmp_path / path.name).write_bytes(path.read_bytes())
        (tmp_path / "kw.tsv").write_text("sykdom\tCONDITION\n", encoding="utf-8")
        (tmp_path / "link.conllu").symlink_to("dict_50.conllu")
        (tmp_path / "sub").mkdir()
        monkeypatch.chdir(tmp_path)
        assert run(capsys, ["map", "--dict", "dict_50.tsv", "--out", "mapped.tsv"])[0] == 0
        before = {path.name: path.read_bytes() for path in tmp_path.iterdir() if path.is_file()}
        argv, output, source = OUTPUT_NAMES_INPUT[case]
        code, stdout, stderr = run(capsys, argv)
        assert (code, stdout) == (2, "")
        assert stderr == f"error: an output and an input name one file: {output} and {source}\n"
        assert {path.name: path.read_bytes() for path in tmp_path.iterdir() if path.is_file()} == before

    def test_outputs_that_are_not_regular_files_may_name_inputs(self, capsys):
        code, stdout, _ = run(capsys, ["map", "--dict", os.devnull, "--out", os.devnull])
        assert code == 0 and "total" in stdout


class TestCmdMerge:
    def test_merges_and_reports(self, capsys, tmp_path, data_dir, mapped_file):
        out = tmp_path / "lexicon.tsv"
        code, stdout, _ = run(
            capsys,
            [
                "merge",
                "--manifest",
                str(data_dir / "manifest.json"),
                "--mapped",
                str(mapped_file),
                "--lowercase",
                "--out",
                str(out),
            ],
        )
        assert code == 0
        assert "corrections applied" in stdout
        assert "forbrenning" in stdout
        lines = out.read_text(encoding="utf-8").splitlines()
        assert lines[0] == "term\tcategory\tsources\tprovenance"
        terms = [line.split("\t")[0].lower() for line in lines[1:]]
        assert len(terms) == len(set(terms))

    def test_union_size_on_tiny_agreeing_fixture(self, capsys, tmp_path):
        mapped = tmp_path / "mapped.tsv"
        mapped.write_text(
            "id\tterm\tcategory\tprovenance\tvotes\n"
            "e1\tleukemi\tCONDITION\tITER\t\n"
            "e2\tunik\tCONDITION\tITER\t\n",
            encoding="utf-8",
        )
        resource = tmp_path / "res.tsv"
        resource.write_text("leukemi\nannen\n", encoding="utf-8")
        manifest = tmp_path / "m.json"
        manifest.write_text(
            '[{"name": "R", "file": "res.tsv", "mode": "FIXED",'
            ' "category": "CONDITION", "trust_rank": 1}]',
            encoding="utf-8",
        )
        out = tmp_path / "lex.tsv"
        code, _, _ = run(
            capsys,
            ["merge", "--manifest", str(manifest), "--mapped", str(mapped), "--out", str(out)],
        )
        assert code == 0
        rows = out.read_text(encoding="utf-8").splitlines()[1:]
        assert len(rows) == 2 + 2 - 1  # n1 + n2 - overlap

    def test_lowercase_never_grows_output(self, capsys, tmp_path, data_dir, mapped_file):
        out_cased = tmp_path / "cased.tsv"
        out_lower = tmp_path / "lower.tsv"
        for out, flag in ((out_cased, []), (out_lower, ["--lowercase"])):
            code, _, _ = run(
                capsys,
                [
                    "merge",
                    "--manifest",
                    str(data_dir / "manifest.json"),
                    "--mapped",
                    str(mapped_file),
                    "--out",
                    str(out),
                    *flag,
                ],
            )
            assert code == 0
        n_cased = len(out_cased.read_text(encoding="utf-8").splitlines())
        n_lower = len(out_lower.read_text(encoding="utf-8").splitlines())
        assert n_lower <= n_cased

    def test_missing_manifest_exit_2(self, capsys, tmp_path, mapped_file):
        code, _, _ = run(
            capsys,
            [
                "merge",
                "--manifest",
                str(tmp_path / "absent.json"),
                "--mapped",
                str(mapped_file),
                "--out",
                str(tmp_path / "x.tsv"),
            ],
        )
        assert code == 2

    @pytest.mark.parametrize(
        ("name", "text", "where"),
        [
            (
                "m.tsv",
                "R\tres.tsv\tFIXED\tCONDITION\t1\tterm=0\n"
                "S\tres.tsv\tPER_ENTRY\t\t2\tterm=-2,category=-1\n",
                "m.tsv:2: ",
            ),
            (
                "m.json",
                '[{"name": "R", "file": "res.tsv", "mode": "FIXED", "category": "CONDITION",'
                ' "trust_rank": 1},'
                ' {"name": "S", "file": "res.tsv", "mode": "PER_ENTRY", "trust_rank": 2,'
                ' "layout": {"term": -2, "category": -1}}]',
                "m.json: resource #2: ",
            ),
        ],
        ids=["tsv", "json"],
    )
    def test_negative_layout_column_exit_2(self, capsys, tmp_path, mapped_file, name, text, where):
        (tmp_path / "res.tsv").write_text("feber\tCONDITION\n", encoding="utf-8")
        manifest = tmp_path / name
        manifest.write_text(text, encoding="utf-8")
        out = tmp_path / "x.tsv"
        code, stdout, stderr = run(
            capsys,
            ["merge", "--manifest", str(manifest), "--mapped", str(mapped_file), "--out", str(out)],
        )
        assert (code, stdout) == (2, "")
        assert f"{manifest.parent}/{where}resource S: layout column term=-2 is negative" in stderr
        assert not out.exists()

    @pytest.mark.parametrize(
        ("name", "text", "where"),
        [
            ("m.tsv", "S\tres.tsv\tPER_ENTRY\t\t2\tterm=0\n", "m.tsv:1: "),
            ("m.json", '[{"name": "S", "file": "res.tsv", "mode": "PER_ENTRY", "trust_rank": 2,'
                       ' "layout": {"term": 0}}]', "m.json: resource #1: "),
        ],
        ids=["tsv", "json"],
    )
    def test_per_entry_layout_without_category_exit_2(self, capsys, tmp_path, mapped_file, name, text, where):
        (tmp_path / "res.tsv").write_text("feber\tCONDITION\n", encoding="utf-8")
        manifest = tmp_path / name
        manifest.write_text(text, encoding="utf-8")
        out = tmp_path / "x.tsv"
        code, stdout, stderr = run(
            capsys,
            ["merge", "--manifest", str(manifest), "--mapped", str(mapped_file), "--out", str(out)],
        )
        assert (code, stdout) == (2, "")
        assert stderr == f"error: {manifest.parent}/{where}resource S: PER_ENTRY layout needs a category column\n"
        assert not out.exists()

    @pytest.mark.parametrize(
        ("name", "message"),
        [
            ("", "--mapped-name: source name '' is blank"),
            (" ", "--mapped-name: source name ' ' is blank"),
            ("A\tB", "--mapped-name: source name 'A\\tB' must not contain a tab, CR, LF or ','"),
            ("A\rB", "--mapped-name: source name 'A\\rB' must not contain a tab, CR, LF or ','"),
            ("A\nB", "--mapped-name: source name 'A\\nB' must not contain a tab, CR, LF or ','"),
            ("A,B", "--mapped-name: source name 'A,B' must not contain a tab, CR, LF or ','"),
            ("ALOC", "manifest.json: resource #1: resource ALOC: name is also the --mapped-name"),
        ],
        ids=["empty", "blank", "tab", "cr", "lf", "comma", "a-resource"],
    )
    def test_bad_mapped_name_exit_2(self, capsys, tmp_path, data_dir, mapped_file, name, message):
        out = tmp_path / "lexicon.tsv"
        argv = ["merge", "--manifest", str(data_dir / "manifest.json"), "--mapped", str(mapped_file),
                "--out", str(out)]
        code, stdout, stderr = run(capsys, [*argv, "--mapped-name", name])
        assert (code, stdout) == (2, "")
        assert stderr.startswith("error: ") and stderr.endswith(message + "\n")
        assert not out.exists()
        code, stdout, _ = run(capsys, [*argv, "--mapped-name", "DICT", "--mapped-rank", "0"])
        assert code == 0 and "DICT" in stdout and "MO" not in stdout

    def test_equal_trust_conflict_exit_4(self, capsys, tmp_path, data_dir, mapped_file):
        code, _, stderr = run(
            capsys,
            [
                "merge",
                "--manifest",
                str(data_dir / "manifest_conflict.json"),
                "--mapped",
                str(mapped_file),
                "--out",
                str(tmp_path / "x.tsv"),
            ],
        )
        assert code == 4
        assert "omstridt begrep" in stderr

    def test_within_source_disagreement_warns_and_keeps_the_earliest(self, tmp_path):
        mapped = tmp_path / "mapped.tsv"
        mapped.write_text(
            "id\tterm\tcategory\tprovenance\tvotes\n"
            "e1\tkjerne\tANAT_LOC\tITER\t\n"
            "e2\tKjerne\tTOOL\tITER\t\n",
            encoding="utf-8",
        )
        (tmp_path / "res.tsv").write_text("annen\n", encoding="utf-8")
        manifest = tmp_path / "m.json"
        manifest.write_text(
            '[{"name": "R", "file": "res.tsv", "mode": "FIXED",'
            ' "category": "CONDITION", "trust_rank": 1}]',
            encoding="utf-8",
        )
        out = tmp_path / "lex.tsv"
        proc = run_module(
            ["merge", "--manifest", str(manifest), "--mapped", str(mapped),
             "--lowercase", "--out", str(out)]
        )
        assert proc.returncode == 0
        assert proc.stderr == (
            "WARNING: term 'kjerne' has both ANAT_LOC and TOOL in MO; merge uses the earliest\n"
        )
        assert out.read_text(encoding="utf-8").splitlines()[1:] == [
            "annen\tCONDITION\tR\tR",
            "kjerne\tANAT_LOC\tMO\tITER",
        ]

    @pytest.mark.parametrize("enabled", [True, False])
    def test_gc_state_is_restored(self, capsys, tmp_path, data_dir, mapped_file, enabled):
        def merge(manifest):
            argv = ["merge", "--manifest", str(manifest), "--mapped", str(mapped_file),
                    "--out", str(tmp_path / "lex.tsv")]
            return run(capsys, argv)[0]

        was_enabled = gc.isenabled()
        try:
            gc.enable() if enabled else gc.disable()
            assert merge(data_dir / "manifest.json") == 0
            assert gc.isenabled() is enabled
            assert merge(tmp_path / "absent.json") == 2
            assert gc.isenabled() is enabled
        finally:
            gc.enable() if was_enabled else gc.disable()

    def test_command_runs_without_cyclic_gc(self, monkeypatch):
        seen = []
        monkeypatch.setattr(cli, "cmd_merge", lambda args: seen.append(gc.isenabled()) or 0)
        argv = ["merge", "--manifest", "m.json", "--mapped", "m.tsv", "--out", "x.tsv"]
        assert main(argv) == 0
        assert seen == [False]

    @pytest.mark.parametrize(
        "argv",
        [
            ["merge", "--manifest", "m.json", "--mapped", "m.tsv", "--out", "x.tsv"],
            ["eval", "overlap", "--mapped", "m.tsv", "--manifest", "m.json"],
            ["eval", "gold", "--gold", "g.tsv", "--mapped", "m.tsv"],
            ["eval", "sample", "--mapped", "m.tsv", "--quota", "1", "--seed", "1"],
        ],
    )
    def test_lax_is_a_map_option_only(self, capsys, argv):
        with pytest.raises(SystemExit) as exc_info:
            main(argv + ["--lax"])
        assert exc_info.value.code == 2
        err = capsys.readouterr().err
        assert err.startswith("usage:")
        assert "--lax" in err


class TestCmdEval:
    def test_gold_identity_scores_one(self, capsys, tmp_path, mapped_file):
        outcomes = [o for o in read_outcomes(mapped_file) if o.category is not None]
        gold = tmp_path / "gold.tsv"
        gold.write_text(
            "".join(f"{o.term}\t{o.category}\n" for o in outcomes), encoding="utf-8"
        )
        code, stdout, _ = run(
            capsys,
            ["eval", "gold", "--gold", str(gold), "--mapped", str(mapped_file)],
        )
        assert code == 0
        assert "accuracy excl OTHER  100.0%" in stdout

    def test_gold_fixture_report(self, capsys, tmp_path, data_dir, mapped_file):
        code, stdout, _ = run(
            capsys,
            [
                "eval",
                "gold",
                "--gold",
                str(data_dir / "gold.tsv"),
                "--mapped",
                str(mapped_file),
                "--exclude-other",
                "--matrix-out",
                str(tmp_path / "matrix.csv"),
                "--report-tsv",
                str(tmp_path / "report.tsv"),
            ],
        )
        assert code == 0
        # 13/16 correct excluding OTHER; 13/17 including
        assert "accuracy excl OTHER  81.3%" in stdout
        assert "accuracy incl OTHER  76.5%" in stdout
        matrix = (tmp_path / "matrix.csv").read_text(encoding="utf-8")
        assert matrix.startswith("gold\\pred,")
        report = (tmp_path / "report.tsv").read_text(encoding="utf-8")
        assert report.startswith("label\ttp\tpred_n")

    def test_gold_with_an_unwritable_output_prints_and_writes_nothing(
        self, capsys, tmp_path, data_dir, mapped_file
    ):
        matrix, old = tmp_path / "matrix.csv", tmp_path / "old.csv"
        old.write_text("old\n", encoding="utf-8")
        argv = ["eval", "gold", "--gold", str(data_dir / "gold.tsv"), "--mapped", str(mapped_file)]
        for out in (matrix, old):
            code, stdout, stderr = run(
                capsys, [*argv, "--matrix-out", str(out), "--report-tsv", str(tmp_path / "nodir" / "r.tsv")]
            )
            assert (code, stdout) == (2, "")
            assert stderr == f"error: [Errno 2] No such file or directory: '{tmp_path / 'nodir' / 'r.tsv'}'\n"
        assert not matrix.exists()
        assert old.read_text(encoding="utf-8") == "old\n"
        assert sorted(os.listdir(tmp_path)) == ["mapped.tsv", "old.csv"]

    def test_gold_merge_labels_raise_accuracy(self, capsys, data_dir, mapped_file):
        base_code, base_out, _ = run(
            capsys,
            [
                "eval",
                "gold",
                "--gold",
                str(data_dir / "gold.tsv"),
                "--mapped",
                str(mapped_file),
                "--exclude-other",
            ],
        )
        merged_code, merged_out, _ = run(
            capsys,
            [
                "eval",
                "gold",
                "--gold",
                str(data_dir / "gold.tsv"),
                "--mapped",
                str(mapped_file),
                "--exclude-other",
                "--merge-labels",
                "ORG+SER",
            ],
        )
        assert base_code == merged_code == 0
        assert "accuracy excl OTHER  81.3%" in base_out
        assert "accuracy excl OTHER  93.8%" in merged_out
        assert "ORG+SER" in merged_out

    @pytest.mark.parametrize(
        ("labels", "message"),
        [
            ("ORG+SER,ORG+TOOL", "category ORGANIZATION appears in two merge groups"),
            ("ORG+SER,", "category '' is unknown or ambiguous"),
            ("", "category '' is unknown or ambiguous"),
            ("SER+SERVICE", "merge group needs at least two distinct categories: 'SER+SERVICE'"),
            ("P+SER", "category 'P' is unknown or ambiguous"),
        ],
        ids=["overlapping", "empty-group", "empty", "one-category", "ambiguous"],
    )
    def test_gold_bad_merge_labels_exit_2(self, capsys, tmp_path, data_dir, mapped_file, labels, message):
        matrix = tmp_path / "matrix.csv"
        code, stdout, stderr = run(
            capsys,
            ["eval", "gold", "--gold", str(data_dir / "gold.tsv"), "--mapped", str(mapped_file),
             "--merge-labels", labels, "--matrix-out", str(matrix)],
        )
        assert (code, stdout) == (2, "")
        assert stderr == f"error: --merge-labels: {message}\n"
        assert not matrix.exists()

    @pytest.mark.parametrize("second", ["X", "./X", "../out/X"])
    def test_gold_outputs_naming_one_file_exit_2(self, capsys, tmp_path, data_dir, mapped_file, monkeypatch, second):
        (tmp_path / "out").mkdir()
        monkeypatch.chdir(tmp_path / "out")
        argv = ["eval", "gold", "--gold", str(data_dir / "gold.tsv"), "--mapped", str(mapped_file)]
        code, stdout, stderr = run(capsys, [*argv, "--matrix-out", "X", "--report-tsv", second])
        assert (code, stdout) == (2, "")
        assert stderr == f"error: two outputs name one file: X and {second}\n"
        assert os.listdir(tmp_path / "out") == []
        # Targets that are not regular files may repeat.
        code, stdout, _ = run(capsys, [*argv, "--matrix-out", os.devnull, "--report-tsv", os.devnull])
        assert code == 0 and "accuracy" in stdout

    def test_gold_term_without_prediction_exit_5(self, capsys, tmp_path, mapped_file):
        gold = tmp_path / "gold.tsv"
        gold.write_text("finnes ikke\tCONDITION\n", encoding="utf-8")
        code, _, stderr = run(
            capsys,
            ["eval", "gold", "--gold", str(gold), "--mapped", str(mapped_file)],
        )
        assert code == 5
        assert stderr == (
            f"error: {gold}: no prediction in {mapped_file} for 1 gold term(s), the first 'finnes ikke'\n"
        )

    def test_sample_deterministic_bytes(self, capsys, tmp_path, mapped_file):
        a, b = tmp_path / "a.tsv", tmp_path / "b.tsv"
        for out in (a, b):
            code, _, _ = run(
                capsys,
                [
                    "eval",
                    "sample",
                    "--mapped",
                    str(mapped_file),
                    "--quota",
                    "100",
                    "--seed",
                    "7",
                    "--out",
                    str(out),
                ],
            )
            assert code == 0
        assert a.read_bytes() == b.read_bytes()

    @pytest.mark.parametrize("fmt", ["tsv", "jsonl"])
    @pytest.mark.parametrize(
        ("row", "message"),
        [
            (("e1", "TOOL", "KW_E", "SUFF:CONDITION:x:-;KW_E:TOOL:y:1"),
             "e1: votes resolve to CONDITION SUFF, not TOOL KW_E"),
            (("e2", "", "UNMAPPED", "SUFF:TOOL:x:-"), "e2: votes resolve to TOOL SUFF, not (none) UNMAPPED"),
            (("e3", "TOOL", "MULTI", "SUFF:TOOL:x:-;SUFF:TOOL:y:-"),
             "e3: more than one vote from the same strategy"),
        ],
        ids=["outvoted", "unmapped-with-votes", "one-strategy-twice"],
    )
    def test_sample_refuses_a_row_map_cannot_write(self, capsys, tmp_path, row, message, fmt):
        # The row would be sampled if the reader accepted it.
        rows = [("e0", "TOOL", "ITER", ""), row]
        mapped = tmp_path / f"mapped.{fmt}"
        if fmt == "tsv":
            lines = [f"{i}\tterm {i}\t{c}\t{p}\t{v}" for i, c, p, v in rows]
        else:
            lines = [json.dumps({"id": i, "term": f"term {i}", "category": c or None, "provenance": p,
                                 "votes": v}) for i, c, p, v in rows]
        mapped.write_text("\n".join(lines) + "\n", encoding="utf-8")
        code, stdout, stderr = run(
            capsys, ["eval", "sample", "--mapped", str(mapped), "--quota", "5", "--seed", "1"]
        )
        assert (code, stdout) == (2, "")
        assert stderr == f"error: {mapped}:2: bad outcome row: {message}\n"

    def test_overlap_report_shape(self, capsys, data_dir, mapped_file):
        code, stdout, _ = run(
            capsys,
            [
                "eval",
                "overlap",
                "--mapped",
                str(mapped_file),
                "--manifest",
                str(data_dir / "manifest.json"),
            ],
        )
        assert code == 0
        assert stdout.splitlines()[0].startswith("resource")
        assert "ICD-10" in stdout
        assert "Multiple" in stdout  # ALOC/ICPC-2 descriptor
        assert "N/A" not in stdout.splitlines()[1]

    @pytest.mark.parametrize(
        ("mode", "rules", "layout", "content", "message"),
        [
            ("PER_ENTRY", "", "term=0,category=1", b"feber\tCONDITION\nkniv\n",
             "resource R: expected at least 2 tab-separated columns, got 1"),
            ("FIXED", "CONDITION", "term=0,code=1", b"feber\tA10\n \tB20\n", "resource R: empty term"),
            ("PER_ENTRY", "", "term=0,category=1", b"feber\tCONDITION\nkniv\tukjent\n",
             "resource R: unknown category label: 'ukjent'"),
            ("CHAPTERED", "General=CONDITION", "term=0,chapter=1", b"feber\tGeneral\nkniv\tUkjent\n",
             "resource R: chapter 'Ukjent' matches no rule and the spec has no default"),
            ("FIXED", "CONDITION", "term=0", b"feber\nkn\xffiv\n", "resource R is not UTF-8"),
        ],
    )
    def test_overlap_names_a_resource_fault_as_merge_does(
        self, capsys, tmp_path, mode, rules, layout, content, message
    ):
        (tmp_path / "r.tsv").write_bytes(content)
        manifest = tmp_path / "m.tsv"
        manifest.write_text(f"R\tr.tsv\t{mode}\t{rules}\t1\t{layout}\n", encoding="utf-8")
        mapped = tmp_path / "mapped.tsv"
        mapped.write_text("id\tterm\tcategory\tprovenance\tvotes\ne1\tfeber\tCONDITION\tITER\t\n",
                          encoding="utf-8")
        merge = run(capsys, ["merge", "--manifest", str(manifest), "--mapped", str(mapped),
                             "--out", str(tmp_path / "lex.tsv")])
        overlap = run(capsys, ["eval", "overlap", "--mapped", str(mapped), "--manifest", str(manifest)])
        assert overlap == merge == (2, "", merge[2])
        assert merge[2].startswith(f"error: {tmp_path / 'r.tsv'}:2: {message}")
        assert not (tmp_path / "lex.tsv").exists()

    def test_threads_flag_accepted_and_validated(self, capsys, tmp_path):
        dict_file = tmp_path / "d.tsv"
        dict_file.write_text("e1\tleukemi\tsykdom i blodet\n", encoding="utf-8")
        code, _, _ = run(capsys, ["map", "--dict", str(dict_file), "--threads", "8"])
        assert code == 0
        with pytest.raises(SystemExit):
            main(["map", "--dict", str(dict_file), "--threads", "0"])


def run_module(argv, *options, **env):
    """``python [options] -m medlex argv`` with ``env`` added to the environment."""
    src = str(Path(medlex.__file__).resolve().parent.parent)
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    return subprocess.run(
        [sys.executable, *options, "-m", "medlex", *argv],
        capture_output=True,
        text=True,
        env=dict(os.environ, PYTHONPATH=path, **env),
    )


class TestConsoleEntryPoint:
    def test_module_invocation(self, tmp_path):
        dict_file = tmp_path / "d.tsv"
        dict_file.write_text("e1\tleukemi\tsykdom i blodet\n", encoding="utf-8")
        proc = run_module(["map", "--dict", str(dict_file)])
        assert proc.returncode == 0
        assert proc.stdout.startswith("id\tterm")

    def test_each_command_loads_only_the_modules_it_runs(self, tmp_path, data_dir):
        # Each module a command loads is also compiled at start-up when no
        # bytecode is cached, so a command leaves out what it does not call.
        loaded = (
            "import json, sys\n"
            "from medlex.cli import main\n"
            "code = main(sys.argv[1:])\n"
            "print(json.dumps(sorted(m for m in sys.modules if m.split('.')[0] == 'medlex')), "
            "file=sys.stderr)\n"
            "sys.exit(code)\n"
        )
        core = {"medlex", "medlex.cli", "medlex.errors", "medlex.io", "medlex.model", "medlex.outcomes"}
        # merge and eval read the outcome file and load none of these.
        map_only = {"medlex.defaults", "medlex.pipeline", "medlex.strategies", "medlex.textprep"}
        mapped, manifest = str(tmp_path / "mapped.tsv"), str(data_dir / "manifest.json")
        commands = [
            (["map", "--dict", str(data_dir / "dict_50.tsv"), "--conllu", str(data_dir / "dict_50.conllu"),
              "--out", mapped], map_only),
            (["merge", "--manifest", manifest, "--mapped", mapped, "--out", str(tmp_path / "lexicon.tsv")],
             {"medlex.merge"}),
            (["eval", "overlap", "--mapped", mapped, "--manifest", manifest],
             {"medlex.merge", "medlex.evaluate"}),
            (["eval", "gold", "--gold", str(data_dir / "gold.tsv"), "--mapped", mapped], {"medlex.evaluate"}),
            (["eval", "sample", "--mapped", mapped, "--quota", "3", "--seed", "7"], {"medlex.evaluate"}),
        ]
        src = str(Path(medlex.__file__).resolve().parent.parent)
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
        for argv, extra in commands:
            proc = subprocess.run([sys.executable, "-c", loaded, *argv], capture_output=True, text=True, env=env)
            assert proc.returncode == 0, proc.stderr
            assert set(json.loads(proc.stderr.splitlines()[-1])) == core | extra, argv

    def test_no_stage_module_imports_another(self):
        # Stages meet only in the files they pass on (the outcome file, the
        # manifest), so each loads without the others. An import under
        # TYPE_CHECKING serves annotations alone and loads nothing.
        stages = {"pipeline", "merge", "evaluate"}
        package = Path(medlex.__file__).parent

        def imported(tree):
            """The medlex modules ``tree`` imports at run time."""
            skipped = {
                id(inner)
                for node in ast.walk(tree)
                if isinstance(node, ast.If) and ast.unparse(node.test) == "TYPE_CHECKING"
                for stmt in node.body
                for inner in ast.walk(stmt)
            }
            for node in ast.walk(tree):
                if id(node) in skipped:
                    continue
                if isinstance(node, ast.ImportFrom):
                    module = node.module or ""
                    if node.level == 1:
                        module = f"medlex.{module}" if module else "medlex"
                    if module == "medlex":
                        yield from (alias.name for alias in node.names)
                    elif module.startswith("medlex."):
                        yield module.split(".")[1]
                elif isinstance(node, ast.Import):
                    yield from (a.name.split(".")[1] for a in node.names if a.name.startswith("medlex."))

        for stage in sorted(stages):
            tree = ast.parse((package / f"{stage}.py").read_text(encoding="utf-8"))
            assert set(imported(tree)) & stages - {stage} == set(), stage

    def test_verbose_shows_keyword_lint_notes(self, tmp_path):
        dict_file = tmp_path / "d.tsv"
        dict_file.write_text("e1\tleukemi\tsykdom i blodet\n", encoding="utf-8")
        table = tmp_path / "keywords.tsv"
        table.write_text("lege\tPERSON\nsykdom\tCONDITION\n", encoding="utf-8")
        argv = ["map", "--dict", str(dict_file), "--keywords", str(table)]
        heuristic = "WARNING: one or more definitions were tagged heuristically\n"
        note = (
            "INFO: lint: keyword 'lege' has length <= 4; it can only fire as an exact "
            "first-noun match\n"
        )
        quiet, verbose = run_module(argv), run_module([*argv, "-v"])
        assert quiet.returncode == verbose.returncode == 0
        assert quiet.stderr == heuristic
        assert verbose.stderr == note + heuristic
        assert quiet.stdout == verbose.stdout

    def test_iter_homographs_warn_once_and_list_at_info(self, tmp_path):
        dict_file = tmp_path / "d.tsv"
        dict_file.write_text(
            "e1\tlege\tsykdom i blodet\n"
            "e2\tlege\tskalpell til kirurgi\n"
            "e3\ttang\tskalpell for kirurgi\n"
            "e4\ttang\tsykdom i huden\n"
            "e5\tbarnelege\tlege for barn\n",
            encoding="utf-8",
        )
        table = tmp_path / "keywords.tsv"
        table.write_text("sykdom\tCONDITION\nskalpell\tTOOL\n", encoding="utf-8")
        argv = ["map", "--dict", str(dict_file), "--keywords", str(table)]
        heuristic = "WARNING: one or more definitions were tagged heuristically\n"
        listed = (
            "INFO: term 'lege' mapped to both CONDITION and TOOL; ITER uses the earliest\n"
            "INFO: term 'tang' mapped to both TOOL and CONDITION; ITER uses the earliest\n"
        )
        summary = (
            "WARNING: 2 term(s) mapped to more than one category; ITER uses the earliest "
            "of each (listed at INFO level, -v)\n"
        )
        quiet, verbose = run_module(argv), run_module([*argv, "-v"])
        assert quiet.returncode == verbose.returncode == 0
        assert quiet.stderr == heuristic + summary
        assert verbose.stderr == heuristic + listed + summary
        assert quiet.stdout == verbose.stdout
        assert quiet.stdout.splitlines()[-1] == "e5\tbarnelege\tCONDITION\tITER\t"


def fixture_job(data, out):
    """The fixture job's commands, writing under ``out``: map in both outcome
    formats, merge each, and the three eval protocols."""
    mapped = {fmt: str(out / f"mapped.{fmt}") for fmt in ("tsv", "jsonl")}
    manifest = str(data / "manifest.json")
    return [
        *(
            ["map", "--dict", str(data / "dict_50.tsv"), "--conllu", str(data / "dict_50.conllu"),
             "--out", mapped[fmt]]
            for fmt in ("tsv", "jsonl")
        ),
        ["merge", "--manifest", manifest, "--mapped", mapped["tsv"], "--lowercase",
         "--out", str(out / "lexicon.tsv")],
        ["merge", "--manifest", manifest, "--mapped", mapped["jsonl"],
         "--out", str(out / "lexicon.jsonl")],
        ["eval", "overlap", "--mapped", mapped["tsv"], "--manifest", manifest],
        ["eval", "gold", "--gold", str(data / "gold.tsv"), "--mapped", mapped["jsonl"],
         "--merge-labels", "ORG+SER", "--matrix-out", str(out / "matrix.csv"),
         "--report-tsv", str(out / "report.tsv")],
        ["eval", "sample", "--mapped", mapped["tsv"], "--quota", "3", "--seed", "7"],
    ]


class TestHashOrder:
    def test_outputs_do_not_depend_on_the_hash_seed(self, tmp_path, data_dir):
        # Lexicon sources are frozensets, whose iteration order follows
        # string hashing, which PYTHONHASHSEED changes per process.
        runs = []
        for seed in ("1", "2"):
            out = tmp_path / seed
            out.mkdir()
            printed = []
            for argv in fixture_job(data_dir, out):
                proc = run_module(argv, PYTHONHASHSEED=seed)
                assert proc.returncode == 0, proc.stderr
                printed.append((proc.stdout, proc.stderr))
            files = {p.name: p.read_bytes() for p in sorted(out.iterdir())}
            assert len(files) == 6
            runs.append((printed, files))
        assert runs[0] == runs[1]
