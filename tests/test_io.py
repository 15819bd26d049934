from __future__ import annotations

import ast
import json
import os
import re
import stat
import sys
import tempfile
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from medlex import io, pipeline
from medlex.cli import main
from medlex.errors import LintError, ParseError
from medlex.evaluate import read_gold
from medlex.merge import ChapterRule, ResourceMode, ResourceSpec, load_manifest, resource_rows
from medlex.model import Category
from medlex.outcomes import read_outcomes, render_outcomes
from medlex.pipeline import read_dictionary, read_dictionary_rows, resolve_synonyms
from medlex.strategies import load_keyword_table, load_suffix_table
from medlex.textprep import ingest_conllu, load_stoplist, load_wordlist

SRC = Path(__file__).resolve().parent.parent / "src" / "medlex"

GOOD_DICT = "e1\tleukemi\tsykdom i blodet\n"
GOOD_JSON_ROW = '{"id": "e1", "term": "leukemi", "definition": "sykdom i blodet"}\n'
OUTCOME_HEADER = "id\tterm\tcategory\tprovenance\tvotes\n"


def put(path: Path, content: str | bytes) -> str:
    if isinstance(content, str):
        content = content.encode("utf-8")
    path.write_bytes(content)
    return str(path)


# Each case writes its inputs under tmp and returns (argv, the "file:line"
# the error message must name).
def latin1_dictionary(tmp, data):
    d = put(tmp / "d.tsv", GOOD_DICT.encode() + "e2\tfeber\tsykdom i bl\xf8det\n".encode("latin-1"))
    return ["map", "--dict", d], f"{d}:2:"


def latin1_dictionary_after_byte_order_mark(tmp, data):
    # The mark a reader drops leaves the line numbers as they are.
    d = put(tmp / "d.tsv", b"\xef\xbb\xbf" + GOOD_DICT.encode() + "e2\tfeber\tbl\xf8d\n".encode("latin-1"))
    return ["map", "--dict", d], f"{d}:2: dictionary is not UTF-8"


def latin1_dictionary_cr_endings(tmp, data):
    d = put(tmp / "d.tsv", GOOD_DICT.replace("\n", "\r").encode() + b"e2\tfeber\tbl\xf8d\r")
    return ["map", "--dict", d], f"{d}:2:"


def latin1_dictionary_after_line_separator(tmp, data):
    # U+2028 and U+0085 inside a row do not start a new line.
    first = "e1\tleukemi\tsykdom\u2028i\x85blodet\n".encode()
    d = put(tmp / "d.tsv", first + "e2\tfeber\tbl\xf8d\n".encode("latin-1"))
    return ["map", "--dict", d], f"{d}:2:"


def dictionary_cr_endings_bad_row(tmp, data):
    d = put(tmp / "d.tsv", "e1\tleukemi\tsykdom\r\re2\tfeber\r")
    return ["map", "--dict", d], f"{d}:3:"


def gold_cr_endings_bad_row(tmp, data):
    mapped = put(tmp / "m.tsv", OUTCOME_HEADER + "e1\tleukemi\tCONDITION\tITER\t\n")
    gold = put(tmp / "g.tsv", "# gold\rleukemi\tCONDITION\rfeber\r")
    return ["eval", "gold", "--gold", gold, "--mapped", mapped], f"{gold}:3:"


def latin1_keyword_table(tmp, data):
    kw = put(tmp / "kw.tsv", b"# keywords\nbl\xf8d\tCONDITION\n")
    return ["map", "--dict", put(tmp / "d.tsv", GOOD_DICT), "--keywords", kw], f"{kw}:2:"


def latin1_conllu(tmp, data):
    conllu = put(tmp / "d.conllu", b"# sent_id = e1\n1\tbl\xf8d\t_\tNOUN\t_\t_\t_\t_\t_\t_\n")
    return ["map", "--dict", put(tmp / "d.tsv", GOOD_DICT), "--conllu", conllu], f"{conllu}:2:"


def dictionary_array_line(tmp, data):
    d = put(tmp / "d.jsonl", '{"id": "e1", "term": "leukemi"}\n[1, 2]\n')
    return ["map", "--dict", d], f"{d}:2:"


def dictionary_deep_nesting(tmp, data):
    d = put(tmp / "d.jsonl", "[" * 100_000 + "\n")
    return ["map", "--dict", d], f"{d}:1:"


def dictionary_definitions_string(tmp, data):
    d = put(tmp / "d.jsonl", '{"id": "e1", "term": "leukemi", "definitions": "abc"}\n')
    return ["map", "--dict", d], f"{d}:1:"


def dictionary_number_definition(tmp, data):
    d = put(tmp / "d.jsonl", '{"id": "e1", "term": "feber", "definition": 5}\n')
    return ["map", "--dict", d], f'{d}:1: "definition" must be a JSON string, not int'


def dictionary_null_among_definitions(tmp, data):
    d = put(tmp / "d.jsonl", '{"id": "1", "term": "feber", "definitions": [null, "x"]}\n')
    return ["map", "--dict", d], f'{d}:1: "definitions" must be a JSON list of strings, not one holding null'


def dictionary_list_synonym_of(tmp, data):
    rows = '{"id": "e1", "term": "kniv"}\n{"id": "e2", "term": "sag", "synonym_of": ["e1"]}\n'
    d = put(tmp / "d.jsonl", rows)
    return ["map", "--dict", d], f'{d}:2: "synonym_of" must be a JSON string or integer, not list'


def dictionary_null_id_and_term(tmp, data):
    d = put(tmp / "d.jsonl", '{"id": null, "term": null, "definition": "sykdom"}\n')
    return ["map", "--dict", d], f'{d}:1: "id" must be a JSON string or integer, not null'


def dictionary_missing_term(tmp, data):
    d = put(tmp / "d.jsonl", '{"id": "e1", "term": "leukemi"}\n{"id": "e2"}\n')
    return ["map", "--dict", d], f'{d}:2: "term" is missing'


def dictionary_boolean_id(tmp, data):
    d = put(tmp / "d.jsonl", '{"id": true, "term": "leukemi"}\n')
    return ["map", "--dict", d], f"{d}:1:"


def dictionary_definition_and_definitions(tmp, data):
    rows = GOOD_JSON_ROW + '{"id": "e2", "term": "kniv", "definition": "en kniv", "definitions": ["x"]}\n'
    d = put(tmp / "d.jsonl", rows)
    return ["map", "--dict", d], f'{d}:2: a row takes "definition" or "definitions", not both'


def dictionary_number_term(tmp, data):
    d = put(tmp / "d.jsonl", '{"id": "e1", "term": 1.5}\n')
    return ["map", "--dict", d], f'{d}:1: "term" must be a JSON string, not float'


def dictionary_integer_too_long(tmp, data):
    d = put(tmp / "d.jsonl", '{"id": ' + "1" * 5000 + ', "term": "leukemi"}\n')
    return ["map", "--dict", d], f"{d}:1: bad JSON"


def dictionary_id_with_tab(tmp, data):
    d = put(tmp / "d.jsonl", '{"id": "e1", "term": "kniv"}\n{"id": "e\\t2", "term": "sag"}\n')
    return ["map", "--dict", d], f"{d}:2: ids must not contain tabs or newlines"


def dictionary_id_with_line_break(tmp, data):
    d = put(tmp / "d.jsonl", '{"id": "e\\r\\n1", "term": "kniv"}\n')
    return ["map", "--dict", d], f"{d}:1: ids must not contain tabs or newlines"


def dictionary_blank_columns(tmp, data):
    # The term is checked before the id.
    d = put(tmp / "d.tsv", GOOD_DICT + " \t \t \n")
    return ["map", "--dict", d], f"{d}:2: empty term"


def dictionary_id_ending_in_tab(tmp, data):
    # Refused before the id is trimmed, as a term ending in a tab is.
    d = put(tmp / "d.jsonl", '{"id": "e1\\t", "term": "kniv"}\n')
    return ["map", "--dict", d], f"{d}:1: ids must not contain tabs or newlines"


def dictionary_term_ending_in_tab(tmp, data):
    d = put(tmp / "d.jsonl", '{"id": "e1", "term": "kniv\\t"}\n')
    return ["map", "--dict", d], f"{d}:1: terms must not contain tabs or newlines"


def keyword_with_colon(tmp, data):
    kw = put(tmp / "kw.tsv", "# keywords\nab:cde\tTOOL\n")
    d = put(tmp / "d.tsv", "e1\tkniv\tab:cde\n")
    return ["map", "--dict", d, "--keywords", kw], f"{kw}:2: trigger 'ab:cde' must not contain"


def suffix_with_semicolon(tmp, data):
    sf = put(tmp / "sf.tsv", "-emi\tCONDITION\n-i;tis\tCONDITION\n")
    d = put(tmp / "d.tsv", "e1\tartri;tis\tbetennelse\n")
    return ["map", "--dict", d, "--suffixes", sf], f"{sf}:2: trigger '-i;tis' must not contain"


def outcomes_duplicate_id(tmp, data):
    rows = ["e1\tkniv\tTOOL\tITER\t", "e2\tsag\tTOOL\tITER\t", "e1\tkniv\tTOOL\tITER\t"]
    mapped = put(tmp / "m.tsv", OUTCOME_HEADER + "\n".join(rows) + "\n")
    argv = ["eval", "sample", "--mapped", mapped, "--quota", "5", "--seed", "1"]
    return argv, f"{mapped}:4: bad outcome row: duplicate entry id 'e1'"


def merge_args(tmp, data, mapped):
    return ["merge", "--manifest", str(data / "manifest.json"), "--mapped", mapped,
            "--out", str(tmp / "lex.tsv")]


def outcomes_string_line(tmp, data):
    row = {"id": "e1", "term": "leukemi", "category": "CONDITION", "provenance": "ITER"}
    mapped = put(tmp / "m.jsonl", json.dumps(row) + '\n"s"\n')
    return merge_args(tmp, data, mapped), f"{mapped}:2:"


def outcomes_list_id(tmp, data):
    row = {"id": ["e1"], "term": "leukemi", "category": "CONDITION", "provenance": "ITER"}
    mapped = put(tmp / "m.jsonl", json.dumps(row) + "\n")
    return merge_args(tmp, data, mapped), f"{mapped}:1:"


def outcomes_tab_in_term(tmp, data):
    # A TSV lexicon or sample row would get a fifth column.
    row = {"id": "e1", "term": "a\tb", "category": "CONDITION", "provenance": "ITER"}
    mapped = put(tmp / "m.jsonl", json.dumps(row) + "\n")
    return merge_args(tmp, data, mapped), f"{mapped}:1: bad outcome row: terms must not contain tabs"


def outcomes_line_break_in_id(tmp, data):
    row = {"id": "e\r1", "term": "ab", "category": "CONDITION", "provenance": "ITER"}
    mapped = put(tmp / "m.jsonl", json.dumps(row) + "\n")
    argv = ["eval", "sample", "--mapped", mapped, "--quota", "5", "--seed", "1"]
    return argv, f"{mapped}:1: bad outcome row: ids must not contain tabs"


def outcomes_null_term(tmp, data):
    row = {"id": "e1", "term": None, "category": "CONDITION", "provenance": "ITER"}
    mapped = put(tmp / "m.jsonl", json.dumps(row) + "\n")
    return merge_args(tmp, data, mapped), f"{mapped}:1:"


def outcomes_blank_term(tmp, data):
    mapped = put(tmp / "m.tsv", OUTCOME_HEADER + "e1\t \tCONDITION\tSUFF\tSUFF:CONDITION:emi:-\n")
    return merge_args(tmp, data, mapped), f"{mapped}:2:"


def outcomes_blank_columns(tmp, data):
    # Five blank columns are a row without a term, not a blank line.
    mapped = put(tmp / "m.tsv", OUTCOME_HEADER + "\t \t\t\t\n")
    argv = ["eval", "sample", "--mapped", mapped, "--quota", "5", "--seed", "1"]
    return argv, f"{mapped}:2: bad outcome row: empty term"


def outcomes_blank_id(tmp, data):
    mapped = put(tmp / "m.tsv", OUTCOME_HEADER + "\tblodtrykk\t\tUNMAPPED\t\n")
    argv = ["eval", "sample", "--mapped", mapped, "--quota", "5", "--seed", "1"]
    return argv, f"{mapped}:2: bad outcome row: missing entry id"


def outcomes_iter_with_votes(tmp, data):
    row = "e1\tleukemi\tCONDITION\tITER\tSUFF:CONDITION:emi:-\n"
    mapped = put(tmp / "m.tsv", OUTCOME_HEADER + row)
    return merge_args(tmp, data, mapped), f"{mapped}:2:"


def outcomes_false_category(tmp, data):
    row = {"id": "e1", "term": "leukemi", "category": False, "provenance": "UNMAPPED", "votes": ""}
    mapped = put(tmp / "m.jsonl", json.dumps(row) + "\n")
    argv = ["eval", "sample", "--mapped", mapped, "--quota", "5", "--seed", "1"]
    return argv, f'{mapped}:1: bad outcome row: "category" must be a JSON string, not bool'


def outcomes_list_votes(tmp, data):
    row = {"id": "e1", "term": "leukemi", "category": "CONDITION", "provenance": "SUFF",
           "votes": ["SUFF:CONDITION:emi:-"]}
    mapped = put(tmp / "m.jsonl", json.dumps(row) + "\n")
    return merge_args(tmp, data, mapped), f'{mapped}:1: bad outcome row: "votes" must be a JSON string, not list'


def gold_empty_term(tmp, data):
    mapped = put(tmp / "m.tsv", OUTCOME_HEADER + "e1\tleukemi\tCONDITION\tITER\t\n")
    gold = put(tmp / "g.tsv", "leukemi\tCONDITION\n\tCONDITION\n")
    return ["eval", "gold", "--gold", gold, "--mapped", mapped], f"{gold}:2:"


def conllu_empty_form(tmp, data):
    rows = ["# sent_id = e1", "1\tsykdom" + "\t_" * 8, "2\t" + "\t_" * 8]
    conllu = put(tmp / "d.conllu", "\n".join(rows) + "\n")
    return ["map", "--dict", put(tmp / "d.tsv", GOOD_DICT), "--conllu", conllu], f"{conllu}:3:"


def conllu_next_sentence_without_blank_line(tmp, data):
    rows = ["# sent_id = a", "1\tblod" + "\t_" * 8, "# sent_id = b", "1\tmåling" + "\t_" * 8]
    conllu = put(tmp / "d.conllu", "\n".join(rows) + "\n")
    d = put(tmp / "d.tsv", "a\tblodtrykk\tblod\nb\tblodprøve\tmåling\n")
    return ["map", "--dict", d, "--conllu", conllu], f"{conllu}:3: # sent_id inside a sentence"


def conllu_tokens_not_aligned(tmp, data):
    # A sentence that does not spell out its definition is named by its # sent_id line.
    rows = ["# sent_id = e0", "1\tfeber" + "\t_" * 8, "", "# sent_id = e1", "1\tblod" + "\t_" * 8]
    conllu = put(tmp / "d.conllu", "\n".join(rows) + "\n")
    d = put(tmp / "d.tsv", "e0\tfeber\tfeber\n" + GOOD_DICT)
    return ["map", "--dict", d, "--conllu", conllu], f"{conllu}:4: entry e1: token 'blod' does not align"


def dictionary_unknown_synonym(tmp, data):
    d = put(tmp / "d.tsv", GOOD_DICT + "e2\tblodkreft\t\te3\ne3\tkreft\t\te9\n")
    # The first synonym whose chain fails is named.
    return ["map", "--dict", d], f"{d}:2: entry e2: synonym_of points to unknown id 'e9'"


def dictionary_synonym_loop(tmp, data):
    d = put(tmp / "d.jsonl", '{"id": "e1", "term": "a", "synonym_of": "e2"}\n\n'
            '{"id": "e2", "term": "b", "synonym_of": "e1"}\n')
    return ["map", "--dict", d], f"{d}:1: entry e1: synonym chain loops"


def manifest_json_syntax_error(tmp, data):
    rows = ['[{"name": "A", "file": "a.tsv", "mode": "FIXED", "category": "TOOL", "trust_rank": 1},',
            ' {"name": "B", "file": "b.tsv", "mode": "FIXED" "category": "TOOL", "trust_rank": 2}]']
    manifest = put(tmp / "m.json", "\r\n".join(rows) + "\r\n")
    mapped = put(tmp / "m.tsv", OUTCOME_HEADER)
    return (["merge", "--manifest", manifest, "--mapped", mapped, "--out", str(tmp / "lex.tsv")],
            f"{manifest}:2: bad JSON manifest: Expecting ',' delimiter")


def manifest_unfinished_list(tmp, data):
    # A list the text ends inside is named at its last line that is not blank.
    manifest = put(tmp / "m.json", '[\n{"name": "A"}\n\n')
    mapped = put(tmp / "m.tsv", OUTCOME_HEADER)
    return ["eval", "overlap", "--mapped", mapped, "--manifest", manifest], f"{manifest}:2: bad JSON manifest"


def manifest_deep_nesting(tmp, data):
    manifest = put(tmp / "m.json", "[" * 100_000)
    mapped = put(tmp / "m.tsv", OUTCOME_HEADER)
    return ["eval", "overlap", "--mapped", mapped, "--manifest", manifest], f"{manifest}:1:"


def manifest_integer_too_long(tmp, data):
    manifest = put(tmp / "m.json", '\n[{"trust_rank": ' + "1" * 5000 + "}]")
    mapped = put(tmp / "m.tsv", OUTCOME_HEADER)
    return ["eval", "overlap", "--mapped", mapped, "--manifest", manifest], f"{manifest}:2:"


def manifest_layout_list(tmp, data):
    resource = {"name": "A", "file": "a.tsv", "mode": "FIXED", "category": "TOOL",
                "trust_rank": 1, "layout": [0]}
    manifest = put(tmp / "m.json", json.dumps([resource]))
    mapped = put(tmp / "m.tsv", OUTCOME_HEADER)
    return ["eval", "overlap", "--mapped", mapped, "--manifest", manifest], f"{manifest}:"


def manifest_text_rank(tmp, data):
    manifest = put(tmp / "m.tsv", "A\ta.tsv\tFIXED\tTOOL\tx\tterm=0\n")
    mapped = put(tmp / "mapped.tsv", OUTCOME_HEADER)
    return (["eval", "overlap", "--mapped", mapped, "--manifest", manifest],
            f"""{manifest}:1: resource A: "trust_rank" must be an integer, not 'x'""")


def manifest_per_entry_category(tmp, data):
    manifest = put(tmp / "m.tsv", "A\ta.tsv\tPER_ENTRY\tTOOL\t1\tterm=0,category=1\n")
    mapped = put(tmp / "mapped.tsv", OUTCOME_HEADER)
    return (["eval", "overlap", "--mapped", mapped, "--manifest", manifest],
            f"{manifest}:1: resource A: PER_ENTRY mode takes no category")


# A JSON \u escape that decodes to a lone surrogate reads, but no UTF-8
# text holds it: each JSON reader refuses it at its line.
def dictionary_lone_surrogate(tmp, data):
    d = put(tmp / "d.jsonl", GOOD_JSON_ROW + '{"id": "e2", "term": "kniv\\ud800", "definition": "et redskap"}\n')
    return ["map", "--dict", d, "--out", str(tmp / "o.tsv")], f"{d}:2: bad JSON: lone surrogate \\ud800"


def outcomes_lone_surrogate(tmp, data):
    mapped = put(tmp / "m.jsonl", '{"id": "e1", "term": "t\\uDC00", "category": "TOOL", "provenance": "ITER"}\n')
    return (["eval", "sample", "--mapped", mapped, "--quota", "1", "--seed", "1"],
            f"{mapped}:1: bad outcome row: bad JSON: lone surrogate \\udc00")


def manifest_json_lone_surrogate(tmp, data):
    rows = ['[{"name": "A", "file": "a.tsv", "mode": "FIXED", "category": "TOOL", "trust_rank": 1},',
            ' {"name": "B\\ud800", "file": "b.tsv", "mode": "FIXED", "category": "TOOL", "trust_rank": 2}]']
    manifest = put(tmp / "m.json", "\n".join(rows) + "\n")
    mapped = put(tmp / "m.tsv", OUTCOME_HEADER)
    return (["eval", "overlap", "--mapped", mapped, "--manifest", manifest],
            f"{manifest}:2: bad JSON manifest: lone surrogate \\ud800")


def manifest_jsonl_lone_surrogate(tmp, data):
    row = '{"name": "A\\ud800", "file": "a.tsv", "mode": "FIXED", "category": "TOOL", "trust_rank": 1}'
    manifest = put(tmp / "m.jsonl", "# resources\n" + row + "\n")
    mapped = put(tmp / "m.tsv", OUTCOME_HEADER)
    return (["eval", "overlap", "--mapped", mapped, "--manifest", manifest],
            f"{manifest}:2: bad JSON: lone surrogate \\ud800")


@pytest.mark.parametrize(
    "case",
    [
        latin1_dictionary,
        latin1_dictionary_after_byte_order_mark,
        latin1_dictionary_cr_endings,
        latin1_dictionary_after_line_separator,
        dictionary_cr_endings_bad_row,
        gold_cr_endings_bad_row,
        latin1_keyword_table,
        latin1_conllu,
        dictionary_array_line,
        dictionary_deep_nesting,
        dictionary_definitions_string,
        dictionary_number_definition,
        dictionary_null_among_definitions,
        dictionary_list_synonym_of,
        dictionary_null_id_and_term,
        dictionary_missing_term,
        dictionary_boolean_id,
        dictionary_definition_and_definitions,
        dictionary_number_term,
        dictionary_integer_too_long,
        dictionary_id_with_tab,
        dictionary_id_with_line_break,
        dictionary_blank_columns,
        dictionary_id_ending_in_tab,
        dictionary_term_ending_in_tab,
        keyword_with_colon,
        suffix_with_semicolon,
        outcomes_string_line,
        outcomes_list_id,
        outcomes_null_term,
        outcomes_tab_in_term,
        outcomes_line_break_in_id,
        outcomes_blank_term,
        outcomes_blank_columns,
        outcomes_blank_id,
        outcomes_iter_with_votes,
        outcomes_duplicate_id,
        outcomes_false_category,
        outcomes_list_votes,
        gold_empty_term,
        conllu_empty_form,
        conllu_next_sentence_without_blank_line,
        conllu_tokens_not_aligned,
        dictionary_unknown_synonym,
        dictionary_synonym_loop,
        manifest_json_syntax_error,
        manifest_unfinished_list,
        manifest_layout_list,
        manifest_deep_nesting,
        manifest_integer_too_long,
        manifest_text_rank,
        manifest_per_entry_category,
        dictionary_lone_surrogate,
        outcomes_lone_surrogate,
        manifest_json_lone_surrogate,
        manifest_jsonl_lone_surrogate,
    ],
)
def test_bad_input_exits_2_naming_file_and_line(case, tmp_path, data_dir, capsys):
    argv, where = case(tmp_path, data_dir)
    before = sorted(tmp_path.iterdir())
    code = main(argv)
    out, err = capsys.readouterr()
    assert (code, out) == (2, "")
    assert where in err
    assert "Traceback" not in err
    assert sorted(tmp_path.iterdir()) == before


# A JSON-lines row json_object cannot decode though it begins as an object:
# one nested too deep (RecursionError) and one whose integer id is too long
# to convert (ValueError; Python before 3.10.7 converts any length).
JSON_ROW_FAULTS = {
    "nested too deep": '{"id": "e1", "term": ' + "[" * 100_000 + "]" * 100_000 + "}",
    "integer too long": '{"id": ' + "1" * 5000 + ', "term": "leukemi"}',
}
# For each reader of JSON-lines rows: the file it reads, the command, and
# what its message puts before "bad JSON: ".
JSON_LINES_READERS = {
    "dictionary": ("d.jsonl", ["map", "--dict", "{file}", "--out", "{out}"], ""),
    "outcomes": ("o.jsonl", ["eval", "sample", "--mapped", "{file}", "--quota", "1", "--seed", "1"],
                 "bad outcome row: "),
    "manifest": ("m.jsonl", ["eval", "overlap", "--mapped", "{mapped}", "--manifest", "{file}"], ""),
}


@pytest.mark.parametrize("fault", sorted(JSON_ROW_FAULTS))
@pytest.mark.parametrize("reader", sorted(JSON_LINES_READERS))
def test_an_undecodable_json_lines_row_exits_2_at_its_line(reader, fault, tmp_path, capsys):
    if fault == "integer too long" and not hasattr(sys, "get_int_max_str_digits"):
        pytest.skip("this Python converts an integer of any length")
    name, argv, prefix = JSON_LINES_READERS[reader]
    paths = {
        "file": put(tmp_path / name, JSON_ROW_FAULTS[fault] + "\n"),
        "mapped": put(tmp_path / "mapped.tsv", OUTCOME_HEADER),
        "out": str(tmp_path / "out.tsv"),
    }
    code = main([arg.format(**paths) for arg in argv])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert f"{paths['file']}:1: {prefix}bad JSON: " in captured.err
    assert "Traceback" not in captured.err
    assert not (tmp_path / "out.tsv").exists()


# For each reader that counts a TSV row's columns: the file it reads, a
# first row with the wrong count, the count it wants, and the command.
COLUMN_READERS = {
    "dictionary": ("d.tsv", "e1\tleukemi", "3 or 4", ["map", "--dict", "{file}"]),
    "suffix table": ("s.tsv", "-emi\tCONDITION\tx", "2", ["map", "--dict", "{dict}", "--suffixes", "{file}"]),
    "keyword table": ("k.tsv", "sykdom", "2", ["map", "--dict", "{dict}", "--keywords", "{file}"]),
    "CoNLL-U": ("d.conllu", "1\tsykdom\t_\tNOUN", "10", ["map", "--dict", "{dict}", "--conllu", "{file}"]),
    "outcomes": ("o.tsv", "e1\tleukemi\tCONDITION\tITER", "5",
                 ["eval", "sample", "--mapped", "{file}", "--quota", "1", "--seed", "1"]),
    "gold": ("g.tsv", "leukemi\tCONDITION\tx", "2", ["eval", "gold", "--gold", "{file}", "--mapped", "{mapped}"]),
    "manifest": ("m.tsv", "R\tr.tsv\tFIXED\tTOOL\t1", "6",
                 ["eval", "overlap", "--mapped", "{mapped}", "--manifest", "{file}"]),
    "resource": ("r.tsv", "feber", "at least 2", ["eval", "overlap", "--mapped", "{mapped}", "--manifest", "{manifest}"]),
}


@pytest.mark.parametrize("reader", sorted(COLUMN_READERS))
def test_a_wrong_column_count_is_refused_in_one_wording(reader, tmp_path, capsys):
    name, row, expected, argv = COLUMN_READERS[reader]
    paths = {
        "file": put(tmp_path / name, row + "\n"),
        "dict": put(tmp_path / "dict.tsv", GOOD_DICT),
        "mapped": put(tmp_path / "mapped.tsv", OUTCOME_HEADER + "e1\tleukemi\tCONDITION\tITER\t\n"),
        "manifest": put(tmp_path / "manifest.tsv", "R\tr.tsv\tPER_ENTRY\t\t1\tterm=0,category=1\n"),
    }
    code = main([arg.format(**paths) for arg in argv])
    out, err = capsys.readouterr()
    assert (code, out) == (2, "")
    # A resource row's fault names the resource, an outcome row's says so.
    got = len(row.split("\t"))
    wording = f"expected {expected} tab-separated columns, got {got}"
    assert re.fullmatch(rf"error: {re.escape(paths['file'])}:1: (resource R: |bad outcome row: )?{wording}\n", err), err


# For each TSV reader that takes comments: the file it reads, a good first
# row, and the command. A second row of blank columns is a row, refused at
# its line (the dictionary's and the outcome file's are cases above).
BLANK_ROW_READERS = {
    "FIXED resource": ("r.tsv", "C1\tkniv", ["merge", "--manifest", "{fixed}", "--mapped", "{mapped}",
                                             "--out", "{lexicon}"]),
    "PER_ENTRY resource": ("r.tsv", "C1\tkniv\tTOOL", ["merge", "--manifest", "{per_entry}", "--mapped", "{mapped}",
                                                      "--out", "{lexicon}"]),
    "gold": ("g.tsv", "leukemi\tCONDITION", ["eval", "gold", "--gold", "{file}", "--mapped", "{mapped}"]),
    "suffix table": ("s.tsv", "-emi\tCONDITION", ["map", "--dict", "{dict}", "--suffixes", "{file}"]),
    "keyword table": ("k.tsv", "kniv\tTOOL", ["map", "--dict", "{dict}", "--keywords", "{file}"]),
    "manifest": ("m.tsv", "R\tr.tsv\tFIXED\tTOOL\t1\tterm=0",
                 ["eval", "overlap", "--mapped", "{mapped}", "--manifest", "{file}"]),
}


@pytest.mark.parametrize("reader", sorted(BLANK_ROW_READERS))
def test_a_row_of_blank_columns_exits_2_at_its_line(reader, tmp_path, capsys):
    name, row, argv = BLANK_ROW_READERS[reader]
    blank = "\t".join(" " for _ in row.split("\t"))
    paths = {
        "file": put(tmp_path / name, f"{row}\n{blank}\n"),
        "dict": put(tmp_path / "dict.tsv", GOOD_DICT),
        "mapped": put(tmp_path / "mapped.tsv", OUTCOME_HEADER + "e1\tleukemi\tCONDITION\tITER\t\n"),
        "fixed": put(tmp_path / "fixed.tsv", "R\tr.tsv\tFIXED\tTOOL\t1\tterm=1,code=0\n"),
        "per_entry": put(tmp_path / "per_entry.tsv", "R\tr.tsv\tPER_ENTRY\t\t1\tterm=1,category=2\n"),
        "lexicon": str(tmp_path / "lexicon.tsv"),
    }
    code = main([arg.format(**paths) for arg in argv])
    out, err = capsys.readouterr()
    assert (code, out) == (2, "")
    assert err.startswith(f"error: {paths['file']}:2: "), err
    assert not (tmp_path / "lexicon.tsv").exists()


def test_a_hash_after_an_empty_first_column_is_a_row(tmp_path, capsys):
    manifest = put(tmp_path / "m.tsv", "R\tr.tsv\tPER_ENTRY\t\t1\tterm=1,category=2\n")
    put(tmp_path / "r.tsv", "C1\tkniv\tTOOL\n\t#5-HT\tSUBSTANCE\n#C2\tsag\tTOOL\nC3\tsaks\tTOOL\n")
    mapped = put(tmp_path / "mapped.tsv", OUTCOME_HEADER)
    lexicon = tmp_path / "lexicon.tsv"
    assert main(["merge", "--manifest", manifest, "--mapped", mapped, "--out", str(lexicon)]) == 0
    assert re.search(r"^R +3 +3 +0$", capsys.readouterr().out, re.M)
    rows = lexicon.read_text(encoding="utf-8").splitlines()[1:]
    assert [row.split("\t")[0] for row in rows] == ["#5-HT", "kniv", "saks"]
    assert rows[0] == "#5-HT\tSUBSTANCE\tR\tR"


@pytest.mark.parametrize("load", [load_keyword_table, load_suffix_table])
def test_a_table_row_whose_first_column_begins_with_a_hash_is_a_comment(load, tmp_path):
    table = load(put(tmp_path / "t.tsv", "#kniv\tTOOL\n  #sag\tTOOL\nsaks\tTOOL\n"))
    assert [trigger for trigger, _ in table.entries] == ["saks"]


def test_a_dictionary_takes_no_comments(tmp_path):
    path = put(tmp_path / "d.tsv", "#e1\tkniv\tverktøy\n# e2\tsag\tverktøy\n")
    assert [(e.id, e.term) for e in read_dictionary(path)] == [("#e1", "kniv"), ("# e2", "sag")]


@pytest.mark.parametrize(
    "argv",
    [
        ["map", "--dict", "d.tsv", "--iter", "-1"],
        ["eval", "sample", "--mapped", "m.tsv", "--seed", "1", "--quota", "0"],
        ["map", "--dict", "d.tsv", "--threads", "zero"],
        # The lexicon's format is the one its --out suffix names.
        ["merge", "--manifest", "m.json", "--mapped", "m.tsv", "--out", "lx.tsv", "--format", "jsonl"],
    ],
)
def test_bad_cli_value_is_a_usage_error(argv, capsys):
    with pytest.raises(SystemExit) as exc_info:
        main(argv)
    err = capsys.readouterr().err
    assert exc_info.value.code == 2
    assert err.startswith("usage:")
    assert argv[-2] in err


def test_json_synonym_of_is_a_string_or_integer(tmp_path):
    rows = ['{"id": 0, "term": "a"}', '{"id": "e1", "term": "b", "synonym_of": 0}',
            '{"id": "e2", "term": "c", "synonym_of": "e1"}', '{"id": "e3", "term": "d", "synonym_of": ""}',
            '{"id": "e4", "term": "e", "synonym_of": null}']
    path = put(tmp_path / "d.jsonl", "\n".join(rows) + "\n")
    assert [e.synonym_of for e in read_dictionary(path)] == [None, "0", "e1", None, None]
    path = put(tmp_path / "d.jsonl", '{"id": "e1", "term": "a", "synonym_of": [1]}\n')
    with pytest.raises(ParseError, match='"synonym_of" must be a JSON string or integer, not list'):
        read_dictionary(path)


def test_json_integer_id_is_its_decimal_text(tmp_path):
    path = put(tmp_path / "d.jsonl", '{"id": 7, "term": "a"}\n')
    assert read_dictionary(path)[0].id == "7"
    row = {"id": 7, "term": "a", "category": "CONDITION", "provenance": "ITER"}
    path = put(tmp_path / "m.jsonl", json.dumps(row) + "\n")
    assert read_outcomes(path)[0].entry_id == "7"


DICT_IDS = st.sampled_from(["e1", " e1", "e2", "e2 ", " e3 ", "", " "])
DICT_TERMS = st.sampled_from(["sykdom", " lege ", "kniv i", "", " "])
DICT_DEFINITIONS = st.sampled_from(["", " ", "\u00a0", "\u2028", "form av sykdom", " kniv "])
DICT_SYNONYMS = st.sampled_from([None, "", " ", "e1", " e1 ", "e2\u00a0", "e9"])


@st.composite
def dictionary_rows(draw):
    """The same rows as TSV lines and as JSON-lines objects, with padded
    ids and synonym_of values and blank definitions. A JSON row gives its
    definition as ``definition`` or as a one-item ``definitions``, and an
    empty one may also be absent or null, as an absent synonym_of may be."""
    tsv, jsonl = [], []
    for _ in range(draw(st.integers(1, 5))):
        entry_id, term = draw(DICT_IDS), draw(DICT_TERMS)
        definition, synonym_of = draw(DICT_DEFINITIONS), draw(DICT_SYNONYMS)
        tsv.append("\t".join([entry_id, term, definition] + ([] if synonym_of is None else [synonym_of])))
        obj = {"id": entry_id, "term": term}
        form = draw(st.sampled_from(["definition", "definitions", "absent", "null"]))
        if form == "definitions":
            obj["definitions"] = [definition]
        elif form == "definition" or definition:
            obj["definition"] = definition
        elif form == "null":
            obj["definition"] = None
        if synonym_of is not None or draw(st.booleans()):
            obj["synonym_of"] = synonym_of
        jsonl.append(json.dumps(obj))
    return tsv, jsonl


def load_dictionary(path):
    """The entries, resolved and not, or the error without the file name."""
    try:
        entries = read_dictionary(path)
        return entries, resolve_synonyms(entries)
    except ParseError as exc:
        return str(exc).replace(path, "")


@settings(max_examples=200, deadline=None)
@given(dictionary_rows())
def test_tsv_and_jsonl_dictionary_rows_load_alike(rows):
    tsv, jsonl = rows
    with tempfile.TemporaryDirectory() as tmp:
        from_tsv = load_dictionary(put(Path(tmp) / "d.tsv", "".join(f"{r}\n" for r in tsv)))
        from_jsonl = load_dictionary(put(Path(tmp) / "d.jsonl", "".join(f"{r}\n" for r in jsonl)))
    assert from_tsv == from_jsonl


def test_jsonl_synonym_of_is_trimmed_and_blank_definitions_dropped(tmp_path):
    rows = [{"id": "e1", "term": "leukemi", "definitions": [" ", "sykdom i blodet"]},
            {"id": "e2", "term": "blodkreft", "definition": "  ", "synonym_of": " e1 "}]
    path = put(tmp_path / "d.jsonl", "".join(json.dumps(row) + "\n" for row in rows))
    e1, e2 = resolve_synonyms(read_dictionary(path))
    assert [d.text for d in e1.senses] == ["sykdom i blodet"]
    assert (e2.synonym_of, e2.senses) == ("e1", e1.senses)


# Values for the id, term, definition and synonym_of of a JSON-lines row:
# plain ones, blank ones, and ones JSON writes with an escape.
MATCHER_VALUES = st.sampled_from(["e1", "e2", " e1", "7", "", " ", "kniv", "sykdom i blodet", "bl\u00f8d",
                                  "\u2028", 'en "kniv"', "a\\b", "a\tb", "\x7f", "e2 "])
MATCHER_DETAILS = ["none", "none", "none", "ascii", "integer id", "null", "separators", "key order",
                   "extra key", "definitions", "both", "leading space"]


@st.composite
def matcher_rows(draw):
    """JSON-lines dictionary rows in the writer's form, json.dumps(row,
    ensure_ascii=False) of the id, the term and then the definition or the
    synonym_of, and rows one detail away from it."""
    lines = []
    for _ in range(draw(st.integers(1, 4))):
        row = {"id": draw(MATCHER_VALUES), "term": draw(MATCHER_VALUES)}
        row[draw(st.sampled_from(["definition", "synonym_of"]))] = draw(MATCHER_VALUES)
        detail = draw(st.sampled_from(MATCHER_DETAILS))
        if detail == "integer id":
            row["id"] = draw(st.integers(0, 9))
        elif detail == "null":
            row[draw(st.sampled_from(sorted(row)))] = None
        elif detail == "key order":
            row = dict(reversed(row.items()))
        elif detail == "extra key":
            row["note"] = draw(MATCHER_VALUES)
        elif detail == "definitions":
            row.pop("definition", None)
            row["definitions"] = draw(st.lists(MATCHER_VALUES, max_size=2))
        elif detail == "both":
            row["definitions"] = [draw(MATCHER_VALUES)]
        line = json.dumps(row, ensure_ascii=detail == "ascii",
                          separators=(",", ":") if detail == "separators" else None)
        lines.append(" " + line if detail == "leading space" else line)
    return lines


def dictionary_rows_or_error(path):
    try:
        return read_dictionary_rows(path)
    except ParseError as exc:
        return str(exc)


@settings(max_examples=300, deadline=None)
@given(matcher_rows())
def test_a_dictionary_row_reads_alike_matched_or_decoded(lines):
    """Each file loads to the same rows, or fails with the same message at
    the same line, as it does when every line takes the decoder."""
    with tempfile.TemporaryDirectory() as tmp:
        path = put(Path(tmp) / "d.jsonl", "".join(line + "\n" for line in lines))
        matched = dictionary_rows_or_error(path)
        with mock.patch.object(pipeline, "json_line_values", lambda keys: lambda line: None):
            decoded = dictionary_rows_or_error(path)
    assert matched == decoded


# Every character str.isspace accepts.
SPACES = "".join(c for c in map(chr, range(sys.maxunicode + 1)) if c.isspace())


class TestLineBreaks:
    def test_split_lines_breaks_only_at_cr_and_lf(self):
        text = "a\u2028b\u2029c\x85d\x0be\x0cf\x1cg\r\nh\ri\n\nj"
        assert io.split_lines(text) == ["a\u2028b\u2029c\x85d\x0be\x0cf\x1cg", "h", "i", "", "j"]
        assert io.split_lines("") == []
        assert io.split_lines("a\n") == ["a"]

    @given(st.text(alphabet="ab \r\n"))
    def test_split_lines_agrees_with_splitlines_on_cr_and_lf(self, text):
        assert io.split_lines(text) == text.splitlines()

    @given(st.lists(st.text(alphabet=st.sampled_from("\t\t#ab\r\n" + SPACES), max_size=8), max_size=8),
           st.booleans(), st.booleans())
    def test_data_lines_matches_a_brute_force_reference(self, lines, tsv, comments):
        def reference(lines):
            for lineno, raw in enumerate(lines, start=1):
                line = raw.rstrip("\r\n")
                if tsv and "\t" in line:
                    first_column = line.split("\t")[0]
                    comment = comments and first_column.strip().startswith("#")
                    if not comment:
                        yield lineno, line
                else:
                    text = line.strip()
                    if text and not (comments and text.startswith("#")):
                        yield lineno, line

        assert list(io.data_lines(lines, tsv=tsv, comments=comments)) == list(reference(lines))

    def test_unicode_line_breaks_stay_inside_a_jsonl_row(self, tmp_path, data_dir, capsys):
        row = {"id": "e1", "term": "akutt\u2028leuk\x85emi", "definition": "sykdom\u2028i\x85blodet"}
        d = put(tmp_path / "d.jsonl", json.dumps(row, ensure_ascii=False) + "\n")
        mapped = tmp_path / "m.tsv"
        assert main(["map", "--dict", d, "--out", str(mapped)]) == 0
        [outcome] = read_outcomes(mapped)
        assert outcome.term == row["term"]
        assert main(merge_args(tmp_path, data_dir, str(mapped))) == 0
        assert "Traceback" not in capsys.readouterr().err


def current_umask() -> int:
    umask = os.umask(0)
    os.umask(umask)
    return umask


class TestWriteText:
    def test_replaces_whole_file_keeping_its_mode(self, tmp_path):
        path = tmp_path / "out.tsv"
        path.write_text("old contents that are longer\n", encoding="utf-8")
        os.chmod(path, 0o600)
        io.write_texts([(path, "ny\n")])
        assert path.read_bytes() == "ny\n".encode()
        assert path.stat().st_mode & 0o777 == 0o600
        assert os.listdir(tmp_path) == ["out.tsv"]

    def test_new_file_gets_umask_mode(self, tmp_path):
        path = tmp_path / "out.tsv"
        io.write_texts([(path, "ny\n")])
        assert path.stat().st_mode & 0o777 == 0o666 & ~current_umask()

    def test_symlink_is_written_through(self, tmp_path):
        real = tmp_path / "real.tsv"
        real.write_text("old\n", encoding="utf-8")
        link = tmp_path / "link.tsv"
        link.symlink_to(real)
        io.write_texts([(link, "ny\n")])
        assert link.is_symlink()
        assert real.read_text(encoding="utf-8") == "ny\n"
        assert sorted(os.listdir(tmp_path)) == ["link.tsv", "real.tsv"]

    def test_pipe_is_written_not_replaced(self, tmp_path):
        fifo = tmp_path / "out.fifo"
        os.mkfifo(fifo)
        # A non-blocking reader lets the writer open the pipe at once.
        reader = os.open(fifo, os.O_RDONLY | os.O_NONBLOCK)
        try:
            io.write_texts([(fifo, "ny\n")])
            assert os.read(reader, 100) == b"ny\n"
        finally:
            os.close(reader)
        assert stat.S_ISFIFO(fifo.lstat().st_mode)
        assert os.listdir(tmp_path) == ["out.fifo"]

    def test_failed_write_keeps_old_file_and_leaves_no_temp(self, tmp_path):
        path = tmp_path / "out.tsv"
        path.write_text("old\n", encoding="utf-8")
        with pytest.raises(UnicodeEncodeError):
            io.write_texts([(path, "a\ud800b")])  # a lone surrogate cannot be encoded
        assert path.read_text(encoding="utf-8") == "old\n"
        assert os.listdir(tmp_path) == ["out.tsv"]

    def test_files_are_written_all_or_none(self, tmp_path):
        first, second = tmp_path / "first.tsv", tmp_path / "second.tsv"
        first.write_text("old\n", encoding="utf-8")
        with pytest.raises(FileNotFoundError):
            io.write_texts([(first, "ny\n"), (second, "ny\n"), (tmp_path / "absent" / "third.tsv", "ny\n")])
        assert first.read_text(encoding="utf-8") == "old\n"
        assert os.listdir(tmp_path) == ["first.tsv"]
        io.write_texts([(first, "ny\n"), (second, "to\n")])
        assert (first.read_text(encoding="utf-8"), second.read_text(encoding="utf-8")) == ("ny\n", "to\n")

    def test_cli_output_into_missing_directory_exits_2(self, tmp_path, capsys):
        out = tmp_path / "absent" / "out.tsv"
        code = main(["map", "--dict", put(tmp_path / "d.tsv", GOOD_DICT), "--out", str(out)])
        assert code == 2
        assert str(out) in capsys.readouterr().err


# Inputs for the reader fuzz: raw bytes, tab-separated lines of tokens the
# TSV and CoNLL-U parsers act on (10 fields is a CoNLL-U row), and JSON rows
# and lists over the keys the JSON readers look up.
TOKENS = [
    b"", b" ", b"#", b"-", b"0", b"1", b"1-2", b"_", b"e1", b"leukemi", b"\xc3\xa5", b"\xff",
    b"\xe2\x80\xa8", b"\r", b"CONDITION", b"OTHER", b"ITER", b"SUFF", b"MULTI", b"UNMAPPED",
    b"SUFF:CONDITION:emi:-", b"KW_E:TOOL:graf:2", b"EXCLUDE", b"*=CONDITION;0=EXCLUDE",
    b"term=0,chapter=1", b"# sent_id = e1", b"NOUN", b"FIXED", b"PER_ENTRY", b"CHAPTERED",
]
KEYS = ["id", "term", "definition", "definitions", "synonym_of", "category", "provenance",
        "votes", "name", "file", "mode", "trust_rank", "layout", "rules", "default", "chapter"]
FIELDS = st.sampled_from(TOKENS)
LINES = st.lists(
    st.lists(FIELDS, max_size=6) | st.lists(FIELDS, min_size=10, max_size=10), max_size=6
).map(lambda rows: b"\n".join(b"\t".join(fields) for fields in rows))
JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats()
    | FIELDS.map(lambda b: b.decode("utf-8", "replace")),
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.sampled_from(KEYS), inner, max_size=3),
    max_leaves=8,
)
JSON_ROWS = st.lists(st.fixed_dictionaries({}, optional={k: JSON_VALUES for k in KEYS}), max_size=3)
CONTENT = st.one_of(
    st.binary(max_size=120),
    LINES,
    JSON_ROWS.map(lambda rows: "\n".join(json.dumps(r) for r in rows).encode()),
    JSON_ROWS.map(lambda rows: json.dumps(rows).encode()),
)


def _conllu(path):
    return ingest_conllu(io.split_lines(io.read_text(path, "CoNLL-U")), path=str(path))


def _resource(mode, **kwargs):
    return lambda path: list(resource_rows(ResourceSpec("R", str(path), mode, 1, **kwargs)))


READERS = {
    ".tsv": [
        read_dictionary, read_outcomes, read_gold, load_manifest, load_suffix_table,
        load_keyword_table, load_stoplist, load_wordlist, _conllu,
        _resource(ResourceMode.FIXED, category=Category.TOOL),
        _resource(ResourceMode.PER_ENTRY),
        _resource(ResourceMode.CHAPTERED, chapter_rules=(
            ChapterRule("CONDITION", Category.CONDITION), ChapterRule("0", None))),
    ],
    ".jsonl": [read_dictionary, read_outcomes],
    ".json": [load_manifest],
}


@settings(max_examples=60, deadline=None)
@given(CONTENT)
def test_readers_raise_only_parse_or_lint_errors(content):
    with tempfile.TemporaryDirectory() as tmp:
        for suffix, readers in READERS.items():
            path = Path(tmp) / f"input{suffix}"
            path.write_bytes(content)
            for reader in readers:
                try:
                    reader(path)
                except (ParseError, LintError):
                    pass


# io.py reads every input in read_text and writes every output in
# write_texts; reading package data through importlib.resources is the one
# exception outside it.
ALLOWED = {("io.py", "read_text"), ("io.py", "write_texts")}
FILE_METHODS = {"open", "fdopen", "read_text", "write_text", "read_bytes", "write_bytes"}


def _touches_files(call: ast.Call) -> bool:
    callee = call.func
    if isinstance(callee, ast.Name):
        return callee.id == "open"
    return isinstance(callee, ast.Attribute) and callee.attr in FILE_METHODS


def _file_calls(node: ast.AST, scope: str = "<module>"):
    """(line, enclosing function) of each file-touching call under ``node``."""
    for child in ast.iter_child_nodes(node):
        inner = child.name if isinstance(child, ast.FunctionDef) else scope
        if isinstance(child, ast.Call) and _touches_files(child):
            yield child.lineno, scope
        yield from _file_calls(child, inner)


def test_only_io_module_touches_files():
    offenders = [
        f"{path.name}:{line} in {scope}"
        for path in sorted(SRC.glob("*.py"))
        for line, scope in _file_calls(ast.parse(path.read_text(encoding="utf-8")))
        if (path.name, scope) not in ALLOWED
    ]
    assert offenders == []


# Keys and values for a JSON-lines row: JSON's escaped characters, other
# separators of lines and words, non-BMP text and blanks.
LINE_KEYS = ["id", "term", "votes", 'q"', "\\", "%s", "nøkkel", "a b"]
LINE_VALUES = st.one_of(
    st.none(),
    st.text(alphabet=st.one_of(st.characters(exclude_categories=("Cs",)), st.sampled_from(
        ['"', "\\", "\x00", "\x1f", "\t", "\u2028", "\x85", "\x7f", "\U0001f600", " ", "/", ","])), max_size=6),
)


def _plain(text):
    """Whether ``text`` is its own JSON string text: no quote, backslash or control character."""
    return not re.search('["\\\\\x00-\x1f]', text)


class TestJsonCodec:
    @settings(max_examples=300, deadline=None)
    @given(st.lists(st.text(alphabet=st.one_of(st.characters(), st.sampled_from(
        ["\\", "u", "d", "8", '"', "\ud800", "\udfff", "\U0001f600"])), max_size=8), min_size=1, max_size=3),
           st.booleans())
    def test_a_row_is_refused_exactly_when_a_string_holds_a_surrogate(self, texts, ascii_only):
        # UTF-8 text holds no surrogate, so one comes only as a \u escape. A
        # pair of escapes stands for one character, and an escaped backslash
        # before a "u" for itself.
        obj = {f"k{i}\\u": text for i, text in enumerate(texts)}
        line = re.sub("[\ud800-\udfff]", lambda m: f"\\u{ord(m.group()):04x}",
                      json.dumps(obj, ensure_ascii=ascii_only))
        # What the line decodes to: a high surrogate before a low one is a pair.
        obj = {key: text.encode("utf-16-le", "surrogatepass").decode("utf-16-le", "surrogatepass")
               for key, text in obj.items()}
        surrogates = [ch for text in obj.values() for ch in text if 0xD800 <= ord(ch) <= 0xDFFF]
        if surrogates:
            with pytest.raises(ValueError, match=rf"^bad JSON: lone surrogate \\u{ord(surrogates[0]):04x}$"):
                io.json_object(line)
            with pytest.raises(ParseError, match=r"^m\.json:1: bad JSON manifest: lone surrogate"):
                io.json_document(f"[{line}]", "m.json", "manifest")
        else:
            assert io.json_object(line) == obj
            assert io.json_document(f"[\n{line}]", "m.json", "manifest") == [obj]

    @settings(max_examples=200, deadline=None)
    @given(st.lists(st.text(max_size=4), min_size=1, max_size=4, unique=True),
           st.lists(st.lists(st.text(alphabet=st.characters(exclude_categories=("Cs",)), max_size=6),
                             min_size=4, max_size=4), max_size=4))
    def test_json_lines_writes_what_json_dumps_writes(self, keys, rows):
        rows = [row[: len(keys)] for row in rows]
        got = io.json_lines(keys, (tuple(map(io.json_string, row)) for row in rows))
        assert got == "".join(json.dumps(dict(zip(keys, row)), ensure_ascii=False) + "\n" for row in rows)

    @settings(max_examples=400, deadline=None)
    @given(st.data())
    def test_json_line_values_returns_what_json_loads_gives(self, data):
        # A line from the writer's keys and values, with at most one detail
        # changed: key order, separators, ASCII escapes, strings left
        # unescaped, a number, a repeated key, a missing or extra key, or
        # text around the object.
        keys = data.draw(st.lists(st.sampled_from(LINE_KEYS), min_size=1, max_size=5, unique=True))
        values = [data.draw(LINE_VALUES) for _ in keys]
        items = list(zip(keys, values))
        change = data.draw(st.sampled_from(["none", "none", "order", "separators", "ascii", "integer",
                                            "repeat", "missing", "extra", "around", "raw"]))
        separators = (", ", ": ")
        if change == "order":
            items = data.draw(st.permutations(items))
        elif change == "separators":
            separators = data.draw(st.sampled_from([(",", ": "), (", ", ":"), (",", ":"), (" , ", ": ")]))
        elif change == "integer":
            items[data.draw(st.integers(0, len(items) - 1))] = (keys[0], data.draw(st.integers(-10, 10)))
        elif change == "missing" and len(items) > 1:
            del items[data.draw(st.integers(0, len(items) - 1))]
        elif change == "extra":
            items.insert(data.draw(st.integers(0, len(items))), ("extra", data.draw(LINE_VALUES)))
        ascii_only = change == "ascii"

        def encode(value):
            # "raw": each string as it is, its quotes, backslashes and control
            # characters unescaped.
            if change == "raw" and type(value) is str:
                return f'"{value}"'
            return json.dumps(value, ensure_ascii=ascii_only)

        line = "{" + separators[0].join(
            json.dumps(key, ensure_ascii=ascii_only) + separators[1] + encode(value) for key, value in items) + "}"
        if change == "repeat":
            key = data.draw(st.sampled_from(keys))
            line = line[:-1] + f", {json.dumps(key, ensure_ascii=False)}: {json.dumps(data.draw(LINE_VALUES))}}}"
        elif change == "around":
            before, after = data.draw(st.sampled_from([(" ", ""), ("", " "), ("", "x"), ("\t", ""), ("", "{}")]))
            line = before + line + after
        got = io.json_line_values(keys)(line)
        if got is not None:
            # json.loads raises for a raw control character in a string.
            obj = json.loads(line)
            assert list(obj) == keys and tuple(obj.values()) == got
        # What json_lines writes from plain strings and nulls is matched.
        writer_form = io.json_lines(keys, [tuple("null" if v is None else io.json_string(v) for v in values)])
        if line + "\n" == writer_form and all(v is None or _plain(v) for v in values):
            assert got == tuple(values)

    @settings(max_examples=200, deadline=None)
    @given(st.lists(st.lists(LINE_VALUES, min_size=3, max_size=3), max_size=4))
    def test_json_line_values_reads_a_plain_line_json_lines_writes(self, rows):
        keys = ("id", 'q"', "\\%s")
        text = io.json_lines(keys, (tuple("null" if v is None else io.json_string(v) for v in row) for row in rows))
        values = io.json_line_values(keys)
        for line, row in zip(io.split_lines(text), rows):
            plain = all(v is None or _plain(v) for v in row)
            assert values(line) == (tuple(row) if plain else None)

    def test_no_rows_are_empty_text(self, tmp_path, capsys):
        assert io.json_lines(("id", "term"), []) == ""
        assert main(["map", "--dict", put(tmp_path / "d.tsv", ""), "--out", str(tmp_path / "o.jsonl")]) == 0
        assert (tmp_path / "o.jsonl").read_bytes() == b""
        capsys.readouterr()
        assert main(["map", "--dict", str(tmp_path / "d.tsv"), "--format", "jsonl"]) == 0
        assert capsys.readouterr().out == ""
        assert read_outcomes(tmp_path / "o.jsonl") == []


def _bom_copy(path: Path, tmp: Path) -> Path:
    copy = tmp / path.name
    copy.write_bytes(b"\xef\xbb\xbf" + path.read_bytes())
    return copy


DATA = Path(__file__).resolve().parent / "data"
SHIPPED = SRC / "data"
# Each reader with a valid input whose first line is a row (or a comment).
BOM_READERS = {
    "TSV dictionary": (read_dictionary, DATA / "dict_50.tsv"),
    "JSON-lines dictionary": (read_dictionary, DATA / "dict_50.jsonl"),
    "gold file": (read_gold, DATA / "gold.tsv"),
    "TSV manifest": (load_manifest, DATA / "manifest.tsv"),
    "JSON manifest": (load_manifest, DATA / "manifest.json"),
    "JSON-lines manifest": (load_manifest, DATA / "manifest.jsonl"),
    "suffix table": (load_suffix_table, SHIPPED / "suffixes.tsv"),
    "keyword table": (load_keyword_table, SHIPPED / "keywords.tsv"),
    "stoplist": (load_stoplist, SHIPPED / "stops.txt"),
    "function words": (load_wordlist, SHIPPED / "function_words.txt"),
    "CoNLL-U": (_conllu, DATA / "dict_50.conllu"),
    "resource": (lambda path: list(resource_rows(ResourceSpec("R", str(path), ResourceMode.FIXED, 1,
                                                              category=Category.TOOL))), DATA / "icd10.tsv"),
}


@pytest.mark.parametrize("reader", sorted(BOM_READERS))
def test_a_byte_order_mark_is_not_data(reader, tmp_path):
    read, path = BOM_READERS[reader]
    assert read(_bom_copy(path, tmp_path)) == read(path)


@pytest.mark.parametrize("fmt", ["tsv", "jsonl"])
def test_a_byte_order_mark_is_not_outcome_data(fmt, tmp_path, fixture_outcomes):
    path = tmp_path / f"mapped.{fmt}"
    path.write_text(render_outcomes(fixture_outcomes, fmt), encoding="utf-8")
    (tmp_path / "bom").mkdir()
    assert read_outcomes(_bom_copy(path, tmp_path / "bom")) == read_outcomes(path) == fixture_outcomes
