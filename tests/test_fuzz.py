"""Every reader, fuzzed: each ``tests/data`` fixture, both outcome
formats and the four shipped map tables, with one line inserted,
deleted, truncated, duplicated, made a row of blank columns or given a
``#`` at the start of a column after the first, or one bad byte added,
fed to the command that reads it. The run must end in an exit code from README's
table, never in a traceback; a failed run prints nothing to stdout, and
a refused input is named in the message with the line at fault."""

from __future__ import annotations

import contextlib
import io
import os
import re
import shutil
import tempfile
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import medlex
from medlex.cli import main
from medlex.outcomes import render_outcomes

DATA = Path(__file__).parent / "data"
SHIPPED = Path(medlex.__file__).parent / "data"
RESOURCES = ["aloc.tsv", "famhist.tsv", "fest.tsv", "icd10.tsv", "icpc2.tsv", "labv.tsv", "proc.tsv"]


def merge(manifest):
    return lambda d: ["merge", "--manifest", str(d / manifest), "--mapped", str(d / "mapped.tsv"),
                      "--out", str(d / "lexicon.tsv")]


# The command that reads each fixture, run in a directory holding all of them.
COMMANDS = {
    **{name: merge(name) for name in ("manifest.json", "manifest.jsonl", "manifest.tsv")},
    **{name: merge("manifest.json") for name in RESOURCES},
    **{name: merge("manifest_conflict.json") for name in ("conflict_a.tsv", "conflict_b.tsv")},
    **{name: (lambda d, name=name: ["map", "--dict", str(d / name), "--out", str(d / "out.tsv")])
       for name in ("dict_50.tsv", "dict_50.jsonl")},
    "dict_50.conllu": lambda d: ["map", "--dict", str(d / "dict_50.tsv"), "--conllu", str(d / "dict_50.conllu"),
                                 "--out", str(d / "out.tsv")],
    **{name: (lambda d, name=name, option=option: ["map", "--dict", str(d / "dict_50.tsv"), option, str(d / name),
                                                   "--out", str(d / "out.tsv")])
       for name, option in (("suffixes.tsv", "--suffixes"), ("keywords.tsv", "--keywords"),
                            ("stops.txt", "--stops"), ("function_words.txt", "--function-words"))},
    "gold.tsv": lambda d: ["eval", "gold", "--gold", str(d / "gold.tsv"), "--mapped", str(d / "mapped.tsv")],
    **{name: (lambda d, name=name: ["eval", "sample", "--mapped", str(d / name), "--quota", "3", "--seed", "7"])
       for name in ("mapped.tsv", "mapped.jsonl")},
}

# Text for an inserted line: separators of every format, digits, letters.
LINES = st.text(st.sampled_from("ab \t#=;,*{}[]\":-019æøåCDEHLOPRT"), max_size=24)
BAD_BYTES = st.sampled_from([b"\xff", b"\x80", b"\xc3", b"\xed\xa0\x80"])


@st.composite
def mutations(draw, data: bytes) -> bytes:
    """``data`` with one line inserted, deleted, truncated, duplicated, made
    a row of blank columns or given a ``#`` at the start of a column after
    the first, or one byte sequence that is not UTF-8 inserted."""
    lines = data.splitlines(keepends=True)
    i = draw(st.integers(0, len(lines) - 1))
    op = draw(st.sampled_from(["insert", "delete", "truncate", "duplicate", "blank columns", "hash column",
                               "bad byte"]))
    if op == "insert":
        lines.insert(draw(st.integers(0, len(lines))), draw(LINES).encode("utf-8") + b"\n")
    elif op == "delete":
        del lines[i]
    elif op == "truncate":
        lines[i] = lines[i][: draw(st.integers(0, max(len(lines[i]) - 2, 0)))] + b"\n"
    elif op == "duplicate":
        lines.insert(draw(st.integers(0, len(lines))), lines[i])
    elif op == "blank columns":
        lines[i] = b"\t".join(b" " for _ in lines[i].rstrip(b"\r\n").split(b"\t")) + b"\n"
    elif op == "hash column":
        tabs = [at for at, byte in enumerate(lines[i]) if byte == ord("\t")]
        if tabs:
            at = draw(st.sampled_from(tabs)) + 1
            lines[i] = lines[i][:at] + b"#" + lines[i][at:]
    else:
        at = draw(st.integers(0, len(data)))
        return data[:at] + draw(BAD_BYTES) + data[at:]
    return b"".join(lines)


@pytest.fixture(scope="module")
def inputs(tmp_path_factory, fixture_outcomes) -> Path:
    """A directory holding every input the commands read: the data files,
    the shipped map tables, and the fixture dictionary's outcomes in both
    formats."""
    d = tmp_path_factory.mktemp("inputs")
    for path in [*DATA.iterdir(), *SHIPPED.iterdir()]:
        shutil.copy(path, d)
    for fmt in ("tsv", "jsonl"):
        (d / f"mapped.{fmt}").write_text(render_outcomes(fixture_outcomes, fmt), encoding="utf-8")
    return d


def run(argv):
    with contextlib.redirect_stdout(io.StringIO()) as out, contextlib.redirect_stderr(io.StringIO()) as err:
        code = main(argv)
    return code, out.getvalue(), err.getvalue()


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_a_mutated_input_ends_in_a_documented_exit(inputs, data):
    name = data.draw(st.sampled_from(sorted(COMMANDS)), label="input")
    mutated = data.draw(mutations((inputs / name).read_bytes()), label="mutated")
    with tempfile.TemporaryDirectory() as tmp:
        d = shutil.copytree(inputs, Path(tmp) / "inputs")
        (d / name).write_bytes(mutated)
        code, stdout, stderr = run(COMMANDS[name](d))
    assert code in (0, 2, 3, 4, 5), stderr
    assert "Traceback" not in stderr
    if code != 0:
        assert stdout == ""
    if code == 2:
        # Warnings may come first; the error is the last line.
        error = stderr.splitlines()[-1]
        at = re.match(rf"error: {re.escape(str(d / name))}:(\d+): ", error)
        if at:
            assert 1 <= int(at.group(1)) <= len(mutated.splitlines()), stderr
        else:
            # A JSON-list manifest names a resource by its number. A mutated
            # manifest can also fail at a file it names: one that is now
            # missing, or a resource whose rows no longer fit its spec.
            assert name.startswith("manifest"), stderr
            if error.startswith(f"error: {d / name}:"):
                assert error.startswith(f"error: {d / name}: resource #"), stderr
            else:
                assert error.startswith(f"error: {d}{os.sep}"), stderr
