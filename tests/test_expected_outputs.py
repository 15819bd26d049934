"""Committed expected outputs: each run of ``RUNS`` goes through
``cli.main`` in process, and its exit code, stdout, stderr and every file
it writes must equal, byte for byte, what ``tests/expected/<run>/`` holds.
A run works in a directory of its own, with the ``tests/data`` fixtures
under ``data/`` and relative paths only, so no message names a temporary
directory.

The test never rewrites an expected file. ``python
tests/rewrite_expected.py`` rewrites them all from this table; a change
that alters any of them says which, and why. One test runs that script
into a temporary directory and compares what it writes with the
committed files."""

from __future__ import annotations

import contextlib
import difflib
import io
import os
import shutil
from pathlib import Path

import pytest

from medlex.cli import main

DATA = Path(__file__).parent / "data"
EXPECTED = Path(__file__).parent / "expected"

# The fixture outcome files: the outputs of two map runs of this table.
MAPPED_TSV = {"mapped.tsv": ("map-tsv-conllu", "mapped.tsv")}
MAPPED_JSONL = {"mapped.jsonl": ("map-verbose-iter3", "mapped.jsonl")}

# Each run: its arguments, and the files it reads besides ``data/``, each
# named by its path in the run's directory and given as the (run, file) of
# an earlier run's expected output or as its text. A run may read only the
# outputs of runs above it, which the rewrite script writes first.
RUNS: dict[str, tuple[list[str], dict[str, tuple[str, str] | str]]] = {
    "map-tsv-conllu": (["map", "--dict", "data/dict_50.tsv", "--conllu", "data/dict_50.conllu",
                        "--out", "mapped.tsv"], {}),
    "map-jsonl-stdout": (["map", "--dict", "data/dict_50.jsonl"], {}),
    "map-iter0-jsonl-stdout": (["map", "--dict", "data/dict_50.tsv", "--conllu", "data/dict_50.conllu",
                                "--iter", "0", "--format", "jsonl"], {}),
    "map-verbose-iter3": (["map", "-v", "--dict", "data/dict_50.tsv", "--iter", "3", "--out", "mapped.jsonl"], {}),
    "map-jsonl-iter2": (["map", "--dict", "data/dict_50.jsonl", "--iter", "2", "--out", "mapped.tsv"], {}),
    "merge-tsv-lowercase": (["merge", "--manifest", "data/manifest.json", "--mapped", "mapped.tsv", "--lowercase",
                             "--out", "lexicon.tsv"], MAPPED_TSV),
    "merge-jsonl": (["merge", "--manifest", "data/manifest.tsv", "--mapped", "mapped.jsonl",
                     "--out", "lexicon.jsonl"], MAPPED_JSONL),
    "merge-manifest-jsonl": (["merge", "--manifest", "data/manifest.jsonl", "--mapped", "mapped.jsonl",
                              "--out", "lexicon.tsv"], MAPPED_JSONL),
    "eval-overlap": (["eval", "overlap", "--mapped", "mapped.tsv", "--manifest", "data/manifest.jsonl"], MAPPED_TSV),
    "eval-gold": (["eval", "gold", "--gold", "data/gold.tsv", "--mapped", "mapped.tsv", "--merge-labels", "ORG+SER",
                   "--exclude-other", "--matrix-out", "matrix.csv", "--report-tsv", "report.tsv"], MAPPED_TSV),
    "eval-sample-out": (["eval", "sample", "--mapped", "mapped.tsv", "--quota", "3", "--seed", "7",
                         "--out", "sample.tsv"], MAPPED_TSV),
    "eval-sample-stdout": (["eval", "sample", "--mapped", "mapped.jsonl", "--quota", "2", "--seed", "1"],
                           MAPPED_JSONL),
    "exit-2-bad-dictionary-row": (["map", "--dict", "data/gold.tsv", "--out", "mapped.tsv"], {}),
    "exit-3-nested-suffixes": (["map", "--dict", "data/dict_50.tsv", "--suffixes", "nested.tsv",
                                "--out", "mapped.tsv"], {"nested.tsv": "itis\tCONDITION\ntis\tPROCEDURE\n"}),
    "exit-4-equal-rank-conflict": (["merge", "--manifest", "data/manifest_conflict.json", "--mapped", "mapped.tsv",
                                    "--out", "lexicon.tsv"], MAPPED_TSV),
    "exit-5-gold-term-without-prediction": (["eval", "gold", "--gold", "data/aloc.tsv", "--mapped", "mapped.tsv"],
                                            MAPPED_TSV),
}


def snapshot(root: Path) -> dict[str, bytes]:
    return {path.relative_to(root).as_posix(): path.read_bytes()
            for path in sorted(root.rglob("*")) if path.is_file()}


def run(name: str, workdir: Path) -> dict[str, bytes]:
    """Run ``name`` in the empty directory ``workdir``: what it gives, as
    the files of its expected directory name them (``exit_code``,
    ``stdout``, ``stderr``, and ``files/`` plus the path of each file the
    run wrote or changed)."""
    argv, inputs = RUNS[name]
    shutil.copytree(DATA, workdir / "data")
    for path, source in inputs.items():
        data = source.encode() if isinstance(source, str) else (EXPECTED / source[0] / "files" / source[1]).read_bytes()
        (workdir / path).write_bytes(data)
    before = snapshot(workdir)
    stdout, stderr = io.StringIO(), io.StringIO()
    cwd = os.getcwd()
    os.chdir(workdir)
    try:
        with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
            code = main(argv)
    finally:
        os.chdir(cwd)
    got = {"exit_code": f"{code}\n".encode(), "stdout": stdout.getvalue().encode("utf-8"),
           "stderr": stderr.getvalue().encode("utf-8")}
    for path, data in snapshot(workdir).items():
        if before.get(path) != data:
            got[f"files/{path}"] = data
    return got


def unified_diff(path: str, want: bytes | None, got: bytes | None) -> str:
    def lines(data: bytes | None) -> list[str]:
        return [] if data is None else data.decode("utf-8", "replace").splitlines(keepends=True)

    diff = difflib.unified_diff(lines(want), lines(got), f"expected/{path}", f"got/{path}")
    return "".join(line if line.endswith("\n") else line + "\n\\ No newline at end of file\n" for line in diff)


def test_expected_directories_are_the_table_runs():
    assert sorted(path.name for path in EXPECTED.iterdir()) == sorted(RUNS)


def test_rewrite_script_writes_the_committed_files(tmp_path, monkeypatch):
    import rewrite_expected

    committed, target = snapshot(EXPECTED), tmp_path / "expected"
    # The script writes there, and each run reads earlier runs' outputs there.
    monkeypatch.setattr(rewrite_expected, "EXPECTED", target)
    monkeypatch.setitem(rewrite_expected.run.__globals__, "EXPECTED", target)
    rewrite_expected.main()
    assert snapshot(target) == committed


@pytest.mark.parametrize("name", RUNS)
def test_run_gives_its_expected_outputs(name, tmp_path):
    want = snapshot(EXPECTED / name)
    got = run(name, tmp_path)
    if got != want:
        diffs = [unified_diff(path, want.get(path), got.get(path))
                 for path in sorted(want.keys() | got.keys()) if want.get(path) != got.get(path)]
        pytest.fail(f"{name}: outputs differ from tests/expected/{name}\n" + "".join(diffs), pytrace=False)
