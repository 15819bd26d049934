"""The benchmark's oracle as a property test: small jobs drawn from the
benchmark's workloads, generated by ``bench/gen.py``, run through the five
commands in process and checked by ``bench/oracle.py``, which re-derives
every expected output by brute force and imports nothing from medlex."""

from __future__ import annotations

import contextlib
import copy
import importlib.util
import io
import json
import os
import signal
import subprocess
import sys
import tempfile
from pathlib import Path

from hypothesis import given, settings
from hypothesis import strategies as st

import medlex
from medlex.cli import main

ROOT = Path(__file__).resolve().parent.parent
BENCH = ROOT / "bench"


def _load(name: str):
    """A module of bench/ by its path, without putting bench/ on sys.path."""
    spec = importlib.util.spec_from_file_location(f"bench_{name}", BENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclasses look their module up while the class is built
    spec.loader.exec_module(module)
    return module


gen = _load("gen")
oracle = _load("oracle")
WORKLOADS = json.loads((BENCH / "workloads.json").read_text(encoding="utf-8"))["workloads"]
GENERATE_SECONDS = 10


@contextlib.contextmanager
def time_limit(seconds: int):
    """Fail, rather than hang, when the block runs longer than ``seconds``:
    the generator's term loops do not end once their term space is used up."""
    if not hasattr(signal, "setitimer"):
        yield
        return

    def expire(signum, frame):
        raise TimeoutError(f"input generation took more than {seconds} s")

    old = signal.signal(signal.SIGALRM, expire)
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, old)


@st.composite
def jobs(draw):
    """(workload, seed, params): a workload's parameters at small sizes."""
    workload = draw(st.sampled_from(sorted(WORKLOADS)))
    params = copy.deepcopy(WORKLOADS[workload])
    params["dictionary"]["entries"] = draw(st.integers(30, 300))
    params["dictionary"]["conllu"] = draw(st.booleans())
    for resource in params["resources"]:
        resource["rows"] = draw(st.integers(20, 400))
    params["gold_terms"] = draw(st.integers(10, 40))
    params["iter"] = draw(st.integers(0, 3))
    params["out_format"] = draw(st.sampled_from(["tsv", "jsonl"]))
    params["sample_quota"] = draw(st.integers(1, 30))
    return workload, draw(st.integers(0, 10**6)), params


def job_steps(plan, params, seed: int, src: Path, out: Path) -> dict[str, list[str]]:
    """The benchmark job's commands, as ``bench/run.py`` runs them, and a
    merge to a JSON-lines lexicon; inputs under ``src``, outputs under ``out``."""
    mapped = str(out / f"mapped.{params['out_format']}")
    map_args = ["map", "--dict", str(src / plan.dict_file), "--iter", str(params["iter"]), "--out", mapped]
    if plan.conllu_file:
        map_args += ["--conllu", str(src / plan.conllu_file)]
    if plan.keyword_file:
        map_args += ["--keywords", str(src / plan.keyword_file)]
    if params["out_format"] == "jsonl":
        map_args += ["--format", "jsonl"]
    manifest = str(src / plan.manifest_file)
    merge = ["merge", "--manifest", manifest, "--mapped", mapped, "--lowercase", "--out"]
    return {
        "map": map_args,
        "merge": [*merge, str(out / "lexicon.tsv")],
        "merge_jsonl": [*merge, str(out / "lexicon.jsonl")],
        "overlap": ["eval", "overlap", "--mapped", mapped, "--manifest", manifest],
        "gold": ["eval", "gold", "--gold", str(src / plan.gold_file), "--mapped", mapped, "--exclude-other",
                 "--merge-labels", "ORG+SER", "--matrix-out", str(out / "matrix.csv"),
                 "--report-tsv", str(out / "report.tsv")],
        "sample": ["eval", "sample", "--mapped", mapped, "--quota", str(params["sample_quota"]),
                   "--seed", str(seed), "--out", str(out / "sample.tsv")],
    }


def generate(tmp: Path, workload: str, seed: int, params: dict):
    with time_limit(GENERATE_SECONDS):
        return gen.generate(ROOT, workload, params, seed, tmp / "in")


def check_jsonl_lexicon(tsv: str, jsonl: str) -> None:
    """The JSON-lines lexicon holds the TSV lexicon's rows, row for row: the
    same four columns, with the sources column split at ","."""
    header, *rows = tsv.split("\n")[:-1]
    lines = jsonl.split("\n")[:-1] if jsonl else []
    assert len(lines) == len(rows)
    for row, line in zip(rows, lines):
        obj = json.loads(line)
        assert list(obj) == header.split("\t")
        assert obj["sources"] == sorted(obj["sources"])
        assert row.split("\t") == [obj["term"], obj["category"], ",".join(obj["sources"]), obj["provenance"]]


@settings(max_examples=30, deadline=None)
@given(jobs())
def test_drawn_jobs_pass_the_benchmark_oracle(job):
    workload, seed, params = job
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        plan = generate(tmp, workload, seed, params)
        out = tmp / "out"
        out.mkdir()
        printed = {}
        for step, argv in job_steps(plan, params, seed, tmp / "in", out).items():
            with contextlib.redirect_stdout(io.StringIO()) as stdout:
                code = main(argv)
            assert code == 0, (step, argv)
            printed[step] = stdout.getvalue()
        text = {path.name: path.read_text(encoding="utf-8") for path in out.iterdir()}
        rows = oracle.read_outcome_rows(out / f"mapped.{params['out_format']}")
        problems = {
            "map": oracle.check_map(plan, rows, params["iter"], printed["map"], seed),
            "merge": oracle.check_merge(plan, rows, text["lexicon.tsv"], printed["merge"]),
            "overlap": oracle.check_overlap(plan, rows, printed["overlap"]),
            "gold": oracle.check_gold(plan, rows, text["report.tsv"], text["matrix.csv"]),
            "sample": oracle.check_sample(rows, text["sample.tsv"], params["sample_quota"]),
        }
        assert problems == {step: [] for step in problems}
        assert oracle.self_check(plan, rows, params["iter"], printed["map"], seed)
        assert printed["merge_jsonl"] == printed["merge"]
        check_jsonl_lexicon(text["lexicon.tsv"], text["lexicon.jsonl"])


def test_a_job_writes_the_same_bytes_under_any_hash_seed(tmp_path):
    workload = "map-heur-jsonl"
    params = copy.deepcopy(WORKLOADS[workload])
    params["dictionary"].update(entries=120, conllu=True)
    for resource in params["resources"]:
        resource["rows"] = 150
    params.update(gold_terms=20, iter=2, sample_quota=5)
    plan = generate(tmp_path, workload, 301, params)
    src = str(Path(medlex.__file__).resolve().parent.parent)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    runs = []
    for hash_seed in ("1", "2"):
        out = tmp_path / hash_seed
        out.mkdir()
        printed = []
        for argv in job_steps(plan, params, 301, tmp_path / "in", out).values():
            proc = subprocess.run([sys.executable, "-m", "medlex", *argv], capture_output=True,
                                  env={**env, "PYTHONHASHSEED": hash_seed})
            assert proc.returncode == 0, proc.stderr
            printed.append((proc.stdout, proc.stderr))
        runs.append((printed, {path.name: path.read_bytes() for path in sorted(out.iterdir())}))
    assert len(runs[0][1]) == 6
    assert runs[0] == runs[1]
