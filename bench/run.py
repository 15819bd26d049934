#!/usr/bin/env python3
"""Seeded end-to-end benchmark for the medlex CLI.

Run from the repository root:

    python3 bench/run.py --workload map-kw1k --seed 1 --seconds 20 --trace 0
    python3 bench/run.py --workload all --seed 1

Each workload (see bench/workloads.json) is a batch job: ``map``, then
``merge``, then ``eval overlap``, ``eval gold`` and ``eval sample``, run
one at a time as ``python -m medlex ...`` child processes on inputs
generated from the seed. Jobs repeat until their commands have run for
``--seconds`` (at least once); medians are reported. One more untimed repetition
with ``--threads 2`` must print and write the same bytes. An oracle that
does not import medlex's mapping, merge or evaluate code checks the
outputs.

Times are scaled to a reference CPU speed (see ``SpeedProbe``): on a
shared host the speed of a CPU drifts by tens of percent over tens of
seconds, which would otherwise swamp the differences the benchmark is
for. The raw wall times are printed alongside.

With ``--trace 0`` the last line holds the end-to-end metrics; with
``--trace 1`` it holds the per-layer metrics of a separate traced run
(see bench/tracing.py), whose spans are written to
``.bench_work/traces/``.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass
from pathlib import Path

import gen
import oracle
import tracing

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"
SETUP_REPS = 9
MERGE_LABELS = "ORG+SER"
EVAL_STEPS = ("overlap", "gold", "sample")

# A fresh process importing medlex and loading and linting the tables
# and manifest a workload's commands use, before reading any main input.
SETUP_SNIPPET = """
import sys
from medlex import cli, defaults
from medlex.merge import load_manifest
from medlex.strategies import load_keyword_table
keywords_file, manifest = sys.argv[1:]
suffixes = defaults.default_suffix_table()
keywords = load_keyword_table(keywords_file) if keywords_file else defaults.default_keyword_table()
defaults.default_stops()
defaults.default_function_words()
suffixes.lint()
keywords.lint()
load_manifest(manifest)
"""


class SpeedProbe(threading.Thread):
    """Measures how fast this CPU runs while a timed command runs on it.

    The benchmark process and its children are pinned to one CPU. While
    a command runs, this thread, niced to 19 on that CPU, repeats a fixed
    loop and records the CPU time of each pass; the command keeps about
    98% of the CPU. A command's wall time times REF_PASS_NS over the
    median pass time in its interval is its time at the reference speed.
    """

    NICE = 19
    PASS_ITERATIONS = 2000
    REF_PASS_NS = 200_000
    MIN_SAMPLES = 5

    def __init__(self):
        super().__init__(name="speed-probe", daemon=True)
        self._samples: list[tuple[float, int]] = []
        self._active = threading.Event()
        self._closed = False
        self._last_pass_ns = float(self.REF_PASS_NS)

    def run(self) -> None:
        os.setpriority(os.PRIO_PROCESS, threading.get_native_id(), self.NICE)
        while not self._closed:
            self._active.wait()
            start = time.thread_time_ns()
            acc = 0
            for i in range(self.PASS_ITERATIONS):
                acc += i * i % 7
            self._samples.append((time.perf_counter(), time.thread_time_ns() - start))

    def close(self) -> None:
        self._closed = True
        self._active.set()
        self.join()

    def start_interval(self) -> float:
        self._samples.clear()
        self._active.set()
        return time.perf_counter()

    def end_interval(self, start: float) -> tuple[float, float]:
        """(wall seconds since start, the same scaled to the reference speed)."""
        end = time.perf_counter()
        self._active.clear()
        passes = [ns for t, ns in list(self._samples) if start <= t <= end]
        if len(passes) >= self.MIN_SAMPLES:
            self._last_pass_ns = statistics.median(passes)
        return end - start, (end - start) * self.REF_PASS_NS / self._last_pass_ns


def pin_to_one_cpu() -> None:
    """Keep this process, its children and the probe on one CPU, so the
    probe sees the speed the commands get."""
    try:
        os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    except (AttributeError, OSError):
        pass


@dataclass
class Job:
    name: str
    seed: int
    dir: Path
    probe: SpeedProbe
    plan: gen.Plan
    mapped: str
    fmt: str | None
    iter_rounds: int
    quota: int

    def steps(self) -> list[tuple[str, list[str], list[str]]]:
        """(step, medlex arguments, files the step writes), in job order."""
        p = self.plan
        map_args = ["map", "--dict", p.dict_file, "--iter", str(self.iter_rounds), "--out", self.mapped]
        if p.conllu_file:
            map_args += ["--conllu", p.conllu_file]
        if p.keyword_file:
            map_args += ["--keywords", p.keyword_file]
        if self.fmt:
            map_args += ["--format", self.fmt]
        return [
            ("map", map_args, [self.mapped]),
            ("merge", ["merge", "--manifest", p.manifest_file, "--mapped", self.mapped,
                       "--lowercase", "--out", "lexicon.tsv"], ["lexicon.tsv"]),
            ("overlap", ["eval", "overlap", "--mapped", self.mapped, "--manifest", p.manifest_file], []),
            ("gold", ["eval", "gold", "--gold", p.gold_file, "--mapped", self.mapped, "--exclude-other",
                      "--merge-labels", MERGE_LABELS, "--matrix-out", "matrix.csv",
                      "--report-tsv", "report.tsv"], ["matrix.csv", "report.tsv"]),
            ("sample", ["eval", "sample", "--mapped", self.mapped, "--quota", str(self.quota),
                        "--seed", str(self.seed), "--out", "sample.tsv"], ["sample.tsv"]),
        ]


@dataclass
class Cmd:
    seconds: float  # wall time, spawn to exit
    scaled: float  # the same at the reference CPU speed
    rss_mb: float
    code: int
    stdout: bytes
    stderr: bytes


def spawn(argv: list[str], cwd: Path, probe: SpeedProbe) -> Cmd:
    """Run one child to completion; wall time from spawn to exit, peak RSS from wait4."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    out_path, err_path = cwd / ".stdout", cwd / ".stderr"
    with open(out_path, "wb") as out, open(err_path, "wb") as err:
        start = probe.start_interval()
        proc = subprocess.Popen(argv, cwd=cwd, stdout=out, stderr=err, env=env)
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            seconds, scaled = probe.end_interval(start)
    proc.returncode = os.waitstatus_to_exitcode(status)
    return Cmd(seconds, scaled, usage.ru_maxrss / 1024, proc.returncode,
               out_path.read_bytes(), err_path.read_bytes())


def run_step(job: Job, args: list[str], files: list[str], threads: int) -> tuple[Cmd, str]:
    """Run one medlex command; return it and the digest of what it printed and wrote."""
    argv = [sys.executable, "-m", "medlex", *args]
    if threads != 1:
        argv += ["--threads", str(threads)]
    cmd = spawn(argv, job.dir, job.probe)
    digest = hashlib.sha256(cmd.stdout)
    for name in files:
        path = job.dir / name
        digest.update(path.read_bytes() if path.exists() else b"<missing>")
    return cmd, digest.hexdigest()


def measure_setup(job: Job) -> tuple[float, float]:
    """Median (wall, scaled) seconds of SETUP_REPS fresh set-up processes."""
    p = job.plan
    argv = [sys.executable, "-c", SETUP_SNIPPET, p.keyword_file or "", p.manifest_file]
    spawn(argv, job.dir, job.probe)  # untimed: writes bytecode caches
    cmds = []
    for _ in range(SETUP_REPS):
        cmd = spawn(argv, job.dir, job.probe)
        if cmd.code != 0:
            raise RuntimeError(f"set-up process failed: {cmd.stderr.decode(errors='replace')}")
        cmds.append(cmd)
    return statistics.median(c.seconds for c in cmds), statistics.median(c.scaled for c in cmds)


def check_outputs(job: Job, stdout: dict[str, bytes]) -> tuple[dict[str, list[str]], bool]:
    """Oracle problems per step, from the files in the job directory, and
    whether the oracle reported a planted wrong row."""
    plan = job.plan
    checks = {}
    try:
        rows = oracle.read_outcome_rows(job.dir / job.mapped)
    except (OSError, ValueError, KeyError) as exc:
        return {"map": [f"unreadable outcome file: {exc}"]}, True
    text = lambda name: (job.dir / name).read_text(encoding="utf-8")  # noqa: E731
    calls = {
        "map": lambda: oracle.check_map(plan, rows, job.iter_rounds, stdout["map"].decode(), job.seed),
        "merge": lambda: oracle.check_merge(plan, rows, text("lexicon.tsv"), stdout["merge"].decode()),
        "overlap": lambda: oracle.check_overlap(plan, rows, stdout["overlap"].decode()),
        "gold": lambda: oracle.check_gold(plan, rows, text("report.tsv"), text("matrix.csv")),
        "sample": lambda: oracle.check_sample(rows, text("sample.tsv"), job.quota),
    }
    for step, call in calls.items():
        try:
            checks[step] = call()
        except (OSError, ValueError, KeyError, IndexError) as exc:
            checks[step] = [f"oracle could not read the output: {exc!r}"]
    return checks, oracle.self_check(plan, rows, job.iter_rounds, stdout["map"].decode(), job.seed)


def run_workload(name: str, params: dict, seed: int, seconds: float, trace: bool,
                 probe: SpeedProbe, log) -> dict:
    work = WORK / f"{name}-{seed}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    try:
        t0 = time.perf_counter()
        plan = gen.generate(ROOT, name, params, seed, work)
        fmt = "jsonl" if params["out_format"] == "jsonl" else None
        job = Job(name, seed, work, probe, plan, f"mapped.{params['out_format']}", fmt,
                  params["iter"], params["sample_quota"])
        log(f"{name}: inputs generated in {time.perf_counter() - t0:.1f} s: {json.dumps(plan.properties)}")
        return _measure(job, seconds, trace, log)
    finally:
        shutil.rmtree(work, ignore_errors=True)


def run_job(job: Job, threads: int, label: str, reference: dict[str, str] | None,
            failed: dict[str, str]) -> tuple[dict[str, Cmd], dict[str, str]]:
    """Run every step once; record each failed command in ``failed`` under
    ``label/step``. Returns the commands and their output digests."""
    rep, digests = {}, {}
    for step, args, files in job.steps():
        cmd, digests[step] = run_step(job, args, files, threads)
        rep[step] = cmd
        if cmd.code != 0:
            failed[f"{label}/{step}"] = f"exit {cmd.code}: {cmd.stderr.decode(errors='replace')[-300:]}"
        elif b"Traceback" in cmd.stderr:
            failed[f"{label}/{step}"] = "printed a traceback"
        elif reference is not None and digests[step] != reference[step]:
            failed[f"{label}/{step}"] = "output differs from repetition 1"
    return rep, digests


def _measure(job: Job, seconds: float, trace: bool, log) -> dict:
    setup_raw, setup_s = measure_setup(job)
    failed: dict[str, str] = {}  # "repetition/step" -> reason
    rep, reference = run_job(job, 1, "1", None, failed)
    checks, self_check_ok = check_outputs(job, {step: cmd.stdout for step, cmd in rep.items()})
    for step, problems in checks.items():
        if problems:
            failed[f"1/{step}"] = "oracle: " + "; ".join(problems[:3])
    reps = [rep]
    measured = sum(cmd.seconds for cmd in rep.values())
    while measured < seconds:
        rep, _ = run_job(job, 1, str(len(reps) + 1), reference, failed)
        reps.append(rep)
        measured += sum(cmd.seconds for cmd in rep.values())
    run_job(job, 2, "threads2", reference, failed)
    attempted = (len(reps) + 1) * len(rep)

    for label, reason in failed.items():
        log(f"FAILED {job.name} {label}: {reason}")
    log(f"{job.name}: self-check {'passed' if self_check_ok else 'FAILED'}: "
        "a planted wrong outcome row must be reported by the oracle")
    raw = {step: statistics.median(r[step].seconds for r in reps) for step in rep}
    scaled = {step: statistics.median(r[step].scaled for r in reps) for step in rep}
    metrics = {
        "map_s": (scaled["map"], "s"),
        "merge_s": (scaled["merge"], "s"),
        "eval_s": (statistics.median(sum(r[s].scaled for s in EVAL_STEPS) for r in reps), "s"),
        "setup_s": (setup_s, "s"),
        "peak_rss_mb": (statistics.median(max(c.rss_mb for c in r.values()) for r in reps), "MB"),
    }
    log(f"{job.name}: {len(reps)} timed repetitions; raw wall seconds: setup {setup_raw:.4f}, "
        + ", ".join(f"{step} {t:.4f}" for step, t in raw.items()))
    for i, r in enumerate(reps, start=1):
        log(f"{job.name}: repetition {i} scaled seconds: "
            + ", ".join(f"{step} {cmd.scaled:.4f}" for step, cmd in r.items()))
    log(f"{job.name}: fail_ratio {len(failed) / attempted:.4f} ({len(failed)}/{attempted} commands)")
    result = {"correct": not failed and self_check_ok, "attempted": attempted, "failed": len(failed),
              "metrics": metrics}
    if trace:
        result = _traced(job, raw, reference, result, log)
    return result


def _traced(job: Job, command_s: dict[str, float], digests: dict[str, str], result: dict, log) -> dict:
    """Per-layer metrics from an in-process traced run of the same job.

    Spans are raw wall seconds, compared with the commands' raw times.
    """
    sys.path.insert(0, str(SRC))
    gc.collect()
    gc.freeze()  # keep the benchmark's own objects out of the traced run's collections
    tracer = tracing.Tracer(f"{job.name}-{job.seed}-{os.getpid()}")
    counts, outputs = tracing.traced_job(job, tracer, job.dir / "traced")
    tracer.dump(WORK / "traces" / f"{tracer.run_id}.json")

    attempted, failed = result["attempted"] + len(outputs), result["failed"]
    for step, data in outputs.items():
        if hashlib.sha256(data).hexdigest() != digests[step]:
            failed += 1
            log(f"FAILED {job.name} traced/{step}: output differs from the command's")

    self_s = tracer.self_times()
    span_s = lambda name: self_s.get(name, 0.0)  # noqa: E731
    metrics: dict[str, tuple[float, str]] = {}
    for name in ("strategies.load", "strategies.suffix_vote", "strategies.kw_entry_vote",
                 "strategies.kw_firstnoun_vote", "textprep.ingest_conllu", "textprep.first_noun",
                 "pipeline.read", "pipeline.attach", "pipeline.synonyms", "pipeline.vote_pass",
                 "pipeline.render", "pipeline.read_outcomes", "model.normalize", "merge.ingest",
                 "merge.merge_lexicons", "merge.export", "evaluate.overlap", "evaluate.gold",
                 "evaluate.sample"):
        metrics[f"{name}_s"] = (span_s(name), "s")
    metrics["pipeline.iter_s"] = (span_s("pipeline.map_dictionary") - span_s("pipeline.vote_pass"), "s")
    for name, value in counts.items():
        metrics[name] = (value, "ratio" if name.endswith("ratio") else "bytes" if name.endswith("bytes") else "count")
    traced_cmd = {step: tracer.total(f"cmd.{step}") for step in ("map", "merge")}
    traced_cmd["eval"] = sum(tracer.total(f"cmd.eval_{s}") for s in ("overlap", "gold", "sample"))
    untraced = dict(command_s, eval=sum(command_s[s] for s in EVAL_STEPS))
    for step in ("map", "merge", "eval"):
        metrics[f"cli.unattributed_{step}_s"] = (untraced[step] - traced_cmd[step], "s")
    traced_total = tracer.spans[-1]["end"] - tracer.spans[0]["start"]
    metrics["trace.overhead_s"] = (traced_total - sum(untraced[s] for s in ("map", "merge", "eval")), "s")
    metrics["trace.spans"] = (len(tracer.spans), "count")
    return {"correct": result["correct"] and failed == result["failed"], "attempted": attempted,
            "failed": failed, "metrics": metrics}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, help="a workload name, or 'all'")
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "medlex" / "__init__.py").is_file():
        print(f"error: no medlex sources under {SRC}; run from a full checkout", file=sys.stderr)
        return 2
    workloads = json.loads((HERE / "workloads.json").read_text(encoding="utf-8"))["workloads"]
    names = list(workloads) if args.workload == "all" else [args.workload]
    if any(n not in workloads for n in names):
        parser.error(f"unknown workload {args.workload!r}; choose from {', '.join(workloads)} or all")

    log = lambda msg: print(msg, flush=True)  # noqa: E731
    # On SIGTERM, unwind so that spawn() kills and reaps the running command.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    pin_to_one_cpu()
    probe = SpeedProbe()
    probe.start()
    try:
        results = {n: run_workload(n, workloads[n], args.seed, args.seconds, bool(args.trace), probe, log)
                   for n in names}
    finally:
        probe.close()
    for n, res in results.items():
        for metric, (value, unit) in res["metrics"].items():
            log(f"{n:16} {metric:32} {value:14.6f} {unit}")
        log(f"{n:16} {'fail_ratio':32} {res['failed'] / res['attempted']:14.6f} ratio")
    prefix = (lambda n, m: f"{n}.{m}") if len(names) > 1 else (lambda n, m: m)
    print(json.dumps({
        "correct": all(r["correct"] for r in results.values()),
        "attempted": sum(r["attempted"] for r in results.values()),
        "failed": sum(r["failed"] for r in results.values()),
        "metrics": {prefix(n, m): {"value": v, "unit": u}
                    for n, r in results.items() for m, (v, u) in r["metrics"].items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
