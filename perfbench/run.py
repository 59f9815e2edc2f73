"""Benchmark of the zipcalc CLI: closed-loop jobs, end-to-end and per-layer
metrics, checked against recorded report hashes.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>
    python3 perfbench/run.py --record-references

One client runs the workload's jobs in a closed loop: each job is a fresh
interpreter running the zipcalc CLI (perfbench/runner.py), started only after
the previous job has exited, so the load fits a 2-core machine.  A pass is
one run of every job of the workload; passes repeat while the next one is
expected to end within --seconds (at least one pass).  Every job's exit
code, stderr and report files are checked against perfbench/references.json.

--trace 0 reports the end-to-end metrics, each the median over passes:
wall_s (sum over jobs of spawn-to-exit time), setup_s (sum over jobs of
spawn until the datum exists), solve_s (the rest), peak_rss_mb (maximum
child ru_maxrss).  setup_s is topped up with setup-only rounds so it always
has at least three samples.

--trace 1 runs one untraced pass and two traced passes; the traced passes
wrap zipcalc's public functions (perfbench/tracer.py) and report per-layer
metrics.  Counts and descriptors of the two traced passes must agree
exactly; trace.overhead_s is traced minus untraced wall_s.

The last line of stdout is one JSON object with keys correct, attempted,
failed and metrics.  Full results, and in traced runs every span, go to
.perfbench/results/.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import random
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import tracer  # noqa: E402

REFERENCES = HERE / "references.json"
OUT_DIR = ROOT / ".perfbench"
JOB_TIMEOUT_S = 150
MIN_SETUP_SAMPLES = 3
MAX_ORDER = "80000"

ZOO_ENTRIES = (
    "trivial-e", "tau-surjective", "s3-reflection-pair", "s3-mixed",
    "s4-cycle-pair", "c2cube-projection", "gl2f2-borel",
)
CONFIGS = {
    "witt-p3-n3": {"preset": {"kind": "witt", "p": 3, "n": 3}},
    # A fixed seed: each twist run_verification samples lands in the 32- or
    # the 64-element double coset of G, the first costing about twice the
    # multiplications, so a per-seed choice moves this job's work by up to
    # a quarter and would swamp the bounds across seeds.  Other configs take
    # the run seed.
    "witt-p2-n3": {"preset": {"kind": "witt", "p": 2, "n": 3}, "seed": 0},
    "witt-p2-n2": {"preset": {"kind": "witt", "p": 2, "n": 2}, "twist": None},
    "explicit-s3-mixed": {
        "groups": {
            "E": {"backend": "permutation", "degree": 3, "generators": [[1, 0, 2]]},
            "G": {"backend": "permutation", "degree": 3, "generators": [[1, 0, 2], [1, 2, 0]]},
        },
        "tau": {"type": "inclusion"},
        "sigma": {"type": "trivial"},
    },
    **{f"zoo-{e}": {"preset": {"kind": "zoo", "entry": e}} for e in ZOO_ENTRIES},
}
DATUM_COMMANDS = ("refine", "infinity", "orbits", "classes", "forest", "verify")

# Why these workloads: zoo-cli is many short jobs dominated by interpreter
# start and import, takes the exhaustive law-check path on small carriers,
# and is the only one covering the permutation and Cayley backends, explicit
# config parsing and the zoo command.  witt22-cli runs every datum command on
# the small Witt instance alone, so a change to the Witt backend shows there
# and the permutation and Cayley backends are bypassed.  witt33-classify is
# the largest instance, dominated by big-carrier work on the sampled
# law-check path; witt23-verify spends nearly all its time in exhaustive law
# checks inside the verify battery, so a law-check change that helps one path
# and hurts the other shows between them.  Those two are run by hand and are
# not declared in BENCHMARK.json: on a shared 2-vCPU host the throughput of
# long compute-bound jobs drifts by 20-50% over minutes, so ten 60-second runs
# spread by 20-30% of their median (IQR), past the largest bound a declared
# metric may have (25%); in the same periods the short-job workloads spread
# by 8-18%.
WORKLOADS = {
    "witt33-classify": [("witt-p3-n3", "classes"), ("witt-p3-n3", "forest")],
    "witt23-verify": [("witt-p2-n3", "verify")],
    "zoo-cli": [
        (name, command)
        for name in ["witt-p2-n2", "explicit-s3-mixed", *(f"zoo-{e}" for e in ZOO_ENTRIES)]
        for command in DATUM_COMMANDS
    ]
    + [(None, "zoo")],
    "witt22-cli": [("witt-p2-n2", command) for command in DATUM_COMMANDS],
}

END_TO_END_UNITS = {"wall_s": "s", "setup_s": "s", "solve_s": "s", "peak_rss_mb": "MiB"}


class BenchmarkError(RuntimeError):
    """The benchmark cannot run here (for instance, no zipcalc sources)."""


@dataclass
class JobSpec:
    config: str | None
    command: str

    @property
    def id(self) -> str:
        return f"{self.config}:{self.command}" if self.config else self.command


@dataclass
class JobResult:
    spec: JobSpec
    wall: float
    setup: float
    rss_mb: float
    cpu_s: float
    exit_code: int
    files: dict  # report file name -> [sha256, size]
    record: dict
    problems: list = field(default_factory=list)


@dataclass
class Pass:
    mode: str
    jobs: list

    @property
    def wall(self):
        return sum(j.wall for j in self.jobs)

    @property
    def setup(self):
        return sum(j.setup for j in self.jobs)

    @property
    def failed(self):
        return sum(1 for j in self.jobs if j.problems)


def workload_jobs(workload: str, seed: int) -> list:
    jobs = [JobSpec(c, cmd) for c, cmd in WORKLOADS[workload]]
    if workload in ("zoo-cli", "witt22-cli"):
        random.Random(seed).shuffle(jobs)
    return jobs


class Bench:
    """One benchmark invocation: its scratch directory, environment and
    reference hashes."""

    def __init__(self, seed: int, references: dict | None):
        if not (ROOT / "src" / "zipcalc" / "cli.py").is_file():
            raise BenchmarkError(f"no zipcalc sources under {ROOT / 'src'}")
        self.seed = seed
        self.references = references
        self.work = OUT_DIR / f"work-{os.getpid()}"
        shutil.rmtree(self.work, ignore_errors=True)
        self.work.mkdir(parents=True)
        self.env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
        self.counter = 0
        for name, body in CONFIGS.items():
            config = {"name": name, "seed": seed, **body}
            (self.work / f"{name}.json").write_text(json.dumps(config), encoding="utf-8")
        # compile bytecode for zipcalc and the tracer once, outside any timing
        warm = subprocess.run(
            [sys.executable, "-c", "import zipcalc.cli, tracer"],
            env=dict(self.env, PYTHONPATH=f"{ROOT / 'src'}{os.pathsep}{HERE}"),
            cwd=ROOT,
            capture_output=True,
            text=True,
            timeout=JOB_TIMEOUT_S,
        )
        if warm.returncode != 0:
            raise BenchmarkError(f"cannot import zipcalc.cli:\n{warm.stderr}")

    def close(self):
        shutil.rmtree(self.work, ignore_errors=True)

    def cli_args(self, spec: JobSpec, out: Path) -> list:
        args = ["--command", spec.command, "--out", str(out)]
        if spec.config:
            args = ["--config", str(self.work / f"{spec.config}.json"), *args, "--max-order", MAX_ORDER]
        return args

    def run_job(self, spec: JobSpec, mode: str) -> JobResult:
        self.counter += 1
        job_dir = self.work / f"job-{self.counter}"
        out = job_dir / "out"
        job_dir.mkdir()
        timing = job_dir / "timing.json"
        stderr_path = job_dir / "stderr.txt"
        argv = [sys.executable, str(HERE / "runner.py"), str(timing), mode, *self.cli_args(spec, out)]
        actions = [
            (os.POSIX_SPAWN_OPEN, 0, os.devnull, os.O_RDONLY, 0),
            (os.POSIX_SPAWN_OPEN, 1, os.devnull, os.O_WRONLY, 0),
            (os.POSIX_SPAWN_OPEN, 2, str(stderr_path), os.O_WRONLY | os.O_CREAT | os.O_TRUNC, 0o644),
        ]
        spawned = time.perf_counter()
        pid = os.posix_spawn(sys.executable, argv, self.env, file_actions=actions)
        reaped = False
        killer = threading.Timer(JOB_TIMEOUT_S, os.kill, (pid, signal.SIGKILL))
        killer.start()
        try:
            _, status, usage = os.wait4(pid, 0)
            exited = time.perf_counter()
            reaped = True
        finally:
            killer.cancel()
            if not reaped:
                os.kill(pid, signal.SIGKILL)
                os.wait4(pid, 0)
        exit_code = os.waitstatus_to_exitcode(status)
        stderr = stderr_path.read_text(encoding="utf-8", errors="replace")
        try:
            record = json.loads(timing.read_text(encoding="utf-8"))
        except (OSError, ValueError):
            record = {}
        files = {}
        if out.is_dir():
            for path in sorted(out.iterdir()):
                data = path.read_bytes()
                files[path.name] = [hashlib.sha256(data).hexdigest(), len(data)]
        datum = record.get("datum") or record.get("import_end") or exited
        result = JobResult(
            spec,
            wall=exited - spawned,
            setup=datum - spawned,
            rss_mb=usage.ru_maxrss / 1024.0,
            cpu_s=usage.ru_utime + usage.ru_stime,
            exit_code=exit_code,
            files=files,
            record={**record, "spawned": spawned, "exited": exited},
        )
        result.problems = self.check(result, mode, stderr)
        shutil.rmtree(job_dir, ignore_errors=True)
        return result

    def check(self, job: JobResult, mode: str, stderr: str) -> list:
        """The correctness gate: exit code, no traceback, report bytes."""
        problems = []
        if "Traceback" in stderr:
            problems.append("traceback on stderr: " + stderr.strip().splitlines()[-1])
        if mode == "setup":
            if job.exit_code != 0:
                problems.append(f"setup-only run exited {job.exit_code}")
            return problems
        if self.references is None:
            return problems
        expected = self.references.get(job.spec.id)
        if expected is None:
            return problems + ["no reference recorded for this job"]
        if job.exit_code != expected["exit"]:
            problems.append(f"exit code {job.exit_code}, expected {expected['exit']}")
        got = {name: sha for name, (sha, _) in job.files.items()}
        want = expected["files"]
        wrong = sorted(n for n in {*got, *want} if got.get(n) != want.get(n))
        if wrong:
            problems.append("report files differ from the reference: " + ", ".join(wrong))
        return problems

    def run_pass(self, jobs: list, mode: str) -> Pass:
        return Pass(mode, [self.run_job(spec, mode) for spec in jobs])


# ---------------------------------------------------------------------------
# metrics
# ---------------------------------------------------------------------------


def summary(values: list) -> dict:
    values = sorted(values)
    median = statistics.median(values)
    if len(values) >= 2:
        q1, _, q3 = statistics.quantiles(values, n=4)
    else:
        q1 = q3 = median
    return {"median": median, "q1": q1, "q3": q3, "n": len(values)}


def end_to_end(passes: list, setup_samples: list) -> dict:
    return {
        "wall_s": summary([p.wall for p in passes]),
        "setup_s": summary(setup_samples),
        "solve_s": summary([p.wall - p.setup for p in passes]),
        "peak_rss_mb": summary([max(j.rss_mb for j in p.jobs) for p in passes]),
    }


def layer_values(traced: Pass) -> tuple:
    """Per-layer metric values of one traced pass, and the absent ones."""
    values = {name: 0 for name in tracer.LAYER_UNITS}
    missing, failed = set(), set()
    for job in traced.jobs:
        rec = job.record
        from_spans = tracer.span_metrics(rec.get("spans", []))
        for name, value in [*from_spans.items(), *rec.get("counts", {}).items()]:
            if name in values:
                values[name] += value
        for name, value in rec.get("calls", {}).items():
            values[f"{name}.calls"] += value
        for name, value in rec.get("maxima", {}).items():
            values[name] = max(values[name], value)
        missing.update(rec.get("missing", []))
        failed.update(rec.get("failed_descriptors", []))
        started = rec.get("started", rec["spawned"])
        process_start = started - rec["spawned"]
        import_s = rec.get("import_end", started) - rec.get("import_start", started)
        values["cli.process_start_s"] += process_start
        values["cli.import_s"] += import_s
        values["cli.process_cpu_s"] += job.cpu_s
        values["reports.bytes"] += sum(size for _, size in job.files.values())
        values["unattributed_s"] += job.wall - process_start - import_s - from_spans["root_span_s"]
    return values, tracer.absent_metrics(missing, failed)


def per_layer(untraced: Pass, traced: list) -> tuple:
    """Per-layer metrics from two traced passes: times are their mean,
    counts must repeat exactly."""
    (first, absent), (second, _) = (layer_values(p) for p in traced)
    mismatches = {
        name: [first[name], second[name]]
        for name in tracer.EXACT
        if first[name] != second[name]
    }
    values = {}
    for name in tracer.LAYER_UNITS:
        values[name] = first[name] if name in tracer.EXACT else (first[name] + second[name]) / 2
    values["trace.overhead_s"] = (traced[0].wall + traced[1].wall) / 2 - untraced.wall
    values["trace.repeat_mismatches"] = len(mismatches)
    return values, absent, mismatches


# ---------------------------------------------------------------------------
# environment stamp
# ---------------------------------------------------------------------------


def git_revision() -> tuple:
    if not (ROOT / ".git").exists():
        return "none", None
    try:
        rev = subprocess.run(
            ["git", "-C", str(ROOT), "rev-parse", "HEAD"], capture_output=True, text=True, timeout=30
        )
        status = subprocess.run(
            ["git", "-C", str(ROOT), "--no-optional-locks", "status", "--porcelain", "--untracked-files=no"],
            capture_output=True,
            text=True,
            timeout=30,
        )
    except (OSError, subprocess.TimeoutExpired):
        return "unknown", None
    if rev.returncode != 0:
        return "unknown", None
    return rev.stdout.strip(), bool(status.stdout.strip())


def environment() -> dict:
    revision, dirty = git_revision()
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "git_revision": revision,
        "git_dirty": dirty,
        "loadavg_start": os.getloadavg()[0],
    }


# ---------------------------------------------------------------------------
# entry points
# ---------------------------------------------------------------------------


def run_workload(bench: Bench, workload: str, jobs: list, seconds: float, trace: bool) -> dict:
    result = {"workload": workload, "seed": bench.seed, "seconds": seconds, "trace": int(trace)}
    if trace:
        untraced = bench.run_pass(jobs, "plain")
        traced = [bench.run_pass(jobs, "traced") for _ in range(2)]
        passes = [untraced, *traced]
        values, absent, mismatches = per_layer(untraced, traced)
        result["metrics"] = {n: {"value": values[n], "unit": u} for n, u in tracer.LAYER_UNITS.items()}
        result["absent"] = absent
        result["nondeterminism"] = mismatches
        result["spans"] = [
            [*span, f"{i}:{job.spec.id}"]
            for i, p in enumerate(traced)
            for job in p.jobs
            for span in job.record.get("spans", [])
        ]
    else:
        passes = []
        began = time.perf_counter()
        # start another pass only if it should end within the run time
        while not passes or (time.perf_counter() - began) + passes[-1].wall <= seconds:
            passes.append(bench.run_pass(jobs, "plain"))
        setup = [p.setup for p in passes]
        while len(setup) < MIN_SETUP_SAMPLES:
            probe = bench.run_pass(jobs, "setup")
            passes.append(probe)
            setup.append(probe.setup)
        stats = end_to_end([p for p in passes if p.mode == "plain"], setup)
        result["summary"] = stats
        result["metrics"] = {
            n: {"value": stats[n]["median"], "unit": u} for n, u in END_TO_END_UNITS.items()
        }
    result["attempted"] = sum(len(p.jobs) for p in passes)
    result["failed"] = sum(p.failed for p in passes)
    result["problems"] = sorted({f"{j.spec.id}: {msg}" for p in passes for j in p.jobs for msg in j.problems})
    return result


def print_report(result: dict, env: dict):
    print(
        f"zipcalc benchmark: workload={result['workload']} seed={result['seed']}"
        f" seconds={result['seconds']} trace={result['trace']}"
    )
    print(
        f"env: nproc={env['nproc']} python={env['python']} git={env['git_revision']}"
        f" dirty={env['git_dirty']} loadavg={env['loadavg_start']:.2f}->{env['loadavg_end']:.2f}"
    )
    if "summary" in result:
        for name, unit in END_TO_END_UNITS.items():
            s = result["summary"][name]
            print(
                f"{name:<14} median {s['median']:.4f} {unit}  q1 {s['q1']:.4f}  q3 {s['q3']:.4f}  n={s['n']}"
            )
    else:
        for name, m in result["metrics"].items():
            flag = "  (absent)" if name in result["absent"] else ""
            print(f"{name:<48} {m['value']:.6g} {m['unit']}{flag}")
        for name, (a, b) in result["nondeterminism"].items():
            print(f"nondeterminism: {name} {a} != {b}")
    frac = result["failed"] / result["attempted"]
    print(
        f"jobs_failed_frac {frac:.4f} (ratio; {result['failed']} of {result['attempted']} jobs"
        " failed, setup-only jobs included)"
    )
    for problem in result["problems"]:
        print(f"FAILED {problem}")


def record_references():
    """Run one pass of every workload and store exit codes and report hashes."""
    bench = Bench(seed=0, references=None)
    refs = {}
    try:
        for workload in WORKLOADS:
            for job in bench.run_pass(workload_jobs(workload, 0), "plain").jobs:
                if job.problems:
                    raise BenchmarkError(f"{job.spec.id}: {job.problems}")
                refs[job.spec.id] = {
                    "exit": job.exit_code,
                    "files": {name: sha for name, (sha, _) in job.files.items()},
                }
    finally:
        bench.close()
    REFERENCES.write_text(json.dumps(refs, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    print(f"wrote {len(refs)} job references to {REFERENCES}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=60)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record-references", action="store_true")
    args = parser.parse_args(argv)
    try:
        if args.record_references:
            record_references()
            return 0
        if args.workload is None:
            parser.error("--workload is required")
        env = environment()
        if not REFERENCES.is_file():
            raise BenchmarkError(f"missing {REFERENCES}")
        references = json.loads(REFERENCES.read_text(encoding="utf-8"))
        bench = Bench(args.seed, references)
        try:
            jobs = workload_jobs(args.workload, args.seed)
            result = run_workload(bench, args.workload, jobs, args.seconds, bool(args.trace))
        finally:
            bench.close()
    except BenchmarkError as exc:
        print(f"benchmark error: {exc}", file=sys.stderr)
        return 2
    env["loadavg_end"] = os.getloadavg()[0]
    result["environment"] = env
    for when in ("start", "end"):
        if env[f"loadavg_{when}"] > env["nproc"]:
            print(
                f"warning: load average {env[f'loadavg_{when}']:.2f} at {when} exceeds nproc={env['nproc']}",
                file=sys.stderr,
            )
    results = OUT_DIR / "results"
    results.mkdir(parents=True, exist_ok=True)
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    (results / name).write_text(json.dumps(result, indent=1) + "\n", encoding="utf-8")
    print_report(result, env)
    print(
        json.dumps(
            {
                "correct": result["failed"] == 0,
                "attempted": result["attempted"],
                "failed": result["failed"],
                "metrics": result["metrics"],
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
