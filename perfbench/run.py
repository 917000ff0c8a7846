"""Benchmark of the equilines CLI.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1 [--tiny]

Run it from the root of a checkout that holds `src/equilines`.  It makes
the workload's inputs from the seed, then starts the CLI as a user would
(`equilines.cli.main` with `src/` on PYTHONPATH), one process at a time:
a closed loop with one client, each process single-threaded
(OPENBLAS_NUM_THREADS=1).  It starts another process only while one more
would end within S seconds, checks every report, and prints the medians.

With --trace 0 it prints the end-to-end metrics.  With --trace 1 it also
runs the same command inside one traced process (perfbench/traced.py),
which records a span around every call into each layer, and prints the
per-layer metrics.  --tiny shrinks every input, for the smoke test.

The last line of stdout is one JSON object with the keys correct,
attempted, failed and metrics.  The line before it holds the run's
record: environment, launch command, input digest and every sample.
Scratch files go to perfbench/_work.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import signal
import statistics
import subprocess
import sys
import threading
import time
from collections import defaultdict
from dataclasses import dataclass
from math import comb
from pathlib import Path

from workloads import WORKLOADS, CheckError, Job, Work, make_job

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK = HERE / "_work"
DIGESTS = HERE / "digests.json"
CLI = ["-c", "from equilines.cli import main; main()"]

# Import-only starts per round.  They are spread over the run like the CLI
# processes, because the host's speed drifts in phases of tens of seconds.
SETUP_PER_ROUND = 2
IMPORTTIME_REPEATS = 3
# A traced round is two processes; two timeouts must still end a run within 180 s.
PROCESS_TIMEOUT_S = 75

END_TO_END = {
    "wall_s": "s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "lines_per_s": "lines/s",
    "configs_per_s": "configs/s",
    "colorings_per_s": "colorings/s",
    "ok_frac": "ratio",
}

PER_LAYER = {
    "cli.import_s": "s",
    "cli.import_numpy_s": "s",
    "cli.cpu_s": "s",
    "reports.parse_config_s": "s",
    "reports.dump_json_s": "s",
    "reports.analysis_document_s": "s",
    "reports.self_s": "s",
    "geometry.enumerate_lines_s": "s",
    "geometry.pairs_per_s": "pairs/s",
    "geometry.pairs": "count",
    "geometry.lines": "count",
    "profiles.compute_profile_s": "s",
    "profiles.verify_identities_s": "s",
    "inequalities.evaluate_all_s": "s",
    "bounds.evaluate_all_bounds_s": "s",
    "bounds.evaluate_bound_s": "s",
    "generators.generate_s": "s",
    "kernels.build_incidence_s": "s",
    "kernels.selection_table_s": "s",
    "kernels.incidence_bytes": "bytes_computed",
    "kernels.exhaustive_scan_s": "s",
    "kernels.colorings_per_s": "colorings/s",
    "kernels.descent_replay_s": "s",
    "kernels.moves_per_s": "moves/s",
    "search.run_search_s": "s",
    "search.self_s": "s",
    "trace.overhead_frac": "ratio",
    "trace.coverage_frac": "ratio",
}

# Layers whose spans must cover the in-process time of each workload kind.
COVERING_LAYERS = {
    "analyze": {"geometry", "profiles", "inequalities", "bounds", "reports"},
    "search": {"kernels"},
}

ENV_PROBE = r"""
import ctypes, json, os, platform, sys
import numpy
from equilines.kernels import resolve_backend
try:
    import numba
    numba_version = numba.__version__
except ImportError:
    numba_version = None
blas_threads = None
try:
    with open("/proc/self/maps") as maps:
        libs = sorted({l.split()[-1] for l in maps if "openblas" in l.lower()})
    for lib in libs:
        for name in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                     "openblas_get_num_threads"):
            fn = getattr(ctypes.CDLL(lib), name, None)
            if fn is not None:
                blas_threads = fn()
                break
except OSError:
    pass
print(json.dumps({
    "backend": resolve_backend(),
    "numba": numba_version,
    "nproc": len(os.sched_getaffinity(0)),
    "cpu_count": os.cpu_count(),
    "python": platform.python_version(),
    "numpy": numpy.__version__,
    "blas_threads": blas_threads,
    "machine": platform.machine(),
}))
"""


def cli_env() -> dict[str, str]:
    env = dict(os.environ)
    env.pop("EQUILINES_BACKEND", None)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    env["OPENBLAS_NUM_THREADS"] = "1"
    return env


@dataclass
class Proc:
    code: int
    wall_s: float
    cpu_s: float
    peak_rss_mb: float
    stdout: str
    stderr: str


def spawn(args: list[str], name: str) -> Proc:
    """Run the interpreter with args to completion; wall time from start to
    reap, CPU time and peak RSS from wait4."""
    out_path, err_path = WORK / f"{name}.out", WORK / f"{name}.err"
    with open(out_path, "wb") as out, open(err_path, "wb") as err:
        start = time.perf_counter()
        proc = subprocess.Popen([sys.executable, *args], stdout=out, stderr=err,
                                env=cli_env(), cwd=ROOT)
        timer = threading.Timer(PROCESS_TIMEOUT_S, proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            timer.cancel()
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return Proc(
        code=proc.returncode,
        wall_s=wall,
        cpu_s=usage.ru_utime + usage.ru_stime,
        peak_rss_mb=usage.ru_maxrss / 1024,
        stdout=out_path.read_text(encoding="utf-8", errors="replace"),
        stderr=err_path.read_text(encoding="utf-8", errors="replace"),
    )


class Runner:
    """Runs one workload's CLI processes and checks their reports."""

    def __init__(self, job: Job, seed: int, tiny: bool, backend: str) -> None:
        self.job = job
        self.attempted = 0
        self.failures: list[str] = []
        self.digest = None
        if not tiny and DIGESTS.is_file():
            table = json.loads(DIGESTS.read_text())
            self.digest = table.get(backend, {}).get(job.name, {}).get(str(seed))

    def verify(self, proc: Proc, label: str) -> Work | None:
        """Check one report; a failed check counts the run as failed."""
        self.attempted += 1
        try:
            if proc.code != 0:
                raise CheckError(f"exit code {proc.code}: {proc.stderr.strip()[-300:]}")
            work = self.job.check(proc.stdout)
            sha = hashlib.sha256(proc.stdout.encode()).hexdigest()
            if self.digest is not None and sha != self.digest:
                raise CheckError("report differs from the one recorded for this seed")
            return work
        except (CheckError, ArithmeticError, AttributeError, KeyError, IndexError, TypeError,
                ValueError) as exc:
            self.failures.append(f"{label}: {type(exc).__name__}: {exc}")
            return None

    def cli_run(self) -> tuple[Proc, Work | None]:
        proc = spawn([*CLI, *self.job.argv], "cli")
        return proc, self.verify(proc, "cli")


def median(values: list[float]) -> float:
    return statistics.median(values) if values else 0.0


def setup_wall() -> float:
    """Wall time of a process that imports equilines.cli and exits."""
    proc = spawn(["-c", "import equilines.cli"], "setup")
    if proc.code != 0:
        raise SystemExit(f"cannot import equilines.cli: {proc.stderr.strip()[-300:]}")
    return proc.wall_s


def import_times() -> dict[str, float]:
    """Cumulative import times of equilines.cli and numpy from -X importtime."""
    found = defaultdict(list)
    for _ in range(IMPORTTIME_REPEATS):
        proc = spawn(["-X", "importtime", "-c", "import equilines.cli"], "importtime")
        for line in proc.stderr.splitlines():
            parts = line.split("|")
            if len(parts) == 3 and parts[2].strip() in ("equilines.cli", "numpy"):
                found[parts[2].strip()].append(int(parts[1]) / 1e6)
    return {"cli.import_s": median(found["equilines.cli"]),
            "cli.import_numpy_s": median(found["numpy"])}


def layer_metrics(spans: list[dict], kind: str) -> dict[str, float]:
    """Per-layer metrics of one traced run from its spans."""
    by_id = {s["id"]: s for s in spans}
    dur = {s["id"]: (s["end"] - s["start"]) / 1e9 for s in spans}
    child_time: dict[int, float] = defaultdict(float)
    for s in spans:
        if s["parent"] is not None:
            child_time[s["parent"]] += dur[s["id"]]

    def named(name: str) -> list[dict]:
        return [s for s in spans if s["name"] == name]

    def total(name: str) -> float:
        return sum(dur[s["id"]] for s in named(name))

    def self_time(name: str) -> float:
        return sum(dur[s["id"]] - child_time[s["id"]] for s in named(name))

    def rate(count: float, seconds: float) -> float:
        return count / seconds if seconds else 0.0

    enumerations = named("geometry.enumerate_lines")
    by_request = defaultdict(list)
    for s in enumerations:
        by_request[s["request"]].append(s)
    # One pass enumerates each config (or base set) once; the program may
    # enumerate the same point set several times per request.
    one_pass = sum(statistics.mean(dur[s["id"]] for s in group) for group in by_request.values())

    def covered(s: dict) -> bool:
        layers = COVERING_LAYERS[kind]
        if s["name"].split(".")[0] not in layers:
            return False
        parent = s["parent"]
        while parent is not None:
            if by_id[parent]["name"].split(".")[0] in layers:
                return False
            parent = by_id[parent]["parent"]
        return True

    in_process = total("cli.run_cli")
    return {
        "reports.parse_config_s": total("reports.parse_config"),
        "reports.dump_json_s": total("reports.dump_json"),
        "reports.analysis_document_s": total("reports.analysis_document"),
        "reports.self_s": self_time("reports.analysis_document"),
        "geometry.enumerate_lines_s": one_pass,
        "geometry.pairs_per_s": rate(sum(comb(s["points"], 2) for s in enumerations),
                                     total("geometry.enumerate_lines")),
        "geometry.pairs": sum(comb(g[0]["points"], 2) for g in by_request.values()),
        "geometry.lines": sum(g[0]["lines"] for g in by_request.values()),
        "profiles.compute_profile_s": total("profiles.compute_profile"),
        "profiles.verify_identities_s": total("profiles.verify_identities"),
        "inequalities.evaluate_all_s": total("inequalities.evaluate_all"),
        "bounds.evaluate_all_bounds_s": total("bounds.evaluate_all_bounds"),
        "bounds.evaluate_bound_s": total("bounds.evaluate_bound"),
        "generators.generate_s": total("generators.generate"),
        "kernels.build_incidence_s": total("kernels.build_incidence"),
        "kernels.selection_table_s": total("kernels.selection_table"),
        "kernels.incidence_bytes": sum(s["bytes"] for s in named("kernels.build_incidence")),
        "kernels.exhaustive_scan_s": total("kernels.exhaustive_scan"),
        "kernels.colorings_per_s": rate(sum(s["colorings"] for s in named("kernels.exhaustive_scan")),
                                        total("kernels.exhaustive_scan")),
        "kernels.descent_replay_s": total("kernels.descent_replay"),
        "kernels.moves_per_s": rate(sum(s["moves"] for s in named("kernels.descent_replay")),
                                    total("kernels.descent_replay")),
        "search.run_search_s": total("search.run_search"),
        "search.self_s": self_time("search.run_search"),
        "trace.coverage_frac": rate(sum(dur[s["id"]] for s in spans if covered(s)), in_process),
    }


def traced_run(runner: Runner, kind: str, untraced: Proc) -> dict[str, float] | None:
    spans_path, report = WORK / "spans.jsonl", WORK / "traced.report"
    report.unlink(missing_ok=True)
    proc = spawn([str(HERE / "traced.py"), str(spans_path), str(report), *runner.job.argv],
                 "traced")
    proc.stdout = report.read_text(encoding="utf-8") if report.is_file() else ""
    if runner.verify(proc, "traced") is None:
        return None
    if proc.stdout != untraced.stdout:
        runner.failures.append("traced: report differs from the untraced one")
        return None
    with open(spans_path, encoding="utf-8") as f:
        spans = [json.loads(line) for line in f]
    metrics = layer_metrics(spans, kind)
    metrics["trace.overhead_frac"] = proc.wall_s / untraced.wall_s - 1
    metrics["cli.cpu_s"] = untraced.cpu_s
    return metrics


def prepare(workload: str, seed: int, tiny: bool) -> tuple[Job, dict]:
    """Probe the environment and make the workload's inputs; exits with an
    error when the checkout holds no runnable program."""
    if not (ROOT / "src" / "equilines" / "cli.py").is_file():
        raise SystemExit(f"error: no equilines source under {ROOT / 'src'}")
    WORK.mkdir(exist_ok=True)
    probe = spawn(["-c", ENV_PROBE], "env")
    if probe.code != 0:
        raise SystemExit(f"error: environment probe failed: {probe.stderr.strip()[-300:]}")
    job = make_job(workload, seed, tiny, WORK / workload, ROOT)
    if job.base_spec is not None:
        generated = spawn([*CLI, "generate", "--name", job.base_spec], "generate")
        if generated.code != 0:
            raise SystemExit(f"error: cannot generate {job.base_spec}: "
                             f"{generated.stderr.strip()[-300:]}")
        job.base_points = json.loads(generated.stdout)["points"]
    return job, json.loads(probe.stdout)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true", help="small inputs, for the smoke test")
    args = parser.parse_args()
    # On SIGTERM, unwind through spawn() so the running child is killed and reaped.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))

    job, environment = prepare(args.workload, args.seed, args.tiny)
    kind = args.workload.split("_")[0]
    runner = Runner(job, args.seed, args.tiny, environment["backend"])

    setup_wall()  # not counted: the first start may write bytecode caches
    setup: list[float] = []
    samples: list[dict] = []
    passes: list[dict[str, float]] = []
    work: Work | None = None
    start = time.perf_counter()
    while True:
        round_start = time.perf_counter()
        setup += [setup_wall() for _ in range(SETUP_PER_ROUND)]
        proc, checked = runner.cli_run()
        work = checked or work
        samples.append({"wall_s": proc.wall_s, "cpu_s": proc.cpu_s,
                        "peak_rss_mb": proc.peak_rss_mb, "ok": checked is not None})
        if args.trace:
            traced = traced_run(runner, kind, proc)
            if traced is not None:
                passes.append(traced)
        # Start another round only if one more like the last ends in time,
        # so a run measures for at most --seconds, however slow the program.
        now = time.perf_counter()
        if now - start + (now - round_start) > args.seconds:
            break

    good = [s for s in samples if s["ok"]] or samples
    wall = median([s["wall_s"] for s in good])
    if work is None:
        work = Work(0, 0, 0)
    if args.trace:
        metrics = {name: median([p[name] for p in passes]) for name in passes[0]} if passes else {}
        metrics.update(import_times())
        units = PER_LAYER
    else:
        metrics = {
            "wall_s": wall,
            "setup_s": median(setup),
            "peak_rss_mb": median([s["peak_rss_mb"] for s in good]),
            "lines_per_s": work.lines / wall,
            "configs_per_s": work.configs / wall,
            "colorings_per_s": work.colorings / wall,
            "ok_frac": 1 - len(runner.failures) / runner.attempted,
        }
        units = END_TO_END
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "tiny": args.tiny,
        "launch": {"argv": [sys.executable, *CLI, *job.argv],
                   "env": {"PYTHONPATH": "src", "OPENBLAS_NUM_THREADS": "1"}},
        "environment": environment,
        "input_digest": job.input_digest,
        "report_digest": hashlib.sha256(proc.stdout.encode()).hexdigest(),
        "setup_s": setup,
        "samples": samples,
        "failures": runner.failures,
    }
    if args.trace:
        record["spans_file"] = str((WORK / "spans.jsonl").relative_to(ROOT))
    print(json.dumps({"record": record}))
    print(json.dumps({
        "correct": not runner.failures and len(metrics) == len(units),
        "attempted": runner.attempted,
        "failed": len(runner.failures),
        "metrics": {name: {"value": metrics.get(name, 0.0), "unit": unit}
                    for name, unit in units.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
