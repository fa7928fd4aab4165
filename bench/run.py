"""Layered benchmark of the hklab CLI (standard library only).

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Runs the hklab CLI on one workload (see workloads.py), each run in a fresh
interpreter with tracing off, for S seconds, and checks every run's
outputs against the pinned exact values.  The last stdout line is one
JSON object: {"correct", "attempted", "failed", "metrics"}, where
attempted and failed count checked outputs over all runs.  With
--trace 0 the metrics are the end-to-end ones; with --trace 1 one
more run under the span tracer gives the per-layer metrics.  Metric
names and units come from BENCHMARK.json; README.md defines them.
Exits 1 when an output is wrong or missing and 2 when the hklab sources
are not in the checkout.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import random
import shutil
import statistics
import subprocess
import sys
import tempfile
import time

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
sys.path.insert(0, BENCH_DIR)

from workloads import WORKLOADS  # noqa: E402

with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as _fh:
    _SPEC = json.load(_fh)
END_TO_END = [m["name"] for m in _SPEC["end_to_end"]]
PER_LAYER = [m["name"] for m in _SPEC["per_layer"]]
UNITS = {m["name"]: m["unit"] for m in _SPEC["end_to_end"] + _SPEC["per_layer"]}

RUNS_DIR = os.path.join(ROOT, ".bench_runs")
CHILD = os.path.join(BENCH_DIR, "child.py")
SETUP_PROBES = 8  # interpreter launches that only import hklab.cli
MIN_RUNS = 3
DEADLINE_S = 170  # no child runs past this many seconds of the invocation
# Single-run times on a shared host are bimodal (fast and slow host phases):
# a median jumps between the two modes, a mean follows the share of slow
# runs, so run metrics are means.  setup_s is the median of many launches.
AGGREGATE = {"setup_s": statistics.median}


def _git_hash() -> str:
    """HEAD of the checkout, read without starting git; "unknown" outside a repo."""
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD"), encoding="utf-8") as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[len("ref: "):]
        if os.path.isfile(os.path.join(git, ref)):
            with open(os.path.join(git, ref), encoding="utf-8") as fh:
                return fh.read().strip()
        with open(os.path.join(git, "packed-refs"), encoding="utf-8") as fh:
            for line in fh:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return "unknown"


class Bench:
    """Untraced and traced runs of one workload, with their output checks."""

    def __init__(self, workload, seed: int):
        self.workload = workload
        self.seed = seed
        self.config = workload.make_config(random.Random(seed))
        self.threads = len(os.sched_getaffinity(0))
        self.started = time.monotonic()
        self.env = dict(os.environ)
        self.env.pop("HKLAB_THREADS", None)  # --threads is passed explicitly instead
        self.env.pop("PYTHONPATH", None)
        self.env["PYTHONHASHSEED"] = "0"
        self.samples = {name: [] for name in END_TO_END}
        self.attempted = 0
        self.failed = 0
        self.problems = []

    def _launch(self, run_dir: str, tail: list):
        """Run child.py in `run_dir`; its result dict, or None if it failed."""
        result_path = os.path.join(run_dir, "result.json")
        timeout = max(1.0, DEADLINE_S - (time.monotonic() - self.started))
        cmd = [sys.executable, CHILD, repr(time.monotonic()), result_path, *tail]
        proc = subprocess.Popen(cmd, env=self.env, cwd=run_dir,
                                stdout=subprocess.DEVNULL, stderr=subprocess.PIPE)
        try:
            _, err = proc.communicate(timeout=timeout)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.communicate()
            print(f"# run killed after {timeout:.0f} s", flush=True)
            return None
        if proc.returncode != 0:
            print(f"# child exited {proc.returncode}: "
                  f"{err.decode(errors='replace')[-2000:]}", flush=True)
            return None
        try:
            with open(result_path, encoding="utf-8") as fh:
                return json.load(fh)
        except (OSError, ValueError):
            return None

    def setup_probe(self):
        run_dir = tempfile.mkdtemp(prefix="setup-", dir=RUNS_DIR)
        try:
            result = self._launch(run_dir, [])
        finally:
            shutil.rmtree(run_dir, ignore_errors=True)
        if result is not None:
            self.samples["setup_s"].append(result["setup_s"])

    def run(self, spans: bool = False):
        """One checked CLI run: (result or None, run_dir).  The caller
        removes run_dir."""
        run_dir = tempfile.mkdtemp(prefix="run-", dir=RUNS_DIR)
        config_path = os.path.join(run_dir, "config.json")
        with open(config_path, "w", encoding="utf-8") as fh:
            json.dump(self.config, fh, indent=1)
        tail = ["--spans", os.path.join(run_dir, "spans.json")] if spans else []
        tail += ["--", self.workload.subcommand, config_path,
                 "-o", os.path.join(run_dir, "out"),
                 "--threads", str(self.threads), *self.workload.flags]
        result = self._launch(run_dir, tail)
        outputs = self.workload.check(self.config, os.path.join(run_dir, "out"))
        self.attempted += len(outputs)
        if result is None or result["exit_code"] != 0:
            self.failed += len(outputs)  # a failed run fails every output
            self.problems.append(f"run failed: {result}")
            return None, run_dir
        bad = [name for name, ok in outputs if not ok]
        self.failed += len(bad)
        self.problems += bad
        return result, run_dir

    def sample(self, seconds: float):
        """Untraced runs while another one fits in `seconds` (at least MIN_RUNS)."""
        t0 = time.monotonic()
        walls = self.samples["wall_s"]
        while len(walls) < MIN_RUNS or \
                time.monotonic() - t0 + statistics.median(walls) < seconds:
            if time.monotonic() - self.started > DEADLINE_S:
                return
            result, run_dir = self.run()
            shutil.rmtree(run_dir, ignore_errors=True)
            if result is None:
                return
            for name, values in self.samples.items():
                values.append(result[name])

    def end_to_end(self) -> dict:
        return {name: AGGREGATE.get(name, statistics.fmean)(self.samples[name])
                for name in END_TO_END}

    def per_layer(self) -> dict:
        """Metrics of one traced run, the micro-benchmarks and failed_frac."""
        from microbench import coeff_mul_us
        from tracer import summarize

        result, run_dir = self.run(spans=True)
        try:
            if result is None:
                return {}
            with open(os.path.join(run_dir, "spans.json"), encoding="utf-8") as fh:
                metrics = summarize(json.load(fh))
            out_dir = os.path.join(run_dir, "out")
            sizes = [os.path.getsize(os.path.join(out_dir, f)) for f in os.listdir(out_dir)]
        finally:
            shutil.rmtree(run_dir, ignore_errors=True)
        metrics["cli.files_written"] = len(sizes)
        metrics["cli.bytes_written"] = sum(sizes)
        untraced = statistics.fmean(self.samples["wall_s"])
        metrics["trace.overhead_frac"] = (result["wall_s"] - untraced) / untraced
        metrics.update(coeff_mul_us(self.seed))
        metrics["failed_frac"] = self.failed / self.attempted
        return {name: metrics[name] for name in PER_LAYER}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(ROOT, "src", "hklab", "cli.py")):
        print(f"error: hklab sources not found under {os.path.join(ROOT, 'src')}",
              file=sys.stderr)
        return 2

    bench = Bench(WORKLOADS[args.workload], args.seed)
    print("# " + json.dumps({
        "workload": args.workload,
        "seed": args.seed,
        "git": _git_hash(),
        "python": platform.python_version(),
        "nproc": bench.threads,
        "cli_threads": bench.threads,
        "HKLAB_THREADS": "cleared",
        "loadavg": os.getloadavg(),
    }), flush=True)
    os.makedirs(RUNS_DIR, exist_ok=True)
    try:
        bench.setup_probe()  # warm-up: bytecode caches, page cache
        bench.samples["setup_s"].clear()
        for _ in range(SETUP_PROBES):
            bench.setup_probe()
        bench.sample(args.seconds)
        metrics = {}
        if bench.samples["wall_s"]:
            metrics = bench.per_layer() if args.trace else bench.end_to_end()
    finally:
        shutil.rmtree(RUNS_DIR, ignore_errors=True)

    print("# " + json.dumps({
        "runs": len(bench.samples["wall_s"]),
        "setup_samples": len(bench.samples["setup_s"]),
        "wall_s_per_run": [round(v, 3) for v in bench.samples["wall_s"]],
        "cpu_s_per_run": [round(v, 3) for v in bench.samples["cpu_s"]],
        "elapsed_s": round(time.monotonic() - bench.started, 3),
        "loadavg": os.getloadavg(),
        "problems": bench.problems[:20],
    }), flush=True)
    correct = bench.failed == 0 and bench.attempted > 0 and bool(metrics)
    print(json.dumps({
        "correct": correct,
        "attempted": bench.attempted,
        "failed": bench.failed,
        "metrics": {name: {"value": value, "unit": UNITS[name]}
                    for name, value in metrics.items()},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
