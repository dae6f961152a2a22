"""latreg benchmark: one workload per process, one thread, a closed
loop with a single client (each job starts when the previous one ends).

    python3 perfbench/run.py --workload points --seed 1 --seconds 25 --trace 0
    python3 perfbench/run.py --write-manifest

A run builds the workload's jobs from the seed, then makes passes over the
job list until the next pass would end after --seconds.  Each job is timed
alone; its answer is checked against a reference before the time counts,
and the checking time is left out.  A job that runs past the workload's cap
is stopped and counted as failed, with the cap's time counted.

With --trace 0 the run reports the end-to-end metrics; set-up time is the
median over fresh processes that each import latreg and build the inputs.
With --trace 1 it alternates untraced and traced passes and reports the
per-layer metrics: self time and counts of the public functions each layer
exposes, and the tracing overhead.  Every metric is printed by name with its
unit, every job with its status, and the last line of standard output is
one JSON object.  A record of the run, with the spans of a traced run, is
written under .bench_out/ at the root of the checkout.

--write-manifest writes BENCHMARK.json and perfbench/layers.json from the
tables below.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import signal
import statistics
import subprocess
import sys
import time

from oracles import OracleError
from spans import COUNTS, JOB_SPAN, LAYER_TIMES, Tracer, per_layer_metrics

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(ROOT, ".bench_out")

RUN_SECONDS = 30
SETUP_SAMPLES = 5

# name -> (unit, better, bound).  On the 2-core machine these were tuned on,
# the whole host switches between speed regimes ~1.5x apart that last tens of
# seconds (the reference loop shows them), so time bounds sit at the maximum.
END_TO_END = {
    "wall_s": ("s", "lower", 0.25),
    "job_p50_s": ("s", "lower", 0.25),
    "job_p90_s": ("s", "lower", 0.25),
    "setup_s": ("s", "lower", 0.25),
    "peak_rss_mb": ("MB", "lower", 0.1),
    "failed_frac": ("ratio", "lower", 0.1),
}

# layer metric -> (end-to-end metrics it should move, workload that exercises
# it with its share of a traced pass, workload that bypasses it).  Shares are
# self time over traced pass time, capped rungs included, from one 30 s traced
# run per workload (seed 5) on a 2-core Xeon at 2.1 GHz.
LAYER_MAP = {
    "binomial_gb.lattice_ideal_s": (["wall_s", "job_p90_s"], "lattice_ideals (95%)", "points"),
    "binomial_gb.buchberger_s": (
        ["wall_s", "job_p50_s"], "graph_colon (66%), lattice_ideals (2%)", "points"
    ),
    "binomial_gb.vanish_elim_s": (["wall_s", "job_p90_s"], "vanish_ideal (90%)", "points"),
    "ffvanish.rank_s": (["wall_s", "job_p90_s", "peak_rss_mb"], "points (66%)", "lattice_ideals"),
    "ffvanish.enumerate_s": (["wall_s"], "points (31%)", "lattice_ideals"),
    "hilbert.monomial_s": (["wall_s"], "graph_colon (30%)", "points"),
    "hilbert.bridge_s": (["wall_s"], "lattice_ideals (0.2%)", "points"),
    "intlat.kernel_s": (["job_p50_s"], "lattice_ideals (0.9%)", "vanish_ideal"),
    "intlat.homogenize_s": (["job_p50_s"], "lattice_ideals (0.3%)", "vanish_ideal"),
    # self time only: the Groebner, Hilbert and toric calls it makes are
    # their own spans
    "graphblocks.colon_s": (["wall_s"], "graph_colon (0.2%)", "lattice_ideals"),
    "graphblocks.blocks_s": (["wall_s"], "points (<0.1%)", "lattice_ideals"),
}


def per_layer_spec():
    spec = {name: ("s", "lower") for name in LAYER_TIMES}
    spec.update(COUNTS)
    return spec


def write_manifest():
    from workloads import WHY

    if sorted(LAYER_MAP) != LAYER_TIMES:
        raise SystemExit("LAYER_MAP must describe exactly the traced layers")

    manifest = {
        "command": ["python3", "perfbench/run.py"],
        "paths": ["perfbench"],
        "run_seconds": RUN_SECONDS,
        "workloads": [{"name": n, "why": why} for n, why in WHY.items()],
        "end_to_end": [
            {"name": n, "unit": u, "better": b, "bound": bound}
            for n, (u, b, bound) in END_TO_END.items()
        ],
        "per_layer": [
            {"name": n, "unit": u, "better": b} for n, (u, b) in per_layer_spec().items()
        ],
    }
    with open(os.path.join(ROOT, "BENCHMARK.json"), "w") as fh:
        json.dump(manifest, fh, indent=2)
        fh.write("\n")
    layers = {
        n: {"moves": moves, "exercised_by": by, "bypassed_by": bypass}
        for n, (moves, by, bypass) in LAYER_MAP.items()
    }
    with open(os.path.join(HERE, "layers.json"), "w") as fh:
        json.dump(layers, fh, indent=2)
        fh.write("\n")


# ---------------------------------------------------------------------------
# timing


class CapExceeded(Exception):
    pass


class Cap:
    """A per-job wall-clock cap delivered by SIGALRM into the main thread."""

    def __init__(self):
        self.armed = False
        signal.signal(signal.SIGALRM, self._fire)

    def _fire(self, signum, frame):
        if self.armed:
            self.armed = False
            raise CapExceeded()

    def start(self, seconds):
        self.armed = True
        signal.setitimer(signal.ITIMER_REAL, seconds)

    def stop(self):
        self.armed = False
        signal.setitimer(signal.ITIMER_REAL, 0)


def reference_loop():
    """Seconds for a fixed pure-Python loop: shows machine drift between runs."""
    t0 = time.perf_counter()
    acc = 0
    for i in range(1_000_000):
        acc = (acc + i * i) % 1_000_003
    return time.perf_counter() - t0


class Runner:
    def __init__(self, workload):
        self.w = workload
        self.cap = Cap()
        self.verdicts: dict = {}
        self.samples: list[tuple[str, float, str]] = []  # (job, seconds, status)

    def verdict(self, job, answer):
        key = (job.name, answer)
        if key not in self.verdicts:
            try:
                problem = job.verify(answer)
                self.verdicts[key] = "ok" if problem is None else f"wrong: {problem}"
            except OracleError as e:
                self.verdicts[key] = f"oracle error: {e}"
            except Exception as e:  # an unreadable answer is a wrong answer
                self.verdicts[key] = f"wrong: {type(e).__name__}: {e}"
        return self.verdicts[key]

    def run_pass(self, tracer=None):
        """Seconds of job time in one pass over the job list."""
        wall = 0.0
        for job in self.w.jobs:
            if tracer is not None:
                tracer.begin_job(job.name)
            t0 = time.perf_counter()
            try:
                self.cap.start(self.w.cap)
                try:
                    answer, status = job.run(), None
                finally:
                    self.cap.stop()
            except CapExceeded:
                status = "capped"
            except Exception as e:  # the run goes on; the job counts as failed
                status = f"error: {type(e).__name__}: {e}"
            dt = time.perf_counter() - t0
            if tracer is not None:
                tracer.end_job()
            if status is None:
                status = self.verdict(job, answer)
            self.samples.append((job.name, dt, status))
            wall += dt
        return wall

    def failed(self):
        return sum(1 for _, _, st in self.samples if st != "ok")

    def expected_failure(self, name, status):
        if name == self.w.stretch:
            return status == "capped"
        return name in self.w.known_wrong and status.startswith("wrong")


def percentile(values, pct):
    """Nearest-rank percentile."""
    values = sorted(values)
    k = max(0, -(-len(values) * pct // 100) - 1)
    return values[int(k)]


def measure_setup(workload, seed):
    """Seconds from process start until a fresh process has imported latreg
    and built the workload's inputs; median of SETUP_SAMPLES processes."""
    samples = []
    for _ in range(SETUP_SAMPLES):
        t0 = time.perf_counter()
        proc = subprocess.Popen(
            [sys.executable, os.path.abspath(__file__), "--workload", workload,
             "--seed", str(seed), "--setup-only"],
            stdout=subprocess.PIPE, text=True,
        )
        try:
            line = proc.stdout.readline()
            samples.append(time.perf_counter() - t0)
            proc.stdout.read()
        finally:
            proc.stdout.close()
            code = proc.wait(timeout=60)
        if line.strip() != "ready" or code != 0:
            raise RuntimeError(f"set-up process failed with exit code {code}")
    return statistics.median(samples)


def run_plain(runner, seconds, seed, record):
    """End-to-end metrics from untraced passes."""
    setup_s = measure_setup(runner.w.name, seed)
    start = time.perf_counter()
    walls = []
    while True:
        walls.append(runner.run_pass())
        if time.perf_counter() - start + walls[-1] > seconds:
            break
    times = [dt for _, dt, _ in runner.samples]
    p90 = percentile(times, 90)
    record["pass_walls_s"] = walls
    record["samples_beyond_p90"] = sum(1 for t in times if t > p90)
    return {
        "wall_s": (statistics.median(walls), "s"),
        "job_p50_s": (statistics.median(times), "s"),
        "job_p90_s": (p90, "s"),
        "setup_s": (setup_s, "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
        "failed_frac": (runner.failed() / len(times), "ratio"),
    }


def run_traced(runner, seconds, record):
    """Per-layer metrics from traced passes, each after an untraced one."""
    tracer = Tracer()
    plain, traced, self_times, counts = [], [], [], []
    start = time.perf_counter()
    while True:
        t0 = time.perf_counter()
        plain.append(runner.run_pass())
        first = len(tracer.spans)
        tracer.counts = {}
        tracer.install()
        try:
            traced.append(runner.run_pass(tracer))
        finally:
            tracer.uninstall()
        self_times.append(tracer.self_times(first))
        counts.append(tracer.counts)
        if time.perf_counter() - start + (time.perf_counter() - t0) > seconds:
            break
    record["plain_walls_s"] = plain
    record["traced_walls_s"] = traced
    record["job_self_s"] = statistics.median(t.get(JOB_SPAN, 0.0) for t in self_times)
    record["spans"] = tracer.dump()
    return per_layer_metrics(self_times, counts, traced, plain)


# ---------------------------------------------------------------------------


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload")
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=RUN_SECONDS)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    ap.add_argument("--write-manifest", action="store_true")
    args = ap.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "latreg", "__init__.py")):
        print(f"latreg sources not found under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    import workloads

    if args.write_manifest:
        write_manifest()
        return 0
    if args.workload not in workloads.WORKLOADS:
        ap.error(f"--workload must be one of {', '.join(workloads.WORKLOADS)}")

    w = workloads.build(args.workload, args.seed, os.path.join(OUT, "graphs"))
    if args.setup_only:
        print("ready", flush=True)
        return 0

    ref = [reference_loop() for _ in range(3)]
    runner = Runner(w)
    record = {"workload": w.name, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "cap_s": w.cap}
    if args.trace == 0:
        metrics = run_plain(runner, args.seconds, args.seed, record)
    else:
        metrics = run_traced(runner, args.seconds, record)
    ref += [reference_loop() for _ in range(3)]
    record["reference_loop_s"] = ref

    # -- report
    jobs: dict[str, list] = {}
    for name, dt, st in runner.samples:
        jobs.setdefault(name, []).append((dt, st))
    unexpected = []
    print(f"workload {w.name} seed {args.seed} trace {args.trace}: "
          f"{len(jobs)} jobs, cap {w.cap} s, stretch rung {w.stretch!r}")
    for name in sorted(jobs):
        runs = jobs[name]
        statuses = sorted({st for _, st in runs})
        med = statistics.median(dt for dt, _ in runs)
        label = "; ".join(statuses)
        if any(st != "ok" for st in statuses):
            if all(runner.expected_failure(name, st) for st in statuses):
                label = ("KNOWN-WRONG " if name in w.known_wrong else "STRETCH ") + label
            else:
                label = "FAILED " + label
                unexpected.append(name)
        print(f"job {name}: {label} ({len(runs)} runs, median {med:.6f} s)")
    if args.trace == 0:
        print(f"samples {len(runner.samples)}, beyond p90 {record['samples_beyond_p90']}, "
              f"passes {len(record['pass_walls_s'])}")
    else:
        top = max(LAYER_MAP, key=lambda n: metrics[n][0])
        print(f"largest layer self time: {top}; unattributed job self time "
              f"{record['job_self_s']:.6f} s per pass")
    print(f"reference loop {statistics.median(ref):.6f} s")
    for name, (value, unit) in metrics.items():
        print(f"metric {name} = {value:.6g} {unit}")

    record["jobs"] = {n: [[dt, st] for dt, st in runs] for n, runs in jobs.items()}
    record["metrics"] = metrics
    os.makedirs(OUT, exist_ok=True)
    path = os.path.join(OUT, f"{w.name}-seed{args.seed}-trace{args.trace}.json")
    with open(path, "w") as fh:
        json.dump(record, fh)

    print(json.dumps({
        "correct": not unexpected,
        "attempted": len(runner.samples),
        "failed": runner.failed(),
        "metrics": {n: {"value": v, "unit": u} for n, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
