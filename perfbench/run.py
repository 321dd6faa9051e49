#!/usr/bin/env python3
"""hetsched benchmark: one command, three workloads, every metric by name.

Run from the root of a hetsched checkout:

    python3 perfbench/run.py --workload stream_contended --seed 1 \
        --seconds 20 --trace 0

The first run builds the CLI and the traced probe from source into
.bench_build/perfbench (perfbench/CMakeLists.txt); later runs reuse it.

--trace 0 measures the product surface: every run is a fresh
`hetsched_cli` child process (closed loop, one client, runs back to
back), timed from outside, its peak RSS taken from the child's own wait4
rusage. Set-up runs (the same command at the minimum job count) and full
runs alternate for --seconds. Prints the end-to-end metrics: medians over
the window, except set-up, which is the window's fastest set-up run.

--trace 1 runs the traced probe (perfbench/probe.cpp), which drives the
same work through the library with a timer on every layer boundary, and
prints the per-layer metrics plus trace_overhead (traced / untraced wall).

Every run is checked: exit 0, completed jobs == offered jobs, zero
invariant violations, and the CLI's digest and simulated energy equal to
the untraced library reference run for the same seed. On the default seed
(42) paper_quad must also reproduce the committed fig6/fig7 CSVs. A run
that fails a check counts in `failed`.

The last stdout line is one JSON object:
{"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}.
See perfbench/README.md for why each workload and metric exists.
"""

import argparse
import csv
import json
import os
import random
import re
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_DIR = os.path.join(ROOT, ".bench_build", "perfbench")
CLI = os.path.join(BUILD_DIR, "tools", "hetsched_cli")
PROBE = os.path.join(BUILD_DIR, "hetsched_probe")

CHILD_TIMEOUT_S = 150
# Samples of each kind a run takes even when --seconds is already spent.
MIN_SAMPLES = 3
PAPER_ENERGY_VS_BASE = 0.71  # paper: proposed -29% total energy vs base
DEFAULT_SEED = 42

_current_child = None


class BenchError(Exception):
    """Set-up failure: the benchmark prints no result and exits non-zero."""


# ---------------------------------------------------------------------------
# Child processes


class Child:
    def __init__(self, wall, rss_mib, code, output):
        self.wall = wall
        self.rss_mib = rss_mib
        self.code = code
        self.output = output


def run_child(argv):
    """Runs one child to completion; wall clock and rusage are its own."""
    global _current_child
    start = time.perf_counter()
    proc = subprocess.Popen(argv, stdout=subprocess.PIPE,
                            stderr=subprocess.STDOUT, cwd=ROOT)
    _current_child = proc
    timer = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
    timer.daemon = True
    timer.start()
    try:
        output = proc.stdout.read()
    finally:
        timer.cancel()
        _, status, usage = os.wait4(proc.pid, 0)
        proc.stdout.close()
        proc.returncode = os.waitstatus_to_exitcode(status)
        _current_child = None
    wall = time.perf_counter() - start
    return Child(wall, usage.ru_maxrss / 1024.0, proc.returncode,
                 output.decode(errors="replace"))


def _terminate(signum, frame):
    # run_child's finally reaps the killed child before the exit unwinds.
    if _current_child is not None:
        _current_child.kill()
    sys.exit(128 + signum)


# ---------------------------------------------------------------------------
# Build


def build():
    if not (os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")) and
            os.path.isfile(os.path.join(ROOT, "tools", "hetsched_cli.cpp"))):
        raise BenchError("hetsched sources not found next to perfbench/ "
                         "(run from the root of a hetsched checkout)")
    os.makedirs(BUILD_DIR, exist_ok=True)
    log_path = os.path.join(BUILD_DIR, "build.log")
    steps = []
    if not os.path.isfile(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", BUILD_DIR,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", BUILD_DIR, "-j",
                  str(os.cpu_count() or 2), "--target", "hetsched_cli",
                  "hetsched_probe"])
    with open(log_path, "w") as log:
        for step in steps:
            if subprocess.call(step, stdout=log, stderr=subprocess.STDOUT,
                               cwd=ROOT) != 0:
                with open(log_path) as failed:
                    tail = failed.read()[-3000:]
                raise BenchError("build failed:\n" + tail)


# ---------------------------------------------------------------------------
# Workloads


def last_json(text):
    for line in reversed(text.strip().splitlines()):
        line = line.strip()
        if line.startswith("{"):
            return json.loads(line)
    raise ValueError("no JSON object in output")


def mj2(nanojoules):
    """The CLI's 2-decimal millijoule rendering of an energy."""
    return "%.2f" % (nanojoules * 1e-6)


class PaperQuad:
    """`compare` on the paper quad-core: set-up (characterisation + the
    30-net bagged ANN on the pool) is nearly all of the wall time."""

    name = "paper_quad"
    systems = ("base", "optimal", "energy-centric", "proposed")
    stream = False
    outputs = False
    # Pool threads for characterisation, training and the four-system
    # fan-out. 4 (nproc on the reference box) halves the run against 2,
    # so a window holds twice the samples, and its run-to-run spread was
    # the lowest of 1, 2 and 4.
    threads = min(4, os.cpu_count() or 1)

    def __init__(self, seed, work, smoke):
        self.seed = seed
        self.arrivals = 50 if smoke else 5000
        self.work = work

    def simulated_jobs(self):
        return self.arrivals * len(self.systems)

    def full_cmd(self):
        return [CLI, "compare", "--seed", str(self.seed), "--threads",
                str(self.threads), "--arrivals", str(self.arrivals)]

    def setup_cmd(self):
        return [CLI, "compare", "--seed", str(self.seed), "--threads",
                str(self.threads), "--arrivals", "1"]

    def probe_cmd(self, mode):
        cmd = [PROBE, "paper_quad", "--seed", str(self.seed), "--threads",
               str(self.threads), "--mode", mode]
        if self.arrivals != 5000:
            cmd += ["--arrivals", str(self.arrivals)]
        return cmd

    def normalized(self, ref, system, against):
        s, b = ref["systems"][system], ref["systems"][against]
        return {
            "idle": s["idle_energy_nj"] / b["idle_energy_nj"],
            "dynamic": s["dynamic_energy_nj"] / b["dynamic_energy_nj"],
            "total": s["total_energy_nj"] / b["total_energy_nj"],
            "cycles": s["execution_cycles"] / b["execution_cycles"],
            "makespan": s["makespan"] / b["makespan"],
        }

    def check_reference(self, ref):
        errors = []
        for system in self.systems:
            result = ref["systems"][system]
            if result["completed_jobs"] != self.arrivals:
                errors.append("%s completed %d of %d jobs" % (
                    system, result["completed_jobs"], self.arrivals))
        if self.seed == DEFAULT_SEED and self.arrivals == 5000:
            errors += self.check_figures(ref)
        return errors

    def check_figures(self, ref):
        """The committed figure CSVs are this exact run at seed 42."""
        errors = []
        for path, against, columns in (
                ("fig6_energy_vs_base.csv", "base",
                 ("idle", "dynamic", "total")),
                ("fig7_vs_optimal.csv", "optimal",
                 ("cycles", "idle", "dynamic", "total", "makespan"))):
            with open(os.path.join(ROOT, path)) as f:
                rows = list(csv.DictReader(f))
            for row in rows:
                system = row.get("system") or row.get("System")
                got = self.normalized(ref, system, against)
                for column in columns:
                    want = float(row[column])
                    if abs(got[column] - want) > 5e-5:
                        errors.append("%s %s %s: %.6f, committed %s" % (
                            path, system, column, got[column], row[column]))
        return errors

    def check_cli(self, child, ref, setup):
        if child.code != 0:
            return ["exit code %d" % child.code]
        arrivals = 1 if setup else self.arrivals
        if "(%d arrivals, seed %d)" % (arrivals, self.seed) not in \
                child.output:
            return ["compare header missing"]
        if setup:
            return []
        errors = []
        for system in self.systems:
            match = re.search(r"\|\s*%s\s*\|\s*([\d.]+)\s*\|\s*([\d.]+)\s*\|"
                              r"\s*([\d.]+)\s*\|\s*([\d.]+)\s*\|"
                              % re.escape(system), child.output)
            if not match:
                errors.append("no compare row for " + system)
                continue
            want = self.normalized(ref, system, "base")
            got = match.groups()
            for value, column in zip(got, ("idle", "dynamic", "total",
                                           "cycles")):
                if value != "%.2f" % want[column]:
                    errors.append("%s %s: CLI %s, library %.4f" % (
                        system, column, value, want[column]))
        return errors

    def simulated(self, ref):
        proposed = ref["systems"]["proposed"]
        jobs = proposed["completed_jobs"]
        return {
            "energy_per_job_uj": proposed["total_energy_nj"] / jobs / 1e3,
            "exec_cycles_per_job": proposed["execution_cycles"] / jobs,
            "energy_vs_base": proposed["total_energy_nj"] /
            ref["systems"]["base"]["total_energy_nj"],
        }

    def check_traced(self, traced, ref):
        errors = []
        for system in self.systems:
            if traced["systems"][system]["serialized"] != \
                    ref["systems"][system]["serialized"]:
                errors.append("traced %s result differs from the "
                              "untraced run" % system)
        return errors


class ScenarioWorkload:
    """A `.scn` file generated from the seed, run by `hetsched_cli
    scenario --file`."""

    stream = True
    outputs = False
    # The simulation is single-threaded; the pool only runs the light
    # set-up (about 70 ms at 4 threads). That short a pool job is bimodal
    # on a shared host: parallel, or effectively serial when the workers
    # are not scheduled in time. On one thread set-up no longer depends
    # on worker scheduling.
    threads = 1

    def __init__(self, seed, work, smoke):
        self.seed = seed
        self.work = work
        self.jobs = self.smoke_jobs if smoke else self.full_jobs
        self.full_scn = os.path.join(work, self.name + ".scn")
        self.setup_scn = os.path.join(work, self.name + ".setup.scn")
        with open(self.full_scn, "w") as f:
            f.write(self.scenario(self.jobs))
        with open(self.setup_scn, "w") as f:
            f.write(self.scenario(self.setup_jobs))

    def header(self, jobs):
        return "\n".join([
            "name " + self.name.replace("_", "-"),
            "system scaled",
            "cores 16",
            "policy " + self.policy,
            "discipline fifo",
            "seed %d" % self.seed,
            "jobs %d" % jobs,
            "mean-gap %d" % self.mean_gap,
            "distribution uniform",
            "burstiness 1",
            "phase-switch 0",
            "kernel-scale 0.25",
            "variants-per-kernel 1",
            "extended-suite 0",
            "ensemble 5",
        ]) + "\n"

    def simulated_jobs(self):
        return self.jobs

    def output_flags(self, tag):
        if not self.outputs:
            return []
        base = os.path.join(self.work, tag)
        return ["--windows-out", base + ".windows.jsonl",
                "--report-out", base + ".report.json",
                "--metrics-out", base + ".metrics.json"]

    def full_cmd(self):
        return [CLI, "scenario", "--file", self.full_scn, "--threads",
                str(self.threads)] + self.output_flags("cli")

    def setup_cmd(self):
        return [CLI, "scenario", "--file", self.setup_scn, "--threads",
                str(self.threads)] + self.output_flags("cli-setup")

    def probe_cmd(self, mode):
        cmd = [PROBE, "scenario", "--file", self.full_scn, "--threads",
               str(self.threads), "--mode", mode]
        if mode == "traced" and self.outputs:
            probe_dir = os.path.join(self.work, "probe")
            os.makedirs(probe_dir, exist_ok=True)
            cmd += ["--out-dir", probe_dir]
        return cmd

    def check_reference(self, ref):
        errors = []
        for key in ("result", "base"):
            result = ref[key]
            if result["completed_jobs"] != self.jobs:
                errors.append("%s completed %d of %d jobs" % (
                    key, result["completed_jobs"], self.jobs))
            if result["invariant_violations"] != 0:
                errors.append("%s has %d invariant violations" % (
                    key, result["invariant_violations"]))
        return errors

    def check_cli(self, child, ref, setup):
        if child.code != 0:
            return ["exit code %d" % child.code]
        jobs = self.setup_jobs if setup else self.jobs
        errors = []
        completed = re.search(r"\|\s*completed jobs\s*\|\s*(\d+)\s*\|",
                              child.output)
        if not completed or int(completed.group(1)) != jobs:
            errors.append("completed jobs != %d offered" % jobs)
        stream = re.search(r"stream: \d+ slices, digest 0x([0-9a-f]+), "
                           r"(\d+) invariant violations", child.output)
        if not stream:
            return errors + ["no stream digest line"]
        if int(stream.group(2)) != 0:
            errors.append("%s invariant violations" % stream.group(2))
        if self.outputs:
            tag = "cli-setup" if setup else "cli"
            for flag_path in self.output_flags(tag)[1::2]:
                if not os.path.isfile(flag_path) or \
                        os.path.getsize(flag_path) == 0:
                    errors.append("missing output " +
                                  os.path.basename(flag_path))
        if setup:
            return errors
        if stream.group(1) != ref["result"]["digest"]:
            errors.append("digest 0x%s, library 0x%s" % (
                stream.group(1), ref["result"]["digest"]))
        energy = re.search(r"\|\s*total energy\s*\|\s*([\d.]+) mJ",
                           child.output)
        want = mj2(ref["result"]["total_energy_nj"])
        if not energy or energy.group(1) != want:
            errors.append("total energy %s mJ, library %s mJ" % (
                energy.group(1) if energy else "?", want))
        return errors

    def simulated(self, ref):
        result = ref["result"]
        jobs = result["completed_jobs"]
        return {
            "energy_per_job_uj": result["total_energy_nj"] / jobs / 1e3,
            "exec_cycles_per_job": result["execution_cycles"] / jobs,
            "energy_vs_base": result["total_energy_nj"] /
            ref["base"]["total_energy_nj"],
        }

    def check_traced(self, traced, ref):
        errors = []
        for key in ("serialized", "digest"):
            if traced["result"][key] != ref["result"][key]:
                errors.append("traced %s differs from the untraced run"
                              % key)
        return errors

    def check_windows(self):
        """The traced run's windows JSONL against the last CLI run's."""
        with open(os.path.join(self.work, "probe", "windows.jsonl"),
                  "rb") as f:
            probe_windows = f.read()
        with open(os.path.join(self.work, "cli.windows.jsonl"), "rb") as f:
            cli_windows = f.read()
        if probe_windows != cli_windows:
            return ["traced windows JSONL differs from the CLI's"]
        return []


class StreamContended(ScenarioWorkload):
    """16 cores under `proposed`, uniform arrivals just below saturation:
    the engine and the stall branch of the decision equation dominate."""

    name = "stream_contended"
    policy = "proposed"
    mean_gap = 1500
    full_jobs = 1000000
    smoke_jobs = 2000
    setup_jobs = 1

    def scenario(self, jobs):
        return self.header(jobs)


class DagTelemetry(ScenarioWorkload):
    """Seed-generated independent fork-join diamonds under a portfolio
    policy, with every telemetry output requested."""

    name = "dag_telemetry"
    policy = "portfolio:proposed+energy-greedy+sjf"
    mean_gap = 3000
    full_jobs = 300000
    smoke_jobs = 400
    setup_jobs = 4  # one diamond: the smallest graph with a release
    outputs = True

    def scenario(self, jobs):
        rng = random.Random(self.seed)
        lines = []
        node = 0
        while node + 4 <= jobs:
            width = rng.randint(2, min(4, jobs - node - 2))
            source, sink = node, node + width + 1
            for middle in range(node + 1, sink):
                lines.append("dep %d %d" % (source, middle))
                lines.append("dep %d %d" % (middle, sink))
            node = sink + 1
        return self.header(jobs) + "\n".join(lines) + "\n"


WORKLOADS = {w.name: w for w in (PaperQuad, StreamContended, DagTelemetry)}


def metric_units():
    """(end-to-end, per-layer) name -> unit maps, in BENCHMARK.json order."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    return ({m["name"]: m["unit"] for m in spec["end_to_end"]},
            {m["name"]: m["unit"] for m in spec["per_layer"]})


# ---------------------------------------------------------------------------
# Measurement


class Tally:
    def __init__(self):
        self.attempted = 0
        self.failures = []

    def record(self, what, errors):
        self.attempted += 1
        if errors:
            self.failures.append("%s: %s" % (what, "; ".join(errors)))


class Figure:
    """One reported metric: the median of its samples, or their minimum
    when `stat` is "fastest", with quartiles, minimum and count for the
    table."""

    def __init__(self, samples, stat="median", n=None):
        self.n = len(samples) if n is None else n
        self.median = statistics.median(samples)
        self.min = min(samples)
        if len(samples) >= 2:
            q = statistics.quantiles(samples, n=4)
            self.p25, self.p75 = q[0], q[2]
        else:
            self.p25 = self.p75 = samples[0]
        self.stat = stat
        self.value = self.min if stat == "fastest" else self.median


def reference(workload, tally, inject_mismatch):
    child = run_child(workload.probe_cmd("reference"))
    if child.code != 0:
        raise BenchError("reference library run failed:\n" +
                         child.output[-2000:])
    try:
        ref = last_json(child.output)
    except ValueError as e:
        raise BenchError("reference library run: %s" % e)
    tally.record("reference", workload.check_reference(ref))
    if inject_mismatch:
        # Self-test hook: a reference that cannot match, so every checked
        # run must be counted as failed.
        if "result" in ref:
            ref["result"]["digest"] = "0"
            ref["result"]["serialized"] = "mismatch"
        for result in ref.get("systems", {}).values():
            result["serialized"] = "mismatch"
        if "systems" in ref:
            ref["systems"]["proposed"]["idle_energy_nj"] *= 3.0
    return ref


def timed_loop(seconds, steps):
    """Runs the steps round-robin for `seconds`, each at least MIN_SAMPLES
    times."""
    deadline = time.perf_counter() + seconds
    rounds = 0
    while rounds < MIN_SAMPLES or time.perf_counter() < deadline:
        for step in steps:
            step()
        rounds += 1


def measure_end_to_end(workload, ref, seconds, tally):
    walls, setups, rss = [], [], []

    def full():
        child = run_child(workload.full_cmd())
        tally.record("full run", workload.check_cli(child, ref, False))
        walls.append(child.wall)
        rss.append(child.rss_mib)

    def setup():
        child = run_child(workload.setup_cmd())
        tally.record("setup run", workload.check_cli(child, ref, True))
        setups.append(child.wall)

    timed_loop(seconds, (setup, full))
    # Set-up is the fastest set-up run of the window. Set-up runs are
    # short (0.1-2 s), so each falls wholly inside one of the host's
    # fast or slow phases, and the window median flips between the two:
    # it drifted 21-56% between sets of ten runs. The window minimum
    # drifted 3-14% (26% in the noisiest set). Full runs are long enough
    # that their median was the steadier figure.
    stats = {"wall_s": Figure(walls),
             "setup_s": Figure(setups, "fastest"),
             "peak_rss_mib": Figure(rss)}
    # Run phase = wall_s - setup_s. paper_quad's run phase (20k simulated
    # jobs, milliseconds) is far below its set-up noise, so its
    # throughput is over the whole run; so is any run too small for the
    # difference to be positive.
    wall = stats["wall_s"].value
    run_phase = wall - stats["setup_s"].value
    if not workload.stream or run_phase <= 0:
        run_phase = wall
    stats["jobs_per_s"] = Figure([workload.simulated_jobs() / run_phase],
                                 "derived", n=len(walls))
    for name, value in workload.simulated(ref).items():
        stats[name] = Figure([value], "exact")
    return stats


def measure_per_layer(workload, ref, seconds, tally, units):
    samples = {name: [] for name in units}
    traced_walls, cli_walls = [], []

    def traced():
        child = run_child(workload.probe_cmd("traced"))
        if child.code != 0:
            tally.record("traced run", ["exit code %d" % child.code])
            return
        try:
            result = last_json(child.output)
        except ValueError as e:
            tally.record("traced run", [str(e)])
            return
        tally.record("traced run", workload.check_traced(result, ref))
        traced_walls.append(result["workload_wall_s"])
        for name, value in result["layers"].items():
            if name in samples:
                samples[name].append(value)

    def untraced():
        child = run_child(workload.full_cmd())
        errors = workload.check_cli(child, ref, False)
        if not errors and traced_walls and workload.outputs:
            errors = workload.check_windows()
        tally.record("full run", errors)
        cli_walls.append(child.wall)

    timed_loop(seconds, (traced, untraced))
    if traced_walls and cli_walls:
        samples["trace_overhead"] = [statistics.median(traced_walls) /
                                     statistics.median(cli_walls)]
    stats = {name: Figure(values) for name, values in samples.items()
             if values}
    if "trace_overhead" in stats:
        stats["trace_overhead"].stat = "medians"
    return stats


# ---------------------------------------------------------------------------
# Output


def print_report(workload, trace, stats, units, tally):
    print("hetsched benchmark: workload %s, seed %d, %s, --threads %d"
          % (workload.name, workload.seed,
             "traced per-layer" if trace else "end-to-end",
             workload.threads))
    print("%-34s %12s %7s %7s %12s %12s %12s %4s" % (
        "metric", "value", "unit", "stat", "p25", "p75", "min", "n"))
    for name, unit in units.items():
        f = stats[name]
        line = "%-34s %12.6g %7s %7s %12.6g %12.6g %12.6g %4d" % (
            name, f.value, unit, f.stat, f.p25, f.p75, f.min, f.n)
        if name == "energy_vs_base" and workload.name == "paper_quad":
            line += "   (paper: %.2f)" % PAPER_ENERGY_VS_BASE
        print(line)
    print("runs: %d attempted, %d failed" % (tally.attempted,
                                            len(tally.failures)))
    for failure in tally.failures:
        print("FAILED " + failure)


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    # Self-test hooks (perfbench/selftest.py).
    parser.add_argument("--smoke", action="store_true",
                        help=argparse.SUPPRESS)
    parser.add_argument("--inject-mismatch", action="store_true",
                        help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be >= 0")

    signal.signal(signal.SIGTERM, _terminate)
    work = os.path.join(ROOT, ".bench_build", "work-%d" % os.getpid())
    try:
        build()
        os.makedirs(work)
        workload = WORKLOADS[args.workload](args.seed, work, args.smoke)
        end_to_end, per_layer = metric_units()
        tally = Tally()
        ref = reference(workload, tally, args.inject_mismatch)
        if args.trace:
            units = per_layer
            stats = measure_per_layer(workload, ref, args.seconds, tally,
                                      units)
        else:
            units = end_to_end
            stats = measure_end_to_end(workload, ref, args.seconds, tally)
    except BenchError as e:
        print("perfbench: %s" % e, file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)

    missing = [name for name in units if name not in stats]
    if missing:
        print("perfbench: no samples for %s" % ", ".join(missing),
              file=sys.stderr)
        return 1
    print_report(workload, args.trace, stats, units, tally)
    result = {
        "correct": not tally.failures,
        "attempted": tally.attempted,
        "failed": len(tally.failures),
        "metrics": {name: {"value": stats[name].value, "unit": unit}
                    for name, unit in units.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
