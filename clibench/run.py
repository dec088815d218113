#!/usr/bin/env python3
"""Benchmark of the `slicing` command-line program, run the way a user runs it.

    python3 clibench/run.py --workload serve-mixed --seed 1 --seconds 20 --trace 0

Run from the root of a checkout. The script builds the release `slicing`
binary (and, for traced runs, the replay harness in `clibench/replay`),
generates the workload's inputs from the seed, and runs the program on them
in whole rounds until `--seconds` have passed. Every output is checked
against the reference in `reference.py`. The last line of standard output
is one JSON object: `correct`, `attempted`, `failed` and `metrics`.

`--trace 0` reports the end-to-end metrics, taken from outside the program
process: wall time from spawn to exit, its user+sys CPU time and its peak
RSS. `--trace 1` reports the per-layer metrics of all three workloads
instead: it replays each workload's input through the library calls the
program makes (`clibench-replay`) and checks that the replay reaches the
program's own work counters. See README.md.
"""

import argparse
import json
import os
import re
import shutil
import statistics
import subprocess
import sys
import tempfile
import threading
import time

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import gen  # noqa: E402
import reference  # noqa: E402

GC_LAG, GC_EVERY = 128, 1024
CKPT_EVERY, CKPT_KEEP = 50_000, 3
METRICS_EVERY = 1000
# Set-up runs per round: a set-up run lasts milliseconds, so it is sampled
# more often than the full run for a steady median.
SETUP_RUNS = 5


class CheckError(Exception):
    """The program's output disagrees with the reference."""


class Run:
    """One finished program process, measured by the replay harness's
    launcher (`clibench-replay measure`): wall time from spawn to exit,
    user+sys CPU time and peak RSS of the program process alone."""

    def __init__(self, cmd, feed, work, replay):
        result = os.path.join(work, "measure")
        stderr_path = os.path.join(work, "stderr")
        with open(stderr_path, "wb") as err:
            proc = subprocess.Popen(
                [replay, "measure", result] + cmd,
                stdin=subprocess.PIPE if feed is not None else subprocess.DEVNULL,
                stdout=subprocess.PIPE,
                stderr=err,
            )
            try:
                feeder = None
                if feed is not None:
                    feeder = threading.Thread(target=_feed, args=(proc.stdin, feed))
                    feeder.start()
                self.stdout = proc.stdout.read().decode()
                if feeder is not None:
                    feeder.join()
            except BaseException:
                proc.kill()
                raise
            finally:
                proc.stdout.close()
                proc.wait()
        if proc.returncode != 0:
            with open(stderr_path, errors="replace") as err:
                raise CheckError(f"{cmd[0]} exited with {proc.returncode}: {err.read()[-2000:]}")
        with open(result) as f:
            wall_ns, cpu_ns, maxrss_kib = (int(x) for x in f.read().split())
        self.wall = wall_ns / 1e9
        self.cpu = cpu_ns / 1e9
        self.rss_mb = maxrss_kib / 1024


def _feed(pipe, data):
    try:
        pipe.write(data)
        pipe.close()
    except BrokenPipeError:
        pass


class Job:
    """A workload's generated inputs, its program command, its checks and
    its replay. Subclasses set ``name``, ``counts`` (the work counters the
    replay must reproduce exactly) and the inputs."""

    def __init__(self, work, binary, replay):
        self.work, self.binary, self.replay = work, binary, replay
        self.report = self.path("report")

    def path(self, suffix):
        return os.path.join(self.work, f"{self.name}.{suffix}")

    def write(self, suffix, text):
        path = self.path(suffix)
        with open(path, "w") as f:
            f.write(text)
        return path

    def run(self, setup=False):
        return Run(self.command(setup), self.feed(setup), self.work, self.replay)

    def feed(self, setup):
        return None

    def traced(self):
        """Replays the input through the library; its counters must equal
        the program's report of the last run."""
        out = Run([self.replay] + self.replay_args(), None, self.work, self.replay).stdout
        rep = json.loads(out.splitlines()[-1])
        r = load(self.report)
        for key in self.counts:
            if r[key] != rep[key]:
                raise CheckError(f"{self.name}: replay {key} {rep[key]} != program {r[key]}")
        return rep


class Serve(Job):
    """serve-mixed: `slicing serve` over a stdin pipe, 256 standing tenants,
    churned tenants, GC, rotating checkpoints and --metrics."""

    name = "serve-mixed"
    counts = ("events", "messages", "alarms", "check_cost", "clause_evals", "slots")

    def __init__(self, seed, *tools):
        super().__init__(*tools)
        self.w = gen.ServeWorkload(seed)
        self.expected = reference.serve_alarms(self.w)
        self.stream = self.write("trace", self.w.text)
        self.tenants = self.write(
            "tenants", "".join(f"{tid}={expr}\n" for tid, expr in self.w.standing)
        )
        self.data = self.w.text.encode()
        self.setup_data = self.w.setup_text.encode()
        self.flags = [str(GC_LAG), str(GC_EVERY), str(CKPT_EVERY), str(CKPT_KEEP), str(METRICS_EVERY)]

    def command(self, setup):
        argv = [self.binary, "--report", self.report, "serve"]
        for tid, expr in self.w.standing:
            argv += ["--tenant", f"{tid}={expr}"]
        gc, every, ckpt_every, keep, metrics_every = self.flags
        return argv + [
            "--gc-lag", gc, "--gc-every", every,
            "--checkpoint", self.path("ckpt"), "--checkpoint-every", ckpt_every,
            "--checkpoint-keep", keep,
            "--metrics", self.path("metrics"), "--metrics-every", metrics_every,
        ]  # fmt: skip

    def feed(self, setup):
        return self.setup_data if setup else self.data

    def check(self):
        """Each churned tenant alarms once, at the reference cut; standing
        tenants never alarm; event and message counts are the generator's."""
        r = load(self.report)
        if (r["events"], r["messages"]) != (self.w.events, self.w.stream.messages):
            raise CheckError(f"serve counted {r['events']} events, {r['messages']} messages")
        if r["tenants"] != len(self.w.standing):
            raise CheckError(f"serve ended with {r['tenants']} tenants")
        got = {}
        for alarm in r["alarm_log"]:
            tenant = alarm["tenant"]
            if tenant not in self.expected:
                raise CheckError(f"unexpected alarm for tenant {tenant}: {alarm}")
            if tenant in got:
                raise CheckError(f"second alarm for tenant {tenant}: {alarm}")
            got[tenant] = alarm["cut"]
        for tenant, cut in self.expected.items():
            if got.get(tenant) != cut:
                raise CheckError(f"tenant {tenant} alarmed at {got.get(tenant)}, reference {cut}")
        return len(self.expected), 0

    def replay_args(self):
        return ["serve", self.stream, self.tenants, self.path("ckpt"), self.path("metrics")] + self.flags


class Monitor(Job):
    """monitor-faults: `slicing monitor` with GC over a trace with K planted
    fault instances; each instance is one operation."""

    name = "monitor-faults"
    counts = ("events", "messages", "alarms", "check_cost")

    def __init__(self, seed, *tools):
        super().__init__(*tools)
        self.w = gen.MonitorWorkload(seed)
        self.expected = reference.monitor_instances(self.w)
        self.trace = self.write("trace", self.w.text)
        self.setup_trace = self.write("setup", self.w.setup_text)
        self.flags = [self.w.predicate, str(GC_LAG), str(GC_EVERY)]

    def command(self, setup):
        pred, gc, every = self.flags
        trace = self.setup_trace if setup else self.trace
        return [self.binary, "--report", self.report, "monitor", trace, pred,
                "--gc-lag", gc, "--gc-every", every]  # fmt: skip

    def check(self):
        """Every reported alarm is the reference alarm of one planted
        instance; an instance without its alarm is a failed operation."""
        r = load(self.report)
        if (r["events"], r["messages"]) != (self.w.events, self.w.stream.messages):
            raise CheckError(f"monitor counted {r['events']} events, {r['messages']} messages")
        matched = set()
        for text in r["alarm_cuts"]:
            cut = [int(n) for n in re.findall(r"\d+", text)]
            if cut not in self.expected:
                raise CheckError(f"monitor alarm {text} matches no planted instance")
            matched.add(self.expected.index(cut))
        return len(self.expected), len(self.expected) - len(matched)

    def replay_args(self):
        return ["monitor", self.trace] + self.flags


class Detect(Job):
    """detect-slice: `slicing detect --engine slice` on a trace whose
    predicate holds only at cuts through a planted event near the end."""

    name = "detect-slice"
    counts = ("events", "cuts_explored", "max_stored_cuts")

    def __init__(self, seed, *tools):
        super().__init__(*tools)
        self.w = gen.DetectWorkload(seed)
        self.trace = self.write("trace", self.w.text)
        self.setup_trace = self.write("setup", self.w.setup_text)

    def command(self, setup):
        trace = self.setup_trace if setup else self.trace
        return [self.binary, "--report", self.report, "detect", trace, self.w.predicate,
                "--engine", "slice"]  # fmt: skip

    def check(self):
        """The verdict is "detected" and the witness passes validation."""
        r = load(self.report)
        # The report counts the initial event of every process too.
        events = self.w.events + self.w.stream.procs
        if r["events"] != events or not r["detected"] or r["aborted"] is not None:
            raise CheckError(f"detect reported {r}")
        reason = reference.validate_witness(self.w, r["witness"])
        if reason:
            raise CheckError(reason)
        return 1, 0

    def replay_args(self):
        return ["detect", self.trace, self.w.predicate]


WORKLOADS = {job.name: job for job in (Serve, Monitor, Detect)}


def load(path):
    with open(path) as f:
        return json.load(f)


def build(target_dir):
    """Builds the program, and the replay harness, from source."""
    if not (os.path.isfile("Cargo.toml") and os.path.isfile("src/bin/slicing.rs")):
        raise SystemExit("clibench: run from the root of a checkout of the repository")
    for cmd in (
        ["cargo", "build", "--release", "--offline", "-p", "computation-slicing", "--bin", "slicing"],
        ["cargo", "build", "--release", "--offline", "--manifest-path", "clibench/replay/Cargo.toml"],
    ):
        done = subprocess.run(cmd + ["--target-dir", target_dir], stdout=sys.stderr)
        if done.returncode != 0:
            raise SystemExit(f"clibench: build failed: {' '.join(cmd)}")
    release = os.path.join(target_dir, "release")
    return os.path.join(release, "slicing"), os.path.join(release, "clibench-replay")


def end_to_end(job, seconds):
    """Whole rounds until `seconds` have passed: each round is SETUP_RUNS
    set-up runs (the input without event and message lines) and one full
    run. Returns the metrics as medians over rounds, plus the operation
    counts."""
    rounds, setups = [], []
    attempted = failed = 0
    deadline = time.monotonic() + seconds
    while not rounds or time.monotonic() < deadline:
        setups.extend(job.run(setup=True).wall for _ in range(SETUP_RUNS))
        run = job.run()
        a, f = job.check()
        attempted, failed = attempted + a, failed + f
        rounds.append(run)
    events = job.w.events
    metrics = {
        "events_per_s": (statistics.median(events / r.wall for r in rounds), "1/s"),
        "cpu_us_per_event": (statistics.median(r.cpu * 1e6 / events for r in rounds), "us"),
        "peak_rss_mb": (statistics.median(r.rss_mb for r in rounds), "MB"),
        "setup_s": (statistics.median(setups), "s"),
    }
    print(f"{job.name}: {len(rounds)} rounds", file=sys.stderr)
    return metrics, attempted, failed


def per_layer(jobs, seconds, workload):
    """Takes the workloads in turn, one program run and one replay each,
    until `seconds` have passed and every workload has had its turn.
    Returns the per-layer metrics as medians over turns, plus the operation
    counts of the named workload's runs."""
    samples = {}
    attempted = failed = turns = 0
    deadline = time.monotonic() + seconds
    while turns < len(jobs) or time.monotonic() < deadline:
        job = jobs[turns % len(jobs)]
        turns += 1
        run = job.run()
        a, f = job.check()
        if job.name == workload:
            attempted, failed = attempted + a, failed + f
        rep = job.traced()
        for name, (value, unit) in layer_metrics(job.name, rep, run).items():
            samples.setdefault(name, ([], unit))[0].append(value)
        for layer, s in rep["layers"].items():
            print(f"{job.name} {layer:16} calls {s['count']:9} total {s['total_ns'] / 1e6:10.1f} ms"
                  f"  p50 {s['p50_ns']:>10} ns  p99 {s['p99_ns']:>10} ns", file=sys.stderr)  # fmt: skip
    print(f"traced: {turns} turns", file=sys.stderr)
    return {k: (statistics.median(v), u) for k, (v, u) in samples.items()}, attempted, failed


def layer_metrics(name, rep, run):
    layers = rep["layers"]
    events = rep["events"]

    def per(layer, denominator, scale=1.0):
        return layers[layer]["total_ns"] / denominator / scale

    m = {
        "trace.parse_ns_per_line": (per("parse", layers["parse"]["count"]), "ns"),
        "cli.glue_ns_per_event": ((run.cpu * 1e9 - rep["library_ns"]) / events, "ns"),
        "trace.overhead_pct": (100 * (rep["timed_ns"] / rep["untimed_ns"] - 1), "%"),
    }
    if name in ("serve-mixed", "monitor-faults"):
        m["slicer.observe_ns_per_event"] = (per("observe", events), "ns")
        m["slicer.message_ns_per_msg"] = (per("message", layers["message"]["count"]), "ns")
        m["slicer.retained_peak_events"] = (rep["retained_peak"], "events")
    if name == "serve-mixed":
        m["hub.check_ns_per_event"] = (per("check", events), "ns")
        m["hub.clause_evals_per_event"] = (rep["clause_evals"] / events, "evals")
        m["hub.slots"] = (rep["slots"], "slots")
        m["hub.tenant_add_us"] = (per("tenant_add", layers["tenant_add"]["count"], 1e3), "us")
        m["hub.fanout_dropped"] = (rep["fanout_dropped"], "copies")
        m["ckpt.write_ms"] = (per("checkpoint", layers["checkpoint"]["count"], 1e6), "ms")
        m["ckpt.bytes"] = (rep["checkpoint_bytes"], "bytes")
        m["metrics.snapshot_us"] = (per("snapshot", layers["snapshot"]["count"], 1e3), "us")
    if name == "monitor-faults":
        m["monitor.check_ns_per_event"] = (per("check", events), "ns")
        m["monitor.probes_per_event"] = (rep["check_cost"] / events, "probes")
        m["monitor.peak_candidates"] = (rep["peak_candidates"], "candidates")
    if name == "detect-slice":
        m["build.ns_per_event"] = (per("build", events), "ns")
        m["slice.construct_ms"] = (per("slice", 1, 1e6), "ms")
        m["slice.bytes"] = (rep["slice_bytes"], "bytes")
        m["search.ms"] = (per("search", 1, 1e6), "ms")
        m["search.ns_per_cut"] = (per("search", rep["cuts_explored"]), "ns")
        m["search.cuts_explored"] = (rep["cuts_explored"], "cuts")
        m["search.peak_stored_cuts"] = (rep["max_stored_cuts"], "cuts")
    return {f"{name}.{k}": v for k, v in m.items()}


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    tools = build(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    os.makedirs(".bench_work", exist_ok=True)
    work = tempfile.mkdtemp(prefix=f"{args.workload}-", dir=".bench_work")
    try:
        if args.trace:
            jobs = [make(args.seed, work, *tools) for make in WORKLOADS.values()]
            metrics, attempted, failed = per_layer(jobs, args.seconds, args.workload)
        else:
            job = WORKLOADS[args.workload](args.seed, work, *tools)
            metrics, attempted, failed = end_to_end(job, args.seconds)
    except CheckError as e:
        print(f"clibench: check failed: {e}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)
    for name, (value, unit) in metrics.items():
        print(f"  {name:48} {value:14.4f} {unit}", file=sys.stderr)
    print(json.dumps({
        "correct": True,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))  # fmt: skip
    return 0


if __name__ == "__main__":
    sys.exit(main())
