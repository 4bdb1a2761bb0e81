#!/usr/bin/env python3
"""perfbench: pimsim's end-to-end and per-layer benchmark.

Run from the repository root:

    python3 perfbench/run.py --workload fig12_parcel --seed 1 --seconds 20 --trace 0

It builds perfbench_harness (pimsim's library plus perfbench/*.cpp) under
.bench_build/perfbench, runs the workload in child processes for about
--seconds seconds, checks every output, and prints one JSON object as its
last line.  --trace 0 reports the end-to-end metrics, --trace 1 the
per-layer ones.  README.md defines every workload and metric.
"""
import argparse
import fcntl
import hashlib
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
HARNESS = os.path.join(BUILD, "perfbench_harness")

WORKLOADS = ("fig12_parcel", "fig11_packet", "fig5_banked", "sweep_fabric")
PAR_THREADS = 4          # the parallel knob's one fixed count (threads=/jobs=)
MIN_SAMPLES = 3          # timed runs of each kind, however short --seconds is
SETUP_PER_ROUND = 8      # set-up-only runs per measuring round
MIN_SETUP_SAMPLES = 51
CHILD_TIMEOUT_S = 90
# The differential each traced workload measures: the same grid with the
# layer's backend swapped for the analytic one.
DIFFERENTIAL = {
    "fig11_packet": ("interconnect", ["contention=0"]),
    "fig5_banked": ("memory", ["memory=analytic"]),
}


class BenchError(Exception):
    """A failure that leaves no result to report (missing sources, build)."""


class RunFailed(Exception):
    """A failed run that stops measuring; the result reports it."""


SAME = object()  # check_run: expect the workload's own fingerprint
DIR = object()   # Bench.child: the child's own fresh directory


# --- building --------------------------------------------------------------

def build():
    sources = [os.path.join(ROOT, "CMakeLists.txt"),
               os.path.join(ROOT, "src", "core", "cli.hpp")]
    missing = [s for s in sources if not os.path.isfile(s)]
    if missing:
        raise BenchError("pimsim sources not found next to perfbench/: "
                         + ", ".join(os.path.relpath(m, ROOT) for m in missing))
    os.makedirs(BUILD, exist_ok=True)
    log_path = os.path.join(BUILD, "build.log")
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    with open(os.path.join(BUILD, "build.lock"), "w") as lock, \
            open(log_path, "w") as log:
        fcntl.flock(lock, fcntl.LOCK_EX)
        steps = [["cmake", "--build", BUILD, "-j", jobs,
                  "--target", "perfbench_harness"]]
        if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
            steps.insert(0, ["cmake", "-S", HERE, "-B", BUILD,
                             "-DCMAKE_BUILD_TYPE=Release"])
        for step in steps:
            if subprocess.run(step, stdout=log, stderr=subprocess.STDOUT,
                              cwd=ROOT, timeout=850).returncode != 0:
                log.flush()
                with open(log_path) as f:
                    sys.stderr.write(f.read()[-4000:])
                raise BenchError("build failed: " + " ".join(step))


# --- child processes -------------------------------------------------------

class Child:
    """One finished harness process: its rusage, wall time and JSON line."""

    def __init__(self, args, workdir):
        self.args = args
        env = {k: v for k, v in os.environ.items() if not k.startswith("PIMSIM_")}
        out_path = os.path.join(workdir, "child.out")
        err_path = os.path.join(workdir, "child.err")
        with open(out_path, "w") as out, open(err_path, "w") as err:
            self.start_ns = time.clock_gettime_ns(time.CLOCK_MONOTONIC)
            t0 = time.perf_counter()
            proc = subprocess.Popen([HARNESS] + args, stdout=out, stderr=err,
                                    env=env, cwd=ROOT)
            killer = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
            killer.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            except BaseException:  # SIGTERM or Ctrl-C: stop the child too
                proc.kill()
                os.waitpid(proc.pid, 0)
                raise
            finally:
                killer.cancel()
            self.wall_s = time.perf_counter() - t0
            proc.returncode = os.waitstatus_to_exitcode(status)
        self.returncode = proc.returncode
        self.cpu_s = usage.ru_utime + usage.ru_stime
        with open(out_path) as f:
            lines = f.read().strip().splitlines()
        with open(err_path) as f:
            self.stderr = f.read()[-2000:]
        self.result = None
        if self.returncode == 0 and lines:
            try:
                self.result = json.loads(lines[-1])
            except ValueError:
                pass

    @property
    def ok(self):
        return self.result is not None

    @property
    def rss_mb(self):
        """The harness's own peak resident set (VmHWM at exit).  wait4's
        ru_maxrss would not do: exec carries the spawning Python
        process's peak over into the child's."""
        return self.result["peak_rss_kib"] / 1024.0


class Bench:
    """Runs children for one invocation and keeps the attempted/failed
    ledger: every point a run computes is attempted, and every point of a
    run that crashed or produced a wrong output is failed."""

    def __init__(self, workload, seed, pins):
        self.workload = workload
        self.seed = seed
        self.pins = pins
        self.workdir = os.path.join(BUILD, "work", str(os.getpid()))
        shutil.rmtree(self.workdir, ignore_errors=True)
        os.makedirs(self.workdir)
        self.attempted = 0
        self.failed = 0
        self.errors = []
        self.points = 0        # points per workload run, from its output
        self.expected = None   # the output fingerprint every run must give
        self.children = 0
        # sweep_fabric: the chunk directories of the first run, which every
        # set-up run resumes (hard-linked into its own directory).
        self.template = os.path.join(self.workdir, "template")

    def child(self, *args, keep=(), prepare=None):
        """Runs the harness in a fresh directory (passed where DIR stands)
        and removes it afterwards, outside the timing: a child never
        truncates or replaces an earlier run's files, which on ext4 would
        make it wait for their writeback.  `prepare(dir)` fills the
        directory before the child starts; `keep` lists (name, destination)
        pairs moved out of it after a successful run."""
        self.children += 1
        d = os.path.join(self.workdir, str(self.children))
        os.makedirs(d)
        if prepare:
            prepare(d)
        c = Child([d if a is DIR else str(a) for a in args], d)
        if c.ok:
            for name, dest in keep:
                os.replace(os.path.join(d, name), dest)
        shutil.rmtree(d, ignore_errors=True)
        return c

    def fail(self, message, points):
        self.errors.append(message)
        self.attempted += points
        self.failed += points

    def check_run(self, child, expected=SAME):
        """Counts a workload run and checks its output fingerprint against
        `expected` (by default the one every run of the workload gives;
        None checks nothing)."""
        points = (child.result or {}).get("points") or self.points or 1
        if not child.ok:
            self.fail("%s exited %d: %s" % (" ".join(child.args), child.returncode,
                                             child.stderr.strip()[-500:]), points)
            return False
        got = child.result["fingerprint"]
        want = self.expected if expected is SAME else expected
        if want is not None and got != want:
            self.fail("%s: fingerprint %s, expected %s" % (" ".join(child.args),
                                                           got, want), points)
            return False
        self.attempted += points
        return True

    def run(self, threads, *overrides, keep=()):
        return self.child("run", self.workload, self.seed, threads, DIR,
                          *overrides, keep=keep)

    def establish(self):
        """First (untimed) run: fixes the fingerprint every later run must
        give.  Pinned seeds must match the pin; the sweep must also match
        the unsharded in-process sweep, and keeps its chunks as the
        set-up runs' template."""
        sweep = self.workload == "sweep_fabric"
        self.expected = self.pins.get("fingerprints", {}).get(
            str(self.seed), {}).get(self.workload)
        keep = ()
        if sweep:
            os.makedirs(self.template)
            keep = [(tag, os.path.join(self.template, tag))
                    for tag in ("fig7.chunks", "reps.chunks")]
        first = self.run(1, keep=keep)
        if not self.check_run(first):
            raise RunFailed(self.errors[-1])
        self.points = first.result["points"]
        self.expected = first.result["fingerprint"]
        if sweep:
            ref = self.child("reference", self.workload, self.seed, DIR)
            if not self.check_run(ref):
                raise RunFailed(self.errors[-1])

    def link_template(self, d):
        """Hard-links the first run's chunk directories into `d`: the
        set-up run only reads them."""
        for tag in os.listdir(self.template):
            os.makedirs(os.path.join(d, tag))
            for name in os.listdir(os.path.join(self.template, tag)):
                os.link(os.path.join(self.template, tag, name),
                        os.path.join(d, tag, name))

    def setup_sample(self):
        prepare = self.link_template if self.workload == "sweep_fabric" else None
        c = self.child("setup", self.workload, self.seed, DIR, prepare=prepare)
        if not c.ok:
            self.fail("setup run exited %d: %s" % (c.returncode, c.stderr[-500:]), 1)
            return None
        return (c.result["setup_done_ns"] - c.start_ns) / 1e9

    def close(self):
        shutil.rmtree(self.workdir, ignore_errors=True)




# --- statistics --------------------------------------------------------------

def summary(values):
    values = sorted(values)
    out = {"n": len(values), "median": statistics.median(values),
           "min": values[0], "max": values[-1]}
    if len(values) >= 2:
        q1, _, q3 = statistics.quantiles(values, n=4)
        out.update(q1=q1, q3=q3)
    return out


def detail(name, values, unit):
    s = summary(values)
    print("# %-14s %s n=%d median=%.6g q1=%.6g q3=%.6g min=%.6g max=%.6g" % (
        name, unit, s["n"], s["median"], s.get("q1", s["median"]),
        s.get("q3", s["median"]), s["min"], s["max"]))
    return s["median"]


# --- the two kinds of invocation ---------------------------------------------

def timed_rounds(bench, seconds, samples, with_setup=True, baseline=None):
    """Alternates single-thread and parallel runs (plus set-up-only runs)
    until `seconds` have passed and every kind has MIN_SAMPLES.  With
    `baseline` (overrides that swap a backend out), each round also runs
    the single-thread workload with them next to the plain single-thread
    run, alternating which goes first, and records the pair's CPU
    difference in samples["extra_cpu_s"]: pairing cancels host drift."""
    deadline = time.perf_counter() + seconds
    base_fp = None  # the baseline's own output, fixed by its first run
    rounds = 0
    while True:
        pair = {}
        order = ["single"] + (["base"] if baseline else [])
        for kind in (reversed(order) if rounds % 2 else order):
            if kind == "single":
                single = bench.run(1)
                if bench.check_run(single):
                    samples["cpu_s"].append(single.cpu_s)
                    samples["wall_s"].append(single.wall_s)
                    samples["peak_rss_mb"].append(single.rss_mb)
                    pair[kind] = single.cpu_s
            else:
                base = bench.run(1, *baseline)
                if bench.check_run(base, base_fp):
                    base_fp = base.result["fingerprint"]
                    pair[kind] = base.cpu_s
        if len(pair) == 2:
            samples["extra_cpu_s"].append(pair["single"] - pair["base"])
        rounds += 1
        par = bench.run(PAR_THREADS)
        if bench.check_run(par):
            samples["wall_par_s"].append(par.wall_s)
        if with_setup:
            for _ in range(SETUP_PER_ROUND):
                s = bench.setup_sample()
                if s is not None:
                    samples["setup_s"].append(s)
        enough = all(len(v) >= MIN_SAMPLES for v in samples.values())
        if bench.errors and not enough:
            raise RunFailed(bench.errors[-1])
        if time.perf_counter() >= deadline and enough:
            break
    while with_setup and len(samples["setup_s"]) < MIN_SETUP_SAMPLES:
        s = bench.setup_sample()
        if s is None:
            raise RunFailed(bench.errors[-1])
        samples["setup_s"].append(s)


def measure(bench, seconds):
    bench.establish()
    samples = {k: [] for k in ("cpu_s", "wall_s", "wall_par_s", "setup_s",
                               "peak_rss_mb")}
    timed_rounds(bench, seconds, samples)
    units = {"cpu_s": "s", "wall_s": "s", "wall_par_s": "s", "setup_s": "s",
             "peak_rss_mb": "MiB"}
    return {k: {"value": detail(k, v, units[k]), "unit": units[k]}
            for k, v in samples.items()}


def span(trace, name, field):
    return trace["spans"].get(name, {}).get(field, 0)


def traced(bench, seconds):
    """Per-layer metrics: untraced medians, the backend differential, the
    hold-model probe, and two traced runs whose exact counts must agree."""
    bench.establish()
    layer, overrides = DIFFERENTIAL.get(bench.workload, (None, None))
    samples = {k: [] for k in ("cpu_s", "wall_s", "wall_par_s", "peak_rss_mb")}
    if layer:
        samples["extra_cpu_s"] = []
    timed_rounds(bench, seconds / 2.0, samples, with_setup=False,
                 baseline=overrides)
    cpu = detail("cpu_s", samples["cpu_s"], "s")
    wall = detail("wall_s", samples["wall_s"], "s")
    wall_par = detail("wall_par_s", samples["wall_par_s"], "s")

    extra = {"interconnect": 0.0, "memory": 0.0}
    if layer:
        extra[layer] = detail("extra_cpu_s(" + overrides[0] + ")",
                              samples["extra_cpu_s"], "s")

    holds = [bench.child("hold", bench.seed) for _ in range(2)]
    for h in holds:
        if not h.ok:
            bench.fail("hold probe exited %d: %s" % (h.returncode, h.stderr), 1)
            raise RunFailed(bench.errors[-1])
    hold_pin = bench.pins.get("hold_order", {}).get(str(bench.seed))
    for depth in ("small", "large"):
        order = {h.result[depth]["order_hash"] for h in holds}
        if len(order) != 1 or (hold_pin and order != {hold_pin[depth]}):
            bench.fail("hold probe (%s) firing order differs: %s" % (depth, sorted(order)), 1)

    spans_dir = os.path.join(BUILD, "traces")
    os.makedirs(spans_dir, exist_ok=True)
    spans_path = os.path.join(spans_dir, "%s-seed%d.spans.json"
                              % (bench.workload, bench.seed))
    traces = []
    for _ in range(2):
        c = bench.child("trace", bench.workload, bench.seed, DIR,
                        keep=[("spans.json", spans_path)])
        if not bench.check_run(c):
            raise RunFailed(bench.errors[-1])
        traces.append((c, c.result))
    (c0, t0), (c1, t1) = traces
    exact0 = exact_counts(t0)
    if exact0 != exact_counts(t1):
        bench.fail("traced runs' exact counts differ: %s vs %s"
                     % (exact0, exact_counts(t1)), t0["points"])
    pinned = bench.pins.get("metrics", {}).get(str(bench.seed), {}).get(bench.workload)
    if pinned and pinned != t0["counts"]["metrics_fingerprint"]:
        bench.fail("metrics fingerprint %s, pinned %s"
                     % (t0["counts"]["metrics_fingerprint"], pinned), t0["points"])

    def mean_span(name, field):
        return (span(t0, name, field) + span(t1, name, field)) / 2.0

    counts = t0["counts"]
    events = counts["des.events_dispatched"]
    deliveries = span(t0, "parcel.deliver", "count")
    flit_hops = counts["net.flit_hops"]
    accesses = counts["mem.accesses"]
    sent = counts["net.packets_sent"]
    m = {
        "des.events": (events, "count"),
        "des.ns_per_event": (cpu * 1e9 / events if events else 0.0, "ns"),
        "des.hold_ns_small": (statistics.median(
            h.result["small"]["ns_per_event"] for h in holds), "ns"),
        "des.hold_ns_large": (statistics.median(
            h.result["large"]["ns_per_event"] for h in holds), "ns"),
        "des.pending_at_deliver": (t0["pending_sum"] / deliveries if deliveries else 0.0,
                                   "events"),
        "parcel.test_s": (mean_span("parcel.test", "total_s"), "s"),
        "parcel.control_s": (mean_span("parcel.control", "total_s"), "s"),
        "parcel.deliver_calls": (deliveries, "count"),
        "parcel.deliver_self_s": (mean_span("parcel.deliver", "self_s"), "s"),
        "parcel.requests": (counts["parcel.request_rtt_count"]
                            + counts["msg.request_rtt_count"], "count"),
        "interconnect.extra_cpu_s": (extra["interconnect"], "s"),
        "interconnect.flit_hops": (flit_hops, "count"),
        "interconnect.packets": (sent, "count"),
        "interconnect.ns_per_flit_hop": (
            extra["interconnect"] * 1e9 / flit_hops if flit_hops else 0.0, "ns"),
        "interconnect.delivered_ratio": (
            counts["net.packets_delivered"] / sent if sent else 0.0, "ratio"),
        "memory.extra_cpu_s": (extra["memory"], "s"),
        "memory.accesses": (accesses, "count"),
        "memory.row_hits": (counts["mem.row_hits"], "count"),
        "memory.row_hit_rate": (counts["mem.row_hits"] / accesses if accesses else 0.0,
                                "ratio"),
        "memory.ns_per_access": (extra["memory"] * 1e9 / accesses if accesses else 0.0,
                                 "ns"),
        "arch.host_s": (mean_span("arch.host", "total_s"), "s"),
        "arch.control_s": (mean_span("arch.control", "total_s"), "s"),
    }
    for phase in ("parse", "plan", "generate", "render", "serialize", "fold",
                  "chunk_write", "chunk_read", "merge"):
        m["core.%s_s" % phase] = (mean_span("core." + phase, "self_s"), "s")
    m["core.points"] = (t0["points"], "count")
    m["core.bytes_written"] = (t0.get("bytes_written", 0), "bytes")
    m["core.par_efficiency"] = (wall / (PAR_THREADS * wall_par), "ratio")
    m["obs.trace_overhead"] = ((c0.cpu_s + c1.cpu_s) / 2.0 / cpu - 1.0, "ratio")
    return {k: {"value": v, "unit": u} for k, (v, u) in m.items()}


def exact_counts(trace):
    """Everything in a traced run that must repeat bit for bit."""
    return {"fingerprint": trace["fingerprint"], "points": trace["points"],
            "counts": trace["counts"], "pending_sum": trace.get("pending_sum"),
            "span_counts": {k: v["count"] for k, v in trace["spans"].items()}}


# --- metadata ------------------------------------------------------------------

def source_digest():
    """SHA-256 over the program and benchmark sources: identifies the code
    where no git metadata exists (the benchmark's own checkouts)."""
    h = hashlib.sha256()
    roots = [os.path.join(ROOT, "src"), HERE]
    files = [os.path.join(ROOT, "CMakeLists.txt")]
    for r in roots:
        for dirpath, dirnames, filenames in os.walk(r):
            dirnames.sort()
            files += [os.path.join(dirpath, f) for f in sorted(filenames)
                      if not f.endswith(".pyc")]
    for path in files:
        h.update(os.path.relpath(path, ROOT).encode() + b"\0")
        with open(path, "rb") as f:
            h.update(f.read())
    return h.hexdigest()[:16]


def git_commit():
    if not os.path.exists(os.path.join(ROOT, ".git")):
        return None
    try:
        out = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.SubprocessError):
        return None
    return out.stdout.strip() or None


def cpu_model():
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or None


def metadata(load_1m):
    meta = Child(["meta"], BUILD).result or {}
    return {"git_commit": git_commit(), "source_digest": source_digest(),
            "compiler": meta.get("compiler"), "build_type": meta.get("build_type"),
            "nproc": os.cpu_count(),
            "cpus_allowed": len(os.sched_getaffinity(0)),
            "cpu_model": cpu_model(), "loadavg_1m_at_start": load_1m,
            "kernel": platform.release(), "python": platform.python_version()}


# --- main --------------------------------------------------------------------

def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if args.seed < 0:
        parser.error("--seed must be >= 0")
    # A terminated benchmark still stops its harness child and cleans up.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    load_1m = os.getloadavg()[0]
    try:
        build()
    except (BenchError, subprocess.TimeoutExpired, OSError) as e:
        sys.stderr.write("perfbench: %s\n" % e)
        return 2

    with open(os.path.join(HERE, "pins.json")) as f:
        pins = json.load(f)
    meta = metadata(load_1m)
    meta.update(workload=args.workload, seed=args.seed, seconds=args.seconds,
                trace=args.trace, held_out_seed=pins["held_out_seed"])
    print("# meta " + json.dumps(meta, sort_keys=True))

    bench = Bench(args.workload, args.seed, pins)
    metrics = {}
    try:
        metrics = (traced if args.trace else measure)(bench, args.seconds)
    except RunFailed:
        pass
    finally:
        bench.close()
    for e in bench.errors:
        sys.stderr.write("perfbench: FAILED: %s\n" % e)
    correct = not bench.errors and bool(metrics)
    result = {"correct": correct, "attempted": max(1, bench.attempted),
              "failed": bench.failed if correct else max(1, bench.failed),
              "metrics": metrics}
    results_dir = os.path.join(BUILD, "results")
    os.makedirs(results_dir, exist_ok=True)
    with open(os.path.join(results_dir, "%s-seed%d-trace%d.json"
                           % (args.workload, args.seed, args.trace)), "w") as f:
        json.dump({"meta": meta, "result": result, "errors": bench.errors}, f,
                  indent=1, sort_keys=True)
    print(json.dumps(result))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
