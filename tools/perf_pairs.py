#!/usr/bin/env python3
"""Paired A/B timing of two perfbench_harness builds on one workload.

    python3 tools/perf_pairs.py PARENT_HARNESS CHANGE_HARNESS fig12_parcel \\
        --pairs 10 --seed 1

Each pair runs `<harness> run <workload> <seed> 1 <fresh dir>` once per
side, alternating which side goes first, so host drift hits both sides
alike.  CPU time is the child's user + system time from wait4.  Both
sides must print the same result JSON (the output fingerprint and point
count; the peak RSS field is reported, not compared), or the script exits
1.  It prints each side's cpu_s median and quartiles, the pairs the
change won, the median change/parent ratio, and whether the claim rule of
perfbench/README.md holds: the change wins at least 9 pairs in 10 and
the medians differ by more than the parent's interquartile spread.

Build the two harnesses with perfbench/CMakeLists.txt (Release), e.g.
`cmake -S perfbench -B <dir> -DCMAKE_BUILD_TYPE=Release && cmake --build
<dir> --target perfbench_harness`, once in each checkout.  The script
only runs the binaries; it changes nothing under perfbench/.
"""
import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile


def run_once(harness, workload, seed, workdir):
    """One single-thread workload run in a fresh directory: (cpu_s, result)."""
    run_dir = tempfile.mkdtemp(prefix="run-", dir=workdir)
    env = {k: v for k, v in os.environ.items() if not k.startswith("PIMSIM_")}
    try:
        with open(os.path.join(run_dir, "child.out"), "w+") as out:
            proc = subprocess.Popen([harness, "run", workload, str(seed), "1",
                                     run_dir], stdout=out,
                                    stderr=subprocess.PIPE, env=env, cwd=run_dir)
            _, status, usage = os.wait4(proc.pid, 0)
            stderr = proc.stderr.read().decode(errors="replace")
            proc.stderr.close()
            if os.waitstatus_to_exitcode(status) != 0:
                sys.exit("%s failed: %s" % (harness, stderr.strip()[-500:]))
            out.seek(0)
            lines = out.read().strip().splitlines()
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)
    return usage.ru_utime + usage.ru_stime, json.loads(lines[-1])


def quartiles(values):
    q1, _, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("parent", help="perfbench_harness built from the parent")
    ap.add_argument("change", help="perfbench_harness built from the change")
    ap.add_argument("workload")
    ap.add_argument("--pairs", type=int, default=10)
    ap.add_argument("--seed", type=int, default=1)
    args = ap.parse_args()
    if args.pairs < 2:
        ap.error("--pairs must be at least 2")

    sides = {"parent": args.parent, "change": args.change}
    cpu = {"parent": [], "change": []}
    rss = {"parent": [], "change": []}
    expected = None
    with tempfile.TemporaryDirectory(prefix="perf_pairs-") as workdir:
        for i in range(args.pairs):
            order = ("parent", "change") if i % 2 == 0 else ("change", "parent")
            for side in order:
                cpu_s, result = run_once(sides[side], args.workload, args.seed,
                                         workdir)
                rss[side].append(result.pop("peak_rss_kib") / 1024.0)
                if expected is None:
                    expected = result
                elif result != expected:
                    sys.exit("output differs: %s gave %s, expected %s"
                             % (side, json.dumps(result), json.dumps(expected)))
                cpu[side].append(cpu_s)
            print("# pair %2d  parent %.4f s  change %.4f s" % (
                i + 1, cpu["parent"][-1], cpu["change"][-1]), flush=True)

    wins = sum(c < p for p, c in zip(cpu["parent"], cpu["change"]))
    ratios = [c / p for p, c in zip(cpu["parent"], cpu["change"])]
    for side in ("parent", "change"):
        q1, median, q3 = quartiles(cpu[side])
        print("%-6s cpu_s median %.4f  q1 %.4f  q3 %.4f  peak_rss_mb median %.2f"
              % (side, median, q1, q3, statistics.median(rss[side])))
    p_q1, p_median, p_q3 = quartiles(cpu["parent"])
    c_median = statistics.median(cpu["change"])
    holds = (wins * 10 >= 9 * args.pairs and p_median - c_median > p_q3 - p_q1)
    print("change won %d/%d pairs, median ratio %.3f, output %s"
          % (wins, args.pairs, statistics.median(ratios),
             json.dumps(expected)))
    print("gain claim %s" % ("holds" if holds else "does not hold"))


if __name__ == "__main__":
    main()
