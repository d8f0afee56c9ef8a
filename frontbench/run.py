#!/usr/bin/env python3
"""Front-door benchmark of nwd: build, generate, run, check, report.

Usage (from the repository root):

    python3 frontbench/run.py --workload <name> --seed <n> --seconds <n> --trace <0|1>

Workloads: enum-paged, serve-probe, serve-churn (see
frontbench/RATIONALE.md). The steps, each in its own process:

  1. build the nwd library, the nwdd daemon and the frontbench runner
     from source with CMake (into $CARGO_TARGET_DIR or .bench_build);
  2. `frontbench gen` writes the graph and the request plan from the seed;
  3. `frontbench run` replays the plan through the library or a freshly
     spawned nwdd, checks the replies, and reports its numbers.

With --trace 0 the last line of stdout holds every end-to-end metric of
BENCHMARK.json. With --trace 1 the run is made twice in fresh processes,
untraced and then traced (NWD_METRICS=1, benchmark spans on), and the last
line holds every per-layer metric plus trace.overhead_pct.<metric>, the
traced run's change of each end-to-end metric. The line before it is the
full report: provenance, every metric with its sample count, per-rung
tables. A correctness mismatch prints correct=false and exits 3.
"""

import argparse
import hashlib
import json
import os
import platform
import shutil
import signal
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("enum-paged", "serve-probe", "serve-churn")
# Environment switches that change what the program does; a run with any of
# them set would not measure the program as shipped.
REFUSED_ENV = ("NWD_FAULT_POINT", "NWD_FAULT_PROB", "NWD_NO_COMPILE")
RUN_TIMEOUT_S = 170
# Per-layer metrics of layers a workload does not drive, by name prefix;
# they read 0 there (the prediction on those workloads is "no change").
# Any other per-layer metric the runner fails to report is an error.
NOT_EXERCISED = {
    "enum-paged": ("serve.", "repair.", "dynamic.", "gen.late_p99_us",
                   "max_rate_rps", "update_", "churn."),
    "serve-probe": ("next.p50_ns", "next.p99_ns", "update_", "churn."),
    "serve-churn": ("next.p50_ns", "next.p99_ns"),
}


def log(msg):
    print("frontbench: " + msg, file=sys.stderr, flush=True)


def fail(msg, code=2):
    log(msg)
    sys.exit(code)


def build_dir():
    base = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    if not os.path.isabs(base):
        base = os.path.join(ROOT, base)
    return os.path.join(base, "frontbench")


def build(bdir):
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")) or \
            not os.path.isfile(os.path.join(ROOT, "tools", "CMakeLists.txt")):
        fail("no nwd sources next to frontbench/ (expected src/ and tools/)")
    if not os.path.isfile(os.path.join(bdir, "CMakeCache.txt")):
        os.makedirs(bdir, exist_ok=True)
        r = subprocess.run(["cmake", "-S", HERE, "-B", bdir,
                            "-DCMAKE_BUILD_TYPE=RelWithDebInfo"],
                           stdout=sys.stderr, stderr=sys.stderr)
        if r.returncode != 0:
            shutil.rmtree(bdir, ignore_errors=True)
            fail("cmake configure failed", 1)
    r = subprocess.run(["cmake", "--build", bdir, "-j", str(os.cpu_count() or 1)],
                       stdout=sys.stderr, stderr=sys.stderr)
    if r.returncode != 0:
        fail("build failed", 1)


def run_process(args, env):
    """Runs one step in its own process group; kills the group on timeout."""
    proc = subprocess.Popen(args, stdout=subprocess.PIPE, stderr=sys.stderr,
                            env=env, start_new_session=True, text=True)
    try:
        out, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        fail("%s timed out" % args[1], 1)
    finally:
        # nwdd shares the runner's process group; nothing may outlive a run.
        try:
            os.killpg(proc.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
    return proc.returncode, out


def runner_pass(exe, work, nwdd, traced):
    env = {k: v for k, v in os.environ.items() if k != "NWD_METRICS"}
    if traced:
        env["NWD_METRICS"] = "1"
    code, out = run_process([exe, "run", "--dir", work, "--nwdd", nwdd,
                             "--trace", "1" if traced else "0"], env)
    lines = [l for l in out.splitlines() if l.strip()]
    if code not in (0, 3) or not lines:
        fail("runner failed (exit %d)" % code, 1)
    return json.loads(lines[-1])


def source_digest():
    h = hashlib.sha256()
    for top in ("CMakeLists.txt", "src", "tools", "frontbench"):
        path = os.path.join(ROOT, top)
        files = [path] if os.path.isfile(path) else sorted(
            os.path.join(d, f) for d, _, fs in os.walk(path) for f in fs)
        for f in files:
            h.update(os.path.relpath(f, ROOT).encode())
            with open(f, "rb") as fh:
                h.update(fh.read())
    return h.hexdigest()[:16]


def git_state():
    if not os.path.isdir(os.path.join(ROOT, ".git")):
        return {"sha": None, "dirty": None}
    try:
        sha = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                             capture_output=True, text=True).stdout.strip()
        dirty = subprocess.run(["git", "-C", ROOT, "status", "--porcelain",
                                "--untracked-files=no"],
                               capture_output=True, text=True).stdout.strip()
        return {"sha": sha or None, "dirty": bool(dirty)}
    except OSError:
        return {"sha": None, "dirty": None}


def cpu_model():
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def cpu_times():
    """The aggregate cpu line of /proc/stat: (steal, total) in ticks."""
    try:
        with open("/proc/stat") as f:
            fields = [int(x) for x in f.readline().split()[1:]]
        return fields[7] if len(fields) > 7 else 0, sum(fields)
    except (OSError, ValueError):
        return 0, 0


def build_type(bdir):
    try:
        with open(os.path.join(bdir, "CMakeCache.txt")) as f:
            for line in f:
                if line.startswith("CMAKE_BUILD_TYPE:"):
                    return line.split("=", 1)[1].strip()
    except OSError:
        pass
    return "unknown"


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=int)
    ap.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = ap.parse_args()
    if args.seconds < 1:
        fail("--seconds must be at least 1")
    for name in REFUSED_ENV:
        if name in os.environ:
            fail("refusing to run with %s set" % name)
    bench_json = os.path.join(ROOT, "BENCHMARK.json")
    if not os.path.isfile(bench_json):
        fail("BENCHMARK.json not found at the repository root")
    with open(bench_json) as f:
        spec = json.load(f)

    bdir = build_dir()
    build(bdir)
    load_start = os.getloadavg()
    steal_start, total_start = cpu_times()
    exe = os.path.join(bdir, "frontbench")
    nwdd = os.path.join(bdir, "tools", "nwdd")

    work = os.path.join(os.path.dirname(bdir), "work",
                        "%s-s%d-t%d" % (args.workload, args.seed, args.trace))
    shutil.rmtree(work, ignore_errors=True)
    os.makedirs(work)
    code, _ = run_process([exe, "gen", "--workload", args.workload,
                           "--seed", str(args.seed), "--seconds",
                           str(args.seconds), "--out", work], dict(os.environ))
    if code != 0:
        fail("generator failed (exit %d)" % code, 1)

    untraced = runner_pass(exe, work, nwdd, traced=False)
    traced = runner_pass(exe, work, nwdd, traced=True) if args.trace else None

    passes = [untraced] + ([traced] if traced else [])
    correct = all(p["correct"] for p in passes)
    attempted = sum(p["attempted"] for p in passes)
    failed = sum(p["failed"] for p in passes)
    fail_ratio = failed / attempted if attempted else 0.0

    e2e = [m["name"] for m in spec["end_to_end"]]
    per_layer = {m["name"]: m["unit"] for m in spec["per_layer"]}
    source = traced if args.trace else untraced
    source["metrics"]["fail_ratio"] = {"value": fail_ratio, "unit": "1"}
    wanted = list(per_layer) if args.trace else e2e
    metrics = {}
    for name in wanted:
        if name.startswith("trace.overhead_pct."):
            base = name[len("trace.overhead_pct."):]
            a = untraced["metrics"][base]["value"]
            b = traced["metrics"][base]["value"]
            metrics[name] = {"value": (b - a) / a * 100.0 if a else 0.0,
                             "unit": "%"}
        elif name in source["metrics"]:
            m = source["metrics"][name]
            metrics[name] = {"value": m["value"], "unit": m["unit"]}
        elif args.trace and name.startswith(NOT_EXERCISED[args.workload]):
            metrics[name] = {"value": 0.0, "unit": per_layer[name]}
        else:
            fail("the runner did not report %s" % name, 1)

    steal_end, total_end = cpu_times()
    report = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "provenance": {
            "git": git_state(),
            "source_digest": source_digest(),
            "nproc": os.cpu_count(),
            "cpu_model": cpu_model(),
            "build_type": build_type(bdir),
            "loadavg_start": load_start,
            "loadavg_end": os.getloadavg(),
            # CPU time the hypervisor gave to other guests while this run
            # wanted it, as a share of all CPU time during the run.
            "steal_share": (steal_end - steal_start) /
                           max(1, total_end - total_start),
            "nwd_env": {k: v for k, v in os.environ.items()
                        if k.startswith("NWD_")},
        },
        "fail_ratio": fail_ratio,
        "passes": passes,
    }
    with open(os.path.join(work, "report.json"), "w") as f:
        json.dump(report, f, indent=1)
    print(json.dumps({"frontbench_report": report}, separators=(",", ":")))
    for p in passes:
        for m in p.get("mismatches", []):
            log("MISMATCH " + m)
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed, "metrics": metrics}), flush=True)
    sys.exit(0 if correct else 3)


if __name__ == "__main__":
    main()
