#!/usr/bin/env python3
"""The repo benchmark: one workload of the eac simulator, measured and checked.

Usage (from the root of a checkout):

  python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Builds the simulator from source into .bench_build/perfbench/ (two
variants: the default build, and one with telemetry, trace and the domain
profiler compiled out), then runs the workload in a process of its own:

  --trace 0  set-up samples, then whole jobs for S seconds, untraced. Prints
             the end-to-end metrics wall_s, cpu_s, setup_s (medians) and
             peak_rss_mib.
  --trace 1  the per-layer pass: recorders installed and layer timers, plus
             the traced-vs-untraced and compiled-in-vs-out overheads.

Every run checks its outputs (properties and computations made apart from
the program; see README.md) and prints a digest of the modelled outputs.
The last line of standard output is one JSON object:
  {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
"""

import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BUILD = ROOT / ".bench_build" / "perfbench"
VARIANTS = {
    "obs": [],
    "bare": ["-DEAC_TELEMETRY=OFF", "-DEAC_TRACE=OFF", "-DEAC_DOMAIN_PROFILE=OFF"],
}
WORKLOADS = ("highload_sweep", "flows_100k", "ring_pdes", "fattree_artifacts")

# fattree_artifacts: the eac_cli invocation a user makes to capture one run
# for inspection, on six fabric seeds per job. Short-lived flows keep the
# full probe+queue capture near 50 MB; the ring holds several times the
# events such a run records, so nothing drops. driver.cpp builds the same
# fabric in process (kFatTree*, kCaptures).
FATTREE_CLI = ["--scenario", "fattree", "--k", "4", "--duration", "8",
               "--warmup", "2", "--lifetime", "20", "--domains", "1"]
TRACE_FILTER = "probe,queue"
TRACE_LIMIT = 1 << 21
CAPTURES = 6  # fabrics per job: seeds CAPTURES * seed + i


def build():
    """Configure (once) and build both variants; fails loudly."""
    jobs = str(min(4, os.cpu_count() or 1))
    for name, flags in VARIANTS.items():
        out = BUILD / name
        if not (out / "CMakeCache.txt").exists():
            cmd = ["cmake", "-S", str(HERE), "-B", str(out),
                   "-DCMAKE_BUILD_TYPE=Release", *flags]
            if subprocess.run(cmd, stdout=sys.stderr).returncode != 0:
                shutil.rmtree(out, ignore_errors=True)
                raise SystemExit(f"perfbench: cmake configure failed ({name})")
        cmd = ["cmake", "--build", str(out), "-j", jobs]
        if subprocess.run(cmd, stdout=sys.stderr).returncode != 0:
            raise SystemExit(f"perfbench: build failed ({name})")


def driver(variant="obs"):
    return str(BUILD / variant / "perfbench_driver")


def cli(variant="obs"):
    return str(BUILD / variant / "eac" / "examples" / "eac_cli")


def run_child(cmd):
    """Run cmd, returning (exit code, output text, wall s, rusage). Its
    standard error is merged into the output, which the driver's result
    line ends."""
    t0 = time.perf_counter()
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, stderr=subprocess.STDOUT,
                            cwd=ROOT)
    # Read the pipe to its end before reaping, then wait4 for the child's
    # own resource usage (peak RSS of that process alone, its CPU time).
    out = proc.stdout.read()
    proc.stdout.close()
    _, status, usage = os.wait4(proc.pid, 0)
    wall = time.perf_counter() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)
    return proc.returncode, out.decode(), wall, usage


def last_json(text):
    lines = [l for l in text.splitlines() if l.strip()]
    return json.loads(lines[-1]) if lines else None


def run_driver(mode, workload, seed, variant="obs", seconds=None):
    name = "fattree" if workload == "fattree_artifacts" else workload
    cmd = [driver(variant), mode, name, "--seed", str(seed)]
    if seconds is not None:
        cmd += ["--seconds", str(seconds)]
    code, out, wall, usage = run_child(cmd)
    if code != 0:
        sys.stderr.write(out)
        raise SystemExit(f"perfbench: driver {mode} {workload} exited {code}")
    for line in out.splitlines()[:-1]:  # the driver's failed checks, if any
        print(line)
    return last_json(out), usage


def median(v):
    return statistics.median(v) if v else 0.0


# --------------------------------------------------------------------------
# fattree_artifacts: eac_cli with --json, --telemetry and --trace together.
# --------------------------------------------------------------------------

def strip_observations(result):
    """A result without the recorders' own sections."""
    return {k: v for k, v in result.items()
            if k not in ("telemetry", "trace", "domains")}


def modelled_digest(result):
    """Digest of the modelled outputs: per-link utilization, per-group
    counters, delay percentiles, events."""
    keep = {k: result[k] for k in ("links", "groups", "total", "delay_p50_s",
                                   "delay_p99_s", "events")}
    blob = json.dumps(keep, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode()).hexdigest()[:16]


def check_conservation(result, errors):
    """accepts <= attempts, data_marked <= data_received, utilizations in
    [0, 1]. (data_received may exceed data_sent by packets in flight when
    the window opened; the fabric's buffers bound that far above these
    counts, so it is checked in the driver, which has the spec.)"""
    groups = dict(result["groups"])
    groups["total"] = result["total"]
    for g, c in groups.items():
        if c["accepts"] > c["attempts"]:
            errors.append(f"group {g}: accepts > attempts")
        if c["data_marked"] > c["data_received"]:
            errors.append(f"group {g}: data_marked > data_received")
    for link in result["links"]:
        u, p = link["utilization"], link["probe_utilization"]
        if not (0 <= u <= 1 and p >= 0 and u + p <= 1 + 1e-3):
            errors.append(f"{link['name']}: utilization {u} / probe {p}")


def check_telemetry(doc, errors):
    """Every telemetry point: flows.attempts == admitted + rejected."""
    series = {s["name"]: s["points"] for s in doc["result"]["telemetry"]["series"]}
    names = ("flows.attempts", "flows.admitted", "flows.rejected")
    if any(n not in series for n in names):
        errors.append("telemetry lacks the flows.* counters")
        return
    att, adm, rej = (series[n] for n in names)
    if not len(att) == len(adm) == len(rej) or not att:
        errors.append("telemetry flows.* series differ in length")
        return
    for i, (a, b, c) in enumerate(zip(att, adm, rej)):
        if a is None or b is None or c is None or a != b + c:
            errors.append(f"telemetry point {i}: attempts {a} != "
                          f"admitted {b} + rejected {c}")
            return


def file_digest(path):
    h = hashlib.sha256()
    with open(path, "rb") as f:
        for chunk in iter(lambda: f.read(1 << 20), b""):
            h.update(chunk)
    return h.hexdigest()


def capture_seeds(seed):
    """The fabrics of one fattree_artifacts job (the driver uses the same)."""
    return [CAPTURES * seed + i for i in range(CAPTURES)]


def capture(seed, workdir, variant="obs", artifacts=True):
    """One eac_cli invocation; returns (wall, cpu, maxrss KiB, paths, err)."""
    paths = {k: workdir / f"{k}.json" for k in ("json", "telemetry", "trace")}
    for p in paths.values():
        p.unlink(missing_ok=True)
    cmd = [cli(variant), *FATTREE_CLI, "--seed", str(seed)]
    if artifacts:
        cmd += ["--json", str(paths["json"]), "--telemetry", str(paths["telemetry"]),
                "--trace", f"{paths['trace']}:{TRACE_FILTER}",
                "--trace-limit", str(TRACE_LIMIT)]
    code, out, wall, usage = run_child(cmd)
    cpu = usage.ru_utime + usage.ru_stime
    problem = None
    if code != 0:
        problem = f"eac_cli exited {code}: {out.strip()[-300:]}"
    elif "dropped" in out:
        problem = f"trace ring dropped events: {out.strip()[-300:]}"
    return wall, cpu, usage.ru_maxrss, paths, problem


def check_capture(paths, reference, full):
    """Check one capture's artifacts; `full` adds trace_report.py --check.
    Later captures of a fabric in a run must reproduce its first capture
    (`reference`) byte for byte: trace and json files, and the telemetry
    file less its wall-clock profile.
    Returns (errors, (artifact identity, modelled digest))."""
    errors = []
    try:
        doc = json.loads(paths["json"].read_text())
        tel = json.loads(paths["telemetry"].read_text())
    except (OSError, ValueError) as e:
        return [f"unreadable artifact: {e}"], None
    check_conservation(doc["result"], errors)
    check_telemetry(tel, errors)
    if strip_observations(doc["result"]) != strip_observations(tel["result"]):
        errors.append("--json and --telemetry results differ: recording "
                      "perturbed the run")
    tel["result"]["telemetry"].pop("profile", None)
    ident = (file_digest(paths["trace"]), file_digest(paths["json"]),
             hashlib.sha256(json.dumps(tel, sort_keys=True).encode()).hexdigest())
    if full:
        cmd = [sys.executable, str(ROOT / "tools" / "trace_report.py"),
               "--check", "--quiet", str(paths["trace"])]
        res = subprocess.run(cmd, capture_output=True, text=True, cwd=ROOT)
        if res.returncode != 0:
            errors.append("trace_report.py --check failed: " +
                          (res.stderr or res.stdout).strip()[-300:])
    if reference is not None and ident != reference[0]:
        errors.append("artifacts differ from the first capture of the same inputs")
    return errors, (ident, modelled_digest(doc["result"]))


def fattree_job(seed, workdir, refs, res):
    """One job: a capture of each of its fabrics, checked; the run's first
    capture also by trace_report.py --check. Returns the job's (wall, cpu,
    [peak RSS KiB of each capture]) and counts operations into res."""
    wall = cpu = 0.0
    rss = []
    for s in capture_seeds(seed):
        w, c, maxrss, paths, problem = capture(s, workdir)
        wall, cpu = wall + w, cpu + c
        rss.append(maxrss)
        errors = [problem] if problem else []
        if not errors:
            errors, ident = check_capture(paths, refs.get(s), not refs)
            if ident is not None:
                refs.setdefault(s, ident)
        res["attempted"] += 1
        if errors:
            res["failed"] += 1
            res["correct"] = False
            res["messages"].append(errors[0])
    return wall, cpu, rss


def measure_fattree(seed, seconds, workdir):
    """Set-up samples and one checked in-process job from the driver, then
    whole eac_cli jobs until their measured time reaches `seconds`, with
    more set-up samples after each (checking happens outside that time)."""
    setup, _ = run_driver("measure", "fattree_artifacts", seed, seconds=0)
    res = {"setup_s": list(setup["setup_s"]), "wall_s": [], "cpu_s": [],
           "attempted": setup["attempted"], "failed": setup["failed"],
           "correct": setup["correct"],
           "messages": list(setup["messages"])}
    refs, rss = {}, []
    while True:
        wall, cpu, job_rss = fattree_job(seed, workdir, refs, res)
        res["wall_s"].append(wall)
        res["cpu_s"].append(cpu)
        rss += job_rss
        res["setup_s"] += run_driver("setup", "fattree_artifacts", seed)[0]["setup_s"]
        if sum(res["wall_s"]) + wall > seconds:
            break
    res["digest"] = hashlib.sha256(
        "".join(refs[s][1] for s in sorted(refs)).encode()).hexdigest()[:16]
    # A capture's peak RSS follows its fabric's traffic volume; the median
    # over the job's fabrics is the steadier figure.
    return res, median(rss)


# --------------------------------------------------------------------------
# The two passes.
# --------------------------------------------------------------------------

def untraced(workload, seed, seconds, workdir):
    if workload == "fattree_artifacts":
        res, rss_kib = measure_fattree(seed, seconds, workdir)
    else:
        res, usage = run_driver("measure", workload, seed, seconds=seconds)
        rss_kib = usage.ru_maxrss
    metrics = {
        "wall_s": (median(res["wall_s"]), "s"),
        "cpu_s": (median(res["cpu_s"]), "s"),
        "setup_s": (median(res["setup_s"]), "s"),
        "peak_rss_mib": (rss_kib / 1024.0, "MiB"),
    }
    print(f"digest {workload} seed={seed} {res['digest']}")
    print(f"jobs {len(res['wall_s'])} wall_s {res['wall_s']}")
    for m in res["messages"]:
        print(f"check: {m}")
    return res, metrics


# Units of the per-layer metrics (every one is printed on every workload;
# 0 where a layer does not take part, as README.md's table says).
PER_LAYER_UNITS = {
    "sim.events": "count", "sim.ns_per_event": "ns", "sim.max_pending": "count",
    "sim.other.self_ms": "ms", "sim.domain.rounds": "count",
    "sim.domain.stall_rounds": "count", "sim.domain.barrier_wait_fraction": "ratio",
    "sim.domain.imbalance": "ratio", "sim.domain.window_mean_us": "us",
    "sim.domain.speedup": "ratio", "net.self_ms": "ms", "net.events": "count",
    "net.queue_ops": "count", "net.link_ops": "count", "net.cross_msgs": "count",
    "net.inbox_peak": "count", "traffic.self_ms": "ms", "traffic.events": "count",
    "eac.probe.self_ms": "ms", "eac.probe.events": "count", "eac.probe_ops": "count",
    "eac.flows.self_ms": "ms", "eac.flows.events": "count", "eac.flow_ops": "count",
    "eac.rss_bytes_per_flow": "B", "mbac.self_ms": "ms", "mbac.events": "count",
    "scenario.topogen_ms": "ms", "scenario.partition_ms": "ms",
    "scenario.build_ms": "ms", "scenario.sweep.idle_fraction": "ratio",
    "scenario.sweep.point_s_p50": "s", "scenario.sweep.point_s_max": "s",
    "scenario.report_ms": "ms", "scenario.cli_rerun_factor": "ratio",
    "telemetry.record_overhead": "ratio", "trace.record_overhead": "ratio",
    "trace.export_ms": "ms", "trace.export_mib": "MiB", "obs.idle_overhead": "ratio",
    "obs.traced_overhead": "ratio",
}


def idle_overhead(workload, seed, workdir, pairs):
    """Default build over instrumentation-compiled-out build, same job,
    interleaved pairs, ratio of medians."""
    obs, bare = [], []
    for _ in range(pairs):
        for variant, acc in (("obs", obs), ("bare", bare)):
            if workload == "fattree_artifacts":
                acc.append(sum(capture(s, workdir, variant, artifacts=False)[0]
                               for s in capture_seeds(seed)))
            else:
                acc.append(run_driver("job", workload, seed, variant)[0]["wall_s"])
    return median(obs) / median(bare)


def traced(workload, seed, workdir):
    layers, _ = run_driver("traced", workload, seed)
    attempted, failed = int(layers.pop("attempted")), int(layers.pop("failed"))
    correct = bool(layers.pop("correct"))
    bare_run_ms = layers.pop("scenario.bare_run_ms")
    layers["scenario.cli_rerun_factor"] = 0.0
    if workload == "fattree_artifacts":
        # The CLI's capture of the first fabric against one bare in-process
        # run of the same spec (the driver's scenario.bare_run_ms).
        walls = []
        refs = {}
        for _ in range(3):
            w, _, _, paths, problem = capture(capture_seeds(seed)[0], workdir)
            walls.append(w)
            errors = [problem] if problem else []
            if not errors:
                errors, ident = check_capture(paths, refs.get(0), not refs)
                refs.setdefault(0, ident)
            attempted += 1
            if errors:
                failed += 1
                correct = False
                print(f"check: {errors[0]}")
        layers["scenario.cli_rerun_factor"] = 1e3 * median(walls) / bare_run_ms
        pairs = 5
    else:
        pairs = 3
    layers["obs.idle_overhead"] = idle_overhead(workload, seed, workdir, pairs)
    metrics = {k: (layers[k], PER_LAYER_UNITS[k]) for k in PER_LAYER_UNITS}
    return {"attempted": attempted, "failed": failed, "correct": correct}, metrics


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    build()
    workdir = BUILD / "tmp" / str(os.getpid())
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        if args.trace:
            res, metrics = traced(args.workload, args.seed, workdir)
        else:
            res, metrics = untraced(args.workload, args.seed, args.seconds, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    print(json.dumps({
        "correct": bool(res["correct"]),
        "attempted": int(res["attempted"]),
        "failed": int(res["failed"]),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))


if __name__ == "__main__":
    main()
