#!/usr/bin/env python3
"""Repository benchmark: build perfbench and run one workload.

    python3 perfbench/run.py --workload fig8-sweep --seed 1 --seconds 25 --trace 0

Run it from the repository root. It builds the Go harness in this
directory (module cache, build cache and binary all under the build
directory, `$CARGO_TARGET_DIR` or `.bench_build`), runs the workload in
a fresh process and prints, as the last line of standard output, one
JSON object with `correct`, `attempted`, `failed` and `metrics`.

--trace 0 reports the end-to-end metrics of one untraced run.
--trace 1 makes an untraced run and then a traced run (layer spans plus
a CPU profile of the timed section), and reports the per-layer metrics:
the traced run's spans and simulated counts, each layer's CPU share and
the tracing overhead. The line before the result holds the run's
context: seed, nproc, Go version, sample counts and output fingerprint.

See README.md for the workloads, the metrics and what each should move.
"""

import argparse
import json
import math
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("fig8-sweep", "replay-write", "replay-read")
BUILD_TIMEOUT_S = 840
RUN_TIMEOUT_S = 150

# Simulator packages reported as layers, by import path.
LAYERS = ("sim", "cpu", "cache", "coherence", "noc", "workloads", "core", "pcm",
          "dimm", "ecc", "mem", "stats", "system", "exp", "trace")
LAYER_PREFIX = "pcmap/internal/"

# A CPU sample whose stack contains one of these runtime functions is
# garbage-collector work (marking, assists, write-barrier flushes,
# sweeping, scavenging).
GC_FRAMES = ("runtime.gcBgMarkWorker", "runtime.gcAssistAlloc", "runtime.gcDrain",
             "runtime.gcMarkDone", "runtime.gcMarkTermination", "runtime.gcStart",
             "runtime.markroot", "runtime.wbBufFlush", "runtime.bgsweep",
             "runtime.sweepone", "runtime.bgscavenge", "runtime.gcStopTheWorldWithSema",
             "runtime.stopTheWorldWithSema", "runtime.(*sweepLocked).sweep")


# Frame of the harness's host-speed sampling (hostSpeed.sample), whose
# CPU samples are not simulator work.
HOST_SAMPLE_FRAME = "main.(*hostSpeed).sample"


def fail(msg):
    print("perfbench: " + msg, file=sys.stderr)
    sys.exit(1)


def go_env(bdir):
    """Environment that keeps every file the Go toolchain writes inside
    the build directory and never reaches the network."""
    tmp = os.path.join(bdir, "tmp")
    os.makedirs(tmp, exist_ok=True)
    env = dict(os.environ)
    env.update({
        "TMPDIR": tmp,
        "GOTMPDIR": tmp,
        "PPROF_TMPDIR": tmp,
        "GOCACHE": os.path.join(bdir, "gocache"),
        "GOMODCACHE": os.path.join(bdir, "gomodcache"),
        "GOPATH": os.path.join(bdir, "gopath"),
        "XDG_CONFIG_HOME": os.path.join(bdir, "config"),
        "GOTOOLCHAIN": "local",
        "GOPROXY": "off",
        "GOFLAGS": "",
        "GOWORK": "off",
        "CGO_ENABLED": "0",
    })
    return env


def build(bdir):
    """Build the harness; exit without a result if the simulator sources
    are missing or do not compile."""
    if not os.path.isfile(os.path.join(ROOT, "go.mod")):
        fail("no go.mod at %s: the simulator sources are missing" % ROOT)
    binary = os.path.join(bdir, "perfbench")
    try:
        p = subprocess.run(["go", "build", "-o", binary, "."], cwd=HERE, env=go_env(bdir),
                           capture_output=True, text=True, timeout=BUILD_TIMEOUT_S)
    except (OSError, subprocess.TimeoutExpired) as e:
        fail("build: %s" % e)
    if p.returncode != 0:
        fail("build failed:\n" + p.stderr)
    return binary


def run_child(binary, args, extra=()):
    """Run one perfbench process and return its parsed report."""
    cmd = [binary, "-workload", args.workload, "-seed", str(args.seed),
           "-seconds", str(args.seconds)] + list(extra)
    try:
        p = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=RUN_TIMEOUT_S)
    except (OSError, subprocess.TimeoutExpired) as e:
        fail("run: %s" % e)
    sys.stderr.write(p.stderr)
    if p.returncode != 0:
        fail("%s exited with %d" % (args.workload, p.returncode))
    return json.loads(p.stdout.strip().splitlines()[-1])


def frame_package(frame):
    """Import path of the function named by a pprof frame."""
    name = frame.split(" (inline)")[0].strip()
    slash = name.rfind("/")
    dot = name.find(".", slash + 1)
    return name[:dot] if dot >= 0 else name


def bucket(stack):
    """Layer a CPU sample is charged to, or None for the harness's
    host-speed samples, which are left out. GC work goes to runtime_gc.
    Any other sample goes to the innermost simulator-layer frame, so
    runtime and standard-library helpers (allocation, map access,
    copying) count toward the layer that called them; samples with no
    simulator frame go to other."""
    if any(f.strip().startswith(HOST_SAMPLE_FRAME) for f in stack):
        return None
    if any(f.split(" (inline)")[0].strip().startswith(GC_FRAMES) for f in stack):
        return "runtime_gc"
    for f in stack:
        pkg = frame_package(f)
        if pkg.startswith(LAYER_PREFIX):
            layer = pkg[len(LAYER_PREFIX):]
            return layer if layer in LAYERS else "other"
    return "other"


def parse_duration_ms(text):
    units = {"ns": 1e-6, "us": 1e-3, "µs": 1e-3, "ms": 1.0, "s": 1e3, "min": 6e4, "h": 3.6e6}
    for u in sorted(units, key=len, reverse=True):
        if text.endswith(u):
            return float(text[:-len(u)]) * units[u]
    raise ValueError("bad duration %r" % text)


def cpu_shares(binary, profile, bdir):
    """Per-layer share (percent) of the profile's CPU time, from
    `go tool pprof -traces`, with the profiled CPU milliseconds."""
    p = subprocess.run(["go", "tool", "pprof", "-traces", binary, profile], cwd=ROOT,
                       env=go_env(bdir), capture_output=True, text=True, timeout=RUN_TIMEOUT_S)
    if p.returncode != 0:
        fail("pprof failed:\n" + p.stderr)
    totals = {layer: 0.0 for layer in LAYERS + ("runtime_gc", "other")}
    value, stack = None, []

    def flush():
        layer = bucket(stack) if value is not None and stack else None
        if layer is not None:
            totals[layer] += value

    for line in p.stdout.splitlines():
        if line.startswith("-----------+"):
            flush()
            value, stack = None, []
            continue
        if value is None:
            parts = line.split()
            if len(parts) == 2 and parts[0][0].isdigit():
                value, stack = parse_duration_ms(parts[0]), [parts[1]]
        elif line.strip():
            stack.append(line.strip())
    flush()
    total = sum(totals.values())
    if total <= 0:
        fail("CPU profile holds no samples")
    return {("cpu_share." + k): 100.0 * v / total for k, v in totals.items()}, total


def declared_metrics(kind):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    return [(m["name"], m["unit"]) for m in bench[kind]]


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    if args.seed < 0 or args.seconds < 1:
        fail("--seed must be >= 0 and --seconds >= 1")

    bdir = os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    binary = build(bdir)
    plain = run_child(binary, args)
    reports = [plain]
    values = dict(plain["end_to_end"])
    info = {"seed": args.seed, "nproc": plain["nproc"], "go_version": plain["go_version"],
            "fingerprint": plain["fingerprint"], "units": plain["units"],
            "sim_s_samples": plain["items"], "timed_s": plain["timed_s"],
            "host_factor": plain["host_factor"], "host_samples": plain["host_samples"],
            "job_cpu_s": plain["job_cpu_s"], "setup_rounds": plain["setup_rounds"]}
    kind = "end_to_end"
    if args.trace:
        kind = "per_layer"
        tag = "%s-%d" % (args.workload, args.seed)
        spans_file = os.path.join(bdir, "spans-%s.json" % tag)
        prof_file = os.path.join(bdir, "cpu-%s.pprof" % tag)
        traced = run_child(binary, args, ["-spans", spans_file, "-cpuprofile", prof_file])
        reports.append(traced)
        values = dict(traced["layers"])
        shares, profiled_ms = cpu_shares(binary, prof_file, bdir)
        values.update(shares)
        values["trace_overhead_pct"] = 100.0 * (traced["end_to_end"]["job_s"] / plain["end_to_end"]["job_s"] - 1)
        info.update({"traced_fingerprint": traced["fingerprint"], "cpu_profile_ms": profiled_ms,
                     "spans_file": os.path.relpath(spans_file, ROOT),
                     "traced_job_s": traced["end_to_end"]["job_s"],
                     "untraced_job_s": plain["end_to_end"]["job_s"]})

    attempted = sum(r["attempted"] for r in reports)
    failed = sum(r["failed"] for r in reports)
    failures = [f for r in reports for f in r.get("failures") or []]
    if len({r["fingerprint"] for r in reports}) != 1:
        failures.append("traced and untraced runs produced different outputs")
        failed += reports[-1]["attempted"]
    metrics = {}
    for name, unit in declared_metrics(kind):
        v = values.get(name)
        if v is None or not math.isfinite(v):
            failures.append("metric %s missing" % name)
            continue
        metrics[name] = {"value": v, "unit": unit}
    info["fail_frac"] = failed / attempted if attempted else 1.0
    if failures:
        info["failures"] = failures
    print(json.dumps(info, sort_keys=True))
    print(json.dumps({"correct": not failures and failed == 0 and attempted > 0,
                      "attempted": attempted, "failed": failed, "metrics": metrics}))


if __name__ == "__main__":
    main()
