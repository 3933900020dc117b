#!/usr/bin/env python3
"""The repository benchmark: end-to-end and per-layer metrics of the LLC
simulation stack on three workloads.

Run from the root of a checkout:

    python3 perfbench/run.py --workload sweep-fps --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload serve-mixed --seed 1 --seconds 20 --trace 1
    python3 perfbench/run.py --steady 5 --workload profile-stream --seconds 20

One run builds the `perfbench` measuring binary (this directory's Cargo
package) and the `grserved` daemon, measures the workload for `--seconds`,
checks every output, and prints one JSON object as its last line:
`{"correct", "attempted", "failed", "metrics"}`. `--trace 0` reports the
end-to-end metrics of BENCHMARK.json; `--trace 1` is a separate run of the
same seed that reports the per-layer metrics. `--steady N` runs the
workload N times on seeds 1..N and prints each end-to-end metric's median,
quartiles and spread next to its bound.

Every time reported is host wall time. Simulated quantities (misses, FPS,
row-hit rate) are exact counts used only to check that results did not
change; the timing model is not validated against hardware, so no error
figure is reported.
"""

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
TARGET = ROOT / os.environ.get("CARGO_TARGET_DIR", ".bench_build")
WORK = ROOT / ".bench_work"
PERFBENCH = TARGET / "release" / "perfbench"
GRSERVED = TARGET / "release" / "grserved"

# Seeded (policy, app) pairs replayed through the reference oracle, stream
# cells re-rendered in memory, and served results re-executed offline.
SWEEP_CHECKS = 2
STREAM_CHECKS = 4
SERVE_CHECKS = 12
# Daemon start-ups measured per serve run; set-up reports their median.
SERVE_SETUPS = 5
# Of those daemons, how many serve a timed run of the same schedule.
SERVE_REPEATS = 3
CHILD_TIMEOUT_S = 170


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def child_env(**extra):
    """The environment without any simulator knob, plus `extra`."""
    env = {k: v for k, v in os.environ.items() if not k.startswith("GR_")}
    env.update(extra)
    return env


def build():
    cargo = ["cargo", "build", "--release", "--quiet"]
    env = dict(os.environ, CARGO_TARGET_DIR=str(TARGET))
    for cmd in (
        cargo + ["--manifest-path", str(HERE / "Cargo.toml")],
        cargo + ["--manifest-path", str(ROOT / "Cargo.toml"), "-p", "grserve", "--bin", "grserved"],
    ):
        if subprocess.run(cmd, cwd=ROOT, env=env, stdout=sys.stderr).returncode != 0:
            raise SystemExit("build failed: " + " ".join(cmd))


def fresh_dir(name):
    path = WORK / name
    shutil.rmtree(path, ignore_errors=True)
    path.mkdir(parents=True)
    return path


def measure(args, env, started=None, on_ready=None):
    """Runs one `perfbench` pass. Returns (set-up seconds, document): set-up
    runs from `started` (default: the spawn) until the child reports that
    timing starts, when `on_ready` (if given) is called."""
    started = time.perf_counter() if started is None else started
    child = subprocess.Popen([str(PERFBENCH)] + args, cwd=ROOT, env=env, stdout=subprocess.PIPE, text=True)
    # Read through the same buffered stream readline() filled; a watchdog
    # bounds the whole pass.
    watchdog = threading.Timer(CHILD_TIMEOUT_S, child.kill)
    watchdog.start()
    try:
        first = child.stdout.readline()
        setup = time.perf_counter() - started
        if on_ready is not None and first.strip() == "ready":
            on_ready()
        rest = child.stdout.read()
        child.wait()
    finally:
        watchdog.cancel()
        if child.poll() is None:
            child.kill()
            child.wait()
    if first.strip() != "ready" or child.returncode != 0:
        raise SystemExit(f"perfbench {args[0]} failed (exit {child.returncode})")
    return setup, json.loads(rest)


def median(values):
    return statistics.median(values) if values else 0.0


def percentile(values, q):
    """The q-quantile by the nearest-rank rule."""
    if not values:
        return 0.0
    ordered = sorted(values)
    return ordered[min(len(ordered) - 1, int(q * len(ordered)))]


class Run:
    """What one benchmark invocation accumulates."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.problems = []
        self.e2e = {}
        self.layers = {}
        self.notes = []

    def require(self, ok, problem):
        if not ok:
            self.problems.append(problem)


def sweep_fps(seed, seconds, trace, run):
    """Cold paper sweep: each pass is a fresh process, so its frame cache
    starts empty."""
    setups, docs = [], []
    started = time.perf_counter()
    while not docs or (not trace and time.perf_counter() - started < seconds):
        args = ["sweep", "--seed", str(seed), "--check", str(SWEEP_CHECKS if not docs else 0)]
        if trace:
            args += ["--trace", "--spans", str(WORK / f"spans-sweep-fps-{seed}.jsonl")]
        setup, doc = measure(args, child_env())
        setups.append(setup)
        docs.append(doc)
    for doc in docs:
        run.attempted += doc["cells"]
        run.failed += doc["check_failures"]
    run.require(len({d["digest"] for d in docs}) == 1, "sweep results differ between passes")
    run.notes.append(
        f"sweep-fps: {len(docs)} cold passes x {docs[0]['cells']} cells, LLC {docs[0]['llc_mb']} MB; "
        f"oracle checked {docs[0]['checked']} (policy, app) pairs, "
        f"skipped {docs[0]['skipped']} policies without an oracle"
    )
    # The host's speed drifts; each metric keeps the run's fastest pass,
    # the one least disturbed by other tenants.
    run.e2e = {
        "setup_s": median(setups),
        "sim_acc_per_s": max(d["accesses"] / d["wall_s"] for d in docs),
        "peak_rss_mb": median([d["peak_rss_mb"] for d in docs]),
        "job_p50_ms": min(d["wall_s"] for d in docs) * 1e3,
    }
    run.notes.append(f"one job is one cold sweep pass; metrics keep the fastest of {len(docs)} passes")
    if trace:
        doc = docs[0]
        run.require(doc["trace_matches"], "traced sweep results differ from run_workload")
        run.layers = doc["layers"]


def profile_stream(seed, seconds, trace, run):
    """Cold frame-graph stream: each pass is a fresh process with a fresh,
    empty trace-cache directory."""
    setups, docs = [], []
    started = time.perf_counter()
    while not docs or (not trace and time.perf_counter() - started < seconds):
        cache = fresh_dir("stream-cache")
        args = ["stream", "--seed", str(seed), "--check", str(STREAM_CHECKS if not docs else 0)]
        if trace:
            args += ["--trace", "--spans", str(WORK / f"spans-profile-stream-{seed}.jsonl")]
        setup, doc = measure(args, child_env(GR_TRACE_CACHE=str(cache), GR_STREAMED="1"))
        shutil.rmtree(cache, ignore_errors=True)
        setups.append(setup)
        docs.append(doc)
    for doc in docs:
        run.attempted += doc["cells"]
        run.failed += doc["check_failures"]
        run.require(doc["frames_synthesized"] == doc["cells"], "a stream pass was not cold")
    run.require(len({d["misses"] for d in docs}) == 1, "stream results differ between passes")
    run.notes.append(
        f"profile-stream: {len(docs)} cold passes x {docs[0]['cells']} cells; "
        f"{docs[0]['checked']} cells checked against in-memory replay"
    )
    # Each cell's fastest pass, and the fastest whole pass: the host's
    # speed drifts, and the fastest repeat is the least disturbed one.
    fastest = [min(d["cell_ms"][i] for d in docs) for i in range(len(docs[0]["cell_ms"]))]
    run.e2e = {
        "setup_s": median(setups),
        "sim_acc_per_s": max(d["accesses"] / d["wall_s"] for d in docs),
        "peak_rss_mb": median([d["peak_rss_mb"] for d in docs]),
        "job_p50_ms": median(fastest),
    }
    run.notes.append(
        f"one job is one cold cell (n={len(fastest)}), timed at its fastest of {len(docs)} passes"
    )
    if trace:
        doc = docs[0]
        run.require(doc["trace_matches"], "traced stream results differ from the streamed run")
        run.layers = doc["layers"]


def vm_hwm_mb(pid):
    for line in Path(f"/proc/{pid}/status").read_text().splitlines():
        if line.startswith("VmHWM:"):
            return int(line.split()[1]) / 1024.0
    raise SystemExit("daemon status has no VmHWM")


class Daemon:
    """A `grserved` with one worker and a fresh result-cache directory
    holding a copy of `stored`. Its stdin is a pipe: closing it drains the
    daemon and it exits."""

    def __init__(self, stored):
        work = fresh_dir("serve")
        shutil.copytree(stored, work / "results")
        port_file = work / "port"
        self.proc = subprocess.Popen(
            [str(GRSERVED), "--addr", "127.0.0.1:0", "--workers", "1", "--queue-cap", "100000",
             "--result-cache", str(work / "results"), "--port-file", str(port_file),
             "--linger-ms", "0", "--exit-on-parent-close"],
            cwd=ROOT, env=child_env(GR_SCALE="quarter"), stdin=subprocess.PIPE,
            stdout=subprocess.DEVNULL,
        )
        deadline = time.monotonic() + 30
        while not (port_file.exists() and port_file.read_text().strip()):
            if self.proc.poll() is not None or time.monotonic() > deadline:
                self.stop()
                raise SystemExit("grserved did not start")
            time.sleep(0.002)
        self.addr = port_file.read_text().strip()

    def stop(self):
        if self.proc.poll() is None:
            self.proc.stdin.close()
            try:
                self.proc.wait(timeout=60)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()


def daemon_cpu_s(pid):
    """User plus system CPU seconds the process has used so far."""
    fields = Path(f"/proc/{pid}/stat").read_text().rpartition(")")[2].split()
    return (int(fields[11]) + int(fields[12])) / os.sysconf("SC_CLK_TCK")


def serve_mixed(seed, seconds, trace, run):
    """Open loop against spawned daemons. The `stored` results are made
    once; each set-up (copying them into a fresh result cache, daemon
    start, warming every app's frame 0) is measured, and the last
    SERVE_REPEATS daemons each serve one timed run of the same schedule."""
    part = seconds / SERVE_REPEATS
    store = fresh_dir("serve-store")
    measure(["serve-store", "--seed", str(seed), "--seconds", str(part), "--dir", str(store)],
            child_env())
    setups, docs, rss, cpu = [], [], [], []
    for i in range(SERVE_SETUPS):
        timed = i >= SERVE_SETUPS - SERVE_REPEATS
        started = time.perf_counter()
        daemon = Daemon(store)
        try:
            args = ["serve", "--addr", daemon.addr, "--seed", str(seed),
                    "--seconds", str(part if timed else 0), "--check", str(SERVE_CHECKS)]
            cpu_at_ready = []
            setup, doc = measure(args, child_env(), started,
                                 lambda: cpu_at_ready.append(daemon_cpu_s(daemon.proc.pid)))
            setups.append(setup)
            if timed:
                docs.append(doc)
                rss.append(vm_hwm_mb(daemon.proc.pid))
                cpu.append(daemon_cpu_s(daemon.proc.pid) - cpu_at_ready[0])
        finally:
            daemon.stop()
        run.require(daemon.proc.returncode == 0, f"grserved exited {daemon.proc.returncode}")

    classes = ("synth", "replay", "hit", "stored")
    lat = {c: [x for d in docs for x in d[f"latency_ms.{c}"]] for c in classes}
    every = [x for c in classes for x in lat[c]]

    def pooled(key):
        return [x for d in docs for x in d[key]]

    def total(key):
        return sum(d[key] for d in docs)

    for doc in docs:
        run.attempted += doc["sent"]
        run.failed += doc["failed_requests"] + int(doc["rejected"]) + doc["check_failures"]
        run.require(doc["executions"] == doc["cold_sent"], "executions differ from cold requests sent")
        run.require(doc["cache_hits_disk"] == doc["stored_sent"],
                    "disk result-cache hits differ from stored requests sent")
    doc = docs[0]
    run.notes.append(
        f"serve-mixed: {SERVE_REPEATS} runs x {doc['sent']} requests, {doc['cold_sent']} cold, "
        f"{doc['stored_sent']} from the disk result cache; {total('checked')} results compared "
        f"with offline execution; generator late p99 {max(d['late_p99_ms'] for d in docs):.3f} ms "
        f"(limit {doc['lateness_limit_ms']} ms)"
    )
    # The host's speed drifts; each metric keeps the run least disturbed
    # by other tenants.
    run.e2e = {
        "setup_s": median(setups),
        "sim_acc_per_s": max(d["accesses"] / c for d, c in zip(docs, cpu)),
        "peak_rss_mb": median(rss),
        "job_p50_ms": min(median(d["latency_ms.all"]) for d in docs),
    }
    run.notes.append(
        f"job_p50_ms: one job is one request of any class, due time to result fetched; "
        f"lowest whole-run median of {SERVE_REPEATS} runs; sim_acc_per_s: replay accesses "
        f"per daemon CPU second, highest of the runs"
    )
    run.notes.append(
        f"daemon CPU per cold request: "
        + ", ".join(f"{c / d['executions'] * 1e3:.2f} ms" for d, c in zip(docs, cpu))
        + f" (offered {docs[0]['sent'] / docs[0]['wall_s']:.1f} requests/s, "
        f"{docs[0]['cold_sent'] / docs[0]['sent']:.0%} cold)"
    )
    for c in classes:
        run.notes.append(
            f"  {c}: n={len(lat[c])} p50 {percentile(lat[c], 0.5):.3f} ms p90 {percentile(lat[c], 0.9):.3f} ms"
        )
    if not trace:
        return
    polls = pooled("polls")
    layers = {
        "grserve.synth_job_p50_ms": percentile(lat["synth"], 0.5),
        "grserve.synth_job_p90_ms": percentile(lat["synth"], 0.9),
        "grserve.replay_job_p50_ms": percentile(lat["replay"], 0.5),
        "grserve.replay_job_p90_ms": percentile(lat["replay"], 0.9),
        "grserve.hit_p50_ms": percentile(lat["hit"], 0.5),
        "grserve.stored_hit_p50_ms": percentile(lat["stored"], 0.5),
        "grserve.samples.synth": len(lat["synth"]),
        "grserve.samples.replay": len(lat["replay"]),
        "grserve.samples.hit": len(lat["hit"]),
        "grserve.samples.stored": len(lat["stored"]),
        "grserve.achieved_rps": len(every) / total("wall_s"),
        "grserve.client.late_p99_ms": max(d["late_p99_ms"] for d in docs),
        "grserve.http.submit_ms": median(pooled("submit_ms")),
        "grserve.http.result_ms": median(pooled("result_ms")),
        "grserve.http.polls_per_job": statistics.fmean(polls) if polls else 0.0,
        "grserve.queue.wait_ms": median(pooled("queue_wait_ms")),
        "grserve.executions": total("executions"),
        "grserve.coalesced": total("coalesced"),
        "grserve.rejected": total("rejected"),
        "grserve.cache_hits.memory": total("cache_hits_memory"),
        "grserve.cache_hits.disk": total("cache_hits_disk"),
    }
    spans = WORK / f"spans-serve-mixed-{seed}.jsonl"
    work = fresh_dir("serve-trace")
    for name in ("bare", "traced"):
        shutil.copytree(store, work / name)
    _, traced = measure(["serve-trace", "--seed", str(seed), "--seconds", str(part),
                         "--dir", str(work), "--spans", str(spans)],
                        child_env())
    shutil.rmtree(work, ignore_errors=True)
    run.require(traced["trace_matches"], "traced serve payloads differ from the bare pass")
    layers.update(traced["layers"])
    run.layers = layers


WORKLOADS = {
    "sweep-fps": sweep_fps,
    "profile-stream": profile_stream,
    "serve-mixed": serve_mixed,
}


def one_run(workload, seed, seconds, trace):
    run = Run()
    WORKLOADS[workload](seed, seconds, trace, run)
    if trace:
        wanted = SPEC["per_layer"]
        metrics = {m["name"]: {"value": run.layers.get(m["name"], 0), "unit": m["unit"]} for m in wanted}
    else:
        wanted = SPEC["end_to_end"]
        metrics = {m["name"]: {"value": run.e2e[m["name"]], "unit": m["unit"]} for m in wanted}
    for note in run.notes:
        print(note)
    for name, m in metrics.items():
        print(f"{name} {m['value']} {m['unit']}")
    print(f"failed_frac {run.failed / max(run.attempted, 1)} ({run.failed}/{run.attempted})")
    for problem in run.problems:
        log("check failed: " + problem)
    correct = not run.problems and run.failed == 0
    return {"correct": correct, "attempted": run.attempted, "failed": run.failed, "metrics": metrics}


def steadiness(workload, runs, seconds):
    """Runs the workload on seeds 1..runs and prints, per end-to-end metric,
    the median, quartiles and spread (interquartile range over median)
    next to the metric's bound."""
    values = {m["name"]: [] for m in SPEC["end_to_end"]}
    for seed in range(1, runs + 1):
        result = one_run(workload, seed, seconds, trace=False)
        if not result["correct"]:
            raise SystemExit(f"seed {seed}: outputs failed their checks")
        for name in values:
            values[name].append(result["metrics"][name]["value"])
    print(f"{workload}: {runs} runs of {seconds} s")
    for m in SPEC["end_to_end"]:
        v = values[m["name"]]
        q1, q2, q3 = statistics.quantiles(v, n=4)
        spread = (q3 - q1) / q2
        verdict = "ok" if spread <= m["bound"] / 3 else ("within bound" if spread <= m["bound"] else "TOO WIDE")
        print(f"  {m['name']:<16} median {q2:.6g} {m['unit']}  q1 {q1:.6g}  q3 {q3:.6g}  "
              f"spread {spread:.4f}  bound {m['bound']}  {verdict}")
    print(json.dumps({"workload": workload, "values": values}))


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=SPEC["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--steady", type=int, default=0, metavar="N")
    args = parser.parse_args()

    build()
    WORK.mkdir(parents=True, exist_ok=True)
    if args.steady:
        steadiness(args.workload, args.steady, args.seconds)
        return
    result = one_run(args.workload, args.seed, args.seconds, bool(args.trace))
    print(json.dumps(result))


if __name__ == "__main__":
    main()
