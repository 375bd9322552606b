#!/usr/bin/env python3
"""End-to-end smoke checks, registered with ctest under the `smoke` label.

Each subcommand runs one binary, writes what it produces into OUT_DIR and
checks it; any failed assertion or non-zero binary exit fails the check.
tests/CMakeLists.txt passes the binary paths, the output directory (inside
the build tree) and the ACCMG_BENCH_SCALE each bench runs at:

    smoke_check.py mapper-adapt     BENCH_MAPPER_ADAPT     OUT_DIR
    smoke_check.py comm-hotpath     BENCH_COMM_HOTPATH     OUT_DIR
    smoke_check.py chaos-recovery   BENCH_CHAOS_RECOVERY   OUT_DIR
    smoke_check.py serve-saturation BENCH_SERVE_SATURATION OUT_DIR
    smoke_check.py async-overlap    BENCH_ASYNC_OVERLAP    OUT_DIR
    smoke_check.py serve-drive      ACCMGC_SERVE           OUT_DIR
    smoke_check.py chaos-drive      ACCMGC_SERVE           OUT_DIR
    smoke_check.py fig8-trace       BENCH_FIG8_BREAKDOWN   OUT_DIR
    smoke_check.py compile-trace    ACCMGC                 OUT_DIR
    smoke_check.py opt-trace        ACCMGC                 OUT_DIR

Run them all with `ctest -L smoke`.
"""
import json
import os
import re
import subprocess
import sys


def run(cmd, **kwargs):
    """Runs `cmd`; a non-zero exit fails the check with the binary's code."""
    print("+ " + " ".join(cmd), flush=True)
    code = subprocess.run(cmd, **kwargs).returncode
    if code != 0:
        sys.exit(f"{os.path.basename(cmd[0])} exited with status {code}")


# --- bench self-gates plus result schemas ---------------------------------

# bench_mapper_adapt self-gates: on a node with skewed device speeds the
# measured mapper must stay bit-identical to the equal split and strictly
# beat its throughput (exit 1 on any violation).
def mapper_adapt(bench, out_dir):
    path = os.path.join(out_dir, "bench_mapper_adapt.json")
    run([bench, f"--json={path}"])
    with open(path) as f:
        rows = json.load(f)
    assert isinstance(rows, list) and rows, "no benchmark rows"
    required = {"app": str, "gpus": int, "mapper": str,
                "total_s": (int, float), "kernels_s": (int, float),
                "gpu_gpu_s": (int, float), "rebalances": int,
                "speedup_vs_equal": (int, float)}
    for row in rows:
        for key, ty in required.items():
            assert key in row, f"missing key {key}: {row}"
            assert isinstance(row[key], ty), f"bad type for {key}: {row}"
        assert row["total_s"] > 0
        if row["mapper"] == "measured":
            assert row["speedup_vs_equal"] > 1.0, f"no speedup: {row}"
            assert row["rebalances"] > 0, f"mapper never adapted: {row}"
    apps = {r["app"] for r in rows}
    assert apps == {"heat2d", "lattice"}, apps
    print(f"{len(rows)} rows OK across apps {sorted(apps)}")


def comm_hotpath(bench, out_dir):
    path = os.path.join(out_dir, "bench_comm_hotpath.json")
    run([bench, "--quick", f"--out={path}"])
    with open(path) as f:
        results = json.load(f)
    assert isinstance(results, list) and results, "no benchmark cases"
    required = {"phase": str, "gpus": int, "density": (int, float),
                "elements": int, "reference_ms": (int, float),
                "optimized_ms": (int, float), "speedup": (int, float)}
    phases = set()
    for case in results:
        for key, ty in required.items():
            assert key in case, f"missing key {key}: {case}"
            assert isinstance(case[key], ty), f"bad type for {key}: {case}"
        assert case["optimized_ms"] > 0 and case["reference_ms"] > 0
        phases.add(case["phase"])
    assert phases == {"dirty-merge", "miss-replay", "reduction"}, phases
    print(f"{len(results)} cases OK across phases {sorted(phases)}")


def chaos_recovery(bench, out_dir):
    path = os.path.join(out_dir, "bench_chaos_recovery.json")
    run([bench, "--quick", f"--out={path}"])
    with open(path) as f:
        data = json.load(f)
    assert data["ok"] is True, "bench self-check failed"
    levels = data["levels"]
    required = {"level": str, "plan": str, "jobs": int, "done": int,
                "failed": int, "injected": int, "retries": int,
                "degraded": int, "failures": int, "stalls": int,
                "wall_s": (int, float),
                "goodput_jobs_per_sec": (int, float),
                "mean_sim_s": (int, float),
                "sim_overhead_vs_clean": (int, float),
                "identity_ok": bool}
    names = [row["level"] for row in levels]
    assert names == ["clean", "transient", "stalls", "device-loss"], names
    for row in levels:
        for key, ty in required.items():
            assert key in row, f"missing key {key}: {row}"
            assert isinstance(row[key], ty), f"bad type for {key}: {row}"
        assert row["identity_ok"], f"accounting identity broke: {row}"
        assert row["done"] > 0, f"zero goodput: {row}"
    clean = levels[0]
    assert clean["injected"] == 0, clean
    faulted = sum(r["injected"] for r in levels[1:])
    assert faulted > 0, "no faults injected in any faulted level"
    print(f"{len(levels)} levels OK, {faulted} faults injected")


def serve_saturation(bench, out_dir):
    path = os.path.join(out_dir, "bench_serve_saturation.json")
    run([bench, "--quick", f"--out={path}"])
    with open(path) as f:
        json.load(f)


def async_overlap(bench, out_dir):
    path = os.path.join(out_dir, "bench_async_overlap.json")
    run([bench, f"--json={path}"])
    with open(path) as f:
        rows = json.load(f)
    assert isinstance(rows, list) and rows, "no benchmark rows"
    required = {"gpus": int, "mode": str, "gpu_gpu_s": (int, float),
                "cpu_gpu_s": (int, float), "kernels_s": (int, float),
                "total_s": (int, float), "comm_share": (int, float),
                "p2p_transfers": int, "p2p_bytes": int}
    modes = {(r["gpus"], r["mode"]) for r in rows}
    for row in rows:
        for key, ty in required.items():
            assert key in row, f"missing key {key}: {row}"
            assert isinstance(row[key], ty), f"bad type for {key}: {row}"
        assert row["total_s"] > 0
    for gpus in (1, 2, 4):
        assert (gpus, "sync") in modes and (gpus, "async") in modes, modes
    print(f"{len(rows)} rows OK")


# --- the resident service over its wire protocol --------------------------

def drive(serve, out_dir, name, script, flags):
    """Feeds `script` to accmgc_serve and returns its output lines."""
    input_path = os.path.join(out_dir, f"{name}_input.txt")
    output_path = os.path.join(out_dir, f"{name}_output.txt")
    with open(input_path, "w") as f:
        f.write("".join(line + "\n" for line in script))
    with open(input_path) as stdin, open(output_path, "w") as stdout:
        run([serve, "--gpus=4", "--workers=2"] + flags, stdin=stdin,
            stdout=stdout)
    with open(output_path) as f:
        text = f.read()
    print(text, end="")
    return text.splitlines()


def serve_drive(serve, out_dir):
    script = []
    job = 0
    # Cold sweep: every app on 1/2/4 GPUs, validated against the native
    # references. result N blocks, so this serializes.
    for app in ("md", "kmeans", "bfs", "spmv"):
        for g in (1, 2, 4):
            script.append(f"submit app={app} gpus={g} validate=1")
            script.append(f"result {job}")
            job += 1
    script.append("metrics")
    # Warm resubmits of the same 12 jobs: zero compiles expected.
    for app in ("md", "kmeans", "bfs", "spmv"):
        for g in (1, 2, 4):
            script.append(f"submit app={app} gpus={g} validate=1")
            script.append(f"result {job}")
            job += 1
    script.append("metrics")
    script.append("quit")
    lines = drive(serve, out_dir, "serve", script, [])

    results = {}
    snapshots, current = [], {}
    for line in lines:
        m = re.match(r"result (\d+) (done|failed)", line)
        if m:
            results[int(m.group(1))] = (m.group(2), line)
        m = re.match(r"(?:counter|gauge)\s+(\S+)\s+(\S+)", line)
        if m:
            current[m.group(1)] = float(m.group(2))
        if line == "end":
            snapshots.append(dict(current))

    assert len(results) == 24, f"expected 24 results, got {len(results)}"
    for job, (state, line) in sorted(results.items()):
        assert state == "done", f"job {job} failed: {line}"
        assert " check=ok" in line, f"job {job} not validated ok: {line}"
    # The 12 warm resubmits must all be served from the cache.
    for job in range(12, 24):
        assert "cache=hit" in results[job][1], results[job][1]

    assert len(snapshots) == 2, "expected 2 metrics snapshots"
    cold, warm = snapshots
    # 4 distinct programs (gpus is not part of the cache key).
    assert cold["service.cache.compiles"] == 4, cold
    compiled = warm["service.cache.compiles"] - cold["service.cache.compiles"]
    assert compiled == 0, f"warm resubmits compiled {compiled} times"
    hits = warm["service.cache.hits"] - cold["service.cache.hits"]
    assert hits == 12, f"expected 12 warm cache hits, got {hits}"
    assert warm["service.jobs.completed"] == 24, warm
    assert warm["service.jobs.failed"] == 0, warm
    print("serve smoke OK: 24 jobs done, 0 warm compiles, 12 warm hits")


def chaos_drive(serve, out_dir):
    script = []
    job = 0
    # 20 validated jobs under injected kernel/transfer faults and up to two
    # permanent device deaths. Every result wait is bounded, so a hung job
    # surfaces as a typed timeout reply instead of wedging the check.
    for _ in range(5):
        for app in ("md", "kmeans", "bfs", "spmv"):
            script.append(f"submit app={app} gpus=2 validate=1")
            script.append(f"result {job} 60000")
            job += 1
    script.append("metrics")
    script.append("quit")
    lines = drive(serve, out_dir, "chaos", script, [
        "--fault-plan=seed=5,kernel=0.03,transfer=0.03,death=0.02,"
        "max-deaths=2",
        "--job-retries=3", "--deadline-ms=60000"])

    submitted = set()
    results = {}
    metrics = {}
    for line in lines:
        m = re.match(r"job (\d+)$", line)
        if m:
            submitted.add(int(m.group(1)))
        m = re.match(r"result (\d+) (done|failed|timeout)", line)
        if m:
            results[int(m.group(1))] = (m.group(2), line)
        m = re.match(r"(?:counter|gauge)\s+(\S+)\s+(\S+)", line)
        if m:
            metrics[m.group(1)] = float(m.group(2))

    assert submitted, "no jobs were admitted"
    # Zero hung jobs: every admitted job produced a final result
    # within its bounded wait — never a timeout reply.
    for job in sorted(submitted):
        assert job in results, f"job {job} never produced a result"
        state, line = results[job]
        assert state != "timeout", f"job {job} hung: {line}"
        if state == "done":
            assert " check=ok" in line, f"job {job} not validated: {line}"
        else:
            assert " kind=" in line, f"untyped failure: {line}"

    injected = metrics["fault.injected"]
    booked = (metrics["recovery.retries"] + metrics["recovery.degraded"]
              + metrics["recovery.failures"])
    assert injected > 0, "fault plan never fired — smoke is vacuous"
    assert injected == booked, \
        f"accounting identity broke: injected={injected} booked={booked}"
    # The plan kills devices mid-run: at least one offload must have
    # recovered by shrinking onto the surviving devices.
    assert metrics["recovery.device_shrinks"] >= 1, metrics
    assert metrics["service.arena.devices_busy"] == 0, \
        "leaked device lease"
    print(f"chaos smoke OK: {len(submitted)} jobs, "
          f"{int(injected)} faults injected, "
          f"{int(metrics['recovery.device_shrinks'])} device shrinks, "
          "identity holds")


# --- trace output ---------------------------------------------------------

# bench_fig8_breakdown self-checks its trace spans against the runtime
# counters (exit 1 on a mismatch); the trace must also be valid JSON.
def fig8_trace(bench, out_dir):
    path = os.path.join(out_dir, "trace.json")
    run([bench, f"--trace-out={path}", "--metrics"])
    with open(path) as f:
        json.load(f)
    print("trace.json is valid JSON")


SCALE_LOOP = (
    "void f(int n, float* a) {\n"
    "#pragma acc localaccess(a: stride(1))\n"
    "#pragma acc parallel loop\n"
    "for (int i = 0; i < n; i++) { a[i] = a[i] * 2.0f; }\n"
    "}\n")

# Two fusible loops: the mid-end must record its per-pass spans.
FUSIBLE_LOOPS = (
    "void f(int n, float* a, float* b) {\n"
    "#pragma acc parallel loop\n"
    "for (int i = 0; i < n; i++) { a[i] = a[i] * 2.0f; }\n"
    "#pragma acc parallel loop\n"
    "for (int i = 0; i < n; i++) { b[i] = a[i] + 1.0f; }\n"
    "}\n")


def compile_trace(accmgc, out_dir):
    path = os.path.join(out_dir, "compile-trace.json")
    run([accmgc, "--emit=config", f"--trace-out={path}", "--metrics", "-"],
        input=SCALE_LOOP, text=True)
    with open(path) as f:
        json.load(f)


def opt_trace(accmgc, out_dir):
    path = os.path.join(out_dir, "opt-trace.json")
    run([accmgc, "--opt-level=1", "--emit=config", f"--trace-out={path}",
         "-"], input=FUSIBLE_LOOPS, text=True)
    with open(path) as f:
        text = f.read()
    assert '"name":"opt.fuse"' in text, "no opt.fuse span"
    assert '"name":"opt.cse"' in text, "no opt.cse span"


CHECKS = {
    "mapper-adapt": mapper_adapt,
    "comm-hotpath": comm_hotpath,
    "chaos-recovery": chaos_recovery,
    "serve-saturation": serve_saturation,
    "async-overlap": async_overlap,
    "serve-drive": serve_drive,
    "chaos-drive": chaos_drive,
    "fig8-trace": fig8_trace,
    "compile-trace": compile_trace,
    "opt-trace": opt_trace,
}

if __name__ == "__main__":
    if len(sys.argv) != 4 or sys.argv[1] not in CHECKS:
        sys.exit(f"usage: {sys.argv[0]} {{{','.join(CHECKS)}}} BINARY OUT_DIR")
    os.makedirs(sys.argv[3], exist_ok=True)
    CHECKS[sys.argv[1]](sys.argv[2], sys.argv[3])
