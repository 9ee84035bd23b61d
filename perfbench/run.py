#!/usr/bin/env python3
"""The repository benchmark (see perfbench/README.md).

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout. It builds the CLI, the server and
the benchmark programs into .bench_build/ (an optimized build; Debug and
sanitized builds are refused), runs one workload, checks its outputs and
prints one JSON result as the last stdout line:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With --trace 0 the metrics are BENCHMARK.json's end_to_end metrics; with
--trace 1 its per_layer metrics. Exit 0 when every check passed, 1 when a
check failed, 2 when the checkout cannot be built or run.

    python3 perfbench/run.py --pin

re-pins the reference outputs (perfbench/pinned.json) from the current
programs, for every generator seed.
"""

import argparse
import concurrent.futures
import fcntl
import hashlib
import json
import os
import platform
import shutil
import signal
import subprocess
import sys
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
BUILD_DIR = ROOT / ".bench_build"
RUN_DIR = ROOT / ".bench_run"
OUT_DIR = ROOT / ".bench_out"
PINNED = BENCH_DIR / "pinned.json"
PROGRAM_TARGETS = ["mergepurge_cli", "mergepurge_serve"]
BUILD_TYPE = "RelWithDebInfo"
# Keeps every run, after its build, within 180 s.
RUN_TIMEOUT_S = 170
GENERATOR_SEEDS = 64  # perfbench/common.h kGeneratorSeeds
PINNED_WORKLOADS = ["batch_124k", "serve_match_20k"]
# Runs by name like the workloads of BENCHMARK.json, but is not gated
# there (README.md says why).
UNGATED_WORKLOADS = ["serve_match_20k"]
PIN_JOBS = 3


class BenchError(Exception):
    pass


def log(message):
    print(f"perfbench: {message}", file=sys.stderr, flush=True)


def run_logged(cmd, log_file):
    with open(log_file, "a") as out:
        out.write(f"$ {' '.join(str(c) for c in cmd)}\n")
        out.flush()
        done = subprocess.run(cmd, stdout=out, stderr=subprocess.STDOUT)
    if done.returncode != 0:
        tail = Path(log_file).read_text(errors="replace").splitlines()[-30:]
        raise BenchError("command failed: %s\n%s" %
                         (" ".join(str(c) for c in cmd), "\n".join(tail)))


def cmake_cache(build):
    values = {}
    cache = build / "CMakeCache.txt"
    if cache.exists():
        for line in cache.read_text(errors="replace").splitlines():
            if "=" in line and ":" in line and not line.startswith(("#", "//")):
                key_type, value = line.split("=", 1)
                values[key_type.split(":", 1)[0]] = value
    return values


def build(targets):
    """Builds the programs and the benchmark; returns the stamp."""
    if not (ROOT / "CMakeLists.txt").exists() or not (ROOT / "src").is_dir():
        raise BenchError(f"{ROOT} is not a mergepurge source checkout")
    BUILD_DIR.mkdir(exist_ok=True)
    program = BUILD_DIR / "program"
    bench = BUILD_DIR / "perfbench"
    log_file = BUILD_DIR / "build.log"
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    with open(BUILD_DIR / ".lock", "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)
        if not (program / "CMakeCache.txt").exists():
            run_logged(["cmake", "-S", ROOT, "-B", program,
                        f"-DCMAKE_BUILD_TYPE={BUILD_TYPE}",
                        "-DMERGEPURGE_SANITIZE=",
                        "-DMERGEPURGE_LOCK_ORDER_CHECKS=OFF"], log_file)
        cache = cmake_cache(program)
        if cache.get("CMAKE_BUILD_TYPE") not in ("Release", "RelWithDebInfo"):
            raise BenchError("refusing a %r build" %
                             cache.get("CMAKE_BUILD_TYPE"))
        if cache.get("MERGEPURGE_SANITIZE") or \
                cache.get("MERGEPURGE_LOCK_ORDER_CHECKS") == "ON":
            raise BenchError("refusing a sanitized or lock-checked build")
        run_logged(["cmake", "--build", program, "-j", jobs, "--target",
                    *PROGRAM_TARGETS, "mergepurge"], log_file)
        if not (bench / "CMakeCache.txt").exists():
            run_logged(["cmake", "-S", BENCH_DIR, "-B", bench,
                        f"-DCMAKE_BUILD_TYPE={BUILD_TYPE}",
                        f"-DMERGEPURGE_ROOT={ROOT}",
                        f"-DMERGEPURGE_LIBRARY={program}/src/libmergepurge.a"],
                       log_file)
        run_logged(["cmake", "--build", bench, "-j", jobs, "--target",
                    *targets], log_file)
    return stamp(cache)


def source_digest():
    digest = hashlib.sha256()
    for top in ("CMakeLists.txt", "src", "tools"):
        path = ROOT / top
        files = [path] if path.is_file() else sorted(path.rglob("*"))
        for file in files:
            if file.is_file():
                digest.update(str(file.relative_to(ROOT)).encode())
                digest.update(file.read_bytes())
    return digest.hexdigest()[:16]


def stamp(cache):
    compiler = cache.get("CMAKE_CXX_COMPILER", "?")
    version = subprocess.run([compiler, "--version"], capture_output=True,
                             text=True).stdout.splitlines()
    commit = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                            capture_output=True, text=True)
    return {
        "nproc": os.cpu_count(),
        "machine": platform.machine(),
        "compiler": version[0] if version else compiler,
        "build_type": cache.get("CMAKE_BUILD_TYPE"),
        "git_commit": commit.stdout.strip() if commit.returncode == 0
        else "none (not a git checkout)",
        "source_digest": source_digest(),
    }


def run_program(cmd, timeout):
    """Runs one benchmark program in its own process group; returns its
    exit code and last stdout line parsed as JSON."""
    proc = subprocess.Popen([str(c) for c in cmd], stdout=subprocess.PIPE,
                            text=True, start_new_session=True)
    try:
        stdout, _ = proc.communicate(timeout=max(1, timeout))
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        raise BenchError(f"{Path(cmd[0]).name} exceeded {timeout:.0f} s")
    finally:
        if proc.poll() is None:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.wait()
    lines = stdout.strip().splitlines()
    if not lines:
        raise BenchError(f"{Path(cmd[0]).name} exited {proc.returncode} "
                         "without a result")
    return proc.returncode, json.loads(lines[-1])


def e2e_cmd(workload, seed, seconds, work, extra=()):
    return [BUILD_DIR / "perfbench" / "perfbench_e2e",
            f"--workload={workload}", f"--seed={seed}",
            f"--seconds={seconds}",
            f"--bin-dir={BUILD_DIR / 'program' / 'tools'}",
            f"--work-dir={work}", f"--pinned={PINNED}", *extra]


def load_spec():
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def bench(args):
    spec = load_spec()
    workloads = [w["name"] for w in spec["workloads"]] + UNGATED_WORKLOADS
    if args.workload not in workloads:
        raise BenchError(f"unknown workload {args.workload!r} "
                         f"(expected one of {', '.join(workloads)})")
    traced = args.trace == 1
    targets = ["perfbench_e2e"] + (["perfbench_trace"] if traced else [])
    info = build(targets)
    print("perfbench: stamp " + json.dumps(info), flush=True)
    started = time.monotonic()

    work = RUN_DIR / f"{args.workload}-{args.seed}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        results = []
        # The traced batch run compares against the pinned CLI outputs
        # itself; a traced service run also needs the live server's
        # commit-stage histograms.
        if not traced or args.workload != "batch_124k":
            extra = ["--stage-stats"] if traced else []
            if args.window:
                extra.append(f"--cli-window={args.window}")
            results.append(run_program(
                e2e_cmd(args.workload, args.seed, args.seconds, work, extra),
                RUN_TIMEOUT_S - (time.monotonic() - started)))
        if traced:
            OUT_DIR.mkdir(exist_ok=True)
            spans = OUT_DIR / f"spans-{args.workload}-{args.seed}.json"
            results.append(run_program(
                [BUILD_DIR / "perfbench" / "perfbench_trace",
                 f"--workload={args.workload}", f"--seed={args.seed}",
                 f"--work-dir={work}", f"--pinned={PINNED}",
                 f"--spans-out={spans}"],
                RUN_TIMEOUT_S - (time.monotonic() - started)))
    finally:
        shutil.rmtree(work, ignore_errors=True)

    values = {}
    for _, result in results:
        values.update(result.get("layers" if traced else "metrics", {}))
        if not traced and result.get("details"):
            print("perfbench: details " + json.dumps(result["details"]),
                  flush=True)
    wanted = spec["per_layer" if traced else "end_to_end"]
    metrics = {}
    for metric in wanted:
        # Layers a workload never calls report 0 (see README.md).
        value = values.get(metric["name"], 0.0 if traced else None)
        if value is None:
            raise BenchError(f"no value for {metric['name']}")
        metrics[metric["name"]] = {"value": value, "unit": metric["unit"]}
    correct = all(code == 0 and r["correct"] for code, r in results)
    print(json.dumps({
        "correct": correct,
        "attempted": sum(r["attempted"] for _, r in results),
        "failed": sum(r["failed"] for _, r in results),
        "metrics": metrics,
    }), flush=True)
    return 0 if correct else 1


def pin_one(workload, seed):
    work = RUN_DIR / f"pin-{workload}-{seed}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        code, result = run_program(
            e2e_cmd(workload, seed, 1, work, ["--pin"]), RUN_TIMEOUT_S)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    if code != 0 or not result["correct"]:
        raise BenchError(f"pinning {workload} seed {seed} failed")
    return workload, seed, result["details"]["pinned"]


def pin():
    build(["perfbench_e2e"])
    pinned = {w: {} for w in PINNED_WORKLOADS}
    with concurrent.futures.ThreadPoolExecutor(max_workers=PIN_JOBS) as pool:
        futures = [pool.submit(pin_one, w, s)
                   for s in range(GENERATOR_SEEDS) for w in PINNED_WORKLOADS]
        for future in concurrent.futures.as_completed(futures):
            workload, seed, values = future.result()
            pinned[workload][str(seed)] = values
            log(f"pinned {workload} seed {seed}")
    for workload in pinned:
        pinned[workload] = dict(sorted(pinned[workload].items(),
                                       key=lambda kv: int(kv[0])))
    PINNED.write_text(json.dumps(pinned, indent=1) + "\n")
    return 0


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=35)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--window", type=int, default=0,
                        help="batch only: run the CLI with this --window; "
                        "the negative control, whose check must fail")
    parser.add_argument("--pin", action="store_true")
    args = parser.parse_args()
    try:
        if args.pin:
            return pin()
        if not args.workload:
            parser.error("--workload is required")
        return bench(args)
    except (BenchError, OSError, ValueError, KeyError) as error:
        log(f"error: {error}")
        return 2


if __name__ == "__main__":
    sys.exit(main())
