#!/usr/bin/env python3
"""Simulator benchmark: one workload per invocation, end to end or traced.

Run from the repository root:

    python3 perfbench/run.py --workload paper_micropp --seed 42 \\
        --seconds 20 --trace 0 [--out results.json]

Workloads: paper_micropp, fabric_fattree, svc_overload (see
perfbench/reference.json for why each was chosen, which layers it loads,
and its default and held-out seeds).

The first run builds perfbench_driver in Release under .bench_build/ from
the sources of this checkout (CMake + a C++20 compiler); later runs only
rebuild what changed. The driver then simulates the workload repeatedly
for --seconds and checks every simulation (exactly-once task completion,
makespan >= perfect bound, arrived = completed + shed, bit-identical
repeats); at the workload's default seed the simulated outputs must also
equal the reference values in perfbench/reference.json.

--trace 0 reports the end-to-end metrics of BENCHMARK.json, --trace 1
the per-layer ones (tlb::prof-traced simulation plus direct timings).
The last stdout line is the result:
    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
--out FILE also merges the full result (every metric, the simulated
outcome, build type, compiler, nproc) into FILE under the workload's
name; perfbench/compare.py diffs two such files.
"""
import argparse
import json
import math
import os
import shutil
import signal
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BUILD_DIR = ROOT / ".bench_build" / "perfbench"
DRIVER = BUILD_DIR / "perfbench_driver"
BUILD_TIMEOUT_S = 850
RUN_LIMIT_S = 175  # a measuring run must end within 180 s


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def run_group(cmd, timeout, **kwargs):
    """Runs cmd in its own process group; kills the whole group on timeout."""
    proc = subprocess.Popen(cmd, start_new_session=True, **kwargs)
    try:
        out, _ = proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        fail(f"{Path(cmd[0]).name} did not finish within {timeout:.0f} s")
    if proc.returncode != 0:
        fail(f"{' '.join(map(str, cmd))} exited with {proc.returncode}")
    return out


def build():
    if not (ROOT / "src" / "core" / "runtime.cpp").is_file():
        fail(f"no simulator sources under {ROOT / 'src'}")
    cache = BUILD_DIR / "CMakeCache.txt"
    if cache.is_file() and f"CMAKE_HOME_DIRECTORY:INTERNAL={HERE}\n" not in (
            cache.read_text()):
        shutil.rmtree(BUILD_DIR)  # configured for another checkout
    quiet = {"stdout": sys.stderr, "stderr": sys.stderr}
    if not cache.is_file():
        generator = ["-G", "Ninja"] if shutil.which("ninja") else []
        run_group(["cmake", "-S", str(HERE), "-B", str(BUILD_DIR), *generator,
                   "-DCMAKE_BUILD_TYPE=Release"], BUILD_TIMEOUT_S, **quiet)
    run_group(["cmake", "--build", str(BUILD_DIR), "-j",
               str(os.cpu_count() or 1)], BUILD_TIMEOUT_S, **quiet)


def measure(args, timeout):
    scratch = ROOT / ".bench_build" / f"scratch-{os.getpid()}"
    scratch.mkdir(parents=True, exist_ok=True)
    try:
        out = run_group([str(DRIVER), "--workload", args.workload,
                         "--seed", str(args.seed), "--seconds",
                         str(args.seconds), "--trace", str(args.trace),
                         "--scratch", str(scratch)],
                        timeout, stdout=subprocess.PIPE, text=True)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    lines = out.strip().splitlines()
    if not lines:
        fail("driver printed nothing")
    return json.loads(lines[-1])


def reference_errors(ref, raw):
    """Differences from the recorded default-seed outputs."""
    errors = []
    if raw["fingerprint"] != ref["fingerprint"]:
        errors.append(f"fingerprint {raw['fingerprint']} != reference "
                      f"{ref['fingerprint']}")
    for key, want in ref["sim"].items():
        got = raw["sim"].get(key)
        if got != want:
            errors.append(f"{key} = {got!r}, reference {want!r}")
    return errors


def merge_out(path, raw, section, metrics):
    data = {}
    if path.is_file():
        data = json.loads(path.read_text())
    entry = data.setdefault(raw["workload"], {})
    entry[section] = metrics
    entry["sim"] = raw["sim"]
    entry["env"] = {k: raw[k] for k in
                    ("build_type", "compiler", "asserts", "nproc")}
    entry["seed"] = raw["seed"]
    path.write_text(json.dumps(data, indent=2, sort_keys=False) + "\n")


def main():
    start = time.monotonic()
    spec_path = ROOT / "BENCHMARK.json"
    if not spec_path.is_file():
        fail(f"{spec_path} not found")
    spec = json.loads(spec_path.read_text())
    reference = json.loads((HERE / "reference.json").read_text())["workloads"]

    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(reference))
    parser.add_argument("--seed", type=int, default=None,
                        help="default: the workload's default seed")
    parser.add_argument("--seconds", type=int, default=spec["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", type=Path, default=None)
    args = parser.parse_args()
    ref = reference[args.workload]
    if args.seed is None:
        args.seed = ref["default_seed"]
    if args.seed < 0:
        fail("--seed must be >= 0")

    build()
    raw = measure(args, max(60.0, RUN_LIMIT_S - (time.monotonic() - start)))

    errors = list(raw["errors"])
    attempted = raw["simulations"]
    failed = raw["failed"]
    if args.seed == ref["default_seed"]:
        ref_errors = reference_errors(ref["reference"], raw)
        if ref_errors:
            errors += ref_errors
            failed = attempted

    section = "per_layer" if args.trace else "end_to_end"
    metrics = {}
    for m in spec[section]:
        value = raw["metrics"].get(m["name"])
        if value is None or not math.isfinite(value):
            fail(f"driver did not report {m['name']}")
        metrics[m["name"]] = {"value": value, "unit": m["unit"]}
    if not args.trace:
        for name, m in metrics.items():
            if m["value"] <= 0:
                errors.append(f"{name} is {m['value']}, expected > 0")
                failed = max(failed, 1)

    print(f"perfbench {args.workload} seed={args.seed} trace={args.trace} "
          f"build={raw['build_type']} compiler={raw['compiler']} "
          f"asserts={'on' if raw['asserts'] else 'off'} nproc={raw['nproc']}")
    print(f"  simulations {attempted}, failed {failed}, "
          f"failed_run_share {failed / attempted:.4g}, "
          f"fingerprint {raw['fingerprint']}")
    for e in errors:
        print(f"  CHECK FAILED: {e}")
    for name, m in metrics.items():
        print(f"  {name:28s} {m['value']:16.8g} {m['unit']}")

    if args.out is not None:
        merge_out(args.out, raw, section, metrics)
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))


if __name__ == "__main__":
    main()
