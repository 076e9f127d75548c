#!/usr/bin/env python3
"""Coverage census of src/: the executable lines and functions no run reached.

Build with coverage, run the workloads, then point this at the build
directories (from the repository root):

    cmake -B build-cov -S . -DCMAKE_BUILD_TYPE=Debug -DTLB_BUILD_TESTS=OFF \\
        -DCMAKE_CXX_FLAGS="--coverage -O0" -DCMAKE_EXE_LINKER_FLAGS=--coverage
    cmake --build build-cov -j
    TLB_BENCH_SMOKE=1 build-cov/bench/fig09_lewi_drom    # ... every run
    python3 tools/coverage_census.py build-cov [more build dirs] > census.txt

Every .gcda file under each build directory is read with
`gcov --json-format --stdout`. A source line counts as reached when any
object file of any build reached it, and a function as entered when any
copy of it was. Only files under the repository's src/ are counted. The
output is a per-file table (executable lines, unreached lines, their
share) followed by the functions that no run entered.

Counters are written when a process exits normally. A forked child that
leaves with _exit() drops its counters (fig17 runs each telemetry and
scale point in one), so code that only such children run reads as
unreached unless the child calls __gcov_dump() before _exit().
"""
import argparse
import json
import os
import subprocess
import sys
from collections import defaultdict

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def gcov_reports(build_dir, gcov):
    """Yields gcov's JSON report of every object directory under build_dir."""
    build_dir = os.path.abspath(build_dir)
    by_dir = defaultdict(list)
    for dirpath, _, files in os.walk(build_dir):
        for name in files:
            if name.endswith(".gcda"):
                by_dir[dirpath].append(os.path.join(dirpath, name))
    for objdir, gcdas in sorted(by_dir.items()):
        out = subprocess.run(
            [gcov, "--json-format", "--stdout", "--object-directory", objdir]
            + sorted(gcdas),
            check=True, capture_output=True, text=True, cwd=build_dir).stdout
        # One JSON document per line, one line per object file.
        for line in out.splitlines():
            if line.strip():
                yield json.loads(line)


def census(build_dirs, gcov):
    lines = defaultdict(dict)   # src file -> line number -> reached
    funcs = defaultdict(bool)   # (src file, line, name) -> entered
    for build_dir in build_dirs:
        for report in gcov_reports(build_dir, gcov):
            cwd = report.get("current_working_directory", build_dir)
            for f in report["files"]:
                path = os.path.relpath(
                    os.path.realpath(os.path.join(cwd, f["file"])), ROOT)
                if not path.startswith("src" + os.sep):
                    continue
                for ln in f["lines"]:
                    n = ln["line_number"]
                    lines[path][n] = lines[path].get(n, False) or ln["count"] > 0
                for fn in f["functions"]:
                    key = (path, fn["start_line"], fn["demangled_name"])
                    funcs[key] = funcs[key] or fn["execution_count"] > 0
    return lines, funcs


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("build_dirs", nargs="+")
    parser.add_argument("--gcov", default="gcov",
                        help="gcov matching the compiler (default: gcov)")
    args = parser.parse_args()
    lines, funcs = census(args.build_dirs, args.gcov)
    if not lines:
        sys.exit("coverage_census: no .gcda data for src/ under "
                 + ", ".join(args.build_dirs))

    print(f"{'file':<40} {'lines':>6} {'unreached':>9} {'share':>6}")
    total = missed = 0
    for path in sorted(lines):
        n = len(lines[path])
        m = sum(1 for hit in lines[path].values() if not hit)
        total += n
        missed += m
        print(f"{path:<40} {n:>6} {m:>9} {100.0 * m / n:>5.1f}%")
    print(f"{'total':<40} {total:>6} {missed:>9} "
          f"{100.0 * missed / total:>5.1f}%")

    never = sorted(key for key, entered in funcs.items() if not entered)
    print(f"\nfunctions never entered: {len(never)}")
    for path, line, name in never:
        print(f"  {path}:{line}  {name}")


if __name__ == "__main__":
    main()
