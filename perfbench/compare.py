#!/usr/bin/env python3
"""Layer-by-layer diff of two benchmark result files (parent vs change).

    python3 perfbench/compare.py parent.json change.json

Each file is written by `perfbench/run.py --out FILE` (one entry per
workload: --trace 1 fills its per-layer section, --trace 0 its end-to-end
one). For every workload in both files this prints each per-layer
metric's parent and change values, the absolute and relative delta, and,
for host times (unit s), the change of its share of the traced wall time
(trace.wall_s) in percentage points. End-to-end metrics follow when both
files have them.
"""
import argparse
import json
import sys


def load(path):
    with open(path) as f:
        return json.load(f)


def values(section):
    return {name: (m["value"], m["unit"]) for name, m in section.items()}


def wall_share(metrics, name):
    value, unit = metrics[name]
    wall = metrics.get("trace.wall_s", (0.0, "s"))[0]
    return value / wall if unit == "s" and wall > 0 else None


def table(title, parent, change, with_share):
    print(f"  {title}")
    head = (f"    {'metric':28s} {'unit':8s} {'parent':>14s} {'change':>14s} "
            f"{'delta':>14s} {'delta%':>8s}")
    print(head + (f" {'wall pp':>8s}" if with_share else ""))
    for name in list(parent) + [n for n in change if n not in parent]:
        if name not in parent or name not in change:
            side = "parent" if name not in parent else "change"
            print(f"    {name:28s} (missing in {side})")
            continue
        p, unit = parent[name]
        c = change[name][0]
        rel = f"{100.0 * (c - p) / abs(p):+7.1f}%" if p else f"{'-':>8s}"
        line = (f"    {name:28s} {unit:8s} {p:14.6g} {c:14.6g} "
                f"{c - p:+14.6g} {rel}")
        if with_share:
            sp, sc = wall_share(parent, name), wall_share(change, name)
            line += (f" {100.0 * (sc - sp):+8.2f}" if sp is not None
                     else f" {'-':>8s}")
        print(line)


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("parent")
    parser.add_argument("change")
    args = parser.parse_args()
    parent, change = load(args.parent), load(args.change)

    common = [w for w in parent if w in change]
    if not common:
        sys.exit("compare.py: the two files share no workload")
    for workload in common:
        p, c = parent[workload], change[workload]
        print(f"== {workload}")
        for side, entry in (("parent", p), ("change", c)):
            env = entry.get("env", {})
            print(f"  {side}: seed {entry.get('seed')}, "
                  f"build {env.get('build_type')}, "
                  f"compiler {env.get('compiler')}, nproc {env.get('nproc')}")
        if p.get("env") != c.get("env"):
            print("  WARNING: different build or host; deltas mix causes")
        for section, with_share in (("per_layer", True),
                                    ("end_to_end", False)):
            if section in p and section in c:
                table(section, values(p[section]), values(c[section]),
                      with_share)
    for workload in sorted(set(parent) ^ set(change)):
        print(f"== {workload}: only in one file, skipped")


if __name__ == "__main__":
    main()
