#!/usr/bin/env python3
"""Regenerate EXPERIMENTS.md bench tables from BENCH_fig*.json artifacts.

Every bench binary emits a machine-readable ``BENCH_<figure>.json`` report
next to its human-readable tables (see bench/common.hpp, JsonReport). This
tool turns a directory of those artifacts back into markdown tables, so the
numbers quoted in EXPERIMENTS.md can be regenerated from a bench run (or
from the ``bench-reports`` CI artifact) instead of being transcribed by
hand.

Usage:
  tools/report.py [ARTIFACT_DIR]                 # print markdown to stdout
  tools/report.py [ARTIFACT_DIR] --update FILE   # splice into FILE between
                                                 # bench-report markers
  tools/report.py [ARTIFACT_DIR] --figures fig13,fig14

--update replaces everything between the two marker lines

  <!-- bench-report:begin -->
  <!-- bench-report:end -->

in FILE (typically EXPERIMENTS.md) and fails if the markers are missing,
so a typo'd target file is never silently rewritten.

Stdlib only; no third-party dependencies.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

BEGIN_MARK = "<!-- bench-report:begin -->"
END_MARK = "<!-- bench-report:end -->"


def fmt(value, key: str = "") -> str:
    """Format a JSON scalar for a markdown cell."""
    if isinstance(value, bool):
        return "yes" if value else "no"
    if key.startswith("pop_") and isinstance(value, (int, float)):
        # POP efficiency factors are fractions of 1; render as percentages.
        return f"{100.0 * value:.1f}%"
    if (key in ("shed_rate", "goodput_norm", "offload_fraction")
            and isinstance(value, (int, float))):
        # Fractions of the offered load; render as percentages.
        return f"{100.0 * value:.1f}%"
    if key == "goodput" and isinstance(value, (int, float)):
        return f"{value:.2f}"  # SLO-met jobs per second
    if key == "cost_node_seconds" and isinstance(value, (int, float)):
        return f"{value:.1f}"  # elastic-pool billing (node-seconds)
    if key.endswith("_s") and isinstance(value, (int, float)):
        return f"{value:.3f}"  # latency/wait columns, seconds
    if isinstance(value, float):
        if value == int(value) and abs(value) < 1e15:
            return str(int(value))
        return f"{value:.4g}"
    return str(value)


def load_reports(artifact_dir: Path, figures: list[str] | None) -> list[dict]:
    paths = sorted(artifact_dir.glob("BENCH_*.json"))
    reports = []
    for path in paths:
        try:
            report = json.loads(path.read_text())
        except (OSError, json.JSONDecodeError) as err:
            print(f"warning: skipping {path}: {err}", file=sys.stderr)
            continue
        figure = report.get("figure")
        if not figure or "series" not in report:
            print(f"warning: skipping {path}: not a bench report",
                  file=sys.stderr)
            continue
        if figures and figure not in figures:
            continue
        reports.append(report)
    return reports


def series_table(series: dict) -> list[str]:
    """Render one series as a markdown table (union of point keys, in
    first-seen order, one row per point). Nested objects and lists do
    not fit a cell and are skipped."""
    columns: list[str] = []
    for point in series["points"]:
        for key, value in point.items():
            if isinstance(value, (dict, list)):
                continue
            if key not in columns:
                columns.append(key)
    lines = ["| " + " | ".join(columns) + " |",
             "|" + "---|" * len(columns)]
    for point in series["points"]:
        cells = [fmt(point[c], c) if c in point else "" for c in columns]
        lines.append("| " + " | ".join(cells) + " |")
    return lines


def prof_section(prof: dict) -> list[str]:
    """Render a report's embedded self-profile (src/prof, emitted when the
    bench ran with TLB_PROF=1): top phases by exclusive wall time, the
    per-subsystem allocation peaks, and the health-snapshot summary.
    The phase window covers the bench's last profiler reset (for fig17,
    the final scale point)."""
    out: list[str] = ["", "**Self-profile (TLB_PROF=1)**", ""]
    wall_s = prof.get("wall_s", 0.0)
    unattributed = prof.get("unattributed_share", 0.0)
    snapshots = prof.get("snapshots") or []
    stride = prof.get("snapshot_stride", 0)
    out.append(f"Window {fmt(wall_s, 'wall_s')} s, unattributed "
               f"{100.0 * unattributed:.1f}%, {len(snapshots)} health "
               f"snapshots (stride {stride} events).")
    phases = sorted(prof.get("phases") or [],
                    key=lambda p: p.get("exclusive_ns", 0), reverse=True)
    if phases:
        out.append("")
        out.append("| phase | calls | exclusive[ms] | inclusive[ms] |")
        out.append("|---|---|---|---|")
        for p in phases[:12]:
            out.append(f"| `{p['path']}` | {p['calls']} "
                       f"| {p['exclusive_ns'] / 1e6:.1f} "
                       f"| {p['inclusive_ns'] / 1e6:.1f} |")
        if len(phases) > 12:
            out.append(f"| … {len(phases) - 12} more | | | |")
    allocs = [a for a in (prof.get("alloc") or []) if a.get("peak_bytes")]
    if allocs:
        out.append("")
        out.append("| subsystem | peak[MB] | allocs | frees |")
        out.append("|---|---|---|---|")
        for a in allocs:
            out.append(f"| `{a['tag']}` | {a['peak_bytes'] / 1048576:.1f} "
                       f"| {a['allocs']} | {a['frees']} |")
    return out


def render(reports: list[dict]) -> str:
    out: list[str] = []
    smoke = any(r.get("smoke") for r in reports)
    out.append("Generated by `tools/report.py` from `BENCH_fig*.json` "
               "artifacts — do not edit by hand.")
    if smoke:
        out.append("")
        out.append("**Note: one or more reports were produced in smoke mode "
                   "(`TLB_BENCH_SMOKE=1`, reduced sweeps); absolute numbers "
                   "are not comparable to full runs.**")
    for report in reports:
        out.append("")
        out.append(f"### `{report['figure']}` — {report.get('title', '')}")
        config = report.get("config") or {}
        if config:
            pairs = ", ".join(f"{k}={fmt(v)}" for k, v in config.items())
            out.append("")
            out.append(f"Config: {pairs}.")
        for series in report["series"]:
            name = series.get("name", "")
            if name and (len(report["series"]) > 1 or name != "default"):
                out.append("")
                out.append(f"**{name}**")
            out.append("")
            out.extend(series_table(series))
        if isinstance(report.get("prof"), dict):
            out.extend(prof_section(report["prof"]))
    out.append("")
    return "\n".join(out)


def splice(target: Path, body: str) -> None:
    text = target.read_text()
    begin = text.find(BEGIN_MARK)
    end = text.find(END_MARK)
    if begin < 0 or end < 0 or end < begin:
        sys.exit(f"error: {target} does not contain the markers\n"
                 f"  {BEGIN_MARK}\n  {END_MARK}\n"
                 "add them where the generated tables should go.")
    head = text[: begin + len(BEGIN_MARK)]
    tail = text[end:]
    target.write_text(head + "\n" + body + "\n" + tail)
    print(f"updated {target}", file=sys.stderr)


def main() -> None:
    parser = argparse.ArgumentParser(
        description="Render BENCH_fig*.json artifacts as markdown tables.")
    parser.add_argument("artifact_dir", nargs="?", default=".", type=Path,
                        help="directory holding BENCH_fig*.json "
                             "(default: current directory)")
    parser.add_argument("--update", metavar="FILE", type=Path,
                        help="splice the tables into FILE between the "
                             "bench-report markers instead of printing")
    parser.add_argument("--figures", metavar="LIST",
                        help="comma-separated figure names to include "
                             "(default: all found)")
    args = parser.parse_args()

    figures = args.figures.split(",") if args.figures else None
    reports = load_reports(args.artifact_dir, figures)
    if not reports:
        sys.exit(f"error: no BENCH_*.json reports found in "
                 f"{args.artifact_dir}")
    body = render(reports)
    if args.update:
        splice(args.update, body)
    else:
        print(body)


if __name__ == "__main__":
    main()
