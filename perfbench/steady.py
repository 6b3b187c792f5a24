"""Steadiness mode: repeat the workloads, summarise the spread, compare sets.

Usage (from the repository root)::

    # ten runs per workload, seeds 1..10, workloads interleaved run by run
    python3 perfbench/steady.py run --seeds 1-10 --out perfbench/results/set-a.json
    # the same code again, other seeds
    python3 perfbench/steady.py run --seeds 11-20 --out perfbench/results/set-b.json
    # medians of B against A, judged by each metric's bound
    python3 perfbench/steady.py compare perfbench/results/set-a.json perfbench/results/set-b.json
    # seed-to-seed spread of the quality metrics over the sets' seeds
    python3 perfbench/steady.py quality perfbench/results/set-*.json \
        --out perfbench/results/quality_spread.json

``run`` prints, per workload and end-to-end metric, the median, quartiles,
min and max and the spread (interquartile distance over the median, as
``statistics.quantiles(values, n=4)`` gives the quartiles) next to the
metric's bound from ``BENCHMARK.json``.  A spread at or above a third of the
bound is marked ``wide``, at or above the bound ``FAIL`` (``setup_s`` is
only judged by ``compare``).  ``compare`` reports, per workload and metric,
how much worse the second set's median is than the first's, as a share of
the first, and marks a change beyond the bound ``FAIL``; ``setup_s`` and
``epoch_ms.tail`` are listed first.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
BOUNDS = {m["name"]: m for m in SPEC["end_to_end"]}
FIRST = ("setup_s", "epoch_ms.tail")
QUALITY = ("pqos.mean", "clients_unmigrated_share", "served_share")


def parse_seeds(text: str) -> list:
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds.extend(range(int(lo), int(hi or lo) + 1))
    return seeds


def run_once(workload: str, seed: int, seconds: int) -> dict:
    program, *rest = SPEC["command"]
    command = [sys.executable if program == "python3" else program, *rest]
    args = ["--workload", workload, "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(
        [*command, *args], cwd=ROOT, capture_output=True, text=True, timeout=600
    )
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(
            f"{workload} seed {seed} exited {proc.returncode}:\n{proc.stderr[-2000:]}"
        )
    result = json.loads(lines[-1])
    detail = next((json.loads(l[len("detail "):]) for l in lines if l.startswith("detail ")), {})
    return {"seed": seed, **result, "detail": detail}


def quartiles(values: list) -> tuple:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def summarise(runs: dict) -> dict:
    summary = {}
    for workload, entries in runs.items():
        rows = {}
        for name in BOUNDS:
            values = [e["metrics"][name]["value"] for e in entries]
            q1, med, q3 = quartiles(values)
            rows[name] = {
                "median": med, "q1": q1, "q3": q3, "min": min(values), "max": max(values),
                "spread": (q3 - q1) / med if med else 0.0, "values": values,
            }
        summary[workload] = rows
    return summary


def print_summary(summary: dict) -> None:
    for workload, rows in summary.items():
        print(f"\n{workload}")
        heads = "".join(f"{h:>12}" for h in ("median", "q1", "q3", "min", "max"))
        print(f"  {'metric':<26}{heads}{'spread':>9}{'bound':>7}")
        for name, row in rows.items():
            bound = BOUNDS[name]["bound"]
            mark = ""
            if name != "setup_s":
                if row["spread"] >= bound:
                    mark = "FAIL"
                elif row["spread"] >= bound / 3:
                    mark = "wide"
            print(
                f"  {name:<26}{row['median']:>12.5g}{row['q1']:>12.5g}{row['q3']:>12.5g}"
                f"{row['min']:>12.5g}{row['max']:>12.5g}{row['spread']:>9.4f}{bound:>7.2f} {mark}"
            )


def cmd_run(args) -> int:
    workloads = args.workloads or [w["name"] for w in SPEC["workloads"]]
    seconds = args.seconds or SPEC["run_seconds"]
    runs = {w: [] for w in workloads}
    failures = 0
    start = time.time()
    for seed in parse_seeds(args.seeds):
        for workload in workloads:
            entry = run_once(workload, seed, seconds)
            runs[workload].append(entry)
            failures += entry["failed"] + (not entry["correct"])
            print(
                f"[{time.time() - start:7.1f}s] {workload} seed {seed}: "
                f"correct={entry['correct']} failed={entry['failed']}/{entry['attempted']}",
                flush=True,
            )
    summary = summarise(runs)
    print_summary(summary)
    if args.out:
        Path(args.out).parent.mkdir(parents=True, exist_ok=True)
        result = {"seconds": seconds, "summary": summary, "runs": runs}
        Path(args.out).write_text(json.dumps(result, indent=1))
    return 1 if failures else 0


def cmd_compare(args) -> int:
    a = json.loads(Path(args.first).read_text())["summary"]
    b = json.loads(Path(args.second).read_text())["summary"]
    failed = False
    for workload in a:
        if workload not in b:
            continue
        print(f"\n{workload}")
        names = [*FIRST, *(n for n in BOUNDS if n not in FIRST)]
        for name in names:
            spec = BOUNDS[name]
            first, second = a[workload][name]["median"], b[workload][name]["median"]
            worse = (second - first) / first
            if spec["better"] == "higher":
                worse = -worse
            mark = "FAIL" if worse > spec["bound"] else ""
            failed |= bool(mark)
            print(
                f"  {name:<26}{first:>12.5g}{second:>12.5g}  worse by {worse:+.4f} "
                f"(bound {spec['bound']:.2f}) {mark}"
            )
    return 1 if failed else 0


def cmd_quality(args) -> int:
    """Quality metrics are exact for a seed; their spread is over seeds."""
    spread = {}
    for path in args.sets:
        for workload, entries in json.loads(Path(path).read_text())["runs"].items():
            for e in entries:
                for name in QUALITY:
                    by_seed = spread.setdefault(workload, {}).setdefault(name, {})
                    by_seed[e["seed"]] = e["metrics"][name]["value"]
    out = {}
    for workload, metrics in spread.items():
        out[workload] = {}
        for name, by_seed in metrics.items():
            values = [by_seed[k] for k in sorted(by_seed)]
            q1, med, q3 = quartiles(values)
            out[workload][name] = {
                "seeds": sorted(by_seed), "values": values, "median": med,
                "spread": (q3 - q1) / med if med else 0.0, "min": min(values), "max": max(values),
            }
            print(
                f"{workload:<22}{name:<26}median {med:.5f}  "
                f"spread {out[workload][name]['spread']:.5f}  "
                f"min {min(values):.5f}  max {max(values):.5f}  ({len(values)} seeds)"
            )
    if args.out:
        Path(args.out).write_text(json.dumps(out, indent=1))
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="Benchmark steadiness runs and set comparison.")
    sub = parser.add_subparsers(dest="cmd", required=True)
    run = sub.add_parser("run", help="repeat workloads over seeds and summarise")
    run.add_argument("--seeds", default="1-10", help="e.g. 1-10 or 3,5,7")
    run.add_argument("--workloads", nargs="*", help="default: all in BENCHMARK.json")
    run.add_argument("--seconds", type=int, help="default: run_seconds from BENCHMARK.json")
    run.add_argument("--out", help="write runs and summary as JSON")
    compare = sub.add_parser("compare", help="second set's medians against the first's")
    compare.add_argument("first")
    compare.add_argument("second")
    quality = sub.add_parser("quality", help="seed-to-seed spread of the quality metrics")
    quality.add_argument("sets", nargs="+")
    quality.add_argument("--out", help="write the spreads as JSON")
    args = parser.parse_args(argv)
    return {"run": cmd_run, "compare": cmd_compare, "quality": cmd_quality}[args.cmd](args)


if __name__ == "__main__":
    sys.exit(main())
