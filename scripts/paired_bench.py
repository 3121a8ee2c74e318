"""Paired benchmark runs of two source trees, and their summary.

Runs ``perfbench/run.py`` of each tree once per seed, one fresh process a
run, alternating which tree runs first so that a drift of the machine
falls on both alike.  Each result is appended, as it arrives, to the
output file as one JSON line {"tree", "workload", "seed", "line"}, where
"line" is the last line ``perfbench/run.py`` prints.  Then, for each
metric, it prints each tree's median [Q1, Q3], how many pairs read the
change better, and the gap of the medians against the parent's IQR.

    python scripts/paired_bench.py run PARENT CHANGE --workload sweep64 \\
        --seeds 101 102 103 --seconds 20 --out pairs.json
    python scripts/paired_bench.py summary pairs.json
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

TREES = ("parent", "change")


def run_once(tree: Path, workload: str, seed: int, seconds: float) -> dict:
    """The last stdout line of one ``perfbench/run.py`` run in tree."""
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "0"]
    done = subprocess.run(cmd, cwd=tree, capture_output=True, text=True, check=True)
    return json.loads(done.stdout.strip().splitlines()[-1])


def run_pairs(trees: dict, workload: str, seeds: list[int], seconds: float, out: Path) -> list[dict]:
    """One run of each tree per seed, the parent first on every other seed,
    each record appended to out as it arrives."""
    records = []
    with out.open("a") as fh:
        for i, seed in enumerate(seeds):
            for name in TREES if i % 2 == 0 else TREES[::-1]:
                rec = {"tree": name, "workload": workload, "seed": seed,
                       "line": run_once(trees[name], workload, seed, seconds)}
                fh.write(json.dumps(rec) + "\n")
                fh.flush()
                records.append(rec)
    return records


def quartiles(values: list[float]) -> tuple[float, float, float]:
    """(Q1, median, Q3), inclusive method; one value is all three."""
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, med, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, med, q3


def summarize(records: list[dict]) -> list[str]:
    """For each workload and metric, lower being better: each tree's median
    [Q1, Q3] over the seeds both trees ran, the pairs where the change
    reads lower, and the gap of the medians against the parent's IQR."""
    lines = []
    for workload in sorted({r["workload"] for r in records}):
        runs = {(r["tree"], r["seed"]): r["line"] for r in records if r["workload"] == workload}
        seeds = sorted({seed for tree, seed in runs if (TREES[0], seed) in runs and (TREES[1], seed) in runs})
        failed = sum(runs[tree, seed]["failed"] for tree in TREES for seed in seeds)
        lines.append(f"{workload}: {len(seeds)} pairs, {failed} failed checks")
        if not seeds:
            continue
        metrics = runs[TREES[0], seeds[0]]["metrics"]
        for name, spec in metrics.items():
            values = {tree: [runs[tree, seed]["metrics"][name]["value"] for seed in seeds] for tree in TREES}
            stats = {tree: quartiles(values[tree]) for tree in TREES}
            wins = sum(c < p for p, c in zip(values["parent"], values["change"]))
            gap = stats["parent"][1] - stats["change"][1]
            iqr = stats["parent"][2] - stats["parent"][0]
            lines.append(f"  {name} ({spec['unit']}): " + ", ".join(
                f"{tree} {med:.6g} [{q1:.6g}, {q3:.6g}]" for tree, (q1, med, q3) in stats.items()))
            lines.append(
                f"    change lower in {wins}/{len(seeds)}; median {stats['change'][1] / stats['parent'][1] - 1:+.1%}, "
                f"gap {gap:.6g} {'>' if gap > iqr else '<='} parent IQR {iqr:.6g}"
            )
    return lines


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)
    run = sub.add_parser("run", help="run both trees on each seed, then summarize")
    run.add_argument("parent", type=Path)
    run.add_argument("change", type=Path)
    run.add_argument("--workload", required=True)
    run.add_argument("--seeds", type=int, nargs="+", required=True)
    run.add_argument("--seconds", type=float, default=20.0)
    run.add_argument("--out", type=Path, required=True, help="JSON lines file, appended to")
    summary = sub.add_parser("summary", help="summarize a file of result lines")
    summary.add_argument("path", type=Path)
    args = parser.parse_args(argv)
    if args.command == "run":
        records = run_pairs({"parent": args.parent, "change": args.change}, args.workload, args.seeds,
                            args.seconds, args.out)
    else:
        records = [json.loads(line) for line in args.path.read_text().splitlines() if line.strip()]
    print("\n".join(summarize(records)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
