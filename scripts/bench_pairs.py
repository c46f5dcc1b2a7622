#!/usr/bin/env python3
"""Run loopbench on two commits in alternating pairs and record every run.

    python3 scripts/bench_pairs.py --parent HEAD~1 --change HEAD \\
        --workload desk-train --pairs 10 --first-seed 1 --out BENCH_pairs.json

Each commit's committed files are unpacked with ``git archive`` into two
sibling directories, ``parent`` and ``change``, under ``--workdir`` (a fresh
temporary directory by default, removed afterwards). The two names have the
same length, so neither side's paths are longer than the other's. Pair ``i``
runs ``python3 loopbench/run.py --workload W --seed S+i --seconds T
--trace 0`` once in each directory, with ``T`` the ``run_seconds`` of
``BENCHMARK.json``, the parent first in even pairs and the change first in
odd ones.

The results go into ``--out`` under ``workloads[W]``: every run (side,
directory, seed, pair, position in the pair, round count, correctness and
metrics), each side's median and quartiles per end-to-end metric, and per
metric the pairs the change won, the ties, the change of the medians in
percent, the parent's interquartile range and whether the two sides read
equal values in every pair. "Better" follows ``BENCHMARK.json``. Other
workloads and other top-level keys already in ``--out`` are kept, and pairs
run on a workload already recorded for the same commits are added to its
runs, so one file can collect several invocations.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import re
import shutil
import subprocess
import sys
import tempfile

import numpy as np

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SIDES = ("parent", "change")
ROUNDS = re.compile(r"^workload \S+ seed \d+: (\d+) untraced and \d+ traced rounds", re.M)


def git(*args: str) -> str:
    return subprocess.run(
        ["git", "-C", ROOT, *args], check=True, capture_output=True, text=True
    ).stdout.strip()


def unpack(commit: str, dest: str) -> None:
    """The committed files of ``commit`` in a new directory ``dest``."""
    os.makedirs(dest)
    archive = subprocess.run(
        ["git", "-C", ROOT, "archive", commit], check=True, capture_output=True
    ).stdout
    subprocess.run(["tar", "-x", "-C", dest], input=archive, check=True)


def run_once(checkout: str, workload: str, seed: int, seconds: float) -> dict:
    cmd = [sys.executable, "loopbench/run.py", "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(cmd, cwd=checkout, capture_output=True, text=True,
                          timeout=20 * seconds + 600)
    if proc.returncode != 0:
        raise RuntimeError(f"{' '.join(cmd)} in {checkout} exited {proc.returncode}:\n"
                           f"{proc.stderr[-2000:]}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    rounds = ROUNDS.search(proc.stdout)
    return {
        "rounds": int(rounds.group(1)) if rounds else None,
        "correct": result["correct"],
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {k: m["value"] for k, m in result["metrics"].items()},
    }


def summarize(runs: list[dict], better: dict[str, str]) -> dict:
    """Per-side medians and quartiles, and the pairwise comparison."""
    out = {}
    for side in SIDES:
        mine = [r for r in runs if r["side"] == side]
        stats = {}
        for name in better:
            v = [r["metrics"][name] for r in mine]
            q1, med, q3 = np.percentile(v, [25, 50, 75])
            stats[name] = {"median": float(med), "q1": float(q1), "q3": float(q3), "n": len(v)}
        stats["rounds"] = [r["rounds"] for r in mine]
        out[side] = stats
    pairs = sorted({r["pair"] for r in runs})
    by_pair = {(r["pair"], r["side"]): r["metrics"] for r in runs}
    pairwise = {}
    for name, direction in better.items():
        won = ties = 0
        for p in pairs:
            a, b = by_pair[(p, "parent")][name], by_pair[(p, "change")][name]
            if a == b:
                ties += 1
            elif (b > a) == (direction == "higher"):
                won += 1
        parent, change = out["parent"][name], out["change"][name]
        pairwise[name] = {
            "change_better_pairs": won,
            "ties": ties,
            "pairs": len(pairs),
            "median_change_pct": (100.0 * (change["median"] / parent["median"] - 1.0)
                                  if parent["median"] else None),
            "parent_iqr": parent["q3"] - parent["q1"],
            "bit_identical_every_pair": ties == len(pairs),
        }
    out["pairwise"] = pairwise
    return out


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--parent", required=True, help="parent commit")
    p.add_argument("--change", required=True, help="changed commit")
    p.add_argument("--workload", required=True)
    p.add_argument("--pairs", type=int, required=True)
    p.add_argument("--first-seed", type=int, required=True,
                   help="pair i runs seed FIRST_SEED + i on both sides")
    p.add_argument("--out", required=True, help="JSON file to create or extend")
    p.add_argument("--workdir", default=None,
                   help="where to unpack the two commits; a temporary directory by default")
    args = p.parse_args(argv)
    if args.pairs < 1:
        p.error("--pairs must be at least 1")

    commits = {"parent": git("rev-parse", args.parent), "change": git("rev-parse", args.change)}
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        bench = json.load(fh)
    better = {m["name"]: m["better"] for m in bench["end_to_end"]}
    seconds = bench["run_seconds"]

    record = {}
    if os.path.exists(args.out):
        with open(args.out, encoding="utf-8") as fh:
            record = json.load(fh)
    if record.get("commits", commits) != commits:
        raise SystemExit(f"{args.out} records other commits: {record['commits']}")
    earlier = record.get("workloads", {}).get(args.workload, {"seeds": [], "runs": []})
    seeds = [args.first_seed + i for i in range(args.pairs)]
    if set(seeds) & set(earlier["seeds"]):
        raise SystemExit(f"{args.out} already has {args.workload} runs on some of seeds {seeds}")

    base = args.workdir or tempfile.mkdtemp(prefix="bench-pairs-")
    dirs = {side: os.path.join(base, side) for side in SIDES}
    runs = list(earlier["runs"])
    try:
        for side in SIDES:
            unpack(commits[side], dirs[side])
        for pair, seed in enumerate(seeds, start=len(earlier["seeds"])):
            order = SIDES if pair % 2 == 0 else SIDES[::-1]
            for position, side in enumerate(order):
                r = run_once(dirs[side], args.workload, seed, seconds)
                runs.append({"side": side, "dir": side, "seed": seed, "pair": pair,
                             "position_in_pair": position, **r})
                print(f"{args.workload} pair {pair} seed {seed} {side}: rounds {r['rounds']}, "
                      f"correct {r['correct']}, failed {r['failed']}", file=sys.stderr)
    finally:
        if args.workdir is None:
            shutil.rmtree(base, ignore_errors=True)

    record.update({
        "what": "loopbench end-to-end metrics, parent commit vs change, alternating pairs",
        "command": f"python3 loopbench/run.py --workload W --seed S --seconds {seconds:g} "
                   "--trace 0",
        "commits": commits,
        "machine": {"nproc": os.cpu_count(), "numpy": np.__version__,
                    "python": platform.python_version(), "machine": platform.machine()},
        "run_order": "pairs alternate which side runs first: parent first in pairs 0, 2, 4, ...",
        "quartiles": "numpy.percentile 25 and 75 over the runs of one side",
    })
    seeds = earlier["seeds"] + seeds
    record.setdefault("workloads", {})[args.workload] = {
        "seeds": seeds, "pairs": len(seeds), "runs": runs, **summarize(runs, better)}
    with open(args.out, "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=1)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
