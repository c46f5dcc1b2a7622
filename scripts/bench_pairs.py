#!/usr/bin/env python3
"""Run loopbench on two commits in alternating pairs and record every run.

    python3 scripts/bench_pairs.py --parent HEAD~1 --change HEAD \\
        --workload desk-train --pairs 10 --first-seed 1 --out BENCH_pairs.json

``--workload`` may be repeated; without it every workload of
``BENCHMARK.json`` runs, one after another, each on the same seeds. Each
commit's committed files are unpacked once with ``git archive`` into two
sibling directories, ``parent`` and ``change``, under ``--workdir`` (a fresh
temporary directory by default, removed afterwards). The two names have the
same length, so neither side's paths are longer than the other's. Pair ``i``
runs ``python3 loopbench/run.py --workload W --seed S+i --seconds T
--trace 0`` once in each directory, with ``T`` the ``run_seconds`` of
``BENCHMARK.json``, the parent first in even pairs and the change first in
odd ones.

The results go into ``--out`` under ``workloads[W]``, written after each
workload: every run (side,
directory, seed, pair, position in the pair, round count, correctness and
metrics), each side's median and quartiles per end-to-end metric, and per
metric the pairs the change won, the ties, the change of the medians in
percent, the parent's interquartile range, whether the two sides read
equal values in every pair, and ``past_bound``: whether the change's median
is worse than the parent's by more than the metric's ``bound``, a fraction
of the parent's median. "Better" and the bounds follow ``BENCHMARK.json``;
the metrics past their bound are also printed on stderr. Other
workloads and other top-level keys already in ``--out`` are kept, and pairs
run on a workload already recorded for the same commits are added to its
runs, so one file can collect several invocations.

    python3 scripts/bench_pairs.py --show BENCH_pairs.json

prints a record's comparison as a Markdown table and runs nothing: one row
per workload and end-to-end metric, with both medians, the change of the
medians in percent, the pairs the change won, the parent's interquartile
range and ``past_bound``.
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


def summarize(runs: list[dict], better: dict[str, str], bounds: dict | None = None) -> dict:
    """Per-side medians and quartiles, and the pairwise comparison.

    ``past_bound`` is None for a metric without a bound in ``bounds``.
    """
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
        worse_by = (parent["median"] - change["median"]) * (1 if direction == "higher" else -1)
        bound = (bounds or {}).get(name)
        pairwise[name] = {
            "change_better_pairs": won,
            "ties": ties,
            "pairs": len(pairs),
            "median_change_pct": (100.0 * (change["median"] / parent["median"] - 1.0)
                                  if parent["median"] else None),
            "parent_iqr": parent["q3"] - parent["q1"],
            "bit_identical_every_pair": ties == len(pairs),
            "past_bound": None if bound is None else worse_by > bound * abs(parent["median"]),
        }
    out["pairwise"] = pairwise
    return out


def show(record: dict) -> str:
    """The comparison of every workload and end-to-end metric in ``record``, as a table."""
    lines = ["| workload | metric | parent median | change median | change | pairs better "
             "| parent IQR | past bound |", "| --- " * 8 + "|"]
    for workload, summary in record["workloads"].items():
        for name, compared in summary["pairwise"].items():
            pct = compared["median_change_pct"]
            won = f"{compared['change_better_pairs']} of {compared['pairs']}"
            if compared["ties"]:
                won += f", {compared['ties']} tied"
            lines.append(" | ".join([
                f"| {workload}", name, f"{summary['parent'][name]['median']:.6g}",
                f"{summary['change'][name]['median']:.6g}",
                "n/a" if pct is None else f"{pct:+.1f} %", won,
                f"{compared['parent_iqr']:.3g}", f"{compared['past_bound']} |"]))
    return "\n".join(lines)


def parse_args(argv, workloads: list[str]) -> argparse.Namespace:
    """The options; ``workloads`` are the names ``--workload`` may take, the default."""
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--show", metavar="FILE",
                   help="print the table of an existing record and run nothing; without it, "
                        "--parent, --change, --pairs, --first-seed and --out are required")
    p.add_argument("--parent", help="parent commit")
    p.add_argument("--change", help="changed commit")
    p.add_argument("--workload", action="append", choices=workloads,
                   help="a workload to run; repeat for several (default: all, in order)")
    p.add_argument("--pairs", type=int)
    p.add_argument("--first-seed", type=int, help="pair i runs seed FIRST_SEED + i on both sides")
    p.add_argument("--out", help="JSON file to create or extend")
    p.add_argument("--workdir", default=None,
                   help="where to unpack the two commits; a temporary directory by default")
    args = p.parse_args(argv)
    if args.show is not None:
        return args
    missing = [opt for opt in ("--parent", "--change", "--pairs", "--first-seed", "--out")
               if getattr(args, opt[2:].replace("-", "_")) is None]
    if missing:
        p.error(f"the following arguments are required: {', '.join(missing)}")
    if args.pairs < 1:
        p.error("--pairs must be at least 1")
    if args.workload is None:
        args.workload = list(workloads)
    elif len(set(args.workload)) < len(args.workload):
        p.error("--workload names a workload twice")
    return args


def main(argv=None) -> int:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        bench = json.load(fh)
    args = parse_args(argv, [w["name"] for w in bench["workloads"]])
    if args.show is not None:
        with open(args.show, encoding="utf-8") as fh:
            print(show(json.load(fh)))
        return 0
    better = {m["name"]: m["better"] for m in bench["end_to_end"]}
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    seconds = bench["run_seconds"]
    commits = {"parent": git("rev-parse", args.parent), "change": git("rev-parse", args.change)}

    record = {}
    if os.path.exists(args.out):
        with open(args.out, encoding="utf-8") as fh:
            record = json.load(fh)
    if record.get("commits", commits) != commits:
        raise SystemExit(f"{args.out} records other commits: {record['commits']}")
    seeds = [args.first_seed + i for i in range(args.pairs)]
    for workload in args.workload:
        earlier = record.get("workloads", {}).get(workload, {"seeds": []})
        if set(seeds) & set(earlier["seeds"]):
            raise SystemExit(f"{args.out} already has {workload} runs on some of seeds {seeds}")

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
    base = args.workdir or tempfile.mkdtemp(prefix="bench-pairs-")
    dirs = {side: os.path.join(base, side) for side in SIDES}
    try:
        for side in SIDES:
            unpack(commits[side], dirs[side])
        for workload in args.workload:
            earlier = record.setdefault("workloads", {}).get(
                workload, {"seeds": [], "runs": []})
            runs = list(earlier["runs"])
            for pair, seed in enumerate(seeds, start=len(earlier["seeds"])):
                order = SIDES if pair % 2 == 0 else SIDES[::-1]
                for position, side in enumerate(order):
                    r = run_once(dirs[side], workload, seed, seconds)
                    runs.append({"side": side, "dir": side, "seed": seed, "pair": pair,
                                 "position_in_pair": position, **r})
                    print(f"{workload} pair {pair} seed {seed} {side}: rounds {r['rounds']}, "
                          f"correct {r['correct']}, failed {r['failed']}", file=sys.stderr)
            all_seeds = earlier["seeds"] + seeds
            summary = summarize(runs, better, bounds)
            record["workloads"][workload] = {
                "seeds": all_seeds, "pairs": len(all_seeds), "runs": runs, **summary}
            for name, compared in summary["pairwise"].items():
                if compared["past_bound"]:
                    print(f"{workload}: {name} past its bound of {bounds[name]:.0%}: median "
                          f"{summary['parent'][name]['median']:.6g} -> "
                          f"{summary['change'][name]['median']:.6g}", file=sys.stderr)
            with open(args.out, "w", encoding="utf-8") as fh:
                json.dump(record, fh, indent=1)
                fh.write("\n")
    finally:
        if args.workdir is None:
            shutil.rmtree(base, ignore_errors=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
