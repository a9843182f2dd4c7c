"""Alternating benchmark pairs of two commits, written to BENCH_<tag>.json.

Usage:
    python jobs/bench_pairs.py --parent REV --change REV --tag 16
        [--pairs 10] [--seconds 35] [--seed 1000] [--workloads learn,plan]
        [--scratch DIR]

Both commits are exported (``git archive``) into their own directory
under ``--scratch``; an export leaves nothing behind in the
repository's ``.git``. Pair ``i`` runs ``cleobench/run.py --workload W
--seed SEED+i --seconds S --trace 0`` once in each export, the two in
alternating order (parent first on even pairs), so drift on a shared
host hits both sides alike. Absolute numbers from different hosts or
hours do not compare; the pairs within one file do.

The output has, per workload and end-to-end metric of
``BENCHMARK.json``, each side's median, interquartile range and spread
(IQR / median), and the number of pairs the change won (a tie wins
nothing), with both commit ids, nproc and every run's raw metrics.
Against the metric's ``bound`` (a fraction) it also records
``within_bound``, whether the change's median is worse than the
parent's by at most the bound, and ``resolved``, whether the runs can
tell a change of that size: the parent's own spread is at most the
bound, or every change run beats every parent run. Nothing under ``cleobench/`` is
changed; a run that fails or reports ``"correct": false`` is recorded
and makes ``correct`` false in the output.
"""
from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import tarfile
import tempfile

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def git(*args: str) -> str:
    return subprocess.run(["git", "-C", ROOT, *args], check=True, capture_output=True,
                          text=True).stdout.strip()


def export(rev: str, dest: str) -> str:
    """The tree of ``rev`` extracted into ``dest``; returns the commit id."""
    commit = git("rev-parse", "--verify", f"{rev}^{{commit}}")
    os.makedirs(dest)
    with tempfile.TemporaryFile() as f:
        subprocess.run(["git", "-C", ROOT, "archive", "--format=tar", commit], check=True,
                       stdout=f)
        f.seek(0)
        with tarfile.open(fileobj=f) as tar:
            tar.extractall(dest)
    return commit


def run_once(tree: str, workload: str, seed: int, seconds: float) -> dict:
    """One untraced cleobench run in ``tree``: its last JSON line."""
    proc = subprocess.run(
        [sys.executable, "cleobench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", "0"],
        cwd=tree, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    try:
        out = json.loads(lines[-1])
    except (IndexError, json.JSONDecodeError):
        out = {"correct": False, "metrics": {}}
    out["returncode"] = proc.returncode
    return out


def quartiles(values: list[float]) -> tuple[float, float, float]:
    q1, q2, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, q2, q3


def summarize(runs: list[dict], metrics: list[dict]) -> dict:
    """Per metric: each side's median, IQR, spread and values, the
    change's wins, and whether its median is within the metric's bound
    and the runs resolve it."""
    out = {}
    for m in metrics:
        name, lower = m["name"], m["better"] == "lower"
        sides = {side: [r[side]["metrics"][name]["value"] for r in runs
                        if name in r[side]["metrics"]] for side in ("parent", "change")}
        if len(sides["parent"]) != len(runs) or len(sides["change"]) != len(runs):
            out[name] = {"unit": m["unit"], "missing": True}
            continue
        entry = {"unit": m["unit"], "better": m["better"]}
        for side, values in sides.items():
            q1, q2, q3 = quartiles(values)
            entry[side] = {"median": q2, "iqr": q3 - q1,
                           "spread": (q3 - q1) / q2 if q2 else None, "values": values}
        entry["wins"] = sum((c < p) if lower else (c > p)
                            for p, c in zip(sides["parent"], sides["change"]))
        parent, change = entry["parent"], entry["change"]
        bound = m["bound"]
        entry["within_bound"] = (change["median"] <= parent["median"] * (1 + bound) if lower
                                 else change["median"] >= parent["median"] * (1 - bound))
        beats_all = (max(sides["change"]) < min(sides["parent"]) if lower
                     else min(sides["change"]) > max(sides["parent"]))
        entry["resolved"] = (parent["spread"] is not None and parent["spread"] <= bound) \
            or beats_all
        entry["median_change_pct"] = (100 * (entry["change"]["median"] / entry["parent"]["median"]
                                             - 1) if entry["parent"]["median"] else None)
        out[name] = entry
    return out


def main(argv: list[str] | None = None) -> None:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--parent", required=True)
    ap.add_argument("--change", required=True)
    ap.add_argument("--tag", required=True, help="names the output, BENCH_<tag>.json")
    ap.add_argument("--pairs", type=int, default=10)
    ap.add_argument("--seconds", type=float, default=35)
    ap.add_argument("--seed", type=int, default=1000, help="seed of the first pair")
    ap.add_argument("--workloads", default=None,
                    help="comma-separated; default: every workload of BENCHMARK.json")
    ap.add_argument("--scratch", default=None, help="where the exports go (a new directory)")
    args = ap.parse_args(argv)

    scratch = tempfile.mkdtemp(prefix="bench-pairs-", dir=args.scratch)
    try:
        result = measure(args, scratch)
    finally:
        shutil.rmtree(scratch)
    path = os.path.join(ROOT, f"BENCH_{args.tag}.json")
    with open(path, "w") as f:
        json.dump(result, f, indent=1)
        f.write("\n")
    print(f"wrote {path}")


def measure(args: argparse.Namespace, scratch: str) -> dict:
    """The pairs of ``args``, run in exports under ``scratch``."""
    trees = {side: os.path.join(scratch, side) for side in ("parent", "change")}
    commits = {side: export(getattr(args, side), trees[side]) for side in trees}
    with open(os.path.join(trees["change"], "BENCHMARK.json")) as f:
        spec = json.load(f)
    workloads = (args.workloads.split(",") if args.workloads
                 else [w["name"] for w in spec["workloads"]])

    result = {
        "parent": commits["parent"], "change": commits["change"],
        "nproc": len(os.sched_getaffinity(0)), "python": sys.version.split()[0],
        "pairs": args.pairs, "seconds": args.seconds,
        "seeds": [args.seed + i for i in range(args.pairs)],
        "workloads": {}, "correct": True,
    }
    for workload in workloads:
        runs = []
        for i in range(args.pairs):
            seed = args.seed + i
            order = ("parent", "change") if i % 2 == 0 else ("change", "parent")
            pair = {side: run_once(trees[side], workload, seed, args.seconds) for side in order}
            pair["seed"] = seed
            runs.append(pair)
            for side in order:
                ok = pair[side].get("correct") and pair[side]["returncode"] == 0
                result["correct"] &= bool(ok)
                print(f"{workload} pair {i} {side}: "
                      + " ".join(f"{k}={v['value']:.4g}"
                                 for k, v in pair[side]["metrics"].items()), flush=True)
        result["workloads"][workload] = {
            "metrics": summarize(runs, spec["end_to_end"]),
            "runs": [{"seed": r["seed"], **{side: r[side]["metrics"] for side in trees}}
                     for r in runs],
        }
    return result


if __name__ == "__main__":
    main()
