"""Run the benchmark from two source trees in alternating pairs and
write the comparison as JSON.

    python3 tools/bench_pairs.py PARENT_TREE CHANGE_TREE --workload fit-forest --seeds 1-10 --out BENCH_<n>.json

Each tree is a checkout (a `git archive` of a commit is enough) whose
own `bench/run.py` is run with its own `src/`, in a fresh process. For
every seed the two trees run back to back, the parent first on even
pairs and the change first on odd ones, so a drift in machine speed
reaches both sides alike. Both sides get the same bench arguments, with
the run length their BENCHMARK.json fixes as `run_seconds`; the script
stops if the two trees fix different lengths.

Per end-to-end metric of the change tree's BENCHMARK.json, the file
records the unit and direction, every run's value, each side's median,
the parent's quartile distance (q3 - q1, inclusive quartiles), in how
many pairs the change was better (ties count for neither), and two
verdicts: `gain`, when the change won at least nine tenths of the pairs
and its median is better than the parent's by more than the parent's
quartile distance; and `within_bound`, when its median is worse than
the parent's by no more than the metric's bound, a fraction of the
parent's median. It also records whether every `auc.*` value was
bit-equal between the two runs of every pair, each side's attempted and
failed operation counts, and the bench's `env` line. It reads the bench
output only: no measurement or bound changes.

If a bench run exits non-zero, the file is still written from the pairs
completed before it, with a `failure` entry naming the side, tree, seed,
exit code and the last lines of its stderr, and the script exits 1.

The output file holds one entry per workload under its `workloads`
key; an existing file keeps its other workloads' entries and its other
keys (tools/chain_times.py's `chain`), so several runs fill one file.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys

SIDES = ("parent", "change")


def parse_seeds(text: str) -> list[int]:
    first, _, last = text.partition("-")
    seeds = list(range(int(first), int(last or first) + 1))
    if not seeds:
        raise argparse.ArgumentTypeError(f"empty seed range {text!r}")
    return seeds


def load_benchmark(tree: str) -> dict:
    with open(os.path.join(tree, "BENCHMARK.json"), encoding="utf-8") as fh:
        return json.load(fh)


# how many of a failed run's last stderr lines the output file keeps
STDERR_TAIL = 20


def run_bench(tree: str, workload: str, seed: int, seconds: float) -> subprocess.CompletedProcess:
    """One bench run from `tree`, its output captured."""
    argv = [sys.executable, os.path.join("bench", "run.py"), "--workload", workload,
            "--seed", str(seed), "--seconds", str(seconds)]
    return subprocess.run(argv, cwd=tree, capture_output=True, text=True)


def parse_run(stdout: str) -> tuple[dict, dict]:
    """A finished run's env line and its last-line result."""
    lines = stdout.splitlines()
    env = next(json.loads(line[4:]) for line in lines if line.startswith("env "))
    return env, json.loads(lines[-1])


def quartile_distance(values: list[float]) -> float | None:
    if len(values) < 2:
        return None
    q1, _, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q3 - q1


def summarize(declared: list[dict], runs: dict[str, list[dict]]) -> dict:
    metrics = {}
    for spec in declared:
        name, lower = spec["name"], spec["better"] == "lower"
        values = {side: [r["metrics"][name]["value"] for r in runs[side]] for side in SIDES}
        wins = sum(
            (c < p) if lower else (c > p) for p, c in zip(values["parent"], values["change"])
        )
        parent_median = statistics.median(values["parent"])
        change_median = statistics.median(values["change"])
        spread = quartile_distance(values["parent"])
        gain = parent_median - change_median if lower else change_median - parent_median
        metrics[name] = {
            "unit": spec["unit"],
            "better": spec["better"],
            "bound": spec["bound"],
            "parent_median": parent_median,
            "change_median": change_median,
            "relative_change": change_median / parent_median - 1.0 if parent_median else None,
            "parent_quartile_distance": spread,
            "change_wins": wins,
            "gain": 10 * wins >= 9 * len(values["parent"]) and spread is not None and gain > spread,
            "within_bound": -gain <= spec["bound"] * abs(parent_median),
            "parent": values["parent"],
            "change": values["change"],
        }
    return metrics


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("parent_tree")
    parser.add_argument("change_tree")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", type=parse_seeds, required=True, help="inclusive range, e.g. 1-10")
    parser.add_argument("--out", required=True, help="JSON file to write, such as BENCH_<n>.json")
    args = parser.parse_args(argv)

    trees = {"parent": args.parent_tree, "change": args.change_tree}
    benchmarks = {side: load_benchmark(tree) for side, tree in trees.items()}
    seconds = {side: b["run_seconds"] for side, b in benchmarks.items()}
    if seconds["parent"] != seconds["change"]:
        raise SystemExit(f"the trees fix different run lengths: {seconds}")
    declared = benchmarks["change"]["end_to_end"]
    runs: dict[str, list[dict]] = {side: [] for side in SIDES}
    envs: dict[str, dict] = {}
    failure = None
    for k, seed in enumerate(args.seeds):
        pair = {}
        for side in SIDES if k % 2 == 0 else SIDES[::-1]:
            proc = run_bench(trees[side], args.workload, seed, seconds["change"])
            if proc.returncode != 0:
                failure = {"side": side, "tree": trees[side], "seed": seed, "exit_code": proc.returncode,
                           "stderr_tail": proc.stderr.splitlines()[-STDERR_TAIL:]}
                print(f"pair {k} seed {seed} {side}: bench exited {proc.returncode}:\n{proc.stderr}",
                      file=sys.stderr, flush=True)
                break
            env, pair[side] = parse_run(proc.stdout)
            envs.setdefault(side, env)
            print(f"pair {k} seed {seed} {side}: {pair[side]['failed']} failed "
                  f"of {pair[side]['attempted']} operations", file=sys.stderr, flush=True)
        if failure:
            break
        for side in SIDES:
            runs[side].append(pair[side])

    done = len(runs["parent"])
    aucs = [spec["name"] for spec in declared if spec["name"].startswith("auc.")]
    entry = {
        "seeds": [args.seeds[0], args.seeds[-1]],
        "pairs": done,
        "seconds": seconds["change"],
        "env": envs.get("parent") if envs.get("parent") == envs.get("change") else envs,
        "auc_bit_equal": all(
            p["metrics"][name]["value"] == c["metrics"][name]["value"]
            for p, c in zip(runs["parent"], runs["change"])
            for name in aucs
        ),
        "attempted": {side: sum(r["attempted"] for r in runs[side]) for side in SIDES},
        "failed": {side: sum(r["failed"] for r in runs[side]) for side in SIDES},
        "metrics": summarize(declared, runs) if done else {},
    }
    if failure:
        entry["failure"] = failure
    doc = {}
    if os.path.exists(args.out):
        with open(args.out, encoding="utf-8") as fh:
            doc = json.load(fh)
    doc.setdefault("workloads", {})[args.workload] = entry
    with open(args.out, "w", encoding="utf-8") as fh:
        fh.write(json.dumps(doc, indent=1, sort_keys=True) + "\n")
    return 1 if failure else 0


if __name__ == "__main__":
    sys.exit(main())
