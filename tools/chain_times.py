"""Time the CLI chain at the paper's shape from two source trees, stage by
stage, and check that both trees write the same bytes.

    python3 tools/chain_times.py PARENT_TREE CHANGE_TREE --seeds 1-3 --out BENCH_<n>.json

The chain is synth (8,000 users, 257 categories, 3 weeks, about 216k
events), ingest, featurize --balance-seed 0 and reduce --rank 12, each
stage one `python3 -m buyintent.cli` process that runs the tree's own
src/. Seed s is the synth and reduce seed of pair s. For every seed the
two trees run the whole chain back to back, the parent first on even
pairs and the change first on odd ones, each in a fresh temporary
directory that is removed after the pair.

Per stage the file records the wall time of the child process and its
peak resident set (ru_maxrss from os.wait4 on the child's pid, the
child alone): every run's value, each side's median, the parent's
quartile distance and in how many pairs the change was lower, in
tools/bench_pairs.py's style. It also records, per stage, whether every
file the stage wrote but its manifest (which holds wall-clock times)
had the same sha256 on both sides of every pair, and names each file
that did not.

A change that alters an output's format on purpose declares each such
file with `--expect-differ STAGE:FILE` (repeatable, FILE relative to the
chain's directory, such as `ingest:store.json`). The entry goes under
the `chain` key of the output file; the file's other keys
(bench_pairs.py's `workloads`) are kept. The script exits 1 if a stage
fails, if a file differs between the trees in some pair without being
declared, or if a declared file does not differ in every pair.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

from bench_pairs import SIDES, parse_seeds, quartile_distance


def stages(seed: int) -> list[tuple[str, list[str]]]:
    return [
        ("synth", ["synth", "--users", "8000", "--categories", "257", "--weeks", "3", "--buy-rate", "0.05",
                   "--signal", "0.6", "--nonlinear", "--seed", str(seed), "--out", "corpus"]),
        ("ingest", ["ingest", "--input", "corpus/events.jsonl", "--out", "store.json"]),
        ("featurize", ["featurize", "--store", "store.json", "--embeddings", "corpus/embeddings.tsv",
                       "--categories", "257", "--balance-seed", "0", "--out", "balanced.dataset"]),
        ("reduce", ["reduce", "--in", "balanced.dataset", "--rank", "12", "--seed", str(seed),
                    "--out", "reduced.dataset"]),
    ]


def digests(work: Path) -> dict[str, str]:
    """sha256 of every file under work but the manifests and the stage logs, by relative path."""
    return {
        str(p.relative_to(work)): hashlib.sha256(p.read_bytes()).hexdigest()
        for p in sorted(work.rglob("*"))
        if p.is_file() and not p.name.endswith((".manifest.json", ".log"))
    }


def run_stage(tree: str, work: Path, argv: list[str]) -> tuple[float, float]:
    """Run one CLI stage of `tree` in `work`; its wall seconds and peak RSS in MB."""
    env = {**os.environ, "PYTHONPATH": os.path.join(os.path.abspath(tree), "src")}
    with open(work / "stdout.log", "wb") as out, open(work / "stderr.log", "wb") as err:
        started = time.perf_counter()
        proc = subprocess.Popen([sys.executable, "-m", "buyintent.cli", *argv], cwd=work, env=env,
                                stdout=out, stderr=err)
        _, status, usage = os.wait4(proc.pid, 0)
        wall = time.perf_counter() - started
    proc.returncode = os.waitstatus_to_exitcode(status)
    if proc.returncode != 0:
        tail = (work / "stderr.log").read_text(errors="replace").splitlines()[-20:]
        raise SystemExit(f"{tree}: {argv[0]} exited {proc.returncode}:\n" + "\n".join(tail))
    return wall, usage.ru_maxrss / 1024.0  # ru_maxrss is in KiB on Linux


def run_chain(tree: str, seed: int) -> tuple[dict[str, dict], dict[str, dict[str, str]]]:
    """One chain from `tree`: per stage its timings and the digests of the files it wrote."""
    timings, written = {}, {}
    with tempfile.TemporaryDirectory(prefix="chain-") as tmp:
        work = Path(tmp)
        before = {}
        for name, argv in stages(seed):
            wall, rss = run_stage(tree, work, argv)
            after = digests(work)
            timings[name] = {"wall_s": wall, "peak_rss_mb": rss}
            written[name] = {p: d for p, d in after.items() if before.get(p) != d}
            before = after
    return timings, written


def summarize(values: dict[str, list[float]]) -> dict:
    parent_median = statistics.median(values["parent"])
    change_median = statistics.median(values["change"])
    return {
        "parent_median": parent_median,
        "change_median": change_median,
        "relative_change": change_median / parent_median - 1.0,
        "parent_quartile_distance": quartile_distance(values["parent"]),
        "change_wins": sum(c < p for p, c in zip(values["parent"], values["change"])),
        "parent": values["parent"],
        "change": values["change"],
    }


def stage_file(text: str) -> tuple[str, str]:
    """STAGE:FILE as (stage, file), the stage one of the chain's."""
    stage, sep, path = text.partition(":")
    if not sep or not path or stage not in [name for name, _ in stages(0)]:
        raise argparse.ArgumentTypeError(f"expected STAGE:FILE with STAGE a chain stage, got {text!r}")
    return stage, path


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("parent_tree")
    parser.add_argument("change_tree")
    parser.add_argument("--seeds", type=parse_seeds, required=True, help="inclusive range, e.g. 1-3")
    parser.add_argument("--out", required=True, help="JSON file to write, such as BENCH_<n>.json")
    parser.add_argument("--expect-differ", type=stage_file, action="append", default=[], metavar="STAGE:FILE",
                        help="a file the change tree writes with other bytes on purpose; repeatable")
    args = parser.parse_args(argv)

    trees = {"parent": args.parent_tree, "change": args.change_tree}
    names = [name for name, _ in stages(0)]
    runs = {name: {m: {side: [] for side in SIDES} for m in ("wall_s", "peak_rss_mb")} for name in names}
    mismatches = {name: [] for name in names}
    undeclared, unchanged = [], []  # files that differed undeclared, and declared files that did not differ
    for k, seed in enumerate(args.seeds):
        written = {}
        for side in SIDES if k % 2 == 0 else SIDES[::-1]:
            timings, written[side] = run_chain(trees[side], seed)
            for name in names:
                for metric, value in timings[name].items():
                    runs[name][metric][side].append(value)
            print(f"pair {k} seed {seed} {side}: " + ", ".join(
                f"{name} {timings[name]['wall_s']:.2f} s {timings[name]['peak_rss_mb']:.1f} MB" for name in names
            ), file=sys.stderr, flush=True)
        for name in names:
            parent, change = written["parent"][name], written["change"][name]
            differ = sorted(p for p in parent.keys() | change.keys() if parent.get(p) != change.get(p))
            mismatches[name] += [f"seed {seed}: {p}" for p in differ]
            undeclared += [f"seed {seed}: {name}:{p}" for p in differ if (name, p) not in args.expect_differ]
            unchanged += [f"seed {seed}: {name}:{p}" for stage, p in args.expect_differ
                          if stage == name and p not in differ]

    entry = {
        "seeds": [args.seeds[0], args.seeds[-1]],
        "pairs": len(args.seeds),
        "expect_differ": [f"{stage}:{p}" for stage, p in args.expect_differ],
        "undeclared_differences": undeclared,
        "declared_but_equal": unchanged,
        "stages": {
            name: {
                "argv": stages(args.seeds[0])[i][1],
                "outputs_equal": not mismatches[name],
                "mismatches": mismatches[name],
                **{metric: summarize(runs[name][metric]) for metric in ("wall_s", "peak_rss_mb")},
            }
            for i, name in enumerate(names)
        },
    }
    doc = {}
    if os.path.exists(args.out):
        with open(args.out, encoding="utf-8") as fh:
            doc = json.load(fh)
    doc["chain"] = entry
    with open(args.out, "w", encoding="utf-8") as fh:
        fh.write(json.dumps(doc, indent=1, sort_keys=True) + "\n")
    return 1 if undeclared or unchanged else 0


if __name__ == "__main__":
    sys.exit(main())
