"""Alternating A/B pairs of one perfbench workload: a parent ref vs this tree.

Checks the parent ref out with ``git worktree`` in a temporary directory,
then runs ``perfbench/run.py --seconds 15 --trace 0`` once per side for each
pair.  Pair ``i`` uses seed ``first_seed + i``; the parent runs first on
odd pairs and second on even ones, so drift of the machine's load during
the runs falls on both sides alike.  Each run reads its own checkout's
``perfbench/run.py``.

Prints each side's median and quartiles of the timed metrics, how many
pairs the change won on ``queries_per_s``, whether the median gap exceeds the
parent's interquartile range, and whether the deterministic end-to-end
metrics (``BENCHMARK.json``'s non-timed ones) matched on every seed.
Exits 1 if any run printed ``"correct": false``.  Ten pairs take about
20 minutes, so it stays out of CI::

    make perfbench-ab PARENT=<ref> WORKLOAD=joint-cora PAIRS=10
    python3 benchmarks/ab_pairs.py --parent <ref> --workload joint-cora --pairs 10
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
TIMED = ("queries_per_s", "setup_s", "peak_rss_mb")
CLAIMED = "queries_per_s"
SECONDS = 15


def _deterministic() -> list[str]:
    """``BENCHMARK.json``'s end-to-end metrics that are not timed."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return [m["name"] for m in spec["end_to_end"] if m["name"] not in TIMED]


def _run(tree: Path, workload: str, seed: int) -> dict:
    """One untraced perfbench run; its final stdout line, parsed."""
    proc = subprocess.run(
        [
            sys.executable,
            "perfbench/run.py",
            "--workload",
            workload,
            "--seed",
            str(seed),
            "--seconds",
            str(SECONDS),
            "--trace",
            "0",
        ],
        cwd=tree,
        capture_output=True,
        text=True,
    )
    lines = proc.stdout.strip().splitlines()
    if not lines:
        sys.stderr.write(proc.stderr)
        raise SystemExit(f"perfbench printed nothing in {tree} (exit {proc.returncode})")
    return json.loads(lines[-1])


def _quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, median, q3


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--parent", required=True, help="git ref of the baseline side")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument(
        "--first-seed", type=int, default=0, help="seed of pair 0, e.g. a held-out one"
    )
    args = parser.parse_args(argv)

    deterministic = _deterministic()
    runs: dict[str, list[dict]] = {"parent": [], "change": []}
    correct = True
    with tempfile.TemporaryDirectory(prefix="ab-parent-") as tmp:
        parent_tree = Path(tmp) / "tree"
        subprocess.run(
            ["git", "worktree", "add", "--detach", str(parent_tree), args.parent],
            cwd=ROOT,
            check=True,
            capture_output=True,
        )
        try:
            trees = {"parent": parent_tree, "change": ROOT}
            for pair in range(args.pairs):
                seed = args.first_seed + pair
                order = ("parent", "change") if pair % 2 else ("change", "parent")
                for side in order:
                    out = _run(trees[side], args.workload, seed)
                    out["seed"] = seed
                    runs[side].append(out)
                    correct &= bool(out["correct"])
                    value = out["metrics"][CLAIMED]["value"]
                    print(
                        f"pair {pair} seed {seed} {side:6s} {CLAIMED}={value:.4g} "
                        f"correct={out['correct']}",
                        flush=True,
                    )
        finally:
            subprocess.run(
                ["git", "worktree", "remove", "--force", str(parent_tree)],
                cwd=ROOT,
                check=False,
                capture_output=True,
            )

    print(f"\n{args.workload}: {args.pairs} pairs, --seconds {SECONDS}")
    for name in TIMED:
        for side in ("parent", "change"):
            q1, median, q3 = _quartiles([r["metrics"][name]["value"] for r in runs[side]])
            print(f"  {name:14s} {side:6s} median {median:.4g}  quartiles [{q1:.4g}, {q3:.4g}]")
    values = {side: [r["metrics"][CLAIMED]["value"] for r in runs[side]] for side in runs}
    wins = sum(new > old for old, new in zip(values["parent"], values["change"]))
    q1, parent_median, q3 = _quartiles(values["parent"])
    change_median = statistics.median(values["change"])
    gap = change_median - parent_median
    print(f"  change won {wins} of {args.pairs} pairs on {CLAIMED}")
    print(
        f"  median gap {gap:.4g} vs parent IQR {q3 - q1:.4g}: "
        f"{'exceeds' if gap > q3 - q1 else 'does not exceed'}; "
        f"ratio {change_median / parent_median:.3g}x"
    )
    mismatched = [
        (old["seed"], name)
        for old, new in zip(runs["parent"], runs["change"])
        for name in deterministic
        if old["metrics"][name]["value"] != new["metrics"][name]["value"]
    ]
    if mismatched:
        print(f"  deterministic metrics differ: {mismatched}")
    else:
        print(f"  deterministic metrics identical on every seed: {', '.join(deterministic)}")
    print(f"  every run correct: {correct}")
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
