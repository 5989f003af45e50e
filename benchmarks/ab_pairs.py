"""Alternating A/B pairs of perfbench workloads: a parent ref vs this tree.

Exports the parent ref with ``git archive`` into a temporary directory,
then, workload by workload, runs ``perfbench/run.py --seconds 15 --trace 0``
once per side for each pair.  Pair ``i`` uses seed ``first_seed + i``; the
parent runs first on odd pairs and second on even ones, so drift of the
machine's load during the runs falls on both sides alike.  Each run reads
its own tree's ``perfbench/run.py``.

``--workload`` takes one or more names, or ``all`` for every workload of
``BENCHMARK.json``; ``NAME:PAIRS`` overrides ``--pairs`` for one workload.
Per workload it prints each side's median and quartiles of the timed
metrics, how many pairs the change won on the claimed metric (``--claim``,
default ``queries_per_s``; a win is a move in the direction its
``BENCHMARK.json`` entry calls ``better``), whether the median gap in that
direction exceeds the parent's interquartile range, and whether the
deterministic end-to-end metrics (``BENCHMARK.json``'s non-timed ones)
matched on every seed.  Each timed metric also gets a no-regression verdict
against its ``BENCHMARK.json`` bound:

* *within bound* — the change's median is worse than the parent's by no
  more than the bound, or every change run beats every parent run;
* *worse* — it is worse by more than the bound;
* *unresolved* — the parent's own interquartile range, relative to its
  median, is wider than the bound, so the runs cannot tell.

Exits 1 if any run printed ``"correct": false``.  Ten pairs of one workload
take about 20 minutes, so it stays out of CI::

    make perfbench-ab PARENT=<ref> WORKLOAD="serve-cora-overload:10 joint-cora:3"
    python3 benchmarks/ab_pairs.py --parent <ref> --workload all --pairs 3
    python3 benchmarks/ab_pairs.py --parent <ref> --workload joint-cora:2 --claim setup_s
"""

from __future__ import annotations

import argparse
import io
import json
import statistics
import subprocess
import sys
import tarfile
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
TIMED = ("queries_per_s", "setup_s", "peak_rss_mb")
SECONDS = 15


def _spec() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


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


def _verdict(parent: list[float], change: list[float], better: str, bound: float) -> str:
    """No-regression verdict of one timed metric against its relative bound."""
    sign = 1.0 if better == "lower" else -1.0
    if all(sign * new < sign * old for new in change for old in parent):
        return "within bound"
    q1, median, q3 = _quartiles(parent)
    if (q3 - q1) / median > bound:
        return "unresolved"
    worse = sign * (statistics.median(change) - median) / median
    return "worse" if worse > bound else "within bound"


def _workloads(names: list[str], pairs: int, known: list[str]) -> list[tuple[str, int]]:
    """``(workload, pairs)`` for each ``NAME[:PAIRS]`` argument, ``all`` expanded."""
    chosen = []
    for arg in names:
        name, _, count = arg.partition(":")
        count = int(count) if count else pairs
        for workload in known if name == "all" else [name]:
            if workload not in known:
                raise SystemExit(f"unknown workload {workload!r}; known: {', '.join(known)}")
            chosen.append((workload, count))
    return chosen


def _export(ref: str, dest: Path) -> None:
    """Write the committed files of ``ref`` into ``dest``."""
    archive = subprocess.run(
        ["git", "archive", "--format=tar", ref], cwd=ROOT, check=True, capture_output=True
    ).stdout
    with tarfile.open(fileobj=io.BytesIO(archive)) as tar:
        tar.extractall(dest)


def _compare(
    workload: str, pairs: int, parent_tree: Path, first_seed: int, spec: dict, claim: str
) -> bool:
    """Run ``pairs`` alternating pairs of one workload and print its summary."""
    runs: dict[str, list[dict]] = {"parent": [], "change": []}
    correct = True
    trees = {"parent": parent_tree, "change": ROOT}
    for pair in range(pairs):
        seed = first_seed + pair
        order = ("parent", "change") if pair % 2 else ("change", "parent")
        for side in order:
            out = _run(trees[side], workload, seed)
            out["seed"] = seed
            runs[side].append(out)
            correct &= bool(out["correct"])
            value = out["metrics"][claim]["value"]
            print(
                f"{workload} pair {pair} seed {seed} {side:6s} {claim}={value:.4g} "
                f"correct={out['correct']}",
                flush=True,
            )

    metrics = {m["name"]: m for m in spec["end_to_end"]}
    print(f"\n{workload}: {pairs} pairs, --seconds {SECONDS}")
    for name in TIMED:
        values = {side: [r["metrics"][name]["value"] for r in runs[side]] for side in runs}
        for side in ("parent", "change"):
            q1, median, q3 = _quartiles(values[side])
            print(f"  {name:14s} {side:6s} median {median:.4g}  quartiles [{q1:.4g}, {q3:.4g}]")
        bound = metrics[name]["bound"]
        verdict = _verdict(values["parent"], values["change"], metrics[name]["better"], bound)
        print(f"  {name:14s} verdict: {verdict} (bound {bound:.0%})")
    sign = 1.0 if metrics[claim]["better"] == "higher" else -1.0
    values = {side: [r["metrics"][claim]["value"] for r in runs[side]] for side in runs}
    wins = sum(sign * (new - old) > 0 for old, new in zip(values["parent"], values["change"]))
    q1, parent_median, q3 = _quartiles(values["parent"])
    change_median = statistics.median(values["change"])
    gap = sign * (change_median - parent_median)
    print(f"  change won {wins} of {pairs} pairs on {claim}")
    print(
        f"  median gap {gap:.4g} vs parent IQR {q3 - q1:.4g}: "
        f"{'exceeds' if gap > q3 - q1 else 'does not exceed'}; "
        f"ratio {change_median / parent_median:.3g}x"
    )
    deterministic = [name for name in metrics if name not in TIMED]
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
    print(f"  every run correct: {correct}\n", flush=True)
    return correct


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--parent", required=True, help="git ref of the baseline side")
    parser.add_argument(
        "--workload", nargs="+", default=["all"], help="NAME[:PAIRS] ... or all"
    )
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument(
        "--first-seed", type=int, default=0, help="seed of pair 0, e.g. a held-out one"
    )
    parser.add_argument(
        "--claim",
        choices=TIMED,
        default="queries_per_s",
        help="timed metric whose wins and median gap are counted",
    )
    args = parser.parse_args(argv)

    spec = _spec()
    workloads = _workloads(args.workload, args.pairs, [w["name"] for w in spec["workloads"]])
    correct = True
    with tempfile.TemporaryDirectory(prefix="ab-parent-") as tmp:
        parent_tree = Path(tmp)
        _export(args.parent, parent_tree)
        for workload, pairs in workloads:
            correct &= _compare(workload, pairs, parent_tree, args.first_seed, spec, args.claim)
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
