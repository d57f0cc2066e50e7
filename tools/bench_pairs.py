"""Run the benchmark from two checkouts in alternating pairs and compare them.

    python3 tools/bench_pairs.py PARENT CHANGE --seeds 1 2 3 4 5
        [--workloads W ...] [--seconds 30] [--python PY] [--out FILE]

For each workload and seed, ``bench/run.py --workload W --seed N
--seconds S --trace 0`` runs once from each checkout, back to back: the
parent first on odd seeds, the change first on even ones.  Each run's
result line (the last line of its stdout, one JSON object whose
``metrics`` map each name to its ``value`` and ``unit``) and elapsed
wall time are kept.  The end-to-end metrics and which way is better come
from the change's BENCHMARK.json, as do the workloads unless given.

Per workload and metric it prints both medians, the change/parent ratio
of the medians, the pairs the change won (a tie wins nothing), the
parent's interquartile range, the difference of the medians (change
minus parent) and a verdict, then the median and the longest elapsed
seconds per side.  The verdict applies the gain rule, with each metric's
relative ``bound`` from BENCHMARK.json:

- "gain": the change won at least nine tenths of the pairs, and its
  median is better than the parent's by more than the parent's IQR;
- "unresolved": either side's IQR, relative to its median, is wider
  than the bound, and not every change run beats every parent run;
- "worse": the change's median is worse than the parent's by more than
  the bound, relative to the parent's median;
- "within bound": otherwise.

``--out`` writes the same as JSON, with each side's per-seed values and
every run's result line, rewritten as each workload completes.  A run
that exits non-zero or prints no result line stops the tool with exit
code 1.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

SIDES = ("before", "after")  # the parent's runs, the change's runs


def run_once(python: str, checkout: Path, workload: str, seed: int, seconds: float) -> dict:
    command = [python, "bench/run.py", "--workload", workload, "--seed", str(seed),
               "--seconds", f"{seconds:g}", "--trace", "0"]
    start = time.perf_counter()
    proc = subprocess.run(command, cwd=checkout, capture_output=True, text=True)
    elapsed = time.perf_counter() - start
    lines = proc.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1]) if proc.returncode == 0 and lines else None
    except json.JSONDecodeError:
        result = None
    if not isinstance(result, dict) or not isinstance(result.get("metrics"), dict):
        sys.exit(f"{checkout}: {workload} seed {seed} gave no result line "
                 f"(exit {proc.returncode}): {proc.stderr.strip()[-500:]}")
    return {"seed": seed, "elapsed_s": round(elapsed, 2), "result": result}


def quartiles(values: list[float]) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else values * 3
    return {"median": statistics.median(values), "q1": q1, "q3": q3}


def side_summary(runs: list[dict], metrics: list[str]) -> dict:
    results = [run["result"] for run in runs]
    per_seed = {m: [r["metrics"][m]["value"] for r in results] for m in metrics}
    elapsed = [run["elapsed_s"] for run in runs]
    return {
        "runs": len(runs),
        "correct": all(r.get("correct") is True for r in results),
        "failed": sum(r.get("failed", 0) for r in results),
        "attempted": sum(r.get("attempted", 0) for r in results),
        "metrics": {m: quartiles(values) for m, values in per_seed.items()},
        "per_seed": per_seed,
        "elapsed_s": {"median": statistics.median(elapsed), "max": max(elapsed), "per_seed": elapsed},
        "results": results,
    }


def compare(before: dict, after: dict, better: dict[str, str]) -> dict:
    pairs = {}
    for m, direction in better.items():
        won = sum((a < b) if direction == "lower" else (a > b)
                  for b, a in zip(before["per_seed"][m], after["per_seed"][m]))
        ratio = after["metrics"][m]["median"] / before["metrics"][m]["median"]
        pairs[m] = {"change_better_pairs": won, "pairs": before["runs"], "ratio": round(ratio, 4)}
    return pairs


def gain_rule(before: dict, after: dict, pairs: dict, better: dict[str, str],
              bounds: dict[str, float]) -> dict:
    """Per metric: the parent's IQR, the median difference, the bound and
    the verdict described in the module docstring."""
    out = {}
    for m, direction in better.items():
        b, a = before["metrics"][m], after["metrics"][m]
        iqr = b["q3"] - b["q1"]
        diff = a["median"] - b["median"]
        gained = -diff if direction == "lower" else diff  # > 0 when the change is better
        spread = max((side["q3"] - side["q1"]) / side["median"] for side in (b, a))
        change_runs, parent_runs = after["per_seed"][m], before["per_seed"][m]
        if direction == "lower":
            separated = max(change_runs) < min(parent_runs)
        else:
            separated = min(change_runs) > max(parent_runs)
        if 10 * pairs[m]["change_better_pairs"] >= 9 * pairs[m]["pairs"] and gained > iqr:
            verdict = "gain"
        elif spread > bounds[m] and not separated:
            verdict = "unresolved"
        elif -gained > bounds[m] * b["median"]:
            verdict = "worse"
        else:
            verdict = "within bound"
        out[m] = {"parent_iqr": iqr, "median_diff": diff, "bound": bounds[m], "verdict": verdict}
    return out


def measure(parent: Path, change: Path, workloads: list[str], seeds: list[int],
            seconds: float, python: str, better: dict[str, str], bounds: dict[str, float]):
    """Yield each workload's name and comparison as soon as its pairs are done."""
    for workload in workloads:
        runs = {side: [] for side in SIDES}
        first = {}
        for seed in seeds:
            order = SIDES if seed % 2 else SIDES[::-1]
            first[str(seed)] = "parent" if order[0] == "before" else "change"
            for side in order:
                run = run_once(python, parent if side == "before" else change, workload, seed, seconds)
                runs[side].append(run)
                print(f"{workload} seed {seed} {'parent' if side == 'before' else 'change'}: "
                      f"{run['elapsed_s']:.1f} s", file=sys.stderr, flush=True)
        summary = {side: side_summary(runs[side], list(better)) for side in SIDES}
        pairs = compare(summary["before"], summary["after"], better)
        yield workload, {"seeds": seeds, "first": first, **summary, "pairs": pairs,
                         "gain_rule": gain_rule(summary["before"], summary["after"], pairs,
                                                better, bounds)}


def report(workloads: dict) -> str:
    lines = []
    for workload, data in workloads.items():
        lines.append(f"{workload} ({data['before']['runs']} pairs)")
        lines.append(f"  {'metric':<14}{'parent':>14}{'change':>14}{'ratio':>9}  won"
                     f"{'parent IQR':>13}{'difference':>13}  verdict")
        for m, pair in data["pairs"].items():
            b, a = (data[side]["metrics"][m]["median"] for side in SIDES)
            rule = data["gain_rule"][m]
            won = f"{pair['change_better_pairs']}/{pair['pairs']}"
            lines.append(f"  {m:<14}{b:>14.6g}{a:>14.6g}{pair['ratio']:>9.4f}  {won:<5}"
                         f"{rule['parent_iqr']:>11.4g}{rule['median_diff']:>13.4g}  {rule['verdict']}")
        for stat in ("median", "max"):
            b, a = (data[side]["elapsed_s"][stat] for side in SIDES)
            lines.append(f"  {'elapsed_s ' + stat:<14}{b:>14.6g}{a:>14.6g}")
    return "\n".join(lines)


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("parent", type=Path)
    parser.add_argument("change", type=Path)
    parser.add_argument("--seeds", type=int, nargs="+", required=True)
    parser.add_argument("--workloads", nargs="+")
    parser.add_argument("--seconds", type=float, default=30)
    parser.add_argument("--python", default=sys.executable)
    parser.add_argument("--out", type=Path)
    args = parser.parse_args(argv)
    spec = json.loads((args.change / "BENCHMARK.json").read_text())
    better = {m["name"]: m["better"] for m in spec["end_to_end"]}
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    workloads = args.workloads or [w["name"] for w in spec["workloads"]]
    command = f"python3 bench/run.py --workload W --seed N --seconds {args.seconds:g} --trace 0"
    data = {}
    for workload, compared in measure(args.parent.resolve(), args.change.resolve(), workloads,
                                      args.seeds, args.seconds, args.python, better, bounds):
        data[workload] = compared
        if args.out:
            args.out.write_text(json.dumps({"command": command, "workloads": data}, indent=1) + "\n")
    print(report(data))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
