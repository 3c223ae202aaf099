"""Compare two benchmark result files, or summarise one.

    python3 perfbench/compare.py PARENT.jsonl CHANGE.jsonl
    python3 perfbench/compare.py RESULTS.jsonl

A result file holds the JSON lines that ``run.py --out FILE`` appends. For
each (workload, metric) pair this prints the median and quartiles of each
side, then a verdict:

- improved: the change wins at least 9 of every 10 pairs (runs of the same
  workload and seed; ties count for neither) and its median is
  better than the parent's by more than the parent's inter-quartile spread;
- worse: the same rule with the sides swapped;
- unresolved: anything else, including fewer than ten pairs.

With one file it prints each metric's median, quartiles and spread (the
inter-quartile distance as a share of the median) next to its bound.
"""

from __future__ import annotations

import json
import statistics
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
MIN_PAIRS = 10
WIN_SHARE = 0.9


def load_spec() -> dict[str, dict]:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    return {m["name"]: m for m in spec["end_to_end"] + spec["per_layer"]}


def load_runs(path: Path) -> dict[tuple, dict[int, float]]:
    """(workload, metric) -> {seed: value}; a later run of a seed wins.
    Prints the distinct provenances found in the file."""
    runs: dict[tuple, dict[int, float]] = {}
    origins = set()
    for line in path.read_text(encoding="utf-8").splitlines():
        if not line.strip():
            continue
        record = json.loads(line)
        p = record["provenance"]
        origins.add(f"git {p['git_sha'][:12]} python {p['python']} numpy {p['numpy']} "
                    f"nproc {p['nproc']} seconds {p['seconds']}")
        for name, metric in record["result"]["metrics"].items():
            key = (record["workload"], name)
            runs.setdefault(key, {})[record["seed"]] = metric["value"]
    for origin in sorted(origins):
        print(f"{path}: {origin}")
    return runs


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def verdict(parent: dict[int, float], change: dict[int, float], higher: bool) -> str:
    seeds = sorted(set(parent) & set(change))
    if len(seeds) < MIN_PAIRS:
        return f"unresolved ({len(seeds)} pairs, need {MIN_PAIRS})"
    sign = 1.0 if higher else -1.0
    wins = sum(1 for s in seeds if sign * (change[s] - parent[s]) > 0)
    losses = sum(1 for s in seeds if sign * (change[s] - parent[s]) < 0)
    p1, p_med, p3 = quartiles(list(parent.values()))
    gap = sign * (statistics.median(change.values()) - p_med)
    spread = p3 - p1
    if wins >= WIN_SHARE * len(seeds) and gap > spread:
        return f"improved ({wins}/{len(seeds)} pairs)"
    if losses >= WIN_SHARE * len(seeds) and -gap > spread:
        return f"worse ({losses}/{len(seeds)} pairs)"
    return f"unresolved ({wins} wins, {losses} losses of {len(seeds)})"


def fmt(q: tuple[float, float, float]) -> str:
    return f"{q[1]:.6g} [{q[0]:.6g}, {q[2]:.6g}]"


def summarise(runs, spec) -> None:
    print(f"{'workload':<11} {'metric':<48} {'n':>3} {'median [q1, q3]':>36} {'spread':>7} {'bound':>6}")
    for (workload, name), by_seed in sorted(runs.items()):
        q = quartiles(list(by_seed.values()))
        spread = (q[2] - q[0]) / q[1] if q[1] else 0.0
        bound = spec.get(name, {}).get("bound")
        bound_txt = "" if bound is None else f"{bound:.2f}"
        print(f"{workload:<11} {name:<48} {len(by_seed):>3} {fmt(q):>36} {spread:>7.3f} {bound_txt:>6}")


def compare(parent_runs, change_runs, spec) -> None:
    print(f"{'workload':<11} {'metric':<48} {'parent median [q1, q3]':>36} {'change median [q1, q3]':>36}  verdict")
    for key in sorted(set(parent_runs) & set(change_runs)):
        workload, name = key
        parent, change = parent_runs[key], change_runs[key]
        higher = spec.get(name, {}).get("better", "higher") == "higher"
        print(
            f"{workload:<11} {name:<48} {fmt(quartiles(list(parent.values()))):>36} "
            f"{fmt(quartiles(list(change.values()))):>36}  {verdict(parent, change, higher)}"
        )


def main(argv: list[str]) -> int:
    if len(argv) not in (1, 2):
        print(__doc__, file=sys.stderr)
        return 2
    spec = load_spec()
    runs = [load_runs(Path(p)) for p in argv]
    if len(runs) == 1:
        summarise(runs[0], spec)
    else:
        compare(runs[0], runs[1], spec)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
