"""Compare two sets of benchmark runs: ``python3 perfbench/compare.py BASE NEW``.

``BASE`` and ``NEW`` are JSONL files written by ``run.py --record``, one
line per run, made with the same benchmark code and run length.  Runs of the
two sides with the same workload, trace setting and seed form a pair.  For
every metric and workload the tool prints each side's median and quartiles,
the share of pairs the new side won, and a verdict:

* ``improved`` — the new side wins at least 90% of the pairs (ties count for
  neither) and the medians differ by more than the base's own spread, the
  distance between its quartiles;
* ``unresolved`` — the base's spread, as a share of its median, is wider
  than the metric's bound, unless every new run reads better than every
  base run;
* ``regressed`` — the new median is worse than the base median by more than
  the metric's bound (as a share of the base median);
* ``unchanged`` — none of the above.

Per-layer metrics have no bound; for them only ``improved``, its mirror
``regressed`` (the base wins 90% of pairs by more than the spread) and
``unchanged`` apply.  The tool exits 1 when any end-to-end metric regressed.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

from stats import quartiles, relative_spread  # noqa: E402


def load(path: str) -> dict[tuple[str, int], dict[int, dict]]:
    """``(workload, trace) -> seed -> metrics`` from a ``--record`` file."""
    runs: dict[tuple[str, int], dict[int, dict]] = {}
    with open(path) as handle:
        for line in handle:
            if line.strip():
                record = json.loads(line)
                key = (record["workload"], record["trace"])
                runs.setdefault(key, {})[record["seed"]] = record["result"]["metrics"]
    return runs


def verdict(base: list[float], new: list[float], pairs: list[tuple[float, float]],
            lower_is_better: bool, bound: float | None) -> tuple[str, float]:
    """The verdict for one metric on one workload, and the share of pairs won."""
    sign = -1.0 if lower_is_better else 1.0
    wins = sum(sign * (n - b) > 0 for b, n in pairs)
    losses = sum(sign * (n - b) < 0 for b, n in pairs)
    won = wins / len(pairs) if pairs else 0.0
    lost = losses / len(pairs) if pairs else 0.0
    q1, base_median, q3 = quartiles(base)
    new_median = quartiles(new)[1]
    spread = q3 - q1
    gain = sign * (new_median - base_median)
    if pairs and won >= 0.9 and gain > spread:
        return "improved", won
    if bound is None:
        return ("regressed" if pairs and lost >= 0.9 and -gain > spread else "unchanged"), won
    all_better = all(sign * (n - b) > 0 for n in new for b in base)
    if relative_spread(base) > bound and not all_better:
        return "unresolved", won
    if base_median and -gain / abs(base_median) > bound:
        return "regressed", won
    return "unchanged", won


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("base", help="JSONL of the parent's runs")
    parser.add_argument("new", help="JSONL of the change's runs")
    parser.add_argument("--benchmark", default=str(HERE.parent / "BENCHMARK.json"))
    args = parser.parse_args(argv)
    spec = json.loads(Path(args.benchmark).read_text())
    specs = {item["name"]: item for item in spec["end_to_end"] + spec["per_layer"]}
    base, new = load(args.base), load(args.new)
    regressed = False
    print(f"{'workload':<14}{'metric':<24}{'base q1/med/q3':>30}{'new q1/med/q3':>30}{'won':>6}  verdict")
    for key in sorted(set(base) & set(new)):
        workload, _ = key
        seeds = sorted(set(base[key]) & set(new[key]))
        for name in base[key][next(iter(base[key]))]:
            metric = specs.get(name)
            if metric is None:
                continue
            b = [run[name]["value"] for run in base[key].values()]
            n = [run[name]["value"] for run in new[key].values()]
            pairs = [(base[key][s][name]["value"], new[key][s][name]["value"]) for s in seeds]
            result, won = verdict(b, n, pairs, metric["better"] == "lower", metric.get("bound"))
            regressed |= result == "regressed" and "bound" in metric
            fmt = "{:.4g}/{:.4g}/{:.4g}"
            print(f"{workload:<14}{name:<24}{fmt.format(*quartiles(b)):>30}"
                  f"{fmt.format(*quartiles(n)):>30}{won:>6.0%}  {result}")
    return 1 if regressed else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
