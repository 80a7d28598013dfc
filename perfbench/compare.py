#!/usr/bin/env python3
"""Compare two sets of benchmark result records, workload by workload.

    python3 perfbench/compare.py --base perfbench/results/A*.json --head perfbench/results/B*.json

Prints, for every metric both sides report, each side's median and quartiles
over its records and the change of the head median relative to the base.
Records whose ``backend`` differs are refused, so a compiled-kernel run is
never compared with a pure-numpy one by accident.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from collections import defaultdict


def load(paths: list[str]) -> list[dict]:
    records = []
    for path in paths:
        with open(path) as fh:
            records.append(json.load(fh))
    return records


def grouped(records: list[dict]) -> dict[tuple, dict[str, list[float]]]:
    """Metric values grouped by (workload, trace mode)."""
    groups: dict[tuple, dict[str, list[float]]] = defaultdict(lambda: defaultdict(list))
    for record in records:
        table = record["per_layer"] if record["trace"] else record["end_to_end"]
        for name, metric in table.items():
            groups[(record["workload"], record["trace"])][name].append(metric["value"])
    return groups


def summary(values: list[float]) -> str:
    med = statistics.median(values)
    q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (med, med, med)
    return f"{med:.6g} [{q1:.6g}, {q3:.6g}] n={len(values)}"


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--base", nargs="+", required=True, help="records of the parent")
    parser.add_argument("--head", nargs="+", required=True, help="records of the change")
    args = parser.parse_args()
    base_records, head_records = load(args.base), load(args.head)
    kinds = {r["backend"] for r in base_records + head_records}
    if len(kinds) != 1:
        print(f"error: records come from different backends {sorted(kinds)}; not comparable",
              file=sys.stderr)
        return 2
    for side, records in (("base", base_records), ("head", head_records)):
        revisions = sorted({f"{r['revision']['commit']} dirty={r['revision']['dirty']}"
                            for r in records})
        print(f"{side} revision: {'; '.join(revisions)}")
    base, head = grouped(base_records), grouped(head_records)
    for key in sorted(set(base) & set(head)):
        workload, trace = key
        print(f"{workload} ({'traced' if trace else 'untraced'})")
        for name in base[key]:
            if name not in head[key]:
                print(f"  {name:32s} absent in head")
                continue
            b, h = statistics.median(base[key][name]), statistics.median(head[key][name])
            change = f"{(h - b) / b:+.2%}" if b else "n/a"
            print(f"  {name:32s} base {summary(base[key][name])}  head {summary(head[key][name])}"
                  f"  change {change}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
