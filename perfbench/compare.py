"""Compare two sets of benchmark runs against the bounds in BENCHMARK.json.

    python3 perfbench/compare.py base.jsonl head.jsonl

Each file holds result lines as run.py appends them (untraced runs are
used). For each workload and end-to-end metric it prints both medians with
their quartiles, the ratio head/base with its base, and a verdict:

- "worse": head's median is worse than base's by more than the bound;
- "within bound": it is not;
- "unresolved": the run-to-run spread (quartile distance over median) of
  either side is wider than the bound, and not every head run beats every
  base run ("better" then).

Exits 1 if any verdict is "worse" or the share of failed requests differs.
"""

from __future__ import annotations

import json
import os
import statistics
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def load(path: str) -> dict:
    """workload -> {"values": metric -> list, "attempted": n, "failed": n}"""
    out: dict = {}
    with open(path, encoding="utf-8") as fh:
        for line in fh:
            row = json.loads(line)
            if row["trace"]:
                continue
            w = out.setdefault(row["workload"], {"values": {}, "attempted": 0, "failed": 0})
            res = row["result"]
            w["attempted"] += res["attempted"]
            w["failed"] += res["failed"]
            for name, m in res["metrics"].items():
                w["values"].setdefault(name, []).append(m["value"])
    return out


def quartiles(values):
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


def verdict(base, head, bound, lower_better):
    (b1, bm, b3), (h1, hm, h3) = quartiles(base), quartiles(head)
    spread = max((b3 - b1) / bm, (h3 - h1) / hm)
    worse = (hm - bm) / bm if lower_better else (bm - hm) / bm
    if lower_better:
        all_better = max(head) < min(base)
    else:
        all_better = min(head) > max(base)
    if spread > bound:
        return "better" if all_better else "unresolved"
    if worse > bound:
        return "worse"
    return "better" if all_better and -worse > bound else "within bound"


def main(argv) -> int:
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        bench = json.load(fh)
    base, head = load(argv[0]), load(argv[1])
    bad = False
    for w in sorted(set(base) | set(head)):
        if w not in base or w not in head:
            print(f"{w}: only in {'head' if w in head else 'base'}")
            continue
        b, h = base[w], head[w]
        fb, fh_ = b["failed"] / b["attempted"], h["failed"] / h["attempted"]
        print(f"{w}: base {len(b['values']['setup_s'])} runs, head {len(h['values']['setup_s'])} runs, "
              f"failed share base {fb:.4g} head {fh_:.4g}")
        bad |= fb != fh_
        for m in bench["end_to_end"]:
            name = m["name"]
            bv, hv = b["values"].get(name), h["values"].get(name)
            if not bv or not hv:
                print(f"  {name:20s} missing")
                bad = True
                continue
            v = verdict(bv, hv, m["bound"], m["better"] == "lower")
            bad |= v == "worse"
            (b1, bm, b3), (h1, hm, h3) = quartiles(bv), quartiles(hv)
            print(f"  {name:20s} base {bm:.5g} [{b1:.5g}, {b3:.5g}]  head {hm:.5g} [{h1:.5g}, {h3:.5g}] "
                  f"{m['unit']}  ratio {hm / bm:.4f} (head/base, base {bm:.5g})  "
                  f"bound {m['bound']}: {v}")
    return 1 if bad else 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
