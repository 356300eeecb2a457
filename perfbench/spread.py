#!/usr/bin/env python3
"""Steadiness check: run the benchmark once per seed and report, for every
end-to-end metric, the median and the quartile spread (Q3 - Q1) / median,
against the bound BENCHMARK.json gives it.

Run from the checkout root:

    python3 perfbench/spread.py --workloads closed-mixed,open-poisson --seeds 1-10
"""
import argparse
import json
import statistics
import subprocess
import sys


def seeds(spec):
    lo, _, hi = spec.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workloads", required=True)
    ap.add_argument("--seeds", default="1-10")
    ap.add_argument("--trace", default="0")
    args = ap.parse_args()
    bench = json.load(open("BENCHMARK.json"))
    bounds = {m["name"]: m.get("bound") for m in bench["end_to_end"]}
    worst = 0.0
    for wl in args.workloads.split(","):
        values = {}
        for seed in seeds(args.seeds):
            cmd = bench["command"] + ["--workload", wl, "--seed", str(seed),
                                      "--seconds", str(bench["run_seconds"]), "--trace", args.trace]
            out = subprocess.run(cmd, capture_output=True, text=True, timeout=900)
            lines = out.stdout.strip().splitlines()
            if out.returncode != 0 or not lines:
                print(f"{wl} seed {seed}: exit {out.returncode}\n{out.stdout[-2000:]}{out.stderr[-2000:]}")
                sys.exit(1)
            res = json.loads(lines[-1])
            for name, m in res["metrics"].items():
                values.setdefault(name, []).append(m["value"])
            print(f"{wl} seed {seed}: " + ", ".join(f"{k}={v['value']:.4g}" for k, v in sorted(res["metrics"].items())), flush=True)
        print(f"== {wl}")
        for name, vs in sorted(values.items()):
            q1, med, q3 = statistics.quantiles(vs, n=4)
            spread = (q3 - q1) / med if med else float("nan")
            bound = bounds.get(name)
            flag = ""
            if bound is not None and name != "setup_s":
                worst = max(worst, spread / bound)
                flag = "ok" if spread < bound / 3 else ("WIDE" if spread < bound else "OVER BOUND")
            print(f"  {name:16s} median {med:10.4f}  spread {spread:7.4f}  bound {bound}  {flag}")
    print(f"worst spread/bound ratio: {worst:.3f}")


if __name__ == "__main__":
    main()
