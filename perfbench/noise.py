#!/usr/bin/env python3
"""Measure the benchmark's run-to-run spread and write the noise record.

Run from the root of a checkout:

    python3 perfbench/noise.py --seeds 1-10 --seconds 20 --held-out 11 --out perfbench/NOISE.json

Each workload runs once per seed untraced, then --traced times traced,
then once on the held-out seed. Per end-to-end metric and workload the record holds the median, the
quartiles (statistics.quantiles(values, n=4)), min, max, and the spread:
the distance between the quartiles as a share of the median. The
tracing overhead is the traced runs' median branches_per_s against the
untraced median, as a share of the untraced median. Each run's share of
CPU time stolen by the host is kept beside its figures.
"""
import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def seeds(spec):
    out = []
    for part in spec.split(","):
        lo, _, hi = part.partition("-")
        out.extend(range(int(lo), int(hi or lo) + 1))
    return out


def run(workload, seed, seconds, trace):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    p = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, text=True)
    lines = p.stdout.strip().splitlines()
    if p.returncode != 0 or len(lines) < 2:
        raise SystemExit("%s seed %d trace %d failed (exit %d)" % (workload, seed, trace, p.returncode))
    return json.loads(lines[-2])["info"], json.loads(lines[-1])


def summary(values):
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return {"median": q2, "q1": q1, "q3": q3, "min": min(values), "max": max(values),
            "spread": (q3 - q1) / q2 if q2 else 0.0, "values": values}


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workloads", default="sim-offline,wire-cluster,json-store-churn")
    ap.add_argument("--seeds", default="1-10")
    ap.add_argument("--seconds", type=float, default=20)
    ap.add_argument("--traced", type=int, default=1, help="traced runs per workload")
    ap.add_argument("--held-out", type=int, default=0, help="also run this seed once per workload and record it")
    ap.add_argument("--out", default="")
    args = ap.parse_args()
    bench = json.load(open(os.path.join(ROOT, "BENCHMARK.json")))
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    record = {"seconds": args.seconds, "seeds": seeds(args.seeds), "workloads": {}}
    for w in args.workloads.split(","):
        vals, env, steal = {}, None, []
        for s in record["seeds"]:
            info, res = run(w, s, args.seconds, 0)
            env = info["env"]
            steal.append(info.get("steal_share", 0.0))
            for k, m in res["metrics"].items():
                vals.setdefault(k, []).append(m["value"])
            print("%s seed %d: %s" % (w, s, " ".join("%s=%.6g" % (k, m["value"]) for k, m in sorted(res["metrics"].items()))), flush=True)
        rec = {"env": env, "steal_share": steal, "metrics": {k: summary(v) for k, v in sorted(vals.items())}}
        for k, m in rec["metrics"].items():
            flag = "" if k == "setup_s" or m["spread"] < bounds[k] / 3 else "  <-- spread above a third of the bound"
            print("  %-20s median %-12.6g spread %.4f (bound %.2f)%s" % (k, m["median"], m["spread"], bounds[k], flag), flush=True)
        traced = []
        for i in range(args.traced):
            _, res = run(w, record["seeds"][i % len(record["seeds"])], args.seconds, 1)
            traced.append(res["metrics"]["trace.branches_per_s"]["value"])
            rec["traced_layers"] = {k: m["value"] for k, m in res["metrics"].items()}
        if traced:
            untraced = rec["metrics"]["branches_per_s"]["median"]
            rec["traced_branches_per_s"] = traced
            rec["tracing_overhead_share"] = (untraced - statistics.median(traced)) / untraced
            print("  tracing overhead %.4f" % rec["tracing_overhead_share"], flush=True)
        if args.held_out:
            _, res = run(w, args.held_out, args.seconds, 0)
            rec["held_out"] = {"seed": args.held_out, "correct": res["correct"], "attempted": res["attempted"],
                               "failed": res["failed"], "metrics": {k: m["value"] for k, m in res["metrics"].items()}}
            print("  held-out seed %d: correct=%s" % (args.held_out, res["correct"]), flush=True)
        record["workloads"][w] = rec
    if args.out:
        with open(args.out, "w") as f:
            json.dump(record, f, indent=1, sort_keys=True)
            f.write("\n")


if __name__ == "__main__":
    main()
