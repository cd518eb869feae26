#!/usr/bin/env python3
"""Prove the benchmark steady: run every workload on several seeds and report spreads.

    python3 perfbench/steady.py --runs 10 [--first-seed 101] [--workloads a,b]
                                [--seconds S] [--out perfbench/evidence/NAME.json]

Run from the repository root after a build (perfbench/run.py builds). Each
round runs every workload once, with the round's seed, so slow host phases
hit all workloads alike; before every run the host-phase probe
(perfbench --probe: a fixed GEMM loop) is timed, so each value can be read
against the host's speed at that moment. For every end-to-end metric the
spread is the distance between the first and third quartile of its values
(statistics.quantiles(values, n=4)) as a share of their median, compared
with the metric's bound in BENCHMARK.json. Each untraced run also prints
other quantiles of the samples behind setup_s, fleet_fps and latency_ms on
stderr ("candidates {...}"); their spreads are reported beside the chosen
estimators'. With --out, every run's metrics, candidates, probe timings, and
the spreads are written as JSON evidence.
"""
import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def probe(binary):
    out = subprocess.run([binary, "--probe"], capture_output=True, text=True, check=True)
    return json.loads(out.stdout.strip().splitlines()[-1])


def run_once(workload, seed, seconds, trace):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    t0 = time.monotonic()
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
    wall = time.monotonic() - t0
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1]) if lines and lines[-1].startswith("{") else None
    candidates = [json.loads(line.split(" ", 1)[1]) for line in proc.stderr.splitlines()
                  if line.startswith("candidates {")]
    return proc.returncode, result, candidates[-1] if candidates else None, wall


def spread(values):
    q1, _, q3 = statistics.quantiles(values, n=4)
    median = statistics.median(values)
    return (q3 - q1) / median if median else float("inf"), median


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=101)
    parser.add_argument("--workloads", default="")
    parser.add_argument("--seconds", type=int, default=0, help="default: run_seconds")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", default="")
    args = parser.parse_args()

    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    workloads = args.workloads.split(",") if args.workloads else [w["name"] for w in bench["workloads"]]
    seconds = args.seconds or bench["run_seconds"]
    metrics = bench["end_to_end"] if args.trace == 0 else bench["per_layer"]
    binary = os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR", ".bench_build"),
                          "perfbench", "perfbench")

    runs = []
    ok = True
    for i in range(args.runs):
        seed = args.first_seed + i
        for workload in workloads:
            host = probe(binary) if os.path.exists(binary) else None
            code, result, candidates, wall = run_once(workload, seed, seconds, args.trace)
            runs.append({"workload": workload, "seed": seed, "exit": code, "wall_s": round(wall, 2),
                         "probe": host, "result": result, "candidates": candidates})
            status = "ok" if code == 0 and result and result["correct"] else "FAILED"
            ok = ok and status == "ok"
            print(f"run {i + 1}/{args.runs} {workload} seed {seed}: {status} ({wall:.1f} s)",
                  file=sys.stderr)

    summary = {}
    for workload in workloads:
        rows = [r["result"]["metrics"] for r in runs if r["workload"] == workload and r["result"]]
        summary[workload] = {}
        for m in metrics:
            values = [row[m["name"]]["value"] for row in rows if m["name"] in row]
            if len(values) < 2:
                continue
            s, median = spread(values)
            entry = {"median": median, "spread": s, "values": values}
            flag = ""
            if "bound" in m:
                entry["bound"] = m["bound"]
                entry["within_third_of_bound"] = s < m["bound"] / 3
                flag = "ok" if s < m["bound"] / 3 else ("WITHIN BOUND" if s <= m["bound"] else "TOO NOISY")
            summary[workload][m["name"]] = entry
            print(f"{workload:12s} {m['name']:28s} median {median:14.6g}  spread {100 * s:6.2f}%  {flag}")
        cands = [r["candidates"] for r in runs if r["workload"] == workload and r["candidates"]]
        for name in sorted(cands[0]) if len(cands) >= 2 else []:
            s, median = spread([c[name] for c in cands])
            summary[workload]["candidate " + name] = {"median": median, "spread": s,
                                                      "values": [c[name] for c in cands]}
            print(f"{workload:12s} {'(' + name + ')':28s} median {median:14.6g}  spread {100 * s:6.2f}%")

    if args.out:
        with open(args.out, "w") as f:
            json.dump({"seconds": seconds, "trace": args.trace, "runs": runs, "summary": summary}, f,
                      indent=1)
            f.write("\n")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
