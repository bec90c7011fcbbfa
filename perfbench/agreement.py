"""Check that the benchmark agrees with itself: two interleaved sets of runs.

    python3 perfbench/agreement.py --runs 10 --sets 2
    python3 perfbench/agreement.py --runs 5 --sets 1 --workloads serve   # quick tuning

Run k of every set uses seed k+1. The sets are interleaved run by run, and the
order of the sets alternates, so that machine drift over the session falls on
every set alike instead of on whichever set ran last. For each workload and
end-to-end metric it prints each set's median and quartile spread (IQR over
median) against the metric's bound, the worsening of each later set's median
against the first set's, and every value in the order it was measured, so
drift stays visible. Raw results go to .perfbench_out/.
"""

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def one_run(workload: str, seed: int, seconds: int) -> dict:
    proc = subprocess.run(
        [sys.executable, str(ROOT / "perfbench" / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
        cwd=ROOT, capture_output=True, text=True, timeout=180, check=False)
    if proc.returncode != 0:
        raise RuntimeError(f"{workload} seed {seed} exited {proc.returncode}: {proc.stderr[-2000:]}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    if not result["correct"]:
        raise RuntimeError(f"{workload} seed {seed}: {result['failed']} failed operations")
    return result


def spread(values) -> float:
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / q2


def worsening(first: float, later: float, better: str) -> float:
    """How much worse `later` is than `first`, as a share of `first` (negative = better)."""
    return (later - first) / first if better == "lower" else (first - later) / first


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--sets", type=int, default=2)
    ap.add_argument("--workloads", default=",".join(w["name"] for w in spec["workloads"]))
    ap.add_argument("--seconds", type=int, default=spec["run_seconds"])
    args = ap.parse_args(argv)
    workloads = args.workloads.split(",")

    # results[workload][set] = list of metric dicts in seed order; log keeps measuring order.
    results = {w: [[] for _ in range(args.sets)] for w in workloads}
    log = []
    for k in range(args.runs):
        order = range(args.sets) if k % 2 == 0 else reversed(range(args.sets))
        for s in order:
            for w in workloads:
                r = one_run(w, k + 1, args.seconds)
                metrics = {m: v["value"] for m, v in r["metrics"].items()}
                results[w][s].append(metrics)
                log.append({"workload": w, "set": s, "seed": k + 1, "time": time.time(), "metrics": metrics})
                print(f"run {k + 1}/{args.runs} set {s} {w}: attempted {r['attempted']}", flush=True)

    ok = True
    for w in workloads:
        print(f"\n== {w}")
        print(f"{'metric':<16} {'bound':>6} " + " ".join(f"{'med' + str(s):>12} {'spread' + str(s):>8}"
                                                         for s in range(args.sets)) + "  worse")
        for m in spec["end_to_end"]:
            name, bound = m["name"], m["bound"]
            meds, spreads = [], []
            for s in range(args.sets):
                vals = [r[name] for r in results[w][s]]
                meds.append(statistics.median(vals))
                spreads.append(spread(vals))
            worse = [worsening(meds[0], later, m["better"]) for later in meds[1:]]
            bad = any(x > bound for x in worse) or (name != "setup_s" and any(x > bound for x in spreads))
            ok &= not bad
            flag = "FAIL" if bad else ("warn" if any(x > bound / 3 for x in spreads) else "")
            print(f"{name:<16} {bound:>6.2f} " + " ".join(f"{md:>12.5g} {sp:>8.3f}" for md, sp in zip(meds, spreads))
                  + "  " + " ".join(f"{x:+.3f}" for x in worse) + f"  {flag}")
        for name in ("train_tok_s", "decode_tok_s", "decompose_s"):
            order = [e["metrics"][name] for e in log if e["workload"] == w]
            print(f"{name} in measuring order: " + " ".join(f"{v:.4g}" for v in order))
    out = ROOT / ".perfbench_out"
    out.mkdir(exist_ok=True)
    path = out / f"agreement-{int(time.time())}.json"
    path.write_text(json.dumps(log))
    print(f"\n{'all spreads and medians within bounds' if ok else 'OUT OF BOUNDS'}; raw runs in {path}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
