"""Run one lrlm benchmark workload and print its result.

    python3 perfbench/run.py --workload pretrain --seed 1 --seconds 25 --trace 0

The last line of standard output is one JSON object with the keys correct,
attempted, failed and metrics. With --trace 0 the metrics are the end-to-end
metrics of BENCHMARK.json; with --trace 1 they are its per-layer metrics, and
the spans are written to .perfbench_out/. The line before it describes the
machine, the pinned thread counts and the run's sample counts.

lrlm is imported from src/ next to this directory; without it the run exits
with code 2 and prints no result.
"""

import argparse
import json
import os
import shutil
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
# One thread everywhere (nproc is 2 on the reference machine): switching BLAS
# between 1 and 2 threads moved training throughput by up to 20% either way.
THREADS = "1"
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS", "LRLM_THREADS")


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=("pretrain", "compress", "serve"))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--size", choices=("full", "small"), default="full",
                    help="small runs every workload at its smallest size (self-test)")
    return ap.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    for var in THREAD_VARS:  # before numpy is imported
        os.environ[var] = THREADS
    src = ROOT / "src"
    if not (src / "lrlm" / "__init__.py").is_file():
        print(f"error: lrlm sources not found at {src}", file=sys.stderr)
        return 2
    try:
        spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    except (OSError, ValueError) as exc:
        print(f"error: cannot read BENCHMARK.json: {exc}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))

    import machine
    import workloads

    group = spec["per_layer"] if args.trace else spec["end_to_end"]
    units = {m["name"]: m["unit"] for m in group}
    scratch = ROOT / ".perfbench_tmp" / f"{args.workload}-{args.seed}-{os.getpid()}"
    try:
        values, ledger, info, tracer = workloads.run(
            args.workload, args.seed, args.seconds, bool(args.trace), list(units),
            workloads.err_factor_from(spec), scratch, args.size)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    missing = sorted(set(units) - set(values))
    if missing:
        print(f"error: the run did not measure {missing}", file=sys.stderr)
        return 1
    if tracer is not None:
        out = ROOT / ".perfbench_out"
        out.mkdir(exist_ok=True)
        info["spans_file"] = str((out / f"spans-{args.workload}-{args.seed}.json").relative_to(ROOT))
        tracer.write(ROOT / info["spans_file"])
    print(json.dumps({"machine": machine.describe(ROOT, {v: os.environ[v] for v in THREAD_VARS}),
                      "details": info}))
    print(json.dumps({
        "correct": ledger.failed == 0,
        "attempted": ledger.attempted,
        "failed": ledger.failed,
        "metrics": {name: {"value": float(values[name]), "unit": unit} for name, unit in units.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
