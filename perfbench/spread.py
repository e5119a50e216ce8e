"""Run the benchmark over several seeds and report how much each metric spreads.

    python3 perfbench/spread.py [--workloads sweep fourier phase] \
        [--seeds 1 2 3 ...] [--seconds S] [--trace] [--out FILE]

For every workload and metric it prints the median and the quartile spread
(q3 - q1) / median, with quartiles from ``statistics.quantiles(values, n=4)``,
next to a third of the metric's bound in BENCHMARK.json.  It also checks that
each run printed exactly the metrics BENCHMARK.json lists and that every run
was correct.  Runs are sequential, one process at a time.  ``--out`` writes the
medians, quartiles, raw values and the settings of the first run as JSON.
"""
import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def run(workload, seed, seconds, trace):
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(int(trace))]
    proc = subprocess.run(cmd, capture_output=True, text=True, timeout=180, cwd=ROOT)
    if proc.returncode != 0:
        sys.exit(f"{' '.join(cmd)} exited {proc.returncode}:\n{proc.stderr}")
    lines = proc.stdout.strip().splitlines()
    settings = json.loads(next(l for l in lines if l.startswith("settings "))[9:])
    return json.loads(lines[-1]), settings, proc.stderr


def main():
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workloads", nargs="+", default=[w["name"] for w in bench["workloads"]])
    p.add_argument("--seeds", nargs="+", type=int, default=list(range(1, 11)))
    p.add_argument("--seconds", type=float, default=bench["run_seconds"])
    p.add_argument("--trace", action="store_true", help="per-layer metrics instead")
    p.add_argument("--out")
    args = p.parse_args()

    listed = bench["per_layer"] if args.trace else bench["end_to_end"]
    bounds = {m["name"]: m.get("bound") for m in listed}
    summary, ok, first_settings = {}, True, None
    for workload in args.workloads:
        values = {name: [] for name in bounds}
        for seed in args.seeds:
            result, settings, stderr = run(workload, seed, args.seconds, args.trace)
            first_settings = first_settings or settings
            if set(result["metrics"]) != set(bounds):
                sys.exit(f"{workload} seed {seed}: metrics differ from BENCHMARK.json")
            if not result["correct"] or result["failed"]:
                ok = False
                print(f"{workload} seed {seed}: not correct\n{stderr}")
            for name, m in result["metrics"].items():
                values[name].append(m["value"])
            print(f"{workload} seed {seed}: " + ", ".join(
                f"{n}={result['metrics'][n]['value']:.4g}" for n in list(bounds)[:6]), flush=True)
        summary[workload] = {}
        for name, vals in values.items():
            q1, med, q3 = statistics.quantiles(vals, n=4)
            spread = (q3 - q1) / abs(med) if med else 0.0
            summary[workload][name] = {"median": med, "q1": q1, "q3": q3, "spread": spread,
                                       "values": vals}
            bound = bounds[name]
            flag = ""
            if bound is not None and name != "setup_s" and spread > bound / 3:
                flag = "  > bound/3"
                ok = False
            limit = f"{bound / 3:.4f}" if bound is not None else "-"
            print(f"  {workload:8s} {name:32s} median {med:12.6g}  spread {spread:7.4f}"
                  f"  bound/3 {limit}{flag}")
    if args.out:
        Path(args.out).write_text(json.dumps(
            {"settings": first_settings, "seeds": args.seeds, "seconds": args.seconds,
             "trace": args.trace, "workloads": summary}, indent=1) + "\n")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
