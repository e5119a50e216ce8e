"""nusample benchmark: one seeded workload per run, closed loop, one client.

    python3 perfbench/run.py --workload {sweep,fourier,phase,all} --seed N \
        --seconds S --trace {0,1}

Run from anywhere; the program is imported from ``src/`` beside this
directory.  ``--trace 0`` measures the end-to-end metrics with tracing off;
``--trace 1`` runs the same ops traced and untraced, in alternate order, and
reports the per-layer metrics, the tracing overhead and the in-process CLI
runs.  The last line of stdout is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``.  ``--workload all`` runs each
workload in its own process and prints their results.  See README.md.
"""
import os
import sys
import time

START = time.perf_counter()
# Pinned before numpy loads: one OpenBLAS thread is both faster and steadier
# than two for these small dense problems.
BLAS_THREADS = 1
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = str(BLAS_THREADS)
os.environ.pop("NUSAMPLE_THREADS", None)   # keep the CLI's --threads default

import argparse
import json
import platform
import resource
import shutil
import statistics
import subprocess
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
OUT = ROOT / ".perfbench_out"
WORKLOAD_NAMES = ("sweep", "fourier", "phase")
SETUP_REPEATS = 3      # this process plus two fresh ones; setup_s is their median
TAIL_BEYOND = 10       # op_tail_s leaves this many slower ops beyond it
CHILD_TIMEOUT_S = 170

# per-layer metric -> (unit, better); times are self time per traced op
PER_LAYER = {
    "balayage.solve_s": ("s/op", "lower"),
    "balayage.centers_solved": ("count/op", "lower"),
    "balayage.ms_per_center": ("ms", "lower"),
    "balayage.solver_init_s": ("s/op", "lower"),
    "balayage.solver_inits": ("count/op", "lower"),
    "balayage.cache_hit_ratio": ("frac", "higher"),
    "balayage.identity_residual_s": ("s/op", "lower"),
    "balayage.window_s": ("s/op", "lower"),
    "balayage.infeasible": ("count/op", "lower"),
    "frames.frame_bounds_s": ("s/op", "lower"),
    "frames.frame_bounds_nodes": ("count/op", "lower"),
    "frames.subspace_s": ("s/op", "lower"),
    "frames.covering_experiment_s": ("s/op", "lower"),
    "frames.analysis_s": ("s/op", "lower"),
    "frames.reconstruct_s": ("s/op", "lower"),
    "frames.cg_iterations": ("count/op", "lower"),
    "frames.cg_unconverged": ("count/op", "lower"),
    "frames.not_a_frame": ("count/op", "lower"),
    "geometry.covering_check_s": ("s/op", "lower"),
    "geometry.covering_points": ("count/op", "lower"),
    "geometry.build_grid_s": ("s/op", "lower"),
    "geometry.grid_nodes": ("count/op", "lower"),
    "sampling.generate_s": ("s/op", "lower"),
    "sampling.points": ("count/op", "lower"),
    "spectral.signal_gen_s": ("s/op", "lower"),
    "timefreq.stft_checks_s": ("s/op", "lower"),
    "timefreq.fixture_s": ("s/op", "lower"),
    "timefreq.gabor_s": ("s/op", "lower"),
    "timefreq.gabor_cg_iterations": ("count/op", "lower"),
    "psido.symbol_s": ("s/op", "lower"),
    "psido.validate_s": ("s/op", "lower"),
    "psido.frame_check_s": ("s/op", "lower"),
    "psido.frame_checks": ("count/op", "lower"),
    "bench.self_s": ("s/op", "lower"),
    "trace_overhead_frac": ("frac", "lower"),
    **{f"cli.{cmd}.command_s": ("s", "lower")
       for cmd in ("covering", "frame-bounds", "gabor", "identity", "psido",
                   "reconstruct", "stft")},
}
# workload -> (layers whose summed share of traced op time must exceed 1/2,
#              layers whose share must be exactly 0)
LAYER_SHARES = {
    "sweep": (("balayage",), ()),
    "fourier": (("frames", "geometry"), ("balayage",)),
    "phase": (("timefreq", "psido"), ()),
}


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True, choices=(*WORKLOAD_NAMES, "all"))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-only", action="store_true",
                   help="set up, print the set-up seconds and exit (used for setup_s)")
    return p.parse_args(argv)


def import_program():
    """Import nusample from this checkout's src/, and nothing else."""
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    try:
        import nusample
    except ImportError as exc:
        sys.exit(f"perfbench: cannot import nusample from {src}: {exc}")
    if Path(nusample.__file__).resolve().parent != (src / "nusample").resolve():
        sys.exit(f"perfbench: nusample was imported from {nusample.__file__}, not {src}")


def git_commit():
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    ref = ref[5:]
    loose = ROOT / ".git" / ref
    if loose.is_file():
        return loose.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    return None


def settings(args):
    import numpy
    import scipy
    blas = numpy.__config__.CONFIG["Build Dependencies"]["blas"]
    return {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "nproc": len(os.sched_getaffinity(0)),
        "machine": platform.machine(), "python": platform.python_version(),
        "numpy": numpy.__version__, "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": BLAS_THREADS, "git_commit": git_commit(),
    }


def make_runner(tracer, cycle, op_rng, seed):
    """``run(index, errors)`` runs op ``index`` once and returns (wall seconds,
    ok).  A failure is recorded in ``errors``, never raised, so one bad op
    cannot abort the run."""
    def run(index, errors):
        name, kind = cycle[(index - 1) % len(cycle)] if index else cycle[0]
        tracer.op_id = index
        t0 = time.perf_counter()
        try:
            tracer.call("op", kind, tracer, op_rng(seed, index))
            ok = True
        except Exception as exc:   # counted in failed and reported at the end
            errors.append(f"op {index} ({name}): {type(exc).__name__}: {exc}")
            ok = False
        return time.perf_counter() - t0, ok
    return run


def timed_loop(tracer, run, cycle_len, seconds, traced_too):
    """Whole cycles until ``seconds`` have passed.  With ``traced_too`` each
    cycle also runs traced, first on odd cycles and second on even ones."""
    plain, traced, errors = [], [], []
    start = time.perf_counter()
    index, c = 0, 0
    while True:
        ops = range(index + 1, index + cycle_len + 1)
        passes = [False, True] if traced_too else [False]
        for enabled in (passes if c % 2 == 0 else passes[::-1]):
            tracer.enabled = enabled
            (traced if enabled else plain).extend(run(i, errors) for i in ops)
        tracer.enabled = False
        index += cycle_len
        c += 1
        if time.perf_counter() - start >= seconds:
            return plain, traced, errors, time.perf_counter() - start


def child_setup_seconds(args):
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds), "--setup-only"]
    proc = subprocess.run(cmd, capture_output=True, text=True, timeout=CHILD_TIMEOUT_S)
    if proc.returncode != 0:
        raise RuntimeError(f"set-up process failed: {proc.stderr.strip()}")
    return float(proc.stdout.strip().splitlines()[-1])


def end_to_end(setups, plain, elapsed):
    lat = sorted(dt for dt, _ in plain)
    n = len(lat)
    failed = sum(not ok for _, ok in plain)
    k = n - TAIL_BEYOND - 1 if n > TAIL_BEYOND else n - 1   # too few ops: the slowest
    metrics = {
        "setup_s": (statistics.median(setups), "s"),
        "ops_per_s": (n / elapsed, "1/s"),
        "op_p50_s": (statistics.median(lat), "s"),
        "op_tail_s": (lat[k], "s"),
        "ok_frac": ((n - failed) / n, "frac"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
    }
    notes = {
        "setup_s": "median of " + ", ".join(f"{s:.3f}" for s in setups),
        "op_tail_s": f"p{100.0 * (k + 1) / n:.1f}, {n - k - 1} of {n} ops beyond",
        "ok_frac": f"failed_frac {failed / n:.4g} = {failed} of {n} ops",
        "ops_per_s": f"{n} ops in {elapsed:.2f} s",
    }
    return metrics, notes, n, failed


def per_layer(workload, tracer, plain, traced, cli_times):
    """Per-layer metrics of the traced ops, and a list of failed trace checks."""
    n = len(traced)
    by_name, roots = tracer.layer_self_times("op")
    counts = tracer.counts
    metrics, problems = {}, []
    for name, (unit, _) in PER_LAYER.items():
        if unit == "s/op":
            metrics[name] = (by_name.get(name[:-2], 0.0) / n, unit)
        elif unit == "count/op":
            metrics[name] = (counts.get(name, 0) / n, unit)
    op_wall = sum(wall for wall, _ in roots)
    metrics["bench.self_s"] = ((op_wall - sum(inner for _, inner in roots)) / n, "s/op")
    solved = counts.get("balayage.centers_solved", 0)
    metrics["balayage.ms_per_center"] = (
        1e3 * by_name.get("balayage.solve", 0.0) / solved if solved else 0.0, "ms")
    requested = counts.get("balayage.centers_requested", 0)
    hits = counts.get("balayage.cache_hits", 0)
    metrics["balayage.cache_hit_ratio"] = (hits / requested if requested else 0.0, "frac")
    plain_s = sum(dt for dt, _ in plain)
    metrics["trace_overhead_frac"] = ((sum(dt for dt, _ in traced) - plain_s) / plain_s, "frac")
    for cmd, seconds in cli_times.items():
        metrics[f"cli.{cmd}.command_s"] = (statistics.mean(seconds), "s")

    bad = sum(inner > wall + 1e-9 for wall, inner in roots)
    if bad:
        problems.append(f"layer self times exceed op wall time on {bad} ops")
    shares = {}
    for name, seconds in by_name.items():
        layer = name.split(".")[0]
        if layer != "op":
            shares[layer] = shares.get(layer, 0.0) + seconds / op_wall
    most, none = LAYER_SHARES[workload]
    if sum(shares.get(layer, 0.0) for layer in most) <= 0.5:
        problems.append(f"layer-share check: {'+'.join(most)} is not most of "
                        f"{workload}'s op time")
    for layer in none:
        if shares.get(layer, 0.0) != 0.0:
            problems.append(f"layer-share check: {layer} runs on {workload}")
    notes = {
        "balayage.cache_hit_ratio": f"{hits:g} of {requested:g} centers requested",
        "trace_overhead_frac": f"traced {sum(dt for dt, _ in traced):.3f} s vs "
                               f"untraced {plain_s:.3f} s over the same {n} ops",
    }
    return {name: metrics[name] for name in PER_LAYER}, notes, shares, problems


def run_cli(tracer):
    """Each shipped config twice through nusample.cli.main, in this process.
    Returns ({command: [seconds, seconds]}, problems); each problem is one
    failed call or one report that differs between the two calls."""
    from nusample import cli
    times, problems = {}, []
    out = OUT / "cli"
    tracer.enabled = True
    tracer.op_id = None
    for config in sorted((ROOT / "configs").glob("*.json")):
        cmd = config.stem.replace("_", "-")
        reports = []
        for rep in range(2):
            out_dir = out / f"{config.stem}-{rep}"
            t0 = time.perf_counter()
            try:
                code = tracer.call(f"cli.{cmd}", cli.main,
                                   [cmd, "--config", str(config), "--out", str(out_dir)])
            except Exception as exc:   # reported as a failed check
                code = f"{type(exc).__name__}: {exc}"
            times.setdefault(cmd, []).append(time.perf_counter() - t0)
            if code != 0:
                problems.append(f"cli {cmd}: exit {code}")
                continue
            reports.append((out_dir / "report.json").read_bytes())
        if len(reports) == 2 and reports[0] != reports[1]:
            problems.append(f"cli {cmd}: report.json differs between two runs")
    tracer.enabled = False
    shutil.rmtree(out, ignore_errors=True)
    return times, problems


def print_metrics(metrics, notes):
    for name, (value, unit) in metrics.items():
        note = f"  ({notes[name]})" if name in notes else ""
        print(f"  {name:32s} {value:14.6g} {unit}{note}")


def run_one(args):
    import_program()
    import workloads
    from spans import Tracer

    tracer = Tracer(enabled=False)
    cycle = workloads.WORKLOADS[args.workload]
    run = make_runner(tracer, cycle, workloads.op_rng, args.seed)
    warm_errors = []
    run(0, warm_errors)
    setup = time.perf_counter() - START
    if args.setup_only:
        print(repr(setup))   # a failed warm-up is reported by the parent run
        return 0

    plain, traced, errors, elapsed = timed_loop(tracer, run, len(cycle), args.seconds,
                                                bool(args.trace))
    errors = warm_errors + errors
    info = settings(args)
    if args.trace:
        cli_times, problems = run_cli(tracer)
        attempted = len(plain) + len(traced) + sum(len(v) for v in cli_times.values())
        failed = sum(not ok for _, ok in plain + traced) + len(problems)
        metrics, notes, shares, more = per_layer(args.workload, tracer, plain, traced, cli_times)
        problems += more
        OUT.mkdir(exist_ok=True)
        trace_file = OUT / f"trace-{args.workload}-seed{args.seed}.json"
        with open(trace_file, "w") as fh:
            json.dump({"settings": info, "layer_shares": shares, "errors": errors,
                       "problems": problems,
                       "metrics": {k: v for k, (v, _) in metrics.items()},
                       **tracer.dump()}, fh)
        print(f"workload {args.workload} seed {args.seed}, traced: {len(traced)} ops "
              f"traced and {len(plain)} untraced in {elapsed:.2f} s; spans in {trace_file}")
        print("  layer shares of traced op time: "
              + ", ".join(f"{k} {v:.3f}" for k, v in sorted(shares.items())))
    else:
        setups = [setup] + [child_setup_seconds(args) for _ in range(SETUP_REPEATS - 1)]
        metrics, notes, attempted, failed = end_to_end(setups, plain, elapsed)
        problems = []
        print(f"workload {args.workload} seed {args.seed}: {attempted} ops, {failed} failed")
    print_metrics(metrics, notes)
    for line in errors[:20] + problems:
        print(f"  FAILED {line}", file=sys.stderr)
    print("settings " + json.dumps(info, sort_keys=True))
    result = {"correct": not errors and not problems, "attempted": attempted,
              "failed": failed,
              "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}}
    print(json.dumps(result))
    return 0


def run_all(args):
    """Every workload, one process each; prints their reports and a summary."""
    results = {}
    for name in WORKLOAD_NAMES:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)]
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, timeout=CHILD_TIMEOUT_S)
        sys.stdout.write(proc.stdout)
        if proc.returncode != 0:
            return proc.returncode
        results[name] = json.loads(proc.stdout.strip().splitlines()[-1])
    print(json.dumps(results))
    return 0


def main(argv=None):
    args = parse_args(argv)
    if args.workload == "all":
        return run_all(args)
    return run_one(args)


if __name__ == "__main__":
    sys.exit(main())
