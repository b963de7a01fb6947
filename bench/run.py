#!/usr/bin/env python3
"""nullheat benchmark.

Run one workload (the last line of output is one JSON result):

    python3 bench/run.py --workload cost-ladder --seed 1 --seconds 20 --trace 0

`--trace 0` reports the end-to-end metrics, `--trace 1` the per-layer
metrics of a separately traced run.  `--workload all` runs the four
workloads one after another.  `--record FILE` appends each result to FILE;
`--compare A B` compares two such files metric by metric against the bounds
in BENCHMARK.json; `--ladder` times each layer on an N ladder.

The parent process stays light: each workload runs in a fresh worker
process (so its peak RSS is its own), preceded by set-up probes that only
import, load inputs and warm up.  Workers use one BLAS thread, so with
cost_sweep's default pool (one thread per CPU) the run stays within the
machine's cores.  Times are scaled to a reference speed (bench/speed.py).
"""

import argparse
import contextlib
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
THREAD_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
WORKLOADS = ("certify-all", "cost-ladder", "control-audit", "cli-default")
SETUP_PROBES = 2      # set-up is timed in these and in the worker: median of three
DEADLINE_S = 175.0    # a run never exceeds this, probes included


class WorkerError(RuntimeError):
    pass


def load_spec():
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        return json.load(fh)


def _spawn(args, deadline):
    env = dict(os.environ, **THREAD_ENV)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    start = time.perf_counter()
    try:
        proc = subprocess.run([sys.executable, str(HERE / "run.py"), *args], env=env,
                              capture_output=True, text=True,
                              timeout=max(1.0, deadline - start))
    except subprocess.TimeoutExpired as exc:
        raise WorkerError(f"worker {' '.join(args)} timed out") from exc
    if proc.returncode != 0:
        raise WorkerError(f"worker {' '.join(args)} exited {proc.returncode}:\n"
                          + proc.stderr[-4000:])
    return start, json.loads(proc.stdout.strip().splitlines()[-1])


def run_workload(name, seed, seconds, trace):
    """Set-up probes, then the measured worker; returns the result object."""
    deadline = time.perf_counter() + DEADLINE_S
    common = ["--workload", name, "--seed", str(seed)]
    setups = []
    for _ in range(SETUP_PROBES):
        start, rec = _spawn(["--worker", "--setup-only", *common], deadline)
        setups.append((rec["ready"] - start) * rec["setup_scale"])
    start, rec = _spawn(["--worker", *common, "--seconds", str(seconds),
                         "--trace", str(trace)], deadline)
    setups.append((rec["ready"] - start) * rec["setup_scale"])
    ops = rec["ops"]
    result = {"correct": not rec["unexpected"], "attempted": len(ops),
              "failed": sum(1 for op in ops if op[1] is not None)}
    if trace:
        spec = load_spec()
        metrics = {m["name"]: {"value": rec["layers"][m["name"]], "unit": m["unit"]}
                   for m in spec["per_layer"]}
    else:
        # times at the reference speed: see bench/speed.py and "Steadiness" in bench/README.md
        values = {
            "setup_s": statistics.median(setups),
            "pass_s": statistics.median(p[0] for p in rec["passes"]),
            "pass_cpu_s": statistics.median(p[1] for p in rec["passes"]),
            "peak_rss_mb": rec["peak_rss_mb"],
        }
        units = {"setup_s": "s", "pass_s": "s", "pass_cpu_s": "s", "peak_rss_mb": "MB"}
        metrics = {k: {"value": v, "unit": units[k]} for k, v in values.items()}
    result["metrics"] = metrics
    return result, rec


# ---------------------------------------------------------------------------
# worker process

def worker(args):
    import speed
    import tracing
    import workloads

    tracer = tracing.Tracer() if args.trace and not args.setup_only else None
    if tracer:
        tracer.install()
    workdir = OUT / f"work-{os.getpid()}"
    try:
        one_pass = workloads.make(args.workload, args.seed, str(workdir))
        workloads.warm_up()
        ready = time.perf_counter()
        setup_scale = speed.scale_now()
        if args.setup_only:
            print(json.dumps({"ready": ready, "setup_scale": setup_scale}))
            return 0
        paused = tracer.paused if tracer else contextlib.nullcontext
        if tracer:
            tracer.spans.clear()
        passes, ops, probes = [], [], []
        begin = time.perf_counter()
        while True:
            clock = speed.Clock(tracer)
            clock.tick()
            ops.extend(one_pass(paused, clock.tick))
            clock.tick()
            passes.append((clock.wall, clock.cpu, clock.raw_wall, clock.raw_cpu))
            probes.extend(clock.probes)
            if time.perf_counter() - begin >= args.seconds:
                break
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    known = {op for wl, op in workloads.KNOWN_FAULTS if wl == args.workload}
    rec = {
        "ready": ready,
        "setup_scale": setup_scale,
        "probe_median_s": statistics.median(probes),
        "passes": passes,
        "ops": ops,
        "unexpected": [op for op in ops if op[1] is not None and op[0] not in known],
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "layers": None,
    }
    if tracer:
        tracer.uninstall()
        trace_dir = OUT / "trace"
        trace_dir.mkdir(parents=True, exist_ok=True)
        tracer.write_jsonl(trace_dir / f"{args.workload}-seed{args.seed}.jsonl")
        rec["layers"] = tracing.layer_metrics(
            tracer.spans, len(passes), statistics.median(p[0] for p in passes))
    print(json.dumps(rec))
    return 0


# ---------------------------------------------------------------------------
# reporting and comparison

def describe(name, result, rec):
    walls = [p[2] for p in rec["passes"]]
    lines = [f"# {name}: attempted {result['attempted']}, failed {result['failed']}, "
             f"correct {str(result['correct']).lower()}, passes {len(rec['passes'])}",
             f"#   unscaled pass wall: median {statistics.median(walls):.4g} s, fastest "
             f"{min(walls):.4g} s; speed probe median {1e3 * rec['probe_median_s']:.4g} ms"]
    for metric, m in result["metrics"].items():
        lines.append(f"#   {metric} = {m['value']:.6g} {m['unit']}")
    failures = {}
    for op, error in rec["ops"]:
        if error is not None:
            failures.setdefault(op, error)
    for op, error in failures.items():
        lines.append(f"#   failed: {op}: {error[:300]}")
    return "\n".join(lines)


def _quartile_spread(values):
    if len(values) < 2:
        return 0.0
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / q2


def compare(path_a, path_b):
    """Median of each end-to-end metric per workload, set B against set A."""
    spec = load_spec()

    def load(path):
        sets = {}
        with open(path, encoding="utf-8") as fh:
            for line in fh:
                rec = json.loads(line)
                if not rec["trace"]:
                    sets.setdefault(rec["workload"], []).append(rec["result"])
        return sets

    a, b = load(path_a), load(path_b)
    agree = True
    print(f"{'workload':14s} {'metric':12s} {'median A':>12s} {'median B':>12s} "
          f"{'change':>8s} {'bound':>6s} {'IQR/med A':>9s} {'IQR/med B':>9s}  verdict")
    for workload in sorted(set(a) & set(b)):
        for m in spec["end_to_end"]:
            va = [r["metrics"][m["name"]]["value"] for r in a[workload]]
            vb = [r["metrics"][m["name"]]["value"] for r in b[workload]]
            ma, mb = statistics.median(va), statistics.median(vb)
            change = (mb - ma) / ma
            ok = abs(change) <= m["bound"]
            agree = agree and ok
            print(f"{workload:14s} {m['name']:12s} {ma:12.6g} {mb:12.6g} {change:+8.2%} "
                  f"{m['bound']:6.2f} {_quartile_spread(va):9.2%} {_quartile_spread(vb):9.2%}  "
                  f"{'agree' if ok else 'DIFFER'}")
        share_a = {r["failed"] / r["attempted"] for r in a[workload]}
        share_b = {r["failed"] / r["attempted"] for r in b[workload]}
        same = len(share_a | share_b) == 1
        agree = agree and same
        print(f"{workload:14s} failed share A {sorted(share_a)} B {sorted(share_b)}  "
              f"{'agree' if same else 'DIFFER'}")
    missing = set(a) ^ set(b)
    if missing:
        print(f"workloads in only one set: {sorted(missing)}")
        agree = False
    return 0 if agree else 1


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=None)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record", metavar="FILE", help="append each result to FILE")
    parser.add_argument("--compare", nargs=2, metavar=("A", "B"))
    parser.add_argument("--ladder", action="store_true")
    parser.add_argument("--worker", action="store_true", help=argparse.SUPPRESS)
    parser.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    if args.compare:
        return compare(*args.compare)
    if not (SRC / "nullheat" / "__init__.py").is_file():
        print(f"bench: no nullheat sources under {SRC}", file=sys.stderr)
        return 2
    os.environ.update(THREAD_ENV)
    if args.worker:
        sys.path.insert(0, str(SRC))
        return worker(args)
    if args.ladder:
        sys.path.insert(0, str(SRC))
        import ladder
        return ladder.main(OUT)
    if args.workload is None:
        parser.error("--workload is required")
    seconds = args.seconds if args.seconds is not None else load_spec()["run_seconds"]
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    results = {}
    for name in names:
        try:
            result, rec = run_workload(name, args.seed, seconds, args.trace)
        except WorkerError as exc:
            print(f"bench: {exc}", file=sys.stderr)
            return 1
        print(describe(name, result, rec), flush=True)
        if args.record:
            with open(args.record, "a", encoding="utf-8") as fh:
                fh.write(json.dumps({"workload": name, "seed": args.seed, "trace": args.trace,
                                     "seconds": seconds, "result": result,
                                     "passes": rec["passes"]}) + "\n")
        results[name] = result
    print(json.dumps(results[names[0]] if len(names) == 1 else results))
    return 0


if __name__ == "__main__":
    sys.exit(main())
