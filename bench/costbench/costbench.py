#!/usr/bin/env python3
"""Drive the costbench binary (bench/costbench/run.sh builds it first).

One run (`--workload W` with `--trace 0|1`) hands over to the binary, so
its last stdout line is the run's JSON result. Every other form runs the
binary several times and summarizes:

  (no mode)      each workload once, untraced
  --trace        each workload untraced, then traced (N such pairs with
                 --repeat N); prints trace_overhead_frac = 1 - median
                 traced qps / median untraced qps
  --repeat N     N untraced runs per workload (seeds seed, seed+K, ...;
                 K = --seed-step, 0 repeats one seed); prints each
                 end-to-end metric's median, interquartile range and max
                 relative spread, and flags every metric whose IQR exceeds
                 its bound in BENCHMARK.json
  --smoke        every workload, traced, at scale 0.05 with 2 s windows
  --write-golden rewrite golden/<workload>.txt from a seed-1 run (after a
                 deliberate change to the data generator or the results)

Exits non-zero when any run fails a check or any spread exceeds its bound.
"""
import argparse
import json
import os
import statistics
import subprocess
import sys

WORKLOADS = ["dashboard", "reporting", "cold_scan", "ingest"]
ROOT = os.path.dirname(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))))


def load_spec():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as f:
        return json.load(f)


def run(binary, workload, seed, seconds, trace, extra=()):
    """Run the binary once, echo its output, return ({metric: value}, ok)."""
    cmd = [binary, "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "1" if trace else "0",
           *extra]
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, check=False)
    lines = proc.stdout.splitlines()
    metrics = {}
    for line in lines[:-1]:
        print(line)
        parts = line.split()
        if len(parts) == 4 and parts[0] == workload:
            try:
                metrics[parts[1]] = float(parts[2])
            except ValueError:
                pass
    ok = proc.returncode == 0 and bool(lines) and \
        json.loads(lines[-1]).get("correct") is True
    if not ok:
        print(f"{workload} seed {seed}: FAILED (exit {proc.returncode})")
    sys.stdout.flush()
    return metrics, ok


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def repeat(args, spec, workloads):
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    ok = True
    table = []
    for w in workloads:
        runs = []
        for i in range(args.repeat):
            metrics, run_ok = run(args.bin, w, args.seed + i * args.seed_step,
                                  args.seconds, False)
            ok = ok and run_ok
            runs.append(metrics)
        for name, bound in bounds.items():
            values = [r[name] for r in runs if name in r]
            if not values:
                print(f"{w} {name}: MISSING")
                ok = False
                continue
            q1, med, q3 = quartiles(values)
            iqr = (q3 - q1) / med if med else 0.0
            span = (max(values) - min(values)) / med if med else 0.0
            flag = iqr > bound
            ok = ok and not flag
            table.append((w, name, med, q3 - q1, iqr, span, bound, flag))
    print(f"\n{'workload':<10} {'metric':<18} {'median':>12} {'IQR':>11} "
          f"{'IQR/med':>8} {'max/med':>8} {'bound':>6}")
    for w, name, med, iqr_abs, iqr, span, bound, flag in table:
        print(f"{w:<10} {name:<18} {med:>12.6g} {iqr_abs:>11.4g} "
              f"{iqr:>8.3f} {span:>8.3f} {bound:>6.2f}"
              f"{'  EXCEEDS BOUND' if flag else ''}")
    return ok


def main():
    spec = load_spec()
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawTextHelpFormatter)
    ap.add_argument("--bin", required=True)
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=spec["run_seconds"])
    ap.add_argument("--trace", nargs="?", const="both", default=None,
                    choices=["0", "1", "both"])
    ap.add_argument("--repeat", type=int, default=0)
    ap.add_argument("--seed-step", type=int, default=1)
    ap.add_argument("--smoke", action="store_true")
    ap.add_argument("--write-golden", action="store_true")
    args = ap.parse_args()
    workloads = [args.workload] if args.workload else WORKLOADS

    if args.workload and args.trace in ("0", "1") and not (
            args.repeat or args.smoke):
        os.execv(args.bin, [args.bin, "--workload", args.workload,
                            "--seed", str(args.seed),
                            "--seconds", str(args.seconds),
                            "--trace", args.trace])
    if args.write_golden:
        ok = True
        for w in workloads:
            _, run_ok = run(args.bin, w, 1, args.seconds, False,
                            ["--write-golden"])
            ok = ok and run_ok
    elif args.smoke:
        ok = True
        for w in workloads:
            _, run_ok = run(args.bin, w, args.seed, 2, True,
                            ["--scale", "0.05", "--warmup", "0.5",
                             "--setups", "1"])
            ok = ok and run_ok
    elif args.trace == "both":
        ok = True
        for w in workloads:
            plain, traced = [], []
            for i in range(max(1, args.repeat)):
                seed = args.seed + i * args.seed_step
                for trace, qps in ((False, plain), (True, traced)):
                    metrics, run_ok = run(args.bin, w, seed, args.seconds,
                                          trace)
                    ok = ok and run_ok and "qps" in metrics
                    qps.append(metrics.get("qps", 0.0))
            if ok:
                overhead = 1.0 - (statistics.median(traced) /
                                  statistics.median(plain))
                print(f"{w} trace_overhead_frac {overhead:.4f} fraction")
    elif args.repeat:
        ok = repeat(args, spec, workloads)
    else:
        ok = True
        for w in workloads:
            _, run_ok = run(args.bin, w, args.seed, args.seconds,
                            args.trace == "1")
            ok = ok and run_ok
    sys.exit(0 if ok else 1)


if __name__ == "__main__":
    main()
