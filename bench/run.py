"""Benchmark for schemeres: one workload per process, seeded, closed loop.

    python3 bench/run.py --workload {resist-pipeline,exact-drg,query-mix}
                         --seed N --seconds S --trace {0,1}

Run from the root of a source tree; the program is imported from ``src/``.
A run repeats whole passes over the workload's operations, in a seeded
order, until the operations have taken ``--seconds`` in total.  Each
pass's latencies are rescaled to a reference host speed by a fixed probe
loop run right after the pass.  Every output is checked against ``checks``
outside the timed region.  The last line of
standard output is one JSON object: with ``--trace 0`` the end-to-end
metrics, with ``--trace 1`` the per-layer metrics of ``spans``.  See
README.md for the metrics and the workloads.
"""

import time

T0 = time.perf_counter()  # process start, before schemeres is imported

import os

# one BLAS thread: the host has two vCPUs and threaded BLAS adds noise
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import gc
import json
import resource
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
#: set-up is timed in this many fresh processes, spread over the run
SETUP_PROBES = 5
#: fewest passes in a run, so that the 90th percentile has 10 samples beyond it
MIN_PASSES = 8
#: the host probe's time at the host's fast speed; latencies are rescaled to it
#: because the host's speed swings by 40% over seconds to minutes (see README)
HOST_PROBE_REF_S = 2.7e-3
UNITS = {"pass_s": "s", "ops_per_s": "1/s", "latency_p50_ms": "ms", "latency_p90_ms": "ms"}
#: problems printed before the result when a check fails
MAX_REPORTED = 10


def _parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=["resist-pipeline", "exact-drg", "query-mix"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--setup-probe", action="store_true",
                        help="print the set-up time and a host probe, then exit "
                             "(the run starts these itself)")
    return parser.parse_args(argv)


def _host_probe() -> float:
    """Seconds for a fixed numpy + Python loop: the host's current speed."""
    import numpy as np
    a = np.arange(64 * 64, dtype=float).reshape(64, 64) / 4096.0
    t = time.perf_counter()
    for _ in range(50):
        a = a @ a.T
        a /= np.abs(a).max()
    total = 0
    for i in range(20000):
        total += i * i % 7
    return time.perf_counter() - t


def _latency_metrics(passes) -> dict:
    """End-to-end latency statistics of (busy, {operation: latency}) passes."""
    per_op = {}
    for _, pass_latency in passes:
        for name, elapsed in pass_latency.items():
            per_op.setdefault(name, []).append(elapsed)
    samples = [x for v in per_op.values() for x in v]
    return {
        "pass_s": sum(statistics.median(v) for v in per_op.values()),
        "ops_per_s": len(samples) / sum(busy for busy, _ in passes),
        "latency_p50_ms": statistics.median(samples) * 1e3,
        "latency_p90_ms": statistics.quantiles(samples, n=10, method="inclusive")[-1] * 1e3,
    }


def _setup_probe(args) -> tuple:
    """(set-up seconds, host probe seconds just after) of a fresh process
    running this workload and seed."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", "0", "--setup-probe"]
    out = subprocess.run(cmd, capture_output=True, text=True, timeout=120, check=True)
    setup, probe = out.stdout.split()
    return float(setup), float(probe)


def main(argv=None) -> int:
    args = _parse_args(argv)
    if not (SRC / "schemeres" / "__init__.py").is_file():
        print(f"no program source at {SRC}; run from the root of a schemeres tree",
              file=sys.stderr)
        return 2
    if sys.flags.optimize:
        print("run without -O: the oracle's certifications are asserts", file=sys.stderr)
        return 2

    sys.path.insert(0, str(SRC))
    import schemeres
    import workloads
    from spans import Tracer

    tracer = None
    if args.trace:
        tracer = Tracer()
        tracer.install(schemeres)

    ops = workloads.SETUPS[args.workload](args.seed)
    gc.collect()
    gc.freeze()
    if args.setup_probe:
        print(time.perf_counter() - T0, _host_probe())
        return 0

    import numpy as np
    order_rng = np.random.default_rng([args.seed, 1])
    passes = []  # per pass: (busy seconds, {operation: latency} of those that completed)
    attempted = failed = 0
    failures, problems, host = {}, [], []
    setups = []
    busy = 0.0
    setup_s = None
    if tracer:
        tracer.phase = "timed"
    gc.disable()
    while len(passes) < MIN_PASSES or busy < args.seconds:
        pass_busy, pass_latency = 0.0, {}
        for i in order_rng.permutation(len(ops)):
            op = ops[i]
            start = time.perf_counter()
            if setup_s is None:
                setup_s = start - T0
            try:
                result = op.run()
            except Exception as exc:  # counted, and named in the summary
                pass_busy += time.perf_counter() - start
                failed += 1
                kind = f"{op.name}: {type(exc).__name__}"
                failures[kind] = failures.get(kind, 0) + 1
                continue
            elapsed = time.perf_counter() - start
            pass_busy += elapsed
            pass_latency[op.name] = elapsed
            problems += op.check(result)
            del result
        attempted += len(ops)
        busy += pass_busy
        passes.append((pass_busy, pass_latency))
        gc.collect()
        host.append(_host_probe())
        due = busy * SETUP_PROBES >= args.seconds * (len(setups) + 1)
        if due and len(setups) < SETUP_PROBES and not tracer:
            setups.append(_setup_probe(args))
    gc.enable()

    # each pass rescaled to the reference host speed by the probe run right after it
    scaled = [(pass_busy * HOST_PROBE_REF_S / probe,
               {name: t * HOST_PROBE_REF_S / probe for name, t in pass_latency.items()})
              for (pass_busy, pass_latency), probe in zip(passes, host)]
    print(f"workload {args.workload} seed {args.seed}: {len(passes)} passes, "
          f"{attempted} operations, {failed} failed, {busy:.3f} s busy")
    for kind, count in sorted(failures.items()):
        print(f"  failed {count}x  {kind}")
    print(f"  host probe: median {statistics.median(host) * 1e3:.2f} ms, "
          f"min {min(host) * 1e3:.2f} ms, max {max(host) * 1e3:.2f} ms; unscaled: "
          + ", ".join(f"{k} {v:.6g}" for k, v in _latency_metrics(passes).items()))
    for p in problems[:MAX_REPORTED]:
        print(f"  CHECK FAILED {p}")

    end_to_end = {k: (v, UNITS[k]) for k, v in _latency_metrics(scaled).items()}
    end_to_end["peak_rss_mb"] = (
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MiB")
    if tracer:
        print("  traced: " + ", ".join(f"{k} {v:.6g}" for k, (v, _) in end_to_end.items()))
        print(f"  {'layer':44s} {'busy s':>10s} {'self s':>10s} {'calls':>8s}"
              "   (set-up plus one pass)")
        for key, (busy_s, self_s, calls) in tracer.per_pass(len(passes)).items():
            print(f"  {key:44s} {busy_s:10.6f} {self_s:10.6f} {calls:8.2f}")
        metrics = tracer.layer_metrics(len(passes))
    else:
        setups += [_setup_probe(args) for _ in range(SETUP_PROBES - len(setups))]
        print(f"  set-up s: this process {setup_s:.4f}; fresh processes "
              + ", ".join(f"{t:.4f} (probe {p * 1e3:.2f} ms)" for t, p in setups))
        end_to_end["setup_s"] = (
            statistics.median(t * HOST_PROBE_REF_S / p for t, p in setups), "s")
        metrics = {k: {"value": v, "unit": u} for k, (v, u) in end_to_end.items()}

    print(json.dumps({"correct": not problems, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0 if not problems else 1


if __name__ == "__main__":
    sys.exit(main())
