"""Forge benchmark: cold-start claim workloads, measured from outside.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from anywhere inside a checkout; `forge` is imported from its `src`.
Load is one caller in a closed loop: each iteration starts a fresh
interpreter (so scenario caches and integer tables are cold, as for one
`forge scenario` call, with BLAS pinned to one thread and PYTHONHASHSEED set
from the seed), runs the workload's scenarios with `seed=N` and checks every
claim.  At least one iteration runs, and more while the next is predicted to
end nearer to S seconds after the start than the run is now.

--trace 0 reports the end-to-end metrics: medians of `wall_s` (first call
into forge to last claim checked), `peak_rss_mb` over the iterations, and of
`setup_s` (importing forge) over several import-only interpreters.
--trace 1 reports the per-layer metrics: one untraced and one traced
iteration, the spans and counters of the traced one, per-module shares of
sampled stacks, and the tracing overhead (traced minus untraced wall_s).

Claims that fail, other than the ones red by design, count in `failed`
against `attempted`; an iteration that crashes counts all its claims.  The
next-to-last output line records the run's environment and details; the
last line is the result as one JSON object.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time

from workloads import (COUNTERS, SAMPLED_MODULES, SPANS, WORKLOADS,
                       expected_claims, span_name)

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
CHILD = os.path.join(HERE, "child.py")
SETUP_SAMPLES = 9          # import-only interpreters per untraced run
DEADLINE_S = 170.0         # a run must end within 180 s
BLAS_THREADS = "1"
BLAS_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")


def per_layer_metrics():
    """(name, unit, better) of every metric a traced run reports."""
    out = []
    for module, qualname, _ in SPANS:
        name = span_name(module, qualname)
        out += [(name + ".calls", "count", "lower"),
                (name + ".total_s", "s", "lower"),
                (name + ".self_s", "s", "lower")]
    out += [(c, "count", "higher") for c in COUNTERS]
    out += [(m + ".self_share", "share", "lower") for m in SAMPLED_MODULES]
    out += [("sampler.named_share", "share", "higher"),
            ("trace.wall_s", "s", "lower"),
            ("trace.overhead_s", "s", "lower")]
    return out


class Runner:
    def __init__(self, seed: int):
        self.deadline = time.monotonic() + DEADLINE_S
        self.env = dict(os.environ)
        self.env.update({v: BLAS_THREADS for v in BLAS_VARS})
        self.env["PYTHONPATH"] = os.pathsep.join(
            p for p in (SRC, os.environ.get("PYTHONPATH")) if p)
        self.env["PYTHONHASHSEED"] = str(seed % 2**32)
        self.crashed = 0

    def child(self, *args):
        """Run child.py in a fresh interpreter; its JSON result, or None."""
        timeout = self.deadline - time.monotonic()
        try:
            proc = subprocess.run([sys.executable, CHILD, *map(str, args)],
                                  cwd=ROOT, env=self.env, timeout=max(timeout, 1),
                                  stdout=subprocess.PIPE, text=True)
        except subprocess.TimeoutExpired:
            print("perfbench: iteration exceeded the run deadline", file=sys.stderr)
            self.crashed += 1
            return None
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            print("perfbench: child exited with %d" % proc.returncode, file=sys.stderr)
            self.crashed += 1
            return None
        return json.loads(lines[-1])


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=float)
    ap.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = ap.parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "forge", "scenarios.py")):
        print("perfbench: no forge sources under %s" % SRC, file=sys.stderr)
        return 2

    start = time.monotonic()
    runner = Runner(args.seed)
    runner.child("--import-only")  # writes bytecode caches; not measured
    record = {"workload": args.workload, "seed": args.seed,
              "nproc": os.cpu_count(), "python": platform.python_version(),
              "blas_threads": int(BLAS_THREADS)}
    if args.trace:
        results = [runner.child(args.workload, args.seed, traced)
                   for traced in (0, 1)]
    else:
        setups = [r["setup_s"] for r in
                  (runner.child("--import-only") for _ in range(SETUP_SAMPLES)) if r]
        results = []
        while True:
            t0 = time.monotonic()
            results.append(runner.child(args.workload, args.seed, 0))
            # go on while another iteration ends nearer to the budget than now
            if time.monotonic() + (time.monotonic() - t0) / 2 > start + args.seconds:
                break
    done = [r for r in results if r]
    if not done:
        print("perfbench: no iteration completed", file=sys.stderr)
        return 1
    attempted = sum(r["claims_run"] for r in done) + \
        runner.crashed * expected_claims(args.workload)
    failed = sum(r["claims_failed"] for r in done) + \
        runner.crashed * expected_claims(args.workload)
    record.update(numpy=done[0].get("numpy"),
                  iterations=len(results),
                  wall_s=[r["wall_s"] for r in done],
                  claims_run=[r["claims_run"] for r in done],
                  failed_ids=sorted({i for r in done for i in r["failed_ids"]}))

    if args.trace:
        metrics = traced_metrics(args.workload, results, record)
    else:
        record["setup_s"] = setups
        metrics = {
            "wall_s": (statistics.median(r["wall_s"] for r in done), "s"),
            "setup_s": (statistics.median(setups), "s"),
            "peak_rss_mb": (statistics.median(r["peak_rss_mb"] for r in done), "MB"),
        }
    print(json.dumps(record))
    print(json.dumps({
        "correct": failed == 0 and not runner.crashed,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


def traced_metrics(workload, results, record):
    plain, traced = results
    if plain is None or traced is None:
        return {}
    units = {name: unit for name, unit, _ in per_layer_metrics()}
    values = {}
    for name, (calls, total_s, self_s) in traced["spans"].items():
        values.update({name + ".calls": calls, name + ".total_s": total_s,
                       name + ".self_s": self_s})
    values.update(traced["counters"])
    samples = max(traced["samples"], 1)
    shares = {m: traced["by_module"].get(m, 0) / samples for m in SAMPLED_MODULES}
    values.update({m + ".self_share": s for m, s in shares.items()})
    values["sampler.named_share"] = sum(shares.values())
    values["trace.wall_s"] = traced["wall_s"]
    values["trace.overhead_s"] = traced["wall_s"] - plain["wall_s"]
    record.update(
        samples=traced["samples"], absent=traced["absent"],
        idle_expected=[span_name(m, q) for m, q, moves in SPANS
                       if workload in moves and
                       traced["spans"].get(span_name(m, q), [0])[0] == 0])
    return {k: (v, units[k]) for k, v in values.items()}


if __name__ == "__main__":
    sys.exit(main())
