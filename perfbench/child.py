"""One cold iteration of a benchmark workload, in a fresh interpreter.

    python3 perfbench/child.py WORKLOAD SEED TRACE    # TRACE is 0 or 1
    python3 perfbench/child.py --import-only

`forge` must be importable (run.py puts the checkout's `src` on PYTHONPATH).
The last line of standard output is one JSON object with the measurements.
"""

from __future__ import annotations

import json
import os
import resource
import sys
import time
import traceback

from spans import Sampler, Tracer
from workloads import COUNTERS, SPANS, WORKLOADS, score


def main(argv) -> int:
    t0 = time.perf_counter()
    from forge import scenarios
    out = {"setup_s": time.perf_counter() - t0,
           "numpy": getattr(sys.modules.get("numpy"), "__version__", None)}
    if argv[0] == "--import-only":
        print(json.dumps(out))
        return 0
    workload, seed, traced = argv[0], int(argv[1]), argv[2] == "1"
    if traced:
        tracer = Tracer("forge", [(m, q) for m, q, _ in SPANS], COUNTERS).install()
        sampler = Sampler(os.path.dirname(scenarios.__file__)).start()
    claims_run = claims_failed = 0
    failed_ids = []
    t0 = time.perf_counter()
    for name in WORKLOADS[workload][0]:
        try:
            claims = scenarios.CATALOG[name](seed=seed).details["claims"]
        except Exception:
            traceback.print_exc()
            claims = None
        run, failed, ids = score(name, claims)
        claims_run += run
        claims_failed += failed
        failed_ids += ids
    out["wall_s"] = time.perf_counter() - t0
    out["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    out.update(claims_run=claims_run, claims_failed=claims_failed,
               failed_ids=failed_ids)
    if traced:
        sampler.stop()
        tracer.remove()
        out["spans"] = {n: [s.calls, s.total_s, s.self_s]
                        for n, s in tracer.stats.items()}
        out["absent"] = tracer.absent
        out["counters"] = tracer.counts
        out["samples"] = sampler.samples
        out["by_module"] = sampler.by_module
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
