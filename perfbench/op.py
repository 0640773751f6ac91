"""One benchmark operation, run in a fresh interpreter.

Usage: python3 perfbench/op.py '<json spec>'

The spec's "mode" selects what runs after `import rankmoments`:

- "cli": call rankmoments.cli.main once per argv in "calls", in order.
- "sweep": run one single-cell experiment per (n, trials) in "points" and
  report the coefficient-kernel time per trial (needs "trace").
- "block": run one default-size block per n in "ns" under tracemalloc and
  report its peak traced memory.

The result is written as JSON to the spec's "result" path.
"""

from __future__ import annotations

import dataclasses
import json
import os
import resource
import sys
import time

from spans import SAMPLER_SPANS, THEORY_SPANS, SpanIndex, Tracer, install

T0 = time.perf_counter()
import rankmoments  # noqa: E402
import rankmoments.cli  # noqa: E402
IMPORT_S = time.perf_counter() - T0


def _config(spec, n, trials=None):
    """A one-cell experiment; trials=None means one default-size block."""
    from rankmoments.contaminated import ContaminationParams
    from rankmoments.simulate import ExperimentConfig

    contamination = None
    if spec["model"] == "contaminated":
        contamination = ContaminationParams(rho=0.0, **spec["contamination"])
    config = ExperimentConfig(model=spec["model"], rho_grid=(spec["rho"],),
                              n_list=(n,), trials=trials or 1,
                              seed=spec["seed"], contamination=contamination)
    if trials is None:
        config = dataclasses.replace(
            config, trials=getattr(config, "block_size", 4096))
    return config


def run_cli(spec, tracer):
    rc = 0
    cpu = time.process_time()
    start = time.perf_counter()
    for argv in spec["calls"]:
        if tracer is None:
            rc = rankmoments.cli.main(argv)
        else:
            rc = tracer.call("cli.main", rankmoments.cli.main, argv)
        if rc != 0:
            break
    return {"rc": rc, "wall_s": time.perf_counter() - start,
            "cpu_s": time.process_time() - cpu}


def run_sweep(spec, tracer):
    import rankmoments.simulate as simulate

    simulate.run_experiment(_config(spec, 10, 256))  # warm-up, not reported
    out = {}
    for n, trials in spec["points"]:
        tracer.spans.clear()
        simulate.run_experiment(_config(spec, n, trials))
        ix = SpanIndex(tracer.spans)
        (cell,) = ix.named("simulate.run_experiment")
        kernel = ix.self_time_excluding(cell, SAMPLER_SPANS + THEORY_SPANS)
        out[str(n)] = 1e6 * kernel / trials
    tracer.spans.clear()
    return {"rc": 0, "kernel_us_per_trial": out}


def run_block(spec):
    import tracemalloc

    import rankmoments.simulate as simulate

    real_count = getattr(simulate, "count_inversions", None)
    out = {}
    tracemalloc.start()
    try:
        for n in spec["ns"]:
            config = _config(spec, n)
            if n > 64 and real_count is not None:
                # The per-row inversion loop allocates only 2n int64 of
                # scratch but would take minutes for a full block under
                # tracemalloc; a stub keeps the probe on the block arrays.
                simulate.count_inversions = lambda a: 0
            tracemalloc.reset_peak()
            base = tracemalloc.get_traced_memory()[0]
            simulate.run_experiment(config)
            out[str(n)] = (tracemalloc.get_traced_memory()[1] - base) / 2**20
            if real_count is not None:
                simulate.count_inversions = real_count
    finally:
        tracemalloc.stop()
    return {"rc": 0, "block_peak_mb": out}


def peak_rss_mb() -> float:
    """This process's own peak RSS.

    ru_maxrss is not used: after a vfork it starts from the parent's peak.
    """
    with open("/proc/self/status") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def main():
    spec = json.loads(sys.argv[1])
    src = os.path.realpath(spec["src"])
    if not os.path.realpath(rankmoments.__file__).startswith(src + os.sep):
        sys.exit(f"rankmoments imported from {rankmoments.__file__}, "
                 f"not from {src}")
    tracer = None
    missing = []
    if spec.get("trace"):
        tracer = Tracer()
        missing = install(tracer)
    mode = spec["mode"]
    if mode == "cli":
        result = run_cli(spec, tracer)
    elif mode == "sweep":
        result = run_sweep(spec, tracer)
    elif mode == "block":
        result = run_block(spec)
    else:
        sys.exit(f"unknown mode {mode!r}")
    import rankmoments.simulate as simulate

    threads = getattr(simulate, "threads_limit", None)
    result.update(
        import_s=IMPORT_S,
        peak_rss_mb=peak_rss_mb(),
        threads_limit=threads() if threads is not None else None,
        version=getattr(rankmoments, "__version__", None),
        untraced=missing,
        spans=tracer.spans if tracer is not None and mode == "cli" else None,
    )
    with open(spec["result"], "w") as fh:
        json.dump(result, fh)


if __name__ == "__main__":
    main()
