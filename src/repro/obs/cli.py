"""``repro-obs`` — the observability report entry point.

Runs an instrumented exploration smoke sweep (the Figure-1 loop with
:mod:`repro.obs` enabled) and writes every artifact the subsystem can
produce:

* ``obs_trace.json`` — Chrome trace-event JSON, loadable in
  ``about:tracing`` / Perfetto, validated before it is written;
* ``obs_profile.txt`` — the tracer's fixed-width span table (the one
  timing table), the registry's counters and gauges, and the exploration
  report with its cache statistics;
* ``BENCH_obs_sweep.json`` — a machine-readable summary (configuration,
  wall time, counters, per-stage aggregates) in the same shape the
  benchmark suite emits.

Usage::

    repro-obs [--arch spam2] [--iterations 2] [--out DIR]

The sweep runs the serial evaluator so every span of every candidate
measurement lands in one tracer (pool workers keep their spans local and
ship only metric snapshots back).
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time
from typing import List, Optional

from . import (
    disable,
    enable,
    registry,
    tracer,
    validate_chrome_trace,
)


def _smoke_kernels():
    """Two small integer workloads (a reduction and a copy loop)."""
    from ..codegen import Cond, KernelBuilder, Opcode

    K = KernelBuilder("sum")
    cnt = K.li(10)
    acc = K.li(0)
    K.label("loop")
    K.binary_into(acc, Opcode.ADD, acc, cnt)
    K.binary_into(cnt, Opcode.SUB, cnt, 1)
    K.cbr(Cond.NE, cnt, 0, "loop")
    K.store(K.li(0), acc)
    sum_kernel = K.build()

    K = KernelBuilder("memcpy")
    src = K.li(0)
    dst = K.li(32)
    cnt = K.li(8)
    K.label("loop")
    K.store(dst, K.load(src))
    K.binary_into(src, Opcode.ADD, src, 1)
    K.binary_into(dst, Opcode.ADD, dst, 1)
    K.binary_into(cnt, Opcode.SUB, cnt, 1)
    K.cbr(Cond.NE, cnt, 0, "loop")
    return [sum_kernel, K.build()]


def run_sweep(arch: str = "spam2", iterations: int = 2,
              out_dir: str = ".") -> dict:
    """Run the instrumented sweep and write the three artifacts.

    Returns the ``BENCH_obs_sweep.json`` payload (with artifact paths and
    the distinct stage list) so callers/tests can assert on it.
    """
    from ..arch import description_for
    from ..cache import ArtifactCache
    from ..explore import Explorer
    from ..explore.report import exploration_report

    kernels = _smoke_kernels()
    cache = ArtifactCache()
    enable()
    try:
        start = time.perf_counter()
        explorer = Explorer(kernels, cache=cache, parallel="serial")
        log = explorer.explore(description_for(arch),
                               max_iterations=iterations)
        elapsed = time.perf_counter() - start
        snapshot = registry().snapshot()
        active_tracer = tracer()
        payload = active_tracer.chrome_trace()
        stages = validate_chrome_trace(payload)

        os.makedirs(out_dir, exist_ok=True)
        trace_path = os.path.join(out_dir, "obs_trace.json")
        active_tracer.write_chrome_trace(trace_path)
        profile_path = os.path.join(out_dir, "obs_profile.txt")
        with open(profile_path, "w", encoding="utf-8") as handle:
            handle.write(active_tracer.text_profile() + "\n\n")
            handle.write(snapshot.report() + "\n\n")
            handle.write(exploration_report(log, cache=cache) + "\n")
    finally:
        disable(reset=True)

    summary = {
        "bench": "obs_sweep",
        "config": {"arch": arch, "max_iterations": iterations,
                   "kernels": [k.name for k in kernels]},
        "wall_seconds": elapsed,
        "iterations": log.iterations,
        "candidates_profiled": len(log.profiles),
        "improvement": log.improvement,
        "stages": stages,
        "span_count": len(active_tracer.finished()),
        "counters": {
            name: value for name, value in sorted(snapshot.counters.items())
            if not name.startswith("stage.")
        },
        "cache": {
            "hits": cache.stats.hits,
            "misses": cache.stats.misses,
            "hit_rate": cache.stats.hit_rate,
        },
        "artifacts": {"trace": trace_path, "profile": profile_path},
    }
    bench_path = os.path.join(out_dir, "BENCH_obs_sweep.json")
    with open(bench_path, "w", encoding="utf-8") as handle:
        json.dump(summary, handle, indent=2, sort_keys=True)
        handle.write("\n")
    summary["artifacts"]["bench"] = bench_path
    return summary


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="repro-obs",
        description="instrumented exploration smoke sweep: Chrome trace,"
                    " text profile, and machine-readable summary",
    )
    parser.add_argument("--arch", default="spam2",
                        help="architecture to explore (default: spam2)")
    parser.add_argument("--iterations", type=int, default=2,
                        help="exploration iterations (default: 2)")
    parser.add_argument("--out", default=".",
                        help="output directory (default: cwd)")
    args = parser.parse_args(argv)
    try:
        summary = run_sweep(args.arch, args.iterations, args.out)
    except KeyError:
        print(f"unknown architecture {args.arch!r}", file=sys.stderr)
        return 2
    print(f"explored {summary['config']['arch']}:"
          f" {summary['iterations']} iteration(s),"
          f" {summary['candidates_profiled']} candidate measurement(s)"
          f" in {summary['wall_seconds']:.2f} s")
    print(f"stages ({len(summary['stages'])}):"
          f" {', '.join(summary['stages'])}")
    for kind, path in sorted(summary["artifacts"].items()):
        print(f"wrote {kind}: {path}")
    return 0


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
