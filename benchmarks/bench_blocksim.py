"""Block-compiled simulation speed (paper §6.2, one generation further).

The compiled-code simulator burns operands into per-instruction closures;
the block backend goes one step further and compiles whole basic blocks
into single exec-generated Python functions with one batched write-back
per exit.  Measured here, per Table-1 architecture: cycles/second for the
compiled backend vs the block backend on the same steady-state kernels,
plus a bit-for-bit state check between the two.

``BENCH_blocksim.json`` carries the machine-readable results; CI's
bench-regression job fails the build if the block backend drops under a
2x speedup or the architectural state diverges.  Set
``REPRO_BENCH_SMOKE=1`` for a fast low-confidence run (CI smoke mode).
"""

import os

import pytest

from conftest import record, record_json
from _kernels import preload_for, speed_program

from repro.gensim import simulator_for

ARCHES = ["risc16", "acc8", "spam", "spam2"]
SMOKE = os.environ.get("REPRO_BENCH_SMOKE") == "1"
TABLE = "Block-compiled simulation (Table-1 architectures)"

_speeds = {}
_state_match = {}
_block_stats = {}


def _fresh(arch, backend):
    desc, program = speed_program(arch)
    sim = simulator_for(desc, backend)
    for storage, contents in preload_for(arch).items():
        for index, value in contents.items():
            sim.write(storage, value, index)
    sim.load_words(program.words, program.origin)
    return desc, sim


def _rerun(desc, sim):
    # The halt flag persists across reset() by design — clear it or the
    # rerun halts on entry with zero cycles.
    sim.write(desc.attributes["halt_flag"], 0)
    sim.reset()
    return sim.run_to_completion().cycles


def _states_equal(desc, a, b):
    for storage in desc.storages.values():
        if storage.addressed:
            for index in range(storage.depth):
                if a.read(storage.name, index) != b.read(storage.name, index):
                    return False
        elif a.read(storage.name) != b.read(storage.name):
            return False
    return True


@pytest.mark.parametrize("arch", ARCHES)
def test_block_state_matches_compiled(arch):
    desc, block = _fresh(arch, "block")
    _, compiled = _fresh(arch, "compiled")
    block_result = block.run_to_completion()
    compiled_result = compiled.run_to_completion()
    match = (
        block_result.cycles == compiled_result.cycles
        and block_result.instructions == compiled_result.instructions
        and _states_equal(desc, block, compiled)
    )
    _state_match[arch] = match
    assert match, f"{arch}: block backend diverged from compiled"


@pytest.mark.parametrize("mode", ["compiled", "block"])
@pytest.mark.parametrize("arch", ARCHES)
def test_simulation_speed(benchmark, arch, mode):
    desc, sim = _fresh(arch, mode)
    _rerun(desc, sim)  # warm the dispatch cache before timing

    def run():
        return _rerun(desc, sim)

    if SMOKE:
        cycles = benchmark.pedantic(run, rounds=3, iterations=1)
    else:
        cycles = benchmark(run)
    cps = cycles / benchmark.stats.stats.mean
    _speeds[(arch, mode)] = cps
    record(TABLE, f"- {arch} / {mode}: **{cps:,.0f} cycles/sec**")
    if mode == "block":
        stats = sim.block_stats
        _block_stats[arch] = {
            "hits": stats.hits,
            "misses": stats.misses,
            "deopts": stats.deopts,
            "interp_steps": stats.interp_steps,
            "residue_writes": stats.residue_writes,
        }
    if len(_speeds) == len(ARCHES) * 2:
        _finalize()


def _finalize():
    speedups = {
        arch: _speeds[(arch, "block")] / _speeds[(arch, "compiled")]
        for arch in ARCHES
    }
    for arch, gain in speedups.items():
        record(TABLE, f"- {arch}: block over compiled **{gain:.1f}x**")
    record_json("blocksim", {
        "config": {"arches": ARCHES, "smoke": SMOKE},
        "cycles_per_second": {
            f"{arch}.{mode}": cps for (arch, mode), cps in _speeds.items()
        },
        "speedup_over_compiled": speedups,
        "state_match": _state_match,
        "block_stats": _block_stats,
    })
    # Lenient in-file floor (the target is 5x on a quiet machine); CI's
    # bench-regression job enforces the same floor from the JSON.
    worst = min(speedups, key=speedups.get)
    assert speedups[worst] >= 2.0, (
        f"block backend too slow on {worst}: {speedups[worst]:.2f}x"
    )
