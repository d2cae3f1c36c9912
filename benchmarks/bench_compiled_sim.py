"""Future work (paper §6.2) — "Additional speedups can be obtained by a
move to compiled-code simulators."

Measured: two simulator generations on the same SPAM kernel —

1. XSIM (the paper's structure: the processing core walks the RTL of
   instructions decoded and bound once at load time),
2. the program-specialized compiled-code simulator (the future-work mode:
   operand constants burned in, monitor hooks traded away).
"""

import pytest

from conftest import record, record_json
from _kernels import preload_for, speed_program

from repro.gensim import simulator_for

ARCH = "spam"

_speeds = {}

#: result-table mode -> Simulator-protocol backend name.  Both
#: generations run through the same protocol surface — no special-casing.
_BACKENDS = {
    "generated": "xsim",
    "compiled_code": "compiled",
}


def _preload(sim):
    for storage, contents in preload_for(ARCH).items():
        for index, value in contents.items():
            sim.write(storage, value, index)


def _run(backend):
    desc, program = speed_program(ARCH)
    sim = simulator_for(desc, backend)
    _preload(sim)
    sim.load_words(program.words, program.origin)
    sim.run_to_completion()
    return sim.stats.cycles


@pytest.mark.parametrize("mode", ["generated", "compiled_code"])
def test_simulator_generations(benchmark, mode):
    cycles = benchmark(lambda: _run(_BACKENDS[mode]))
    cps = cycles / benchmark.stats.stats.mean
    _speeds[mode] = cps
    labels = {
        "generated": "XSIM core (operands bound at load; default)",
        "compiled_code": "compiled-code simulator (paper §6.2 future work)",
    }
    record(
        "Future work — compiled-code simulation (SPAM)",
        f"- {labels[mode]}: **{cps:,.0f} cycles/sec**",
    )
    if len(_speeds) == len(_BACKENDS):
        gain = _speeds["compiled_code"] / _speeds["generated"]
        record(
            "Future work — compiled-code simulation (SPAM)",
            f"- compiled-code over XSIM: **{gain:.1f}x** — confirming the"
            " paper's expectation of further 'additional speedups'",
        )
        assert _speeds["compiled_code"] > _speeds["generated"]
        record_json("compiled_sim", {
            "config": {"arch": ARCH, "backends": _BACKENDS},
            "cycles_per_second": dict(_speeds),
            "compiled_over_generated": gain,
        })
