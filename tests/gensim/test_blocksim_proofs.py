"""Proof-carrying block simulation: guard elision and superblock fusion.

The contract: a :class:`BlockSimulator` with ``proofs=True`` must be
bit-for-bit indistinguishable from the guarded simulator on every
workload — same :class:`RunResult`, same final architectural state —
while its deopt counters only ever go *down* (certificates remove
guards, they never add dispatch work).  ``REPRO_PROOF_CHECK=1`` makes
every proofs-enabled run re-execute guarded and assert this internally.
"""

import pytest

from repro.arch import all_workloads, description_for
from repro.asm import Assembler
from repro.cache import ArtifactCache
from repro.gensim import XSim
from repro.gensim.blocksim import BlockSimulator

CASES = [(w.arch, w) for w in all_workloads()]

#: the hot loop is split across blocks joined by unconditional jumps,
#: so certified superblock fusion has something to fuse
CHAIN_SOURCE = """
        ldi r0, #50
        ldi r1, #0
        ldi r2, #0
        jmp loop
loop:   add r1, r1, r0
        jmp body
body:   sub r0, r0, #1
        bne loop - .
        st (r2), r1
        halt
"""


def _run(desc, workload=None, source=None, **kwargs):
    sim = BlockSimulator(desc, **kwargs)
    if workload is not None:
        for storage, contents in workload.preload.items():
            for index, value in contents.items():
                sim.write(storage, value, index)
        source = workload.source
    program = Assembler(desc).assemble(source)
    sim.load_words(program.words, program.origin)
    result = sim.run()
    return sim, result


def _assert_same_state(desc, sim, reference):
    for storage in desc.storages.values():
        if storage.addressed:
            for index in range(storage.depth):
                assert sim.read(storage.name, index) == reference.read(
                    storage.name, index
                ), f"{storage.name}[{index}]"
        else:
            assert sim.read(storage.name) == reference.read(
                storage.name
            ), storage.name


@pytest.mark.parametrize("arch,workload", CASES,
                         ids=[f"{a}-{w.name}" for a, w in CASES])
def test_proofs_do_not_change_results(arch, workload):
    desc = description_for(arch)
    guarded, want = _run(desc, workload)
    certified, got = _run(desc, workload, proofs=True)
    assert got == want
    _assert_same_state(desc, certified, guarded)
    # certificates only remove guards: deopts must never increase
    assert certified.block_stats.deopts <= guarded.block_stats.deopts
    assert certified.block_stats.dispatches <= guarded.block_stats.dispatches


@pytest.mark.parametrize("arch,workload", CASES,
                         ids=[f"{a}-{w.name}" for a, w in CASES])
def test_proof_check_mode_passes_everywhere(arch, workload, monkeypatch):
    monkeypatch.setenv("REPRO_PROOF_CHECK", "1")
    desc = description_for(arch)
    guarded, want = _run(desc, workload)
    _, got = _run(desc, workload, proofs=True)
    assert got == want  # the internal shadow assert ran too


def test_superblock_chain_fuses_and_cuts_dispatches(risc16_desc):
    guarded, want = _run(risc16_desc, source=CHAIN_SOURCE)
    certified, got = _run(risc16_desc, source=CHAIN_SOURCE, proofs=True)
    assert got == want
    _assert_same_state(risc16_desc, certified, guarded)
    stats = certified.block_stats
    assert stats.fused_blocks >= 1
    assert stats.chain_dispatches > 0
    # the loop body dispatches as one fused unit instead of two blocks
    assert stats.dispatches < guarded.block_stats.dispatches


def test_fused_chain_counts_match_xsim(risc16_desc):
    """A fused dispatch counts every member block's instructions."""
    reference = XSim(risc16_desc)
    program = Assembler(risc16_desc).assemble(CHAIN_SOURCE)
    reference.load_words(program.words, program.origin)
    want = reference.run_to_completion()
    certified, got = _run(risc16_desc, source=CHAIN_SOURCE, proofs=True)
    assert certified.block_stats.chain_dispatches > 0
    assert got == want


def test_chain_run_survives_proof_check(risc16_desc, monkeypatch):
    monkeypatch.setenv("REPRO_PROOF_CHECK", "1")
    _, got = _run(risc16_desc, source=CHAIN_SOURCE, proofs=True)
    guarded, want = _run(risc16_desc, source=CHAIN_SOURCE)
    assert got == want


def test_certified_blocks_do_not_leak_into_guarded_runs(risc16_desc):
    cache = ArtifactCache()
    _, want = _run(risc16_desc, source=CHAIN_SOURCE, proofs=True,
                   cache=cache)
    # a plain simulator sharing the artifact cache must compile its own
    # (guarded) table variant, not reuse the certified one
    plain, got = _run(risc16_desc, source=CHAIN_SOURCE, cache=cache)
    assert got == want
    assert plain.block_stats.fused_blocks == 0
    assert plain.block_stats.chain_dispatches == 0


def test_proofs_elide_deopt_guards_on_certified_programs(risc16_desc):
    # CHAIN_SOURCE is deopt-free on RISC16 (latency 1 everywhere, all
    # branch targets resolve): the certified run must never deopt
    certified, _ = _run(risc16_desc, source=CHAIN_SOURCE, proofs=True)
    assert certified.block_stats.deopts == 0
