"""Technology sweeps through the exploration layer.

The claim under test (ISSUE acceptance bar): sweeping a candidate
across ≥2 technology nodes grows the Pareto frontier over
``(cost, cycle_ns, power_mw, die_size)`` strictly beyond the pinned
baseline's single point, while the baseline synthesis is shared — one
``hgen.syntheses`` tick for the whole sweep.
"""

import pytest

from repro import obs
from repro.arch import description_for
from repro.codegen import Cond, KernelBuilder, Opcode
from repro.explore import Explorer, evaluation_key, operating_point_table
from repro.explore.pareto import frontier, objectives
from repro.tech import TechSpec


def sum_kernel(n=6):
    K = KernelBuilder("sum")
    cnt = K.li(n)
    acc = K.li(0)
    K.label("loop")
    K.binary_into(acc, Opcode.ADD, acc, cnt)
    K.binary_into(cnt, Opcode.SUB, cnt, 1)
    K.cbr(Cond.NE, cnt, 0, "loop")
    K.store(K.li(0), acc)
    return K.build()


SPECS = [None, TechSpec(22, "HP"), TechSpec(22, "HP", 2.0),
         TechSpec(22, "LP")]


@pytest.fixture(scope="module")
def sweep():
    explorer = Explorer([sum_kernel()], parallel="serial")
    desc = description_for("spam2")
    obs.enable()
    try:
        with obs.capture() as cap:
            candidates = explorer.tech_sweep(desc, SPECS)
    finally:
        obs.disable(reset=True)
    return candidates, cap.snapshot


def test_sweep_returns_candidates_in_spec_order(sweep):
    candidates, _ = sweep
    assert len(candidates) == len(SPECS)
    base, hp, capped, lp = candidates
    assert base.evaluation.tech_node is None
    assert (hp.evaluation.tech_node, hp.evaluation.tech_flavor) == (22, "HP")
    assert capped.evaluation.budget_mw == 2.0
    assert capped.evaluation.power_capped
    assert (lp.evaluation.tech_node, lp.evaluation.tech_flavor) == (22, "LP")
    for candidate in candidates:
        assert candidate.derived_by == "tech_sweep"


def test_sweep_labels_carry_the_tech_suffix(sweep):
    candidates, _ = sweep
    names = [c.evaluation.name for c in candidates]
    assert names[1].endswith("@22HP")
    assert names[2].endswith("@22HP/2mW")
    assert names[3].endswith("@22LP")
    assert "@" not in names[0]


def test_sweep_shares_one_baseline_synthesis(sweep):
    _, snapshot = sweep
    assert snapshot.counters.get("hgen.syntheses") == 1.0


def test_sweeping_nodes_grows_the_pareto_frontier(sweep):
    candidates, _ = sweep
    evaluations = [c.evaluation for c in candidates]
    pinned = frontier(evaluations[:1], key=objectives)
    swept = frontier(evaluations, key=objectives)
    assert len(pinned) == 1
    assert len(swept) > len(pinned)
    # the scaled points dominate the baseline process outright
    assert evaluations[0] not in swept


def test_hp_and_lp_are_mutually_non_dominated(sweep):
    candidates, _ = sweep
    swept = frontier([c.evaluation for c in candidates], key=objectives)
    flavors = {(e.tech_node, e.tech_flavor) for e in swept}
    assert (22, "HP") in flavors
    assert (22, "LP") in flavors


def test_operating_point_table_renders_the_swept_points(sweep):
    candidates, _ = sweep
    table = operating_point_table([c.evaluation for c in candidates])
    assert "22HP" in table and "22LP" in table
    assert "capped" in table
    # the tech-free baseline row is skipped, not rendered with dashes
    assert table.count("\n") == 2 + 3  # title + header + rule... 3 rows


def test_operating_point_table_empty_without_tech(sweep):
    candidates, _ = sweep
    assert operating_point_table([candidates[0].evaluation]) == ""


def test_tech_free_evaluation_key_shape_is_unchanged():
    desc = description_for("spam2")
    kernels = [sum_kernel()]
    bare = evaluation_key(desc, kernels, 1000, sim_backend="compiled")
    assert len(bare) == 4
    extended = evaluation_key(desc, kernels, 1000, sim_backend="compiled",
                              tech=TechSpec(22, "HP", 2.0))
    assert extended[:4] == bare
    assert extended[4] == ("tech", 22, "HP", 2.0)
