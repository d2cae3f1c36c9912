"""Integration tests: the obs facade and the instrumented tool chain."""

import json

import pytest

from repro import obs
from repro.arch import description_for
from repro.cache import ArtifactCache
from repro.codegen import Cond, KernelBuilder, Opcode
from repro.explore import Explorer, ParallelEvaluator
from repro.explore.parallel import EvalRequest
from repro.hgen import synthesize


@pytest.fixture(autouse=True)
def _reset_obs():
    """Every test starts and ends with observability off and stateless."""
    obs.disable(reset=True)
    yield
    obs.disable(reset=True)


def _kernel():
    K = KernelBuilder("sum")
    cnt = K.li(5)
    acc = K.li(0)
    K.label("loop")
    K.binary_into(acc, Opcode.ADD, acc, cnt)
    K.binary_into(cnt, Opcode.SUB, cnt, 1)
    K.cbr(Cond.NE, cnt, 0, "loop")
    K.store(K.li(0), acc)
    return K.build()


# ----------------------------------------------------------------------
# Facade semantics
# ----------------------------------------------------------------------


def test_disabled_by_default_and_noop():
    assert not obs.enabled()
    assert obs.registry() is None
    with obs.span("anything", attr=1):  # shared null span
        obs.add("counter")
        obs.observe("hist", 1.0)
        obs.gauge_set("gauge", 2.0)
    assert obs.registry() is None


def test_enable_disable_round_trip():
    reg = obs.enable()
    assert obs.enabled() and obs.registry() is reg
    obs.add("c")
    assert reg.snapshot().counters["c"] == 1
    obs.disable()
    assert not obs.enabled() and obs.registry() is None
    # state survives a plain disable; enable() resumes the same registry
    assert obs.enable() is reg
    obs.disable(reset=True)
    assert obs.enable() is not reg


def test_capture_scopes_and_merges():
    obs.enable()
    obs.add("outer")
    with obs.capture() as cap:
        obs.add("inner", 2)
    assert cap.snapshot.counters == {"inner": 2.0}
    # the capture merged back into the global registry
    total = obs.registry().snapshot().counters
    assert total["outer"] == 1 and total["inner"] == 2


def test_capture_nests():
    obs.enable()
    with obs.capture() as outer:
        obs.add("a")
        with obs.capture() as inner:
            obs.add("b")
    assert inner.snapshot.counters == {"b": 1.0}
    assert outer.snapshot.counters == {"a": 1.0, "b": 1.0}


def test_capture_while_disabled_yields_none():
    with obs.capture() as cap:
        obs.add("ignored")
    assert cap.snapshot is None


def test_spans_record_into_capture_registry():
    obs.enable()
    with obs.capture() as cap:
        with obs.span("sigtest"):
            pass
    assert cap.snapshot.histograms["stage.sigtest"].count == 1


# ----------------------------------------------------------------------
# Tool-chain instrumentation
# ----------------------------------------------------------------------


def test_synthesis_emits_stage_spans(spam2_desc):
    obs.enable()
    synthesize(spam2_desc)
    stages = obs.tracer().stage_names()
    for expected in ("hgen.synthesize", "hgen.nodes", "hgen.sharing",
                     "hgen.matrix", "hgen.cliques", "hgen.datapath",
                     "hgen.verilog", "hgen.estimate"):
        assert expected in stages
    assert obs.registry().snapshot().counters["hgen.syntheses"] == 1
    # the sharing pass splits into its two halves, one level below it
    depth = {r.name: r.depth for r in obs.tracer().finished()}
    assert depth["hgen.matrix"] == depth["hgen.sharing"] + 1
    assert depth["hgen.cliques"] == depth["hgen.sharing"] + 1
    order = [r.name for r in obs.tracer().finished()]
    assert (order.index("hgen.matrix") < order.index("hgen.cliques")
            < order.index("hgen.sharing"))


def test_synthesis_does_not_recheck_its_input(spam2_desc):
    # a description is validated where it enters (load, the gate); HGEN
    # trusts the one it is handed
    obs.enable()
    synthesize(spam2_desc)
    stages = obs.tracer().stage_names()
    assert "isdl.check" not in stages
    assert "isdl.diagnose" not in stages


def test_evaluation_times_its_retarget_and_template_setups(spam2_desc):
    # the compiler's ISA analysis and the assembler's template compilation
    # run once per candidate, however many kernels it measures
    from repro.codegen.kernels import resolve_kernels
    from repro.explore.metrics import evaluate

    obs.enable()
    kernels = resolve_kernels(["sum:10", "blockmove:8"])
    assert evaluate(spam2_desc, kernels, cache=ArtifactCache()).feasible
    records = obs.tracer().finished()
    names = [r.name for r in records]
    assert names.count("codegen.retarget") == 1
    assert names.count("asm.templates") == 1
    assert names.count("codegen.compile") == 2
    depth = {r.name: r.depth for r in records}
    assert depth["codegen.retarget"] == depth["explore.evaluate"] + 1
    assert depth["asm.templates"] > depth["explore.evaluate"]


def test_exploration_covers_six_plus_stages_and_valid_trace(tmp_path):
    obs.enable()
    explorer = Explorer([_kernel()], cache=ArtifactCache(),
                        parallel="serial")
    log = explorer.explore(description_for("spam2"), max_iterations=1)
    path = tmp_path / "trace.json"
    obs.tracer().write_chrome_trace(str(path))
    names = obs.validate_chrome_trace(json.loads(path.read_text()))
    assert len(names) >= 6
    for expected in ("explore.sweep", "explore.evaluate", "sim.run",
                     "hgen.synthesize", "asm.assemble", "isdl.check"):
        assert expected in names
    assert log.profiles  # per-candidate profiles captured


def test_exploration_log_profiles_and_merged(spam2_desc):
    obs.enable()
    explorer = Explorer([_kernel()], cache=ArtifactCache(),
                        parallel="serial")
    log = explorer.explore(spam2_desc, max_iterations=1)
    # the initial candidate and each proposal have a profile
    assert spam2_desc.name in log.profiles
    assert len(log.profiles) >= 2
    merged = log.merged_profile()
    assert merged.stage_names()
    assert merged.counters["sim.runs"] >= 1
    # a disabled run produces no profiles
    obs.disable(reset=True)
    log2 = Explorer([_kernel()], cache=ArtifactCache(),
                    parallel="serial").explore(spam2_desc, max_iterations=1)
    assert log2.profiles == {} and log2.merged_profile() is None


def test_simulator_counters(risc16_desc):
    from repro.asm import Assembler
    from repro.gensim.xsim import XSim

    obs.enable()
    sim = XSim(risc16_desc)
    sim.watch("RF")
    program = Assembler(risc16_desc).assemble(
        "ldi r0, #3\nadd r1, r1, r0\nhalt\n"
    )
    sim.load_words(program.words, program.origin)
    sim.run_to_completion()
    counters = obs.registry().snapshot().counters
    assert counters["sim.runs"] == 1
    assert counters["sim.cycles"] >= 1
    assert counters["sim.instructions"] >= 2
    assert counters["sim.monitor_hits"] >= 2


def test_cache_counters_reach_registry(spam2_desc):
    obs.enable()
    cache = ArtifactCache(max_entries=1)
    cache.signature_table(spam2_desc)   # miss
    cache.signature_table(spam2_desc)   # hit
    cache.analysis(spam2_desc, lambda: None)  # miss + evicts the sigtable
    counters = obs.registry().snapshot().counters
    assert counters["cache.misses"] == 2
    assert counters["cache.hits"] == 1
    assert counters["cache.evictions"] == 1
    # the obs counters agree with the cache's own stats
    assert cache.stats.misses == 2 and cache.stats.hits == 1
    assert cache.stats.evictions == 1


# ----------------------------------------------------------------------
# Parallel evaluator: snapshot shipping and deterministic merge
# ----------------------------------------------------------------------


def _structural(counters):
    return {k: v for k, v in counters.items() if not k.endswith(".cpu_s")}


@pytest.mark.parametrize("mode", ["serial", "process"])
def test_eval_results_carry_profiles(mode, spam2_desc):
    obs.enable()
    evaluator = ParallelEvaluator([_kernel()], cache=ArtifactCache(),
                                  mode=mode, max_workers=2)
    try:
        requests = [EvalRequest(spam2_desc, label=f"c{i}")
                    for i in range(3)]
        results = evaluator.evaluate_many(requests)
    finally:
        evaluator.shutdown()
    assert all(r.ok for r in results)
    assert all(r.obs is not None for r in results)
    # somebody actually simulated the kernel (later requests may be
    # cache hits whose profile records no run)
    total_runs = sum(r.obs.counters.get("sim.runs", 0) for r in results)
    assert total_runs >= 1
    # worker metrics landed in the parent registry too
    assert obs.registry().snapshot().counters["sim.runs"] >= 1


def test_cache_probe_has_its_own_span(spam2_desc):
    obs.enable()
    evaluator = ParallelEvaluator([_kernel()], cache=ArtifactCache(),
                                  mode="serial")
    evaluator.evaluate_many([EvalRequest(spam2_desc, label="cold")])
    warm = evaluator.evaluate_many([
        EvalRequest(spam2_desc, label="warm"),
        EvalRequest(description_for("risc16"), label="new"),
    ])
    assert [r.cached for r in warm] == [True, False]
    records = obs.tracer().finished()
    probes = [r for r in records if r.name == "explore.probe"]
    assert [p.attrs["candidates"] for p in probes] == [1, 2]
    assert all(p.depth == 0 for p in probes)
    # one span per batch, in the main process: a hit is served inside
    # it, a miss is measured after it closes
    depths = {r.attrs["candidate"]: r.depth for r in records
              if r.name == "explore.evaluate"}
    assert depths == {"cold": 0, "warm": 1, "new": 0}
    assert obs.registry().snapshot().histograms[
        "stage.explore.probe"].count == 2


def test_process_pool_merge_is_deterministic(spam2_desc):
    def run():
        obs.enable()
        evaluator = ParallelEvaluator([_kernel()], cache=ArtifactCache(),
                                      mode="process", max_workers=2)
        try:
            results = evaluator.evaluate_many([
                EvalRequest(spam2_desc, label="a"),
                EvalRequest(description_for("risc16"), label="b"),
            ])
        finally:
            evaluator.shutdown()
        snap = obs.registry().snapshot()
        obs.disable(reset=True)
        return results, snap

    results1, snap1 = run()
    results2, snap2 = run()
    assert [r.label for r in results1] == [r.label for r in results2]
    assert _structural(snap1.counters) == _structural(snap2.counters)
    hist1 = {k: v.count for k, v in snap1.histograms.items()}
    hist2 = {k: v.count for k, v in snap2.histograms.items()}
    assert hist1 == hist2


def test_disabled_run_ships_no_snapshots(spam2_desc):
    evaluator = ParallelEvaluator([_kernel()], cache=ArtifactCache(),
                                  mode="process", max_workers=2)
    try:
        results = evaluator.evaluate_many(
            [EvalRequest(spam2_desc), EvalRequest(description_for("risc16"))]
        )
    finally:
        evaluator.shutdown()
    assert all(r.ok for r in results)
    assert all(r.obs is None for r in results)


# ----------------------------------------------------------------------
# Span export through the TraceSink lifecycle
# ----------------------------------------------------------------------


def test_span_file_trace_exports_records(tmp_path):
    obs.enable()
    with obs.span("outer"):
        with obs.span("inner", file="x"):
            pass
    path = tmp_path / "spans.txt"
    with obs.open_span_trace(str(path)) as sink:
        for record in obs.tracer().finished():
            sink.emit(record)
    text = path.read_text()
    assert "outer" in text and "inner" in text
    assert "file=x" in text
    # nested span is indented deeper than its parent
    inner_line = next(l for l in text.splitlines() if "inner" in l)
    assert inner_line.startswith("  ")


# ----------------------------------------------------------------------
# The repro-obs entry point
# ----------------------------------------------------------------------


def test_cli_writes_all_artifacts(tmp_path):
    from repro.obs.cli import main

    assert main(["--arch", "spam2", "--iterations", "1",
                 "--out", str(tmp_path)]) == 0
    trace = json.loads((tmp_path / "obs_trace.json").read_text())
    assert len(obs.validate_chrome_trace(trace)) >= 6
    bench = json.loads((tmp_path / "BENCH_obs_sweep.json").read_text())
    assert bench["bench"] == "obs_sweep"
    assert bench["candidates_profiled"] >= 1
    assert len(bench["stages"]) >= 6
    profile = (tmp_path / "obs_profile.txt").read_text()
    assert "sim.run" in profile and "cache:" in profile
    # the CLI cleaned up after itself
    assert not obs.enabled()


def test_cli_profile_prints_each_table_once(tmp_path):
    from repro.obs.cli import main

    assert main(["--arch", "spam2", "--iterations", "1",
                 "--out", str(tmp_path)]) == 0
    lines = (tmp_path / "obs_profile.txt").read_text().splitlines()
    timing_headers = [line for line in lines
                      if line.split()[:2] in (["span", "calls"],
                                              ["stage", "calls"])]
    assert len(timing_headers) == 1
    assert not [line for line in lines if line.startswith("stage profile")]
    assert sum(line == "counters:" for line in lines) == 1
    assert sum(line.startswith("cache: ") for line in lines) == 1
    # every span has exactly one timing row
    assert sum(line.split()[:1] == ["sim.run"] for line in lines) == 1
    assert sum(line.split()[:1] == ["hgen.synthesize"] for line in lines) == 1


def test_cli_rejects_unknown_arch(tmp_path, capsys):
    from repro.obs.cli import main

    assert main(["--arch", "nope", "--out", str(tmp_path)]) == 2
    assert "unknown architecture" in capsys.readouterr().err
