"""Simulator throughput benchmarks (the substrate's own performance).

Not a paper artefact: these wall-clock numbers characterise the
simulator so experiment runtimes are interpretable, and guard against
performance regressions in the fetch/decode/execute pipeline.

Three throughput legs: ``interpreter`` pins ``tier="interp"`` so its
history stays comparable with runs recorded before the basic-block
translation cache existed; ``block`` pins ``tier="block"`` (superblock
dispatch, trace tier off), preserving that leg's pre-trace history;
``trace`` measures the full default pipeline (superblocks + the tier-2 trace
JIT, tests/test_differential_trace.py proves it observationally
identical).  The --check gate requires the trace leg to beat the block
leg by MIN_TRACE_SPEEDUP in run_benchmarks.py.  A fourth ``monitored``
leg prices always-on invariant monitoring over superblock dispatch
(gated at MAX_MONITOR_OVERHEAD x the detached block leg).

The ``snapshot`` pair prices repeated-trial campaigns: one warm
copy-on-write restore per trial versus a full compile+link+load
rebuild per trial, on the same return-to-libc guess workload
(tests/test_snapshot.py proves the restored trials byte-identical).

The ``fuzz`` section prices the greybox fuzzer's inner loop: one
coverage-instrumented execution through the warm snapshot fork-server
(restore + feed + observed run + bitmap read-out) on the staged
Figure 1 victim, reported in executions/second.  The
``fuzz_parsing`` / ``fuzz_stepped`` pair runs the parse-heavy
``fig1_parsing`` victim (guest execution dominates, the way it does
in real fuzz targets) behind the transparent observer and behind a
non-dispatch-transparent subclass (per-instruction stepping, the
pre-transparency coverage path); --check requires the transparent
leg to beat the stepped one by MIN_FUZZ_DISPATCH_SPEEDUP, a
hardware-independent reading of what transparency buys.  The
``fuzz_campaign`` / ``fuzz_parallel`` pair prices whole greybox
campaigns sequentially and fanned out over CampaignRunner workers;
the scaling gate only binds on machines with >= 4 cores (the
recorded ``cores`` travels with the number).
"""

from repro.link import load
from repro.machine import MachineConfig
from repro.machine.blocks import MAX_BLOCK_INSNS
from repro.machine.trace import TRACE_MAX_INSNS
from repro.minic import CompileOptions, compile_source

_HOT_LOOP = """
void main() {
    int acc = 0;
    int i;
    for (i = 0; i < 20000; i++) {
        acc += i;
    }
    print_int(acc);
}
"""


def _build():
    obj = compile_source(_HOT_LOOP, "hot", CompileOptions(optimize=True))
    return load([obj])


def _bench_throughput(benchmark, label, tier):
    def run_once():
        program = _build()
        program.machine.config.tier = tier
        result = program.run(10_000_000)
        assert result.exit_code == 0
        return result.instructions

    instructions = benchmark(run_once)
    if benchmark.stats is not None:  # absent under --benchmark-disable
        rate = instructions / benchmark.stats.stats.mean
        benchmark.extra_info["instructions_per_run"] = instructions
        benchmark.extra_info["instructions_per_second"] = rate
        # Record the dispatch configuration alongside the number so a
        # history entry is interpretable on its own.
        benchmark.extra_info["config"] = {
            "tier": tier,
            "max_block_insns": MAX_BLOCK_INSNS,
            "trace_hot_threshold": MachineConfig.trace_hot_threshold,
            "trace_max_insns": TRACE_MAX_INSNS,
        }
        print(f"\n{label} throughput: ~{rate:,.0f} instructions/second "
              f"({instructions} instructions per run)")
    assert instructions > 100_000


def test_bench_interpreter_throughput(benchmark):
    _bench_throughput(benchmark, "interpreter", "interp")


def test_bench_block_throughput(benchmark):
    # Trace tier off: this leg's history predates the trace tier and
    # must keep measuring superblock dispatch alone.
    _bench_throughput(benchmark, "block-translation", "block")


def test_bench_trace_throughput(benchmark):
    _bench_throughput(benchmark, "trace-jit", "trace")


def test_bench_monitored_throughput(benchmark):
    """Superblock dispatch with the invariant monitor riding along.

    The monitor is dispatch-transparent, so blocks stay on and the
    cost is the baked-in control-transfer events plus the checked
    memory accessors.  The --check gate in run_benchmarks.py bounds
    this leg at MAX_MONITOR_OVERHEAD x the detached block leg --
    the price of always-on monitoring must stay small enough to
    actually leave it always on.
    """
    from repro.observe import InvariantMonitor

    def run_once():
        program = _build()
        program.machine.config.tier = "block"
        monitor = InvariantMonitor()
        program.machine.attach_observer(monitor)
        monitor.bind_program(program)
        result = program.run(10_000_000)
        assert result.exit_code == 0
        assert monitor.total_breaches() == 0
        return result.instructions

    instructions = benchmark(run_once)
    if benchmark.stats is not None:  # absent under --benchmark-disable
        rate = instructions / benchmark.stats.stats.mean
        benchmark.extra_info["instructions_per_run"] = instructions
        benchmark.extra_info["instructions_per_second"] = rate
        print(f"\nmonitored throughput: ~{rate:,.0f} instructions/second "
              f"({instructions} instructions per run)")
    assert instructions > 100_000


def test_bench_compile_pipeline(benchmark):
    """Compile+assemble+link+load latency for a small program."""
    program = benchmark(_build)
    assert program.image.entry


# -- snapshot campaigns ------------------------------------------------------

#: Warm trials per benchmark round (amortises timer overhead; the
#: per-trial rate is reported either way).
_TRIALS_PER_ROUND = 25


def _campaign_pieces():
    """The return-to-libc ASLR-guess campaign the experiments run."""
    from repro.attacks.study import locate_overflow
    from repro.experiments.campaign_exp import Fig1Factory, Ret2LibcGuessTrial
    from repro.mitigations.config import MitigationConfig
    from repro.programs.builders import build_fig1

    config = MitigationConfig(aslr_bits=4)
    local = build_fig1(config.with_(aslr_bits=0), wide_open=True)
    site = locate_overflow(local, frames_up=1)
    trial = Ret2LibcGuessTrial(
        site.offset_to_return,
        local.symbol("libc_spawn_shell"),
        local.symbol("libc_exit"),
        bits=4,
        base_seed=1,
    )
    return Fig1Factory(config, 1), trial


def _bench_trials(benchmark, label, run_round, trials_per_round):
    count = benchmark(run_round)
    assert count == trials_per_round
    if benchmark.stats is not None:  # absent under --benchmark-disable
        rate = trials_per_round / benchmark.stats.stats.mean
        benchmark.extra_info["trials_per_run"] = trials_per_round
        benchmark.extra_info["trials_per_second"] = rate
        print(f"\n{label}: ~{rate:,.0f} trials/second")


def test_bench_snapshot_restore_trials(benchmark):
    """Steady-state campaign trials: restore the warm snapshot, run."""
    from repro.campaign import CampaignSession

    factory, trial = _campaign_pieces()
    session = CampaignSession(factory, trial)
    session.run_trial(0)  # translate the victim's blocks once

    def run_round():
        return len(session.run_batch(range(_TRIALS_PER_ROUND)))

    _bench_trials(benchmark, "snapshot-restore trials", run_round,
                  _TRIALS_PER_ROUND)


def test_bench_cold_rebuild_trials(benchmark):
    """The pre-campaign cost model: rebuild the victim every trial."""
    factory, trial = _campaign_pieces()

    def run_round():
        trial(factory(), 0)
        return 1

    _bench_trials(benchmark, "cold-rebuild trials", run_round, 1)


# -- greybox fuzzing ---------------------------------------------------------

#: Fuzz executions per benchmark round (same amortisation story as the
#: campaign trials above).
_EXECS_PER_ROUND = 50


def test_bench_greybox_execs(benchmark):
    """Instrumented fork-server executions: the greybox inner loop.

    Uses a fixed mutation batch (pre-generated from the fuzzer's RNG)
    so every round executes the same inputs -- the number prices
    restore + coverage-observed execution + bitmap read-out, not
    mutation luck.
    """
    from repro.analysis.greybox import (
        GreyboxFuzzer,
        SnapshotExecutor,
        VictimFactory,
        outcome_of,
    )
    from repro.mitigations.config import TESTING
    from repro.observe.coverage import CoverageObserver

    factory = VictimFactory("fig1_staged", TESTING)
    observer = CoverageObserver()
    executor = SnapshotExecutor(factory, observer=observer)
    fuzzer = GreyboxFuzzer(factory, seed=1)
    inputs = [fuzzer._havoc_one(b"GET " + bytes(12))
              for _ in range(_EXECS_PER_ROUND)]
    executor.run(inputs[0])     # warm the caches once

    def run_round():
        count = 0
        for data in inputs:
            outcome_of(observer, executor.run(data))
            count += 1
        return count

    count = benchmark(run_round)
    assert count == _EXECS_PER_ROUND
    if benchmark.stats is not None:  # absent under --benchmark-disable
        rate = _EXECS_PER_ROUND / benchmark.stats.stats.mean
        benchmark.extra_info["execs_per_run"] = _EXECS_PER_ROUND
        benchmark.extra_info["execs_per_second"] = rate
        print(f"\ngreybox fork-server: ~{rate:,.0f} execs/second")


def _bench_parsing_execs(benchmark, label, observer_cls):
    """Fork-server executions of the parse-heavy ``fig1_parsing``
    victim behind ``observer_cls`` -- shared by the transparent /
    stepped pair so the speedup ratio compares identical workloads."""
    from repro.analysis.greybox import (
        GreyboxFuzzer,
        SnapshotExecutor,
        VictimFactory,
        outcome_of,
    )
    from repro.mitigations.config import TESTING

    factory = VictimFactory("fig1_parsing", TESTING)
    observer = observer_cls()
    executor = SnapshotExecutor(factory, observer=observer)
    fuzzer = GreyboxFuzzer(factory, seed=1)
    inputs = [fuzzer._havoc_one(b"GET " + bytes(12))
              for _ in range(_EXECS_PER_ROUND)]
    executor.run(inputs[0])

    def run_round():
        count = 0
        for data in inputs:
            outcome_of(observer, executor.run(data))
            count += 1
        return count

    count = benchmark(run_round)
    assert count == _EXECS_PER_ROUND
    if benchmark.stats is not None:  # absent under --benchmark-disable
        rate = _EXECS_PER_ROUND / benchmark.stats.stats.mean
        benchmark.extra_info["execs_per_run"] = _EXECS_PER_ROUND
        benchmark.extra_info["execs_per_second"] = rate
        print(f"\n{label}: ~{rate:,.0f} execs/second")


def test_bench_greybox_parsing(benchmark):
    """Observed executions where guest parsing dominates the input.

    The staged victim above prices the fork-server's fixed costs (its
    requests run ~100 instructions); this leg prices coverage-observed
    *execution*, which is what dispatch transparency accelerates.
    """
    from repro.observe.coverage import CoverageObserver

    _bench_parsing_execs(benchmark, "greybox parsing victim",
                         CoverageObserver)


def test_bench_greybox_execs_stepped(benchmark):
    """The parsing workload behind a *stepped* coverage observer.

    A ``dispatch_transparent = False`` subclass forces the machine
    down per-instruction dispatch -- exactly what every observed run
    paid before coverage rode the superblock cache.  The --check gate
    requires the transparent leg above to beat this one by
    MIN_FUZZ_DISPATCH_SPEEDUP, so the speedup claim is checked on the
    measuring machine itself rather than against a stale baseline.
    """
    from repro.observe.coverage import CoverageObserver

    class SteppedCoverageObserver(CoverageObserver):
        dispatch_transparent = False

    _bench_parsing_execs(benchmark, "greybox stepped dispatch",
                         SteppedCoverageObserver)


#: Executions per whole-campaign benchmark round (large enough that
#: worker warm-up amortises; tests/test_greybox.py proves the
#: parallel report identical to the sequential one).
_CAMPAIGN_EXECS = 600


def _campaign_round(jobs):
    from repro.analysis.greybox import GreyboxFuzzer, VictimFactory
    from repro.mitigations.config import TESTING

    # The parsing victim again: scaling is only meaningful when the
    # workers spend their time executing the guest, not dispatching.
    fuzzer = GreyboxFuzzer(VictimFactory("fig1_parsing", TESTING),
                           seed=5, jobs=jobs)
    report = fuzzer.run(_CAMPAIGN_EXECS, minimize=False)
    return report.execs


def _bench_campaign(benchmark, label, jobs):
    import os

    execs = benchmark.pedantic(lambda: _campaign_round(jobs),
                               rounds=1, iterations=1)
    assert execs == _CAMPAIGN_EXECS
    if benchmark.stats is not None:  # absent under --benchmark-disable
        rate = execs / benchmark.stats.stats.mean
        benchmark.extra_info["execs_per_run"] = execs
        benchmark.extra_info["execs_per_second"] = rate
        benchmark.extra_info["jobs"] = jobs or 1
        benchmark.extra_info["cores"] = os.cpu_count() or 1
        print(f"\n{label}: ~{rate:,.0f} execs/second "
              f"(jobs={jobs or 1}, cores={os.cpu_count()})")


def test_bench_fuzz_campaign(benchmark):
    """A whole sequential greybox campaign, mutation to report."""
    _bench_campaign(benchmark, "greybox campaign (sequential)", None)


def test_bench_fuzz_parallel(benchmark):
    """The same campaign fanned out over CampaignRunner workers.

    Pipelined batches + the shared virgin map; jobs=4 (capped at the
    core count so a small container still produces an honest number).
    The --check scaling gate only binds when cores >= 4.
    """
    import os

    _bench_campaign(benchmark, "greybox campaign (parallel)",
                    min(4, os.cpu_count() or 1))


def test_bench_fuzz_service(benchmark, tmp_path):
    """The identical campaign driven through the durable service.

    Same victim, seed, budget and jobs as ``test_bench_fuzz_parallel``
    -- the delta is pure coordinator overhead: the asyncio drain loop,
    per-batch checkpoint pickling, corpus/triage persistence, and the
    JSONL progress stream.  The --check gate requires >= 80% of the
    direct CampaignRunner throughput; the ratio compares like against
    like on any core count, so it binds unconditionally.
    """
    import os

    from repro.campaign.service import CampaignCoordinator, CampaignSpec

    jobs = min(4, os.cpu_count() or 1)

    def service_round():
        import shutil

        root = tmp_path / "svc"
        shutil.rmtree(root, ignore_errors=True)
        coordinator = CampaignCoordinator(root, concurrency=1)
        coordinator.submit(CampaignSpec(
            job_id="bench", victim="fig1_parsing", config="testing",
            seed=5, max_execs=_CAMPAIGN_EXECS, jobs=jobs,
            invariants=False, minimize=False,
        ))
        return coordinator.serve()["bench"]["execs"]

    execs = benchmark.pedantic(service_round, rounds=1, iterations=1)
    assert execs == _CAMPAIGN_EXECS
    if benchmark.stats is not None:
        rate = execs / benchmark.stats.stats.mean
        benchmark.extra_info["execs_per_run"] = execs
        benchmark.extra_info["execs_per_second"] = rate
        benchmark.extra_info["jobs"] = jobs
        benchmark.extra_info["cores"] = os.cpu_count() or 1
        print(f"\ngreybox campaign (service): ~{rate:,.0f} execs/second "
              f"(jobs={jobs}, cores={os.cpu_count()})")
