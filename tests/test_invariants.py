"""Tests for the always-on security-invariant monitors.

Proof obligations:

* **attribution** -- each attack class breaks the invariant that names
  it: stack smashes break return-integrity, code corruption breaks
  W^X, data-only and heartbleed break object-bounds, PMA abuses break
  entry-point discipline and register confidentiality, rollbacks break
  counter freshness;
* **precision** -- clean runs breach nothing, and exemptions (entry
  points, entry-time register values, canary re-arming) hold;
* **lifecycle** -- snapshot restore resets per-run breach state but
  keeps the counter high-water mark; attach+detach restores the
  machine's ``_observers is None`` fast path on both block-cache legs;
* **wiring** -- breaches surface in MetricsCollector, EventTrace,
  the Chrome exporter, the E4 matrix and the fuzzer's crash sites,
  and :class:`CrashSite` stays compatible with three-field callers.
"""

from __future__ import annotations

import pickle

import pytest

from repro.machine import Machine, MachineConfig
from repro.mitigations.config import CANARY, NONE, TESTING, MitigationConfig
from repro.observe import (
    EventTrace,
    InvariantBreach,
    InvariantMonitor,
    MetricsCollector,
    chrome_trace_events,
    observe_new_machines,
)
from repro.observe.coverage import CrashSite
from repro.pma.module import ProtectedModule
from tests.conftest import c_program, run_c


def monitored(fn, *args, **kwargs):
    """Run an attack pipeline with a monitor on every machine it
    builds; returns (result, monitors in construction order)."""
    monitors: list[InvariantMonitor] = []

    def factory(machine):
        monitor = InvariantMonitor()
        monitors.append(monitor)
        return monitor

    with observe_new_machines(factory):
        result = fn(*args, **kwargs)
    return result, monitors


def victim_breach(monitors) -> InvariantBreach | None:
    """First breach of the last machine whose timeline is non-empty."""
    for monitor in reversed(monitors):
        if monitor.first_breach is not None:
            return monitor.first_breach
    return None


def hooked_machine() -> tuple[Machine, InvariantMonitor]:
    machine = Machine(MachineConfig())
    monitor = InvariantMonitor()
    machine.attach_observer(monitor)
    return machine, monitor


# ---------------------------------------------------------------------------
# The breach record
# ---------------------------------------------------------------------------


class TestBreachRecord:
    def test_label_and_where(self):
        breach = InvariantBreach("canary", 0, 0x8048044, "clobbered")
        assert breach.where == "0x08048044"
        assert breach.label() == "canary@0x08048044"

    def test_ipless_breach_renders_placeholder(self):
        breach = InvariantBreach("counter-freshness", 0, None, "rolled back")
        assert breach.where == "?"
        assert breach.label() == "counter-freshness@?"

    def test_picklable_for_campaign_workers(self):
        breach = InvariantBreach("return-integrity", 1, 0x1000, "mismatch",
                                 pre=0x2000, post=0x3000,
                                 call_stack=(0x10, 0x20))
        assert pickle.loads(pickle.dumps(breach)) == breach


# ---------------------------------------------------------------------------
# Per-invariant checks through direct hook invocation
# ---------------------------------------------------------------------------


class TestReturnIntegrity:
    def test_mismatched_ret_breaches_with_pre_post(self):
        machine, monitor = hooked_machine()
        monitor.on_call(machine, 0x1000, 0x2000, 0x1005, False)
        monitor.on_ret(machine, 0x2004, 0x3333)
        breach = monitor.first_breach
        assert breach is not None
        assert breach.invariant == "return-integrity"
        assert breach.ip == 0x2004
        assert breach.pre == 0x1005
        assert breach.post == 0x3333

    def test_matched_ret_is_clean(self):
        machine, monitor = hooked_machine()
        monitor.on_call(machine, 0x1000, 0x2000, 0x1005, False)
        monitor.on_ret(machine, 0x2004, 0x1005)
        assert monitor.first_breach is None

    def test_breach_records_guest_call_stack(self):
        machine, monitor = hooked_machine()
        monitor.on_call(machine, 0x1000, 0x2000, 0x1005, False)
        monitor.on_call(machine, 0x2000, 0x4000, 0x2005, False)
        monitor.on_ret(machine, 0x4004, 0x9999)
        # The breaching frame is popped first; the record keeps the
        # surrounding caller context.
        assert monitor.first_breach.call_stack == (0x1005,)


class TestWX:
    def test_write_then_execute_is_wx_exec(self):
        machine, monitor = hooked_machine()
        monitor.on_write(machine, 0x20F000, 4, 0xDEAD)
        monitor.on_jump(machine, 0x1000, 0x20F000, True)
        breach = monitor.first_breach
        assert breach.invariant == "wx-exec"
        assert breach.ip == 0x1000

    def test_execute_then_write_is_wx_write(self):
        machine, monitor = hooked_machine()
        monitor.on_jump(machine, 0x1000, 0x1100, False)
        monitor.on_write(machine, 0x1104, 4, 0xDEAD)
        assert monitor.first_breach.invariant == "wx-write"

    def test_wx_reported_once_per_page(self):
        machine, monitor = hooked_machine()
        monitor.on_jump(machine, 0x1000, 0x1100, False)
        for addr in (0x1104, 0x1108, 0x110C):
            monitor.on_write(machine, addr, 4, 0)
        assert monitor.counts["wx-write"] == 1

    def test_disjoint_pages_are_clean(self):
        machine, monitor = hooked_machine()
        monitor.on_jump(machine, 0x1000, 0x1100, False)
        monitor.on_write(machine, 0x20F000, 4, 0)
        assert monitor.first_breach is None


class TestPMAConfidentiality:
    def _module(self) -> ProtectedModule:
        return ProtectedModule(
            name="vault", text_start=0x30000000, text_end=0x30001000,
            data_start=0x30001000, data_end=0x30002000,
            entry_points=frozenset({0x30000000}),
        )

    def test_internal_pointer_in_register_leaks(self):
        machine, monitor = hooked_machine()
        module = self._module()
        monitor.on_pma_enter(machine, module, 0x30000000)
        machine.cpu.regs[2] = 0x30001040       # module-internal data ptr
        monitor.on_pma_exit(machine, module, 0x1005)
        breach = monitor.first_breach
        assert breach.invariant == "pma-confidentiality"
        assert "r2=0x30001040" in breach.detail

    def test_entry_point_and_entry_time_values_exempt(self):
        machine, monitor = hooked_machine()
        module = self._module()
        machine.cpu.regs[3] = 0x30001040       # caller arrived with it
        monitor.on_pma_enter(machine, module, 0x30000000)
        machine.cpu.regs[4] = 0x30000000       # public entry point
        monitor.on_pma_exit(machine, module, 0x1005)
        assert monitor.first_breach is None


class TestCounterFreshness:
    def _machine_with_module(self):
        machine, monitor = hooked_machine()
        module = ProtectedModule(
            name="pinpad", text_start=0x30000000, text_end=0x30001000,
            data_start=0x30001000, data_end=0x30002000,
            entry_points=frozenset({0x30000000}),
        )
        machine.pma.register(module, b"\x00" * 16)
        return machine, monitor, module

    def test_restore_below_highwater_is_rollback(self):
        machine, monitor, module = self._machine_with_module()
        stale = machine.snapshot()             # counter = 0
        machine.pma.counter_increment(module)
        machine.snapshot()                     # samples high water = 1
        machine.restore(stale)                 # rewinds counter to 0
        breach = monitor.first_breach
        assert breach is not None
        assert breach.invariant == "counter-freshness"
        assert breach.ip is None
        assert (breach.pre, breach.post) == (1, 0)

    def test_restore_at_highwater_is_fresh(self):
        machine, monitor, module = self._machine_with_module()
        machine.pma.counter_increment(module)
        snap = machine.snapshot()
        machine.restore(snap)
        assert monitor.first_breach is None


# ---------------------------------------------------------------------------
# End-to-end attribution through real attack pipelines
# ---------------------------------------------------------------------------


class TestAttackAttribution:
    def test_stack_smash_breaks_return_integrity(self):
        from repro.attacks.io_attacks import attack_stack_smash_injection

        result, monitors = monitored(attack_stack_smash_injection, NONE)
        assert result.succeeded
        assert victim_breach(monitors).invariant == "return-integrity"

    def test_canary_clobber_attributed_before_detection(self):
        from repro.attacks.io_attacks import attack_stack_smash_injection

        result, monitors = monitored(attack_stack_smash_injection, CANARY)
        assert not result.succeeded
        assert victim_breach(monitors).invariant == "canary"

    def test_code_corruption_breaks_wx(self):
        from repro.attacks.io_attacks import attack_code_corruption

        result, monitors = monitored(attack_code_corruption, NONE)
        assert result.succeeded
        assert victim_breach(monitors).invariant == "wx-write"

    def test_data_only_breaks_object_bounds(self):
        from repro.attacks.io_attacks import attack_data_only

        result, monitors = monitored(attack_data_only, NONE)
        assert result.succeeded
        assert victim_breach(monitors).invariant == "object-bounds"

    def test_heartbleed_overread_breaks_object_bounds(self):
        from repro.attacks.io_attacks import attack_heartbleed

        result, monitors = monitored(attack_heartbleed, NONE)
        assert result.succeeded
        breach = victim_breach(monitors)
        assert breach.invariant == "object-bounds"
        assert "read" in breach.detail

    def test_midmodule_call_breaks_pma_entry(self):
        from repro.attacks.pma_exploit import attack_direct_midmodule_call

        result, monitors = monitored(attack_direct_midmodule_call)
        assert victim_breach(monitors).invariant == "pma-entry"

    def test_register_residue_breaks_pma_confidentiality(self):
        from repro.attacks.machinecode import attack_register_residue

        result, monitors = monitored(
            attack_register_residue, protected=True, secure=False)
        assert result.succeeded
        assert victim_breach(monitors).invariant == "pma-confidentiality"

    def test_secure_compilation_leaves_no_breach(self):
        from repro.attacks.machinecode import attack_register_residue

        result, monitors = monitored(
            attack_register_residue, protected=True, secure=True)
        assert not result.succeeded
        assert victim_breach(monitors) is None

    def test_redzone_touch_attributed(self):
        monitor = InvariantMonitor()
        with observe_new_machines(lambda machine: monitor):
            result = run_c(
                """
void main() {
    int a[4];
    int i;
    for (i = 0; i <= 4; i++) { a[i] = i; }
    print_int(a[0]);
}
""",
                config=MitigationConfig(asan=True),
            )
        assert result.fault is not None
        assert monitor.first_breach.invariant == "red-zone"

    def test_clean_program_breaches_nothing(self):
        monitor = InvariantMonitor()
        with observe_new_machines(lambda machine: monitor):
            result = run_c(
                """
int add(int a, int b) { return a + b; }
void main() { print_int(add(20, 22)); }
""",
                config=CANARY,
            )
        assert result.exit_code == 0
        assert monitor.total_breaches() == 0
        assert monitor.report()["first_breach"] is None


# ---------------------------------------------------------------------------
# Link-time metadata delivery
# ---------------------------------------------------------------------------


class TestBindProgram:
    def test_loader_delivers_frame_tables_and_canary(self):
        monitor = InvariantMonitor()
        with observe_new_machines(lambda machine: monitor):
            program = c_program(
                """
void main() { int buf[4]; buf[0] = 1; print_int(buf[0]); }
""",
                config=CANARY,
            )
        assert monitor._frame_tables
        entry_locals = monitor._frame_tables[
            program.image.symbol("test:main")]
        assert any(name == "buf" and size == 16
                   for name, _offset, size in entry_locals)
        assert monitor._canary_value != 0

    def test_unbound_monitor_still_runs(self):
        machine, monitor = hooked_machine()
        monitor.on_write(machine, 0x20F000, 64, b"\x00" * 64)
        assert monitor.first_breach is None   # bounds checks inert

    def test_global_symbol_intervals_cover_data(self):
        monitor = InvariantMonitor()
        with observe_new_machines(lambda machine: monitor):
            c_program(
                """
int table[4];
int sentinel;
void main() { table[0] = 1; print_int(table[0]); }
""")
        assert monitor._global_starts
        assert len(monitor._global_starts) == len(monitor._global_ends)
        assert all(end > start for start, end
                   in zip(monitor._global_starts, monitor._global_ends))


# ---------------------------------------------------------------------------
# Lifecycle: snapshot reset + attach/detach symmetry
# ---------------------------------------------------------------------------


class TestSnapshotReset:
    def test_restore_clears_per_run_breach_state(self):
        machine, monitor = hooked_machine()
        snap = machine.snapshot()
        monitor.on_call(machine, 0x1000, 0x2000, 0x1005, False)
        monitor.on_ret(machine, 0x2004, 0x3333)
        assert monitor.total_breaches() == 1
        machine.restore(snap)
        assert monitor.timeline == []
        assert monitor.counts == {}
        assert monitor.first_breach is None

    def test_highwater_survives_restore(self):
        machine, monitor = hooked_machine()
        module = ProtectedModule(
            name="m", text_start=0x30000000, text_end=0x30001000,
            data_start=0x30001000, data_end=0x30002000,
            entry_points=frozenset({0x30000000}),
        )
        machine.pma.register(module, b"\x01" * 16)
        stale = machine.snapshot()
        machine.pma.counter_increment(module)
        machine.snapshot()
        machine.restore(stale)
        assert monitor.first_breach.invariant == "counter-freshness"
        # A second rollback from the same stale point flags again: the
        # high-water mark survived the restore that reset the timeline.
        machine.restore(stale)
        assert monitor.first_breach.invariant == "counter-freshness"

    def test_begin_run_resets_like_restore(self):
        machine, monitor = hooked_machine()
        monitor.on_call(machine, 0x1000, 0x2000, 0x1005, False)
        monitor.on_ret(machine, 0x2004, 0x3333)
        monitor.begin_run()
        assert monitor.total_breaches() == 0


class TestAttachDetachSymmetry:
    @pytest.mark.parametrize("block", [False, True])
    def test_detach_restores_fast_path(self, block):
        machine = Machine(MachineConfig(tier="block" if block else "interp"))
        monitor = InvariantMonitor()
        machine.attach_observer(monitor)
        assert machine._observers is not None
        # A monitor-only hub is dispatch-transparent: the block tier
        # stays licensed to run against it.
        assert machine._blocks_hub is machine._observers
        machine.detach_observer(monitor)
        assert machine._observers is None
        assert machine._blocks_hub is None

    @pytest.mark.parametrize("block", [False, True])
    def test_detach_after_run_restores_fast_path(self, block):
        program = c_program("""
void main() {
    int i;
    int acc = 0;
    for (i = 0; i < 50; i++) { acc += i; }
    print_int(acc);
}
""")
        machine = program.machine
        machine.config.tier = "block" if block else "interp"
        monitor = InvariantMonitor()
        machine.attach_observer(monitor)
        result = program.run()
        assert result.output == b"1225\n"
        machine.detach_observer(monitor)
        assert machine._observers is None
        assert machine._blocks_hub is None

    def test_non_transparent_observer_disables_block_hub(self):
        machine = Machine(MachineConfig(tier="block"))
        machine.attach_observer(EventTrace())
        assert machine._observers is not None
        assert machine._blocks_hub is None

    def test_mixed_hub_is_not_transparent(self):
        machine = Machine(MachineConfig(tier="block"))
        machine.attach_observer(InvariantMonitor())
        assert machine._blocks_hub is machine._observers
        metrics = MetricsCollector()
        machine.attach_observer(metrics)
        assert machine._blocks_hub is None      # on_instruction subscriber
        machine.detach_observer(metrics)
        assert machine._blocks_hub is machine._observers


# ---------------------------------------------------------------------------
# Downstream wiring: metrics, traces, exporters, matrix, fuzzer
# ---------------------------------------------------------------------------


class TestBreachEventWiring:
    def _breach_with(self, *observers):
        machine = Machine(MachineConfig())
        monitor = InvariantMonitor()
        for observer in observers:
            machine.attach_observer(observer)
        machine.attach_observer(monitor)
        monitor.on_call(machine, 0x1000, 0x2000, 0x1005, False)
        monitor.on_ret(machine, 0x2004, 0x3333)

    def test_metrics_count_breaches_by_invariant(self):
        metrics = MetricsCollector()
        self._breach_with(metrics)
        assert metrics.breaches["return-integrity"] == 1
        snapshot = metrics.snapshot()
        assert snapshot["invariant_breaches"] == {"return-integrity": 1}

    def test_render_metrics_reports_breaches(self):
        from repro.experiments.reporting import render_metrics

        metrics = MetricsCollector()
        self._breach_with(metrics)
        text = render_metrics(metrics.snapshot())
        assert "invariant breaches" in text
        assert "return-integrity=1" in text

    def test_event_trace_records_breach_events(self):
        trace = EventTrace(include_memory=False)
        self._breach_with(trace)
        breaches = [event for event in trace.events
                    if event.kind == "breach"]
        assert len(breaches) == 1
        assert breaches[0].data["invariant"] == "return-integrity"
        assert breaches[0].ip == 0x2004

    def test_chrome_export_emits_breach_instants(self):
        trace = EventTrace(include_memory=False)
        self._breach_with(trace)
        instants = [event for event in chrome_trace_events(trace.events)
                    if event.get("cat") == "breach"]
        assert len(instants) == 1
        assert instants[0]["args"]["invariant"] == "return-integrity"


class TestMatrixAttribution:
    @pytest.fixture(scope="class")
    def cells(self):
        from repro.experiments.matrix import run_matrix

        return run_matrix(presets=(("none", NONE),), jobs=1,
                          invariants=True)

    def test_every_successful_attack_names_a_breaching_ip(self, cells):
        for cell in cells:
            if cell.result.succeeded:
                assert cell.first_breach is not None, cell.attack
                invariant, _, where = cell.first_breach.partition("@")
                assert invariant
                assert where.startswith("0x")

    def test_render_adds_first_breach_table(self, cells):
        from repro.experiments.matrix import render_matrix

        text = render_matrix(cells, invariants=True)
        assert "first invariant broken" in text
        assert "return-integrity@0x" in text

    def test_unmonitored_matrix_renders_single_table(self):
        from repro.experiments.matrix import render_matrix, run_matrix

        cells = run_matrix(presets=(("none", NONE),), jobs=1)
        assert all(cell.first_breach is None for cell in cells)
        assert "first invariant broken" not in render_matrix(cells)


class TestCrashSiteCompat:
    def test_three_field_construction_unchanged(self):
        old = CrashSite("RedZoneFault", 0x1000, 123)
        assert old.first_breach is None
        assert old == CrashSite("RedZoneFault", 0x1000, 123, None)
        assert len({old, CrashSite("RedZoneFault", 0x1000, 123)}) == 1

    def test_first_breach_extends_the_dedup_key(self):
        plain = CrashSite("RedZoneFault", 0x1000, 123)
        attributed = CrashSite("RedZoneFault", 0x1000, 123, "canary")
        assert plain != attributed
        assert len({plain, attributed}) == 2

    def test_pickle_round_trip(self):
        site = CrashSite("ProtectionFault", 0x2000, 7, "wx-write")
        assert pickle.loads(pickle.dumps(site)) == site


class TestFuzzerAttribution:
    def test_crash_sites_carry_first_breach(self):
        from repro.analysis.greybox import (
            SnapshotExecutor,
            VictimFactory,
            outcome_of,
        )

        executor = SnapshotExecutor(
            VictimFactory("fig1_staged", TESTING), invariants=True)
        observer_machine = executor.machine
        from repro.observe.coverage import CoverageObserver
        observer = CoverageObserver()
        observer_machine.attach_observer(observer)
        executor.observer = observer
        result = executor.run(b"GET " + b"A" * 32)
        outcome = outcome_of(observer, result, executor.monitor)
        assert outcome.crash_site is not None
        assert outcome.crash_site.first_breach is not None

    def test_greybox_reports_attributed_crashes(self):
        from repro.analysis.greybox import GreyboxFuzzer, VictimFactory

        fuzzer = GreyboxFuzzer(
            VictimFactory("fig1_staged", TESTING), seed=3,
            seeds=(b"GET " + b"A" * 32,), invariants=True,
            program="fig1_staged", config="testing",
        )
        report = fuzzer.run(max_execs=40, stop_on_first_crash=True,
                            minimize=False)
        assert report.crashes
        assert all(record.site.first_breach is not None
                   for record in report.crashes)

    def test_monitor_resets_between_fork_server_runs(self):
        from repro.analysis.greybox import SnapshotExecutor, VictimFactory

        executor = SnapshotExecutor(
            VictimFactory("fig1_staged", TESTING), invariants=True)
        crash = executor.run(b"GET " + b"A" * 32)
        assert crash.fault is not None
        assert executor.monitor.total_breaches() > 0
        clean = executor.run(b"x")
        assert clean.fault is None
        assert executor.monitor.total_breaches() == 0
