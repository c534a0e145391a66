"""Tests for repro.observe: event bus, tracers, metrics, profiler,
exporters, and the zero-cost attach/detach machinery."""

from __future__ import annotations

import io
import json

import pytest
from hypothesis import given, settings

from repro.asm import assemble
from repro.link import load
from repro.machine import Machine, MachineConfig, RunStatus
from repro.machine.machine import _MEMORY_ACCESSORS
from repro.observe import (
    EventTrace,
    GuestProfiler,
    InstructionTracer,
    MetricsCollector,
    Observer,
    export_chrome_trace,
    export_jsonl,
    observe_new_machines,
)
from tests.conftest import asm_program, c_program, run_c
from tests.test_differential import variable_programs

EXIT_0 = """
.text
.global main
main:
    mov r0, 0
    sys 3
"""

CALLS = """
.text
.global main
main:
    call helper
    call helper
    mov r0, 0
    sys 3
.global helper
helper:
    mov r1, 1
    ret
"""


def observed(source: str, observer: Observer, stdin: bytes = b""):
    program = asm_program(source)
    program.machine.attach_observer(observer)
    program.feed(stdin)
    return program.run()


class TestAttachDetach:
    def test_unobserved_machine_has_no_hub(self):
        machine = Machine(MachineConfig())
        assert list(machine.observers) == []
        assert machine._observers is None

    def test_attach_then_detach_restores_null_state(self):
        machine = Machine(MachineConfig())
        observer = MetricsCollector()
        machine.attach_observer(observer)
        assert list(machine.observers) == [observer]
        assert machine._observers is not None
        machine.detach_observer(observer)
        assert list(machine.observers) == []
        assert machine._observers is None

    def test_memory_accessors_swapped_only_for_memory_subscribers(self):
        machine = Machine(MachineConfig())
        for name in _MEMORY_ACCESSORS:
            assert name not in machine.__dict__

        tracer = InstructionTracer()  # no on_read/on_write override
        machine.attach_observer(tracer)
        for name in _MEMORY_ACCESSORS:
            assert name not in machine.__dict__

        metrics = MetricsCollector()  # subscribes to memory events
        machine.attach_observer(metrics)
        for name in _MEMORY_ACCESSORS:
            assert name in machine.__dict__

        machine.detach_observer(metrics)
        for name in _MEMORY_ACCESSORS:
            assert name not in machine.__dict__

    def test_event_trace_without_memory_keeps_accessors_unwrapped(self):
        machine = Machine(MachineConfig())
        machine.attach_observer(EventTrace(include_memory=False))
        for name in _MEMORY_ACCESSORS:
            assert name not in machine.__dict__


class TestEventKinds:
    def test_call_and_ret_events(self):
        trace = EventTrace()
        observed(CALLS, trace)
        # crt0's _start calls main, then main calls helper twice.
        calls = [e for e in trace.events if e.kind == "call"]
        rets = [e for e in trace.events if e.kind == "ret"]
        assert len(calls) == 3
        assert len(rets) == 2
        assert all(not e.data["indirect"] for e in calls)
        # helper's ret returns to the instruction after its call site.
        assert rets[0].data["target"] == calls[1].data["return_addr"]

    def test_indirect_call_flagged(self):
        trace = EventTrace()
        observed("""
.text
.global main
main:
    mov r1, helper
    call r1
    mov r0, 0
    sys 3
.global helper
helper:
    ret
""", trace)
        indirect = [e for e in trace.events
                    if e.kind == "call" and e.data["indirect"]]
        assert len(indirect) == 1

    def test_branch_taken_and_not_taken(self):
        trace = EventTrace()
        observed("""
.text
.global main
main:
    mov r0, 1
    cmp r0, 1
    jz taken
    mov r0, 99
taken:
    cmp r0, 2
    jz never
    mov r0, 0
never:
    sys 3
""", trace)
        branches = [e for e in trace.events if e.kind == "branch"]
        assert [e.data["taken"] for e in branches] == [True, False]

    def test_syscall_event(self):
        trace = EventTrace()
        observed(EXIT_0, trace)
        syscalls = [e for e in trace.events if e.kind == "syscall"]
        assert [e.data["number"] for e in syscalls] == [3]

    def test_fault_event_names_faulting_ip(self):
        trace = EventTrace()
        result = observed("""
.text
.global main
main:
    mov r1, 0x40000000
    load r0, [r1]
""", trace)
        assert result.status is RunStatus.FAULT
        faults = [e for e in trace.events if e.kind == "fault"]
        assert len(faults) == 1
        assert faults[0].data["fault"] == "MemoryFault"
        assert faults[0].ip == result.fault.address if hasattr(
            result.fault, "address") else True

    def test_write_events_record_writer_ip(self):
        trace = EventTrace()
        observed(CALLS, trace)
        writes = [e for e in trace.events if e.kind == "write"]
        assert writes, "call pushes must emit write events"
        # each write is attributed to the instruction that performed it
        insn_ips = {e.ip for e in trace.events if e.kind == "insn"}
        assert all(w.ip in insn_ips for w in writes)

    def test_pma_enter_and_exit_events(self):
        module = assemble("""
.text
.entry api
api:
    mov r0, 42
    ret
""", "mod")
        program = load([assemble("""
.text
.global main
main:
    call api
    sys 3
""", "main"), module])
        trace = EventTrace()
        program.machine.attach_observer(trace)
        result = program.run()
        assert result.exit_code == 42
        kinds = [e.kind for e in trace.events
                 if e.kind in ("pma_enter", "pma_exit")]
        assert kinds == ["pma_enter", "pma_exit"]
        enters = [e for e in trace.events if e.kind == "pma_enter"]
        assert enters[0].data["module"] == "mod"

    def test_decode_miss_and_invalidate_events(self):
        trace = EventTrace()
        machine = Machine(MachineConfig(tier="interp"))  # caches decodes
        machine.attach_observer(trace)
        machine.memory.map_region(0x1000, 0x1000, 7)
        from repro.isa import build, encode_many

        machine.memory.write_bytes(0x1000, encode_many([
            build.mov_ri(0, 0), build.sys(3)]))
        machine.cpu.ip = 0x1000
        machine.run(max_instructions=100)
        misses = [e for e in trace.events if e.kind == "decode_miss"]
        assert len(misses) == 2  # one per distinct instruction
        machine.flush_decode_cache()
        invalidates = [e for e in trace.events
                       if e.kind == "decode_invalidate"]
        assert invalidates and invalidates[-1].data["page"] is None
        assert invalidates[-1].data["count"] == 2

    def test_instruction_events_match_executed_count(self):
        trace = EventTrace()
        result = observed(CALLS, trace)
        insns = [e for e in trace.events if e.kind == "insn"]
        assert len(insns) == result.instructions


class TestTracerCompat:
    """The tracers keep the legacy trace list's retention bound, but
    count what they drop instead of stopping silently."""

    def test_trace_limit_counts_dropped(self):
        tracer = InstructionTracer(limit=3)
        result = observed(CALLS, tracer)
        assert len(tracer.entries) == 3
        assert tracer.dropped == result.instructions - 3

    def test_event_trace_dropped_counter(self):
        trace = EventTrace(limit=5)
        observed(CALLS, trace)
        assert len(trace.events) == 5
        assert trace.dropped > 0


class TestRunResultTiming:
    def test_duration_and_rate_recorded(self):
        result = run_c("void main() { print_int(1); }")
        assert result.duration_seconds > 0
        assert result.instructions_per_second > 0
        assert result.instructions_per_second == pytest.approx(
            result.instructions / result.duration_seconds)

    def test_zero_duration_rate_is_zero(self):
        from repro.machine import RunResult

        result = RunResult(status=RunStatus.EXITED, exit_code=0, fault=None,
                           instructions=10, output=b"", shell_spawned=False)
        assert result.instructions_per_second == 0.0


class TestMetrics:
    def test_snapshot_shape_and_counts(self):
        metrics = MetricsCollector()
        result = observed(CALLS, metrics)
        snap = metrics.snapshot()
        assert snap["instructions"] == result.instructions
        assert snap["control"]["call"] == 3  # _start->main + 2x helper
        assert snap["control"]["ret"] == 2
        assert snap["syscalls"] == {3: 1}
        assert snap["faults"] == {}
        assert snap["memory"]["writes"] >= 2  # the two call pushes
        assert snap["decode_cache"]["misses"] > 0
        json.dumps(snap)  # plain-dict contract: JSON-serialisable

    def test_aggregates_across_machines(self):
        metrics = MetricsCollector()
        with observe_new_machines(lambda machine: metrics):
            run_c("void main() { }")
            run_c("void main() { }")
        assert metrics.syscalls[3] == 2

    def test_observe_scope_does_not_leak(self):
        with observe_new_machines(lambda machine: MetricsCollector()):
            pass
        machine = Machine(MachineConfig())
        assert machine._observers is None

    @settings(max_examples=15, deadline=None)
    @given(variable_programs())
    def test_metrics_instruction_count_matches_machine(self, pair):
        source, _ = pair
        metrics = MetricsCollector()
        program = c_program(source)
        program.machine.attach_observer(metrics)
        result = program.run()
        assert metrics.instructions == result.instructions
        assert sum(metrics.opcodes.values()) == result.instructions


class TestProfiler:
    def test_flat_profile_attributes_recursion(self):
        program = c_program("""
int fib(int n) {
    if (n < 2) { return n; }
    return fib(n - 1) + fib(n - 2);
}
void main() { print_int(fib(8)); }
""")
        profiler = GuestProfiler.for_program(program)
        program.machine.attach_observer(profiler)
        result = program.run()
        rows = profiler.flat_profile()
        by_name = {row["function"]: row for row in rows}
        assert by_name["fib"]["calls"] > 20  # fib(8) calls
        assert by_name["fib"]["self"] > by_name["main"]["self"]
        assert profiler.total_instructions == result.instructions
        edges = {(e["caller"], e["callee"]) for e in profiler.call_graph()}
        assert ("fib", "fib") in edges
        assert ("main", "fib") in edges

    def test_symbolize(self):
        profiler = GuestProfiler([(0x1000, "alpha"), (0x2000, "beta")])
        assert profiler.symbolize(0x1000) == "alpha"
        assert profiler.symbolize(0x1fff) == "alpha"
        assert profiler.symbolize(0x2004) == "beta"
        assert profiler.symbolize(0x500) == "0x00000500"

    def test_hot_pages(self):
        program = c_program("void main() { print_int(3); }")
        profiler = GuestProfiler.for_program(program)
        program.machine.attach_observer(profiler)
        program.run()
        pages = profiler.hot_pages()
        assert pages and all(
            row["fetches"] + row["accesses"] > 0 for row in pages)


class TestExporters:
    def _trace(self):
        trace = EventTrace()
        observed(CALLS, trace)
        return trace

    def test_chrome_trace_is_valid_and_balanced(self):
        trace = self._trace()
        buffer = io.StringIO()
        document = export_chrome_trace(trace, buffer)
        parsed = json.loads(buffer.getvalue())
        assert parsed == document
        events = parsed["traceEvents"]
        # _start->main never returns (main exits via sys 3), so one B
        # slice stays open; the two helper slices balance.
        phases = [e["ph"] for e in events if e["ph"] in "BE"]
        assert phases == ["B", "B", "E", "B", "E"]
        assert all({"pid", "tid", "ts"} <= set(e) for e in events)
        assert parsed["otherData"]["dropped_events"] == 0

    def test_chrome_trace_symbolizes_call_slices(self):
        program = asm_program(CALLS)
        trace = EventTrace()
        program.machine.attach_observer(trace)
        program.run()
        symbols = {addr: name for addr, name
                   in program.image.function_symbols()}
        from repro.observe import chrome_trace_events

        events = chrome_trace_events(trace.events, symbols)
        names = [e["name"] for e in events if e["ph"] == "B"]
        assert names == ["main", "helper", "helper"]

    def test_jsonl_round_trips(self):
        trace = self._trace()
        buffer = io.StringIO()
        count = export_jsonl(trace, buffer)
        lines = buffer.getvalue().splitlines()
        assert len(lines) == count == len(trace.events)
        parsed = [json.loads(line) for line in lines]
        assert parsed[0]["seq"] == 0
        assert {"kind", "seq", "ip"} <= set(parsed[0])

    def test_export_to_file_path(self, tmp_path):
        trace = self._trace()
        destination = tmp_path / "trace.json"
        export_chrome_trace(trace, str(destination))
        assert json.loads(destination.read_text())["traceEvents"]


class TestProvenance:
    def test_fig1_provenance_names_clobbering_instruction(self):
        from repro.attacks.study import locate_overflow
        from repro.experiments.fig1 import attack_provenance
        from repro.programs import build_fig1

        report = attack_provenance()
        assert report.clobber_ip is not None
        assert report.clobber_value == 0x41414141
        assert "get_request" in report.clobber_symbol
        # The clobber site matches what the attacker's study predicts.
        site = locate_overflow(build_fig1(), frames_up=1)
        assert report.return_addr_slot == site.return_addr_slot
        rendered = report.render()
        assert "overwrote the return address" in rendered
        assert f"0x{report.clobber_ip:08x}" in rendered

    def test_writes_to_query_overlap_semantics(self):
        trace = EventTrace()
        observed(CALLS, trace)
        all_writes = [e for e in trace.events if e.kind == "write"]
        addr = all_writes[0].data["addr"]
        hits = trace.writes_to(addr, 1)
        assert all_writes[0] in hits
