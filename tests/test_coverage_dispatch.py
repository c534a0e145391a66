"""Dispatch-transparency differential suite for the coverage probe.

PR 7 taught the superblock translator to bake observer event emission
into compiled blocks when every attached observer is
*dispatch-transparent*; this suite pins down that the
:class:`CoverageObserver` rides that path (observed fuzzing runs at
block speed) **without changing anything observable**: run results are
byte-identical and the coverage bitmap, edge list and crash signature
are identical across

* per-instruction stepping (a non-transparent observer subclass),
* the plain interpreter leg (``tier="interp"``),
* transparent superblock dispatch (the new default), and
* transparent dispatch with the trace JIT enabled (traces stand down
  under a hub; blocks still serve hot code).

The ASan legs run victims whose red-zone hits come from scalar stores
in compiled code, coverage-only (what plain greybox fuzzing runs) and
in the service's default campaign shape (coverage plus the
:class:`InvariantMonitor`), with and without a read/write event
recorder: crash sites with ``first_breach``, breach timelines, and the
recorded event stream must match too.
"""

from __future__ import annotations

import struct

import pytest

from repro.analysis.greybox import SnapshotExecutor, VictimFactory, outcome_of
from repro.mitigations.config import TESTING
from repro.observe.coverage import CoverageObserver
from repro.observe.events import Observer
from tests.test_differential_cache import summarize
from tests.test_invariants_differential import timeline_key

GET_SMASH = b"GET " + b"A" * 32
INPUTS = [b"", b"GET", b"GET \x01\x02", GET_SMASH, b"B" * 64]
BODY = bytes(range(64))

#: Probe inputs per victim.  ``arbitrary_write`` reads a write count,
#: then (index, value) pairs; ``arr[4]`` and ``arr[-1]`` land in the
#: red zones around ``int arr[4]`` through a scalar store in compiled
#: code.  ``fig1_parsing`` overflows in ``handle_request`` after its
#: checksum loop.
VICTIM_INPUTS = {
    "fig1_staged": INPUTS,
    "arbitrary_write": [
        b"",
        struct.pack("<3i", 1, 2, 7),
        struct.pack("<3i", 1, 4, 0x41414141),
        struct.pack("<3i", 1, -1, 0x41414141),
        struct.pack("<5i", 2, 1, 5, 4, 9),
    ],
    "fig1_parsing": [
        b"",
        b"GE",
        b"POST" + BODY,
        b"GET " + BODY + b"A" * 8,
        b"GET " + BODY + b"A" * 40,
    ],
}


class SteppedCoverageObserver(CoverageObserver):
    """The pre-transparency observer: same hooks, same bitmap, but the
    machine must demote to per-instruction dispatch for it."""

    dispatch_transparent = False


class MemoryEventRecorder(Observer):
    """Every read/write event with the IP the machine reports at that
    moment; dispatch-transparent, so it rides whatever leg runs."""

    dispatch_transparent = True

    def __init__(self) -> None:
        self.events: list[tuple] = []

    def on_read(self, machine, addr, size, value) -> None:
        self.events.append(("read", addr, size, value, machine.current_ip))

    def on_write(self, machine, addr, size, value) -> None:
        self.events.append(("write", addr, size, value, machine.current_ip))


def executor_with(observer, victim: str = "fig1_staged",
                  invariants: bool = False, *, tier: str = "block"):
    executor = SnapshotExecutor(VictimFactory(victim, TESTING),
                                observer=observer, invariants=invariants)
    executor.machine.config.tier = tier
    return executor


def digest_inputs(executor, inputs: list[bytes],
                  recorder: MemoryEventRecorder | None = None) -> list[tuple]:
    """Run each input; return everything observable about each run,
    including ``recorder``'s events if one is attached."""
    observer = executor.observer
    digest = []
    for data in inputs:
        if recorder is not None:
            recorder.events.clear()
        result = executor.run(data)
        digest.append((
            summarize(result),
            observer.snapshot_counts(),
            observer.edge_items(),
            outcome_of(observer, result, executor.monitor).crash_site,
            timeline_key(executor.monitor),
            () if recorder is None else tuple(recorder.events),
        ))
    return digest


def leg(observer_cls, victim: str = "fig1_staged", invariants: bool = False,
        record: bool = False, tier: str = "block"):
    """Run every probe input of ``victim`` down one dispatch leg, with
    or without the invariant monitor and a :class:`MemoryEventRecorder`
    (either one subscribes to memory events, which switches the machine
    to the observed accessors and event-emitting blocks); return
    everything observable about it."""
    executor = executor_with(observer_cls(), victim, invariants, tier=tier)
    recorder = None
    if record:
        recorder = MemoryEventRecorder()
        executor.machine.attach_observer(recorder)
    return executor, digest_inputs(executor, VICTIM_INPUTS[victim], recorder)


class TestTransparency:
    def test_coverage_observer_opts_in(self):
        assert CoverageObserver.dispatch_transparent is True

    def test_transparent_hub_keeps_block_dispatch(self):
        executor, _ = leg(CoverageObserver)
        machine = executor.machine
        assert machine._blocks_hub is machine._observers is not None
        assert machine.block_cache_stats()["blocks"] > 0

    def test_stepped_observer_demotes_dispatch(self):
        executor, _ = leg(SteppedCoverageObserver)
        machine = executor.machine
        assert machine._blocks_hub is None
        assert machine.block_cache_stats()["blocks"] == 0

    def test_traces_stand_down_under_hub(self):
        executor, _ = leg(CoverageObserver, tier="trace")
        assert executor.machine.trace_cache_stats()["traces"] == 0


class TestDifferential:
    """Byte- and bitmap-identical across every dispatch leg."""

    @pytest.fixture(scope="class")
    def stepped(self):
        return leg(SteppedCoverageObserver)[1]

    def test_block_leg_matches_stepped(self, stepped):
        assert leg(CoverageObserver)[1] == stepped

    def test_interpreter_leg_matches_stepped(self, stepped):
        assert leg(CoverageObserver, tier="interp")[1] == stepped

    def test_traced_leg_matches_stepped(self, stepped):
        assert leg(CoverageObserver, tier="trace")[1] == stepped

    def test_restores_keep_legs_identical(self, stepped):
        """Interleaved restores (the fuzzing access pattern) must not
        desynchronize the transparent leg from the stepped one."""
        executor = executor_with(CoverageObserver())
        for _ in range(2):
            assert digest_inputs(executor, INPUTS) == stepped


#: Victim x invariant monitor x event recorder, beyond TestDifferential's
#: coverage-only fig1_staged.  Without monitor and recorder no observer
#: wants memory events, so the plain accessors and event-free blocks run
#: -- what plain greybox fuzzing runs.
ASAN_CASES = [
    (victim, invariants, record)
    for victim in VICTIM_INPUTS
    for invariants in (False, True) for record in (False, True)
    if (victim, invariants, record) != ("fig1_staged", False, False)
]

#: The transparent legs' dispatch tiers.
TRANSPARENT_LEGS = ("interp", "block", "trace")


class TestAsanDifferential:
    """``testing`` red zones with coverage and, optionally, the
    invariant monitor and an event recorder: every leg matches
    per-instruction stepping."""

    @pytest.mark.parametrize("victim, invariants, record", ASAN_CASES)
    def test_every_leg_matches_stepped(self, victim, invariants, record):
        stepped = leg(SteppedCoverageObserver, victim, invariants, record)[1]
        for tier in TRANSPARENT_LEGS:
            assert leg(CoverageObserver, victim, invariants, record,
                       tier=tier)[1] == stepped, tier

    @pytest.mark.parametrize("invariants", [False, True])
    def test_scalar_stores_hit_red_zones(self, invariants):
        # The cases above must really exercise compiled red-zone
        # checks: arr[4] and arr[-1] fault in main's store, and the
        # monitor names the red zone as the first breach.
        _, digest = leg(CoverageObserver, "arbitrary_write", invariants)
        sites = [entry[3] for entry in digest]
        assert [site and site.fault for site in sites] == [
            None, None, "RedZoneFault", "RedZoneFault", "RedZoneFault"]
        assert len({site.ip for site in sites if site}) == 1
        breach = "red-zone" if invariants else None
        assert {site.first_breach for site in sites if site} == {breach}
