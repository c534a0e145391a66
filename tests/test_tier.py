"""The dispatch tier: one setting, ``MachineConfig.tier``.

``REPRO_TIER`` is its only process-wide override, and an explicit
constructor value or an assignment before ``run`` beats it.  Unknown
values raise wherever they come from, and campaign and matrix workers
run the parent's resolved tier.
"""

from __future__ import annotations

import pytest

from repro.campaign import CampaignRunner
from repro.campaign import runner as runner_module
from repro.isa import R0, R1, build, encode_many
from repro.machine import Machine, MachineConfig
from repro.machine.machine import TIERS
from repro.machine.memory import PERM_RW, PERM_RWX

CODE = 0x1000

#: 50 passes round a loop, past the trace tier's hotness threshold.
HOT_LOOP = encode_many([
    build.mov_ri(R0, 0),                # 0x1000
    build.mov_ri(R1, 0),                # 0x1006
    build.add_ri(R0, 3),                # 0x100C  <- loop head
    build.add_ri(R1, 1),                # 0x1012
    build.cmp_ri(R1, 50),               # 0x1018
    build.jnz(0x100C),                  # 0x101E
    build.sys(3),                       # 0x1023
])

UNKNOWN = ["interpreter", "blocks", "0", ""]


def hot_machine(config: MachineConfig | None = None) -> Machine:
    """A machine holding :data:`HOT_LOOP`; module-level so it pickles
    as a campaign factory."""
    machine = Machine(config)
    machine.memory.map_region(CODE, 0x1000, PERM_RWX)
    machine.memory.map_region(0x00200000, 0x10000, PERM_RW)
    machine.memory.write_bytes(CODE, HOT_LOOP)
    machine.cpu.ip = CODE
    machine.cpu.sp = 0x0020F000
    return machine


def dispatch_of(machine: Machine) -> tuple:
    """What a run left behind: (tier, decoded, blocks, traces)."""
    return (machine.config.tier, bool(machine._decode_cache),
            machine.block_cache_stats()["blocks"] > 0,
            machine.trace_cache_stats()["traces"] > 0)


#: ``dispatch_of`` after one HOT_LOOP run on each tier.
EXPECTED = {
    "uncached": ("uncached", False, False, False),
    "interp": ("interp", True, False, False),
    "block": ("block", False, True, False),
    "trace": ("trace", True, True, True),   # the recorder steps
}


def run_hot(machine: Machine) -> tuple:
    assert machine.run().exit_code == 150
    return dispatch_of(machine)


def tier_trial(machine: Machine, index: int) -> tuple:
    """Campaign trial reporting the tier the worker's machine ran."""
    return run_hot(machine)


def tier_probe(preset, seed: int) -> tuple:
    """Matrix "attack" reporting the tier its cell's machine ran."""
    return run_hot(hot_machine())


class TestSelection:
    @pytest.mark.parametrize("tier", TIERS)
    def test_env_selects_tier(self, monkeypatch, tier):
        monkeypatch.setenv("REPRO_TIER", tier)
        assert run_hot(hot_machine()) == EXPECTED[tier]

    def test_unset_gives_trace(self, monkeypatch):
        monkeypatch.delenv("REPRO_TIER", raising=False)
        assert run_hot(hot_machine()) == EXPECTED["trace"]

    def test_constructor_beats_env(self, monkeypatch):
        monkeypatch.setenv("REPRO_TIER", "interp")
        machine = hot_machine(MachineConfig(tier="block"))
        assert run_hot(machine) == EXPECTED["block"]

    def test_assignment_before_run_beats_env(self, monkeypatch):
        monkeypatch.setenv("REPRO_TIER", "trace")
        machine = hot_machine()
        machine.config.tier = "interp"
        assert run_hot(machine) == EXPECTED["interp"]


class TestUnknownTier:
    @pytest.mark.parametrize("value", UNKNOWN)
    def test_env_value_raises(self, monkeypatch, value):
        monkeypatch.setenv("REPRO_TIER", value)
        with pytest.raises(ValueError, match="uncached, interp, block, trace"):
            MachineConfig()

    @pytest.mark.parametrize("value", UNKNOWN)
    def test_constructor_value_raises(self, monkeypatch, value):
        monkeypatch.delenv("REPRO_TIER", raising=False)
        with pytest.raises(ValueError, match="uncached, interp, block, trace"):
            MachineConfig(tier=value)


class TestWorkers:
    def test_worker_init_applies_given_tier(self, monkeypatch):
        monkeypatch.setenv("REPRO_TIER", "trace")
        monkeypatch.setattr(runner_module, "_WORKER_SESSION", None)
        runner_module._worker_init(hot_machine, tier_trial, "interp")
        session = runner_module._WORKER_SESSION
        assert session.run_batch([0]) == [EXPECTED["interp"]]

    def test_campaign_workers_run_parent_tier(self, monkeypatch):
        monkeypatch.setenv("REPRO_TIER", "interp")
        result = CampaignRunner(hot_machine, trial=tier_trial,
                                jobs=2).run(4)
        assert result.workers == 2
        assert result.verdicts == [EXPECTED["interp"]] * 4

    def test_matrix_workers_run_parent_tier(self, monkeypatch):
        from repro.experiments import matrix
        from repro.mitigations.config import MATRIX_PRESETS

        monkeypatch.setenv("REPRO_TIER", "interp")
        monkeypatch.setattr(matrix, "UNIQUE_ATTACKS",
                            ((tier_probe, "tier probe"),))
        cells = matrix.run_matrix(presets=MATRIX_PRESETS[:2], jobs=2)
        assert [cell.result for cell in cells] == [EXPECTED["interp"]] * 2
