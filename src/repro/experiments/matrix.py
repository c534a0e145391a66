"""E4 -- the attack x countermeasure matrix (Sections III-B/III-C1).

Runs every I/O-attack technique against every mitigation preset and
tabulates the outcome.  The paper's qualitative claims, made
quantitative:

* each widely deployed countermeasure blocks the attack class it was
  designed for (canaries -> return-address smashes, DEP -> injected
  code, ASLR -> address-dependent payloads);
* code-reuse attacks (return-to-libc, ROP) survive DEP;
* data-only attacks and information leaks survive *all* of the
  deployed countermeasures;
* an information leak lets a clever combination bypass
  canary+DEP+ASLR together [5];
* the stronger (less deployed) shadow-stack/CFI pair catches most of
  what remains -- but still not data-only attacks or pure leaks.
"""

from __future__ import annotations

import os
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass

from repro.attacks import io_attacks
from repro.attacks.base import AttackResult
from repro.experiments.reporting import render_table
from repro.mitigations.config import MATRIX_PRESETS, MitigationConfig

#: The attack battery, in the order the paper introduces the techniques.
ATTACKS = (
    ("stack smash + code injection", io_attacks.attack_stack_smash_injection),
    ("code-pointer overwrite (ret addr)", io_attacks.attack_stack_smash_injection),
    ("code-pointer overwrite (func ptr->libc)", io_attacks.attack_funcptr_to_libc),
    ("code-pointer overwrite (func ptr->inject)", io_attacks.attack_funcptr_to_injected),
    ("code corruption (arbitrary write)", io_attacks.attack_code_corruption),
    ("code reuse: return-to-libc", io_attacks.attack_ret2libc),
    ("code reuse: ROP (shell)", io_attacks.attack_rop_shell),
    ("code reuse: ROP (exfiltrate)", io_attacks.attack_rop_exfiltrate),
    ("code reuse: ROP (pivot trampoline)", io_attacks.attack_rop_pivot),
    ("data-only (is_admin)", io_attacks.attack_data_only),
    ("info leak (heartbleed)", io_attacks.attack_heartbleed),
    ("leak-then-smash [5]", io_attacks.attack_leak_then_smash),
)

#: Unique battery (the duplicate row above illustrates that the return
#: address is itself a code pointer; run each function once, keeping
#: the first name it appears under).
_unique: dict = {}
for _name, _fn in ATTACKS:
    _unique.setdefault(_fn, _name)
UNIQUE_ATTACKS = tuple(_unique.items())

_SYMBOLS = {
    "success": "EXPLOITED",
    "detected": "detected",
    "crashed": "crashed",
    "no_effect": "no effect",
}


@dataclass
class MatrixCell:
    attack: str
    preset: str
    result: AttackResult
    #: ``invariant@ip`` label of the first security invariant the cell's
    #: victim broke (None when invariant monitoring was off or nothing
    #: was breached).
    first_breach: str | None = None


def _run_cell(task: tuple) -> MatrixCell:
    """Run one (attack, preset) cell.  Module-level so it pickles.

    The parent's resolved dispatch tier rides along in the task and
    becomes the process's ``REPRO_TIER``, so worker processes run the
    parent's tier under every start method (the differential suites
    pin a tier and expect whole pipelines -- parallel or not -- to
    honour it; see :func:`repro.campaign.runner._worker_init`).
    """
    (attack_fn, attack_name, preset_name, preset, seed, tier,
     invariants) = task
    os.environ["REPRO_TIER"] = tier
    if not invariants:
        return MatrixCell(attack_name, preset_name,
                          attack_fn(preset, seed=seed))

    from repro.observe import InvariantMonitor, observe_new_machines

    monitors: list[InvariantMonitor] = []

    def factory(machine) -> InvariantMonitor:
        monitor = InvariantMonitor()
        monitors.append(monitor)
        return monitor

    with observe_new_machines(factory):
        result = attack_fn(preset, seed=seed)
    # Multi-stage attacks (leak-then-smash) build several machines;
    # the victim is the last one whose timeline is non-empty.
    first = None
    for monitor in reversed(monitors):
        if monitor.first_breach is not None:
            first = monitor.first_breach
            break
    return MatrixCell(attack_name, preset_name, result,
                      first_breach=first.label() if first else None)


def run_matrix(
    presets: tuple[tuple[str, MitigationConfig], ...] = MATRIX_PRESETS,
    seed: int = 7,
    jobs: int | None = None,
    invariants: bool = False,
) -> list[MatrixCell]:
    """Run the full battery; one cell per (attack, preset).

    Each cell is an independent machine, so with ``jobs`` > 1 the
    cells fan out over a :class:`ProcessPoolExecutor`.  ``jobs=None``
    or ``1`` keeps the sequential in-process path (deterministic
    debugging, and required when ``observe_new_machines`` factories
    are active -- observers cannot cross process boundaries, so the
    pool is skipped for them regardless of ``jobs``).  Cell order and
    content are identical either way: every cell is seeded
    explicitly, so the table does not depend on scheduling.

    ``invariants`` attaches a fresh
    :class:`~repro.observe.invariants.InvariantMonitor` to every
    machine each cell builds and records the victim's first breach in
    :attr:`MatrixCell.first_breach` -- the per-cell scope is local to
    the worker, so the pool still applies.
    """
    import repro.machine.machine as machine_module

    tier = machine_module.default_tier()
    tasks = [
        (attack_fn, attack_name, preset_name, preset, seed, tier, invariants)
        for attack_fn, attack_name in UNIQUE_ATTACKS
        for preset_name, preset in presets
    ]
    sequential = (
        jobs is None or jobs <= 1
        or machine_module._DEFAULT_OBSERVER_FACTORIES
    )
    if sequential:
        return [_run_cell(task) for task in tasks]
    workers = min(jobs, len(tasks))
    with ProcessPoolExecutor(max_workers=workers) as pool:
        return list(pool.map(_run_cell, tasks))


def render_matrix(cells: list[MatrixCell],
                  invariants: bool = False) -> str:
    presets = list(dict.fromkeys(cell.preset for cell in cells))
    attacks = list(dict.fromkeys(cell.attack for cell in cells))
    by_key = {(cell.attack, cell.preset): cell for cell in cells}
    rows = []
    for attack in attacks:
        row = [attack]
        for preset in presets:
            cell = by_key[(attack, preset)]
            row.append(_SYMBOLS[cell.result.outcome.value])
        rows.append(row)
    out = render_table(["attack \\ mitigations"] + presets, rows,
                       title="E4: attack outcome by deployment posture")
    if invariants or any(cell.first_breach for cell in cells):
        breach_rows = []
        for attack in attacks:
            row = [attack]
            for preset in presets:
                cell = by_key[(attack, preset)]
                row.append(cell.first_breach or "-")
            breach_rows.append(row)
        out += "\n\n" + render_table(
            ["attack \\ mitigations"] + presets, breach_rows,
            title="E4: first invariant broken (breach attribution)")
    return out


def matrix_summary(cells: list[MatrixCell]) -> dict:
    """Aggregates used by the benchmark assertions."""
    available = {cell.preset for cell in cells}

    def exploited(attack_substr: str, preset: str) -> bool:
        for cell in cells:
            if attack_substr in cell.attack and cell.preset == preset:
                return cell.result.succeeded
        raise KeyError((attack_substr, preset))

    def survives_all(attack_substr: str, presets: tuple[str, ...]) -> bool:
        return all(
            exploited(attack_substr, preset)
            for preset in presets
            if preset in available
        )

    return {
        "injection_blocked_by_dep": not exploited("code injection", "dep"),
        "injection_blocked_by_canary": not exploited("code injection", "canary"),
        "ret2libc_survives_dep": exploited("return-to-libc", "dep"),
        "rop_survives_dep": exploited("ROP (shell)", "dep"),
        "data_only_survives_everything": survives_all(
            "data-only",
            ("none", "canary", "dep", "aslr", "canary+dep", "deployed",
             "hardened"),
        ),
        "leak_survives_everything_deployed": survives_all(
            "heartbleed", ("none", "canary", "dep", "aslr", "deployed"),
        ),
        "leak_then_smash_beats_deployed": exploited("leak-then-smash", "deployed"),
    }
