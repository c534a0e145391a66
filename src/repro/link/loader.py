"""The loader: places a linked image into a fresh machine.

This is where the load-time countermeasures of Section III-C1 become
real:

* **DEP** -- segments are mapped with W^X permissions; with DEP off,
  everything is RWX (the historical default that direct code injection
  needs);
* **ASLR** -- the text, data and stack segments are shifted by random
  page counts drawn from ``2**aslr_bits`` possibilities each (stack
  shifts downward so it cannot collide with the kernel area);
* **stack canary** -- a random word is written to the platform page's
  canary cell, from which compiled prologues copy it;
* **shadow stack / CFI** -- machine enforcement is switched on and the
  CFI valid-target set is filled with the image's function entries.

Protected modules are registered with the machine's PMA controller,
which measures their code and derives their keys (Section IV).
"""

from __future__ import annotations

from dataclasses import dataclass
import random

from repro.errors import LoaderError
from repro.link.image import Image
from repro.link.linker import LayoutPlan, link
from repro.link.objfile import ObjectFile
from repro.machine.machine import Machine, MachineConfig, RunResult
from repro.machine.memory import PAGE_SIZE, PERM_RWX
from repro.mitigations.config import MitigationConfig, NONE
from repro.pma.module import PMAController, ProtectedModule

#: Maximum supported ASLR entropy (shifts stay within segment gaps).
MAX_ASLR_BITS = 16


@dataclass
class LoadedProgram:
    """A machine with a program loaded and ready to run."""

    machine: Machine
    image: Image
    config: MitigationConfig

    def feed(self, data: bytes) -> "LoadedProgram":
        """Feed attacker/user input; returns self for chaining."""
        self.machine.input.feed(data)
        return self

    def run(self, max_instructions: int = 2_000_000) -> RunResult:
        return self.machine.run(max_instructions)

    def symbol(self, name: str) -> int:
        return self.image.symbol(name)


def _aslr_shifts(config: MitigationConfig, rng: random.Random) -> tuple[int, int, int]:
    if not config.aslr_bits:
        return 0, 0, 0
    bits = config.aslr_bits
    if bits > MAX_ASLR_BITS:
        raise LoaderError(f"aslr_bits {bits} exceeds supported maximum {MAX_ASLR_BITS}")
    space = 1 << bits
    text = rng.randrange(space) * PAGE_SIZE
    data = rng.randrange(space) * PAGE_SIZE
    stack = -rng.randrange(space) * PAGE_SIZE
    return text, data, stack


def load(
    objects: list[ObjectFile],
    config: MitigationConfig = NONE,
    *,
    seed: int = 0,
    pma: PMAController | None = None,
    plan: LayoutPlan | None = None,
    add_crt0: bool = True,
) -> LoadedProgram:
    """Link ``objects`` and load them into a fresh machine.

    ``seed`` drives every random choice (ASLR shifts, canary value,
    the machine's ``sys rand``), making attack experiments exactly
    reproducible; the ASLR sweep varies it.

    ``pma`` may be a pre-existing controller so that module state
    (monotonic counters, platform key) survives "reboots" across
    several ``load`` calls -- the substrate of the rollback
    experiments.
    """
    rng = random.Random(seed)
    text_shift, data_shift, stack_shift = _aslr_shifts(config, rng)
    plan = plan or LayoutPlan()
    plan.text_shift = text_shift
    plan.data_shift = data_shift
    plan.stack_shift = stack_shift

    image = link(objects, plan, add_crt0=add_crt0)

    machine_config = MachineConfig(
        shadow_stack=config.shadow_stack,
        cfi=config.cfi or config.cfi_typed,
        cfi_mode="typed" if config.cfi_typed else "coarse",
        redzones=config.asan,
        rng_seed=rng.getrandbits(32),
    )
    machine = Machine(machine_config, pma)

    for segment in image.segments:
        is_module = segment.name.startswith(("module:", "kernel:", "sfi:"))
        perms = segment.perms if (config.dep or is_module) else PERM_RWX
        machine.memory.map_region(segment.addr, max(len(segment.data), 1), perms)
        machine.memory.write_bytes(segment.addr, segment.data)

    for spec in image.protected_modules:
        module = ProtectedModule(
            name=spec.name,
            text_start=spec.text_start,
            text_end=spec.text_end,
            data_start=spec.data_start,
            data_end=spec.data_end,
            entry_points=frozenset(spec.entry_points.values()),
        )
        machine.pma.register(module, spec.text_bytes)

    for start, end in image.kernel_ranges:
        machine.add_kernel_region(start, end)

    machine.indirect_targets = set(image.function_addresses)

    canary_value = rng.getrandbits(32) if config.stack_canaries else 0
    machine.memory.write_word(image.canary_cell, canary_value)

    machine.cpu.ip = image.entry
    machine.cpu.sp = image.initial_sp
    program = LoadedProgram(machine, image, config)
    # Hand link-time metadata (symbol tables, frame layouts, the canary
    # cell) to any observers already attached -- e.g. via
    # ``observe_new_machines`` factories, which run at Machine
    # construction, before any of the above exists.
    hub = machine._observers
    if hub is not None:
        for observer in hub.observers:
            observer.bind_program(program)
    return program
