"""Software Fault Isolation: sandboxing untrusted machine code by
rewriting (Section IV-A, Wahbe et al. [19] / NaCl [20]).

The paper lists SFI as the second isolation mechanism: "by
combinations of code analysis and code rewriting, the newly loaded
module can be enforced not to do any harm" -- with the critical
assumption that the *host* can inspect/rewrite the module before
loading it, and the fundamental limitation that protection is
**asymmetric**: the host is protected from the module, never the other
way around.  Both properties are implemented and measured here.

The rewriter takes a relocatable object file (the untrusted module as
shipped) and produces a sandboxed object:

* every ``load``/``store``/``loadb``/``storeb`` is preceded by a guard
  that computes the effective address, masks it to the low 20 bits,
  and rebases it into the module's 1 MiB data sandbox;
* every instruction that sets SP (any whose decoded-IR ``writes``
  include SP, ``lea sp``/``load sp`` as much as ``mov sp``) is followed
  by the same mask-and-rebase, so the stack can never leave the
  sandbox (the implicit 4-byte steps of push/pop/call/ret are then
  safe without per-op guards);
* indirect jumps/calls are masked into the module's code region;
* ``ret`` is rewritten to pop the return target and either (a) take
  the dedicated trusted exit stub address verbatim, or (b) mask it
  into the code region -- so control can only leave through the host's
  springboard;
* ``sys`` is replaced with ``halt``: sandboxed code gets no direct
  platform access.

Every rule reads the decoded IR (:mod:`repro.machine.ir`): its
memory-effects table ``MEMORY``, control kinds and register def sets,
never mnemonics.
The guards use r6/r7 as dedicated scratch registers (a register
reservation, as real SFI ABIs make).  Because the assembler emits
relocations for *every* label reference, the rewriter can expand
instructions freely: it remaps symbol offsets and relocation sites and
lets the linker repatch everything.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.errors import DecodeError, LinkError
from repro.isa import build
from repro.isa.encoding import decode, encode
from repro.isa.instructions import Instruction, Mem
from repro.isa.opcodes import OperandFormat
from repro.isa.registers import R6, R7, SP
from repro.link.objfile import ObjectFile, Relocation, Symbol, TEXT
from repro.machine.ir import MEMORY, ControlKind, IRInst, lift

#: Sandbox size: low bits preserved by the mask.
SANDBOX_MASK = 0xFFFFF  # 1 MiB

#: Linker-provided bases (resolved per SFI object, like __module_start).
DATA_BASE_SYMBOL = "__sfi_sandbox"
TEXT_BASE_SYMBOL = "__sfi_text"
EXIT_SYMBOL = "__sfi_exit"

#: Transfers whose only SP write is the implicit 4-byte step.
_STACK_STEP_KINDS = (ControlKind.CALL, ControlKind.CALL_REG, ControlKind.RET)


def _sets_sp(irx: IRInst) -> bool:
    """Does ``irx`` point SP somewhere new?

    The IR counts the implicit 4-byte step of push/pop/call/ret as an
    SP write; that step stays unguarded.  A memory instruction sets SP
    only by loading into it (``load sp``, ``pop sp``).
    """
    if SP not in irx.writes:
        return False
    access = MEMORY.get(irx.opcode)
    if access is not None:
        return not access.write and irx.operands[0] == SP
    return irx.kind not in _STACK_STEP_KINDS


@dataclass
class _Emitted:
    """One output instruction, plus an optional relocation for its
    imm32 and an optional label bound to its start."""

    instruction: Instruction
    reloc_symbol: str | None = None
    reloc_addend: int = 0
    #: imm32 byte offset within the encoding (2 for reg-imm, 1 for imm).
    reloc_imm_offset: int = 2


def _mask_into(base_symbol: str) -> list[_Emitted]:
    """Mask r6 to the sandbox and rebase: r6 = base | (r6 & MASK)."""
    return [
        _Emitted(build.mov_ri(R7, SANDBOX_MASK)),
        _Emitted(build.and_rr(R6, R7)),
        _Emitted(build.mov_ri(R7, 0), reloc_symbol=base_symbol),
        _Emitted(build.or_rr(R6, R7)),
    ]


class SFIRewriter:
    """Rewrites one untrusted object file into its sandboxed form."""

    def __init__(self, obj: ObjectFile):
        self.source = obj
        self._label_counter = 0

    def rewrite(self) -> ObjectFile:
        data = bytes(self.source.text.data)
        relocs_by_offset: dict[int, Relocation] = {}
        for reloc in self.source.text.relocations:
            relocs_by_offset[reloc.offset] = reloc

        out = ObjectFile(self.source.name)
        out.sfi = True
        out.protected = False
        out.kernel = False
        # Data section passes through untouched (it lives inside the
        # sandbox; only code needs confinement).
        out.data.data = bytearray(self.source.data.data)
        out.data.relocations = list(self.source.data.relocations)

        offset_map: dict[int, int] = {}
        emitted: list[_Emitted] = []
        extra_symbols: list[tuple[str, int]] = []  # (name, emitted-index)

        offset = 0
        while offset < len(data):
            try:
                insn, length = decode(data, offset)
            except DecodeError as exc:
                raise LinkError(
                    f"SFI rewriter: undecodable byte at offset {offset} in "
                    f"{self.source.name}: {exc}"
                ) from exc
            offset_map[offset] = len(emitted)
            original_reloc = None
            for position in range(offset, offset + length):
                if position in relocs_by_offset:
                    original_reloc = relocs_by_offset[position]
            emitted.extend(
                self._rewrite_one(insn, original_reloc, extra_symbols,
                                  len(emitted))
            )
            offset += length
        offset_map[len(data)] = len(emitted)

        # Serialise, assigning byte offsets.
        byte_offsets: list[int] = []
        blob = bytearray()
        for item in emitted:
            byte_offsets.append(len(blob))
            blob += encode(item.instruction)
        byte_offsets.append(len(blob))
        out.text.data = blob

        for index, item in enumerate(emitted):
            if item.reloc_symbol is not None:
                out.text.relocations.append(Relocation(
                    byte_offsets[index] + item.reloc_imm_offset,
                    item.reloc_symbol, item.reloc_addend,
                ))

        # Remap the source's symbols onto the new layout.
        for symbol in self.source.symbols.values():
            if symbol.section == TEXT:
                new_index = offset_map[symbol.offset]
                new_offset = byte_offsets[new_index]
            else:
                new_offset = symbol.offset
            out.symbols[symbol.name] = Symbol(
                symbol.name, symbol.section, new_offset, symbol.kind,
                symbol.is_global,
            )
        for name, index in extra_symbols:
            out.symbols[name] = Symbol(name, TEXT, byte_offsets[index], "label")
        return out

    # -- per-instruction rules ------------------------------------------------

    def _fresh_label(self) -> str:
        self._label_counter += 1
        return f".Lsfi_{self._label_counter}"

    def _rewrite_one(
        self,
        insn: Instruction,
        original_reloc: Relocation | None,
        extra_symbols: list,
        emitted_base: int,
    ) -> list[_Emitted]:
        irx = lift(insn, 0)

        if irx.kind is ControlKind.SYS:
            # No direct platform access from the sandbox.
            return [_Emitted(build.halt())]

        if irx.kind in (ControlKind.JUMP_REG, ControlKind.CALL_REG):
            (reg,) = insn.operands
            out = [_Emitted(build.mov_rr(R6, reg))]
            out += _mask_into(TEXT_BASE_SYMBOL)
            out.append(_Emitted(Instruction(insn.opcode, (R6,))))
            return out

        if irx.kind is ControlKind.RET:
            # pop target; allow the exact trusted exit; else mask into
            # the sandbox's own code.
            skip = self._fresh_label()
            out = [
                _Emitted(build.pop(R6)),
                _Emitted(build.mov_ri(R7, 0), reloc_symbol=EXIT_SYMBOL),
                _Emitted(build.cmp_rr(R6, R7)),
                _Emitted(build.jz(0), reloc_symbol=skip, reloc_imm_offset=1),
                *_mask_into(TEXT_BASE_SYMBOL),
            ]
            skip_index = emitted_base + len(out)
            extra_symbols.append((skip, skip_index))
            out.append(_Emitted(build.jmp_reg(R6)))
            return out

        access = MEMORY.get(irx.opcode)
        if access is not None and not access.sp_step:
            reg, mem = insn.operands
            result = [
                _Emitted(build.mov_rr(R6, mem.base)),
                _Emitted(build.add_ri(R6, mem.disp)),
                *_mask_into(DATA_BASE_SYMBOL),
                _Emitted(Instruction(insn.opcode, (reg, Mem(R6, 0)))),
            ]
        else:
            item = _Emitted(insn)
            if original_reloc is not None:
                item.reloc_symbol = original_reloc.symbol
                item.reloc_addend = original_reloc.addend
                # imm32 position within this encoding:
                item.reloc_imm_offset = 1 if insn.fmt is OperandFormat.IMM32 else 2
            result = [item]
        # Any instruction that sets SP gets a confinement suffix.
        if _sets_sp(irx):
            result += [
                _Emitted(build.mov_rr(R6, SP)),
                *_mask_into(DATA_BASE_SYMBOL),
                _Emitted(build.mov_rr(SP, R6)),
            ]
        return result


def sfi_rewrite(obj: ObjectFile) -> ObjectFile:
    """Sandbox an untrusted object file (see module docstring)."""
    return SFIRewriter(obj).rewrite()
