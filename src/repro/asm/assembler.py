"""Two-pass assembler for VN32 assembly.

Syntax (one statement per line; ``;`` starts a comment)::

    .text                     ; switch to the code section
    main:                     ; define a label
        push bp
        mov bp, sp
        sub sp, 0x18
        lea r0, [bp-0x10]     ; memory operands: [reg], [reg+imm], [reg-imm]
        call get_request      ; symbolic targets become relocations
        jmp loop
        sys 3
    .data
    greeting: .asciiz "hello\n"
    buf:      .space 16
    table:    .word main, 0x1234, -1
    flags:    .byte 1, 2, 3
    .align 4
    .global main              ; export a symbol to other modules
    .entry get_secret         ; mark a PMA entry point (implies .protected)
    .protected                ; request protected-module loading
    .kernel                   ; request kernel-privileged loading

Assembling produces a relocatable
:class:`~repro.link.objfile.ObjectFile`; label references are emitted
as 32-bit absolute relocations and resolved by the linker.
"""

from __future__ import annotations

import re

from repro.errors import AssemblerError, EncodingError
from repro.isa import build
from repro.isa.encoding import encode
from repro.isa.instructions import Instruction, Mem
from repro.isa.opcodes import BY_MNEMONIC, OperandFormat
from repro.isa.registers import is_register_name, register_number
from repro.link.objfile import DATA, ObjectFile, Relocation, TEXT

_LABEL_RE = re.compile(r"^([A-Za-z_.$][\w.$]*):")
_IDENT_RE = re.compile(r"^[A-Za-z_.$][\w.$]*$")
_MEM_RE = re.compile(
    r"^\[\s*([A-Za-z][\w]*)\s*(?:([+-])\s*(0x[0-9A-Fa-f]+|\d+)\s*)?\]$"
)

_ESCAPES = {
    "n": "\n",
    "t": "\t",
    "r": "\r",
    "0": "\0",
    "\\": "\\",
    '"': '"',
    "'": "'",
}

#: Ceiling on ``.space`` sizes and ``.align`` boundaries.  The guest
#: address space is 4 GiB but no real module reserves more than a few
#: pages of zeros; an absurd operand is a typo (or a fuzzer) and
#: should be a diagnostic, not an out-of-memory loop.
_MAX_SPACE = 1 << 20


def _parse_string(text: str, line: int) -> bytes:
    """Parse a double-quoted string literal with C-style escapes."""
    if len(text) < 2 or text[0] != '"' or text[-1] != '"':
        raise AssemblerError(f"malformed string literal {text!r}", line)
    body = text[1:-1]
    out = bytearray()
    i = 0
    while i < len(body):
        char = body[i]
        if char == "\\":
            i += 1
            if i >= len(body):
                raise AssemblerError("dangling escape in string", line)
            esc = body[i]
            if esc == "x":
                digits = body[i + 1 : i + 3]
                try:
                    out.append(int(digits, 16))
                except ValueError:
                    raise AssemblerError(
                        f"bad hex escape \\x{digits}", line)
                i += 2
            elif esc in _ESCAPES:
                out += _ESCAPES[esc].encode("latin-1")
            else:
                raise AssemblerError(f"unknown escape \\{esc}", line)
        else:
            if ord(char) > 0xFF:
                raise AssemblerError(
                    f"non-byte character {char!r} in string literal", line)
            out += char.encode("latin-1")
        i += 1
    return bytes(out)


class _Operand:
    """A parsed operand: register, immediate, symbol(+addend), or memory."""

    __slots__ = ("kind", "value", "symbol", "addend", "mem")

    def __init__(self, kind: str, value: int = 0, symbol: str | None = None,
                 addend: int = 0, mem: Mem | None = None):
        self.kind = kind  # 'reg' | 'imm' | 'sym' | 'mem'
        self.value = value
        self.symbol = symbol
        self.addend = addend
        self.mem = mem


def _parse_int(token: str) -> int | None:
    token = token.strip()
    sign = 1
    if token.startswith("-"):
        sign = -1
        token = token[1:].strip()
    try:
        if token.lower().startswith("0x"):
            return sign * int(token, 16)
        if token.startswith("'") and token.endswith("'") and len(token) >= 3:
            body = token[1:-1]
            if body.startswith("\\") and len(body) == 2:
                return sign * ord(_ESCAPES[body[1]])
            if len(body) == 1:
                return sign * ord(body)
            return None
        return sign * int(token, 10)
    except (ValueError, KeyError):
        return None


def _split_operands(text: str, line: int) -> list[str]:
    """Split an operand list on commas, respecting brackets and quotes."""
    parts: list[str] = []
    depth = 0
    in_string = False
    current = ""
    i = 0
    while i < len(text):
        char = text[i]
        if in_string:
            current += char
            if char == "\\":
                if i + 1 >= len(text):
                    raise AssemblerError(
                        f"dangling escape in {text!r}", line)
                current += text[i + 1]
                i += 1
            elif char == '"':
                in_string = False
        elif char == '"':
            in_string = True
            current += char
        elif char == "[":
            depth += 1
            current += char
        elif char == "]":
            depth -= 1
            current += char
        elif char == "," and depth == 0:
            parts.append(current.strip())
            current = ""
        else:
            current += char
        i += 1
    if in_string or depth != 0:
        raise AssemblerError(f"unbalanced brackets or quotes in {text!r}", line)
    if current.strip():
        parts.append(current.strip())
    return parts


def _parse_operand(token: str, line: int) -> _Operand:
    if is_register_name(token):
        return _Operand("reg", value=register_number(token))
    mem_match = _MEM_RE.match(token)
    if mem_match:
        base_token, sign, disp_token = mem_match.groups()
        if not is_register_name(base_token):
            raise AssemblerError(f"bad base register {base_token!r}", line)
        disp = 0
        if disp_token is not None:
            disp = _parse_int(disp_token)
            if sign == "-":
                disp = -disp
        return _Operand("mem", mem=Mem(register_number(base_token), disp))
    value = _parse_int(token)
    if value is not None:
        return _Operand("imm", value=value)
    # symbol or symbol+offset / symbol-offset
    sym_match = re.match(r"^([A-Za-z_.$][\w.$]*)\s*(?:([+-])\s*(0x[0-9A-Fa-f]+|\d+))?$", token)
    if sym_match:
        name, sign, off = sym_match.groups()
        addend = 0
        if off is not None:
            addend = _parse_int(off)
            if sign == "-":
                addend = -addend
        return _Operand("sym", symbol=name, addend=addend)
    raise AssemblerError(f"cannot parse operand {token!r}", line)


#: Where the 32-bit immediate sits inside each encoding (for relocs).
_IMM32_OFFSETS = {
    OperandFormat.REGIMM32: 2,
    OperandFormat.REGMEM: 2,
    OperandFormat.IMM32: 1,
}


class Assembler:
    """Assembles VN32 source text into an :class:`ObjectFile`."""

    def __init__(self, module_name: str = "module"):
        self.module_name = module_name

    def assemble(self, source: str) -> ObjectFile:
        obj = ObjectFile(self.module_name)
        # Materialise both sections so layout is stable.
        obj.section(TEXT)
        obj.section(DATA)
        globals_pending: list[tuple[str, int]] = []
        entries_pending: list[tuple[str, int]] = []
        current = TEXT
        for line_number, raw_line in enumerate(source.splitlines(), start=1):
            line = raw_line.split(";", 1)[0].strip()
            while line:
                label_match = _LABEL_RE.match(line)
                if label_match:
                    name = label_match.group(1)
                    if current == TEXT:
                        # ``.L``-prefixed labels are compiler-internal jump
                        # targets, not functions; they are excluded from the
                        # CFI valid-target set the loader builds.
                        kind = "label" if name.startswith(".L") else "func"
                    else:
                        kind = "object"
                    if name in obj.symbols:
                        raise AssemblerError(f"duplicate label {name!r}", line_number)
                    obj.add_symbol(name, current, obj.section(current).size, kind)
                    line = line[label_match.end():].strip()
                    continue
                break
            if not line:
                continue
            if line.startswith("."):
                current = self._directive(obj, current, line, line_number,
                                          globals_pending, entries_pending)
            else:
                self._instruction(obj, current, line, line_number)
        for name, line_number in globals_pending:
            if name not in obj.symbols:
                raise AssemblerError(f".global of undefined symbol {name!r}", line_number)
            obj.symbols[name].is_global = True
        for name, line_number in entries_pending:
            if name not in obj.symbols:
                raise AssemblerError(f".entry of undefined symbol {name!r}", line_number)
            obj.symbols[name].is_global = True
            obj.entry_points.append(name)
            obj.protected = True
        return obj

    # -- directives ---------------------------------------------------------

    def _directive(
        self,
        obj: ObjectFile,
        current: str,
        line: str,
        line_number: int,
        globals_pending: list,
        entries_pending: list,
    ) -> str:
        parts = line.split(None, 1)
        name = parts[0]
        rest = parts[1].strip() if len(parts) > 1 else ""
        section = obj.section(current)
        if name == ".text":
            return TEXT
        if name == ".data":
            return DATA
        if name == ".global":
            globals_pending.append((rest, line_number))
            return current
        if name == ".entry":
            entries_pending.append((rest, line_number))
            return current
        if name == ".protected":
            obj.protected = True
            return current
        if name == ".kernel":
            obj.kernel = True
            return current
        if name == ".byte":
            for token in _split_operands(rest, line_number):
                value = _parse_int(token)
                if value is None or not -128 <= value <= 255:
                    raise AssemblerError(f"bad byte value {token!r}", line_number)
                section.data.append(value & 0xFF)
            return current
        if name == ".word":
            for token in _split_operands(rest, line_number):
                operand = _parse_operand(token, line_number)
                if operand.kind == "imm":
                    section.data += (operand.value & 0xFFFFFFFF).to_bytes(4, "little")
                elif operand.kind == "sym":
                    section.relocations.append(
                        Relocation(section.size, operand.symbol, operand.addend)
                    )
                    section.data += b"\x00\x00\x00\x00"
                else:
                    raise AssemblerError(f"bad word value {token!r}", line_number)
            return current
        if name in (".ascii", ".asciiz"):
            section.data += _parse_string(rest, line_number)
            if name == ".asciiz":
                section.data.append(0)
            return current
        if name == ".space":
            tokens = _split_operands(rest, line_number)
            if not tokens:
                raise AssemblerError(".space needs a size", line_number)
            size = _parse_int(tokens[0])
            fill = _parse_int(tokens[1]) if len(tokens) > 1 else 0
            if size is None or not 0 <= size <= _MAX_SPACE:
                raise AssemblerError(f"bad .space size {rest!r}", line_number)
            if fill is None:
                raise AssemblerError(f"bad .space fill {rest!r}", line_number)
            section.data += bytes([fill & 0xFF]) * size
            return current
        if name == ".align":
            alignment = _parse_int(rest)
            if not alignment or not 0 < alignment <= _MAX_SPACE:
                raise AssemblerError(f"bad alignment {rest!r}", line_number)
            while section.size % alignment:
                section.data.append(0)
            return current
        raise AssemblerError(f"unknown directive {name}", line_number)

    # -- instructions ---------------------------------------------------------

    def _instruction(self, obj: ObjectFile, current: str, line: str, line_number: int) -> None:
        if current != TEXT:
            raise AssemblerError("instructions must be in .text", line_number)
        parts = line.split(None, 1)
        mnemonic = parts[0].lower()
        if mnemonic not in BY_MNEMONIC:
            raise AssemblerError(f"unknown mnemonic {mnemonic!r}", line_number)
        operand_text = parts[1] if len(parts) > 1 else ""
        operands = [
            _parse_operand(token, line_number)
            for token in _split_operands(operand_text, line_number)
        ]
        insn, reloc_symbol, reloc_addend = self._build(mnemonic, operands, line_number)
        section = obj.section(TEXT)
        offset = section.size
        try:
            encoded = encode(insn)
        except EncodingError as exc:
            raise AssemblerError(str(exc), line_number) from exc
        if reloc_symbol is not None:
            imm_offset = _IMM32_OFFSETS[insn.fmt]
            section.relocations.append(
                Relocation(offset + imm_offset, reloc_symbol, reloc_addend)
            )
        section.data += encoded

    def _build(
        self, mnemonic: str, ops: list[_Operand], line: int
    ) -> tuple[Instruction, str | None, int]:
        """Select an encoding and build the instruction.

        Returns ``(instruction, reloc_symbol, reloc_addend)``; symbolic
        immediates are encoded as 0 and patched by the linker.
        """

        def fail(reason: str = "bad operands"):
            return AssemblerError(f"{reason} for {mnemonic!r}", line)

        def imm_or_sym(op: _Operand) -> tuple[int, str | None, int]:
            if op.kind == "imm":
                return op.value, None, 0
            if op.kind == "sym":
                return 0, op.symbol, op.addend
            raise fail()

        kinds = tuple(op.kind for op in ops)
        if mnemonic in ("nop", "halt", "ret"):
            if ops:
                raise fail("unexpected operands")
            return getattr(build, mnemonic)(), None, 0
        if mnemonic in ("push", "pop", "not"):
            if kinds != ("reg",):
                raise fail()
            builder = {"push": build.push, "pop": build.pop, "not": build.not_r}[mnemonic]
            return builder(ops[0].value), None, 0
        if mnemonic in ("mov", "add", "sub", "cmp"):
            if kinds == ("reg", "reg"):
                builder = {
                    "mov": build.mov_rr, "add": build.add_rr,
                    "sub": build.sub_rr, "cmp": build.cmp_rr,
                }[mnemonic]
                return builder(ops[0].value, ops[1].value), None, 0
            if len(ops) == 2 and ops[0].kind == "reg" and ops[1].kind in ("imm", "sym"):
                value, symbol, addend = imm_or_sym(ops[1])
                builder = {
                    "mov": build.mov_ri, "add": build.add_ri,
                    "sub": build.sub_ri, "cmp": build.cmp_ri,
                }[mnemonic]
                return builder(ops[0].value, value), symbol, addend
            raise fail()
        if mnemonic in ("mul", "div", "mod", "and", "or", "xor"):
            if kinds != ("reg", "reg"):
                raise fail()
            builder = {
                "mul": build.mul_rr, "div": build.div_rr, "mod": build.mod_rr,
                "and": build.and_rr, "or": build.or_rr, "xor": build.xor_rr,
            }[mnemonic]
            return builder(ops[0].value, ops[1].value), None, 0
        if mnemonic in ("shl", "shr"):
            if kinds != ("reg", "imm"):
                raise fail()
            builder = build.shl if mnemonic == "shl" else build.shr
            return builder(ops[0].value, ops[1].value), None, 0
        if mnemonic in ("load", "loadb", "lea"):
            if kinds != ("reg", "mem"):
                raise fail()
            builder = {"load": build.load, "loadb": build.loadb, "lea": build.lea}[mnemonic]
            return builder(ops[0].value, ops[1].mem), None, 0
        if mnemonic in ("store", "storeb"):
            if kinds != ("mem", "reg"):
                raise fail()
            builder = build.store if mnemonic == "store" else build.storeb
            return builder(ops[1].value, ops[0].mem), None, 0
        if mnemonic in ("jmp", "call"):
            if kinds == ("reg",):
                builder = build.jmp_reg if mnemonic == "jmp" else build.call_reg
                return builder(ops[0].value), None, 0
            if len(ops) == 1 and ops[0].kind in ("imm", "sym"):
                value, symbol, addend = imm_or_sym(ops[0])
                builder = build.jmp_abs if mnemonic == "jmp" else build.call_abs
                return builder(value), symbol, addend
            raise fail()
        if mnemonic in ("jz", "jnz", "jl", "jg", "jle", "jge", "jb", "jae"):
            if len(ops) != 1 or ops[0].kind not in ("imm", "sym"):
                raise fail()
            value, symbol, addend = imm_or_sym(ops[0])
            return getattr(build, mnemonic)(value), symbol, addend
        if mnemonic == "sys":
            if kinds != ("imm",):
                raise fail()
            return build.sys(ops[0].value), None, 0
        if mnemonic == "land":
            if kinds != ("imm",):
                raise fail()
            return build.land(ops[0].value), None, 0
        if mnemonic == "chk":
            if len(ops) != 2 or ops[0].kind != "reg" or ops[1].kind != "imm":
                raise fail()
            return build.chk(ops[0].value, ops[1].value), None, 0
        raise fail("unhandled mnemonic")


def assemble(source: str, module_name: str = "module") -> ObjectFile:
    """Assemble ``source`` into a relocatable object file."""
    return Assembler(module_name).assemble(source)
