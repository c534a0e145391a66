"""Robustness: hostile inputs must never escape the simulation.

Whatever bytes run on the machine -- random garbage, self-modifying
code, wild pointers -- the *host* must only ever see a RunResult.  A
Python-level exception leaking out of Machine.run would let a
simulated attack crash the experiment harness.
"""

import pytest
from hypothesis import given, settings, strategies as st

from repro.errors import ReproError
from repro.machine import Machine, MachineConfig, RunStatus
from repro.machine.memory import PERM_RW, PERM_RWX


def fresh_machine(config=None):
    machine = Machine(config or MachineConfig())
    machine.memory.map_region(0x1000, 0x2000, PERM_RWX)
    machine.memory.map_region(0x00200000, 0x10000, PERM_RW)
    machine.cpu.ip = 0x1000
    machine.cpu.sp = 0x0020F000
    return machine


class TestRandomCode:
    @settings(max_examples=120, deadline=None)
    @given(st.binary(min_size=1, max_size=256))
    def test_random_bytes_as_program(self, blob):
        machine = fresh_machine()
        machine.memory.write_bytes(0x1000, blob)
        result = machine.run(max_instructions=2_000)
        assert result.status in (RunStatus.EXITED, RunStatus.HALTED,
                                 RunStatus.FAULT)

    @settings(max_examples=60, deadline=None)
    @given(st.binary(min_size=1, max_size=128), st.integers(0, 2 ** 32 - 1))
    def test_random_code_random_sp(self, blob, sp):
        machine = fresh_machine()
        machine.memory.write_bytes(0x1000, blob)
        machine.cpu.sp = sp
        result = machine.run(max_instructions=2_000)
        assert result.status in (RunStatus.EXITED, RunStatus.HALTED,
                                 RunStatus.FAULT)

    @settings(max_examples=40, deadline=None)
    @given(st.binary(min_size=1, max_size=128))
    def test_random_code_with_enforcement(self, blob):
        machine = fresh_machine(MachineConfig(shadow_stack=True, cfi=True,
                                              redzones=True))
        machine.memory.write_bytes(0x1000, blob)
        machine.poison(0x00200100, 64)
        result = machine.run(max_instructions=2_000)
        assert result.status in (RunStatus.EXITED, RunStatus.HALTED,
                                 RunStatus.FAULT)

    @settings(max_examples=40, deadline=None)
    @given(st.binary(min_size=1, max_size=64))
    def test_random_code_with_pma(self, blob):
        from repro.pma.module import PMAController, ProtectedModule

        pma = PMAController()
        pma.register(ProtectedModule(
            name="m", text_start=0x2000, text_end=0x2100,
            data_start=0x00201000, data_end=0x00201100,
            entry_points=frozenset({0x2000}),
        ), b"\x25" * 0x100)
        machine = fresh_machine()
        machine.pma = pma
        machine.memory.write_bytes(0x1000, blob)
        result = machine.run(max_instructions=2_000)
        assert result.status in (RunStatus.EXITED, RunStatus.HALTED,
                                 RunStatus.FAULT)


class TestHostileInputsToPrograms:
    @settings(max_examples=30, deadline=None)
    @given(st.binary(max_size=300))
    def test_fig1_never_escapes(self, data):
        from repro.programs import build_fig1

        program = build_fig1(wide_open=True)
        program.feed(data)
        result = program.run(200_000)
        assert result.status in (RunStatus.EXITED, RunStatus.HALTED,
                                 RunStatus.FAULT)

    @settings(max_examples=25, deadline=None)
    @given(st.binary(max_size=64))
    def test_secret_module_never_escapes(self, data):
        from repro.programs import build_secret_program

        program = build_secret_program(protected=True, secure=True)
        program.feed(data)
        result = program.run(500_000)
        assert result.status in (RunStatus.EXITED, RunStatus.HALTED,
                                 RunStatus.FAULT)

    @settings(max_examples=25, deadline=None)
    @given(st.binary(max_size=96))
    def test_heap_victim_never_escapes(self, data):
        from repro.attacks.heap import build_heap_program
        from repro.programs import heap as heap_sources

        program = build_heap_program(heap_sources.HEAP_UAF_VICTIM,
                                     checked_allocator=True)
        program.feed(data)
        result = program.run(500_000)
        assert result.status in (RunStatus.EXITED, RunStatus.HALTED,
                                 RunStatus.FAULT)


class TestToolchainRobustness:
    @settings(max_examples=60, deadline=None)
    @given(st.text(max_size=120))
    def test_compiler_rejects_or_accepts_cleanly(self, source):
        """Arbitrary text either compiles or raises a ReproError --
        never an uncontrolled exception."""
        from repro.minic import compile_source

        try:
            compile_source(source, "fuzz")
        except ReproError:
            pass

    @settings(max_examples=60, deadline=None)
    @given(st.text(alphabet=st.characters(min_codepoint=32, max_codepoint=126),
                   max_size=120))
    def test_assembler_rejects_or_accepts_cleanly(self, source):
        from repro.asm import assemble

        try:
            assemble(source, "fuzz")
        except ReproError:
            pass


# -- near-valid inputs ------------------------------------------------------
#
# Purely random text almost never gets past the lexer, so the deep
# parser/assembler paths go untested by the strategies above (which is
# exactly how the `0x`-at-EOF lexer crash survived until PR 9).  These
# strategies instead *mutate valid programs*: splice, truncate, and
# perturb real source so the input reaches declarators, operand
# builders, directives and literal parsing -- and assert the toolchain
# answers with its own diagnostics (CompileError/AssemblerError, both
# ReproError), never a bare ValueError/IndexError.

_MINC_TEMPLATE = """\
static int PIN = 1234;
static char table[8] = {1, 2, 3};
static char *greeting = "hi\\n";

int helper(int a, char *p) {
    int local[4];
    local[0] = a + 'x';
    while (a > 0) { a -= 1; }
    for (a = 0; a < 3; a++) { p[a] = a; }
    return local[0] ? a : -a;
}

int main(void) {
    int (*fn)(int, char *) = helper;
    return fn(PIN, greeting) + table[1];
}
"""

_ASM_TEMPLATE = """\
.text
main:
    push bp
    mov bp, sp
    sub sp, 0x18
    lea r0, [bp-0x10]
    mov r1, table+4
    load r2, [r1]
    cmp r2, 'A'
    jz done
    call helper
    jmp main
helper:
    shl r0, 2
    store [bp-8], r0
    ret
done:
    sys 3
    halt
.data
greeting: .asciiz "hi\\n"
buf:      .space 16
table:    .word main, 0x1234, -1
flags:    .byte 1, 2, 255
.align 4
.global main
"""

#: Fragments spliced into templates: literal edge shapes the pure
#: random strategies essentially never synthesise.
_HOSTILE_FRAGMENTS = (
    "0x", "0X", "'", "''", "'\\", "'\\x", '"\\x"', '"\\xZZ"', '"\\', "\\",
    '"€"', "'€'", "ÿ", "Ā",
    "99999999999999999999", "-99999999999999999999",
    "[", "]", "(", ")", "{", "}", ",", ";", ":", "*", "&", "-", "+",
    ".space", ".space -1", ".space 1 x", ".align 0", ".align 99999999999",
    ".byte 999", ".word", ".ascii", '.ascii "\\x"', ".entry", ".global",
    "mov", "mov r0", "mov r0,", "load r0, [zz+0x]", "[bp-",
)


def _mutations(template: str):
    """Hypothesis strategy: a near-valid source derived from ``template``."""
    operations = st.lists(
        st.tuples(
            st.sampled_from(["delete", "dup", "insert", "truncate"]),
            st.integers(0, len(template) - 1),
            st.sampled_from(_HOSTILE_FRAGMENTS),
        ),
        min_size=1, max_size=4,
    )

    def apply(ops):
        text = template
        for kind, pos, fragment in ops:
            pos = min(pos, len(text))
            if kind == "delete":
                text = text[:pos] + text[pos + 1:]
            elif kind == "dup":
                text = text[:pos] + text[pos:pos + 12] + text[pos:]
            elif kind == "insert":
                text = text[:pos] + fragment + text[pos:]
            else:
                text = text[:pos]
        return text

    return operations.map(apply)


class TestNearValidToolchainRobustness:
    @settings(max_examples=200, deadline=None)
    @given(_mutations(_MINC_TEMPLATE))
    def test_parser_survives_near_valid_minc(self, source):
        """Mutated-but-recognisable MinC reaches deep parser paths;
        every rejection must be a diagnostic, never a raw
        ValueError/IndexError/UnicodeEncodeError."""
        from repro.minic import compile_source

        try:
            compile_source(source, "fuzz")
        except ReproError:
            pass

    @settings(max_examples=200, deadline=None)
    @given(_mutations(_ASM_TEMPLATE))
    def test_assembler_survives_near_valid_source(self, source):
        from repro.asm import assemble

        try:
            assemble(source, "fuzz")
        except ReproError:
            pass

    def test_regressions_flushed_out_by_the_property(self):
        """Directed pins for the leaks the near-valid property found:
        each used to raise ValueError/IndexError/UnicodeEncodeError."""
        from repro.asm import assemble
        from repro.minic import compile_source

        cases_minc = [
            'char *s = "€";',        # UnicodeEncodeError (latin-1)
            "int x = '€';",          # >0xFF char literal
            'char *s = "\\xZZ";',         # ValueError from int(_, 16)
        ]
        for source in cases_minc:
            with pytest.raises(ReproError):
                compile_source(source, "fuzz")
        cases_asm = [
            '.ascii "a\\x"',              # ValueError from int("", 16)
            '.ascii "a\\xzz"',            # ValueError from int("zz", 16)
            '.ascii "€"',            # UnicodeEncodeError (latin-1)
            ".space",                     # IndexError (no operand)
            ".space 4 x",                 # TypeError (None & 0xFF)
            '.text\n mov r0, "ab\\',      # IndexError (escape at EOL)
        ]
        for source in cases_asm:
            with pytest.raises(ReproError):
                assemble(source, "fuzz")
        # ValueError from int("010", 0): a leading-zero displacement or
        # symbol addend reads as decimal, like every other immediate.
        pairs_asm = [
            (".text\n load r0, [r1+010]", ".text\n load r0, [r1+10]"),
            (".text\n store [bp-010], r0", ".text\n store [bp-10], r0"),
            (".text\nmain:\n mov r0, main+010",
             ".text\nmain:\n mov r0, main+10"),
        ]
        for leading_zero, plain in pairs_asm:
            assert assemble(leading_zero, "fuzz") == assemble(plain, "fuzz")
