"""Tests for Software Fault Isolation: the rewriter and the sandbox."""

import pytest

from repro.asm import assemble
from repro.errors import LinkError
from repro.isa.encoding import decode_all
from repro.machine import RunStatus
from repro.minic import CompileOptions, compile_source
from repro.sfi import sfi_rewrite
from repro.experiments.sfi_exp import (
    BENIGN_SANDBOX,
    HOSTILE_READ,
    HOSTILE_SYSCALL,
    HOSTILE_WRITE,
    HOST_MAIN,
    asymmetry_report,
    build_sfi_program,
    sfi_table,
)


class TestRewriter:
    def _rewrite(self, source: str):
        return sfi_rewrite(assemble(source, "sandbox"))

    def test_output_decodes_cleanly(self):
        obj = self._rewrite("""
.text
.global sandbox_main
sandbox_main:
    mov r1, 0x12345678
    load r0, [r1+4]
    store [r1], r0
    ret
""")
        decode_all(bytes(obj.text.data))  # must not raise
        assert obj.sfi

    def test_memory_ops_guarded(self):
        obj = self._rewrite("""
.text
f: load r0, [r1+8]
   ret
""")
        mnemonics = [insn.mnemonic
                     for _, insn in decode_all(bytes(obj.text.data))]
        assert "and" in mnemonics and "or" in mnemonics
        # Guard base symbols referenced via relocations.
        symbols = {r.symbol for r in obj.text.relocations}
        assert "__sfi_sandbox" in symbols
        assert "__sfi_text" in symbols      # from the rewritten ret
        assert "__sfi_exit" in symbols

    def test_sys_replaced_with_halt(self):
        obj = self._rewrite(".text\nf: sys 4\nret\n")
        mnemonics = [insn.mnemonic
                     for _, insn in decode_all(bytes(obj.text.data))]
        assert "sys" not in mnemonics
        assert "halt" in mnemonics

    def test_symbols_remapped(self):
        obj = self._rewrite("""
.text
first: nop
second: load r0, [r1]
        ret
third: ret
""")
        # All symbols still present, monotone, and pointing at
        # instruction starts.
        offsets = [obj.symbols[name].offset
                   for name in ("first", "second", "third")]
        assert offsets == sorted(offsets)
        starts = {addr for addr, _ in decode_all(bytes(obj.text.data))}
        for offset in offsets:
            assert offset in starts

    def test_internal_branches_preserved(self):
        """Internal jump targets survive via relocations."""
        source = """
.text
.global sandbox_main
sandbox_main:
    mov r0, 0
    mov r2, 0
.Lloop:
    add r0, 7
    add r2, 1
    cmp r2, 5
    jnz .Lloop
    ret
"""
        program = build_sfi_program(assemble(source, "sandbox"), rewrite=True)
        result = program.run()
        assert [int(x) for x in result.output.split()][0] == 35

    def test_protected_object_rejected(self):
        obj = assemble(".text\n.entry e\ne: ret\n.data\nd: .word 0\n", "m")
        rewritten = sfi_rewrite(obj)
        from repro.link import load

        with pytest.raises(LinkError):
            rewritten.protected = True
            load([assemble(".text\n.global main\nmain: ret\n", "main"),
                  rewritten])

    def test_two_sandboxes_rejected(self):
        from repro.link import load
        from repro.sfi import sfi_runtime_object

        a = sfi_rewrite(assemble(".text\nfa: ret\n", "a"))
        b = sfi_rewrite(assemble(".text\nfb: ret\n", "b"))
        with pytest.raises(LinkError, match="one SFI sandbox"):
            load([assemble(".text\n.global main\nmain: ret\n", "main"),
                  a, b, sfi_runtime_object()])


class TestSandboxBehaviour:
    def test_benign_module_computes(self):
        benign = compile_source(BENIGN_SANDBOX, "sandbox", CompileOptions())
        program = build_sfi_program(benign, rewrite=True)
        result = program.run()
        assert result.status is RunStatus.EXITED
        values = [int(x) for x in result.output.split()]
        assert values[0] == sum(7 + i for i in range(16))
        assert values[1] == 99119911  # host state untouched

    def test_hostile_read_contained(self):
        program = build_sfi_program(
            assemble(HOSTILE_READ.format(secret=0x08100000), "sandbox"),
            rewrite=True,
        )
        result = program.run()
        values = [int(x) for x in result.output.split()] if result.output else []
        assert 99119911 not in values[:1]

    def test_hostile_read_succeeds_raw(self):
        # Control: the same module, loaded without rewriting, reads the
        # host secret -- layout from a same-shaped study link.
        study = build_sfi_program(
            assemble(HOSTILE_READ.format(secret=0), "sandbox"), rewrite=False)
        secret = study.image.symbol("host:host_secret")
        program = build_sfi_program(
            assemble(HOSTILE_READ.format(secret=secret), "sandbox"),
            rewrite=False,
        )
        result = program.run()
        assert int(result.output.split()[0]) == 99119911

    def test_hostile_write_contained(self):
        study = build_sfi_program(
            assemble(HOSTILE_WRITE.format(secret=0), "sandbox"), rewrite=False)
        secret = study.image.symbol("host:host_secret")
        program = build_sfi_program(
            assemble(HOSTILE_WRITE.format(secret=secret), "sandbox"),
            rewrite=True,
        )
        result = program.run()
        assert program.machine.memory.read_word(secret) == 99119911

    def test_hostile_syscall_halted(self):
        program = build_sfi_program(assemble(HOSTILE_SYSCALL, "sandbox"),
                                    rewrite=True)
        result = program.run()
        assert not result.shell_spawned

    def test_full_table_shape(self):
        rows = sfi_table()
        by_key = {(r["module"], r["mode"]): r["outcome"] for r in rows}
        assert by_key[("benign computation", "sandboxed")] == "correct result"
        for module in ("hostile: reads host secret",
                       "hostile: writes host state",
                       "hostile: jumps into host code",
                       "hostile: invokes syscalls"):
            assert by_key[(module, "raw")] == "HOST COMPROMISED"
            assert by_key[(module, "sandboxed")].startswith("contained")

    def test_asymmetry(self):
        """The paper: SFI 'protects a host application from untrusted
        modules, but modules are not protected against the host'."""
        report = asymmetry_report()
        assert report["host_reads_sandbox_data"]

#: SP escapes through instructions a mnemonic list of SP writers missed:
#: point SP just above the host's secret, then push over it.
SP_ESCAPE_LEA = """
.text
.global sandbox_main
sandbox_main:
    mov r2, sp             ; remember the sandbox stack
    mov r1, 0x{secret:x}
    lea sp, [r1+4]         ; SP just above the host's secret
    mov r0, 0xbad
    push r0                ; lands on host_secret
    mov sp, r2
    mov r0, 1
    ret
"""

SP_ESCAPE_LOAD = """
.text
.global sandbox_main
sandbox_main:
    mov r2, sp             ; remember the sandbox stack
    mov r1, 0x{secret:x}
    add r1, 4
    push r1
    load sp, [sp+0]        ; SP just above the host's secret
    mov r0, 0xbad
    push r0                ; lands on host_secret
    mov sp, r2
    mov r0, 1
    ret
"""


class TestStackPointerConfinement:
    """Every instruction that sets SP is confined, whatever its mnemonic."""

    def _run(self, template: str, *, rewrite: bool):
        study = build_sfi_program(
            assemble(template.format(secret=0), "sandbox"), rewrite=rewrite)
        secret = study.image.symbol("host:host_secret")
        program = build_sfi_program(
            assemble(template.format(secret=secret), "sandbox"),
            rewrite=rewrite,
        )
        result = program.run()
        return result, program.machine.memory.read_word(secret)

    @pytest.mark.parametrize("template", [SP_ESCAPE_LEA, SP_ESCAPE_LOAD],
                             ids=["lea-sp", "load-sp"])
    def test_escape_succeeds_raw(self, template):
        result, secret = self._run(template, rewrite=False)
        assert secret == 0xBAD
        assert result.output.split()[1] == b"2989"

    @pytest.mark.parametrize("template", [SP_ESCAPE_LEA, SP_ESCAPE_LOAD],
                             ids=["lea-sp", "load-sp"])
    def test_escape_contained(self, template):
        result, secret = self._run(template, rewrite=True)
        assert secret == 99119911
        assert result.output.split()[1] == b"99119911"

    def test_implicit_stack_steps_stay_unguarded(self):
        """push/pop/call/ret only step SP by 4: no confinement suffix,
        so compiled MinC rewrites to the same bytes as before."""
        obj = sfi_rewrite(assemble(
            ".text\nf: push sp\npop r1\ncall f\nnop\n", "sandbox"))
        mnemonics = [insn.mnemonic
                     for _, insn in decode_all(bytes(obj.text.data))]
        assert mnemonics == ["push", "pop", "call", "nop"]
        popped = sfi_rewrite(assemble(".text\nf: pop sp\n", "sandbox"))
        assert "and" in [insn.mnemonic for _, insn
                         in decode_all(bytes(popped.text.data))]
