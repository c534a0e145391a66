"""Builders: compile + link + load the canonical programs.

Each builder returns a :class:`~repro.link.loader.LoadedProgram` ready
to run.  All builders accept a :class:`MitigationConfig` and a seed so
the experiment harnesses can sweep postures and ASLR draws.

The simulated libc is linked into every victim (as on a real system),
which is what supplies return-to-libc targets and ROP gadget material.
"""

from __future__ import annotations

from repro.asm import assemble
from repro.link import LoadedProgram, load
from repro.link.objfile import ObjectFile
from repro.minic import compile_source
from repro.minic.compiler import options_from_mitigations
from repro.mitigations import MitigationConfig, NONE
from repro.pma.module import PMAController
from repro.programs import sources


def libc_object() -> ObjectFile:
    """The simulated libc, assembled fresh (objects are mutable)."""
    return assemble(sources.LIBC_ASM, "libc")


def build_victim(
    name: str,
    config: MitigationConfig = NONE,
    *,
    seed: int = 0,
    with_libc: bool = True,
    extra_objects: list[ObjectFile] | None = None,
) -> LoadedProgram:
    """Compile one of the named victim programs and load it.

    ``name`` is a key of :data:`repro.programs.sources.VICTIMS`.
    """
    source = sources.VICTIMS[name]
    options = options_from_mitigations(config)
    objects = [compile_source(source, name, options)]
    if with_libc:
        objects.append(libc_object())
    objects.extend(extra_objects or [])
    return load(objects, config, seed=seed)


def build_fig1(config: MitigationConfig = NONE, *, vulnerable: bool = True,
               seed: int = 0, wide_open: bool = False) -> LoadedProgram:
    """The Figure 1 server (safe, vulnerable, or wide-open variant)."""
    if wide_open:
        return build_victim("fig1_wide_open", config, seed=seed)
    return build_victim("fig1_vulnerable" if vulnerable else "fig1_safe",
                        config, seed=seed)


def build_secret_program(
    config: MitigationConfig = NONE,
    *,
    protected: bool = False,
    secure: bool = False,
    seed: int = 0,
    main_source: str | None = None,
    main_object: ObjectFile | None = None,
    fig4: bool = False,
    pma: PMAController | None = None,
) -> LoadedProgram:
    """The Figure 2/4 program: secret module + a driver.

    * ``protected`` loads the secret module into a protected module
      (Figure 3);
    * ``secure`` additionally applies the secure-compilation scheme
      (Section IV-B); without it the module is the *insecurely
      compiled* one the Figure 4 attack defeats;
    * ``main_source``/``main_object`` replace the honest driver with
      attacker-controlled code (the machine-code attacker model).
    """
    module_source = sources.SECRET_MODULE_FIG4 if fig4 else sources.SECRET_MODULE_FIG2
    module_options = options_from_mitigations(
        config, protected=protected, secure=secure
    )
    secret_obj = compile_source(module_source, "secret", module_options)
    if main_object is not None:
        main_obj = main_object
    else:
        source = main_source or (
            sources.SECRET_MAIN_FIG4 if fig4 else sources.SECRET_MAIN_FIG2
        )
        main_obj = compile_source(source, "main", options_from_mitigations(config))
    return load([main_obj, secret_obj, libc_object()], config, seed=seed,
                pma=pma)


def build_stateful_secret(
    config: MitigationConfig = NONE,
    *,
    main_object: ObjectFile,
    secure: bool = True,
    seed: int = 0,
    pma: PMAController | None = None,
) -> LoadedProgram:
    """The sealing/state-continuity module plus a host driver.

    The host (``main_object``) plays the operating system: it stores
    and replays sealed blobs.  ``pma`` should be shared across calls to
    model a persistent platform over restarts.
    """
    module_options = options_from_mitigations(
        config, protected=True, secure=secure
    )
    secret_obj = compile_source(
        sources.STATEFUL_SECRET_MODULE, "secret", module_options
    )
    return load([main_object, secret_obj, libc_object()], config, seed=seed, pma=pma)
