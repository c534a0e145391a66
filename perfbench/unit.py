"""One benchmark unit in a fresh interpreter.

A unit is one pass over every paper experiment (``figures``) or one
campaign through the fuzzing service (``fuzz_deep``)::

    python3 perfbench/unit.py --workload W --seed N --trace 0|1 \\
        --t0 T --dir DIR --out RESULT.json [--trace-out TRACE.json]

``--t0`` is the parent's ``perf_counter()`` taken just before it
started this process (CLOCK_MONOTONIC, shared by every process on
Linux), so interpreter start-up and imports count as set-up.  The unit
writes its raw timeline, outputs and peak memory to ``--out``; the
parent (``run.py``) derives the metrics and checks the outputs.

With ``--trace 1`` the public functions of each layer are wrapped
from outside (nothing in ``src/`` changes) and every call records a
span.  Forked pool workers spool their spans when they exit; the unit
merges them into its own trace, writes the Chrome trace to
``--trace-out`` and reports each layer's self time.
"""

from __future__ import annotations

import argparse
import importlib
import io
import json
import random
import resource
import sys
from contextlib import contextmanager, redirect_stdout
from pathlib import Path
from time import perf_counter

from lib import (
    Tracer,
    chrome_trace,
    layer_totals,
    load_spooled,
    mask_rates,
    merge_spans,
    self_times,
)

#: fuzz_deep: the parse-heavy victim (thousands of guest instructions
#: per exec) through two pool workers and the shared virgin map.  The
#: budget ends inside the fuzzer's deterministic stages, which do not
#: read the RNG, so the report is the same for every seed.
DEEP_SPEC = {"job_id": "deep", "victim": "fig1_parsing", "config": "testing",
             "jobs": 2, "max_execs": 3072}
#: The first serve() stops after this many batches (one choice per
#: unit, from the seed); a second serve() resumes the campaign from
#: the store.
INTERRUPT_BATCHES = range(3, 8)

#: layer name -> (module, attribute, measure).  ``measure(args,
#: result)`` is the quantity the layer reports besides its time.
LAYERS = (
    ("minic.lex", "repro.minic.lexer", "tokenize", None),
    ("minic.parse", "repro.minic.parser", "parse", None),
    ("minic.sema", "repro.minic.sema", "analyze", None),
    ("minic.codegen", "repro.minic.codegen", "CodeGenerator.generate", None),
    ("minic.optimize", "repro.minic.optimizer", "optimize_asm", None),
    ("asm.assemble", "repro.asm.assembler", "assemble", None),
    ("link.link", "repro.link.linker", "link", None),
    ("link.load", "repro.link.loader", "load", None),
    ("machine.run", "repro.machine.machine", "Machine.run",
     lambda args, result: result.instructions),
    ("machine.restore", "repro.machine.machine", "Machine.restore",
     lambda args, result: result),
    ("machine.snapshot_encode", "repro.machine.machine",
     "MachineSnapshot.to_bytes", lambda args, result: len(result)),
    ("machine.snapshot_decode", "repro.machine.machine",
     "MachineSnapshot.from_bytes", None),
    ("observe.outcome", "repro.analysis.greybox", "outcome_of",
     lambda args, result: len(result.edges)),
    ("greybox.run", "repro.analysis.greybox", "GreyboxFuzzer.run", None),
    ("campaign.serve", "repro.campaign.service",
     "CampaignCoordinator.serve", None),
    ("campaign.job", "repro.campaign.service",
     "CampaignCoordinator.run_job", None),
    ("campaign.submit", "repro.campaign.runner",
     "CampaignRunner.submit_items", None),
    ("campaign.wait", "repro.campaign.runner", "PendingItems.result", None),
    ("campaign.worker_init", "repro.campaign.runner", "_worker_init", None),
    ("campaign.worker", "repro.campaign.runner", "_worker_items", None),
    ("store.checkpoint", "repro.campaign.store",
     "CampaignStore.save_checkpoint",
     lambda args, result: (args[0].root / "checkpoint.bin").stat().st_size),
    ("store.meta", "repro.campaign.store", "CampaignStore.save_meta", None),
    ("store.crashes", "repro.campaign.store",
     "CampaignStore.record_crashes", None),
    ("store.corpus", "repro.campaign.store", "CampaignStore.add_corpus", None),
    ("store.progress", "repro.campaign.store",
     "CampaignStore.append_progress", None),
    ("store.snapshot", "repro.campaign.store",
     "CampaignStore.save_snapshot", None),
    ("store.load", "repro.campaign.store", "CampaignStore.load_checkpoint",
     None),
    ("store.load", "repro.campaign.store", "CampaignStore.load_snapshot",
     None),
    ("store.load", "repro.campaign.store", "CampaignStore.load_meta", None),
)


def _rebind(old, new) -> None:
    """Point every ``repro`` module binding of ``old`` at ``new`` (the
    defining module and every ``from ... import`` alias)."""
    for name, module in list(sys.modules.items()):
        if name.split(".")[0] != "repro" or module is None:
            continue
        for attr, value in list(vars(module).items()):
            if value is old:
                setattr(module, attr, new)


def install_layers(tracer: Tracer) -> None:
    for layer, module_name, attr, measure in LAYERS:
        module = importlib.import_module(module_name)
        owner_name, _, name = attr.rpartition(".")
        if not owner_name:
            original = getattr(module, name)
            _rebind(original, tracer.wrap(layer, original, measure))
            continue
        owner = getattr(module, owner_name)
        raw = owner.__dict__[name]
        if isinstance(raw, classmethod):
            setattr(owner, name,
                    classmethod(tracer.wrap(layer, raw.__func__, measure)))
        else:
            setattr(owner, name, tracer.wrap(layer, raw, measure))


class Unit:
    """What one unit records: progress segments, outputs, spans."""

    def __init__(self, workdir: Path, tracer: Tracer | None) -> None:
        self.dir = workdir
        self.tracer = tracer
        #: One segment per serve() (or per figures pass): its start and
        #: its progress events as [time, execs].
        self.segments: list[dict] = []
        self.outputs: dict = {}

    def segment(self) -> None:
        self.segments.append({"start": perf_counter(), "events": []})

    def event(self, execs: int = 0) -> None:
        self.segments[-1]["events"].append([perf_counter(), execs])

    @contextmanager
    def span(self, name: str):
        if self.tracer is None:
            yield
            return
        span = self.tracer.open(name)
        try:
            yield
        finally:
            self.tracer.close(span)

    def hook_progress(self) -> None:
        """Timestamp every campaign checkpoint: the coordinator appends
        one progress line as the last step of each checkpoint."""
        from repro.campaign.store import CampaignStore

        append = CampaignStore.append_progress

        def append_progress(store, event):
            append(store, event)
            self.event(event["seq"])

        CampaignStore.append_progress = append_progress


def figures(unit: Unit, seed: int) -> None:
    """Every experiment id, in process, ``--jobs 1``, default seeds, in
    an order drawn from the seed."""
    from repro.experiments.__main__ import EXPERIMENTS, main

    order = sorted(EXPERIMENTS)
    random.Random(seed).shuffle(order)
    unit.segment()
    unit.event()
    for key in order:
        buffer = io.StringIO()
        with unit.span(f"experiments.{key}"), redirect_stdout(buffer):
            status = main(["--jobs", "1", key])
        unit.event()
        unit.outputs[key] = mask_rates(buffer.getvalue()) if status == 0 else None


def fuzz_deep(unit: Unit, seed: int) -> None:
    """One campaign through the service, interrupted once and resumed
    to completion by a second serve()."""
    from repro.campaign.service import CampaignCoordinator, CampaignSpec

    root = unit.dir / "service"
    job = DEEP_SPEC["job_id"]
    batches = random.Random(seed).choice(INTERRUPT_BATCHES)
    first = CampaignCoordinator(root, concurrency=1, max_batches=batches)
    first.submit(CampaignSpec(seed=seed, **DEEP_SPEC))
    unit.segment()
    paused = first.serve()[job]
    unit.segment()
    done = CampaignCoordinator(root, concurrency=1).serve()[job]
    unit.outputs = {"paused": paused["interrupted"],
                    "fingerprint": done["fingerprint"],
                    "interrupted": done["interrupted"]}


WORKLOADS = {"figures": figures, "fuzz_deep": fuzz_deep}


def _peak_rss_mb() -> float:
    """This process's peak RSS plus its largest child's (Linux: KiB)."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + children) / 1024


def trace_summary(tracer: Tracer, workdir: Path, t0: float, t_done: float,
                  trace_out: str | None) -> dict:
    rows = merge_spans(tracer.rows(), load_spooled(workdir))
    master = [row for row in rows if row[5] == tracer.pid]
    own = self_times(master)
    root = next(row for row in master if row[1] == "bench.unit")
    if trace_out:
        Path(trace_out).write_text(json.dumps(chrome_trace(rows, t0)))
    return {
        "layers": layer_totals(rows),
        "accounted_s": sum(own.values()),
        "unattributed_s": own[root[0]],
        "worker_busy_s": sum(row[3] - row[2] for row in rows
                             if row[1] == "campaign.worker"),
        "spans": len(rows),
        "wall_s": t_done - t0,
    }


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(prog="perfbench/unit.py")
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--t0", type=float, required=True)
    parser.add_argument("--dir", required=True)
    parser.add_argument("--out", required=True)
    parser.add_argument("--trace-out", default=None)
    options = parser.parse_args(argv)
    workdir = Path(options.dir)

    tracer = None
    if options.trace:
        tracer = Tracer()
        tracer.spool_dir = workdir
        root = tracer.open("bench.unit", start=options.t0)
        startup = tracer.open("bench.startup", start=options.t0)
    unit = Unit(workdir, tracer)
    if options.workload == "figures":
        importlib.import_module("repro.experiments.__main__")
    else:
        importlib.import_module("repro.campaign.service")
        unit.hook_progress()
    if tracer is not None:
        install_layers(tracer)
        tracer.close(startup)

    WORKLOADS[options.workload](unit, options.seed)
    t_done = perf_counter()

    result = {"t0": options.t0, "t_done": t_done, "segments": unit.segments,
              "outputs": unit.outputs, "peak_rss_mb": _peak_rss_mb()}
    if tracer is not None:
        tracer.close(root, end=t_done)
        result["trace"] = trace_summary(tracer, workdir, options.t0, t_done,
                                        options.trace_out)
    Path(options.out).write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
