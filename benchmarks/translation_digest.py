#!/usr/bin/env python
"""Hash the Python source of every block and trace the translators build.

A refactor of ``machine/blocks.py``, ``machine/trace.py`` or the
templates in ``machine/ir.py`` that claims "the generated code does not
change" is checked by running this tool on both trees and comparing::

    PYTHONPATH=src python benchmarks/translation_digest.py OUT.json

It wraps ``compile_block`` (in ``repro.machine.blocks`` and in
``repro.machine.machine``, which imports it by name) and
``trace.record_and_compile``, then drives two corpora in process:

* one pass over every paper experiment (``python -m repro.experiments
  --jobs 1 ID`` for each id, output discarded);
* one ``fig1_parsing`` campaign through the fuzzing service, ``testing``
  preset, invariant monitor on, seed 7, 3,072 execs, ``jobs=1``.

It prints the number of blocks and traces built, how many sources are
distinct, an order-independent digest of each multiset of sources, and
the campaign's report fingerprint.  ``OUT.json`` receives every source
with its build count (``{"blocks": {source: count}, "traces": ...,
"fingerprint": ...}``) so that two trees' outputs can be diffed.
"""

from __future__ import annotations

import argparse
import hashlib
import io
import json
import sys
import tempfile
from collections import Counter
from contextlib import redirect_stdout

#: The service campaign of the second corpus.
CAMPAIGN = {"job_id": "digest", "victim": "fig1_parsing",
            "config": "testing", "seed": 7, "max_execs": 3072, "jobs": 1,
            "invariants": True}


def install(blocks: Counter, traces: Counter) -> None:
    """Count every compiled source into ``blocks``/``traces``."""
    from repro.machine import blocks as blocks_module
    from repro.machine import machine as machine_module
    from repro.machine import trace as trace_module

    compile_block = blocks_module.compile_block
    record_and_compile = trace_module.record_and_compile

    def counted_block(machine, head):
        block = compile_block(machine, head)
        if block is not None:
            blocks[block.source] += 1
        return block

    def counted_trace(*args, **kwargs):
        compiled = record_and_compile(*args, **kwargs)
        if compiled is not None:
            traces[compiled.source] += 1
        return compiled

    blocks_module.compile_block = counted_block
    machine_module.compile_block = counted_block
    trace_module.record_and_compile = counted_trace


def digest(sources: Counter) -> str:
    """SHA-256 over the sorted per-source hashes, each repeated by its
    count: equal for equal multisets, whatever the build order."""
    outer = hashlib.sha256()
    for inner in sorted(hashlib.sha256(source.encode()).hexdigest()
                        for source in sources.elements()):
        outer.update(inner.encode())
    return outer.hexdigest()


def run_figures() -> None:
    from repro.experiments.__main__ import EXPERIMENTS, main

    for key in EXPERIMENTS:
        with redirect_stdout(io.StringIO()):
            main(["--jobs", "1", key])


def run_campaign() -> str:
    from repro.campaign.service import CampaignCoordinator, CampaignSpec

    with tempfile.TemporaryDirectory() as root:
        coordinator = CampaignCoordinator(root, concurrency=1)
        coordinator.submit(CampaignSpec(**CAMPAIGN))
        return coordinator.serve()[CAMPAIGN["job_id"]]["fingerprint"]


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(prog="translation_digest.py")
    parser.add_argument("out", help="JSON file for every source built")
    options = parser.parse_args(argv)

    blocks: Counter = Counter()
    traces: Counter = Counter()
    install(blocks, traces)
    run_figures()
    fingerprint = run_campaign()
    for name, sources in (("blocks", blocks), ("traces", traces)):
        print(f"{name}: {sum(sources.values())} built, {len(sources)} "
              f"distinct, digest {digest(sources)}")
    print(f"campaign fingerprint: {fingerprint}")
    with open(options.out, "w") as handle:
        json.dump({"blocks": blocks, "traces": traces,
                   "fingerprint": fingerprint}, handle)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
