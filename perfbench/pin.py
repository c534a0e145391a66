"""Pin the outputs the benchmark checks: ``perfbench/reference.json``.

    python3 perfbench/pin.py

Records, at the current commit:

* ``figures``: each experiment's output with host-rate columns masked,
  taken from two passes in different orders that must agree (the
  benchmark shuffles the order per unit);
* ``figures_execs``: guest executions (``Machine.run`` calls) in one
  pass, which turns a pass's duration into ``execs_per_s``;
* ``fuzz_deep``: the report fingerprint of the uninterrupted campaign,
  which every interrupted-and-resumed unit must reproduce.  The budget
  ends inside the fuzzer's deterministic stages, which do not read the
  RNG, so the fingerprint is the same for every seed; two seeds are
  run to confirm it.
"""

from __future__ import annotations

import json
import shutil
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

from unit import DEEP_SPEC, Unit, figures  # noqa: E402


def pin_figures() -> tuple[dict, int]:
    from repro.machine.machine import Machine

    run = Machine.run
    calls = 0

    def counted(self, *args, **kwargs):
        nonlocal calls
        calls += 1
        return run(self, *args, **kwargs)

    Machine.run = counted
    passes = []
    try:
        for seed in (0, 1):
            calls = 0
            unit = Unit(Path("."), None)
            figures(unit, seed)
            passes.append((unit.outputs, calls))
    finally:
        Machine.run = run
    (first, first_calls), (second, second_calls) = passes
    if first != second or first_calls != second_calls:
        changed = sorted(key for key in first if first[key] != second.get(key))
        raise SystemExit(f"figures differ between orders: {changed} "
                         f"({first_calls} vs {second_calls} executions)")
    return dict(sorted(first.items())), first_calls


def pin_campaign(spec: dict) -> str:
    from repro.campaign.service import CampaignCoordinator, CampaignSpec

    fingerprints = set()
    for seed in (0, 1):
        root = HERE.parent / ".perfbench-work" / f"pin-{spec['job_id']}-{seed}"
        shutil.rmtree(root, ignore_errors=True)
        try:
            coordinator = CampaignCoordinator(root, concurrency=1)
            coordinator.submit(CampaignSpec(seed=seed, **spec))
            fingerprints.add(coordinator.serve()[spec["job_id"]]["fingerprint"])
        finally:
            shutil.rmtree(root)
    if len(fingerprints) != 1:
        raise SystemExit(f"{spec['job_id']}: fingerprint depends on the seed")
    return fingerprints.pop()


def main() -> int:
    outputs, execs = pin_figures()
    reference = {
        "figures": outputs,
        "figures_execs": execs,
        "fuzz_deep": pin_campaign(DEEP_SPEC),
    }
    (HERE / "reference.json").write_text(json.dumps(reference, indent=1) + "\n")
    print(f"pinned {len(outputs)} experiments ({execs} executions per pass), "
          f"fuzz_deep {reference['fuzz_deep'][:12]}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
