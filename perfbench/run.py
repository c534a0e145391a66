"""End-to-end benchmark: the paper's figures and a durable fuzz campaign.

    python3 perfbench/run.py --workload figures|fuzz_deep \\
        --seed N --seconds S --trace 0|1

Closed loop with one client: each unit -- one pass over every paper
experiment, or one campaign through the fuzzing service -- runs in a
fresh interpreter (``unit.py``), and the next unit starts when the
previous one has finished.  Units continue until the next one would
overrun ``--seconds``; every run makes at least two, and enough for a
median checkpoint gap.  The seed fixes each unit's inputs: the
experiment order (figures), and the campaign seed and the batch after
which the first serve() is interrupted (fuzz_deep).

Outputs are checked against ``reference.json`` (``pin.py`` writes it):
experiment output with host-rate columns masked, and the campaign
report fingerprint.  Each check counts in ``attempted``; a mismatch
counts in ``failed``.

``--trace 0`` reports the end-to-end metrics of BENCHMARK.json.
``--trace 1`` alternates untraced and traced units and reports the
per-layer metrics: medians of each layer's per-unit self time and
counts over the traced units, the tracing overhead (traced minus
untraced wall time), and ``resume_s`` from the untraced units.

Campaign stores live under ``.perfbench-work/`` in the checkout, on
the disk the repository lives on, and are deleted when the run ends.
The last line of stdout is the JSON result; the line before it
records the host.  ``.perfbench-work/results/`` keeps each run's
per-unit figures, and ``.perfbench-work/trace-<workload>.json`` the
Chrome trace of the last traced unit.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import random
import shutil
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

from lib import percentile
from unit import DEEP_SPEC

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK = ROOT / ".perfbench-work"
WORKLOADS = ("figures", "fuzz_deep")
MIN_UNITS = 2
UNIT_TIMEOUT_S = 150
TRACKER_ERROR = "KeyError: '/psm_"


def host_record(seed: int) -> dict:
    return {"nproc": len(os.sched_getaffinity(0)),
            "python": platform.python_version(),
            "seed": seed,
            "store_fs": filesystem_type(WORK)}


def filesystem_type(path: Path) -> str:
    """Type of the filesystem holding ``path`` (longest mount prefix)."""
    target = str(path.resolve())
    best, fstype = "", "unknown"
    try:
        lines = Path("/proc/self/mountinfo").read_text().splitlines()
    except OSError:
        return fstype
    for line in lines:
        fields = line.split()
        mount = fields[4]
        inside = target == mount or target.startswith(mount.rstrip("/") + "/")
        if inside and len(mount) >= len(best):
            best, fstype = mount, fields[fields.index("-") + 1]
    return fstype


def run_unit(run_dir: Path, workload: str, seed: int, traced: bool,
             index: int) -> dict:
    # Stores stay until the run ends: deleting one while the next unit
    # checkpoints puts the deletion's journal writes into its timings.
    unit_dir = run_dir / f"unit-{index}"
    unit_dir.mkdir(parents=True)
    out = unit_dir / "result.json"
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    t0 = perf_counter()
    command = [sys.executable, str(HERE / "unit.py"), "--workload", workload,
               "--seed", str(seed), "--trace", str(int(traced)),
               "--t0", repr(t0), "--dir", str(unit_dir), "--out", str(out)]
    if traced:
        command += ["--trace-out", str(WORK / f"trace-{workload}.json")]
    # stderr is read to EOF, so this also waits for the resource tracker
    # the campaign's shared memory started (it inherits the unit's stderr).
    proc = subprocess.run(command, env=env, capture_output=True, text=True,
                          timeout=UNIT_TIMEOUT_S)
    elapsed = perf_counter() - t0
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise SystemExit(f"unit {index} of {workload} exited {proc.returncode}")
    result = json.loads(out.read_text())
    result["traced"] = traced
    result["process_s"] = elapsed
    result["tracker_errors"] = proc.stderr.count(TRACKER_ERROR)
    return result


def unit_times(result: dict, reference: dict, workload: str) -> dict:
    """One unit's end-to-end figures from its raw timeline."""
    t0, segments = result["t0"], result["segments"]
    ready = segments[0]["events"][0][0]
    times = {"setup_s": ready - t0, "wall_s": result["t_done"] - t0,
             "peak_rss_mb": result["peak_rss_mb"],
             "gaps": [b[0] - a[0] for segment in segments
                      for a, b in zip(segment["events"],
                                      segment["events"][1:])]}
    if workload == "figures":
        # Guest executions of one pass, counted once by pin.py and
        # re-counted by every traced unit.
        times["execs_per_s"] = (reference["figures_execs"]
                                / (result["t_done"] - ready))
    else:
        # Steady state: first to last checkpoint of each serve().
        execs = sum(s["events"][-1][1] - s["events"][0][1] for s in segments)
        span = sum(s["events"][-1][0] - s["events"][0][0] for s in segments)
        times["execs_per_s"] = execs / span
        times["resume_s"] = segments[1]["events"][0][0] - segments[1]["start"]
    return times


def unit_checks(result: dict, reference: dict, workload: str,
                wall_bound: float) -> list[tuple[str, bool]]:
    outputs = result["outputs"]
    if workload == "figures":
        checks = [(f"output of {key}", outputs.get(key) == expected)
                  for key, expected in reference["figures"].items()]
    else:
        checks = [("first serve paused", outputs["paused"] is True),
                  ("resumed to completion", outputs["interrupted"] is False),
                  ("resumed fingerprint equals the uninterrupted one",
                   outputs["fingerprint"] == reference["fuzz_deep"])]
    trace = result.get("trace")
    if trace is not None:
        error = abs(trace["accounted_s"] - trace["wall_s"]) / trace["wall_s"]
        checks.append(("layer self times add up to wall_s",
                       error <= wall_bound))
        if workload == "figures":
            runs = trace["layers"].get("machine.run", {}).get("calls")
            checks.append(("guest executions per pass",
                           runs == reference["figures_execs"]))
    return checks


def median_of(values) -> float:
    values = list(values)
    return statistics.median(values) if values else 0.0


#: Layers reported as self time (``<layer>_s``) and calls (``_calls``).
TIMED_LAYERS = (
    "minic.lex", "minic.parse", "minic.sema", "minic.codegen",
    "minic.optimize", "asm.assemble", "link.link", "link.load",
    "machine.run", "machine.restore", "machine.snapshot_encode",
    "machine.snapshot_decode", "observe.outcome", "campaign.submit",
    "campaign.wait", "campaign.worker_init", "store.checkpoint",
    "store.meta", "store.crashes", "store.corpus", "store.progress",
    "store.snapshot", "store.load",
)


def layer_metrics(traced: list[dict],
                  untraced: list[dict]) -> dict[str, tuple[float, str]]:
    """The per-layer metrics of a --trace 1 run."""

    def layer(name: str, key: str) -> float:
        return median_of(unit["trace"]["layers"].get(name, {}).get(key, 0)
                         for unit in traced)

    def per_traced(fn) -> float:
        return median_of(fn(unit["trace"]) for unit in traced)

    metrics: dict[str, tuple[float, str]] = {
        "bench.startup_s": (layer("bench.startup", "self"), "s")}
    for name in TIMED_LAYERS:
        metrics[f"{name}_s"] = (layer(name, "self"), "s")
        metrics[f"{name}_calls"] = (layer(name, "calls"), "count")
    run_time = layer("machine.run", "total")
    insns = layer("machine.run", "value")
    metrics["machine.insns"] = (insns, "count")
    metrics["machine.insns_per_s"] = (insns / run_time if run_time else 0.0,
                                      "1/s")
    metrics["machine.restored_pages"] = (layer("machine.restore", "value"),
                                         "count")
    metrics["observe.edge_bytes"] = (layer("observe.outcome", "value"), "B")
    metrics["store.checkpoint_bytes"] = (layer("store.checkpoint", "value"),
                                         "B")
    metrics["greybox.master_self_s"] = (layer("greybox.run", "self"), "s")
    metrics["campaign.serve_s"] = (layer("campaign.serve", "self"), "s")
    metrics["campaign.job_s"] = (layer("campaign.job", "self"), "s")
    metrics["experiments.self_s"] = (per_traced(lambda trace: sum(
        entry["self"] for name, entry in trace["layers"].items()
        if name.startswith("experiments."))), "s")
    jobs = DEEP_SPEC["jobs"]
    metrics["campaign.worker_busy_share"] = (per_traced(
        lambda trace: trace["worker_busy_s"] / (jobs * trace["wall_s"])),
        "ratio")
    metrics["campaign.shm_tracker_errors"] = (median_of(
        unit["tracker_errors"] for unit in traced + untraced), "count")
    traced_wall = per_traced(lambda trace: trace["wall_s"])
    untraced_wall = median_of(unit["times"]["wall_s"] for unit in untraced)
    metrics["trace.wall_s"] = (traced_wall, "s")
    metrics["trace.untraced_wall_s"] = (untraced_wall, "s")
    metrics["trace.overhead_s"] = (traced_wall - untraced_wall, "s")
    metrics["trace.accounted_share"] = (per_traced(
        lambda trace: trace["accounted_s"] / trace["wall_s"]), "ratio")
    metrics["trace.unattributed_share"] = (per_traced(
        lambda trace: trace["unattributed_s"] / trace["wall_s"]), "ratio")
    metrics["trace.spans"] = (per_traced(lambda trace: trace["spans"]),
                              "count")
    metrics["resume_s"] = (median_of(unit["times"]["resume_s"]
                                     for unit in untraced
                                     if "resume_s" in unit["times"]), "s")
    return metrics


def end_to_end_metrics(units: list[dict]) -> dict[str, tuple[float, str]]:
    per_unit = [unit["times"] for unit in units]
    gaps = [gap for times in per_unit for gap in times["gaps"]]
    return {
        "setup_s": (median_of(t["setup_s"] for t in per_unit), "s"),
        "wall_s": (median_of(t["wall_s"] for t in per_unit), "s"),
        "execs_per_s": (median_of(t["execs_per_s"] for t in per_unit), "1/s"),
        "checkpoint_gap_p50_ms": (percentile(gaps, 0.5) * 1000, "ms"),
        "peak_rss_mb": (median_of(t["peak_rss_mb"] for t in per_unit), "MB"),
    }


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(prog="perfbench/run.py")
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    options = parser.parse_args(argv)
    if not (ROOT / "src" / "repro").is_dir():
        print(f"perfbench: no program sources under {ROOT / 'src'}",
              file=sys.stderr)
        return 2
    reference = json.loads((HERE / "reference.json").read_text())
    benchmark = json.loads((ROOT / "BENCHMARK.json").read_text())
    wall_bound = next(metric["bound"] for metric in benchmark["end_to_end"]
                      if metric["name"] == "wall_s")
    for stale in WORK.glob("run-*"):
        shutil.rmtree(stale)
    run_dir = WORK / f"run-{os.getpid()}"

    rng = random.Random(options.seed)
    started = perf_counter()
    units: list[dict] = []
    attempted = failed = 0
    try:
        while True:
            traced = bool(options.trace) and len(units) % 2 == 1
            unit = run_unit(run_dir, options.workload, rng.randrange(2 ** 31),
                            traced, len(units))
            unit["times"] = unit_times(unit, reference, options.workload)
            units.append(unit)
            for name, ok in unit_checks(unit, reference, options.workload,
                                        wall_bound):
                attempted += 1
                if not ok:
                    failed += 1
                    print(f"perfbench: check failed in unit {len(units) - 1}:"
                          f" {name}", file=sys.stderr)
            elapsed = perf_counter() - started
            typical = statistics.median(u["process_s"] for u in units)
            gaps = [gap for u in units for gap in u["times"]["gaps"]]
            if (len(units) >= MIN_UNITS and percentile(gaps, 0.5) is not None
                    and elapsed + typical > options.seconds):
                break
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)

    if options.trace:
        metrics = layer_metrics([u for u in units if u["traced"]],
                                [u for u in units if not u["traced"]])
    else:
        metrics = end_to_end_metrics(units)
    host = host_record(options.seed)
    record = {"workload": options.workload, "trace": options.trace,
              "host": host, "attempted": attempted, "failed": failed,
              "units": [{"traced": u["traced"],
                         "tracker_errors": u["tracker_errors"],
                         **{key: value for key, value in u["times"].items()
                            if key != "gaps"}} for u in units],
              "metrics": {name: value for name, (value, _) in metrics.items()}}
    results = WORK / "results"
    results.mkdir(exist_ok=True)
    (results / f"{options.workload}-seed{options.seed}"
     f"-trace{options.trace}.json").write_text(json.dumps(record, indent=2))
    print("host " + json.dumps({**host, "units": len(units)}))
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
