"""Pure helpers of the end-to-end benchmark.

Span recording, self-time accounting, the merge of pool-worker spans
into the master's trace, the percentile rule and the masking of
host-rate columns in experiment output.  Nothing here imports the
program under test, so ``python3 -m pytest perfbench`` runs these
helpers' tests without it.
"""

from __future__ import annotations

import functools
import json
import math
import os
import re
import threading
from multiprocessing import util as mp_util
from pathlib import Path
from time import perf_counter

#: A percentile is reported only when at least this many samples lie
#: beyond it (a p50 needs 20 samples, a p90 needs 100).
MIN_TAIL = 10


def percentile(values, q: float) -> float | None:
    """Nearest-rank ``q``-quantile of ``values`` (``0 < q < 1``), or
    None when fewer than :data:`MIN_TAIL` samples lie above it."""
    n = len(values)
    rank = math.ceil(q * n)
    if n == 0 or n - rank < MIN_TAIL:
        return None
    return sorted(values)[max(rank, 1) - 1]


# ---------------------------------------------------------------------------
# Spans
# ---------------------------------------------------------------------------

# A recorded span is a list [name, start, end, parent, tid, value]:
# ``parent`` is the enclosing span (same list shape) or None, ``value``
# a layer-specific quantity (instructions run, pages restored, bytes).
# Exported rows are [id, name, start, end, parent_id, pid, tid, value].


class Tracer:
    """In-memory span recorder for one process.

    Wrapped callables record one span per call.  A thread's first span
    hangs off the innermost open span of the thread that created the
    tracer: the campaign coordinator runs each job in a worker thread
    while the main thread blocks inside ``serve``.  Forked
    multiprocessing children start an empty trace and write it to
    ``spool_dir`` when they exit.
    """

    def __init__(self) -> None:
        self.spool_dir: Path | None = None
        self._reset()
        mp_util.register_after_fork(self, Tracer._after_fork)

    def _reset(self) -> None:
        self.pid = os.getpid()
        self.spans: list[list] = []
        self._local = threading.local()
        self._main_stack = self._stack()

    def _after_fork(self) -> None:
        self._reset()
        mp_util.Finalize(None, self._spool, exitpriority=100)

    def _spool(self) -> None:
        if self.spool_dir is not None and self.spans:
            path = self.spool_dir / f"spans-{self.pid}.json"
            path.write_text(json.dumps(self.rows()))

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def open(self, name: str, start: float | None = None) -> list:
        stack = self._stack()
        parent = stack[-1] if stack else (
            self._main_stack[-1] if self._main_stack else None)
        span = [name, 0.0, 0.0, parent, threading.get_ident(), 0]
        self.spans.append(span)
        stack.append(span)
        span[1] = perf_counter() if start is None else start
        return span

    def close(self, span: list, end: float | None = None) -> None:
        span[2] = perf_counter() if end is None else end
        self._stack().pop()

    def wrap(self, name: str, fn, measure=None):
        """``fn`` recording a ``name`` span per call; ``measure(args,
        result)`` fills the span's value."""
        tracer = self

        # Pool tasks pickle module functions by name: the wrapper must
        # answer to the name it replaces.
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = tracer.open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer.close(span)
            if measure is not None:
                span[5] = measure(args, result)
            return result

        return traced

    def rows(self) -> list[list]:
        ids = {id(span): index for index, span in enumerate(self.spans)}
        return [
            [ids[id(span)], span[0], span[1], span[2],
             None if span[3] is None else ids.get(id(span[3])),
             self.pid, span[4], span[5]]
            for span in self.spans
        ]


def merge_spans(master: list[list], workers: list[list[list]]) -> list[list]:
    """One trace from the master's rows and each worker's rows.

    Worker ids are renumbered past every id already taken and their
    parent links remapped with them; worker spans keep their own pid,
    so each worker stays a separate track with its own roots.
    """
    merged = [list(row) for row in master]
    next_id = max((row[0] for row in merged), default=-1) + 1
    for rows in workers:
        remap = {row[0]: next_id + index for index, row in enumerate(rows)}
        for row in rows:
            merged.append([remap[row[0]], row[1], row[2], row[3],
                           remap.get(row[4]), row[5], row[6], row[7]])
        next_id += len(rows)
    return merged


def self_times(rows: list[list]) -> dict[int, float]:
    """Each span's duration minus the part of it its children cover."""
    children: dict[int, list[tuple[float, float]]] = {}
    for row in rows:
        if row[4] is not None:
            children.setdefault(row[4], []).append((row[2], row[3]))
    result = {}
    for row in rows:
        start, end = row[2], row[3]
        covered, cursor = 0.0, start
        for child_start, child_end in sorted(children.get(row[0], ())):
            child_start, child_end = max(child_start, cursor), min(child_end, end)
            if child_end > child_start:
                covered += child_end - child_start
                cursor = child_end
        result[row[0]] = (end - start) - covered
    return result


def layer_totals(rows: list[list]) -> dict[str, dict[str, float]]:
    """Per span name: summed self time, inclusive time, calls, values."""
    own = self_times(rows)
    totals: dict[str, dict[str, float]] = {}
    for row in rows:
        entry = totals.setdefault(
            row[1], {"self": 0.0, "total": 0.0, "calls": 0, "value": 0})
        entry["self"] += own[row[0]]
        entry["total"] += row[3] - row[2]
        entry["calls"] += 1
        entry["value"] += row[7]
    return totals


def load_spooled(spool_dir: Path) -> list[list[list]]:
    """The span rows every exited worker wrote under ``spool_dir``."""
    return [json.loads(path.read_text())
            for path in sorted(spool_dir.glob("spans-*.json"))]


def chrome_trace(rows: list[list], origin: float) -> dict:
    """Chrome trace-event JSON (microseconds since ``origin``)."""
    return {"traceEvents": [
        {"name": row[1], "ph": "X", "pid": row[5], "tid": row[6],
         "ts": (row[2] - origin) * 1e6, "dur": (row[3] - row[2]) * 1e6,
         "args": {"id": row[0], "parent": row[4], "value": row[7]}}
        for row in rows
    ]}


# ---------------------------------------------------------------------------
# Experiment output masking
# ---------------------------------------------------------------------------

_RATE = re.compile(r"[\d,]+(?:\.\d+)?(?= (?:trials|execs)/s)")
_SPEEDUP = re.compile(r"(speedup\s*:\s*)[\d.]+x")


def mask_rates(text: str) -> str:
    """Experiment output with every host-rate figure replaced by ``#``.

    Table columns whose header names a rate (``trials/s``,
    ``execs/s``) are masked cell by cell; table rows are reduced to
    their stripped cells and border lines dropped, so a wider rate
    cannot shift the comparison.  Free-text rates (``... trials/s``)
    and ``speedup : N.Nx`` lines are masked in place.
    """
    out = []
    masked: set[int] | None = None
    for line in text.splitlines():
        if line.startswith("+-"):
            continue
        if line.startswith("|"):
            cells = [cell.strip() for cell in line.strip("|").split("|")]
            if masked is None:
                masked = {i for i, cell in enumerate(cells) if "/s" in cell}
            else:
                cells = ["#" if i in masked else cell
                         for i, cell in enumerate(cells)]
            out.append(" | ".join(cells))
            continue
        masked = None
        out.append(_SPEEDUP.sub(r"\g<1>#", _RATE.sub("#", line)).rstrip())
    return "\n".join(out)
