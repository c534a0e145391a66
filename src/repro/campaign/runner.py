"""Fork-server-style trial campaigns over machine snapshots.

The paper's two attacker models are *measured* through repeated trial
campaigns -- an ASLR entropy sweep, a PIN brute force against Figure
2's ``tries_left`` module, the attack x countermeasure matrix.  Before
this module every trial paid the full compile + link + load + cold
start cost.  A :class:`CampaignRunner` instead does what AFL-class
fuzzers call a fork server: build the victim *once*, take one
copy-on-write :meth:`~repro.machine.machine.Machine.snapshot`, then
per trial restore (O(dirty pages)), mutate the input, run, and extract
a verdict.  The PR 3 superblock cache stays warm across restores, so
trial N+1 starts with trial N's hot code.

Three picklable callables describe a campaign:

* ``factory()`` builds the warm target -- a
  :class:`~repro.link.loader.LoadedProgram` or a bare
  :class:`~repro.machine.machine.Machine`;
* ``mutator(target, index)`` injects trial ``index``'s input (stdin
  bytes, a PIN guess, a payload);
* ``verdict(target, result, index)`` reduces the finished
  :class:`~repro.machine.machine.RunResult` to whatever the campaign
  records (must pickle for the parallel path).

For trials that need mid-run interaction (a leak read back before the
smash payload goes in), pass a single ``trial(target, index)``
callable instead; the runner still owns the restore.

With ``jobs > 1`` trials fan out over a ``ProcessPoolExecutor``, one
warm snapshot per worker (the e4 matrix plumbing): the initializer
builds the target and snapshot once per process, and index batches
stream through it.  Results are index-ordered and identical to the
sequential path -- every trial derives its randomness from its index,
never from scheduling.  Like the matrix, the pool is skipped while
``observe_new_machines`` factories are active (observers cannot cross
process boundaries).
"""

from __future__ import annotations

import os
import warnings
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from time import perf_counter
from typing import Callable

from repro.machine import machine as machine_module


def _machine_of(target):
    """The Machine inside a factory product (LoadedProgram or Machine)."""
    return getattr(target, "machine", target)


@dataclass(frozen=True)
class ComposedTrial:
    """``mutator`` + run + ``verdict`` composed as one trial callable."""

    mutator: Callable
    verdict: Callable
    max_instructions: int = 2_000_000

    def __call__(self, target, index: int):
        self.mutator(target, index)
        result = _machine_of(target).run(self.max_instructions)
        return self.verdict(target, result, index)


class CampaignSession:
    """One warm worker: a built target plus its baseline snapshot.

    Every trial restores the baseline first, so trials are independent
    by construction -- including state the *guest* believes is durable
    (Figure 2's ``tries_left`` lockout), which is exactly the rollback
    attack snapshot/restore models.
    """

    def __init__(self, factory: Callable, trial: Callable) -> None:
        self.target = factory()
        self.machine = _machine_of(self.target)
        self.baseline = self.machine.snapshot()
        self.trial = trial
        #: Total dirty pages rewound across all restores (reset cost).
        self.restored_pages = 0

    def run_trial(self, index: int):
        self.restored_pages += self.machine.restore(self.baseline)
        return self.trial(self.target, index)

    def run_batch(self, indices) -> list:
        begin = getattr(self.trial, "begin_batch", None)
        if begin is not None:
            # Per-batch trial hook: the greybox fuzzer's CoverageTrial
            # refreshes its shared-virgin-map overlay here, once per
            # batch instead of once per trial.
            begin(self.target)
        run_trial = self.run_trial
        return [run_trial(index) for index in indices]

    def run_counted(self, items) -> tuple[list, int]:
        """:meth:`run_batch`, plus the dirty pages its restores rewound."""
        before = self.restored_pages
        return self.run_batch(items), self.restored_pages - before


#: Per-worker-process warm session (parallel path), set by _worker_init.
_WORKER_SESSION: CampaignSession | None = None


def _worker_init(factory, trial, tier: str) -> None:
    """Pool initializer: build one warm session for this process.

    ``tier`` is the parent's resolved dispatch tier, applied as this
    process's ``REPRO_TIER`` so the worker's machines run the parent's
    tier under every start method (a ``forkserver`` worker inherits the
    environment its server started with, not the parent's current one).
    """
    os.environ["REPRO_TIER"] = tier
    global _WORKER_SESSION
    _WORKER_SESSION = CampaignSession(factory, trial)


def _worker_items(items) -> tuple[list, int]:
    """Run one work unit on this worker's warm session."""
    return _WORKER_SESSION.run_counted(items)


class PendingItems:
    """In-flight work handed out by :meth:`CampaignRunner.submit_items`.

    On the persistent pool the items are already executing when this
    object exists; :meth:`result` just collects the chunk futures.
    Otherwise execution is *lazy* -- it happens inside :meth:`result`,
    on the sequential warm session or a per-call pool -- so a pipelined
    client (submit batch N+1, then integrate batch N) observes the
    exact same execution order a plain ``run_items`` loop would, and
    the two paths stay verdict-identical.
    """

    def __init__(self, runner: "CampaignRunner", items: list) -> None:
        self._runner = runner
        self._items = items
        self._started = perf_counter()
        self._futures: list | None = None
        self._workers = 0
        self._result: CampaignResult | None = None

    def _submit(self, pool: ProcessPoolExecutor, workers: int,
                chunksize: int | None = None) -> None:
        """Start the items on ``pool``: one contiguous chunk per worker
        (locality + order), or ``chunksize``-item work units."""
        items = self._items
        self._workers = workers = min(workers, len(items))
        if chunksize is None:
            base, extra = divmod(len(items), workers)
            cuts = [w * base + min(w, extra) for w in range(workers + 1)]
        else:
            cuts = [*range(0, len(items), max(1, chunksize)), len(items)]
        self._futures = [pool.submit(_worker_items, items[lo:hi])
                         for lo, hi in zip(cuts, cuts[1:])]

    def result(self) -> "CampaignResult":
        """Block until every item has run; verdicts in item order."""
        if self._result is None:
            runner = self._runner
            items = self._items
            jobs = min(runner.jobs or 1, len(items))
            if self._futures is not None:
                batches = [future.result() for future in self._futures]
            elif jobs > 1 and not machine_module._DEFAULT_OBSERVER_FACTORIES:
                with runner._new_pool(jobs) as pool:
                    self._submit(pool, jobs)
                    batches = [future.result() for future in self._futures]
            elif items:
                if runner._session is None:
                    runner._session = CampaignSession(runner.factory,
                                                      runner.trial)
                self._workers = 1
                batches = [runner._session.run_counted(items)]
            else:
                batches = []
            self._result = CampaignResult(
                [v for batch, _ in batches for v in batch], len(items),
                self._workers, perf_counter() - self._started,
                sum(pages for _, pages in batches),
            )
            runner._settle(self)
        return self._result

    def cancel(self) -> None:
        """Best-effort cancel of chunks not yet started (an abandoned
        pipelined batch after ``stop_on_first_crash``).  Chunks already
        running finish and are discarded."""
        if self._futures is not None:
            for future in self._futures:
                future.cancel()
            self._futures = [f for f in self._futures if not f.cancelled()]
        else:
            self._items = []
        if self._result is None:
            self._result = CampaignResult(
                [], 0, 0, perf_counter() - self._started, 0)
        self._runner._settle(self)


@dataclass
class CampaignResult:
    """Outcome of one :meth:`CampaignRunner.run` call."""

    verdicts: list
    trials: int
    workers: int
    duration_seconds: float
    #: Dirty pages rewound across all restores (the total reset cost;
    #: 0 for cold runs, which rebuild instead of restoring).
    restored_pages: int
    #: "snapshot" (restore-per-trial) or "cold" (rebuild-per-trial).
    mode: str = "snapshot"

    @property
    def trials_per_second(self) -> float:
        if self.duration_seconds <= 0.0:
            return 0.0
        return self.trials / self.duration_seconds


class CampaignRunner:
    """Run many mutated trials against one warm machine image."""

    def __init__(
        self,
        factory: Callable,
        mutator: Callable | None = None,
        verdict: Callable | None = None,
        *,
        trial: Callable | None = None,
        max_instructions: int = 2_000_000,
        jobs: int | None = None,
        chunksize: int | None = None,
    ) -> None:
        if trial is None:
            if mutator is None or verdict is None:
                raise ValueError(
                    "CampaignRunner needs mutator+verdict, or a trial callable"
                )
            trial = ComposedTrial(mutator, verdict, max_instructions)
        self.factory = factory
        self.trial = trial
        self.jobs = jobs
        #: Items per submitted work unit on the parallel path.  None
        #: means one contiguous chunk per worker (minimal dispatch
        #: overhead); smaller chunks let a pipelined client overlap a
        #: finishing batch's tail with the next batch's head.
        self.chunksize = chunksize
        #: Persistent worker pool (entered via ``with runner:``); None
        #: means every ``run``/``run_items`` call builds its own.
        self._pool: ProcessPoolExecutor | None = None
        #: Cached warm session for sequential ``run_items`` streams
        #: (the greybox fuzzer calls it once per mutation batch).
        self._session: CampaignSession | None = None
        #: In-flight ``submit_items`` handles not yet resolved or
        #: cancelled; ``close()`` settles them deterministically.
        self._pending: list[PendingItems] = []

    # -- persistent warm pool (batch-streaming clients) ----------------------

    def __enter__(self) -> "CampaignRunner":
        """Start a persistent worker pool: targets are built and
        snapshotted once per worker and then reused across every
        ``run``/``run_items`` call inside the ``with`` block --
        batch-streaming clients (the greybox fuzzer) would otherwise
        pay a full per-worker rebuild on every batch."""
        jobs = self.jobs or 1
        if jobs > 1:
            if machine_module._DEFAULT_OBSERVER_FACTORIES:
                warnings.warn(
                    f"CampaignRunner(jobs={jobs}) is running sequentially: "
                    "observe_new_machines() default observer factories are "
                    "active, and observers cannot cross worker process "
                    "boundaries",
                    RuntimeWarning,
                    stacklevel=2,
                )
            else:
                self._pool = self._new_pool(jobs)
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def _new_pool(self, workers: int) -> ProcessPoolExecutor:
        """A pool whose workers each hold one warm session on the
        parent's dispatch tier."""
        return ProcessPoolExecutor(
            max_workers=workers,
            initializer=_worker_init,
            initargs=(self.factory, self.trial, machine_module.default_tier()),
        )

    def _settle(self, handle: PendingItems) -> None:
        try:
            self._pending.remove(handle)
        except ValueError:
            pass

    def close(self) -> None:
        """Release the persistent pool and the cached warm session.

        Outstanding :meth:`submit_items` handles are settled first,
        deterministically: pooled batches are already executing, so
        they are *drained* (their verdicts stay collectable through
        ``.result()`` after close); lazy batches have not started, so
        they are *cancelled* (resolving them later would silently
        resurrect the warm session this close just dropped).
        """
        for handle in list(self._pending):
            if handle._futures is not None:
                handle.result()
            else:
                handle.cancel()
        if self._pool is not None:
            self._pool.shutdown()
            self._pool = None
        # The sequential warm session pins a built machine plus its
        # baseline snapshot pages; a closed runner must not keep them
        # alive for its own lifetime.
        self._session = None

    def run(self, trials: int) -> CampaignResult:
        """Execute ``trials`` snapshot/restore trials (index order)."""
        return self.run_items(range(trials))

    def run_items(self, items) -> CampaignResult:
        """Run one trial per explicit ``item`` (instead of an index).

        The trial callable receives each item where :meth:`run` would
        pass an index -- the greybox fuzzer ships batches of mutated
        inputs this way.  Results come back in item order and are
        identical to the sequential path (each trial starts from the
        same restored snapshot and sees only its own item).  Inside a
        ``with runner:`` block the warm worker pool (or the warm
        sequential session) is reused across calls.
        """
        return self.submit_items(items).result()

    def submit_items(self, items) -> PendingItems:
        """Dispatch ``items`` without waiting for their verdicts.

        Inside a ``with runner:`` block the items start executing on
        the persistent pool immediately, split into
        :attr:`chunksize`-item work units, and the returned
        :class:`PendingItems` collects them later -- a pipelined
        client generates its next mutation batch while this one runs.
        Outside a pool the work is deferred to ``.result()`` (the
        sequential warm session or a per-call pool), preserving
        run_items semantics exactly.
        """
        handle = PendingItems(self, list(items))
        if handle._items and self._pool is not None:
            handle._submit(self._pool, self.jobs, self.chunksize)
        self._pending.append(handle)
        return handle

    def run_cold(self, trials: int) -> CampaignResult:
        """The comparison baseline: rebuild the target for every trial.

        What every repeated-trial experiment did before snapshots --
        full compile + link + load per trial.  Used by the benchmark
        suite and the differential tests to prove restore-based trials
        byte-identical (and much faster) than fresh-machine trials.
        """
        started = perf_counter()
        verdicts = []
        for index in range(trials):
            target = self.factory()
            verdicts.append(self.trial(target, index))
        return CampaignResult(
            verdicts, trials, 1, perf_counter() - started, 0, mode="cold",
        )
