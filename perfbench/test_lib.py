"""Tests of the benchmark's own helpers: ``python3 -m pytest perfbench``."""

from __future__ import annotations

import multiprocessing

import pytest

from lib import (
    Tracer,
    layer_totals,
    load_spooled,
    mask_rates,
    merge_spans,
    percentile,
    self_times,
)


def row(span_id, name, start, end, parent=None, pid=1, value=0):
    return [span_id, name, start, end, parent, pid, 0, value]


class TestMaskRates:
    TABLE = """\
Campaign E4: return-to-libc row
+----------+--------+----------+
| preset   | trials | trials/s |
+----------+--------+----------+
| none     | 12     | {rate}     |
+----------+--------+----------+
"""

    def test_rate_column_masked_whatever_its_width(self):
        slow = mask_rates(self.TABLE.format(rate="3287"))
        fast = mask_rates(self.TABLE.format(rate="1,234,567"))
        assert slow == fast
        assert "none | 12 | #" in slow

    def test_other_columns_still_compared(self):
        assert (mask_rates(self.TABLE.format(rate="1"))
                != mask_rates(self.TABLE.replace("12 ", "13 ").format(rate="1")))

    def test_free_text_rates_and_speedups(self):
        text = ("  rollback cost     : 20281 trials/s, 2998 pages rewound\n"
                "  cold rebuild : 345.5 trials/s\n"
                "  speedup      : 15.9x\n")
        assert mask_rates(text) == (
            "  rollback cost     : # trials/s, 2998 pages rewound\n"
            "  cold rebuild : # trials/s\n"
            "  speedup      : #")

    def test_column_mask_ends_with_the_table(self):
        text = ("| a | n/s |\n| x | 5 |\n\n| b | c |\n| y | 7 |\n")
        assert mask_rates(text).splitlines() == [
            "a | n/s", "x | #", "", "b | c", "y | 7"]


class TestPercentile:
    def test_median_needs_ten_samples_above_it(self):
        assert percentile(list(range(19)), 0.5) is None
        assert percentile(list(range(1, 21)), 0.5) == 10

    def test_p90_needs_a_hundred_samples(self):
        assert percentile(list(range(99)), 0.9) is None
        assert percentile(list(range(1, 101)), 0.9) == 90

    def test_empty(self):
        assert percentile([], 0.5) is None


class TestSelfTimes:
    def test_children_are_subtracted(self):
        rows = [row(0, "root", 0.0, 10.0), row(1, "a", 1.0, 3.0, 0),
                row(2, "b", 4.0, 8.0, 0), row(3, "c", 5.0, 6.0, 2)]
        assert self_times(rows) == pytest.approx(
            {0: 4.0, 1: 2.0, 2: 3.0, 3: 1.0})

    def test_overlapping_children_count_once(self):
        rows = [row(0, "root", 0.0, 10.0), row(1, "a", 1.0, 5.0, 0),
                row(2, "b", 3.0, 7.0, 0)]
        assert self_times(rows)[0] == pytest.approx(4.0)

    def test_child_outside_its_parent_is_clipped(self):
        rows = [row(0, "root", 0.0, 4.0), row(1, "a", 3.0, 6.0, 0)]
        assert self_times(rows)[0] == pytest.approx(3.0)

    def test_self_times_add_up_to_the_root(self):
        rows = [row(0, "root", 0.0, 10.0), row(1, "a", 1.0, 3.0, 0),
                row(2, "b", 4.0, 8.0, 0), row(3, "c", 5.0, 6.0, 2)]
        assert sum(self_times(rows).values()) == pytest.approx(10.0)

    def test_layer_totals(self):
        rows = [row(0, "root", 0.0, 10.0), row(1, "run", 1.0, 3.0, 0, value=5),
                row(2, "run", 4.0, 8.0, 0, value=7)]
        totals = layer_totals(rows)
        assert totals["run"] == {"self": 6.0, "total": 6.0, "calls": 2,
                                 "value": 12}
        assert totals["root"]["self"] == pytest.approx(4.0)


class TestMergeSpans:
    MASTER = [row(0, "root", 0.0, 10.0, pid=1), row(1, "wait", 2.0, 9.0, 0, pid=1)]
    WORKER = [row(0, "worker", 2.5, 4.0, pid=2), row(1, "run", 3.0, 3.5, 0, pid=2)]

    def test_ids_renumbered_and_parents_remapped(self):
        merged = merge_spans(self.MASTER, [self.WORKER, self.WORKER])
        ids = [r[0] for r in merged]
        assert len(set(ids)) == len(ids) == 6
        by_id = {r[0]: r for r in merged}
        for r in merged[2:]:
            if r[1] == "run":
                assert by_id[r[4]][1] == "worker"
                assert by_id[r[4]][5] == r[5]
            else:
                assert r[4] is None

    def test_master_self_times_unchanged(self):
        merged = merge_spans(self.MASTER, [self.WORKER])
        master = [r for r in merged if r[5] == 1]
        assert self_times(master) == self_times(self.MASTER)
        assert layer_totals(merged)["run"]["calls"] == 1

    def test_inputs_not_mutated(self):
        worker = [list(r) for r in self.WORKER]
        merge_spans(self.MASTER, [worker])
        assert worker == self.WORKER


def _work(x):
    return x * 2


class TestTracer:
    def test_nested_spans_and_values(self):
        tracer = Tracer()
        inner = tracer.wrap("inner", _work, lambda args, result: result)
        outer = tracer.wrap("outer", lambda: inner(3))
        assert outer() == 6
        rows = tracer.rows()
        assert [r[1] for r in rows] == ["outer", "inner"]
        assert rows[1][4] == rows[0][0] and rows[1][7] == 6

    def test_forked_worker_spools_its_spans(self, tmp_path):
        tracer = Tracer()
        tracer.spool_dir = tmp_path
        work = tracer.wrap("work", _work)
        root = tracer.open("root")
        process = multiprocessing.get_context("fork").Process(
            target=work, args=(4,))
        process.start()
        process.join(timeout=30)
        tracer.close(root)
        assert process.exitcode == 0
        (spooled,) = load_spooled(tmp_path)
        assert [r[1] for r in spooled] == ["work"]
        assert spooled[0][4] is None and spooled[0][5] == process.pid
        assert [r[1] for r in tracer.rows()] == ["root"]
