"""The benchmark's own arithmetic: self time, reference ratios, the tail
rule, failed ops.

    python3 -m pytest bench/tests
"""

import sys
import types

import pytest

import spans
from stats import Tally, paired_ratios, tail_percentile


def span(name, start, end, parent=-1):
    return [name, start, end, parent, 0]


def test_self_time_nested_chain():
    s = [span("a", 0.0, 10.0), span("b", 1.0, 9.0, 0), span("c", 2.0, 8.0, 1)]
    # a grandchild is subtracted from its parent only, not from its grandparent
    assert spans.self_times(s) == pytest.approx([2.0, 2.0, 6.0])


def test_self_time_child_partly_outside_parent():
    s = [span("a", 0.0, 10.0), span("b", 8.0, 12.0, 0)]
    assert spans.self_times(s) == pytest.approx([8.0, 4.0])


def test_self_time_siblings_disjoint_and_overlapping():
    disjoint = [span("a", 0.0, 10.0), span("b", 1.0, 2.0, 0), span("c", 4.0, 6.0, 0)]
    assert spans.self_times(disjoint)[0] == pytest.approx(7.0)
    overlapping = [span("a", 0.0, 10.0), span("b", 1.0, 3.0, 0), span("c", 2.0, 6.0, 0)]
    assert spans.self_times(overlapping)[0] == pytest.approx(5.0)


def test_layer_totals_count_nested_same_layer_once_inclusive():
    s = [span("harness.output", 0.0, 4.0), span("harness.output", 1.0, 3.0, 0)]
    t = spans.layer_totals(s)["harness.output"]
    assert t["calls"] == 2
    assert t["self_s"] == pytest.approx(4.0)
    assert t["incl_s"] == pytest.approx(4.0)


def test_tracer_links_parents_and_counts():
    tracer = spans.Tracer()
    inner = tracer.wrap("inner", lambda k: list(range(k)), lambda a, kw, out: len(out))
    outer = tracer.wrap("outer", lambda: inner(3) + inner(2))
    assert outer() == [0, 1, 2, 0, 1]
    names = [(s[spans.NAME], s[spans.PARENT], s[spans.COUNT]) for s in tracer.spans]
    assert names == [("outer", -1, 0), ("inner", 0, 3), ("inner", 0, 2)]


def test_hooked_restores_names_and_reports_missing(monkeypatch):
    module = types.ModuleType("fake_mod")
    module.present = lambda: 1
    monkeypatch.setitem(sys.modules, "fake_mod", module)
    monkeypatch.setattr(spans, "HOOKS", (("fake_mod", "present", "x", None),
                                         ("fake_mod", "gone", "y", None)))
    original = module.present
    tracer = spans.Tracer()
    with spans.hooked(tracer) as missing:
        assert module.present() == 1
    assert missing == ["y"]
    assert module.present is original
    assert [s[spans.NAME] for s in tracer.spans] == ["x"]


def test_paired_ratios_use_the_reference_runs_on_both_sides():
    # refs[i] runs before times[i] and refs[i + 1] after it
    assert paired_ratios([2.0, 3.0], [1.0, 3.0, 3.0]) == pytest.approx([1.0, 1.0])
    # a failed op gives no ratio, and its neighbours keep their own references
    assert paired_ratios([None, 4.0], [1.0, 1.0, 3.0]) == pytest.approx([2.0])
    with pytest.raises(ValueError):
        paired_ratios([1.0], [1.0])


@pytest.mark.parametrize("n, expected", [
    (10, None),                 # nothing has ten samples beyond it
    (11, (9, 1.0, 10)),         # rank 1 leaves exactly ten beyond
    (20, (50, 10.0, 10)),
    (100, (90, 90.0, 10)),
    (160, (93, 149.0, 11)),     # p94 would leave only nine beyond
])
def test_tail_percentile_keeps_ten_beyond(n, expected):
    samples = [float(i) for i in range(n, 0, -1)]  # order must not matter
    assert tail_percentile(samples) == expected


def test_hash_mismatch_counts_as_failed_op():
    tally = Tally()
    assert tally.check(["aa"], ["aa"])
    assert not tally.check(["ab"], ["aa"])
    assert not tally.check(None, ["aa"], error="ValueError: diverged")
    assert (tally.attempted, tally.failed) == (3, 2)
    assert tally.error_rate == pytest.approx(2 / 3)
