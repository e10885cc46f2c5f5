"""Self time recovered from span intervals."""

import pytest

from bench.tracing import self_times


def test_self_time_subtracts_direct_children_only():
    spans = [
        ("child", 1.0, 3.0),
        ("grandchild", 2.0, 1.0),
        ("parent", 0.0, 10.0),
        ("child", 5.0, 4.0),
    ]
    table = self_times(spans)
    assert table["parent"] == pytest.approx([1, 10.0, 3.0])
    assert table["child"] == pytest.approx([2, 7.0, 6.0])
    assert table["grandchild"] == pytest.approx([1, 1.0, 1.0])


def test_a_span_starting_as_its_sibling_ends_is_not_its_child():
    table = self_times([("a", 0.0, 1.0), ("b", 1.0, 1.0)])
    assert table["a"] == pytest.approx([1, 1.0, 1.0])
    assert table["b"] == pytest.approx([1, 1.0, 1.0])
