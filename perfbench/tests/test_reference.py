"""Request times in ref: divided by the reference kernel's local time."""

import pytest

from perfbench.reference import WINDOW_S, in_ref, kernel


def test_kernel_is_deterministic():
    assert kernel() == kernel()


def test_cost_uses_kernel_runs_within_the_window():
    refs = [(1.0, 0.010), (1.0 + WINDOW_S / 2, 0.030), (10.0, 0.500)]
    assert in_ref([(1.1, 1.3)], refs) == [pytest.approx(0.2 / 0.020)]


def test_cost_falls_back_to_the_nearest_kernel_run():
    refs = [(1.0, 0.010), (9.0, 0.040)]
    assert in_ref([(2.0, 2.2), (8.0, 8.2)], refs) == [pytest.approx(20.0), pytest.approx(5.0)]


def test_a_host_slowdown_cancels():
    fast = in_ref([(0.0, 0.1)], [(0.2, 0.004)])
    slow = in_ref([(0.0, 0.2)], [(0.3, 0.008)])  # the same work on a host at half speed
    assert fast == pytest.approx(slow)
