"""Host-speed scaling: each instant counts at its nearest probe's speed."""

import pytest

from hostspeed import REFERENCE_S, HostSpeed


def _host(*probes):
    host = HostSpeed()
    for at, duration in probes:
        host.record(at, duration)
    return host


def test_reference_speed_leaves_times_unchanged():
    host = _host((0.0, REFERENCE_S), (10.0, REFERENCE_S))
    assert host.scale(2.0, 7.0) == pytest.approx(5.0)


def test_slow_host_scales_times_down():
    host = _host((0.0, 2 * REFERENCE_S), (10.0, 2 * REFERENCE_S), (20.0, 2 * REFERENCE_S))
    assert host.scale(1.0, 3.0) == pytest.approx(1.0)


def test_interval_is_cut_at_midpoints_between_probes():
    # Probes at 0, 10, 20 and 30; the two middle ones say "half speed"
    # and survive the smoothing.
    host = _host(
        (0.0, REFERENCE_S),
        (10.0, 2 * REFERENCE_S),
        (20.0, 2 * REFERENCE_S),
        (30.0, REFERENCE_S),
    )
    assert host.factors() == [1.0, 0.5, 0.5, 1.0]
    # [4, 5) at the first probe's speed, [5, 8] at the second's.
    assert host.scale(4.0, 8.0) == pytest.approx(1.0 + 1.5)


def test_one_interrupted_probe_is_smoothed_away():
    host = _host((0.0, REFERENCE_S), (1.0, 10 * REFERENCE_S), (2.0, REFERENCE_S))
    assert host.scale(0.0, 2.0) == pytest.approx(2.0)


def test_total_sums_intervals_and_no_probe_is_an_error():
    host = _host((0.0, REFERENCE_S))
    assert host.total([(0.0, 1.0), (5.0, 5.5)]) == pytest.approx(1.5)
    with pytest.raises(ValueError):
        HostSpeed().scale(0.0, 1.0)


def test_probe_if_idle_needs_room_and_spacing():
    host = HostSpeed()
    assert not host.probe_if_idle(0.0)
    assert host.probe_if_idle(1.0)
    assert not host.probe_if_idle(1.0)  # too soon after the last probe
    assert host.probes == 1
