"""Scaling measured rates and set-up times to the reference speed."""

import pytest

from perfbench.common import Outcome
from perfbench.speed import REFERENCE, Speedometer


def _meter(samples):
    meter = Speedometer.__new__(Speedometer)  # no sampler processes
    meter.samples = samples
    return meter


def test_speed_uses_samples_inside_the_window_on_the_chosen_cpus():
    meter = _meter([(0, 1.0, 100.0), (0, 2.0, 300.0), (1, 2.0, 900.0), (0, 9.0, 5.0)])
    assert meter.speed([(0.5, 2.5)], {0}) == pytest.approx(200.0)
    assert meter.speed([(0.5, 2.5)]) == pytest.approx(1300.0 / 3)
    # No sample inside: fall back to every sample on those CPUs.
    assert meter.speed([(20.0, 21.0)], {0}) == pytest.approx(405.0 / 3)
    assert meter.scale([(0.5, 2.5)], {0}) == pytest.approx(REFERENCE / 200.0)


def test_finish_scales_rates_up_and_times_down_on_a_slow_host():
    meter = _meter([(0, 1.0, REFERENCE / 2), (0, 3.0, REFERENCE / 2)])  # half speed
    out = Outcome()
    out.rate("jobs_per_s", [(10, 1.0, (0.0, 1.5)), (20, 2.0, (2.5, 4.0))], {0}, "jobs/s")
    out.finish(meter, [(0.5, 1.5), (2.0, 4.0), (1.0, 3.5)], {0})
    assert out.metrics["jobs_per_s"]["value"] == pytest.approx(20.0)
    assert out.record["raw"]["jobs_per_s"] == pytest.approx(10.0)
    assert out.record["setup_samples_s"] == pytest.approx([0.5, 1.0, 1.25])
    assert out.metrics["setup_s"]["value"] == pytest.approx(1.0)


def test_each_chunk_is_scaled_by_its_own_speed():
    meter = _meter([(0, 1.0, REFERENCE), (0, 3.0, REFERENCE / 4)])
    out = Outcome()
    # 10 ops in 1 s at full speed, 10 ops in 4 s at quarter speed.
    out.rate("ops", [(10, 1.0, (0.5, 1.5)), (10, 4.0, (2.5, 3.5))], {0}, "1/s")
    out.finish(meter, [(0.0, 1.0)], {0})
    assert out.metrics["ops"]["value"] == pytest.approx(20 / (1.0 + 1.0))
    assert out.record["raw"]["ops"] == pytest.approx(20 / 5.0)
