"""Unit tests of the CPU speed calibration.

    python3 -m pytest benchmarks/e2e/test_calibration.py -q
"""

import gc

import pytest

import calibration

REFERENCE = calibration.REFERENCE_S


def test_speed_is_reference_over_the_mean_kernel_time_of_the_interval():
    # one sample a second: at reference speed until t=5, then twice as slow
    samples = [[float(t), REFERENCE if t < 5 else 2 * REFERENCE] for t in range(20)]
    speed = calibration.CpuSpeed(samples)
    assert speed.over(0.0, 4.0) == pytest.approx(1.0)
    assert speed.over(5.0, 19.0) == pytest.approx(0.5)
    # half the samples at each speed: the mean kernel time is 1.5 x
    assert speed.over(0.0, 9.0) == pytest.approx(1 / 1.5)


def test_a_short_interval_is_judged_by_the_samples_around_it():
    samples = [[float(t), REFERENCE if t < 10 else 2 * REFERENCE] for t in range(20)]
    speed = calibration.CpuSpeed(samples)
    # no sample falls inside; the MIN_SAMPLES around t=15.5 are all slow
    assert speed.over(15.4, 15.6) == pytest.approx(0.5)
    # at the ends the window stays inside the samples
    assert speed.over(-3.0, -2.0) == pytest.approx(1.0)
    assert speed.over(30.0, 31.0) == pytest.approx(0.5)
    assert calibration.CpuSpeed([]).over(0.0, 1.0) == 1.0


def test_the_kernel_never_triggers_a_garbage_collection():
    calibration.kernel()
    before = gc.get_count()[0]
    for _ in range(100):
        calibration.kernel()
    assert gc.get_count()[0] == before
