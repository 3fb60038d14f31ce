"""The machine-speed probe: arithmetic, timer hygiene, what the clock skips."""

import signal
import time

import pytest

import calibration


def test_slowdown_averages_speeds_not_times():
    nominal, power = calibration.NOMINAL_S, calibration.SENSITIVITY
    assert calibration.slowdown([nominal] * 4) == pytest.approx(1.0)
    assert calibration.slowdown([2 * nominal] * 7) == pytest.approx(2.0**power)
    # half the time at nominal speed, half at a third of it: speed 2/3
    assert calibration.slowdown([nominal, 3 * nominal]) == pytest.approx(1.5**power)
    # one probe descheduled for 100 nominal probes is one slow instant
    assert calibration.slowdown([nominal] * 99 + [100 * nominal]) < 1.011**power
    factor = calibration.slowdown([1.3 * nominal] * 5)
    assert calibration.probe_seconds(factor) == pytest.approx(1.3 * nominal)
    with pytest.raises(ValueError, match="no probe samples"):
        calibration.slowdown([])


def _spin(seconds):
    end = time.perf_counter() + seconds
    while time.perf_counter() < end:
        pass


def test_sampler_probes_at_once_and_then_on_the_timer():
    sampler = calibration.Sampler()
    with sampler.running():
        assert len(sampler.take()) == 1  # a stretch of any length has a sample
        _spin(8 * calibration.PERIOD_S)
    samples = sampler.take()
    assert 3 <= len(samples) <= 8
    assert all(sample > 0 for sample in samples)
    assert sampler.take() == []


def test_sampler_leaves_no_timer_and_no_handler_behind():
    before = signal.getsignal(signal.SIGALRM)
    sampler = calibration.Sampler()
    with pytest.raises(KeyError):
        with sampler.running():
            assert signal.getsignal(signal.SIGALRM) != before
            raise KeyError("the block failed")
    assert signal.getsignal(signal.SIGALRM) == before
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)
    count = len(sampler.take())
    _spin(2 * calibration.PERIOD_S)
    assert len(sampler.take()) == 0 and count >= 1


def test_clock_skips_the_time_inside_the_probe():
    sampler = calibration.Sampler()
    wall_start, start = time.perf_counter(), sampler.clock()
    with sampler.running():
        _spin(6 * calibration.PERIOD_S)
    wall, program = time.perf_counter() - wall_start, sampler.clock() - start
    samples = sampler.take()
    assert sampler.probe_wall >= sum(samples) > 0
    assert program == pytest.approx(wall - sampler.probe_wall, abs=1e-4)
    assert 0 < sampler.probe_cpu <= sampler.probe_wall * 1.5


def test_a_sleeping_program_still_pays_for_its_sleep():
    """Waits stay in the measured time: the probe only rescales it."""
    sampler = calibration.Sampler()
    with sampler.running():
        start = sampler.clock()
        time.sleep(0.1)  # resumed after every alarm (PEP 475)
        waited = sampler.clock() - start
    assert 0.08 < waited < 0.3
