"""Calibration must not divide out a slowdown of the whole process."""

import cProfile
import sys
import time

import pytest

from calibrate import Calibration


def _calls(n):
    def step(x):
        return x + 1

    total = 0
    for _ in range(n):
        total = step(total)
    return total


def _probed_window(profile=None):
    """(calibration, wall seconds) of a call-heavy window run under
    ``sys.setprofile(profile)``."""
    with Calibration() as calibration:
        sys.setprofile(profile)
        try:
            start = time.perf_counter()
            _calls(2_000_000)
            window_s = time.perf_counter() - start
        finally:
            sys.setprofile(None)
    return calibration, window_s


def test_a_profile_hook_slows_the_calibrated_window():
    calibration, window_s = _probed_window()
    plain = calibration.calibrated(window_s)
    calibration, window_s = _probed_window(lambda frame, event, arg: None)
    hooked = calibration.calibrated(window_s)
    assert calibration.durations, "the window was too short to probe"
    # The hook makes every call about 4x slower.  A probe that ran under
    # it too would divide most of that back out.
    assert hooked > 2.5 * plain
    assert sys.getprofile() is None


def test_a_hook_that_cannot_be_switched_off_is_an_error():
    profiler = cProfile.Profile()
    with Calibration() as calibration:
        profiler.enable()
        try:
            start = time.perf_counter()
            _calls(1_000_000)
            window_s = time.perf_counter() - start
        finally:
            profiler.disable()
    with pytest.raises(RuntimeError, match="cannot be switched off"):
        calibration.calibrated(window_s)
