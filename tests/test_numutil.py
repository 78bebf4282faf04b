from __future__ import annotations

import math

import numpy as np
import pytest

from charged_extensions.numutil import (
    diff1_4th,
    diff2_4th,
    fmt17,
    simpson_uniform,
    smooth_step,
    smooth_step_d1,
    smooth_step_d2,
)


def test_simpson_polynomial_exactness() -> None:
    x = np.linspace(0.0, 2.0, 9)
    assert math.isclose(simpson_uniform(x ** 3, x[1]), 4.0, abs_tol=1e-13)


def test_simpson_rejects_even_counts() -> None:
    with pytest.raises(ValueError):
        simpson_uniform(np.zeros(4), 0.1)


def test_diff_stencils_on_sine() -> None:
    x = np.linspace(0.0, 1.0, 201)
    y = np.sin(3.0 * x)
    d1 = diff1_4th(y, x[1])
    d2 = diff2_4th(y, x[1])
    assert np.abs(d1 - 3.0 * np.cos(3.0 * x)).max() < 5e-8
    assert np.abs(d2 + 9.0 * np.sin(3.0 * x)).max() < 5e-5


def test_smooth_step_endpoints_and_monotonicity() -> None:
    assert smooth_step(-0.5) == 0.0
    assert smooth_step(1.5) == 1.0
    assert math.isclose(smooth_step(0.5), 0.5, abs_tol=1e-15)
    x = np.linspace(0.0, 1.0, 300)
    assert np.all(np.diff(smooth_step(x)) >= 0.0)
    assert np.all(smooth_step_d1(x) >= 0.0)


def test_smooth_step_derivatives_match_finite_differences() -> None:
    x = np.linspace(0.05, 0.95, 61)
    h = 1e-5
    fd1 = (smooth_step(x + h) - smooth_step(x - h)) / (2.0 * h)
    fd2 = (smooth_step(x + h) - 2.0 * smooth_step(x) + smooth_step(x - h)) / h ** 2
    assert np.abs(smooth_step_d1(x) - fd1).max() < 1e-8
    assert np.abs(smooth_step_d2(x) - fd2).max() < 1e-4


@pytest.mark.parametrize("step", [smooth_step, smooth_step_d1, smooth_step_d2])
def test_smooth_steps_round_alike_alone_and_in_arrays(step) -> None:
    # A batched caller must get the value a one-point caller gets.
    rng = np.random.default_rng(7)
    edges = [1e-300, 1e-160, 1e-12, 1.0 / 746.0, 1e-3, 0.5,
             1.0 - 1e-3, 1.0 - 1e-12, np.nextafter(1.0, 0.0)]
    x = np.concatenate([rng.random(2000), np.linspace(-0.25, 1.25, 1201),
                        edges, [1.0 - e for e in edges]])
    batch = np.asarray(step(x))
    assert not np.any(np.isnan(batch))
    for k, value in enumerate(x):
        alone = step(value)
        assert np.array_equal(alone, step(np.array([value]))[0]), value
        assert np.array_equal(alone, batch[k]), value


def test_fmt17_round_trip() -> None:
    for value in (math.pi, 1.0 / 3.0, 1e-17, 123456.789):
        assert float(fmt17(value)) == value
