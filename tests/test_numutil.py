from __future__ import annotations

import math

import numpy as np
import pytest

from charged_extensions.numutil import (
    _smooth_step_jet,
    diff1_4th,
    diff2_4th,
    fmt17,
    simpson_uniform,
    smooth_step,
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
    assert np.all(_smooth_step_jet(x, 1)[1] >= 0.0)


@pytest.mark.parametrize("order", [0, 1, 2])
def test_smooth_step_jet_matches_finite_differences(order) -> None:
    x = np.linspace(0.05, 0.95, 61)
    h = 1e-5
    fd = [smooth_step(x),
          (smooth_step(x + h) - smooth_step(x - h)) / (2.0 * h),
          (smooth_step(x + h) - 2.0 * smooth_step(x) + smooth_step(x - h)) / h ** 2]
    jet = _smooth_step_jet(x, order)
    assert len(jet) == order + 1
    assert np.array_equal(jet[0], smooth_step(x))
    for k, tol in zip(range(1, order + 1), (1e-8, 1e-4)):
        assert np.abs(jet[k] - fd[k]).max() < tol
        # A lower order is a prefix of a higher one.
        assert np.array_equal(jet[k], _smooth_step_jet(x, 2)[k])


@pytest.mark.parametrize("order", [0, 1, 2])
def test_smooth_steps_round_alike_alone_and_in_arrays(order) -> None:
    # A batched caller must get the value a one-point caller gets.
    rng = np.random.default_rng(7)
    edges = [1e-300, 1e-160, 1e-12, 1.0 / 746.0, 1e-3, 0.5,
             1.0 - 1e-3, 1.0 - 1e-12, np.nextafter(1.0, 0.0)]
    x = np.concatenate([rng.random(2000), np.linspace(-0.25, 1.25, 1201),
                        edges, [1.0 - e for e in edges]])
    batch = np.asarray(_smooth_step_jet(x, order))
    assert not np.any(np.isnan(batch))
    for k, value in enumerate(x):
        alone = np.asarray(_smooth_step_jet(value, order))
        single = np.asarray(_smooth_step_jet(np.array([value]), order))
        assert np.array_equal(alone, single[:, 0]), value
        assert np.array_equal(alone, batch[:, k]), value


def test_fmt17_round_trip() -> None:
    for value in (math.pi, 1.0 / 3.0, 1e-17, 123456.789):
        assert float(fmt17(value)) == value
