import numpy as np
import pytest

from shapeinv.sampling import cumulative_integral

LENGTHS = [3, 4, 5, 6, 7, 8, 64, 65, 1000, 1001, 4096, 4097, 40000, 40001]


def _grids(n, rng):
    yield np.linspace(0.0, 1.0, n)
    yield np.linspace(-3.7, 12.1, n)                # offset
    yield 1e3 * np.linspace(0.25, 0.5, n)           # scaled
    yield np.cumsum(rng.uniform(0.5, 1.5, n)) - 7.0  # unequal steps


def _integrands(x, rng):
    n = x.size
    yield rng.uniform(-1.0, 1.0, n)
    yield np.exp(rng.uniform(np.log(1e-5), np.log(1e5), n)) * rng.choice([-1.0, 1.0], n)
    yield np.sin(3.0 * x) * np.exp(-0.1 * x * x)
    yield np.zeros(n)
    yield -np.zeros(n)
    yield np.full(n, -5e-324)  # panel integrals underflow to -0.0


@pytest.mark.parametrize("n", LENGTHS)
def test_cumulative_integral_is_bit_identical_to_scipy(n):
    from scipy.integrate import cumulative_simpson

    rng = np.random.default_rng(n)
    for x in _grids(n, rng):
        for y in _integrands(x, rng):
            ours = cumulative_integral(y, x)
            ref = cumulative_simpson(y, x=x, initial=0.0)
            assert ours.shape == (n,)
            # int64 views compare every bit, the sign of zero included
            np.testing.assert_array_equal(ours.view(np.int64), ref.view(np.int64))


@pytest.mark.parametrize("x", [
    [0.0],
    [0.0, 1.0],
    [0.0, 1.0, 1.0],
    [0.0, 2.0, 1.0, 3.0],
])
def test_cumulative_integral_rejects_short_or_non_increasing_grid(x):
    x = np.asarray(x)
    with pytest.raises(ValueError):
        cumulative_integral(np.ones_like(x), x)
