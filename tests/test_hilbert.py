"""Regularized Hilbert transform: evaluator quadrature and sampled grids."""

import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.integrate import IntegrationWarning, quad
from scipy.special import dawsn

from stripzeros import (
    PreconditionError,
    SampledFunction,
    hilbert_transform,
    hilbert_transform_sampled,
)
from stripzeros.hilbert import _fast_len, _hat_kernel

def gaussian(t):
    return np.exp(-np.square(t))


def gaussian_transform(x):
    """H(exp(-t^2)) = (2/sqrt(pi)) * Dawson(x); the regularization term is odd."""
    return 2.0 / math.sqrt(math.pi) * dawsn(x)


def indicator(t):
    t = np.asarray(t, dtype=float)
    return np.where((t >= -1.0) & (t <= 1.0), 1.0, 0.0)


def smooth_bump(center, width, height):
    def f(t):
        t = np.asarray(t, dtype=float)
        u = (t - center) / width
        out = np.zeros_like(t)
        inside = np.abs(u) < 1.0
        out[inside] = height * np.exp(1.0 - 1.0 / (1.0 - u[inside] ** 2))
        return out

    return f


# ----------------------------------------------------------------------
# evaluator


def test_constants_transform_to_zero():
    for c in (-10.0, 1.0, 4.5, 10.0):
        for x in (0.0, 3.0, -7.5, 10.0):
            v = hilbert_transform(lambda t, c=c: np.full_like(t, c), x)
            assert abs(v) <= 1e-9


@pytest.mark.parametrize("x", [3.0, 1.001, -1.0005, 1.0003, 100.0])
def test_indicator_against_closed_form(x):
    # oracle first: p.v. integral of 1/(x-t) over [-1,1] is log|(x+1)/(x-1)|
    # and the odd regularization term vanishes there; confirm with adaptive
    # quadrature before pinning the expected value
    closed = math.log(abs((x + 1.0) / (x - 1.0))) / math.pi
    sing, _ = quad(lambda t: 1.0, -1.0, 1.0, weight="cauchy", wvar=x)
    reg, _ = quad(lambda t: t / (1 + t * t), -1.0, 1.0)
    assert (-sing + reg) / math.pi == pytest.approx(closed, abs=1e-9)
    ours = hilbert_transform(indicator, x, breakpoints=(-1.0, 1.0))
    assert ours == pytest.approx(closed, abs=1e-10)


def test_cosine_transforms_to_sine():
    for x in np.linspace(-10.0, 10.0, 21):
        v = hilbert_transform(np.cos, float(x), window=1e5)
        assert v == pytest.approx(math.sin(x), abs=1e-3)


def test_cosine_against_quadrature_oracle():
    # independent p.v. quadrature on a finite window plus the analytic
    # bound for what is dropped; checks our value to ~1e-4 at a few points
    for x in (0.0, 1.5, -4.0):
        big = 5e4
        sing = 0.0
        for lo, hi in ((-big, x - 1.0), (x + 1.0, big)):
            val, _ = quad(
                lambda t: math.cos(t) / (x - t), lo, hi, limit=int(hi - lo) + 50
            )
            sing += val
        odd, _ = quad(lambda s: (math.cos(x - s) - math.cos(x + s)) / s, 0.0, 1.0, limit=100)
        reg, _ = quad(lambda t: math.cos(t) * t / (1 + t * t), -big, big, limit=200000)
        oracle = (sing + odd + reg) / math.pi
        ours = hilbert_transform(np.cos, x, window=1e5)
        assert ours == pytest.approx(oracle, abs=2e-4)


@pytest.mark.parametrize(
    "x, window",
    [(50.0, 100.0), (0.0, math.inf), (0.0, math.nan), (math.nan, 1e4),
     (math.inf, math.inf), (1e307, 1.7e308), (3e11, 3e12), (1e12, 1e13)],
)
def test_window_must_dominate_x(x, window):
    # too small or nonfinite (the mesh end x + window too), or an x so large
    # that x +- EXCISION/2 round onto x: rejected before the evaluator runs
    def never(t):
        raise AssertionError("evaluated before the window was checked")

    with pytest.raises(PreconditionError, match="window"):
        hilbert_transform(never, x, window=window)


def test_nonfinite_samples_rejected():
    def bad(t):
        t = np.asarray(t, dtype=float)
        out = np.ones_like(t)
        out[t > 50.0] = np.inf
        return out

    with pytest.raises(PreconditionError, match="nonfinite"):
        hilbert_transform(bad, 0.0)


def test_excision_warning_on_jump_at_the_point():
    # a jump exactly at x defeats the odd-part cancellation: halving the
    # excision then moves the result, which must be reported
    def jump(t):
        t = np.asarray(t, dtype=float)
        return np.where(t >= 2.0, 1.0, 0.0)

    with pytest.warns(UserWarning, match="excision"):
        hilbert_transform(jump, 2.0)


@pytest.mark.parametrize("x", [0.0, 0.7, 3.0, -5.0, 40.0])
def test_gaussian_against_dawson(x):
    assert hilbert_transform(gaussian, x) == pytest.approx(gaussian_transform(x), abs=1e-6)


@pytest.mark.parametrize("x", [-7.0, 30.0, -50.0])
def test_bump_against_quadrature_oracle(x):
    # x lies outside the support (-4, 6), so plain adaptive quadrature of
    # the whole kernel is an independent oracle
    bump = smooth_bump(1.0, 5.0, 1.0)

    def kernel(t):
        return float(bump(np.array([t]))[0]) * (1.0 / (x - t) + t / (1.0 + t * t))

    oracle, _ = quad(kernel, -4.0, 6.0, limit=400, epsabs=1e-14, epsrel=1e-12)
    assert hilbert_transform(bump, x) == pytest.approx(oracle / math.pi, abs=2e-6)


def test_evaluator_is_called_once():
    calls = []

    def counting(t):
        calls.append(np.shape(t))
        return np.full_like(t, 2.5)

    assert hilbert_transform(counting, 3.0, breakpoints=(-1.0, 1.0)) == 0.0
    assert len(calls) == 1 and len(calls[0]) == 1


# ----------------------------------------------------------------------
# sampled grids


def test_sampled_constant_is_zero():
    f = SampledFunction(-150.0, 0.05, np.full(6001, 3.7))
    out = hilbert_transform_sampled(f)
    assert np.abs(out.values).max() <= 1e-6
    assert np.abs(out.values).max() <= 1e-12


def test_sampled_gaussian_against_dawson():
    f = SampledFunction.from_function(gaussian, -150.0, 0.01, 30001)
    out = hilbert_transform_sampled(f)
    mid = np.abs(f.grid) <= 50.0
    assert np.abs(out.values[mid] - gaussian_transform(f.grid[mid])).max() <= 2e-5


def test_sampled_requires_wide_grid():
    f = SampledFunction(-50.0, 0.1, np.zeros(1001))
    with pytest.raises(PreconditionError, match="cover"):
        hilbert_transform_sampled(f)


def test_sampled_linearity():
    rng = np.random.default_rng(8)
    t0, h, n = -120.0, 0.05, 4801
    a_vals = rng.standard_normal(n)
    b_vals = rng.standard_normal(n)
    fa = SampledFunction(t0, h, a_vals)
    fb = SampledFunction(t0, h, b_vals)
    combo = SampledFunction(t0, h, 2.5 * a_vals - 1.25 * b_vals)
    lhs = hilbert_transform_sampled(combo).values
    rhs = 2.5 * hilbert_transform_sampled(fa).values - 1.25 * hilbert_transform_sampled(fb).values
    assert np.abs(lhs - rhs).max() <= 1e-8


def test_sampled_against_quadrature_oracle():
    # compactly supported samples: the constant tails vanish, so adaptive
    # quadrature of the interpolant is a fully independent oracle
    h = 0.5
    n = int(round(300.0 / h)) + 1
    ts = -150.0 + h * np.arange(n)
    vals = np.zeros(n)
    inside = np.abs(ts) <= 20.0
    vals[inside] = np.sin(ts[inside] * 0.3) * np.exp(-np.abs(ts[inside]) / 15.0)
    f = SampledFunction(-150.0, h, vals)
    ours = hilbert_transform_sampled(f)

    def interp(t):
        return np.interp(t, ts, vals)

    for x in (0.0, 3.0, 25.0, -60.0):
        with warnings.catch_warnings():
            # quad reports roundoff on the kinked interpolant; its result
            # is still good to ~1e-6 here
            warnings.simplefilter("ignore", IntegrationWarning)
            sing, _ = quad(interp, -150.0, 150.0, weight="cauchy", wvar=x, limit=400)
            reg, _ = quad(
                lambda t: interp(t) * t / (1 + t * t), -150.0, 150.0,
                limit=400, points=[-20.0, 0.0, 20.0],
            )
        oracle = (-sing + reg) / math.pi
        i = int(round((x - f.t0) / h))
        assert ours.values[i] == pytest.approx(oracle, abs=5e-6)


def test_sampled_cosine_model_semantics():
    """Transform of sampled cos: exact for the extension model.

    The sampled transform sees cos on [-200, 200] continued by the
    constants cos(-200), cos(200); relative to sin that model carries the
    analytic edge term (cos(W)/pi) * log((W-x)/(W+x)), about 1.6e-2 at
    x = 10.  Subtracting it, the grid part matches sin to a few 1e-4.
    """
    t0, h, n = -200.0, 0.01, 40001
    ts = t0 + h * np.arange(n)
    out = hilbert_transform_sampled(SampledFunction(t0, h, np.cos(ts)))
    mid = np.abs(ts) <= 10.0
    w = 200.0
    edge = (math.cos(w) / math.pi) * np.log((w - ts[mid]) / (w + ts[mid]))
    raw = np.abs(out.values[mid] - np.sin(ts[mid])).max()
    corrected = np.abs(out.values[mid] - edge - np.sin(ts[mid])).max()
    assert corrected <= 2e-3
    assert raw <= 0.02


def _involution_spread(center, width, height):
    """Half the spread of ``H(Hf) + f`` on the central half of a wide grid."""
    f = SampledFunction.from_function(
        smooth_bump(center, width, height), -1000.0, 0.02, 100001
    )
    hhf = hilbert_transform_sampled(hilbert_transform_sampled(f))
    resid = -hhf.values - f.values
    dev = resid[np.abs(f.grid) <= 500.0]
    return (dev.max() - dev.min()) / 2.0


def test_involution_on_smooth_bumps():
    params = [
        (0.0, 5.0, 1.0),
        (20.0, 10.0, 0.7),
        (-15.0, 8.0, 1.0),
        (5.0, 3.0, 0.5),
        (-30.0, 6.0, 0.9),
    ]
    for center, width, height in params:
        assert _involution_spread(center, width, height) <= 1e-3


@settings(max_examples=15, deadline=None)
@given(
    center=st.floats(-30.0, 30.0),
    width=st.floats(3.0, 10.0),
    height=st.floats(0.1, 1.0),
)
def test_involution_on_smooth_bumps_property(center, width, height):
    assert _involution_spread(center, width, height) <= 1e-3


# ----------------------------------------------------------------------
# the cyclic real-FFT convolution


def _is_5_smooth(k):
    for p in (2, 3, 5):
        while k % p == 0:
            k //= p
    return k == 1


def test_fast_len_is_smallest_5_smooth_length():
    smooth = [k for k in range(1, 2100) if _is_5_smooth(k)]
    for n in range(1, 2001):
        assert _fast_len(n) == next(k for k in smooth if k >= n)


# 2n-1 prime (7, 10, 12, 16, 1000, 19006) or itself 5-smooth, so the cyclic
# length is exactly 2n-1 (1094, 1563, 9842): the cases closest to aliasing
@pytest.mark.parametrize("n", [7, 10, 12, 16, 1000, 1094, 1563, 9842, 19006])
def test_sampled_singular_part_matches_direct_convolution(n):
    # with zero end values only the x-independent regularization term is
    # added to the singular part, so pi*H(f) minus the direct convolution
    # must be one constant
    rng = np.random.default_rng(n)
    v = rng.standard_normal(n)
    v[0] = v[-1] = 0.0
    out = hilbert_transform_sampled(SampledFunction(-100.0, 200.0 / (n - 1), v))
    direct = np.convolve(v, _hat_kernel(n))[n - 1 : 2 * n - 1]
    rest = math.pi * out.values - direct
    assert np.ptp(rest) <= 1e-12 * np.abs(direct).max()


@st.composite
def _wide_grids(draw):
    """Random grids covering [-100, 100], as (t0, h, n)."""
    t0 = draw(st.floats(-300.0, -100.0))
    end = draw(st.floats(100.5, 300.0))
    n = draw(st.integers(2, 4000))
    return t0, (end - t0) / (n - 1), n


@settings(deadline=None)
@given(grid=_wide_grids(), c=st.floats(-1e3, 1e3))
def test_sampled_constant_is_zero_property(grid, c):
    t0, h, n = grid
    out = hilbert_transform_sampled(SampledFunction(t0, h, np.full(n, c)))
    assert np.abs(out.values).max() <= 1e-12 * max(abs(c), 1.0)


@settings(deadline=None)
@given(
    grid=_wide_grids(),
    seed=st.integers(0, 2**32 - 1),
    a=st.floats(-10.0, 10.0),
    b=st.floats(-10.0, 10.0),
)
def test_sampled_linearity_property(grid, seed, a, b):
    t0, h, n = grid
    rng = np.random.default_rng(seed)
    u, w = rng.standard_normal((2, n))

    def transform(values):
        return hilbert_transform_sampled(SampledFunction(t0, h, values)).values

    hu, hw = transform(u), transform(w)
    scale = abs(a) * np.abs(hu).max() + abs(b) * np.abs(hw).max()
    assert np.abs(transform(a * u + b * w) - (a * hu + b * hw)).max() <= 1e-12 * scale
