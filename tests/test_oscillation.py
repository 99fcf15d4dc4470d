"""Mean oscillation, BMO sweeps, and the jump criterion."""

import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import assume, given, strategies as st

from stripzeros import (
    GridRangeError,
    InsufficientJumpError,
    NotMonotoneError,
    PreconditionError,
    SampledFunction,
    bmo_estimate,
    check_fast2,
    mean_oscillation,
    oscillation,
)


def sampled(f, t0, h, n):
    return SampledFunction(t0, h, np.asarray(f(t0 + h * np.arange(n)), dtype=float))


def exact_oscillation(f, a, b):
    """Mean and mean oscillation of the interpolant on ``[a, b]``, in rationals.

    Each cell is integrated exactly; where the interpolant crosses the mean
    the cell is split at the crossing into two triangles.
    """
    ts = [Fraction(t) for t in f.grid.tolist()]
    vs = [Fraction(v) for v in f.values.tolist()]
    a, b = Fraction(a), Fraction(b)

    def value(x):
        k = max(i for i in range(len(ts) - 1) if ts[i] <= x)
        return vs[k] + (vs[k + 1] - vs[k]) * (x - ts[k]) / (ts[k + 1] - ts[k])

    xs = [a] + [t for t in ts if a < t < b] + [b]
    ys = [value(x) for x in xs]
    cells = list(zip(xs, xs[1:], ys, ys[1:]))
    mean = sum((x1 - x0) * (y0 + y1) / 2 for x0, x1, y0, y1 in cells) / (b - a)
    total = Fraction(0)
    for x0, x1, y0, y1 in cells:
        p, q = y0 - mean, y1 - mean
        if p * q >= 0:
            total += (x1 - x0) * (abs(p) + abs(q)) / 2
        else:
            root = x0 + (x1 - x0) * abs(p) / (abs(p) + abs(q))
            total += (root - x0) * abs(p) / 2 + (x1 - root) * abs(q) / 2
    return float(mean), float(total / (b - a))


def dyadic_family(f, min_len, max_len):
    """The sweep's intervals in scan order: lengths up, anchors left to right."""
    span, length = f.t_end - f.t0, min_len
    while length <= max_len * (1 + 1e-12):
        for j in range(math.floor((span - length) / (length / 4) + 1e-9) + 1):
            a = f.t0 + j * (length / 4)
            yield a, min(a + length, f.t_end)
        length *= 2.0


def close(x, y, scale):
    return math.isclose(x, y, rel_tol=1e-12, abs_tol=1e-12 * scale)


_signals = st.builds(
    SampledFunction,
    st.floats(-50.0, 50.0),
    st.floats(0.01, 2.0),
    st.lists(st.floats(-10.0, 10.0), min_size=3, max_size=40).map(np.array),
)


# ----------------------------------------------------------------------
# mean oscillation


def test_constant_has_zero_oscillation():
    f = sampled(lambda t: np.full_like(t, 7.0), -5.0, 0.01, 1001)
    rep = mean_oscillation(f, -2.0, 3.0)
    assert rep.mean == pytest.approx(7.0)
    assert rep.oscillation == pytest.approx(0.0, abs=1e-12)


def test_linear_on_unit_interval():
    h = 0.001
    f = sampled(lambda t: t, -1.0, h, 3001)
    rep = mean_oscillation(f, 0.0, 1.0)
    assert rep.mean == pytest.approx(0.5, abs=h)
    assert rep.oscillation == pytest.approx(0.25, abs=h)


def test_step_function_oscillation():
    h = 0.001
    f = sampled(lambda t: np.where(t > 0.5, 6.0, 0.0), -1.0, h, 3001)
    rep = mean_oscillation(f, -1.0, 2.0)
    assert rep.mean == pytest.approx(3.0, abs=2 * h * 6 / 3)
    assert rep.oscillation == pytest.approx(3.0, abs=2 * h * 6 / 3)


def test_interval_outside_grid():
    f = sampled(lambda t: t, 0.0, 0.1, 11)
    with pytest.raises(GridRangeError):
        mean_oscillation(f, -1.0, 0.5)


def test_interval_shorter_than_two_steps():
    f = sampled(lambda t: t, 0.0, 0.1, 11)
    with pytest.raises(PreconditionError, match="shorter than two grid steps"):
        mean_oscillation(f, 0.2, 0.35)


def test_mean_crossing_cell_is_exact():
    # the interpolant crosses the mean 1/4 inside [0, 1]; a trapezoid of
    # |f - mean| would give 0.625
    f = SampledFunction(0.0, 1.0, np.array([-1.0, 0.5, 1.0]))
    rep = mean_oscillation(f, 0.0, 2.0)
    assert rep.mean == 0.25
    assert rep.oscillation == pytest.approx(25 / 48, rel=1e-15)


@given(f=_signals, u=st.floats(0.0, 1.0), v=st.floats(0.0, 1.0))
def test_mean_oscillation_matches_rational_oracle(f, u, v):
    a = f.t0 + u * (f.t_end - f.t0 - 2 * f.h)
    b = min(a + 2 * f.h + v * (f.t_end - a - 2 * f.h), f.t_end)
    assume(b - a >= 2 * f.h)
    rep = mean_oscillation(f, a, b)
    mean, osc = exact_oscillation(f, a, b)
    scale = float(np.abs(f.values).max())
    assert close(rep.mean, mean, scale)
    assert close(rep.oscillation, osc, scale)


def test_oscillation_shift_and_scale():
    rng = np.random.default_rng(0)
    vals = np.cumsum(rng.standard_normal(500))
    f = SampledFunction(0.0, 0.01, vals)
    base = mean_oscillation(f, 0.3, 4.2)
    shifted = mean_oscillation(SampledFunction(0.0, 0.01, vals + 11.5), 0.3, 4.2)
    assert shifted.oscillation == pytest.approx(base.oscillation, rel=1e-12)
    scaled = mean_oscillation(SampledFunction(0.0, 0.01, -3.0 * vals), 0.3, 4.2)
    assert scaled.oscillation == pytest.approx(3.0 * base.oscillation, rel=1e-12)


# ----------------------------------------------------------------------
# BMO sweep


def test_bmo_constant_is_zero():
    f = sampled(lambda t: np.full_like(t, 2.0), -10.0, 0.05, 401)
    assert bmo_estimate(f, 1.0, 8.0).oscillation == pytest.approx(0.0, abs=1e-12)


def test_bmo_bounded_function_bound():
    rng = np.random.default_rng(1)
    bound = 3.0
    f = SampledFunction(-20.0, 0.01, rng.uniform(-bound, bound, 4001))
    rep = bmo_estimate(f, 0.1, 16.0)
    assert rep.oscillation <= 2 * bound + 1e-9


def test_bmo_monotone_in_family():
    rng = np.random.default_rng(2)
    f = SampledFunction(-20.0, 0.01, np.cumsum(rng.standard_normal(4001)) * 0.05)
    small = bmo_estimate(f, 1.0, 2.0).oscillation
    big = bmo_estimate(f, 1.0, 16.0).oscillation
    assert big >= small - 1e-12


def test_bmo_of_log_abs():
    # canonical unbounded BMO function; notch at 0 filled by interpolation
    results = {}
    for h in (0.01, 0.005):
        n = int(round(200.0 / h)) + 1
        ts = -100.0 + h * np.arange(n)
        with np.errstate(divide="ignore"):
            vals = np.log(np.abs(ts))
        bad = ~np.isfinite(vals)
        vals[bad] = np.interp(ts[bad], ts[~bad], vals[~bad])
        f = SampledFunction(-100.0, h, vals)
        rep = bmo_estimate(f, 4 * h, 50.0)
        # the witness starts on an exact quarter-length anchor t0 + j*L/4
        length = 4 * h * 2.0 ** round(math.log2((rep.b - rep.a) / (4 * h)))
        j = round((rep.a + 100.0) / (length / 4))
        assert rep.a == -100.0 + j * (length / 4)
        results[h] = rep.oscillation
    for v in results.values():
        assert 0.5 <= v <= 2.0
    a, b = results[0.01], results[0.005]
    assert abs(a - b) <= 0.1 * max(a, b)


@given(f=_signals, u=st.floats(0.0, 1.0), v=st.floats(0.0, 1.0))
def test_bmo_is_the_exact_family_maximum(f, u, v):
    span = f.t_end - f.t0
    assume(span >= 2.5 * f.h)
    min_len = 2.5 * f.h + u * (span - 2.5 * f.h)
    max_len = min_len + v * (span - min_len)
    rep = bmo_estimate(f, min_len, max_len)
    scale = float(np.abs(f.values).max())
    assert (rep.a, rep.b) in set(dyadic_family(f, min_len, max_len))
    assert close(rep.oscillation, mean_oscillation(f, rep.a, rep.b).oscillation, scale)
    assert close(rep.oscillation, exact_oscillation(f, rep.a, rep.b)[1], scale)
    for a, b in dyadic_family(f, min_len, max_len):
        assert mean_oscillation(f, a, b).oscillation <= rep.oscillation + 1e-12 * scale


@pytest.mark.parametrize("min_len", [0.03, 0.05])
def test_blocked_sweep_matches_row_by_row(monkeypatch, min_len):
    # min_len is 3h or 5h: quarter lengths of 0.75h, 1.25h, 1.5h, 2.5h put
    # most anchors between nodes
    rng = np.random.default_rng(3)
    f = SampledFunction(-4.0, 0.01, np.cumsum(rng.standard_normal(801)) * 0.1)
    whole = bmo_estimate(f, min_len, 2.0)
    monkeypatch.setattr(oscillation, "BLOCK_ELEMS", 100)
    assert bmo_estimate(f, min_len, 2.0) == whole
    rows = [mean_oscillation(f, a, b) for a, b in dyadic_family(f, min_len, 2.0)]
    first = max(rows, key=lambda r: r.oscillation)
    assert (first.a, first.b) == (whole.a, whole.b)
    assert whole.mean == pytest.approx(first.mean, rel=1e-12)
    assert whole.oscillation == pytest.approx(first.oscillation, rel=1e-12)


def test_bmo_validates_lengths():
    f = sampled(lambda t: t, 0.0, 0.1, 101)
    with pytest.raises(PreconditionError):
        bmo_estimate(f, 0.05, 1.0)  # below 2h
    with pytest.raises(PreconditionError):
        bmo_estimate(f, 1.0, 100.0)  # beyond span


# ----------------------------------------------------------------------
# jump criterion


def test_fast2_step_of_height_six():
    h = 0.001
    g = sampled(lambda t: np.where(t > 0.5, 6.0, 0.0), -2.0, h, 6001)
    chk = check_fast2(g, 0.0, 6.0)
    assert chk.passed
    assert chk.threshold == 1.0
    assert chk.oscillation == pytest.approx(3.0, abs=4 * h * 6)
    assert chk.oscillation >= 1.0


def test_fast2_clipped_ramp():
    # direct piecewise integration: mean M/2, |g - mean| integrates to
    # M/2 + M/4 + M/2 over the three unit pieces, so p_I = 5M/12
    h = 0.001
    m = 10.0
    g = sampled(lambda t: m * np.clip(t, 0.0, 1.0), -2.0, h, 6001)
    chk = check_fast2(g, 0.0, m)
    assert chk.passed
    assert chk.oscillation == pytest.approx(5 * m / 12, abs=4 * h * m)


def test_fast2_insufficient_jump():
    h = 0.001
    g = sampled(lambda t: np.where(t > 0.5, 5.4, 0.0), -2.0, h, 6001)
    with pytest.raises(InsufficientJumpError, match="insufficient jump"):
        check_fast2(g, 0.0, 6.0)


@pytest.mark.parametrize("jump", [0.0, -1.0, math.nan])
def test_fast2_needs_a_positive_jump(jump):
    g = SampledFunction(0.0, 0.001, np.linspace(0.0, 10.0, 3001))
    with pytest.raises(PreconditionError, match="jump size must be positive"):
        check_fast2(g, 1.0, jump)


def test_fast2_not_monotone():
    g = SampledFunction(-2.0, 0.001, np.sin(np.arange(6001) * 0.01))
    with pytest.raises(NotMonotoneError):
        check_fast2(g, 0.0, 1.0)


def test_fast2_out_of_range():
    g = SampledFunction(0.0, 0.001, np.linspace(0.0, 10.0, 3001))
    with pytest.raises(GridRangeError):
        check_fast2(g, 0.5, 1.0)


def test_fast2_randomized_nondecreasing():
    """Quantified check of the M/6 bound on randomized admissible inputs."""
    rng = np.random.default_rng(42)
    failures = 0
    for _ in range(1000):
        m = float(rng.uniform(1.0, 100.0))
        h = float(rng.uniform(1e-3, 3e-3))
        a = float(rng.uniform(-1.0, 1.0))
        t0 = a - 1.0 - 0.1
        n = int(round((3.2) / h)) + 1
        ts = t0 + h * np.arange(n)
        base = np.cumsum(rng.exponential(scale=m * h / 4.0, size=n))
        ramp_lo = a + rng.uniform(0.05, 0.4)
        ramp_hi = ramp_lo + rng.uniform(0.05, 0.5)
        jump = m * np.clip((ts - ramp_lo) / (ramp_hi - ramp_lo), 0.0, 1.0)
        g = SampledFunction(t0, h, base + jump)
        chk = check_fast2(g, a, m)
        if not chk.passed:
            failures += 1
    assert failures == 0
