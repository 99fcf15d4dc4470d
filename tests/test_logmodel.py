"""Transform models of the log-modulus, composition gate, divergence scan."""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from stripzeros import logmodel
from stripzeros import (
    HelsonSzegoBoundError,
    HilbertLogModel,
    PreconditionError,
    SampledFunction,
    ZeroSet,
    cluster_model,
    compose_helson_szego,
    hlf_samples,
    phi,
    phi_sum,
    reconstruct_log_modulus,
    referee_example1,
    referee_example2,
    shift_to_strip,
    sine_type_model,
    theorem_divergence_scan,
)

HALF_PI = math.pi / 2.0


def template(t0, h, n):
    return SampledFunction(t0, h, np.zeros(n))


# ----------------------------------------------------------------------
# model evaluation


def test_model_rejects_a_negative_indicator_width():
    with pytest.raises(PreconditionError, match="indicator width must be >= 0"):
        HilbertLogModel(-1.0, ZeroSet([0.0], [1.0]))


def test_hlf_single_imaginary_zero():
    model = HilbertLogModel(0.0, ZeroSet([0.0], [1.0]))
    grid = template(-2.0, 0.5, 23)
    sampled, err = hlf_samples(model, grid)
    assert sampled.values == pytest.approx(-np.arctan(grid.grid), abs=1e-14)
    assert err == 0.0


def test_hlf_samples_match_pointwise_evaluation(monkeypatch):
    zs = ZeroSet([-2.0, 3.0], [0.7, 1.5], [2, 1])
    model = HilbertLogModel(1.0, zs)
    grid = template(-5.0, 0.5, 21)
    sampled, _ = hlf_samples(model, grid)
    for i, t in enumerate(grid.grid.tolist()):
        branches = [
            m * phi(complex(x, y), t).value
            for x, y, m in zip(zs.res.tolist(), zs.ims.tolist(), zs.mults.tolist())
        ]
        expected = 0.5 * t - math.fsum(branches)
        assert sampled.values[i] == pytest.approx(expected, abs=1e-12)
    # more zeros and nodes than one kernel block: samples equal the linear
    # term minus the array branch sum up to the order of subtraction; with
    # NEAR infinite every zero enters at every node, through the block path
    monkeypatch.setattr(logmodel, "NEAR", math.inf)
    rng = np.random.default_rng(8)
    zs = ZeroSet(
        rng.uniform(-60, 60, 600), rng.uniform(0.2, 3.0, 600), rng.integers(1, 4, 600)
    )
    model = HilbertLogModel(2 * math.pi, zs)
    grid = template(-25.0, 0.01, 5001)
    sampled, err = hlf_samples(model, grid)
    assert err == 0.0
    base = math.pi * grid.grid
    expected = base - phi_sum(zs, grid.grid, None).value
    tol = 8 * np.finfo(float).eps * (np.abs(base) + math.pi * zs.weight)
    assert (np.abs(sampled.values - expected) <= tol).all()


def test_hlf_samples_guard_the_tail_premise():
    # the zero set that phi_sum rejects by the range rule (Im z < 2^-511);
    # the samples keep every zero and must reject it too
    model = HilbertLogModel(1.0, ZeroSet([1e-200, 0.0], [1e-200, 1.0]))
    with pytest.raises(PreconditionError, match="outside the exact range"):
        hlf_samples(model, template(-1.0, 0.5, 5))


@pytest.mark.parametrize("n, step", [(2601, 64), (200, 64), (4, 1), (11, 3)])
def test_cubic_stencils_carry_cubics_exactly(n, step):
    # loop reference: each node's stencil is four consecutive coarse nodes
    # around its cell (the first or last four at the ends), its weights carry
    # any cubic up to rounding (one-hot at a coarse node), and omega is the
    # largest |prod (j - c)|
    coarse = np.unique(np.append(np.arange(0, n, step), n - 1))
    stencils, weights, omega = logmodel._cubic_stencils(coarse, n)
    products = []
    for j in range(n):
        cell = max(k for k, ck in enumerate(coarse) if ck <= j)
        first = min(max(cell - 1, 0), coarse.size - 4)
        assert list(stencils[j]) == [first, first + 1, first + 2, first + 3]
        c = coarse[stencils[j]]
        if j in coarse:
            assert list(weights[j]) == [float(ci == j) for ci in c]
        for k in range(4):
            assert weights[j] @ (c / n) ** k == pytest.approx((j / n) ** k, abs=1e-12)
        products.append(abs(math.prod(int(j - ci) for ci in c)))
    assert omega == max(products)


def test_hlf_samples_take_every_zero_on_fewer_than_four_coarse_nodes():
    # 129 nodes have the coarse nodes 0, 64 and 128 only: no cubic, so the
    # far zeros enter at every node and E is 0; 193 nodes have four
    zs = ZeroSet([-300.0, 0.5, 400.0], [1.0, 2.0, 3.0], [1, 2, 1])
    model = HilbertLogModel(1.0, zs)
    grid = template(-1.0, 0.01, 129)
    sampled, err = hlf_samples(model, grid)
    full = 0.5 * grid.grid - phi_sum(zs, grid.grid, None).value
    assert err == 0.0 and sampled.values.tobytes() == full.tobytes()
    assert hlf_samples(model, template(-1.0, 0.01, 193))[1] > 0.0


# the scan's grids below start in [-7.5, -5.5] and span 13: a zero with |re|
# within 5.5 + NEAR is near all of them, one beyond 7.5 + NEAR far from all
_NEAR_EDGE = 5.5 + logmodel.NEAR
_FAR_EDGE = 7.5 + logmodel.NEAR
_near_re = st.floats(-_NEAR_EDGE, _NEAR_EDGE)
_far_re = st.builds(
    lambda side, gap: side * (_FAR_EDGE + gap),
    st.sampled_from([-1.0, 1.0]),
    st.floats(1e-3, 8.0) | st.floats(8.0, 1e12),
)
_mult = st.integers(1, 4)


def _scan_grid(t0):
    n = int(round(2.0 * logmodel.SCAN_HALFSPAN / logmodel.SCAN_STEP)) + 1
    return template(t0, logmodel.SCAN_STEP, n)


def _two_tier_error(zeros, grid, width):
    # the samples must stay within E of the all-zeros model, up to the
    # rounding of two sums added in different orders; returns E
    zs = ZeroSet(*(np.array(col) for col in zip(*zeros)))
    sampled, err = hlf_samples(HilbertLogModel(width, zs), grid)
    base = 0.5 * width * grid.grid
    full = base - phi_sum(zs, grid.grid, None).value
    rounding = 16 * np.finfo(float).eps * (np.abs(base) + math.pi * zs.weight)
    assert err > 0.0
    assert (np.abs(sampled.values - full) <= err + rounding).all()
    return err


@settings(deadline=None, max_examples=60)
@given(
    near=st.lists(st.tuples(_near_re, st.floats(0.1, 30.0), _mult), max_size=20),
    far=st.lists(st.tuples(_far_re, st.floats(0.1, 30.0), _mult), min_size=1, max_size=20),
    t0=st.floats(-7.5, -5.5),
    width=st.sampled_from([0.0, 2 * math.pi]),
)
def test_two_tier_samples_lie_within_their_certified_error(near, far, t0, width):
    # on the scan's grid, the far zeros enter by cubic interpolation from
    # every COARSE-th node
    _two_tier_error(near + far, _scan_grid(t0), width)


@st.composite
def _strip_zeros(draw):
    # heights in the strip 1 <= y <= Q; near zeros within NEAR of the grid,
    # far zeros from just beyond it
    heights = st.floats(1.0, draw(st.floats(1.0, 8.0)))
    near = draw(st.lists(st.tuples(_near_re, heights, _mult), max_size=20))
    far = draw(st.lists(st.tuples(_far_re, heights, _mult), min_size=2, max_size=8))
    return near, far


@settings(deadline=None, max_examples=40)
@given(zeros=_strip_zeros(), t0=st.floats(-7.5, -5.5))
def test_cubic_remainder_uses_each_zero_of_a_mixed_height_strip(zeros, t0):
    # E = max|omega| * sum mult*y/d^5 with each far zero's own y: one far zero
    # alone gives its own share, omega is the same for each and at most
    # H^4 for coarse cells of H (the clamped end cell's max|x(x-1)(x-2)(x-3)|
    # is 1), and the shares add up to E
    near, far = zeros
    grid = _scan_grid(t0)
    err = _two_tier_error(near + far, grid, 2 * math.pi)
    lo, hi = float(grid.grid[0]), float(grid.grid[-1])
    cell = logmodel.COARSE * logmodel.SCAN_STEP
    shares = []
    for x, y, m in far:
        d = lo - x if x < lo else x - hi
        _, share = hlf_samples(HilbertLogModel(0.0, ZeroSet([x], [y], [m])), grid)
        assert 0.999 * cell**4 <= share / (m * y / d**5) <= cell**4 * (1 + 1e-12)
        shares.append(share)
    assert err == pytest.approx(math.fsum(shares), rel=1e-12)


# ----------------------------------------------------------------------
# reconstruction


def test_reconstruct_sine_type_band():
    # the reconstruction tracks the true log-modulus band up to an
    # additive constant; truncation at |n| <= 3000 leaves a smooth drift
    # well under the 0.05 budget on the central half
    zoo_model = sine_type_model(1.0, truncation=3000)
    model = HilbertLogModel(2 * math.pi, zoo_model.zeros)
    out = reconstruct_log_modulus(model, template(-120.0, 0.02, 12001))
    mid = np.abs(out.grid) <= 60.0
    centered = out.values[mid] - out.values[mid].mean()
    lo = math.log(math.sinh(math.pi))
    hi = math.log(math.cosh(math.pi))
    band_mean = 0.5 * (lo + hi)
    assert centered.min() >= lo - band_mean - 0.05
    assert centered.max() <= hi - band_mean + 0.05
    truth = 0.5 * np.log(np.sin(np.pi * out.grid[mid]) ** 2 + math.sinh(math.pi) ** 2)
    assert np.abs(centered - (truth - truth.mean())).max() <= 0.05


# ----------------------------------------------------------------------
# composition


def test_compose_trivial_witnesses():
    grid = template(-150.0, 0.05, 6001)
    zeros = grid.like(np.zeros(grid.n))
    out = compose_helson_szego(zeros, zeros)
    assert np.abs(np.exp(out.values) - 1.0).max() <= 1e-9
    ones = grid.like(np.ones(grid.n))
    out = compose_helson_szego(ones, zeros)
    assert np.abs(np.exp(out.values) - math.e).max() <= 1e-6
    # a bounded u whose weight exp(710) overflows keeps its finite log weight
    out = compose_helson_szego(grid.like(np.full(grid.n, 710.0)), zeros)
    assert np.array_equal(out.values, np.full(grid.n, 710.0))


def test_compose_indicator_witness():
    h = 1.0 / 4096
    n = int(round(256.0 / h)) + 1
    grid = template(-128.0, h, n)
    v = grid.like(np.where(np.abs(grid.grid) <= 1.0, 1.0, 0.0))
    out = compose_helson_szego(grid.like(np.zeros(n)), v)
    assert out.value_at(3.0) == pytest.approx(math.log(2.0) / math.pi, abs=1e-4)


def test_compose_gate_boundary():
    grid = template(-150.0, 0.05, 6001)
    zeros = grid.like(np.zeros(grid.n))
    v_bad = grid.like(np.full(grid.n, HALF_PI))
    with pytest.raises(HelsonSzegoBoundError, match="Helson"):
        compose_helson_szego(zeros, v_bad)
    v_ok = grid.like(np.full(grid.n, HALF_PI - 1e-9))
    compose_helson_szego(zeros, v_ok)


# ----------------------------------------------------------------------
# divergence scan


def test_scan_cluster_family():
    rows = theorem_divergence_scan([(k, cluster_model(k)) for k in (12, 60, 120)])
    # per-multiple jump 2*arctan(1/2) concentrated at one point: the best
    # length-3 interval straddles it and integrates to about 0.59 per copy
    for row in rows:
        assert row.bound == pytest.approx(0.58991 * row.label, rel=1e-3)
        assert row.window_count == row.label
        assert row.tail_bound == 0.0
        assert row.witness == (pytest.approx(-1.0), pytest.approx(2.0))
    bounds = [r.bound for r in rows]
    assert bounds == sorted(bounds)


def test_scan_example2_family():
    fam = [(k, shift_to_strip(referee_example2(k), 1.0)) for k in (10, 20, 30)]
    rows = theorem_divergence_scan(fam)
    counts = [r.window_count for r in rows]
    assert counts == [6, 15, 24]
    bounds = [r.bound for r in rows]
    assert bounds == sorted(bounds)
    assert bounds[-1] >= 5.0
    # frozen regression values from the deterministic scan
    assert bounds[0] == pytest.approx(3.4763, abs=2e-3)
    assert bounds[-1] == pytest.approx(13.7629, abs=2e-3)
    assert rows[-1].witness[0] == pytest.approx(3.0**30, rel=1e-10)


def test_scan_sine_control_is_flat():
    rows = theorem_divergence_scan(
        [(n, sine_type_model(1.0, truncation=n)) for n in (100, 200)]
    )
    a, b = rows[0].bound, rows[1].bound
    assert abs(a - b) <= 0.1 * max(a, b)
    assert max(a, b) < 3.0


def test_scan_matches_literal_absolute_evaluation():
    """The window-relative scan equals the literal pipeline when floats allow.

    At k_max = 10 the cluster near 3^10 is still resolvable on an absolute
    grid, so the branch sums can be evaluated in absolute coordinates and
    swept directly; the scan's translated evaluation must reproduce that
    bound (branch-sum differences are translation invariant and the mean
    oscillation kills the dropped constants).
    """
    from stripzeros import bmo_estimate, phi_sum

    model = shift_to_strip(referee_example2(10), 1.0)
    row = theorem_divergence_scan([(10, model)])[0]

    base = 3.0**10
    step = 0.005
    t0 = (base - 0.5) - 6.5
    n = int(round(13.0 / step)) + 1
    ts = t0 + step * np.arange(n)
    radius = 2.0 * float(np.abs(ts).max()) + 1.0
    zs = model.zeros
    vals = np.array([-phi_sum(zs, float(t), radius).value for t in ts])
    literal = bmo_estimate(SampledFunction(t0, step, vals), 3.0, 3.0)
    assert row.bound == pytest.approx(literal.oscillation, abs=1e-9)


def test_scan_bound_dominates_window_count_guarantee():
    """Quantitative chain: count in the hot window forces the bound.

    Each of the ``count`` zeros in the unit window lifts the branch sum by
    at least c = min(a/(a^2+1), b/(b^2+1)), a jump of c*count, which forces
    mean oscillation at least c*count/6 on the triple interval; the linear
    term contributes at most (T/2)*(3/4) on length-3 intervals.
    """
    from stripzeros import growth_constant

    family = [
        (1.0, cluster_model(40)),
        (2.0, shift_to_strip(referee_example2(20), 1.0)),
        (3.0, sine_type_model(1.0, truncation=150)),
    ]
    rows = theorem_divergence_scan(family)
    for (_, model), row in zip(family, rows):
        c = growth_constant(model.zeros.alpha, model.zeros.beta)
        linear = 0.5 * model.indicator_width * 0.75
        assert row.bound >= c * row.window_count / 6.0 - linear - 0.05


def _all_zeros_scan(monkeypatch, family):
    # with NEAR infinite no zero is far: every zero enters at every node, the
    # scan before the two tiers
    with monkeypatch.context() as m:
        m.setattr(logmodel, "NEAR", math.inf)
        return theorem_divergence_scan(family)


def test_two_tier_rows_stay_within_their_certified_gap(monkeypatch):
    # bound = oscillation - 2E and the sweep moves by <= 2E, so a row lies in
    # [full - 4E, full]; bound + tail_bound is the two-tier sweep itself
    family = [
        (400, sine_type_model(1.0, truncation=400)),
        (1600, sine_type_model(1.0, truncation=1600)),
        (10, shift_to_strip(referee_example1(10, window=500.0), 1.0)),
        (25, shift_to_strip(referee_example2(25), 1.0)),
    ]
    rows = theorem_divergence_scan(family)
    for row, full in zip(rows, _all_zeros_scan(monkeypatch, family)):
        rounding = 1e-12 * full.bound
        assert 0.0 < row.tail_bound < 1e-6
        assert full.bound - 2.0 * row.tail_bound - rounding <= row.bound
        assert row.bound <= full.bound + rounding
        assert abs(row.bound + row.tail_bound - full.bound) <= row.tail_bound + rounding
        assert (row.window_count, row.witness) == (full.window_count, full.witness)


def test_two_tier_keeps_the_cluster_rows_and_the_top_example2_bound(monkeypatch):
    # a cluster is one zero, always near: its rows are the all-zeros rows;
    # example2 K=30 has far zeros (the nearest 3^10 away), whose interpolation
    # leaves its bound's bits as they were
    family = [(k, cluster_model(k)) for k in (12, 60, 120, 240)]
    assert theorem_divergence_scan(family) == _all_zeros_scan(monkeypatch, family)
    family = [(30, shift_to_strip(referee_example2(30), 1.0))]
    (row,), (full,) = theorem_divergence_scan(family), _all_zeros_scan(monkeypatch, family)
    assert (row.bound, row.witness, row.window_count) == (full.bound, full.witness, 24)
    assert 0.0 < row.tail_bound < 1e-15
