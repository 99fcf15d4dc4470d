"""Transform models of the log-modulus, composition gate, divergence scan."""

import math

import numpy as np
import pytest

from stripzeros import (
    HSWitness,
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


def test_hlf_empty_zero_set_is_linear():
    model = HilbertLogModel(2.0, None)
    grid = template(-3.0, 0.1, 48)
    sampled, tail = hlf_samples(model, grid, 100.0)
    assert sampled.values == pytest.approx(grid.grid)
    assert tail == 0.0


def test_model_rejects_a_negative_indicator_width():
    with pytest.raises(PreconditionError, match="indicator width must be >= 0"):
        HilbertLogModel(-1.0, None)


def test_hlf_single_imaginary_zero():
    model = HilbertLogModel(0.0, ZeroSet([0.0], [1.0]))
    grid = template(-2.0, 0.5, 23)
    sampled, tail = hlf_samples(model, grid, 1000.0)
    assert sampled.values == pytest.approx(-np.arctan(grid.grid), abs=1e-14)
    assert tail == 0.0


def test_hlf_truncation_convergence():
    # widening the truncation moves the values by no more than the
    # certified tail bound of the narrower sum
    zs = ZeroSet(np.arange(-400.0, 401.0), np.ones(801))
    model = HilbertLogModel(2 * math.pi, zs)
    grid = template(-10.0, 0.25, 81)
    narrow, tail_narrow = hlf_samples(model, grid, truncation_radius=200.5)
    wide, _ = hlf_samples(model, grid, truncation_radius=401.0)
    assert np.abs(wide.values - narrow.values).max() <= tail_narrow + 1e-12
    assert tail_narrow < 0.25


def test_hlf_samples_match_pointwise_evaluation():
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
    # term minus the array branch sum up to the order of subtraction
    rng = np.random.default_rng(8)
    zs = ZeroSet(
        rng.uniform(-60, 60, 600), rng.uniform(0.2, 3.0, 600), rng.integers(1, 4, 600)
    )
    model = HilbertLogModel(2 * math.pi, zs)
    grid = template(-25.0, 0.01, 5001)
    radius = 200.0
    sampled, _ = hlf_samples(model, grid, radius)
    base = math.pi * grid.grid
    expected = base - phi_sum(zs, grid.grid, radius).value
    tol = 8 * np.finfo(float).eps * (np.abs(base) + math.pi * zs.weight)
    assert (np.abs(sampled.values - expected) <= tol).all()


def test_hlf_samples_guard_the_tail_premise():
    # the zero set that phi_sum rejects by the range rule (Im z < 2^-511);
    # the samples take the same truncation and must reject it too
    model = HilbertLogModel(1.0, ZeroSet([1e-200, 0.0], [1e-200, 1.0]))
    with pytest.raises(PreconditionError, match="outside the exact range"):
        hlf_samples(model, template(-1.0, 0.5, 5))


# ----------------------------------------------------------------------
# reconstruction


def test_reconstruct_empty_model_is_zero():
    model = HilbertLogModel(0.0, None)
    out = reconstruct_log_modulus(model, template(-150.0, 0.05, 6001))
    assert np.abs(out.values).max() <= 1e-9


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
    out = compose_helson_szego(HSWitness(zeros, zeros))
    assert np.abs(out.weight.values - 1.0).max() <= 1e-9
    ones = grid.like(np.ones(grid.n))
    out = compose_helson_szego(HSWitness(ones, zeros))
    assert np.abs(out.weight.values - math.e).max() <= 1e-6


def test_compose_indicator_witness():
    h = 1.0 / 4096
    n = int(round(256.0 / h)) + 1
    grid = template(-128.0, h, n)
    v = grid.like(np.where(np.abs(grid.grid) <= 1.0, 1.0, 0.0))
    out = compose_helson_szego(HSWitness(grid.like(np.zeros(n)), v))
    assert out.log_weight.value_at(3.0) == pytest.approx(
        math.log(2.0) / math.pi, abs=1e-4
    )
    assert np.allclose(out.weight.values, np.exp(out.log_weight.values))


def test_compose_gate_boundary():
    grid = template(-150.0, 0.05, 6001)
    zeros = grid.like(np.zeros(grid.n))
    v_bad = grid.like(np.full(grid.n, HALF_PI))
    with pytest.raises(HelsonSzegoBoundError, match="Helson"):
        compose_helson_szego(HSWitness(zeros, v_bad))
    v_ok = grid.like(np.full(grid.n, HALF_PI - 1e-9))
    compose_helson_szego(HSWitness(zeros, v_ok))


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
