"""Acceptance gate: one test per criterion, each printing a verdict line.

Every tolerance is pinned here; run with ``pytest -s tests/test_acceptance.py``
to see the per-criterion lines.
"""

import math
from fractions import Fraction

import numpy as np
import pytest
from scipy.integrate import quad

from stripzeros import (
    HelsonSzegoBoundError,
    SampledFunction,
    ZeroSet,
    check_fast2,
    cluster_model,
    compose_helson_szego,
    count_claim_check,
    growth_constant,
    hilbert_transform,
    hilbert_transform_sampled,
    phi,
    phi_derivative,
    referee_example2,
    shift_to_strip,
    sine_type_model,
    theorem_divergence_scan,
    upper_density_profile,
)


def report(num, ok, detail):
    print(f"ACCEPTANCE {num:2d}: {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, detail


# ----------------------------------------------------------------------


def test_criterion_1_per_zero_unit_window_jump():
    """Branch increment over a unit window beats the strip growth constant."""
    rng = np.random.default_rng(101)
    worst = math.inf
    failures = 0
    for _ in range(1000):
        alpha = float(rng.uniform(0.02, 4.5))
        beta = float(rng.uniform(alpha, 5.0))
        a = float(rng.uniform(-100.0, 100.0))
        z = complex(rng.uniform(a, a + 1.0), rng.uniform(alpha, beta))
        inc = phi(z, a + 1.0).value - phi(z, a).value
        margin = inc - (growth_constant(alpha, beta) - 1e-9)
        worst = min(worst, margin)
        if margin < 0:
            failures += 1
    report(1, failures == 0, f"1000 cases, 0 required failures, worst margin {worst:.3e}")


def test_criterion_2_jump_forces_oscillation():
    """Nondecreasing g with a unit-window jump M has p_I >= M/6 - 2hM."""
    rng = np.random.default_rng(202)
    failures = 0
    worst = math.inf
    for _ in range(1000):
        m = float(rng.uniform(1.0, 100.0))
        h = float(rng.uniform(1e-3, 3e-3))
        a = float(rng.uniform(-1.0, 1.0))
        t0 = a - 1.1
        n = int(round(3.2 / h)) + 1
        ts = t0 + h * np.arange(n)
        base = np.cumsum(rng.exponential(scale=m * h / 5.0, size=n))
        lo = a + rng.uniform(0.05, 0.4)
        hi = lo + rng.uniform(0.05, 0.5)
        g = SampledFunction(t0, h, base + m * np.clip((ts - lo) / (hi - lo), 0.0, 1.0))
        chk = check_fast2(g, a, m)
        worst = min(worst, (chk.oscillation - chk.threshold) / m)
        if not chk.passed:
            failures += 1
    report(2, failures == 0, f"1000 cases, 0 failures, worst slack {worst:.3e}*M")


def test_criterion_3_transform_oracles():
    ok1 = all(
        abs(hilbert_transform(lambda t: np.ones_like(t), x)) <= 1e-6
        for x in (0.0, 3.0, -7.5, 10.0)
    )

    def indicator(t):
        t = np.asarray(t, dtype=float)
        return np.where((t >= -1.0) & (t <= 1.0), 1.0, 0.0)

    # closed-form oracle, cross-checked by adaptive quadrature first
    sing, _ = quad(indicator, -2.0, 2.0, weight="cauchy", wvar=3.0)
    reg, _ = quad(lambda t: indicator(t) * t / (1 + t * t), -2.0, 2.0, points=[-1.0, 1.0])
    oracle = (-sing + reg) / math.pi
    assert abs(oracle - math.log(2.0) / math.pi) <= 1e-9
    err_ind = abs(
        hilbert_transform(indicator, 3.0, breakpoints=(-1.0, 1.0))
        - math.log(2.0) / math.pi
    )
    ok2 = err_ind <= 1e-4

    xs = np.linspace(-10.0, 10.0, 41)
    err_cos = max(
        abs(hilbert_transform(np.cos, float(x), window=1e5) - math.sin(x)) for x in xs
    )
    ok3 = err_cos <= 1e-3
    report(
        3,
        ok1 and ok2 and ok3,
        f"H(1)<=1e-6: {ok1}; indicator err {err_ind:.2e}<=1e-4; "
        f"sup|H(cos)-sin| {err_cos:.2e}<=1e-3",
    )


def test_criterion_4_involution_on_bumps():
    def bump(center, width, height):
        def f(t):
            t = np.asarray(t, dtype=float)
            u = (t - center) / width
            out = np.zeros_like(t)
            m = np.abs(u) < 1.0
            out[m] = height * np.exp(1.0 - 1.0 / (1.0 - u[m] ** 2))
            return out

        return f

    params = [
        (0.0, 5.0, 1.0),
        (20.0, 10.0, 0.7),
        (-15.0, 8.0, 1.0),
        (5.0, 3.0, 0.5),
        (-30.0, 6.0, 0.9),
    ]
    devs = []
    t0, h, n = -1000.0, 0.02, 100001
    for center, width, height in params:
        f = SampledFunction.from_function(bump(center, width, height), t0, h, n)
        hhf = hilbert_transform_sampled(hilbert_transform_sampled(f))
        resid = -hhf.values - f.values
        mid = np.abs(f.grid) <= 500.0
        devs.append((resid[mid].max() - resid[mid].min()) / 2.0)
    report(4, max(devs) <= 1e-3, f"5 bumps, worst dev from constant {max(devs):.2e}<=1e-3")


def test_criterion_5_branch_point_and_derivative():
    rng = np.random.default_rng(505)
    worst_branch = 0.0
    for _ in range(1000):
        x = float(rng.uniform(0.2, 8.0) * rng.choice([-1.0, 1.0]))
        y = float(rng.uniform(0.3, 4.0))
        z = complex(x, y)
        t0 = (x * x + y * y) / x
        target = math.copysign(math.pi / 2, x)
        for side in (-1e-6, 1e-6):
            worst_branch = max(worst_branch, abs(phi(z, t0 + side).value - target))
    ok1 = worst_branch <= 1e-5

    step = 1e-5
    worst_rel = 0.0
    checked = 0
    while checked < 1000:
        z = complex(rng.uniform(-5, 5), rng.uniform(0.3, 4.0))
        t = float(z.real + rng.uniform(-5.0, 5.0))
        if z.real != 0 and abs(t - (abs(z) ** 2) / z.real) < 1e-3:
            continue
        fd = (phi(z, t + step).value - phi(z, t - step).value) / (2 * step)
        worst_rel = max(worst_rel, abs(fd - phi_derivative(z, t)) / phi_derivative(z, t))
        checked += 1
    ok2 = worst_rel <= 1e-6
    report(
        5,
        ok1 and ok2,
        f"branch offset {worst_branch:.2e}<=1e-5; derivative rel err {worst_rel:.2e}<=1e-6",
    )


def test_criterion_6_density_of_progressions():
    results = []
    for d in (1, 2, 5):
        zs = ZeroSet(d * np.arange(1000.0), np.ones(1000))
        e = upper_density_profile(zs, [100.0])[0]
        results.append(abs(e.density - 1.0 / d) <= 2.0 / 100.0)
    report(6, all(results), "spacings 1,2,5 within 2/r of 1/d at r=100")


def test_criterion_7_interval_counts():
    model = referee_example2(25)

    def brute(k):
        lo = Fraction(3) ** k - 1
        hi = Fraction(3) ** k
        return sum(
            1
            for n in range(1, k)
            if lo < hi - Fraction(3**k, 3 ** (n * n - n) + 1) < hi
        )

    # oracle first: exact rational positions for k <= 20
    brute_counts = {k: brute(k) for k in range(2, 21)}
    agree = all(count_claim_check(model, k)[0] == brute_counts[k] for k in range(2, 21))
    claims = all(count_claim_check(model, k)[1] for k in range(10, 26))
    report(7, agree and claims, "delta counts == exact brute force (k<=20); k/2 on [10,25]")


@pytest.fixture(scope="module")
def example2_rows():
    fam = [(k, shift_to_strip(referee_example2(k), 1.0)) for k in (10, 15, 20, 25, 30)]
    return theorem_divergence_scan(fam)


def test_criterion_8_divergence_at_desk_scale(example2_rows):
    ks = (12, 60, 120, 240)
    rows = theorem_divergence_scan([(k, cluster_model(k)) for k in ks])
    bounds = [r.bound for r in rows]
    floors = all(b >= k / 12.0 - 1.0 for b, k in zip(bounds, ks))
    thresholds = all(b >= thr for b, thr in zip(bounds, (1.0, 4.0, 9.0, 19.0)))
    monotone = bounds == sorted(bounds)

    ex2 = [r.bound for r in example2_rows]
    ex2_monotone = ex2 == sorted(ex2)
    ex2_crosses = ex2[-1] >= 5.0
    # regression: the deterministic scan first crosses 5 at k_max = 15
    first_cross = next(r.label for r in example2_rows if r.bound >= 5.0)
    ex2_frozen = first_cross == 15.0 and ex2[-1] == pytest.approx(13.7629, abs=2e-3)
    report(
        8,
        floors and thresholds and monotone and ex2_monotone and ex2_crosses and ex2_frozen,
        f"cluster bounds {['%.2f' % b for b in bounds]} >= K/12-1, cross (1,4,9,19); "
        f"offset-family bounds {['%.2f' % b for b in ex2]} nondecreasing, "
        f"cross 5 at k_max={first_cross:.0f}",
    )


def test_criterion_9_bounded_control(example2_rows):
    rows = theorem_divergence_scan(
        [(n, sine_type_model(1.0, truncation=n)) for n in (100, 200, 400)]
    )
    bounds = [r.bound for r in rows]
    spread = (max(bounds) - min(bounds)) / max(bounds)
    flat = spread <= 0.10
    ratio = example2_rows[-1].bound / max(bounds)
    report(
        9,
        flat and ratio >= 3.0,
        f"control bounds {['%.3f' % b for b in bounds]} vary {spread:.1%}<=10%; "
        f"offset-family bound exceeds control by {ratio:.1f}x>=3x",
    )


def test_criterion_10_composition_gate():
    grid = SampledFunction(-150.0, 0.05, np.zeros(6001))
    zeros = grid.like(np.zeros(grid.n))
    rejected = False
    try:
        compose_helson_szego(zeros, grid.like(np.full(grid.n, math.pi / 2)))
    except HelsonSzegoBoundError:
        rejected = True
    accepted = True
    try:
        compose_helson_szego(zeros, grid.like(np.full(grid.n, math.pi / 2 - 1e-9)))
    except HelsonSzegoBoundError:
        accepted = False
    report(10, rejected and accepted, "pi/2 rejected, pi/2 - 1e-9 accepted")
