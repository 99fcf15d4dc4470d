"""Argument branches: values, continuity, derivative, sums, growth windows."""

import math
import sys
import threading
import warnings

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.integrate import quad

from stripzeros import _numutil, argbranch
from stripzeros import (
    PreconditionError,
    TruncationError,
    ZeroSet,
    find_growth_window,
    growth_constant,
    phi,
    phi_derivative,
    phi_sum,
)


def branch_point(z):
    return (z.real**2 + z.imag**2) / z.real


# branch-kernel block sizes to run the phi_sum tests under: the defaults,
# one zero by 7 nodes per block once there are 8 nodes, so that sums cross
# zero and node blocks, and the same blocks on 3 CPUs, one node block a thread
KERNEL_BLOCKS = [
    {},
    {"BLOCK_ELEMS": 7, "ZERO_BLOCK": 1},
    {"BLOCK_ELEMS": 7, "ZERO_BLOCK": 1, "MIN_SHARE_BLOCKS": 1, "affinity_cpus": lambda: 3},
]


def set_kernel_blocks(monkeypatch, blocks):
    for name, value in blocks.items():
        monkeypatch.setattr(_numutil if name == "affinity_cpus" else argbranch, name, value)


# ----------------------------------------------------------------------
# phi: piecewise values


def test_phi_at_branch_point_positive_x():
    # 13/3 is not a representable float, but y^2 + x*(x - t) is so small
    # there that atan2 still rounds to the pi/2 constant
    v = phi(3 + 2j, 13.0 / 3.0)
    assert v.value == math.pi / 2
    # an exactly representable swap point
    w = phi(1 + 1j, 2.0)
    assert w.value == math.pi / 2


def test_phi_at_branch_point_negative_x():
    v = phi(-1 + 1j, -2.0)
    assert v.value == -math.pi / 2


def test_phi_below_branch():
    v = phi(3 + 2j, 0.0)
    assert v.value == 0.0
    # below the swap point 13/3 the branch is arctan(2*3 / (13 - 9))
    w = phi(3 + 2j, 3.0)
    assert w.value == pytest.approx(math.atan(1.5))
    assert w.value == pytest.approx(0.98279, abs=1e-5)
    with pytest.raises(PreconditionError):
        phi(1 - 1j, 0.0)


def test_phi_above_branch_frozen_value():
    # pi + arctan(-20/17), cross-checked by integrating the derivative
    v = phi(3 + 2j, 10.0)
    assert v.value == pytest.approx(2.2752903910371143, abs=1e-12)
    swept, err = quad(lambda t: phi_derivative(3 + 2j, t), 0.0, 10.0, limit=200)
    assert v.value == pytest.approx(swept, abs=max(1e-9, 10 * err))


def test_phi_continuity_at_branch():
    rng = np.random.default_rng(1)
    for _ in range(300):
        x = float(rng.uniform(0.2, 8.0) * rng.choice([-1.0, 1.0]))
        y = float(rng.uniform(0.3, 4.0))
        z = complex(x, y)
        t0 = branch_point(z)
        target = math.copysign(math.pi / 2, x)
        # t0 is usually not an exact float, so allow an ulp of drift there
        assert phi(z, t0).value == pytest.approx(target, abs=1e-12)
        for side in (-1e-6, 1e-6):
            assert abs(phi(z, t0 + side).value - target) < 1e-5


def test_phi_monotone_in_t():
    rng = np.random.default_rng(2)
    for _ in range(200):
        z = complex(rng.uniform(-5, 5), rng.uniform(0.1, 4))
        ts = np.sort(rng.uniform(-20, 20, size=17))
        vals = [phi(z, float(t)).value for t in ts]
        assert all(b > a for a, b in zip(vals, vals[1:]))


# zeros with |x| from 0.01 up to 1e15 and y in [0.01, 30]
_strip_x = st.floats(0.01, 1e15) | st.floats(-1e15, -0.01)
_strip_y = st.floats(0.01, 30.0)


@settings(deadline=None)
@given(
    x=_strip_x,
    y=_strip_y,
    offsets=st.lists(st.floats(-50.0, 50.0), max_size=20),
    scales=st.lists(st.floats(-3.0, 3.0), max_size=10),
)
def test_phi_monotone_across_swap_point_property(x, y, offsets, scales):
    t0 = (x * x + y * y) / x
    ts = {t0, math.nextafter(t0, -math.inf), math.nextafter(t0, math.inf)}
    ts |= {t0 + d for d in offsets} | {t0 * s for s in scales}
    vals = [phi(complex(x, y), t).value for t in sorted(ts)]
    assert all(b >= a for a, b in zip(vals, vals[1:]))


@settings(deadline=None)
@given(x=_strip_x, y=_strip_y)
def test_phi_lipschitz_at_swap_point_property(x, y):
    # phi' <= 1/y everywhere, and phi = sign(x)*pi/2 at the exact swap point,
    # which the float t0 misses by at most two ulps
    t0 = (x * x + y * y) / x
    target = math.copysign(math.pi / 2, x)
    for t in (t0, math.nextafter(t0, -math.inf), math.nextafter(t0, math.inf)):
        gap = abs(phi(complex(x, y), t).value - target)
        assert gap <= (abs(t - t0) + 2 * math.ulp(t0)) / y


@settings(deadline=None)
@given(
    zeros=st.lists(
        st.tuples(st.floats(-1e4, 1e4), st.floats(0.01, 30.0), st.integers(1, 4)),
        min_size=1,
        max_size=30,
    ),
    t=st.floats(-100.0, 100.0),
    widen=st.floats(1.001, 20.0),
)
def test_phi_sum_tail_bound_dominates_mpmath_tail_property(zeros, t, widen):
    # an omitted zero has |z| > 2|t|, so |z|^2 - x*t > 0 and its branch is the
    # plain arctan; summed at 50 digits, the omitted terms stay within the
    # certified bound up to the rounding of the bound's own float sum
    zs = ZeroSet(*(np.array(col) for col in zip(*zeros)))
    radius = (2 * abs(t) + 0.01) * widen
    bound = phi_sum(zs, t, radius).tail_bound
    with mpmath.workdps(50):
        omitted = mpmath.fsum(
            m * mpmath.atan(y * t / (x * x + y * y - x * t))
            for x, y, m in ((mpmath.mpf(x), mpmath.mpf(y), m) for x, y, m in zeros)
            if math.hypot(x, y) > radius
        )
        assert abs(omitted) <= bound * (1 + 1e-12)


def test_phi_total_increase_is_pi():
    for z in (3 + 2j, -4 + 0.5j, 0.2 + 3j, 1j):
        lo = phi(z, -1e8).value
        hi = phi(z, 1e8).value
        assert hi - lo == pytest.approx(math.pi, abs=1e-6)


def test_phi_x_zero_is_odd_arctan():
    assert phi(1j, 1.0).value == pytest.approx(math.pi / 4)
    z = 2j
    for t in (-3.0, -1.0, 0.0, 1.0, 3.0):
        assert phi(z, t).value == pytest.approx(math.atan(t / 2.0), abs=1e-15)
        assert phi(z, t).value == pytest.approx(-phi(z, -t).value, abs=1e-15)


def test_phi_derivative_formula_points():
    assert phi_derivative(3 + 2j, 3.0) == pytest.approx(0.5)
    assert phi_derivative(1j, 0.0) == pytest.approx(1.0)
    # inside the range, although y*(x^2 + y^2) would overflow
    assert phi_derivative(1e150 + 1e150j, 0.0) == pytest.approx(5e-151, rel=1e-15)
    # the corner of the range, where (t - x)^2 = 2^1024 is not a float
    big = argbranch.RANGE_MAX
    assert phi_derivative(complex(big, big), -big) == pytest.approx(1 / (5 * big), rel=1e-15)
    rng = np.random.default_rng(3)
    for _ in range(100):
        x, y = rng.uniform(-5, 5), rng.uniform(0.2, 3)
        # at unit offset from the zero the derivative is y/(y^2+1)
        assert phi_derivative(complex(x, y), x + 1.0) == pytest.approx(
            y / (y * y + 1.0), rel=1e-12
        )


def test_phi_derivative_matches_finite_differences():
    rng = np.random.default_rng(4)
    step = 1e-5
    for _ in range(300):
        z = complex(rng.uniform(-5, 5), rng.uniform(0.3, 4))
        t = float(rng.uniform(-5, 5) + z.real * rng.uniform(-0.5, 0.5))
        if z.real != 0 and abs(t - branch_point(z)) < 1e-3:
            continue
        fd = (phi(z, t + step).value - phi(z, t - step).value) / (2 * step)
        assert fd == pytest.approx(phi_derivative(z, t), rel=1e-6)


# ----------------------------------------------------------------------
# the input range


BIG, TINY = argbranch.RANGE_MAX, argbranch.RANGE_MIN_IM


def test_phi_rejects_inputs_outside_the_range():
    # inside the range: the edges themselves
    assert phi(complex(BIG, TINY), BIG).value == pytest.approx(math.pi / 2)
    # atan(2*BIG/TINY) - atan(BIG/TINY), a subnormal value
    assert phi(complex(-BIG, TINY), BIG).value == pytest.approx(TINY / (2 * BIG), rel=1e-12)
    assert phi(complex(0.0, TINY), 0.0).value == 0.0
    bad = [
        (1 + 1e308j, 2.0),  # y*y and y*t overflow: atan2 would give nan
        (1e-200 + 1e-200j, 1e-200),  # y*y underflows: atan2 would give pi/2, not pi/4
        (complex(math.nextafter(BIG, math.inf), 1.0), 0.0),
        (complex(0.0, math.nextafter(BIG, math.inf)), 0.0),
        (complex(0.0, math.nextafter(TINY, 0.0)), 0.0),
        (complex(0.0, 1.0), -math.nextafter(BIG, math.inf)),
        (complex(math.nan, 1.0), 0.0),
        (complex(0.0, math.nan), 0.0),
        (complex(0.0, 1.0), math.nan),
        (complex(0.0, math.inf), 0.0),
        (complex(0.0, 1.0), math.inf),
        (1 - 1j, 0.0),
    ]
    for z, t in bad:
        for f in (phi, phi_derivative):
            with pytest.raises(PreconditionError, match="outside the exact range"):
                f(z, t)
    with pytest.raises(PreconditionError, match="outside the exact range"):
        phi_sum(ZeroSet([0.0], [1.0]), np.array([0.0, math.nan]), None)
    with pytest.raises(PreconditionError, match="outside the exact range"):
        phi_sum(ZeroSet([0.0], [1.0]), np.array([0.0, math.inf]), None)


def _phi_oracle(x, y, t):
    # independent of atan2; at 60 digits the two near-pi/2 terms lose the
    # answer to cancellation once |x|/y is about 1e38, at 700 they do not
    with mpmath.workdps(700):
        x, y, t = mpmath.mpf(x), mpmath.mpf(y), mpmath.mpf(t)
        return float(mpmath.atan((t - x) / y) + mpmath.atan(x / y))


# magnitudes log-uniform from 2^-520 up to the range's 2^511
_magnitude = st.builds(
    math.ldexp, st.floats(1.0, 2.0, exclude_max=True), st.integers(-520, 510)
)
_signed = st.builds(math.copysign, _magnitude, st.sampled_from([-1.0, 1.0]))


@settings(deadline=None)
@given(
    x=_signed | st.sampled_from([0.0, BIG, -BIG]),
    y=_magnitude.filter(lambda y: y >= TINY) | st.sampled_from([TINY, BIG]),
    data=st.data(),
)
def test_phi_matches_mpmath_oracle_across_the_range_property(x, y, data):
    # t: free, 0, the zero's real part and its float swap point, each with
    # its ulp neighbours, and the range's edges
    anchors = [data.draw(_signed), 0.0, x, BIG, -BIG]
    if x != 0.0:
        anchors.append((x * x + y * y) / x)
    near = {
        s
        for a in anchors
        for s in (a, math.nextafter(a, -math.inf), math.nextafter(a, math.inf))
        if abs(s) <= BIG
    }
    t = data.draw(st.sampled_from(sorted(near)))
    got = phi(complex(x, y), t).value
    assert abs(got - _phi_oracle(x, y, t)) <= 2 * np.finfo(float).eps, (x, y, t)


# ----------------------------------------------------------------------
# growth constant


def test_growth_constant_values():
    assert growth_constant(1.0, 1.0) == pytest.approx(0.5)
    assert growth_constant(1.0, 2.0) == pytest.approx(0.4)
    assert growth_constant(0.5, 3.0) == pytest.approx(0.3)


def test_growth_constant_validation():
    with pytest.raises(PreconditionError):
        growth_constant(0.0, 1.0)
    with pytest.raises(PreconditionError):
        growth_constant(2.0, 1.0)


def test_unit_window_increment_beats_growth_constant():
    rng = np.random.default_rng(5)
    for _ in range(500):
        alpha = float(rng.uniform(0.05, 4.0))
        beta = float(rng.uniform(alpha, 5.0))
        a = float(rng.uniform(-50, 50))
        z = complex(rng.uniform(a, a + 1.0), rng.uniform(alpha, beta))
        inc = phi(z, a + 1.0).value - phi(z, a).value
        assert inc >= growth_constant(alpha, beta) - 1e-9


# ----------------------------------------------------------------------
# phi_sum


def test_phi_sum_single_zero():
    zs = ZeroSet([0.0], [1.0])
    res = phi_sum(zs, 1.0, 10.0)
    assert res.value == pytest.approx(math.pi / 4)
    assert res.tail_bound == 0.0


def test_phi_sum_two_imaginary_zeros():
    # arctan(y*t/|z|^2) for each purely imaginary zero
    zs = ZeroSet([0.0, 0.0], [1.0, 2.0])
    res = phi_sum(zs, 1.0, 10.0)
    assert res.value == pytest.approx(math.atan(1.0) + math.atan(0.5), abs=1e-14)
    assert res.value == pytest.approx(1.2490457723982544, abs=1e-12)


def test_phi_sum_cluster_increment():
    zs = ZeroSet([5.5], [1.0], [100])
    r = 100.0
    inc = phi_sum(zs, 6.0, r).value - phi_sum(zs, 5.0, r).value
    assert inc >= 100 * 0.5
    assert inc == pytest.approx(100 * 2 * math.atan(0.5), rel=1e-12)


def test_phi_sum_array_matches_fsum_of_scalar_phi(monkeypatch):
    # exact swap points (1+i at t=2, -1+i at t=-2, 2+2i at t=4), x = 0, |x|
    # up to 1e15 on both sides of its swap point, and more zeros than one
    # kernel block
    rng = np.random.default_rng(7)
    zs = ZeroSet(
        np.concatenate(([1.0, -1.0, 0.0, 3.0, 1e15, -1e15, 2.0], rng.uniform(-30, 30, 400))),
        np.concatenate(([1.0, 1.0, 2.0, 2.0, 1.0, 0.5, 2.0], rng.uniform(0.2, 3.0, 400))),
        np.concatenate(([2, 1, 3, 1, 1, 2, 1], rng.integers(1, 4, 400))),
    )
    ts = np.concatenate((
        np.linspace(-20.0, 20.0, 81),
        [2.0, -2.0, 13.0 / 3.0, 0.0, 4.0, 1e15, 1e15 + 0.125, -1e15, -1e15 - 0.125],
    ))
    radius = 3e15
    eps = np.finfo(float).eps
    oracle = []
    for t in ts:
        terms = [
            m * phi(complex(x, y), float(t)).value
            for x, y, m in zip(zs.res.tolist(), zs.ims.tolist(), zs.mults.tolist())
        ]
        # one rounding per term and per addition
        tol = (len(terms) + 1) * eps * math.fsum(abs(x) for x in terms)
        oracle.append((math.fsum(terms), tol))
    for blocks in KERNEL_BLOCKS:
        with monkeypatch.context() as m:
            set_kernel_blocks(m, blocks)
            got = phi_sum(zs, ts, radius)
            assert got.value.shape == ts.shape
            assert (got.tail_bound == 0.0).all()  # every zero is inside the radius
            for t, v, (ref, tol) in zip(ts, got.value, oracle):
                assert abs(v - ref) <= tol, (blocks, t, v, ref)
                scalar = phi_sum(zs, float(t), radius).value
                assert scalar == pytest.approx(ref, abs=tol), blocks


def serial_branch_sum(res, ims, weights, ts):
    """The branch kernel's sum on one thread: per node block, every zero block in order."""
    acc = np.zeros(ts.size)
    rows = max(1, min(res.size, max(argbranch.ZERO_BLOCK, argbranch.BLOCK_ELEMS // ts.size)))
    cols = max(1, argbranch.BLOCK_ELEMS // rows)
    for j in range(0, ts.size, cols):
        t = ts[j : j + cols, None]
        for i in range(0, res.size, rows):
            x = res[i : i + rows]
            y = ims[i : i + rows]
            d = x - t
            d *= x
            d += y * y
            vals = y * t
            np.arctan2(vals, d, out=vals)
            acc[j : j + cols] += vals @ weights[i : i + rows]
    return acc


@settings(deadline=None)
@given(
    zeros=st.lists(
        st.tuples(
            st.floats(-50.0, 50.0),
            st.sampled_from([1e-3, 0.5, 1.0, 7.25, 300.0]),
            st.integers(1, 2**40),
        ),
        min_size=1,
        max_size=80,
    ),
    ts=st.lists(st.floats(-20.0, 20.0), min_size=1, max_size=40),
    block_elems=st.integers(1, 40),
    zero_block=st.integers(1, 16),
)
def test_branch_sum_is_bit_identical_on_any_cpu_count_property(zeros, ts, block_elems, zero_block):
    # each node's zero-block partials are added in block order by the one
    # thread that owns its node block, so the sum is the serial sum, bit for
    # bit; a short switch interval interleaves the threads finely
    res, ims, mults = (np.array(col) for col in zip(*zeros))
    ts = np.array(ts)
    interval = sys.getswitchinterval()
    with pytest.MonkeyPatch.context() as m:
        m.setattr(argbranch, "BLOCK_ELEMS", block_elems)
        m.setattr(argbranch, "ZERO_BLOCK", zero_block)
        m.setattr(argbranch, "MIN_SHARE_BLOCKS", 1)
        want = serial_branch_sum(res, ims, mults, ts).tobytes()
        for cpus in (1, 2, 3):
            m.setattr(_numutil, "affinity_cpus", lambda: cpus)
            sys.setswitchinterval(1e-6)
            try:
                got = argbranch._branch_sum(res, ims, mults, ts)
            finally:
                sys.setswitchinterval(interval)
            assert got.tobytes() == want, cpus


def test_branch_sum_raises_a_helper_error_and_leaves_no_thread(monkeypatch):
    # a helper's exception is raised by phi_sum, never a short sum; whichever
    # thread fails, every helper is joined before phi_sum returns or raises
    block = argbranch._node_blocks
    elems, zero_block = argbranch.BLOCK_ELEMS, argbranch.ZERO_BLOCK
    zs = ZeroSet(np.linspace(-5.0, 5.0, 200), np.full(200, 0.5))
    ts = np.linspace(-3.0, 3.0, 50)
    monkeypatch.setattr(argbranch, "ZERO_BLOCK", 4)
    monkeypatch.setattr(argbranch, "BLOCK_ELEMS", 4 * 8)
    monkeypatch.setattr(_numutil, "affinity_cpus", lambda: 3)
    before = threading.active_count()
    want = phi_sum(zs, ts, None).value
    assert threading.active_count() == before

    class Failing:
        def __init__(self, failing):
            self.failing = failing

        def __getitem__(self, key):
            raise ArithmeticError(f"{self.failing} failed")

    for failing in ("helper", "caller"):

        def fail_in(res, ims, weights, *rest, failing=failing):
            # the block function fails inside, at its first read of the weights
            helper = threading.current_thread() is not threading.main_thread()
            if helper == (failing == "helper"):
                weights = Failing(failing)
            block(res, ims, weights, *rest)

        monkeypatch.setattr(argbranch, "_node_blocks", fail_in)
        with pytest.raises(ArithmeticError, match=f"{failing} failed"):
            phi_sum(zs, ts, None)
        assert threading.active_count() == before
    monkeypatch.setattr(argbranch, "_node_blocks", block)
    assert phi_sum(zs, ts, None).value.tobytes() == want.tobytes()
    assert threading.active_count() == before
    # at the default block sizes, one node block, as for one zero or 12 zeros,
    # starts no thread, and neither do 3 node blocks of 1024 zeros by 32 nodes,
    # fewer than 2*MIN_SHARE_BLOCKS blocks' worth of pairs
    monkeypatch.setattr(argbranch, "ZERO_BLOCK", zero_block)
    monkeypatch.setattr(argbranch, "BLOCK_ELEMS", elems)
    monkeypatch.setattr(threading, "Thread", None)
    phi_sum(ZeroSet([0.5], [1.0]), ts, None)
    zs1024 = ZeroSet(np.linspace(-5.0, 5.0, 1024), np.full(1024, 0.5))
    phi_sum(zs1024, np.linspace(-3.0, 3.0, 96), None)
    phi_sum(ZeroSet(np.linspace(-5.0, 5.0, 12), np.full(12, 0.5)), ts, None)
    # nor does one node, whatever the number of zero blocks
    many = ZeroSet(np.linspace(-5.0, 5.0, 2000), np.full(2000, 0.5))
    phi_sum(many, 1.0, None)
    phi_sum(many, np.array([1.0]), None)


def test_phi_sum_truncation_radius_gate():
    zs = ZeroSet([0.0], [1.0])
    with pytest.raises(TruncationError, match="2|t|".replace("|", r"\|")):
        phi_sum(zs, 10.0, 20.0)
    # an array of t is gated by its largest |t|
    with pytest.raises(TruncationError):
        phi_sum(zs, np.array([1.0, -10.0]), 20.0)
    assert isinstance(phi_sum(zs, np.array([1.0, -9.0]), 20.0).value, np.ndarray)


def test_phi_sum_guards_the_tail_premise(monkeypatch):
    # y^2 underflows to 0 for the zero 1e-200 + 1e-200i, so y^2 + x*(x - t)
    # could no longer show |z|^2 - x*t > 0 for |z| > 2|t|; its imaginary part
    # is below 2^-511, and the range rule rejects it before any block runs
    zs = ZeroSet([1e-200, 0.0], [1e-200, 1.0])
    for blocks in KERNEL_BLOCKS:
        with monkeypatch.context() as m:
            set_kernel_blocks(m, blocks)
            for t in (0.0, np.array([1.0, 0.0])):
                with pytest.raises(PreconditionError, match="outside the exact range"):
                    phi_sum(zs, t, 10.0)


def test_phi_sum_rejects_a_nonfinite_sum():
    # y*y and y*t would overflow; Im z > 2^511 is rejected before the kernel
    # runs, so no numpy warning is raised
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(PreconditionError, match="outside the exact range"):
            phi_sum(ZeroSet([1.0], [1e308]), np.array([0.0, 2.0]), None)


def test_phi_sum_keeping_every_zero_matches_a_covering_radius():
    # None takes no radii; a radius beyond every |z| keeps the same zeros
    rng = np.random.default_rng(11)
    n = 300
    zs = ZeroSet(
        rng.uniform(-60, 60, n), rng.choice([0.3, 1.0, 2.5], n), rng.integers(1, 4, n)
    )
    radius = 2.0 * float(np.hypot(zs.res, zs.ims).max())
    ts = np.linspace(-20.0, 20.0, 81)
    for t in (ts, ts.reshape(9, 9), 3.5):
        kept, covered = phi_sum(zs, t, None), phi_sum(zs, t, radius)
        assert np.asarray(kept.value).tobytes() == np.asarray(covered.value).tobytes()
        tail = np.asarray(kept.tail_bound)
        assert tail.tobytes() == np.asarray(covered.tail_bound).tobytes()
        assert tail.tobytes() == np.zeros(np.shape(t)).tobytes()  # +0.0 throughout
    # the range rule reads |x| at both ends of the sorted zeros
    assert phi_sum(ZeroSet([-BIG, BIG], [1.0, 1.0]), 0.0, None).value == 0.0
    for x in (-math.nextafter(BIG, math.inf), math.nextafter(BIG, math.inf)):
        with pytest.raises(PreconditionError, match="outside the exact range"):
            phi_sum(ZeroSet([x, 0.0], [1.0, 1.0]), 0.0, None)


def test_phi_sum_tail_bound_is_certified():
    rng = np.random.default_rng(6)
    zs = ZeroSet(
        rng.uniform(-300, 300, 150), rng.uniform(0.2, 3.0, 150), rng.integers(1, 4, 150)
    )
    full_radius = 1000.0
    for t in (-7.0, 0.5, 11.0):
        full = phi_sum(zs, t, full_radius).value
        for radius in (30.0, 100.0, 400.0):
            if radius <= 2 * abs(t):
                continue
            part = phi_sum(zs, t, radius)
            assert abs(full - part.value) <= part.tail_bound + 1e-12


def test_phi_sum_tail_subset_bound_and_tail():
    rng = np.random.default_rng(2)
    xs, ys = rng.uniform(-40, 40, 60), rng.uniform(0.2, 3, 60)
    zs = ZeroSet(xs, ys)
    sub = ZeroSet(xs[::2], ys[::2])

    def total(s):  # the whole series: |z| >= 0.2 > 0.11 omits every zero
        return phi_sum(s, 0.05, 0.11).tail_bound / 0.1

    assert total(sub) <= total(zs) + 1e-15
    for radius in (5.0, 20.0):
        keep = np.hypot(xs, ys) <= radius
        inner = ZeroSet(xs[keep], ys[keep])
        assert phi_sum(zs, 0.05, radius).tail_bound / 0.1 == pytest.approx(
            total(zs) - total(inner)
        )


def test_phi_sum_tail_terms_do_not_overflow():
    # re**2 overflows to inf for |re| beyond ~1.3e154, and the tail would read
    # 0.0; the range rule binds only kept zeros, so these far zeros are legal
    zs = ZeroSet([1e200], [1e300])
    assert phi_sum(zs, 0.5, 1.5).tail_bound == pytest.approx(1e-300, rel=1e-15, abs=0)
    # the omitted term 1/1e200/1e200 = 1e-400 underflows to 0
    assert phi_sum(ZeroSet([0.0, 1e200], [1.0, 1.0]), 0.5, 10.0).tail_bound == 0.0


# ----------------------------------------------------------------------
# growth windows


def test_growth_window_dense_unit_interval():
    zs = ZeroSet(np.arange(100) / 100.0, np.ones(100))
    a = find_growth_window(zs, 50.0)
    assert a == 0.0
    r = 300.0
    assert phi_sum(zs, a + 1.0, r).value - phi_sum(zs, a, r).value >= 50.0


def test_growth_window_absent_for_sparse_set():
    zs = ZeroSet(np.arange(100.0), np.ones(100))
    assert find_growth_window(zs, 50.0) is None


@pytest.mark.parametrize("target", [0.0, -1.0, math.nan])
def test_growth_window_needs_a_positive_target(target):
    with pytest.raises(PreconditionError, match="target must be positive"):
        find_growth_window(ZeroSet([0.0], [1.0]), target)


def test_growth_window_multiple_point():
    zs = ZeroSet([0.0], [1.0], [200])
    a = find_growth_window(zs, 50.0)
    assert a == -0.5
    # 200 * (phi(0.5) - phi(-0.5)) = 200 * 2*arctan(1/2)
    inc = 200 * 2 * math.atan(0.5)
    assert inc >= 50.0
