"""Generated models: sine control, the two high-density families, shifts."""

import math
from fractions import Fraction

import numpy as np
import pytest

from stripzeros import (
    PreconditionError,
    cluster_model,
    count_claim_check,
    hot_unit_window,
    phi_sum,
    referee_example1,
    referee_example2,
    relative_zero_set,
    separation_constant,
    shift_to_strip,
    sine_type_model,
    upper_density_profile,
)


def brute_force_interval_count(k: int) -> int:
    """Exact-rational count of zeros in (3^k - 1, 3^k).

    Evaluates z = 3^k - 3^k/(3^(n^2-n)+1) in exact arithmetic for every
    admissible n; no floating point anywhere.
    """
    lo = Fraction(3) ** k - 1
    hi = Fraction(3) ** k
    count = 0
    for n in range(1, k):
        z = hi - Fraction(3**k, 3 ** (n * n - n) + 1)
        if lo < z < hi:
            count += 1
    return count


# ----------------------------------------------------------------------
# sine-type control


def test_sine_zero_geometry():
    model = sine_type_model(1.0, truncation=50)
    assert separation_constant(model.zeros) == 1.0
    prof = upper_density_profile(model.zeros, [1.0, 10.0])
    assert prof.entries[0].density == 1.0
    assert prof.entries[1].density == 1.0
    assert model.indicator_width == pytest.approx(2 * math.pi)


# ----------------------------------------------------------------------
# unbounded-multiplicity family


def test_example1_factor_two_zeros():
    model = referee_example1(2, window=300.0)
    assert model.height == 0.0 and model.zeros is None  # real zeros
    twos = sorted(model.re[model.mult == 2].tolist())
    expected = [8 * math.pi * (m + 0.5) for m in range(-15, 15)]
    expected = [x for x in expected if abs(x) <= 300.0]
    assert twos == pytest.approx(sorted(expected))


def test_example1_density_grows_with_truncation():
    sups = []
    for factors in (1, 2, 3, 4, 5):
        model = shift_to_strip(referee_example1(factors, window=500.0), 1.0)
        sups.append(upper_density_profile(model.zeros, [1.0]).entries[0].sup_count)
        assert sups[-1] >= factors
    assert all(b >= a for a, b in zip(sups, sups[1:]))


# ----------------------------------------------------------------------
# offset-form family


def test_example2_frozen_offsets():
    model = referee_example2(5)
    # zeros are generated in (k, n) order, 1 <= n < k
    order = [(k, n) for k in range(2, 6) for n in range(1, k)]
    assert model.k.tolist() == [k for k, _ in order]
    i53, i52 = order.index((5, 3)), order.index((5, 2))
    d53 = 3.0 ** float(model.delta_log3[i53])
    assert d53 == pytest.approx(243.0 / 730.0, rel=1e-12)
    assert model.re[i53] == pytest.approx(242.66712328767124, rel=1e-12)
    d52 = 3.0 ** float(model.delta_log3[i52])
    assert d52 == pytest.approx(24.3, rel=1e-12)
    assert model.re[i52] == pytest.approx(218.7, rel=1e-12)


def test_example2_counts_match_exact_brute_force():
    model = referee_example2(25)
    for k in range(2, 26):
        count, _ = count_claim_check(model, k)
        assert count == brute_force_interval_count(k)


def test_example2_count_claim_verdicts():
    model = referee_example2(25)
    assert count_claim_check(model, 10) == (6, True)
    count14, ok14 = count_claim_check(model, 14)
    assert count14 >= 7 and ok14
    # small k legitimately fails the k/2 claim; that is data, not an error
    assert count_claim_check(model, 5) == (2, False)


def test_example2_deltas_are_distinct():
    model = referee_example2(20)
    for k in range(2, 21):
        logs = sorted(model.delta_log3[model.k == k].tolist())
        assert all(b - a > 1e-12 * max(1.0, abs(a)) for a, b in zip(logs, logs[1:]))


def test_example2_shift_and_summability():
    model = shift_to_strip(referee_example2(12), 1.0)
    assert model.zeros.alpha == model.zeros.beta == 1.0
    # every |z| exceeds 2.5, so the tail bound at t = 1 is 2 * the whole series
    result = phi_sum(model.zeros, 1.0, 2.5)
    assert result.value == 0.0
    assert 0.0 < result.tail_bound < 2.0


def test_example2_float_density_matches_delta_counts():
    # float window scans agree with the delta-criterion cluster size while
    # the offsets stay representable (k <= 16)
    for k_max in (6, 10, 14, 16):
        model = shift_to_strip(referee_example2(k_max), 1.0)
        sup = upper_density_profile(model.zeros, [1.0]).entries[0].sup_count
        cluster, _ = count_claim_check(model, k_max)
        assert sup == cluster


def test_example2_density_grows_with_k_max():
    sups = []
    for k_max in (6, 8, 10, 12, 14, 16):
        model = shift_to_strip(referee_example2(k_max), 1.0)
        sups.append(upper_density_profile(model.zeros, [1.0]).entries[0].sup_count)
    assert sups == sorted(sups)
    assert sups[-1] > sups[0]


def test_example2_relative_offsets_are_exact():
    model = shift_to_strip(referee_example2(30), 1.0)
    base, anchor, count = hot_unit_window(model)
    assert base == 3**30 and isinstance(base, int)
    assert anchor == -1.0
    assert count == 24
    rel = relative_zero_set(model, base)
    # offsets -delta; the deepest ones sit far below the float spacing of
    # 3^30 itself (the last two underflow double precision entirely)
    cluster = sorted((-rel.res[(rel.res > -1.0) & (rel.res <= 0.0)]).tolist())
    assert len(cluster) == 24
    assert min(d for d in cluster if d > 0) < 1e-150
    deltas = sorted(
        3.0**dl for dl in model.delta_log3[(model.k == 30) & (model.delta_log3 < 0)].tolist()
    )
    assert cluster == pytest.approx(deltas, rel=1e-15)


@pytest.mark.parametrize("k_max", [10, 30, 34, 36])
def test_example2_relative_offsets_beyond_float_integers(k_max):
    # 3^k is no longer a float for k >= 34; every offset must still be the
    # exact 3^k - 3^K - 3^delta_log3 rounded once
    model = shift_to_strip(referee_example2(k_max), 1.0)
    base, _, _ = hot_unit_window(model)
    assert base == 3**k_max
    rel = relative_zero_set(model, base)
    ks, dls = model.k.tolist(), model.delta_log3.tolist()
    exact = sorted(
        float(Fraction(3**k - 3**k_max) - Fraction(3.0**dl)) for k, dl in zip(ks, dls)
    )
    assert rel.res.tolist() == exact
    cluster = {-(3.0**dl) for k, dl in zip(ks, dls) if k == k_max}
    assert cluster <= set(rel.res.tolist())


def test_unshifted_offset_model_has_no_strip_zeros():
    model = referee_example2(5)
    assert model.zeros is None
    with pytest.raises(PreconditionError, match="shift it first"):
        relative_zero_set(model, 3**5)


# ----------------------------------------------------------------------
# cluster helper and model preconditions


def test_cluster_model_shape():
    model = cluster_model(12)
    assert model.zeros.weight == 12
    zs = model.zeros
    assert (zs.res.tolist(), zs.ims.tolist(), zs.mults.tolist()) == ([0.5], [1.0], [12])
    # the largest int64 count: its float cast rounds to 2^63, which used to reject it
    assert cluster_model(2**63 - 1).zeros.weight == 2**63 - 1


def test_count_claim_rejects_k_beyond_the_data():
    # an offset-form model answers k <= its largest k
    model = referee_example2(8)
    assert count_claim_check(model, 8)[0] == brute_force_interval_count(8)
    with pytest.raises(PreconditionError, match="k=9 beyond"):
        count_claim_check(model, 9)


def test_shift_requires_positive_h():
    with pytest.raises(PreconditionError):
        shift_to_strip(referee_example2(5), 0.0)


@pytest.mark.parametrize(
    "build, message",
    [
        (lambda: sine_type_model(0.0), "height must be positive"),
        (lambda: sine_type_model(1.0, truncation=-1), "truncation must be >= 0"),
        (lambda: referee_example1(0), "need at least one factor"),
        (lambda: referee_example1(2, window=0.0), "window must be positive"),
        (lambda: referee_example2(1), "k_max must be >= 2"),
        # 3.0**647 overflows a float; the check runs before any zero is built
        (lambda: referee_example2(647), "k_max must be >= 2 and <= 646, got 647"),
        (lambda: cluster_model(0), "count must be >= 1"),
        # mult is int64 in a zero set
        (lambda: cluster_model(2**63), "got 9223372036854775808"),
        (lambda: cluster_model(3, height=math.nan), "height must be positive"),
    ],
    ids=["sine-height", "sine-truncation", "example1-factors", "example1-window",
         "example2-k-max", "example2-k-max-overflow", "cluster-count",
         "cluster-count-int64", "cluster-height"],
)
def test_builders_reject_bad_arguments(build, message):
    with pytest.raises(PreconditionError, match=message):
        build()


@pytest.mark.parametrize(
    "build, name",
    [
        (lambda v: sine_type_model(1.0, truncation=v), "truncation"),
        (referee_example1, "factors"),
        (referee_example2, "k_max"),
        (cluster_model, "count"),
    ],
    ids=["sine", "example1", "example2", "cluster"],
)
def test_builders_take_whole_counts(build, name):
    # 2.5 used to build multiplicity 2 (cluster), zeros at +-0.5, +-1.5, +-2.5
    # (sine), or end in a TypeError (example1, example2)
    with pytest.raises(PreconditionError, match=rf"^{name} must be an integer, got 5\.5$"):
        build(5.5)
    assert build(np.int64(5)).re.size == build(5).re.size


@pytest.mark.parametrize(
    "call, message",
    [
        (lambda: count_claim_check(sine_type_model(1.0), 3), "offset-form models only"),
        (lambda: hot_unit_window(referee_example1(2)), "shift it first"),
    ],
    ids=["count-claim", "hot-window-unshifted"],
)
def test_model_operations_reject_inapplicable_models(call, message):
    with pytest.raises(PreconditionError, match=message):
        call()
