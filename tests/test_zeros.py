"""Zero-set loading, counting, densities, separation."""

import io
import math
import re

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from stripzeros import (
    InputFormatError,
    PreconditionError,
    ZeroSet,
    decompose_uniformly_discrete,
    load_zero_set,
    phi_sum,
    save_zero_set,
    separation_constant,
    upper_density_profile,
    window_count,
)


def progression(d=1.0, n=100, im=1.0):
    return ZeroSet(d * np.arange(n), np.full(n, im))


# ----------------------------------------------------------------------
# loading and saving


def test_load_csv_basic():
    zs = load_zero_set(io.StringIO("1.0,1.0,1\n2.0,1.0,1"))
    assert len(zs) == 2
    assert zs.alpha == zs.beta == 1.0


def test_load_rejects_nonpositive_im():
    with pytest.raises(InputFormatError, match="im must be positive"):
        load_zero_set(io.StringIO("1.0,0.0,1"))


def test_load_sorts_by_re():
    zs = load_zero_set(io.StringIO("3.0,2.0,1\n1.0,1.0,2"))
    assert zs.res.tolist() == [1.0, 3.0]
    assert zs.mults.tolist() == [2, 1]


def test_load_reports_line_numbers():
    with pytest.raises(InputFormatError, match="line 3"):
        load_zero_set(io.StringIO("1,1\n# comment\nnot-a-number,2"))
    # lines end at "\n" only, as in every reader: a form feed, or a line
    # separator in a comment, neither starts a line nor ends a comment
    with pytest.raises(InputFormatError, match="^line 3: "):
        load_zero_set(io.StringIO("1,1\n2,1\x0c\n3,x\n"))
    with pytest.raises(InputFormatError, match="^line 2: .*'3,x'"):
        load_zero_set(io.StringIO("1,1 # a\u2028b\n3,x\n"))


def test_load_empty_is_an_error():
    with pytest.raises(InputFormatError):
        load_zero_set(io.StringIO(""))
    with pytest.raises(InputFormatError):
        load_zero_set(io.StringIO("# only comments\n"))


def test_load_missing_path(tmp_path):
    # a mistyped path is an error, never parsed as CSV text
    with pytest.raises(FileNotFoundError):
        load_zero_set(str(tmp_path / "missing.csv"))


def _dump(zs):
    """``zs`` as text: the package's CSV export."""
    buf = io.StringIO()
    save_zero_set(zs, buf)
    return buf.getvalue()


def test_round_trip_bit_exact():
    rng = np.random.default_rng(3)
    rows = [
        (float(rng.standard_normal() * 1e3), float(rng.uniform(0.1, 7)), int(m))
        for m in rng.integers(1, 5, size=40)
    ]
    zs = ZeroSet(*zip(*rows))
    back = load_zero_set(io.StringIO(_dump(zs)))
    assert back == zs


BAD_ZEROS = ["nan,1", "inf,1", "-inf,1", "1,inf", "1,nan", "1,-2", "1,1,0"]


@pytest.mark.parametrize("row", BAD_ZEROS)
def test_load_rejects_bad_zero_with_its_line(row):
    with pytest.raises(InputFormatError, match="line 3: (re|im|mult) must be"):
        load_zero_set(io.StringIO(f"0.5,1\n# comment\n{row}\n0.7,1\n"))


@pytest.mark.parametrize("row", BAD_ZEROS)
def test_load_rejects_bad_zero_in_full_rows_with_its_line(row):
    # every row carries its mult, so the first parse succeeds and no line is padded
    full = row if row.count(",") == 2 else row + ",2"
    text = f"0.5,1,3\n\n# comment\n#\n{full} # note\n0.7,1,1\n"
    with pytest.raises(InputFormatError, match="^line 5: (re|im|mult) must be"):
        load_zero_set(io.StringIO(text))


def test_load_pads_a_short_last_row_like_a_full_file():
    # the first parse fails on the last line only; the padded parse reads every line
    rows = "".join(f"{k}.5,{k % 7 + 1}.25,{k % 3 + 1}\n# c\n\n" for k in range(-50, 50))
    for short, full in (("7,0.5\n", "7,0.5,1\n"), ("-0.0,2,", "-0.0,2,1")):
        zs, expected = (load_zero_set(io.StringIO(rows + last)) for last in (short, full))
        for a, b in ((zs.res, expected.res), (zs.ims, expected.ims), (zs.mults, expected.mults)):
            assert a.tobytes() == b.tobytes()
    with pytest.raises(InputFormatError, match="^line 301: im must be positive"):
        load_zero_set(io.StringIO(rows + "7,-0.5\n"))


# one row grammar: (file text, its (re, im, mult) rows, or the start of the error)
CSV_GRAMMAR = [
    ("1,2\n3,4,5\n", [(1.0, 2.0, 1), (3.0, 4.0, 5)]),
    ("1,2,\n3,4, \n", [(1.0, 2.0, 1), (3.0, 4.0, 1)]),
    ("1,2\n   \n\t\n3,4\n", [(1.0, 2.0, 1), (3.0, 4.0, 1)]),
    ("  # indented comment\n1,2\n", [(1.0, 2.0, 1)]),
    ("1,2, 3\n", [(1.0, 2.0, 3)]),
    (" 1 , 2 ,3 # a trailing comment\n", [(1.0, 2.0, 3)]),
    ("1,2,3.0\n", "line 1: expected a re,im[,mult] row of numbers, got '1,2,3.0'"),
    ("1,2,1e3\n", "line 1: expected a re,im[,mult] row of numbers, got '1,2,1e3'"),
    ("1,2\n\n# comment\n  1,x,2\n", "line 4: expected a re,im[,mult] row of numbers, "
                                     "got '  1,x,2'"),
    ("0.5,1\n\n# c\n1_0,1\n", "line 4: expected"),
    ("0.5,1\n1,2,3,4\n", "line 2: expected"),
    ("0.5,1\n1,,\n", "line 2: expected"),
    ("0.5,1\n\n# c\n1,2,0\n", "line 4: mult must be an integer >= 1"),
    ("0.5,1,9223372036854775807\n", [(0.5, 1.0, 2**63 - 1)]),
    ("0.5,1\n1,2,9223372036854775808\n", "line 2: expected"),
    # JSON records are no zero-set format
    ('[{"re": 0, "im": 1}]\n', "line 1: expected a re,im[,mult] row of numbers, "
                                "got '[{\"re\": 0, \"im\": 1}]'"),
]


@pytest.mark.parametrize("text, expected", CSV_GRAMMAR)
def test_csv_row_grammar(text, expected):
    if isinstance(expected, str):
        with pytest.raises(InputFormatError, match="^" + re.escape(expected)):
            load_zero_set(io.StringIO(text))
    else:
        assert _triples(load_zero_set(io.StringIO(text))) == expected


# ----------------------------------------------------------------------
# the array constructor


def test_constructor_sorts_and_defaults_mult():
    zs = ZeroSet([2.0, -1.0, 2.0], [1.0, 3.0, 0.5])
    assert zs.res.tolist() == [-1.0, 2.0, 2.0]
    assert zs.ims.tolist() == [3.0, 0.5, 1.0]
    assert zs.mults.tolist() == [1, 1, 1]
    assert (zs.alpha, zs.beta, zs.weight) == (0.5, 3.0, 3)


def test_constructor_rejects_the_first_bad_row():
    with pytest.raises(InputFormatError, match="zero 1: im must be positive"):
        ZeroSet([0.0, 1.0, math.nan], [1.0, 0.0, 1.0])
    with pytest.raises(InputFormatError, match="zero 0: mult must be an integer"):
        ZeroSet([0.0], [1.0], [1.5])
    with pytest.raises(InputFormatError, match="zero 0: mult must be an integer"):
        ZeroSet([0.0], [1.0], [10**30])
    with pytest.raises(InputFormatError, match="zero 1: mult must be an integer"):
        ZeroSet([0.0, 1.0], [1.0, 1.0], np.array([1, 2**63], dtype=np.uint64))
    with pytest.raises(PreconditionError):
        ZeroSet([], [])
    with pytest.raises(PreconditionError):
        ZeroSet([0.0, 1.0], [1.0])


def test_mult_and_total_multiplicity_fit_int64():
    # as floats these mults round up to 2^63, which used to reject them
    for mult in ([2**63 - 1], [2**63 - 512], np.array([2**63 - 1], dtype=np.uint64)):
        assert ZeroSet([0.5], [1.0], mult).weight == mult[0]
    zs = ZeroSet([0.5, 0.7], [1.0, 1.0], [2**62, 2**62 - 1])
    assert zs.weight == window_count(zs, 0.5, 1.0) == 2**63 - 1
    # the prefix sums used to wrap: weight -8446744073709551616
    with pytest.raises(PreconditionError, match=r"^total multiplicity must be < 2\^63, "
                                                "got 10000000000000000000$"):
        ZeroSet([0.5, 0.7], [1.0, 1.0], [5 * 10**18, 5 * 10**18])


def test_arrays_are_the_only_state():
    src = np.array([3.0, 1.0])
    zs = ZeroSet(src, [1.0, 1.0], [2, 1])
    src[0] = 99.0  # the constructor copied its input
    assert zs.res.tolist() == [1.0, 3.0]
    with pytest.raises(ValueError):
        zs.res[0] = 0.0
    assert not hasattr(zs, "__dict__")
    assert zs.mults.tolist() == [1, 2]
    assert zs.expanded() == ZeroSet([1.0, 3.0, 3.0], [1.0, 1.0, 1.0])


# ----------------------------------------------------------------------
# properties over random multisets with tied real parts

_ties = st.integers(-20, 20).map(lambda k: k / 4.0)
_rows = st.lists(
    st.tuples(
        _ties | st.floats(allow_nan=False, allow_infinity=False),
        st.sampled_from([0.5, 1.0]) | st.floats(min_value=0.0, exclude_min=True,
                                                allow_infinity=False),
        st.integers(1, 4),
    ),
    min_size=1,
    max_size=30,
)


def _columns(rows):
    return [np.array(col) for col in zip(*rows)]


def _triples(zs):
    return list(zip(zs.res.tolist(), zs.ims.tolist(), zs.mults.tolist()))


@settings(deadline=None)
@given(rows=_rows, data=st.data())
def test_shuffled_arrays_equal_sorted_points(rows, data):
    shuffled = data.draw(st.permutations(rows))
    zs = ZeroSet(*_columns(shuffled))
    assert zs == ZeroSet(*_columns(rows))
    assert _triples(zs) == sorted(rows)


# signed zeros, few heights and mults: runs of equal re and repeated whole rows
_tied_rows = st.lists(
    st.tuples(st.sampled_from([0.0, -0.0, 1.0]) | _ties, st.sampled_from([0.5, 1.0]),
              st.integers(1, 2)),
    min_size=1,
    max_size=80,
)


@settings(deadline=None)
@given(rows=_tied_rows)
@example(rows=[(x, 1.0, 1) for x in [1.0, 0.0, -0.0, 0.5] * 4])
def test_constructor_permutation_is_one_lexsort(rows):
    # bytewise: == cannot tell 0.0 from -0.0, the order of a full tie can
    re, im, mult = _columns(rows)
    order = np.lexsort((mult, im, re))
    zs = ZeroSet(re, im, mult)
    for a, b in ((zs.res, re[order]), (zs.ims, im[order]), (zs.mults, mult[order])):
        assert a.tobytes() == b.tobytes()


@settings(deadline=None)
@given(rows=_rows)
def test_round_trip_is_bit_exact_property(rows):
    zs = ZeroSet(*_columns(rows))
    back = load_zero_set(io.StringIO(_dump(zs)))
    for a, b in ((zs.res, back.res), (zs.ims, back.ims), (zs.mults, back.mults)):
        assert a.tobytes() == b.tobytes()


def _per_line_oracle(text):
    """Columns of a zero-set CSV, parsed one line at a time with ``float``/``int``.

    The hand-written loop the numpy reader replaced; an error names its line.
    """
    res, ims, mults = [], [], []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        parts = line.split(",")
        if len(parts) not in (2, 3):
            raise ValueError(f"line {lineno}:")
        try:
            res.append(float(parts[0]))
            ims.append(float(parts[1]))
            mults.append(int(parts[2]) if len(parts) == 3 and parts[2] else 1)
        except ValueError:
            raise ValueError(f"line {lineno}:") from None
    return res, ims, mults


_number = st.tuples(
    st.floats(allow_nan=False, allow_infinity=False),
    st.sampled_from(["{!r}", "{:.17g}", "{:.3e}", " {!r} "]),
).map(lambda vf: vf[1].format(vf[0]))
_im = st.floats(min_value=1e-300, max_value=1e300).map(repr)
_line = st.one_of(
    st.tuples(_number, _im).map(",".join),  # re,im
    st.tuples(_number, _im).map(lambda r: ",".join(r) + ","),  # re,im, (mult 1)
    st.tuples(_number, _im, st.integers(1, 9).map(str)).map(",".join),
    st.sampled_from(["", "   ", "# comment", "  # indented, 1,2", "#1,2,3"]),
    st.sampled_from(["1,2,3.0", "x,1", "1,2,3,4", "1,2,1e3"]),  # rejected by both
)


@settings(deadline=None)
@given(lines=st.lists(_line, min_size=1, max_size=40))
def test_csv_matches_per_line_oracle(lines):
    text = "\n".join(lines) + "\n"
    try:
        res, ims, mults = _per_line_oracle(text)
    except ValueError as exc:
        with pytest.raises(InputFormatError, match="^" + str(exc)):
            load_zero_set(io.StringIO(text))
        return
    if not res:
        with pytest.raises(InputFormatError, match="empty zero-set input"):
            load_zero_set(io.StringIO(text))
        return
    zs = load_zero_set(io.StringIO(text))
    expected = ZeroSet(res, ims, mults)
    for a, b in ((zs.res, expected.res), (zs.ims, expected.ims), (zs.mults, expected.mults)):
        assert a.tobytes() == b.tobytes()


@settings(deadline=None)
@given(
    rows=st.lists(
        st.tuples(_ties | st.floats(-5.0, 5.0), st.just(1.0), st.integers(1, 3)),
        min_size=1,
        max_size=25,
    ),
    radii=st.lists(st.sampled_from([0.25, 1.0, 2.5]) | st.floats(0.1, 12.0),
                   min_size=1, max_size=3, unique=True).map(sorted),
    probes=st.lists(st.floats(-20.0, 20.0), max_size=5),
)
def test_density_profile_matches_brute_force_count(rows, radii, probes):
    def count(a, r):
        return sum(m for x, _, m in rows if a <= x < a + r)

    prof = upper_density_profile(ZeroSet(*_columns(rows)), radii)
    for r, e in zip(radii, prof.entries):
        anchors = [x for x, _, _ in rows] + [x - r for x, _, _ in rows]
        assert e.sup_count == max(count(a, r) for a in anchors)
        assert count(e.witness, r) == e.sup_count
        assert all(count(a, r) <= e.sup_count for a in probes)


@settings(deadline=None)
@given(
    rows=st.lists(
        st.tuples(_ties | st.sampled_from([0.0, -0.0, 1e-300]), st.just(1.0), st.integers(1, 3)),
        min_size=1,
        max_size=30,
    ),
    radii=st.lists(st.sampled_from([0.25, 0.5, 1.0, 1.25]) | st.floats(0.1, 12.0),
                   min_size=1, max_size=3, unique=True).map(sorted),
)
def test_density_profile_matches_the_unique_anchor_scan(rows, radii):
    # repeated re values make the two anchor sets share points; the witness
    # is the smallest anchor of largest count, and a witness of zero compares
    # by ==, since np.unique keeps either of 0.0 and -0.0
    zs = ZeroSet(*_columns(rows))
    for r, e in zip(radii, upper_density_profile(zs, radii).entries):
        # the scan over the sorted union of both anchor sets
        anchors = np.unique(np.concatenate((zs.res, zs.res - r)))
        counts = window_count(zs, anchors, r)
        best = int(np.argmax(counts))
        sup = int(counts[best])
        assert (e.sup_count, e.density) == (sup, sup / r)
        assert e.witness == float(anchors[best])


# ----------------------------------------------------------------------
# window counts


def test_window_count_unit_progression():
    zs = progression(1.0, 100)
    assert window_count(zs, 0.0, 10.0) == 10


def test_window_count_multiplicity():
    zs = ZeroSet([5.0], [1.0], [7])
    assert window_count(zs, 5.0, 1.0) == 7


def test_window_count_half_open():
    zs = ZeroSet([5.0], [1.0])
    assert window_count(zs, 4.0, 1.0) == 0
    assert window_count(zs, 5.0, 1.0) == 1


def test_window_count_rejects_bad_length():
    with pytest.raises(PreconditionError):
        window_count(progression(), 0.0, 0.0)


def test_window_count_additive_over_adjacent_windows():
    rng = np.random.default_rng(11)
    zs = ZeroSet(rng.uniform(-50, 50, 200), np.ones(200), rng.integers(1, 4, 200))
    for _ in range(200):
        x = float(rng.uniform(-60, 60))
        r1, r2 = float(rng.uniform(0.1, 20)), float(rng.uniform(0.1, 20))
        assert window_count(zs, x, r1) + window_count(zs, x + r1, r2) == window_count(
            zs, x, r1 + r2
        )


# ----------------------------------------------------------------------
# density profiles


def test_density_unit_spacing():
    zs = progression(1.0, 1000)
    prof = upper_density_profile(zs, [10.0, 100.0])
    assert [e.density for e in prof.entries] == [1.0, 1.0]


def test_density_even_spacing():
    # 50 points of spacing 2 fit a half-open window of length 100, exactly
    zs = progression(2.0, 1000)
    e = upper_density_profile(zs, [100.0]).entries[0]
    assert e.sup_count == 50
    assert e.density == 0.5
    assert abs(e.density - 0.5) <= 2.0 / 100.0


@pytest.mark.parametrize("d", [1, 2, 5])
def test_density_band_invariant(d):
    zs = progression(float(d), 1000)
    for r in (50.0, 100.0, 500.0):
        e = upper_density_profile(zs, [r]).entries[0]
        assert 1.0 / d - 2.0 / r <= e.density <= 1.0 / d + 2.0 / r


def test_density_matches_brute_force():
    rng = np.random.default_rng(5)
    zs = ZeroSet(rng.uniform(0, 30, 60), np.ones(60), rng.integers(1, 3, 60))
    for r in (0.7, 2.3):
        e = upper_density_profile(zs, [r]).entries[0]
        brute = max(
            window_count(zs, a, r)
            for a in np.concatenate((zs.res, zs.res - r))
        )
        assert e.sup_count == brute
        assert window_count(zs, e.witness, r) == e.sup_count


def test_density_monotone_under_inclusion():
    rng = np.random.default_rng(9)
    xs = rng.uniform(-20, 20, 80)
    part = ZeroSet(xs[:40], np.ones(40))
    full = ZeroSet(xs, np.ones(80))
    radii = [0.5, 2.0, 10.0]
    small = upper_density_profile(part, radii).entries
    big = upper_density_profile(full, radii).entries
    assert all(b.density >= s.density for s, b in zip(small, big))


def test_density_validates_radii():
    zs = progression()
    with pytest.raises(PreconditionError):
        upper_density_profile(zs, [])
    with pytest.raises(PreconditionError):
        upper_density_profile(zs, [2.0, 1.0])
    with pytest.raises(PreconditionError):
        upper_density_profile(zs, [-1.0])
    with pytest.raises(PreconditionError, match="finite"):
        upper_density_profile(zs, [math.inf])


# ----------------------------------------------------------------------
# separation and decomposition


def test_separation_adjacent_integers():
    assert separation_constant(progression(1.0, 10)) == 1.0


def test_separation_multiple_point_is_zero():
    assert separation_constant(ZeroSet([0.0], [1.0], [2])) == 0.0


def test_separation_of_coincident_simple_zeros_is_zero():
    assert separation_constant(ZeroSet([0.0, 0.0], [1.0, 1.0])) == 0.0


def test_separation_vertical_pair():
    zs = ZeroSet([0.0, 0.0], [1.0, 2.0])
    assert separation_constant(zs) == 1.0


def test_separation_needs_two_points():
    with pytest.raises(PreconditionError):
        separation_constant(ZeroSet([0.0], [1.0]))


def _min_colors(zs, delta):
    """Smallest number of classes with pairwise distances >= delta.

    Exhaustive backtracking on the conflict graph of the expanded points;
    exponential, fine for the handful of points used here.
    """
    points = _triples(zs.expanded())
    n = len(points)
    conflict = [
        [math.hypot(p[0] - q[0], p[1] - q[1]) < delta for q in points] for p in points
    ]

    def feasible(k):
        colors = [-1] * n

        def assign(i):
            if i == n:
                return True
            for c in range(k):
                if all(colors[j] != c or not conflict[i][j] for j in range(i)):
                    colors[i] = c
                    if assign(i + 1):
                        return True
                    colors[i] = -1
            return False

        return assign(0)

    k = 1
    while not feasible(k):
        k += 1
    return k


@pytest.mark.parametrize("delta", [0.0, -0.5, math.nan])
def test_decompose_needs_a_positive_delta(delta):
    with pytest.raises(PreconditionError, match="delta must be positive"):
        decompose_uniformly_discrete(progression(1.0, 10), delta)


def test_decompose_already_separated():
    classes, bound = decompose_uniformly_discrete(progression(1.0, 10), 0.5)
    assert len(classes) == 1
    assert len(classes) <= bound


def test_decompose_halves_against_brute_force():
    zs = ZeroSet(np.arange(10) / 2.0, np.ones(10))
    classes, bound = decompose_uniformly_discrete(zs, 0.8)
    assert len(classes) == 2
    assert _min_colors(zs, 0.8) == 2
    assert classes[0].res.tolist() == [0.0, 1.0, 2.0, 3.0, 4.0]


def test_decompose_coincident_points_split():
    classes, _ = decompose_uniformly_discrete(ZeroSet([0.0], [1.0], [3]), 0.1)
    assert len(classes) == 3


def test_decompose_classes_are_separated_and_partition():
    rng = np.random.default_rng(17)
    zs = ZeroSet(rng.uniform(0, 10, 40), rng.uniform(0.5, 2.0, 40), rng.integers(1, 3, 40))
    delta = 0.4
    classes, bound = decompose_uniformly_discrete(zs, delta)
    assert len(classes) <= bound
    merged = []
    for cl in classes:
        if cl.weight >= 2:
            assert separation_constant(cl) >= delta
        merged.extend(_triples(cl))
    assert sorted(merged) == _triples(zs.expanded())


def test_decompose_window_bound_heuristic():
    # windows of length 1 hold <= C points => at delta = 1/(2C) few classes
    rng = np.random.default_rng(23)
    xs = np.sort(rng.uniform(0, 50, 120))
    zs = ZeroSet(xs, np.ones(120))
    c_max = upper_density_profile(zs, [1.0]).entries[0].sup_count
    classes, _ = decompose_uniformly_discrete(zs, 1.0 / (2 * c_max))
    assert len(classes) <= 2 * c_max + 1


# ----------------------------------------------------------------------
# the summability series mult*y/|z|^2, summed by phi_sum over the omitted
# zeros: with every zero omitted its tail_bound is 2|t| times the whole series


def test_blaschke_single_values():
    assert phi_sum(ZeroSet([0.0], [1.0]), 0.25, 0.75).tail_bound == 0.5
    assert phi_sum(ZeroSet([3.0], [4.0]), 1.0, 2.5).tail_bound == pytest.approx(0.32)


def test_blaschke_partial_sum():
    result = phi_sum(ZeroSet([1.0, 2.0], [1.0, 1.0]), 0.5, 1.25)
    assert result.value == 0.0
    assert result.tail_bound == pytest.approx(0.5 + 0.2)
