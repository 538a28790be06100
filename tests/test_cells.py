"""Tagged divisions of half-open intervals, and gauge contracts."""

import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as hst

from gaugelab.cells import Gauge, TaggedDivision, _is_end_view, _refused
from gaugelab.divisions import delta_fine_division
from gaugelab.errors import ArgumentError, GaugeContractError, ScalarRegimeError, _plain
from gaugelab.exact import IRRATIONAL_SHIFT, QuadExtArray


class TestTaggedDivision:
    def test_tag_anywhere_in_closure(self):
        for tag in (0.0, 0.5, 1.0):  # the left endpoint is a legal tag
            d = TaggedDivision([tag], [0.0, 1.0])
            assert d.n == 1 and d.tags[0] == tag

    def test_tag_outside_rejected(self):
        for tag in (1.5, -0.1):
            with pytest.raises(ArgumentError):
                TaggedDivision([tag], [0.0, 1.0])
        with pytest.raises(ArgumentError):
            TaggedDivision([Fraction(3, 2)], [0, 1])

    @pytest.mark.parametrize(
        "tags, edges",
        [([0.5], [0.0]), ([0.5], [0.0, 0.5, 1.0]), ([], [0.0]), ([0.25, 0.75], [0.0, 1.0])],
    )
    def test_edges_are_one_more_than_tags(self, tags, edges):
        with pytest.raises(ArgumentError, match=r"n \+ 1 edges"):
            TaggedDivision(tags, edges)

    def test_edges_must_increase(self):
        with pytest.raises(ArgumentError, match=r"degenerate cell \]1.0, 0.5\]"):
            TaggedDivision([0.5, 0.5], [0.0, 1.0, 0.5])
        with pytest.raises(ArgumentError, match=r"degenerate cell \]0.5, 0.5\]"):
            TaggedDivision([0.25, 0.5, 0.75], [0.0, 0.5, 0.5, 1.0])

    def test_lefts_rights_and_domain_derive_from_edges(self):
        d = TaggedDivision([0.1, 0.6], [0.0, 0.5, 1.0])
        assert d.lefts.tolist() == [0.0, 0.5] and d.rights.tolist() == [0.5, 1.0]
        assert np.shares_memory(d.lefts, d.edges) and np.shares_memory(d.rights, d.edges)
        assert d.edges[0] == 0.0 and d.edges[-1] == 1.0
        assert repr(d) == "TaggedDivision(n=2, domain=]0.0, 1.0])"
        with pytest.raises(AttributeError):
            d.lefts = d.edges[:-1]
        exact = TaggedDivision([Fraction(1, 3)], [0, Fraction(1, 2)])
        a, b = exact.edges[0], exact.edges[-1]
        assert a == 0 and b == Fraction(1, 2)
        assert type(a) is int and type(b) is Fraction
        assert repr(exact) == "TaggedDivision(n=1, domain=]0, 1/2])"

    @pytest.mark.parametrize(
        "tags, edges",
        [
            ([Fraction(0), Fraction(1)], [Fraction(0), Fraction(1, 2), math.inf]),
            ([Fraction(1, 4)], [Fraction(0), 0.5]),
            ([np.float32(0.25), Fraction(3, 4)], [0, Fraction(1, 2), 1]),
        ],
        ids=["inf-edge", "float-edge", "numpy-float-tag"],
    )
    def test_binary_float_among_exact_scalars_rejected(self, tags, edges):
        # an object column would otherwise pass as exact: with the inf edge,
        # a Riemann sum of s * length came out as inf
        with pytest.raises(ScalarRegimeError, match="division mixes binary floats with exact scalars"):
            TaggedDivision(tags, edges)

    def test_exact_regime_uses_object_arrays(self):
        half = Fraction(1, 2)
        d = TaggedDivision([Fraction(1, 4), half], [0, half, 1])
        assert d.exact
        for column in (d.tags, d.edges, d.lefts, d.rights):
            assert isinstance(column, QuadExtArray)
        assert d.tags.tolist() == [Fraction(1, 4), half]
        assert type(d.lefts[0]) is int

    def test_exact_checks_name_the_cell(self):
        half = Fraction(1, 2)
        with pytest.raises(ArgumentError, match=r"degenerate cell \]Fraction\(1, 2\)"):
            TaggedDivision([0, half, 1], [0, half, half, 1])
        outside = r"tag 1 outside cell closure \[0, Fraction\(1, 2\)\]"
        with pytest.raises(ArgumentError, match=outside):
            TaggedDivision([1, 1], [0, half, 1])

    def test_float_lists_make_a_float_division(self):
        # lists of binary floats get the float checks, as float64 arrays do
        with pytest.raises(ArgumentError, match="non-finite"):
            TaggedDivision([1.0], [0.0, math.inf])
        d = TaggedDivision([0.5], [0.0, 1.0])
        assert not d.exact and d.tags.dtype == float

    def test_float_regime_uses_arrays(self):
        d = TaggedDivision(np.array([0.5]), np.array([0.0, 1.0]))
        assert not d.exact
        assert isinstance(d.tags, np.ndarray) and isinstance(d.lefts, np.ndarray)
        assert d.lefts[0] == 0.0 and d.rights[-1] == 1.0


# --------------------------------------------------------------------------
# Validation against the five-pass reference
# --------------------------------------------------------------------------
#
# TaggedDivision proves a division valid in three passes and scans for
# non-finite values only once it has refused one.  The reference is the
# five-pass check it used to run, non-finite values first: the two must
# accept the same divisions and refuse the rest with the same message.


def _five_pass_refusal(tags, edges):
    """The message the five-pass check refuses (tags, edges) with, or None."""
    columns = [np.asarray(c) for c in (tags, edges)]
    exact = all(c.dtype.kind != "f" for c in columns)
    t, e = (c.astype(object if exact else float) for c in columns)
    if not exact and not (np.all(np.isfinite(t)) and np.all(np.isfinite(e))):
        return "division contains non-finite values"
    lo, hi = e[:-1], e[1:]
    if not np.all(lo < hi):
        i = int(np.argmin(lo < hi))
        return f"degenerate cell ]{_plain(lo[i])!r}, {_plain(hi[i])!r}]"
    if not (np.all(lo <= t) and np.all(t <= hi)):
        i = int(np.argmin((lo <= t) & (t <= hi)))
        return (
            f"tag {_plain(t[i])!r} outside cell closure "
            f"[{_plain(lo[i])!r}, {_plain(hi[i])!r}]"
        )
    return None


_points = hst.fractions(min_value=-4, max_value=4, max_denominator=8)


@hst.composite
def _divisions(draw, views=False):
    """(tags, edges) lists: a valid division, then up to three faults
    (non-finite values, degenerate or disordered cells, tags outside their
    cells) at random positions.  With `views`, float edges only, faulted,
    as one float64 array (or a slice of a longer one) and the tags the view
    edges[:-1] or edges[1:] of it, as a grid's left and right tags are."""
    exact = not views and draw(hst.booleans())
    n = draw(hst.integers(min_value=1, max_value=8))
    edges = sorted(draw(hst.lists(_points, min_size=n + 1, max_size=n + 1, unique=True)))
    tags = [
        u + (v - u) * draw(hst.fractions(min_value=0, max_value=1, max_denominator=4))
        for u, v in zip(edges, edges[1:])
    ]
    if exact:
        offset = draw(hst.sampled_from([0, IRRATIONAL_SHIFT]))
        tags, edges = [x + offset for x in tags], [x + offset for x in edges]
        values = _points
    else:
        tags, edges = [float(x) for x in tags], [float(x) for x in edges]
        values = _points.map(float) | hst.sampled_from([math.nan, math.inf, -math.inf])
    for _ in range(draw(hst.integers(min_value=0, max_value=3))):
        column = edges if views else draw(hst.sampled_from([tags, edges]))
        last = len(column) - 1  # the end edges get their own check: draw them often
        i = draw(hst.sampled_from([0, last]) | hst.integers(min_value=0, max_value=last))
        if draw(hst.booleans()):
            column[i] = draw(values)
        elif column is edges:
            column[i] = edges[i - 1] if i else edges[1]  # a zero-width cell
        else:
            column[i] = edges[i + 1] + (edges[i + 1] - edges[i])  # past the cell
    if views:
        # padding makes edges a view too, with the owner's buffer as its base
        pad = draw(hst.sampled_from([0, 1]))
        edges = np.array([-8.0] * pad + edges + [8.0] * pad)
        edges = edges[pad:-pad] if pad else edges
        tags = edges[1:] if draw(hst.booleans()) else edges[:-1]
    return tags, edges


_ZERO_WIDTH = np.array([0.0, 1.0, 1.0, 2.0])
_NAN_INSIDE = np.array([0.0, math.nan, 2.0])


class TestValidationMatchesFivePasses:
    @settings(max_examples=150, deadline=None)
    @given(division=_divisions())
    def test_same_verdict_and_message(self, division):
        self._same_verdict(*division)

    @settings(max_examples=100, deadline=None)
    @given(division=_divisions(views=True))
    @example(division=(_ZERO_WIDTH[:-1], _ZERO_WIDTH))
    @example(division=(_NAN_INSIDE[1:], _NAN_INSIDE))
    def test_end_view_tags_same_verdict_and_message(self, division):
        # such tags skip both tag comparisons: the edge check must cover them
        self._same_verdict(*division)

    @staticmethod
    def _same_verdict(tags, edges):
        want = _five_pass_refusal(tags, edges)
        if want is None:
            TaggedDivision(tags, edges)
        else:
            with pytest.raises(ArgumentError) as got:
                TaggedDivision(tags, edges)
            assert str(got.value) == want

    @pytest.mark.parametrize(
        "tags, edges",
        [
            ([0.5, math.nan], [0.0, 1.0, 2.0]),
            ([0.5, 1.5], [0.0, math.inf, 2.0]),
            ([0.5, 1.5], [0.0, 1.0, math.inf]),
            ([0.5, 1.5], [-math.inf, 1.0, 2.0]),
            ([math.inf, 1.5], [0.0, 1.0, 2.0]),
            ([0.5, 1.5], [0.0, math.nan, 2.0]),
        ],
    )
    def test_non_finite_values_are_named_first(self, tags, edges):
        with pytest.raises(ArgumentError, match="non-finite"):
            TaggedDivision(tags, edges)


class TestBatchCheck:
    # divisions laid end to end, as a level's batch is, are refused at the
    # first division TaggedDivision refuses, with its message
    @settings(max_examples=60, deadline=None)
    @given(divisions=hst.lists(_divisions(), min_size=1, max_size=4))
    def test_refuses_the_first_refused_division_alike(self, divisions):
        # one regime per batch, the first division's
        exact = not isinstance(divisions[0][1][0], float)
        divisions = [d for d in divisions if isinstance(d[1][0], float) != exact]
        columns = [[QuadExtArray(c) if exact else np.asarray(c, dtype=float) for c in d]
                   for d in divisions]
        want = None
        for k, (tags, edges) in enumerate(columns):
            try:
                TaggedDivision(tags, edges)
            except ArgumentError as exc:
                want = k, str(exc)
                break
        joined = [np.concatenate(parts) if not exact else QuadExtArray(
            [x for part in parts for x in part.tolist()])
            for parts in ([t for t, _ in columns], [e[:-1] for _, e in columns],
                          [e[1:] for _, e in columns])]
        bounds = np.cumsum([0] + [len(t) for t, _ in columns]).tolist()
        got = _refused(*joined, exact, bounds)
        assert (None if got is None else (got[0], str(got[1]))) == want


class TestEndViews:
    def test_only_the_two_end_views_of_the_edges_qualify(self):
        owner = np.arange(6.0)
        e = owner[1:5]
        assert _is_end_view(e[:-1], e) and _is_end_view(e[1:], e)
        # equal values in another buffer, at another offset, or other strides
        for t in (e[:-1].copy(), owner[:3], owner[3:6], owner[::2], np.arange(1.0, 4.0)):
            assert not _is_end_view(t, e)
        # the base may be the edges themselves or the buffer they view
        whole = np.arange(4.0)
        assert _is_end_view(whole[:-1], whole) and _is_end_view(whole[1:-1], whole[1:])


class TestGauge:
    def test_constant(self):
        g = Gauge.constant(0.25)
        assert g.is_constant and g.constant_value == 0.25
        assert g.evaluate_batch(np.array([0.7])).tolist() == [0.25]

    def test_function_gauge(self):
        g = Gauge.from_function(lambda s: s / 2 + 0.1)
        assert not g.is_constant
        assert g.evaluate_batch(np.array([0.4]))[0] == pytest.approx(0.3)

    def test_nonpositive_width_raises(self):
        g = Gauge.from_function(lambda s: s - 0.5)
        with pytest.raises(GaugeContractError):
            g.evaluate_batch(np.array([0.25]))
        with pytest.raises(GaugeContractError):
            g.evaluate_batch(np.array([0.5]))

    def test_exact_points_keep_exact_widths(self):
        points = np.array([Fraction(1, 4), Fraction(3, 4)], dtype=object)
        widths = Gauge.constant(Fraction(1, 3)).evaluate_batch(points)
        assert widths.dtype == object and widths.tolist() == [Fraction(1, 3)] * 2
        widths = Gauge.from_function(lambda s: s / 2).evaluate_batch(points)
        assert widths.dtype == object and widths.tolist() == [Fraction(1, 8), Fraction(3, 8)]
        # a scalar width broadcasts to an exact column
        for width, gauge in ((Fraction(1, 3), Gauge.constant(Fraction(1, 3))),
                             (Fraction(1, 8), Gauge.from_function(lambda s: Fraction(1, 8)))):
            for exact_points in (points, QuadExtArray(points)):
                widths = gauge.evaluate_batch(exact_points)
                assert isinstance(widths, QuadExtArray) and widths.tolist() == [width] * 2
                assert all(type(w) is Fraction for w in widths)
        with pytest.raises(GaugeContractError) as err:
            Gauge.from_function(lambda s: s - Fraction(1, 2)).evaluate_batch(points)
        assert err.value.point == Fraction(1, 4)
        assert err.value.value == Fraction(-1, 4)

    def test_widths_of_another_shape_are_refused(self):
        fixed = Gauge.from_function(lambda s: np.array([0.3, 0.3, 0.3]), name="fixed")
        for regime in (float, Fraction):
            with pytest.raises(ArgumentError) as err:
                delta_fine_division(regime(0), regime(1), fixed)
            assert str(err.value) == (
                "gauge 'fixed' gave widths of shape (3,) for points of shape (1,)"
            )
        with pytest.raises(ArgumentError, match=r"shape \(2, 1\) for points of shape \(2,\)"):
            Gauge.from_function(lambda s: s[:, None]).evaluate_batch(np.array([0.1, 0.2]))
        # a scalar width still broadcasts, in both regimes
        for regime in (float, Fraction):
            d = delta_fine_division(regime(0), regime(1), Gauge.from_function(lambda s: regime(1)))
            assert d.tags.tolist() == [regime(1) / 2]

    def test_int_points_are_read_as_floats(self):
        # only QuadExtArray and object points are exact
        g = Gauge.from_function(np.sqrt)
        for points in (np.array([1, 4]), [1, 4]):
            widths = g.evaluate_batch(points)
            assert widths.dtype == float and widths.tolist() == [1.0, 2.0]

    def test_nonpositive_constant_rejected(self):
        with pytest.raises((ArgumentError, GaugeContractError)):
            Gauge.constant(0.0)

    def test_batch_evaluation_checks_positivity(self):
        g = Gauge.from_function(lambda s: s - 0.5)
        with pytest.raises(GaugeContractError) as err:
            g.evaluate_batch(np.array([0.6, 0.2, 0.1, math.nan]))
        assert err.value.point == 0.2  # the first point refused
        out = g.evaluate_batch(np.array([0.6, 0.9]))
        assert np.allclose(out, [0.1, 0.4])
