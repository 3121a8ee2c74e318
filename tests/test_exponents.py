"""Exponent fields, the critical trace exponent, and gap certificates."""

import dataclasses
import math
import re

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

import fraclab as fl
from fraclab import exponents
from fraclab.errors import (
    ArityMismatchError,
    BoundViolationError,
    FieldError,
    NumericError,
    PartitionError,
    SubcriticalityError,
)

import oracles


@pytest.fixture
def canonical(square16):
    """Constant configuration with gap exactly 1/2 on the unit square."""
    p = fl.constant_field(2.0, fl.PAIR)
    q = fl.constant_field(1.5, fl.BOUNDARY)
    return square16, p, q, 0.5


def test_parse_field_arities(interval64):
    p = fl.parse_field("2 + x", fl.POINT)
    assert p.arity == fl.POINT
    assert p.constant_value() is None
    vals = p.eval_points(interval64.cell_centroids)
    assert vals.shape == (64,)
    with pytest.raises(ArityMismatchError, match="not allowed"):
        fl.parse_field("2 + y", fl.POINT)
    pair = fl.parse_field("2 + (x + y)/2", fl.PAIR)
    assert pair.arity == fl.PAIR
    assert fl.parse_field(2.5, fl.POINT).constant_value() == 2.5


@pytest.mark.parametrize("arity", [fl.POINT, fl.PAIR, fl.BOUNDARY])
@pytest.mark.parametrize("value", [True, False, None, [2], {"x": 1}])
def test_parse_field_rejects_booleans(value, arity):
    # booleans, JSON null, lists and objects are neither numbers nor expressions
    with pytest.raises(FieldError, match=re.escape(f"expected a number or an expression, got {value!r}")):
        fl.parse_field(value, arity)


def test_eval_pairs_demands_pair_arity():
    p = fl.parse_field("2 + x", fl.POINT)
    with pytest.raises(FieldError, match="eval_pairs needs a pair field"):
        p.eval_pairs(np.zeros((2, 1)), np.ones((2, 1)))


_POINT_P = fl.parse_field("2 + x", fl.POINT)
_PAIR_P = fl.parse_field("2 + (x + y)/2", fl.PAIR)


@pytest.mark.parametrize(
    "call,fragment",
    [
        (lambda dom: fl.parse_field("2 + x", "triple"), "unknown arity 'triple'"),
        (lambda dom: fl.parse_field(math.inf, fl.POINT), "constant field must be finite"),
        (lambda dom: fl.extend_symmetric_mean(_PAIR_P), "field is already bivariate"),
        (lambda dom: fl.transpose_field(_POINT_P), "transpose needs a pair field"),
        (lambda dom: fl.conjugate_field(_POINT_P, _PAIR_P), "conjugate construction needs matching arities"),
        (lambda dom: fl.function_on_domain(_PAIR_P, dom), "cannot sample a pair field"),
        (lambda dom: fl.validate_bounds(_POINT_P, dom, "v"), "unknown exponent role 'v'"),
        (lambda dom: _POINT_P.eval_pair_grid(dom.cell_centroids, dom.cell_centroids), "eval_pair_grid needs a pair field"),
    ],
)
def test_field_operations_reject_a_wrong_arity_or_role(call, fragment, interval64):
    with pytest.raises(FieldError, match=re.escape(fragment)):
        call(interval64)


@pytest.mark.parametrize("src", ["2 + x1/4 + y2/5 - x2*y1/10", "2 + x1", "2.5"])
def test_eval_pair_grid_matches_eval_pairs(src, square8):
    f = fl.parse_field(src, fl.PAIR)
    pts = np.vstack([square8.cell_centroids, square8.facet_centroids])
    grid = f.eval_pair_grid(pts[5:12], pts)
    assert grid.shape == (7, pts.shape[0])
    assert np.array_equal(grid, oracles.all_pair_values(f, pts)[5:12])


def test_extend_symmetric_mean(interval64):
    p = fl.parse_field("2 + x", fl.POINT)
    pm = fl.extend_symmetric_mean(p)
    assert pm.arity == fl.PAIR
    assert exponents._swap_invariant(pm)
    a = interval64.cell_centroids[:5]
    b = interval64.cell_centroids[10:15]
    got = pm.eval_pairs(a, b)
    want = 0.5 * (p.eval_points(a) + p.eval_points(b))
    assert np.allclose(got, want, rtol=0, atol=0)
    # the diagonal restriction recovers the original point field
    assert np.array_equal(fl.diagonal_field(pm).eval_points(a), p.eval_points(a))


def test_transpose_field(interval64):
    p = fl.parse_field("2 + x/(1 + y)", fl.PAIR)
    t = fl.transpose_field(p)
    a = interval64.cell_centroids[:8]
    b = interval64.cell_centroids[40:48]
    assert np.array_equal(p.eval_pairs(a, b), t.eval_pairs(b, a))


def test_diagonal_field_requires_pairs():
    with pytest.raises(FieldError, match="pair field"):
        fl.diagonal_field(fl.parse_field("2 + x", fl.POINT))


def test_conjugate_field_identity(interval64):
    p = fl.parse_field("2 + x", fl.POINT)
    r = fl.constant_field(1.0)
    q = fl.conjugate_field(p, r)
    pts = interval64.cell_centroids
    resid = 1.0 / r.eval_points(pts) - 1.0 / p.eval_points(pts) - 1.0 / q.eval_points(pts)
    assert np.max(np.abs(resid)) < 1e-14


def test_function_on_domain(interval64):
    f = fl.function_on_domain(fl.parse_field("x^2", fl.POINT), interval64)
    assert np.allclose(f.interior, interval64.cell_centroids[:, 0] ** 2)
    assert np.allclose(f.boundary, interval64.facet_centroids[:, 0] ** 2)


@pytest.mark.parametrize(
    "src,role,fragment",
    [
        ("1 + x", "p", "requires values > 1.0; found 1.0"),
        ("x - 0.5", "s", "requires values > 0.0"),
        ("0.9 + x", "r", "requires values > 1.0"),
    ],
)
def test_validate_bounds_rejections(interval64, src, role, fragment):
    with pytest.raises(BoundViolationError, match="requires values"):
        fl.validate_bounds(fl.parse_field(src, fl.POINT), interval64, role)


def test_validate_bounds_names_the_first_upper_bound_violation(interval64):
    with pytest.raises(BoundViolationError, match=r"requires values < 1.0; found 1.5 at \[1.0\]") as err:
        fl.validate_bounds(fl.parse_field("0.5 + x", fl.POINT), interval64, "s")
    assert (err.value.point, err.value.value) == ([1.0], 1.5)


def test_validate_bounds_names_the_first_non_finite_sample(interval64):
    # sqrt(x - 0.5) is NaN left of 0.5: the first sample is the first cell
    with pytest.raises(BoundViolationError, match="not finite at sample") as err:
        fl.validate_bounds(fl.parse_field("sqrt(x - 0.5)", fl.POINT), interval64, "data")
    assert err.value.point == interval64.cell_centroids[0].tolist()
    assert math.isnan(err.value.value)


def test_validate_bounds_names_the_first_non_finite_pair(square8):
    # NaN wherever y1 > x1; in the row-major scan of (cells + facets)^2 the
    # first such pair is (cell 0, cell 1)
    f = fl.parse_field("2 + sqrt(x1 - y1)", fl.PAIR)
    pts = np.vstack([square8.cell_centroids, square8.facet_centroids])
    with pytest.raises(BoundViolationError, match="not finite at pair") as err:
        fl.validate_bounds(f, square8, "p")
    assert err.value.point == (pts[0].tolist(), pts[1].tolist())
    assert math.isnan(err.value.value)


@pytest.mark.parametrize(
    "src, symmetric",
    [("2 + x1*y2 + x2*y1", True), ("2 + max(x1, y1)", True), ("2 + x1/4 + y2/5", False), ("2 + (x1 - y1)^3", False)],
)
def test_swap_witness_is_the_first_asymmetric_sample_pair(src, symmetric, square8):
    f = fl.parse_field(src, fl.PAIR)
    pts = np.vstack([square8.cell_centroids, square8.facet_centroids])
    values = oracles.all_pair_values(f, pts)
    differ = np.argwhere(values != values.T)
    want = None if symmetric else (pts[differ[0][0]].tolist(), pts[differ[0][1]].tolist())
    assert (len(differ) == 0) == symmetric
    assert exponents._swap_witness(f, square8) == want


def test_validate_bounds_returns_extremes(interval64):
    lo, hi = fl.validate_bounds(fl.parse_field("2 + x", fl.POINT), interval64, "p")
    assert lo == 2.0  # the left facet centroid sits at x = 0
    assert hi == 3.0


def test_fields_are_values_that_validation_leaves_unchanged(square8):
    a = fl.parse_field("2 + x1/2", fl.POINT)
    b = fl.parse_field("2 + x1/2", fl.POINT)
    assert fl.validate_bounds(a, square8, "p") == (2.0, 2.5)
    assert a == b
    assert hash(a) == hash(b)
    assert len({a, b, fl.parse_field("2 + x1/4", fl.POINT)}) == 2
    with pytest.raises(dataclasses.FrozenInstanceError):
        a.source = "3"


def test_critical_trace_exponent_values():
    p = fl.constant_field(2.0, fl.PAIR)
    x = np.array([0.5, 0.0])
    assert fl.critical_trace_exponent(p, 0.5, 2, x) == pytest.approx(2.0)
    assert fl.critical_trace_exponent(p, 0.25, 2, x) == pytest.approx(2.0 / 1.5)
    # the quotient is read as unbounded once s p reaches the dimension,
    # and that branch wins even when the n - 1 factor vanishes
    assert fl.critical_trace_exponent(fl.constant_field(4.0, fl.PAIR), 0.5, 2, x) == math.inf
    assert fl.critical_trace_exponent(p, 0.5, 1, x) == math.inf
    assert fl.critical_trace_exponent(p, 0.25, 1, x) == 0.0


def test_subcritical_gap_values(square16):
    p = fl.constant_field(2.0, fl.PAIR)
    s = 0.5
    assert fl.subcritical_gap(p, fl.constant_field(1.5, fl.BOUNDARY), s, square16) == 0.5
    assert fl.subcritical_gap(p, fl.constant_field(1.7, fl.BOUNDARY), s, square16) == pytest.approx(0.3, abs=1e-15)
    with pytest.raises(SubcriticalityError, match="critical exponent 2, boundary exponent 2"):
        fl.subcritical_gap(p, fl.constant_field(2.0, fl.BOUNDARY), s, square16)


def test_subcritical_gap_unbounded_quotient(square16):
    p4 = fl.constant_field(4.0, fl.PAIR)
    assert fl.subcritical_gap(p4, fl.constant_field(2.0, fl.BOUNDARY), 0.5, square16) == math.inf


def test_freeze_margin_ok():
    # 1 * 1.9 / (2 - 0.95) = 1.8095... against 0.5/3 + 1.5 = 1.6667
    assert fl.freeze_margin_ok(1.9, 0.5, 2, [1.5], 0.5)
    assert not fl.freeze_margin_ok(1.9, 0.5, 2, [1.7], 0.5)
    # unbounded frozen quotient passes any finite demand
    assert fl.freeze_margin_ok(4.0, 0.5, 2, [100.0], 0.5)


def test_covering_partition_canonical(canonical):
    dom, p, q, s = canonical
    k = fl.subcritical_gap(p, q, s, dom)
    cert = fl.covering_partition(p, q, s, dom, k)
    assert cert.gap_k == 0.5
    assert cert.epsilon == 0.5
    assert cert.n_patches == 24
    for patch in cert.patches:
        assert patch.p_i == 1.9
        assert patch.s_i == 0.5
        assert patch.t == 0.45
        assert patch.delta == 0.05
        assert patch.continuum_ok and patch.frozen_ok
        diam = np.linalg.norm(np.array(patch.box_hi) - np.array(patch.box_lo))
        assert diam < cert.epsilon


def test_partition_covers_every_boundary_facet(canonical):
    dom, p, q, s = canonical
    cert = fl.covering_partition(p, q, s, dom, 0.5)
    covered = np.zeros(dom.n_facets, dtype=bool)
    for patch in cert.patches:
        idx = fl.facets_in_box(dom, np.array(patch.box_lo), np.array(patch.box_hi))
        covered[idx] = True
    assert covered.all()


def test_verify_certificate_accepts_and_rejects(canonical):
    dom, p, q, s = canonical
    cert = fl.covering_partition(p, q, s, dom, 0.5)
    assert fl.verify_certificate(cert, p, q, s, dom)
    # raising the frozen exponent above the sampled infimum must be caught
    bad = dataclasses.replace(cert.patches[0], p_i=1.999)
    tampered = dataclasses.replace(cert, patches=(bad,) + cert.patches[1:])
    assert not fl.verify_certificate(tampered, p, q, s, dom)
    # so must an auxiliary order at or above s_i
    bad_t = dataclasses.replace(cert.patches[0], t=cert.patches[0].s_i)
    tampered_t = dataclasses.replace(cert, patches=(bad_t,) + cert.patches[1:])
    assert not fl.verify_certificate(tampered_t, p, q, s, dom)
    # p_i = 1.8 keeps p_i < p_min - delta, but its frozen quotient
    # 1.8 / 1.1 = 1.636 falls below k/3 + q = 1.667
    low = dataclasses.replace(cert.patches[0], p_i=1.8)
    assert not fl.verify_certificate(dataclasses.replace(cert, patches=(low,) + cert.patches[1:]), p, q, s, dom)
    # a gap of 1.1 asks the sampled quotient 2 for k/2 + q = 2.05, while
    # p_i = 1.95 with delta = 0.01 still clears k/3 + q = 1.867 (1.902)
    moved = tuple(dataclasses.replace(patch, p_i=1.95, delta=0.01) for patch in cert.patches)
    assert fl.verify_certificate(dataclasses.replace(cert, patches=moved), p, q, s, dom)
    assert not fl.verify_certificate(dataclasses.replace(cert, gap_k=1.1, patches=moved), p, q, s, dom)
    # a patch inside the domain holds cells but no boundary point, and is
    # skipped
    inner = dataclasses.replace(cert.patches[0], box_lo=(0.4, 0.4), box_hi=(0.6, 0.6))
    assert fl.verify_certificate(dataclasses.replace(cert, patches=cert.patches + (inner,)), p, q, s, dom)


@pytest.mark.parametrize("keep", [0, 3])
def test_verify_certificate_rejects_a_partial_cover(canonical, keep):
    # each kept patch still meets both conditions, but the boxes no longer
    # cover every facet of the verification mesh
    dom, p, q, s = canonical
    cert = fl.covering_partition(p, q, s, dom, 0.5)
    assert cert.n_patches == 24
    partial = dataclasses.replace(cert, patches=cert.patches[:keep])
    assert not fl.verify_certificate(partial, p, q, s, dom)


def test_partition_reports_a_failing_sampled_margin(square8):
    # the quotient is 2 everywhere, below k/2 + q = 6.5 on every patch
    p = fl.constant_field(2.0, fl.PAIR)
    q = fl.constant_field(1.5, fl.BOUNDARY)
    msg = "sampled margin k/2 fails on a patch (min quotient 2, max q 1.5)"
    with pytest.raises(PartitionError, match=re.escape(f"covering construction failed: eps=0.25: {msg}; eps=0.125: ")):
        fl.covering_partition(p, q, 0.5, square8, 10.0)


def test_partition_reports_no_frozen_constants(square8):
    # s p = 1.9995 sits just below n = 2: the sampled quotient 7998 clears
    # k/2 + q, but p_i = 3.999 - 2 delta drops the frozen quotient below
    # k/3 + q even at the last delta, 0.1 / 2^6 (about 1937 < 3335)
    p = fl.constant_field(3.999, fl.PAIR)
    q = fl.constant_field(1.5, fl.BOUNDARY)
    with pytest.raises(PartitionError, match="eps=0.0625: no frozen constants after 6 delta halvings$"):
        fl.covering_partition(p, q, 0.5, square8, 1e4)


def _ladder(p_min, s_min, delta0):
    """(p_i, s_i, t, delta) of the delta ladder's first accepted patch on a
    box at the origin where p and s are constant, with q = 0 and k = 1e-9,
    or None."""
    scan = (p_min, s_min, s_min * p_min, float(exponents._trace_quotient(p_min, s_min, 2)))
    box = np.zeros(2)
    patch = exponents._first_patch(box, box, scan, np.array([0.0]), 1e-9, 2, delta0)
    return None if patch is None else (patch.p_i, patch.s_i, patch.t, patch.delta)


def test_delta_ladder_halves_delta_until_the_patch_holds():
    # p_i = 1.1 - 2 delta stays at or below 1 + delta for delta = 0.1 and 0.05
    assert _ladder(1.1, 0.5, 0.1) == (1.1 - 0.05, 0.5, 0.5 - 0.025, 0.025)
    # s_i p_i = 0.5 (2.2 - 0.2) = 1 is not above 1 while the sampled s p is
    assert _ladder(2.2, 0.5, 0.1) == (2.2 - 0.1, 0.5, 0.5 - 0.05, 0.05)
    # a delta below half an ulp of s_i leaves t == s_i, and p_i == inf p,
    # at every halving
    assert _ladder(2.0, 0.5, 1e-20) is None


# the canonical patch: p = 2, s = 1/2 and q = 3/2 with k = 1/2 on the unit
# square, whose sampled quotient is 2
HOLDS_SCAN = (2.0, 0.5, 1.0, 2.0)
HOLDS_PATCH = dict(p_i=1.9, s_i=0.5, t=0.45, delta=0.05)


@pytest.mark.parametrize(
    "scan, change",
    [
        ({}, {}),
        # below k/2 + q = 1.75
        ({"quo_min": 1.74}, {}),
        ({"quo_min": math.nan}, {}),
        # 1.8 / (2 - 0.9) = 1.636 below k/3 + q = 1.667
        ({}, {"p_i": 1.8}),
        ({}, {"delta": 0.0}),
        ({}, {"p_i": 1.96}),
        # p_i < inf p - delta = 2.1 holds, but p_i - 1 = delta
        ({"p_min": 3.0}, {"delta": 0.9}),
        ({}, {"t": 0.0}),
        ({}, {"t": 0.5}),
        ({"s_min": 0.49}, {}),
        # the sampled s p = 1.5 stays above 1, but s_i p_i = 0.95
        ({"sp_min": 1.5}, {}),
    ],
)
def test_patch_holds_fails_each_condition_alone(scan, change):
    names = ("p_min", "s_min", "sp_min", "quo_min")
    scan_vals = tuple(scan.get(name, v) for name, v in zip(names, HOLDS_SCAN))
    box = (0.0, 0.0)
    patch = exponents.PatchSpec(box, box, **{**HOLDS_PATCH, **change}, continuum_ok=True, frozen_ok=True)
    holds = exponents._patch_holds(patch, scan_vals, np.array([1.5]), 0.5, 2)
    assert holds is (not scan and not change)


def test_verify_certificate_rejects_a_nonpositive_delta(canonical):
    # p_i = 2.1 lies above inf p = 2, yet p_i < inf p - delta = 2.5 and
    # p_i - 1 > delta hold, and so do both margins
    dom, p, q, s = canonical
    cert = fl.covering_partition(p, q, s, dom, 0.5)
    bad = dataclasses.replace(cert, patches=tuple(dataclasses.replace(c, p_i=2.1, delta=-0.5) for c in cert.patches))
    assert not fl.verify_certificate(bad, p, q, s, dom)
    # the proof chain cannot use such a patch
    f = fl.GridFunction.from_callable(dom, lambda x: x[:, 0] * x[:, 1] + 0.5)
    with pytest.raises(NumericError, match="frozen exponent reached the variable exponent on a patch"):
        fl.proof_chain_check(f, bad, p, s)


def test_verify_certificate_checks_the_frozen_product_above_one(square16):
    # s p = 1.5 on the patch, so s_i p_i must stay above 1; p_i = 1.9 gives
    # 0.95, although both margins of a gap of 0.1 and every other condition
    # hold
    p = fl.constant_field(3.0, fl.PAIR)
    q = fl.constant_field(1.2, fl.BOUNDARY)
    cert = fl.covering_partition(p, q, 0.5, square16, fl.subcritical_gap(p, q, 0.5, square16))
    assert fl.verify_certificate(cert, p, q, 0.5, square16)
    low = dataclasses.replace(cert, gap_k=0.1, patches=tuple(dataclasses.replace(c, p_i=1.9) for c in cert.patches))
    assert not fl.verify_certificate(low, p, q, 0.5, square16)


def test_nan_exponent_fails_every_subcriticality_check(square8):
    """p = 2 + sqrt(x1 - 0.5) is NaN left of x1 = 0.5.  The trace quotient
    keeps that NaN, so no gap, trace report or patch certifies it."""
    p = fl.parse_field("2 + sqrt(x1 - 0.5)", fl.POINT)
    pm = fl.extend_symmetric_mean(p)
    q = fl.constant_field(1.5, fl.BOUNDARY)
    facets = square8.facet_centroids
    first_nan = facets[np.flatnonzero(facets[:, 0] < 0.5)[0]].tolist()
    with pytest.raises(SubcriticalityError, match="critical exponent nan") as err:
        fl.subcritical_gap(p, q, 0.5, square8)
    assert err.value.witness == first_nan
    one = fl.GridFunction.from_callable(square8, lambda x: np.ones(x.shape[0]))
    rep = fl.trace_check(one, pm, q, 0.5)
    assert not rep.subcritical and rep.gap_k is None
    pts = np.vstack([square8.cell_centroids, facets])
    p_min, s_min, sp_min, quo_min = exponents._patch_scan(pm, fl.constant_field(0.5), pts, 2)
    assert math.isnan(p_min) and s_min == 0.5 and math.isnan(sp_min) and math.isnan(quo_min)
    cert = fl.covering_partition(fl.constant_field(2.0, fl.PAIR), q, 0.5, square8, 0.3)
    assert not fl.verify_certificate(cert, pm, q, 0.5, square8)
    # the pointwise forms already read NaN as failing
    assert math.isnan(fl.critical_trace_exponent(p, 0.5, 2, first_nan))
    assert not fl.freeze_margin_ok(math.nan, 0.5, 2, [1.5], 0.3)


def test_partition_with_variable_exponents(square16):
    p = fl.extend_symmetric_mean(fl.parse_field("2 + 0.5*x1", fl.POINT))
    q = fl.parse_field("1.5 + 0.2*x1", fl.BOUNDARY)
    k = fl.subcritical_gap(p, q, 0.5, square16)
    assert k == pytest.approx(0.5)
    cert = fl.covering_partition(p, q, 0.5, square16, k)
    assert fl.verify_certificate(cert, p, q, 0.5, square16)
    for patch in cert.patches:
        assert patch.p_i > 1.0 + patch.delta
        assert 0.0 < patch.t < patch.s_i


def test_partition_with_unbounded_gap(square16):
    """When the quotient is unbounded everywhere the certificate works with
    a unit stand-in margin."""
    p4 = fl.constant_field(4.0, fl.PAIR)
    q = fl.constant_field(2.0, fl.BOUNDARY)
    k = fl.subcritical_gap(p4, q, 0.5, square16)
    cert = fl.covering_partition(p4, q, 0.5, square16, k)
    assert cert.gap_k == 1.0
    assert cert.patches[0].p_i == pytest.approx(3.8)
    assert fl.verify_certificate(cert, p4, q, 0.5, square16)


@pytest.mark.parametrize("k", [0.0, "0.5"])
def test_partition_needs_a_positive_gap(canonical, k):
    dom, p, q, s = canonical
    with pytest.raises(PartitionError, match=re.escape(f"need a positive subcritical gap, got {k!r}")):
        fl.covering_partition(p, q, s, dom, k)


def test_partition_keeps_boxes_narrower_than_the_facets():
    # on a 10 x 10 square of 2 x 2 cells the eps = 0.5 boxes are smaller
    # than the facets of the sample mesh, so most of them hold no facet;
    # they are kept, and the certificate covers the verification mesh
    dom = fl.build_rectangle((0.0, 0.0), (10.0, 10.0), 2, 2)
    p = fl.constant_field(2.0, fl.PAIR)
    q = fl.constant_field(1.5, fl.BOUNDARY)
    cert = fl.covering_partition(p, q, 0.5, dom, 0.5)
    boxes = exponents._boundary_boxes(dom, 0.99 * 0.5 / math.sqrt(2))
    sdom = fl.refine(dom, 2)
    bare = [(lo, hi) for lo, hi in boxes if fl.facets_in_box(sdom, lo, hi).size == 0]
    assert len(bare) > len(boxes) // 2
    # such a box samples q at its lattice points on the boundary, where
    # this field is 0 and nowhere else
    on_edge = fl.parse_field("x1 * x2 * (10 - x1) * (10 - x2)", fl.BOUNDARY)
    s = fl.constant_field(0.5)
    for lo, hi in bare:
        _, q_vals, _ = exponents._patch_samples(p, on_edge, s, sdom, dom, lo, hi)
        assert q_vals.size >= 9 and np.all(q_vals == 0.0)
    assert cert.epsilon == 0.5 and cert.n_patches == len(boxes)
    assert fl.verify_certificate(cert, p, q, 0.5, dom)


def test_partition_needs_two_dimensions():
    dom = fl.build_interval(0.0, 1.0, 16)
    p = fl.constant_field(2.0, fl.PAIR)
    q = fl.constant_field(1.5, fl.BOUNDARY)
    with pytest.raises(PartitionError, match="two-dimensional"):
        fl.covering_partition(p, q, 0.5, dom, 0.5)


@given(
    p=st.floats(1.05, 3.5),
    s=st.floats(0.05, 0.95),
    ds=st.floats(0.001, 0.2),
)
def test_critical_exponent_monotone_in_order(p, s, ds):
    """Raising the differentiability order never lowers the trace quotient."""
    x = np.array([0.0, 0.5])
    pf = fl.constant_field(p, fl.PAIR)
    lo = fl.critical_trace_exponent(pf, s, 2, x)
    hi = fl.critical_trace_exponent(pf, min(s + ds, 0.999), 2, x)
    assert hi >= lo


@given(p=st.floats(1.05, 3.9), s=st.floats(0.05, 0.95))
def test_freeze_margin_matches_direct_formula(p, s):
    denom = 2.0 - s * p
    quo = math.inf if denom <= 0 else p / denom
    q = 1.2
    k = 0.3
    assert fl.freeze_margin_ok(p, s, 2, [q], k) == (quo >= k / 3.0 + q)
