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
    PartitionError,
    SubcriticalityError,
)


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


def test_validate_bounds_returns_extremes(interval64):
    lo, hi = fl.validate_bounds(fl.parse_field("2 + x", fl.POINT), interval64, "p")
    assert lo == 2.0  # the left facet centroid sits at x = 0
    assert hi == 3.0


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
        assert patch.cond_continuum_ok and patch.cond_frozen_ok
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
