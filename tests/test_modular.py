"""Luxemburg norms and Gagliardo seminorms against closed forms, continuum
quadrature, and an independent dense-sum oracle."""

import math
import re

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

import fraclab as fl
from fraclab import modular
from fraclab.errors import ModularError
from fraclab.modular import solve_unit_modular, weighted_modular

import oracles


def fn(dom, callable_):
    return fl.GridFunction.from_callable(dom, callable_)


# -- Lebesgue norms ----------------------------------------------------------


def test_l2_of_identity_golden(interval64):
    f = fn(interval64, lambda x: x[:, 0])
    res = fl.luxemburg_norm(f, fl.constant_field(2.0), "interior")
    assert res.status == fl.CONVERGED
    # midpoint-rule value at this resolution, pinned to full precision
    assert res.lambda_star == pytest.approx(0.577332649588925, rel=1e-12)


def test_l2_of_identity_converges_to_closed_form():
    dom = fl.build_interval(0.0, 1.0, 256)
    f = fn(dom, lambda x: x[:, 0])
    res = fl.luxemburg_norm(f, fl.constant_field(2.0), "interior")
    assert abs(res.lambda_star - 1.0 / np.sqrt(3.0)) < 1e-4


@pytest.mark.parametrize("src", ["2 + x", "1.7 + 0.6*x", "2 + sin(x)^2"])
def test_constant_two_is_exact_for_any_exponent(src, interval64):
    """On unit measure the modular of f = 2 at lambda = 2 is exactly 1,
    independent of the exponent, so the root is hit bit-exactly."""
    f = fn(interval64, lambda x: np.full(x.shape[0], 2.0))
    res = fl.luxemburg_norm(f, fl.parse_field(src, fl.POINT), "interior")
    assert res.lambda_star == 2.0
    assert res.status == fl.CONVERGED


def test_constant_two_exact_on_unit_measure_rectangle():
    dom = fl.build_rectangle((0.0, 0.0), (2.0, 0.5), 10, 6)
    f = fn(dom, lambda x: np.full(x.shape[0], 2.0))
    res = fl.luxemburg_norm(f, fl.parse_field("2 + x1 + x2", fl.POINT), "interior")
    assert res.lambda_star == 2.0


def test_variable_exponent_matches_continuum_quadrature():
    lam = oracles.continuum_luxemburg_1d(lambda x: 1.0 + x, lambda x: 2.0 + 0.5 * x)
    errs = []
    for n in (64, 256):
        dom = fl.build_interval(0.0, 1.0, n)
        f = fn(dom, lambda x: 1.0 + x[:, 0])
        res = fl.luxemburg_norm(f, fl.parse_field("2 + x/2", fl.POINT), "interior")
        errs.append(abs(res.lambda_star - lam))
    assert errs[1] < 2e-6
    # midpoint sampling converges at second order, so 4x cells cut the
    # error by about 16; demand at least 8
    assert errs[1] < errs[0] / 8.0


def test_constant_exponent_agrees_with_direct_power_sum(interval64):
    f = fn(interval64, lambda x: np.sin(3.0 * x[:, 0]) + 0.2)
    res = fl.luxemburg_norm(f, fl.constant_field(2.5), "interior")
    direct = float(np.sum(interval64.cell_measures * np.abs(f.interior) ** 2.5)) ** (1.0 / 2.5)
    assert res.lambda_star == pytest.approx(direct, rel=1e-12)


def test_matches_brentq_oracle_on_variable_exponent(interval64):
    f = fn(interval64, lambda x: np.exp(-x[:, 0]) + 0.1)
    p = fl.parse_field("1.5 + x^2", fl.POINT)
    res = fl.luxemburg_norm(f, p, "interior")
    want = oracles.discrete_luxemburg(
        f.interior, interval64.cell_measures, p.eval_points(interval64.cell_centroids)
    )
    assert res.lambda_star == pytest.approx(want, rel=1e-11)


def test_boundary_norm_closed_form(square16):
    """Constant 1 with q = 1.5 on the unit-square boundary: the modular is
    4 (1/lambda)^1.5, whose root is 4^(2/3)."""
    one = fn(square16, lambda x: np.ones(x.shape[0]))
    res = fl.luxemburg_norm(one, fl.constant_field(1.5, fl.BOUNDARY), "boundary")
    assert res.lambda_star == pytest.approx(4.0 ** (2.0 / 3.0), rel=1e-11)
    assert res.lambda_star == pytest.approx(2.5198420997903668, rel=1e-12)


def test_zero_function_status(interval64):
    z = fn(interval64, lambda x: np.zeros(x.shape[0]))
    res = fl.luxemburg_norm(z, fl.parse_field("2 + x", fl.POINT), "interior")
    assert res.status == fl.ZERO_FUNCTION
    assert res.lambda_star == 0.0
    assert float(res) == 0.0


def test_overflow_scale_data_is_flagged_not_crashed(interval64):
    big = fn(interval64, lambda x: 1e200 * (x[:, 0] + 0.5))
    res = fl.luxemburg_norm(big, fl.parse_field("2 + x", fl.POINT), "interior")
    # the expansion budget covers magnitudes up to 2^200; beyond that the
    # failure is reported, never raised
    assert res.status == fl.BRACKET_FAILURE
    assert np.isnan(res.lambda_star)


def test_large_magnitudes_stay_converged(interval64):
    p = fl.parse_field("2 + x", fl.POINT)
    base = fn(interval64, lambda x: x[:, 0] + 0.5)
    big = base.scaled(1e50)
    res_b = fl.luxemburg_norm(big, p, "interior")
    res_s = fl.luxemburg_norm(base, p, "interior")
    assert res_b.status == fl.CONVERGED
    assert abs(res_b.modular_at_lambda - 1.0) < 1e-10
    assert res_b.lambda_star == pytest.approx(1e50 * res_s.lambda_star, rel=1e-11)


def test_overflow_band_data_converge(interval64, square8):
    """Data scaled by 1e120: modular ratios at lambda = 1 lie between 1e100
    and 1e154, and raised to p up to 3 some overflow to inf."""
    p = fl.parse_field("2 + x", fl.POINT)
    big = fn(interval64, lambda x: 1e120 * (x[:, 0] + 0.5))
    pv = p.eval_points(interval64.cell_centroids)
    assert weighted_modular(big.interior, interval64.cell_measures, pv, 1.0) == np.inf
    # in the band the modular matches a log-space sum, where it stays finite
    for lam in (1e18, 1e60):
        want = math.fsum(
            w * math.exp(q * math.log(v / lam))
            for w, v, q in zip(interval64.cell_measures, big.interior, pv)
        )
        assert weighted_modular(big.interior, interval64.cell_measures, pv, lam) == pytest.approx(want, rel=1e-12)
    # a Lebesgue norm whose root is reachable never probes a ratio in the
    # band (its cell weights are at least 1/64), so here the 1e120 scale
    # spans the reachable range 2^-200 .. 2^200 instead
    small = fn(interval64, lambda x: 1e-60 * (x[:, 0] + 0.5))
    g = fn(square8, lambda x: x[:, 0] + x[:, 1] ** 2)
    pq = fl.pair_quadrature(square8, "interior")
    p2 = fl.constant_field(2.0, fl.PAIR)
    for norm in (
        lambda c: fl.luxemburg_norm(small.scaled(c), p, "interior"),
        lambda c: fl.gagliardo_seminorm(g.scaled(c), p2, 0.5, pq),
    ):
        res, ref = norm(1e120), norm(1.0)
        assert res.status == ref.status == fl.CONVERGED
        assert abs(res.modular_at_lambda - 1.0) <= 1e-10
        assert res.lambda_star == pytest.approx(1e120 * ref.lambda_star, rel=1e-11)


def test_bracket_failure_when_modular_never_reaches_one():
    res = solve_unit_modular(lambda lam: 0.5)
    assert res.status == fl.BRACKET_FAILURE
    assert np.isnan(res.lambda_star)


_NAN = math.nan
_EXPANSION_CASES = {
    # rho(1) is NaN: no side of lambda = 1 to expand towards
    "nan-at-1": (lambda lam: _NAN, [1.0], (_NAN, _NAN, (1.0, 1.0), 1, fl.BRACKET_FAILURE)),
    # rho(1) > 1: double up to the first value below 1, bisect from (2, 4)
    "above-1": (lambda lam: 5.0 / lam**2, [1.0, 2.0, 4.0, 3.0], None),
    # rho(1) < 1: halve down to the first value above 1, bisect from (1/16, 1/8)
    "below-1": (lambda lam: 0.01 / lam**2, [1.0, 0.5, 0.25, 0.125, 0.0625, 0.09375], None),
    "nan-doubling": (
        lambda lam: _NAN if lam >= 4.0 else 5.0 / lam**2,
        [1.0, 2.0, 4.0],
        (_NAN, _NAN, (2.0, 4.0), 3, fl.BRACKET_FAILURE),
    ),
    "nan-halving": (
        lambda lam: _NAN if lam <= 0.25 else 0.01 / lam**2,
        [1.0, 0.5, 0.25],
        (_NAN, _NAN, (0.25, 0.5), 3, fl.BRACKET_FAILURE),
    ),
    "one-doubling": (lambda lam: 4.0 / lam**2, [1.0, 2.0], (2.0, 1.0, (2.0, 2.0), 2, fl.CONVERGED)),
    "one-halving": (lambda lam: 0.25 / lam**2, [1.0, 0.5], (0.5, 1.0, (0.5, 0.5), 2, fl.CONVERGED)),
    # MAX_EXPAND probes past lambda = 1 without crossing; the result carries rho(1)
    "exhausted-doubling": (
        lambda lam: 2.0 + 1.0 / lam,
        [2.0**k for k in range(modular.MAX_EXPAND + 1)],
        (_NAN, 3.0, (2.0**200, 2.0**201), 201, fl.BRACKET_FAILURE),
    ),
    "exhausted-halving": (
        lambda lam: lam / 2.0,
        [2.0**-k for k in range(modular.MAX_EXPAND + 1)],
        (_NAN, 0.5, (2.0**-201, 2.0**-200), 201, fl.BRACKET_FAILURE),
    ),
}


@pytest.mark.parametrize("case", sorted(_EXPANSION_CASES))
def test_root_expansion_probe_sequence(case):
    rho, want_probes, want = _EXPANSION_CASES[case]
    seen = []

    def recorded(lam):
        seen.append(lam)
        return rho(lam)

    res = solve_unit_modular(recorded)
    assert res.iterations == len(seen)
    if want is None:
        # the expansion, then the first bisection midpoint
        assert seen[: len(want_probes)] == want_probes
        assert res.status == fl.CONVERGED and abs(res.modular_at_lambda - 1.0) <= 1e-10
    else:
        assert seen == want_probes
        # repr compares NaN fields and every float to the last bit
        assert repr((res.lambda_star, res.modular_at_lambda, res.bracket, res.iterations, res.status)) == repr(want)


def test_root_at_lambda_one_is_returned_at_once():
    # rho(1) == 1 exactly: the first probe is the root, with no expansion
    res = solve_unit_modular(lambda lam: 1.0)
    assert repr((res.lambda_star, res.modular_at_lambda, res.bracket, res.iterations, res.status)) == repr(
        (1.0, 1.0, (1.0, 1.0), 1, fl.CONVERGED)
    )


def test_bisection_midpoint_that_hits_one_is_returned():
    # 1.5 / lam expands to (1, 2), and its first midpoint 1.5 gives exactly 1
    seen = []

    def rho(lam):
        seen.append(lam)
        return 1.5 / lam

    res = solve_unit_modular(rho)
    assert seen == [1.0, 2.0, 1.5]
    assert repr((res.lambda_star, res.modular_at_lambda, res.bracket, res.iterations, res.status)) == repr(
        (1.5, 1.0, (1.5, 1.5), 3, fl.CONVERGED)
    )


def _scope_samples(f, p, scope):
    """The values, weights and sampled exponent a Lebesgue norm of the
    scope sums over."""
    dom = f.domain
    if scope == "interior":
        return f.interior, dom.cell_measures, p.eval_points(dom.cell_centroids)
    return f.boundary, dom.facet_measures, p.eval_points(dom.facet_centroids)


def _bisected_norm(f, p, scope):
    """The Luxemburg norm by the package bisection, closed form or not."""
    return fl.luxemburg_weighted(*_scope_samples(f, p, scope))


@pytest.mark.parametrize("scale", [1e-40, 1e-3, 1.0, 7.0, 1e45])
@pytest.mark.parametrize("p_value", [1.2, 2.0, 2.5, 4.0])
@pytest.mark.parametrize("scope", ["interior", "boundary"])
def test_constant_p_norm_is_closed_form_and_matches_bisection(scope, p_value, scale, square16):
    f = fn(square16, lambda x: scale * (np.sin(3.0 * x[:, 0]) + x[:, 1] ** 2 - 0.2))
    arity = fl.POINT if scope == "interior" else fl.BOUNDARY
    p = fl.constant_field(p_value, arity)
    res = fl.luxemburg_norm(f, p, scope)
    samples = _scope_samples(f, p, scope)
    rho1 = weighted_modular(*samples, 1.0)
    lam = rho1 ** (1.0 / p_value)
    assert (res.lambda_star, res.bracket, res.iterations, res.status) == (lam, (lam, lam), 2, fl.CONVERGED)
    assert res.modular_at_lambda == rho1 * lam**-p_value
    bisected = _bisected_norm(f, p, scope)
    assert bisected.iterations > 2
    assert res.lambda_star == pytest.approx(bisected.lambda_star, rel=1e-12)
    assert weighted_modular(*samples, res.lambda_star) == pytest.approx(1.0, rel=1e-12)


# the bisection's own results where the closed form does not apply, pinned
# before the closed form existed: 1e100 data at p = 2 has rho(1) = 1.08e200,
# finite, but a root of about 1e100 past the 2^200 reach; 1e55 data at p = 6
# has rho(1) = inf and a root of about 1e55 within reach
OUT_OF_REACH = {
    "root-past-reach": (1e100, 2.0, (math.nan, 1.08331298828125e200, (1.6069380442589903e60, 3.2138760885179806e60),
                                     201, fl.BRACKET_FAILURE)),
    "rho-at-1-overflows": (1e55, 6.0, (1.160227967521018e55, 1.000000000001684,
                                       (1.1602279675204605e55, 1.1602279675215755e55), 224, fl.CONVERGED)),
}


@pytest.mark.parametrize("name", sorted(OUT_OF_REACH))
def test_constant_p_norm_out_of_closed_form_reach_is_bisected(name, interval64):
    scale, p_value, want = OUT_OF_REACH[name]
    f = fn(interval64, lambda x: scale * (x[:, 0] + 0.5))
    p = fl.constant_field(p_value)
    res = fl.luxemburg_norm(f, p, "interior")
    assert repr((res.lambda_star, res.modular_at_lambda, res.bracket, res.iterations, res.status)) == repr(want)
    assert repr(res) == repr(_bisected_norm(f, p, "interior"))


# 1e-53 (x + 0.5) at p = 6 on 64 cells: each w |v|^6 is about 1.6e-320, a
# subnormal only a few thousand ulps above 0, so rho(1) is off by about 1e-5
# relative and its closed-form root by about 1e-6; the root is bisected,
# where |v / lambda| is near 1
TINY, TINY_P = 1e-53, 6.0


def test_constant_p_norm_of_subnormal_terms_is_bisected(interval64):
    f = fn(interval64, lambda x: TINY * (x[:, 0] + 0.5))
    p = fl.constant_field(TINY_P)
    rho1 = weighted_modular(*_scope_samples(f, p, "interior"), 1.0)
    assert 0.0 < rho1 < np.finfo(float).tiny
    res = fl.luxemburg_norm(f, p, "interior")
    assert repr(res) == repr(_bisected_norm(f, p, "interior"))
    assert res.iterations > 2 and res.status == fl.CONVERGED
    # the norm is homogeneous in f: the same data at scale 1 has normal terms
    unit = fl.luxemburg_norm(fn(interval64, lambda x: x[:, 0] + 0.5), p, "interior")
    assert unit.iterations == 2
    assert res.lambda_star == pytest.approx(TINY * unit.lambda_star, rel=1e-12)


def test_constant_p_seminorm_of_subnormal_terms_is_bisected(interval64):
    f = fn(interval64, lambda x: TINY * (x[:, 0] + 0.5))
    p = fl.constant_field(TINY_P, fl.PAIR)
    pq = fl.pair_quadrature(interval64, "interior")
    rho1 = fl.modular_gagliardo(f, p, 0.5, pq, 1.0)
    assert 0.0 < rho1 < np.finfo(float).tiny
    res = fl.gagliardo_seminorm(f, p, 0.5, pq)
    assert res.iterations > 2 and res.status == fl.CONVERGED
    assert res.modular_at_lambda == pytest.approx(1.0, rel=1e-10)
    unit = fl.gagliardo_seminorm(fn(interval64, lambda x: x[:, 0] + 0.5), p, 0.5, pq)
    assert unit.iterations == 2
    assert res.lambda_star == pytest.approx(TINY * unit.lambda_star, rel=1e-12)
    bisected = solve_unit_modular(lambda lam: fl.modular_gagliardo(f, p, 0.5, pq, lam))
    assert res.lambda_star == pytest.approx(bisected.lambda_star, rel=1e-12)


@pytest.mark.parametrize("pc", [0.0, -1.0, "1e400"])
@pytest.mark.parametrize("norm", ["lebesgue", "seminorm", "boundary-seminorm"])
@pytest.mark.parametrize("data", ["x1", "zero"])
def test_constant_exponent_not_above_zero_raises(norm, pc, data):
    """A constant p <= 0 has no norm: rho is constant (p = 0) or grows with
    lambda (p < 0).  Nor has p = +inf, the constant "1e400" folds to (built
    by parse_field, as constant_field refuses it).  Each norm raises
    FieldError naming its exponent, also for data a norm would otherwise
    call the zero function: a seminorm by its parameter, a Lebesgue norm
    by the exponent's source text."""
    dom = fl.build_rectangle((0.0, 0.0), (1.0, 1.0), 4, 4)
    f = fn(dom, lambda x: x[:, 0] if data == "x1" else 0.0 * x[:, 0])
    call, name = {
        "lebesgue": (lambda: fl.luxemburg_norm(f, fl.parse_field(pc, fl.POINT), "interior"), repr(str(pc))),
        "seminorm": (
            lambda: fl.gagliardo_seminorm(f, fl.parse_field(pc, fl.PAIR), 0.5, fl.pair_quadrature(dom, "interior")),
            "p",
        ),
        "boundary-seminorm": (
            lambda: fl.boundary_gagliardo_seminorm(
                f, fl.parse_field(pc, fl.POINT), 0.5, fl.pair_quadrature(dom, "boundary")
            ),
            "q",
        ),
    }[norm]
    want = "finite, got the constant inf" if pc == "1e400" else f"positive, got the constant {pc:g}"
    with pytest.raises(fl.FieldError, match=f"exponent {re.escape(name)} must be {want}"):
        call()


# variable exponents with no Luxemburg norm on a 16-cell interval, sampled at
# +inf, 0 or below 0: the word the error uses, then the first bad sample at
# the cell centroids and at the facets x = 0 and x = 1.  Without the check
# each returns a root, "2 + 1e400*x" and "0*x" a converged one.  The error
# names the exponent by its source text; full_norm's is the diagonal of the
# mean extension.
BAD_SAMPLES = {
    "2 + 1e400*x": ("finite", "inf", "inf"),
    "0*x": ("positive", "0", "0"),
    "x - 0.5": ("positive", "-0.46875", "-0.5"),
}


@pytest.mark.parametrize("src", sorted(BAD_SAMPLES))
@pytest.mark.parametrize("norm", ["interior", "boundary", "full-norm"])
def test_sampled_exponent_without_a_norm_raises(norm, src):
    dom = fl.build_interval(0.0, 1.0, 16)
    f = fn(dom, lambda x: x[:, 0] + 0.5)
    p = fl.parse_field(src, fl.POINT)
    assert p.constant_value() is None
    want, at_cell, at_facet = BAD_SAMPLES[src]
    sample = at_facet if norm == "boundary" else at_cell
    name = f"diag((({src}) averaged with itself))" if norm == "full-norm" else src
    with pytest.raises(fl.FieldError, match=f"^exponent {re.escape(repr(name))} must be {want}, got the sample {sample}$"):
        if norm == "full-norm":
            fl.full_norm(f, fl.extend_symmetric_mean(p), 0.5, fl.pair_quadrature(dom, "interior"))
        else:
            fl.luxemburg_norm(f, p, norm)


@pytest.mark.parametrize("scope", ["interior", "boundary"])
def test_sampled_nan_exponent_gives_bracket_failure(scope):
    """A NaN sample (sqrt of a negative left of x = 0.5) is not refused: the
    modular is NaN at lambda = 1, and the root fails at once."""
    dom = fl.build_interval(0.0, 1.0, 16)
    f = fn(dom, lambda x: x[:, 0] + 0.5)
    res = fl.luxemburg_norm(f, fl.parse_field("2 + sqrt(x - 0.5)", fl.POINT), scope)
    assert math.isnan(res.lambda_star) and math.isnan(res.modular_at_lambda)
    assert (res.iterations, res.status) == (1, fl.BRACKET_FAILURE)


def test_zero_function_with_constant_p_keeps_its_status(interval64):
    z = fn(interval64, lambda x: np.zeros(x.shape[0]))
    res = fl.luxemburg_norm(z, fl.constant_field(2.0), "interior")
    assert (res.lambda_star, res.iterations, res.status) == (0.0, 0, fl.ZERO_FUNCTION)


def test_weighted_modular_direct():
    v = np.array([1.0, 2.0])
    w = np.array([0.25, 0.5])
    p = np.array([2.0, 3.0])
    want = 0.25 * (1.0 / 2.0) ** 2 + 0.5 * (2.0 / 2.0) ** 3
    assert weighted_modular(v, w, p, 2.0) == pytest.approx(want, rel=1e-15)


# -- Gagliardo seminorms -----------------------------------------------------


def test_seminorm_golden(interval64):
    f = fn(interval64, lambda x: x[:, 0])
    pq = fl.pair_quadrature(interval64, "interior")
    res = fl.gagliardo_seminorm(f, fl.constant_field(2.0, fl.PAIR), 0.25, pq)
    assert res.lambda_star == pytest.approx(0.7297137404708482, rel=1e-12)


def test_seminorm_matches_dense_oracle_variable_exponents():
    dom = fl.build_interval(0.0, 1.0, 24)
    f = fn(dom, lambda x: np.sin(2.0 * x[:, 0]) + 0.3 * x[:, 0])
    p = fl.parse_field("2 + (x + y)/2", fl.PAIR)
    s = fl.parse_field("0.3 + 0.1*x", fl.POINT)
    pq = fl.pair_quadrature(dom, "interior")
    res = fl.gagliardo_seminorm(f, p, s, pq)
    want = oracles.dense_gagliardo(
        dom,
        f.interior,
        lambda x, y: 2.0 + (x[..., 0] + y[..., 0]) / 2.0,
        lambda x, y: 0.3 + 0.1 * x[..., 0],
    )
    assert res.lambda_star == pytest.approx(want, rel=1e-10)


def test_seminorm_matches_dense_oracle_2d():
    dom = fl.build_rectangle((0.0, 0.0), (1.0, 1.0), 5, 5)
    f = fn(dom, lambda x: x[:, 0] * x[:, 1] + 0.1)
    p = fl.parse_field("2.2", fl.PAIR)
    pq = fl.pair_quadrature(dom, "interior")
    res = fl.gagliardo_seminorm(f, p, 0.5, pq)
    want = oracles.dense_gagliardo(dom, f.interior, lambda x, y: 2.2, lambda x, y: 0.5)
    assert res.lambda_star == pytest.approx(want, rel=1e-10)


def test_point_exponent_is_extended_by_symmetric_mean():
    """A point exponent fed to the seminorm must act as p(x,y) =
    (p(x) + p(y))/2, not as a row-wise broadcast."""
    dom = fl.build_interval(0.0, 1.0, 20)
    f = fn(dom, lambda x: x[:, 0] ** 2)
    p_point = fl.parse_field("2 + x", fl.POINT)
    pq = fl.pair_quadrature(dom, "interior")
    res = fl.gagliardo_seminorm(f, p_point, 0.4, pq)
    res_mean = fl.gagliardo_seminorm(f, fl.extend_symmetric_mean(p_point), 0.4, pq)
    assert res.lambda_star == res_mean.lambda_star


def test_seminorm_transpose_invariance():
    # ordered pairs cover both orders, so transposing the exponent grid
    # reindexes the same sum and the root agrees bit for bit
    dom = fl.build_interval(0.0, 1.0, 16)
    f = fn(dom, lambda x: np.cos(x[:, 0]))
    p = fl.parse_field("2 + x/(1 + y)", fl.PAIR)
    pq = fl.pair_quadrature(dom, "interior")
    a = fl.gagliardo_seminorm(f, p, 0.5, pq)
    b = fl.gagliardo_seminorm(f, fl.transpose_field(p), 0.5, pq)
    assert a.lambda_star == b.lambda_star


@pytest.mark.parametrize(
    "f_src, rho1",
    [
        # |dv|^2 overflows: rho(1) = inf, and inf^(1/p) is no root
        ("1e200*x", math.inf),
        # |dv|^2 underflows on every pair: rho(1) = 0 though f is not constant
        ("1e-200*x", 0.0),
    ],
)
def test_constant_p_seminorm_flags_a_modular_without_root(f_src, rho1):
    dom = fl.build_interval(0.0, 1.0, 23)
    f = fl.function_on_domain(fl.parse_field(f_src, fl.POINT), dom)
    pq = fl.pair_quadrature(dom, "interior")
    p = fl.constant_field(2.0, fl.PAIR)
    assert fl.modular_gagliardo(f, p, 0.25, pq, 1.0) == rho1
    res = fl.gagliardo_seminorm(f, p, 0.25, pq)
    assert repr((res.lambda_star, res.modular_at_lambda, res.bracket, res.iterations, res.status)) == repr(
        (math.nan, rho1, (1.0, 1.0), 1, fl.BRACKET_FAILURE)
    )


def test_seminorm_zero_for_constants(square8):
    c = fn(square8, lambda x: np.full(x.shape[0], 3.7))
    pq = fl.pair_quadrature(square8, "interior")
    res = fl.gagliardo_seminorm(c, fl.constant_field(2.0, fl.PAIR), 0.5, pq)
    assert res.status == fl.ZERO_FUNCTION
    assert res.lambda_star == 0.0


def test_seminorm_homogeneity_constant_p(square8):
    f = fn(square8, lambda x: x[:, 0] + 2.0 * x[:, 1])
    pq = fl.pair_quadrature(square8, "interior")
    one = fl.gagliardo_seminorm(f, fl.constant_field(3.0, fl.PAIR), 0.5, pq)
    five = fl.gagliardo_seminorm(f.scaled(5.0), fl.constant_field(3.0, fl.PAIR), 0.5, pq)
    assert five.lambda_star == pytest.approx(5.0 * one.lambda_star, rel=1e-12)


def test_boundary_seminorm_keeps_ambient_dimension(square8):
    """The facet-pair kernel uses |x - y|^(n + s p) with the ambient n,
    matching the interior convention."""
    f = fn(square8, lambda x: x[:, 0])
    bq = fl.pair_quadrature(square8, "boundary")
    res = fl.boundary_gagliardo_seminorm(f, fl.constant_field(2.0, fl.PAIR), 0.25, bq)
    pts, meas = square8.facet_centroids, square8.facet_measures
    dd = np.linalg.norm(pts[:, None, :] - pts[None, :, :], axis=2)
    np.fill_diagonal(dd, 1.0)  # placeholder, masked by the zero weight
    ww = np.outer(meas, meas)
    np.fill_diagonal(ww, 0.0)
    dv = np.abs(f.boundary[:, None] - f.boundary[None, :])
    ambient = float(np.sum(ww * dv**2 / dd ** (2.0 + 0.5))) ** 0.5
    intrinsic = float(np.sum(ww * dv**2 / dd ** (1.0 + 0.5))) ** 0.5
    assert res.lambda_star == pytest.approx(ambient, rel=1e-12)
    assert abs(res.lambda_star - intrinsic) > 0.1


def test_scope_mismatch_raises(square8):
    f = fn(square8, lambda x: x[:, 0])
    bq = fl.pair_quadrature(square8, "boundary")
    iq = fl.pair_quadrature(square8, "interior")
    with pytest.raises(ModularError, match="boundary quadrature"):
        fl.gagliardo_seminorm(f, fl.constant_field(2.0, fl.PAIR), 0.5, bq)
    with pytest.raises(ModularError, match="boundary quadrature"):
        fl.boundary_gagliardo_seminorm(f, fl.constant_field(2.0, fl.PAIR), 0.5, iq)


@pytest.mark.parametrize("lam", [0.0, -1.0, math.nan])
def test_modulars_need_a_positive_lambda(lam, square8):
    f = fn(square8, lambda x: x[:, 0])
    pair2 = fl.constant_field(2.0, fl.PAIR)
    with pytest.raises(ModularError, match="modular needs lambda > 0"):
        weighted_modular(np.ones(3), np.ones(3), np.full(3, 2.0), lam)
    with pytest.raises(ModularError, match="modular needs lambda > 0"):
        fl.modular_gagliardo(f, pair2, 0.5, fl.pair_quadrature(square8, "interior"), lam)


def test_lebesgue_modular_needs_a_known_scope(square8):
    f = fn(square8, lambda x: x[:, 0])
    with pytest.raises(ModularError, match="unknown scope 'edges'"):
        fl.luxemburg_norm(f, fl.constant_field(2.0), "edges")


def test_exponent_arity_and_role_are_checked(square8):
    f = fn(square8, lambda x: x[:, 0])
    pair = fl.extend_symmetric_mean(fl.parse_field("2 + x1", fl.POINT))
    with pytest.raises(fl.FieldError, match="needs a point field; apply diagonal_field"):
        fl.luxemburg_norm(f, pair, "interior")
    boundary = fl.constant_field(2.0, fl.BOUNDARY)
    with pytest.raises(fl.FieldError, match="boundary field cannot weight an interior norm"):
        fl.luxemburg_norm(f, boundary, "interior")
    # a boundary field does weight a boundary norm
    assert fl.luxemburg_norm(f, boundary, "boundary").status == fl.CONVERGED
    point = fl.parse_field("2 + x1", fl.POINT)
    with pytest.raises(fl.FieldError, match="needs a pair exponent; apply extend_symmetric_mean"):
        fl.modular_gagliardo(f, point, 0.5, fl.pair_quadrature(square8, "interior"), 1.0)


def test_full_norm_is_sum_of_parts(square8):
    f = fn(square8, lambda x: x[:, 0] ** 2 + x[:, 1])
    p = fl.extend_symmetric_mean(fl.parse_field("2 + x1", fl.POINT))
    pq = fl.pair_quadrature(square8, "interior")
    total = fl.full_norm(f, p, 0.5, pq)
    leb = fl.luxemburg_norm(f, fl.diagonal_field(p), "interior")
    semi = fl.gagliardo_seminorm(f, p, 0.5, pq)
    assert total == leb.lambda_star + semi.lambda_star


def test_lebesgue_modular_at_root_is_one(interval64):
    f = fn(interval64, lambda x: x[:, 0] + 0.2)
    p = fl.parse_field("2 + x", fl.POINT)
    res = fl.luxemburg_norm(f, p, "interior")
    assert res.status == fl.CONVERGED
    assert res.modular_at_lambda == pytest.approx(1.0, abs=1e-10)
    # the reported modular is the scope's own sum at the returned root
    assert res.modular_at_lambda == weighted_modular(*_scope_samples(f, p, "interior"), res.lambda_star)


def test_thread_count_leaves_seminorm_bit_identical():
    dom = fl.build_rectangle((0.0, 0.0), (1.0, 1.0), 12, 12)
    f = fn(dom, lambda x: np.sin(x[:, 0]) * x[:, 1])
    p = fl.parse_field("2 + (x1 + y1)/2", fl.PAIR)
    pq = fl.pair_quadrature(dom, "interior")
    one = fl.gagliardo_seminorm(f, p, 0.5, pq, threads=1)
    four = fl.gagliardo_seminorm(f, p, 0.5, pq, threads=4)
    assert one.lambda_star == four.lambda_star
    assert one.iterations == four.iterations


# -- randomized invariants ---------------------------------------------------

EXPONENT_SOURCES = ["2.0", "2 + x", "1.3 + x^2", "3 - x/2", "2 + sin(3*x)^2"]


@given(
    n=st.integers(8, 32),
    p_src=st.sampled_from(EXPONENT_SOURCES),
    amp=st.floats(0.1, 10.0),
    freq=st.floats(0.5, 9.0),
    shift=st.floats(-0.5, 0.5),
)
def test_unit_ball_and_homogeneity(n, p_src, amp, freq, shift):
    dom = fl.build_interval(0.0, 1.0, n)
    f = fn(dom, lambda x: amp * np.sin(freq * x[:, 0]) + shift)
    if float(np.max(np.abs(f.interior))) == 0.0:
        return
    p = fl.parse_field(p_src, fl.POINT)
    res = fl.luxemburg_norm(f, p, "interior")
    assert res.status == fl.CONVERGED
    assert abs(res.modular_at_lambda - 1.0) < 1e-10
    scaled = fl.luxemburg_norm(f.scaled(3.5), p, "interior")
    assert scaled.lambda_star == pytest.approx(3.5 * res.lambda_star, rel=1e-10)


@given(
    n=st.integers(8, 24),
    p_src=st.sampled_from(EXPONENT_SOURCES),
    a=st.floats(-2.0, 2.0),
    b=st.floats(-2.0, 2.0),
)
def test_triangle_inequality(n, p_src, a, b):
    # keep coefficients away from the sub-bracket magnitude range, where
    # the norm legitimately reports bracket-failure instead of a value
    a, b = round(a, 3), round(b, 3)
    dom = fl.build_interval(0.0, 1.0, n)
    f = fn(dom, lambda x: a * x[:, 0] + 0.3)
    g = fn(dom, lambda x: b * np.cos(2.0 * x[:, 0]))
    h = fl.GridFunction(dom, f.interior + g.interior, f.boundary + g.boundary)
    p = fl.parse_field(p_src, fl.POINT)
    nf = fl.luxemburg_norm(f, p, "interior").lambda_star
    ng = fl.luxemburg_norm(g, p, "interior").lambda_star
    nh = fl.luxemburg_norm(h, p, "interior").lambda_star
    assert nh <= nf + ng + 1e-10 * max(1.0, nf + ng)
