"""Product-norm inequality, frozen-pair comparison, trace ratios, the
concentration sweep, and the per-patch chain of discrete inequalities."""

import math
import warnings

import numpy as np
import pytest

import fraclab as fl
from fraclab import embeddings, geometry
from fraclab.embeddings import OK, REJECTED
from fraclab.errors import (
    ConjugacyError,
    FamilyError,
    MeshInconsistencyError,
    NumericError,
    ParameterRangeError,
)

import oracles


def fn(dom, callable_):
    return fl.GridFunction.from_callable(dom, callable_)


# -- pointwise-conjugate product inequality ----------------------------------


def test_holder_rejects_nonconjugate_exponents(interval64):
    f = fn(interval64, lambda x: x[:, 0])
    with pytest.raises(ConjugacyError, match="not conjugate at"):
        fl.holder_check(f, f, fl.constant_field(2.0), fl.constant_field(2.0), fl.constant_field(1.5))


def test_holder_rejects_a_nan_exponent(interval64):
    # the residual is NaN where r is, and a NaN is no conjugate pair
    f = fn(interval64, lambda x: x[:, 0])
    r = fl.parse_field("sqrt(x - 0.5)", fl.POINT)
    with pytest.raises(ConjugacyError, match=r"not conjugate at \[0\.0078125\]: residual nan"):
        fl.holder_check(f, f, fl.constant_field(2.0), fl.constant_field(2.0), r)


def test_holder_classical_pair(interval64):
    f = fn(interval64, lambda x: x[:, 0])
    g = fn(interval64, lambda x: 1.0 - x[:, 0])
    rep = fl.holder_check(f, g, fl.constant_field(2.0), fl.constant_field(2.0), fl.constant_field(1.0))
    assert rep.status == OK
    # constant exponents reduce to the classical inequality, constant 1
    assert rep.ratio <= 1.0 + 1e-12
    assert rep.product_norm <= rep.factor_norms[0] * rep.factor_norms[1] * (1.0 + 1e-12)


def test_holder_unit_functions_are_extremal(interval64):
    one = fn(interval64, lambda x: np.ones(x.shape[0]))
    p = fl.parse_field("2 + x", fl.POINT)
    q = fl.conjugate_field(p, fl.constant_field(1.0))
    rep = fl.holder_check(one, one, p, q, fl.constant_field(1.0))
    # every norm of the unit function on unit measure is exactly 1
    assert rep.ratio == 1.0


def test_holder_variable_conjugates_stay_below_split_bound(interval64):
    p = fl.parse_field("2 + x", fl.POINT)
    q = fl.parse_field("(2 + x)/(1 + x)", fl.POINT)
    r = fl.constant_field(1.0)
    for src in ["1", "x", "sin(3.141592653589793*x)", "exp(-x)", "1 + x*x"]:
        f = fl.function_on_domain(fl.parse_field(src, fl.POINT), interval64)
        g = fn(interval64, lambda x: np.cos(x[:, 0]) + 1.5)
        rep = fl.holder_check(f, g, p, q, r)
        if rep.status == OK:
            # the two-term splitting argument caps the constant at 2
            assert rep.ratio <= 2.0


def test_holder_boundary_scope(square16):
    f = fn(square16, lambda x: x[:, 0] + 1.0)
    g = fn(square16, lambda x: x[:, 1] + 1.0)
    rep = fl.holder_check(
        f, g,
        fl.constant_field(3.0, fl.BOUNDARY),
        fl.constant_field(1.5, fl.BOUNDARY),
        fl.constant_field(1.0, fl.BOUNDARY),
        scope="boundary",
    )
    assert rep.status == OK
    assert rep.ratio <= 1.0 + 1e-12


def test_holder_zero_factor(interval64):
    z = fn(interval64, lambda x: np.zeros(x.shape[0]))
    f = fn(interval64, lambda x: x[:, 0] + 1.0)
    rep = fl.holder_check(z, f, fl.constant_field(2.0), fl.constant_field(2.0), fl.constant_field(1.0))
    assert rep.status == fl.ZERO_FUNCTION
    assert rep.ratio is None


# f's norms pass 2^200 and fail their bracketing; the other factor's do not
HOLDER_FAILURES = {
    "failed-first-factor": (lambda x: 1e200 * (1.0 + x[:, 0]), lambda x: 1.0 + x[:, 0]),
    "failed-second-factor": (lambda x: 1.0 + x[:, 0], lambda x: 1e200 * (1.0 + x[:, 0])),
    # a zero factor used to turn the failed one into zero-function
    "zero-and-failed-factor": (lambda x: np.zeros(x.shape[0]), lambda x: 1e200 * (1.0 + x[:, 0])),
}


@pytest.mark.parametrize("name", sorted(HOLDER_FAILURES))
def test_holder_with_a_failed_norm_takes_bracket_failure(name, interval64):
    f_fn, g_fn = HOLDER_FAILURES[name]
    f, g = fn(interval64, f_fn), fn(interval64, g_fn)
    two = fl.constant_field(2.0)
    rep = fl.holder_check(f, g, two, two, fl.constant_field(1.0))
    assert rep.status == fl.BRACKET_FAILURE
    assert rep.ratio is None
    # the product of a zero factor is zero, whatever the other factor
    assert rep.product_norm == 0.0 if name == "zero-and-failed-factor" else math.isnan(rep.product_norm)
    failed = [math.isnan(v) for v in rep.factor_norms]
    assert failed == [name == "failed-first-factor", name != "failed-first-factor"]


# -- frozen-pair embedding comparison ----------------------------------------


def test_embed_kernel_integral_golden():
    """(s - t) r p / (p - r) - n = 1/2 here, and the double integral of
    |x - y|^(1/2) over the unit square is 8/15."""
    dom = fl.build_interval(0.0, 1.0, 256)
    f = fn(dom, lambda x: np.sin(2.0 * np.pi * x[:, 0]))
    rep = fl.embedding_check(f, fl.constant_field(3.0, fl.PAIR), 0.5, 0.25, 2.0)
    assert abs(rep.kernel_bound - 8.0 / 15.0) < 2e-3
    assert rep.kernel_bound == pytest.approx(0.5332293318647131, rel=1e-12)
    assert not rep.zero_function
    assert math.isfinite(rep.lebesgue_ratio) and rep.lebesgue_ratio > 0
    assert math.isfinite(rep.seminorm_ratio) and rep.seminorm_ratio > 0


def test_embed_accepts_point_exponent(interval64):
    f = fn(interval64, lambda x: x[:, 0])
    rep = fl.embedding_check(f, fl.parse_field("2.5 + x/2", fl.POINT), 0.5, 0.25, 1.5)
    assert math.isfinite(rep.seminorm_ratio)


@pytest.mark.parametrize(
    "t,r,fragment",
    [
        (0.5, 2.0, "infimum of s"),   # t must sit strictly below s
        (0.6, 2.0, "infimum of s"),
        (0.25, 1.0, "infimum of p"),  # r must exceed 1
        (0.25, 3.0, "infimum of p"),  # and stay below p
    ],
)
def test_embed_parameter_range(interval64, t, r, fragment):
    f = fn(interval64, lambda x: x[:, 0])
    with pytest.raises(ParameterRangeError, match=fragment):
        fl.embedding_check(f, fl.constant_field(3.0, fl.PAIR), 0.5, t, r)


@pytest.mark.parametrize("scale", [1e200, 1e-200])
def test_embed_raises_when_a_norm_fails(scale):
    # norms beyond 2^200 or below 2^-200 fail their bracketing
    dom = fl.build_rectangle((0.0, 0.0), (1.0, 1.0), 8, 8)
    f = fn(dom, lambda x: scale * (x[:, 0] + x[:, 1]))
    with pytest.raises(NumericError, match="^embedding: variable seminorm: Luxemburg bracketing failed$"):
        fl.embedding_check(f, fl.constant_field(2.5, fl.PAIR), 0.5, 0.25, 1.5)


def test_embed_zero_function(interval64):
    z = fn(interval64, lambda x: np.zeros(x.shape[0]))
    rep = fl.embedding_check(z, fl.constant_field(3.0, fl.PAIR), 0.5, 0.25, 2.0)
    assert rep.zero_function
    assert rep.lebesgue_ratio == 1.0
    assert rep.seminorm_ratio == 1.0


# -- trace ratio -------------------------------------------------------------


def test_trace_unit_function_closed_form(square16):
    one = fn(square16, lambda x: np.ones(x.shape[0]))
    rep = fl.trace_check(one, fl.constant_field(2.0, fl.PAIR), fl.constant_field(1.5, fl.BOUNDARY), 0.5)
    # boundary: root of 4 (1/lam)^1.5 = 1; interior: unit norm, zero seminorm
    assert rep.full_norm == pytest.approx(1.0, rel=1e-12)
    assert rep.ratio == pytest.approx(4.0 ** (2.0 / 3.0), abs=1e-6)
    assert rep.subcritical
    assert rep.gap_k == 0.5
    assert rep.status == OK


def test_trace_supercritical_flag(square8):
    f = fn(square8, lambda x: x[:, 0] + 0.5)
    rep = fl.trace_check(f, fl.constant_field(2.0, fl.PAIR), fl.constant_field(3.0, fl.BOUNDARY), 0.5)
    assert not rep.subcritical
    assert rep.gap_k is None
    assert rep.ratio is not None


def test_trace_zero_function(square8):
    z = fn(square8, lambda x: np.zeros(x.shape[0]))
    rep = fl.trace_check(z, fl.constant_field(2.0, fl.PAIR), fl.constant_field(1.5, fl.BOUNDARY), 0.5)
    assert rep.status == fl.ZERO_FUNCTION
    assert rep.ratio is None


def test_trace_zero_interior_with_nonzero_boundary_is_inconsistent(square8):
    f = fl.GridFunction(square8, np.zeros(square8.n_cells), np.ones(square8.n_facets))
    with pytest.raises(MeshInconsistencyError, match="interior norm vanished") as err:
        fl.trace_check(f, fl.constant_field(2.0, fl.PAIR), fl.constant_field(1.5, fl.BOUNDARY), 0.5)
    assert err.value.exit_code == 3


@pytest.mark.parametrize(
    "q, want",
    [("x1 - 0.5", "positive, got the sample -0.4375"), ("0", "positive, got the constant 0")],
)
def test_trace_names_a_boundary_exponent_without_a_norm(square8, q, want):
    # the boundary norm's exponent is the caller's q, and the error names it
    # by its source text, not as the Lebesgue norm's parameter p
    f = fn(square8, lambda x: x[:, 0] + x[:, 1])
    with pytest.raises(fl.FieldError, match=f"^exponent '{q}' must be {want}$"):
        fl.trace_check(f, fl.constant_field(2.0, fl.PAIR), fl.parse_field(q, fl.BOUNDARY), fl.constant_field(0.5, fl.PAIR))


def test_trace_reports_a_failed_norm_bracket(square16):
    # p is NaN left of x1 = 0.5, where the bump lies: the seminorm's bracketing
    # fails, and the report used to read ok with a NaN ratio
    p = fl.extend_symmetric_mean(fl.parse_field("2 + sqrt(x1 - 0.5)", fl.POINT))
    fam = fl.ConcentrationFamily(center=(0.25, 0.0), a=0.45, scales=(2.0,))
    rep = fl.trace_check(fam.values(square16, 2.0), p, fl.constant_field(1.5, fl.BOUNDARY), 0.5)
    assert rep.status == fl.BRACKET_FAILURE
    assert rep.ratio is None and math.isnan(rep.full_norm)


def test_sweep_rows_inherit_a_failed_norm_bracket(square16):
    # amplitude 8^-100 = 2^-300 puts the norms below the reachable 2^-200
    fam = fl.ConcentrationFamily(center=(0.5, 0.0), a=-100.0, scales=(2.0, 8.0))
    rows = fl.sharpness_sweep(
        fam, fl.constant_field(2.0, fl.PAIR), fl.constant_field(1.5, fl.BOUNDARY), 0.5, square16
    )
    assert [r.status for r in rows] == [OK, fl.BRACKET_FAILURE]
    assert rows[0].ratio > 0 and rows[1].ratio is None


# -- concentration families --------------------------------------------------


def test_mollifier_profile_shape():
    z = np.array([[0.0], [0.5], [1.0], [2.0]])
    v = fl.mollifier_profile(z)
    assert v[0] == pytest.approx(math.exp(-1.0), rel=1e-15)
    assert v[2] == 0.0 and v[3] == 0.0
    assert np.array_equal(v, fl.mollifier_profile(-z))
    assert np.all(np.diff(v) <= 0)


def test_family_values_scale_amplitude(square16):
    fam = fl.ConcentrationFamily(center=(0.5, 0.0), a=0.45, scales=(2.0,))
    f = fam.values(square16, 2.0)
    direct = 2.0**0.45 * fl.mollifier_profile(2.0 * (square16.cell_centroids - np.array([0.5, 0.0])))
    assert np.array_equal(f.interior, direct)
    # tighter bumps touch fewer cells
    assert fam.support_cells(square16, 8.0) < fam.support_cells(square16, 2.0)


def test_sweep_subcritical_control(square16):
    fam = fl.ConcentrationFamily(center=(0.5, 0.0), a=0.2, scales=(1.0, 2.0, 8.0, 64.0))
    rows = fl.sharpness_sweep(
        fam, fl.constant_field(2.0, fl.PAIR), fl.constant_field(1.5, fl.BOUNDARY), 0.5, square16
    )
    assert [r.status for r in rows] == [OK, OK, OK, REJECTED]
    # the bump at scale 64 covers no cells at this resolution
    assert rows[3].ratio is None and rows[3].boundary_norm is None
    for row in rows[:3]:
        assert row.subcritical
        assert row.ratio > 0
        assert row.case_id == "sweep"


def test_sweep_supercritical_requires_blowup_exponent(square16):
    p = fl.constant_field(2.0, fl.PAIR)
    fam = fl.ConcentrationFamily(center=(0.5, 0.0), a=0.2, scales=(2.0,))
    with pytest.raises(FamilyError, match="blow-up condition fails"):
        fl.sharpness_sweep(fam, p, fl.constant_field(3.0, fl.BOUNDARY), 0.5, square16)


def test_sweep_blowup_precondition_scoped_to_supercritical(square16):
    """The same amplitude exponent that is rejected at q = 3 must run as a
    bounded control at q = 1.5 < the critical value 2."""
    p = fl.constant_field(2.0, fl.PAIR)
    fam = fl.ConcentrationFamily(center=(0.5, 0.0), a=0.2, scales=(2.0,))
    rows = fl.sharpness_sweep(fam, p, fl.constant_field(1.5, fl.BOUNDARY), 0.5, square16)
    assert rows[0].status == OK


def test_sweep_interior_admissibility(square16):
    fam = fl.ConcentrationFamily(center=(0.5, 0.0), a=2.0, scales=(2.0,))
    with pytest.raises(FamilyError, match="interior admissibility fails"):
        fl.sharpness_sweep(
            fam, fl.constant_field(2.0, fl.PAIR), fl.constant_field(1.5, fl.BOUNDARY), 0.5, square16
        )


def test_sweep_rejects_a_nan_admissibility_term(square16):
    # p is NaN left of x1 = 0.5, where the anchor ball lies; NaN > 0 is
    # false, so a check of "> 0" let the sweep return NaN norms as ok
    p = fl.extend_symmetric_mean(fl.parse_field("2 + sqrt(x1 - 0.5)", fl.POINT))
    fam = fl.ConcentrationFamily(center=(0.25, 0.0), a=0.5, scales=(2.0,))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(FamilyError, match=r"a p - n \+ s p = nan, not <= 0") as err:
            fl.sharpness_sweep(fam, p, fl.constant_field(1.5, fl.BOUNDARY), 0.5, square16)
    assert str(err.value) == oracles.family_admissibility_error(fam, p, fl.constant_field(0.5), square16)


def _family_fields():
    p_pt = fl.parse_field("2 + x1/4 + x2/5", fl.POINT)
    s_pt = fl.parse_field("0.3 + 0.1*x2 - 0.05*x1", fl.POINT)
    return {
        "pair-p-point-s": (fl.parse_field("2 + x1/4 + y2/5 - x2*y1/10", fl.PAIR), s_pt),
        "point-p-pair-s": (p_pt, fl.parse_field("0.3 + 0.1*y2 - 0.05*x1", fl.PAIR)),
        "mean-p-constant-s": (fl.extend_symmetric_mean(p_pt), fl.constant_field(0.3)),
        "constants": (fl.constant_field(2.0, fl.PAIR), fl.constant_field(0.35)),
    }


@pytest.mark.parametrize("target", [None, 7])
@pytest.mark.parametrize("a", [0.5, 0.6, 0.7])
@pytest.mark.parametrize("fields", sorted(_family_fields()))
def test_family_admissibility_matches_all_pairs_oracle(fields, a, target, square16, monkeypatch):
    if target is not None:
        monkeypatch.setattr(geometry, "PAIR_BLOCK_TARGET", target)
    p, s = _family_fields()[fields]
    fam = fl.ConcentrationFamily(center=(0.5, 0.0), a=a, scales=(2.0,))
    # q = 1 stays below the critical exponent, so only the interior check runs
    q = fl.constant_field(1.0, fl.BOUNDARY)
    try:
        embeddings._check_family(fam, p, q, s, square16)
        got = None
    except FamilyError as err:
        got = str(err)
    assert got == oracles.family_admissibility_error(fam, p, s, square16)


def test_sweep_anchor_must_touch_boundary(square16):
    fam = fl.ConcentrationFamily(center=(0.5, 0.5), a=0.2, scales=(2.0,))
    with pytest.raises(FamilyError, match="anchor ball contains no boundary samples"):
        fl.sharpness_sweep(
            fam, fl.constant_field(2.0, fl.PAIR), fl.constant_field(1.5, fl.BOUNDARY), 0.5, square16
        )


# -- frozen-exponent chain on certificate patches ----------------------------


@pytest.fixture
def canonical_cert(square16):
    p = fl.constant_field(2.0, fl.PAIR)
    q = fl.constant_field(1.5, fl.BOUNDARY)
    cert = fl.covering_partition(p, q, 0.5, square16, 0.5)
    return square16, p, cert


def test_chain_inequalities_hold_exactly(canonical_cert):
    dom, p, cert = canonical_cert
    f = fn(dom, lambda x: x[:, 0] * x[:, 1] + 0.5)
    rep = fl.proof_chain_check(f, cert, p, 0.5)
    assert rep.domain_seminorm > 0
    checked = 0
    for row in rep.rows:
        if row.status != OK:
            continue
        checked += 1
        assert row.second_exact is True
        assert row.monotone_exact is True
        assert row.mu_norm <= row.patch_seminorm <= rep.domain_seminorm
        assert row.frozen_seminorm > 0
        assert row.holder_scale > 0
        assert row.first_ratio == pytest.approx(row.frozen_seminorm / row.mu_norm, rel=1e-15)
    assert checked > 0


def test_chain_accepts_point_exponents(square16):
    """Point-arity exponents are extended by the symmetric mean, and the
    chain inequalities hold when the certificate is built for the same
    configuration (its auxiliary order then sits below s everywhere)."""
    f = fn(square16, lambda x: np.sin(x[:, 0]) + x[:, 1])
    p_pt = fl.parse_field("2 + x1/2", fl.POINT)
    s_pt = fl.parse_field("0.4 + 0.1*x2", fl.POINT)
    q = fl.constant_field(1.2, fl.BOUNDARY)
    pm = fl.extend_symmetric_mean(p_pt)
    k = fl.subcritical_gap(pm, q, s_pt, square16)
    cert = fl.covering_partition(pm, q, s_pt, square16, k)
    assert fl.verify_certificate(cert, pm, q, s_pt, square16)
    rep = fl.proof_chain_check(f, cert, p_pt, s_pt)
    assert any(r.status == OK for r in rep.rows)
    for row in rep.rows:
        if row.status == OK:
            assert row.second_exact and row.monotone_exact


def _oracle_fn(field):
    """field as an oracle's (x, y) -> values on stacked 2-D coordinates."""
    return lambda x, y: field.eval_on((x[..., 0], x[..., 1]), (y[..., 0], y[..., 1]))


CHAIN_CASES = {
    # p, s, q and f: the canonical certificate's fields, and point exponents
    "constant": ("2", "0.5", "1.5", lambda x: x[:, 0] * x[:, 1] + 0.5),
    "point-fields": ("2 + x1/2", "0.4 + 0.1*x2", "1.2", lambda x: np.sin(x[:, 0]) + x[:, 1]),
}


@pytest.mark.parametrize("case", sorted(CHAIN_CASES))
def test_chain_seminorms_match_the_dense_oracle(case, square16):
    """Every ok row's patch seminorm, and its frozen seminorm of (p_i, t),
    against the explicit double sum over the patch's cells, rel 1e-10."""
    p_src, s_src, q_src, values = CHAIN_CASES[case]
    p = fl.extend_symmetric_mean(fl.parse_field(p_src, fl.POINT))
    s = fl.parse_field(s_src, fl.POINT)
    q = fl.parse_field(q_src, fl.BOUNDARY)
    cert = fl.covering_partition(p, q, s, square16, fl.subcritical_gap(p, q, s, square16))
    f = fn(square16, values)
    rep = fl.proof_chain_check(f, cert, p, s)
    checked = 0
    for row, patch in zip(rep.rows, cert.patches):
        if row.status != OK:
            continue
        cells = fl.cells_in_box(square16, np.asarray(patch.box_lo), np.asarray(patch.box_hi))
        vals = f.interior[cells]
        want = oracles.dense_gagliardo(square16, vals, _oracle_fn(p), _oracle_fn(s), subset=cells)
        assert row.patch_seminorm == pytest.approx(want, rel=1e-10)
        frozen = fl.constant_field(patch.p_i, fl.PAIR)
        want = oracles.dense_gagliardo(square16, vals, _oracle_fn(frozen), lambda x, y: patch.t, subset=cells)
        assert row.frozen_seminorm == pytest.approx(want, rel=1e-10)
        checked += 1
    assert checked > 1


@pytest.mark.parametrize("scale", [1e200, 1e-200])
def test_chain_rows_with_a_failed_norm_take_bracket_failure(canonical_cert, scale):
    # no RuntimeWarning either: 1e200 overflows in the frozen sum
    dom, p, cert = canonical_cert
    f = fn(dom, lambda x: scale * (x[:, 0] + x[:, 1]))
    rep = fl.proof_chain_check(f, cert, p, 0.5)
    assert rep.domain_seminorm is None
    assert rep.rows and {r.status for r in rep.rows} == {fl.BRACKET_FAILURE}
    for row in rep.rows:
        assert row.mu_norm is None and row.patch_seminorm is None
        assert (row.first_ratio, row.second_exact, row.monotone_exact) == (None, None, None)
        # the unit function's scale does not see the data
        assert row.holder_scale > 0
    # 1e-200 underflows the frozen rho(1) to 0, below the closed form's
    # floor, and the bisection cannot reach a root near 1e-200 either
    assert {r.frozen_seminorm for r in rep.rows} == {None}


def test_chain_of_overflowing_differences_warns_of_nothing(canonical_cert):
    # cell values of +-1e308 differ by inf: every norm of the chain fails,
    # and the gathered differences overflow without a RuntimeWarning
    dom, p, cert = canonical_cert
    f = fl.GridFunction.from_interior(dom, np.where(np.arange(dom.n_cells) % 2 == 0, 1e308, -1e308))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        rep = fl.proof_chain_check(f, cert, p, 0.5)
    assert rep.domain_seminorm is None
    assert rep.rows and {r.status for r in rep.rows} == {fl.BRACKET_FAILURE}
    for row in rep.rows:
        assert (row.frozen_seminorm, row.mu_norm, row.patch_seminorm) == (None, None, None)
        assert row.holder_scale > 0


@pytest.mark.parametrize("scale", [1e-51, 1e-52, 1e-53])
def test_frozen_seminorm_of_subnormal_terms_is_bisected(square16, scale):
    """With p_i = 6 and data near 1e-52 the frozen modular rho(1) is a sum
    of subnormal terms (or 0), below the closed form's floor: the frozen
    seminorm is then bisected, and stays homogeneous in f within rel 1e-12.
    Its closed form read 1e-52 data 2e-3 low, and 1e-53 data as 0.  The
    variable p above 7 keeps every other norm of the row in reach."""
    p = fl.extend_symmetric_mean(fl.parse_field("7 + x1/4", fl.POINT))
    cert = _one_patch_cert((-0.1, -0.1), (0.3, 0.3), 6.0)
    patch = cert.patches[0]
    unit = fl.proof_chain_check(fn(square16, lambda x: x[:, 0] + x[:, 1]), cert, p, 0.5).rows[0]
    rep = fl.proof_chain_check(fn(square16, lambda x: scale * (x[:, 0] + x[:, 1])), cert, p, 0.5)
    (row,) = rep.rows
    assert row.status == unit.status == OK
    assert row.frozen_seminorm == pytest.approx(scale * unit.frozen_seminorm, rel=1e-12)
    assert row.first_ratio == pytest.approx(unit.first_ratio, rel=1e-11)
    # the frozen rho(1), summed pair by pair from the coordinates
    cells = fl.cells_in_box(square16, np.asarray(patch.box_lo), np.asarray(patch.box_hi))
    w, dist, _, _ = oracles.pair_tables(square16, lambda x, y: 0.0, lambda x, y: 0.0, subset=cells)
    dv = scale * np.abs(np.subtract.outer(*[square16.cell_centroids[cells].sum(axis=1)] * 2))
    rho1 = float(np.sum(w * dv**6.0 / dist ** (2 + patch.t * 6.0)))
    assert rho1 < np.finfo(float).tiny


def test_chain_rows_fail_with_the_domain_seminorm(canonical_cert):
    # a spike away from the boundary breaks only the domain seminorm: each
    # patch keeps its finite norms, and no row may compare against the domain
    dom, p, cert = canonical_cert
    spike = lambda x: x[:, 0] + x[:, 1] + 1e200 * (np.hypot(x[:, 0] - 0.5, x[:, 1] - 0.5) < 0.1)
    rep = fl.proof_chain_check(fn(dom, spike), cert, p, 0.5)
    assert rep.domain_seminorm is None
    run = [r for r in rep.rows if r.status not in ("skipped-small", "skipped-constant")]
    assert run and {r.status for r in run} == {fl.BRACKET_FAILURE}
    for row in run:
        assert all(math.isfinite(v) for v in (row.frozen_seminorm, row.mu_norm, row.patch_seminorm, row.holder_scale))
        assert (row.first_ratio, row.second_exact, row.monotone_exact) == (None, None, None)


def test_chain_constant_function_rows_skipped(canonical_cert):
    dom, p, cert = canonical_cert
    c = fn(dom, lambda x: np.full(x.shape[0], 2.0))
    rep = fl.proof_chain_check(c, cert, p, 0.5)
    assert rep.domain_seminorm == 0.0
    assert {r.status for r in rep.rows} == {"skipped-constant"}


def _one_patch_cert(box_lo, box_hi, p_i):
    patch = fl.PatchSpec(box_lo, box_hi, p_i, 0.5, 0.45, 0.05, True, True)
    return fl.GapCertificate(gap_k=0.5, epsilon=0.5, patches=(patch,))


def test_chain_skips_a_patch_of_one_cell(square16):
    f = fn(square16, lambda x: x[:, 0] * x[:, 1] + 0.5)
    c = square16.cell_centroids[0]
    cert = _one_patch_cert(tuple(c - 0.01), tuple(c + 0.01), 1.9)
    rep = fl.proof_chain_check(f, cert, fl.constant_field(2.0, fl.PAIR), 0.5)
    assert [(r.n_cells, r.status) for r in rep.rows] == [(1, "skipped-small")]


def test_chain_rejects_a_frozen_exponent_above_p(square16):
    f = fn(square16, lambda x: x[:, 0] * x[:, 1] + 0.5)
    cert = _one_patch_cert((-0.1, -0.1), (0.2, 0.2), 2.5)
    with pytest.raises(NumericError, match="frozen exponent reached the variable exponent"):
        fl.proof_chain_check(f, cert, fl.constant_field(2.0, fl.PAIR), 0.5)
