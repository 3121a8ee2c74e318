"""Inequality diagnostics: Hoelder products, norm embeddings, trace ratios,
concentration sweeps, and the frozen-exponent chain on covering patches.

Ratios with a vanishing denominator are never reported as infinity.  Trace
reports carry a ``zero-function`` status with a missing ratio, and a
``bracket-failure`` status, also with a missing ratio, when a norm's
Luxemburg bracketing fails; Hoelder reports and chain rows take
``bracket-failure`` the same way.  Embedding reports fall back to a unit
sentinel plus a flag for a zero function, and ``embedding_check`` raises
``NumericError`` when a norm fails.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import (
    ConjugacyError,
    FamilyError,
    MeshInconsistencyError,
    NumericError,
    ParameterRangeError,
    SubcriticalityError,
)
from .exponents import (
    PAIR,
    ExponentField,
    GapCertificate,
    _as_field,
    _p_star_at,
    _pair_scan,
    constant_field,
    diagonal_field,
    extend_symmetric_mean,
    subcritical_gap,
    validate_bounds,
)
from .geometry import (
    Domain,
    GridFunction,
    cells_in_box,
    differences,
    map_pairs,
    pair_quadrature,
    reduce_pairs,
)
from .modular import (
    BRACKET_FAILURE,
    ZERO_FUNCTION,
    _half_walk,
    gagliardo_seminorm,
    full_norm,
    luxemburg_norm,
    luxemburg_weighted,
)

OK = "ok"
REJECTED = "rejected-resolution"


@dataclass(frozen=True)
class HolderReport:
    product_norm: float
    factor_norms: tuple[float, float]
    ratio: float | None
    status: str


@dataclass(frozen=True)
class EmbeddingReport:
    lebesgue_ratio: float
    seminorm_ratio: float
    kernel_bound: float
    zero_function: bool


@dataclass(frozen=True)
class TraceReport:
    boundary_norm: float
    full_norm: float
    ratio: float | None
    subcritical: bool
    gap_k: float | None
    status: str


@dataclass(frozen=True)
class SweepRow:
    case_id: str
    scale: float
    boundary_norm: float | None
    full_norm: float | None
    ratio: float | None
    subcritical: bool
    status: str


@dataclass(frozen=True)
class PatchChainRow:
    patch: int
    n_cells: int
    frozen_seminorm: float | None
    mu_norm: float | None
    patch_seminorm: float | None
    holder_scale: float | None
    first_ratio: float | None
    second_exact: bool | None
    monotone_exact: bool | None
    status: str


@dataclass(frozen=True)
class ChainReport:
    domain_seminorm: float | None
    rows: tuple[PatchChainRow, ...]


def holder_check(
    f: GridFunction,
    g: GridFunction,
    p: ExponentField,
    q: ExponentField,
    r: ExponentField,
    scope: str = "interior",
) -> HolderReport:
    """Norm of the product against the product of norms under pointwise
    conjugate exponents 1/r = 1/p + 1/q."""
    pts = f.domain.cell_centroids if scope == "interior" else f.domain.facet_centroids
    pv, qv, rv = p.eval_points(pts), q.eval_points(pts), r.eval_points(pts)
    resid = np.abs(1.0 / rv - 1.0 / pv - 1.0 / qv)
    worst = int(np.argmax(resid))  # the first NaN, if any
    if not resid[worst] <= 1e-12:
        raise ConjugacyError(
            f"exponents are not conjugate at {pts[worst].tolist()}: residual {resid[worst]:.3e}"
        )
    if scope == "interior":
        prod = GridFunction(f.domain, f.interior * g.interior, f.boundary * g.boundary)
    else:
        prod = GridFunction(f.domain, f.interior, f.boundary * g.boundary)
    lhs = luxemburg_norm(prod, r, scope)
    nf = luxemburg_norm(f, p, scope)
    ng = luxemburg_norm(g, q, scope)
    if BRACKET_FAILURE in (lhs.status, nf.status, ng.status):
        return HolderReport(lhs.lambda_star, (nf.lambda_star, ng.lambda_star), None, BRACKET_FAILURE)
    denom = nf.lambda_star * ng.lambda_star
    if denom == 0.0 or lhs.status == ZERO_FUNCTION:
        ratio = None if denom == 0.0 else 0.0
        return HolderReport(lhs.lambda_star, (nf.lambda_star, ng.lambda_star), ratio, ZERO_FUNCTION)
    return HolderReport(lhs.lambda_star, (nf.lambda_star, ng.lambda_star), lhs.lambda_star / denom, OK)


def embedding_check(
    f: GridFunction,
    p: ExponentField,
    s,
    t: float,
    r: float,
    threads: int | None = None,
) -> EmbeddingReport:
    """Compare the variable-exponent norm pair against a frozen (t, r) pair.

    Also evaluates the pair-kernel integral with exponent
    (s - t) r p / (p - r) - n whose finiteness drives the comparison.
    Raises NumericError, naming the norm, when one of the four norms fails
    its Luxemburg bracketing.
    """
    dom = f.domain
    s = _as_field(s)
    if p.arity != PAIR:
        p = extend_symmetric_mean(p)
    p_inf, _ = validate_bounds(p, dom, "p")
    s_inf, _ = validate_bounds(s, dom, "s")
    if not 0.0 < t < s_inf:
        raise ParameterRangeError(f"need 0 < t < {s_inf} (infimum of s), got t={t}")
    if not 1.0 < r < p_inf:
        raise ParameterRangeError(f"need 1 < r < {p_inf} (infimum of p), got r={r}")

    pq = pair_quadrature(dom, "interior")
    semi_var = gagliardo_seminorm(f, p, s, pq, threads)
    semi_frozen = gagliardo_seminorm(f, constant_field(r, PAIR), t, pq, threads)
    leb_var = luxemburg_norm(f, diagonal_field(p), "interior")
    leb_frozen = luxemburg_norm(f, _as_field(r), "interior")
    named = (
        ("variable seminorm", semi_var),
        ("frozen seminorm", semi_frozen),
        ("variable Lebesgue norm", leb_var),
        ("frozen Lebesgue norm", leb_frozen),
    )
    for name, res in named:
        if not math.isfinite(res.lambda_star):
            raise NumericError(f"embedding: {name}: Luxemburg bracketing failed")

    n = dom.n

    def kernel_piece(piece) -> float:
        pg = p.eval_on(piece.x, piece.y)
        sg = s.eval_on(piece.x, piece.y)
        return piece.total(piece.kernel(n - (sg - t) * r * pg / (pg - r)))

    kernel = reduce_pairs(pq, kernel_piece, threads, _half_walk(p, s))

    zero = semi_var.status == ZERO_FUNCTION
    if zero:
        semi_ratio = 1.0
    else:
        semi_ratio = semi_frozen.lambda_star / semi_var.lambda_star
    if leb_var.status == ZERO_FUNCTION:
        leb_ratio = 1.0
        zero = True
    else:
        leb_ratio = leb_frozen.lambda_star / leb_var.lambda_star
    return EmbeddingReport(leb_ratio, semi_ratio, kernel, zero)


def trace_check(
    f: GridFunction,
    p: ExponentField,
    q: ExponentField,
    s,
    pq=None,
    threads: int | None = None,
) -> TraceReport:
    """Boundary Lebesgue norm against the full interior norm, with the
    subcritical gap attached when the configuration admits one."""
    dom = f.domain
    if pq is None:
        pq = pair_quadrature(dom, "interior")
    bnorm = luxemburg_norm(f, q, "boundary")
    fnorm = full_norm(f, p, s, pq, threads)
    try:
        gap = subcritical_gap(p, q, _as_field(s), dom)
        sub, gap_val = True, gap
    except SubcriticalityError:
        sub, gap_val = False, None
    if not (math.isfinite(bnorm.lambda_star) and math.isfinite(fnorm)):
        # a norm is NaN only where its Luxemburg bracketing failed
        return TraceReport(bnorm.lambda_star, fnorm, None, sub, gap_val, BRACKET_FAILURE)
    if fnorm == 0.0:
        if bnorm.lambda_star > 0.0:
            raise MeshInconsistencyError(
                "interior norm vanished while boundary values are nonzero"
            )
        return TraceReport(0.0, 0.0, None, sub, gap_val, ZERO_FUNCTION)
    return TraceReport(bnorm.lambda_star, fnorm, bnorm.lambda_star / fnorm, sub, gap_val, OK)


def mollifier_profile(z: np.ndarray) -> np.ndarray:
    """Radial bump exp(1/(|z|^2 - 1)) inside the unit ball, zero outside."""
    z = np.atleast_2d(np.asarray(z, dtype=float))
    r2 = np.sum(z * z, axis=1)
    out = np.zeros(z.shape[0])
    inside = r2 < 1.0
    with np.errstate(all="ignore"):
        out[inside] = np.exp(1.0 / (r2[inside] - 1.0))
    return out


@dataclass(frozen=True)
class ConcentrationFamily:
    """Rescaled mollifier profiles f_k(x) = k^a g(k (x - center)) anchored
    at a boundary point, used to probe trace-ratio growth."""

    center: tuple
    a: float
    scales: tuple
    delta: float = 0.25

    def values(self, dom: Domain, k: float) -> GridFunction:
        c = np.asarray(self.center, dtype=float)
        amp = float(k) ** self.a
        return GridFunction(
            dom,
            amp * mollifier_profile(float(k) * (dom.cell_centroids - c[None, :])),
            amp * mollifier_profile(float(k) * (dom.facet_centroids - c[None, :])),
        )

    def support_cells(self, dom: Domain, k: float) -> int:
        c = np.asarray(self.center, dtype=float)
        return int(np.count_nonzero(mollifier_profile(float(k) * (dom.cell_centroids - c[None, :]))))


def _check_family(family: ConcentrationFamily, p, q, s, dom: Domain) -> None:
    """Admissibility near the anchor: boundedness of the interior norms needs
    a p - n + s p <= 0 on pairs always (a NaN fails it); the blow-up condition
    a q - (n - 1) > 0 on facets is demanded only when some ball sample has
    q at or above the critical trace exponent, i.e. when the sweep claims
    blow-up rather than serving as a bounded control."""
    c = np.asarray(family.center, dtype=float)
    n = dom.n
    a = family.a
    pts = np.vstack([dom.cell_centroids, dom.facet_centroids])
    ball = pts[np.linalg.norm(pts - c[None, :], axis=1) <= family.delta]
    fpts = dom.facet_centroids
    fball = fpts[np.linalg.norm(fpts - c[None, :], axis=1) <= family.delta]
    if fball.shape[0] == 0:
        raise FamilyError("family anchor ball contains no boundary samples")
    s = _as_field(s)
    for _, x, y, shape in _pair_scan(ball):
        # a point field is read at the second point of the pair
        pv = p.eval_on(x, y) if p.arity == PAIR else p.eval_on(y, x)
        sv = s.eval_on(x, y) if s.arity == PAIR else s.eval_on(y, x)
        lhs = np.broadcast_to(a * pv - n + sv * pv, shape)
        # a NaN is not <= 0 either; argmax names a row's first NaN, if any
        bad = np.flatnonzero(np.any(~(lhs <= 0), axis=1))
        if bad.size:
            row = lhs[bad[0]]
            j = int(np.argmax(row))
            raise FamilyError(
                f"interior admissibility fails near {ball[j].tolist()}: a p - n + s p = {row[j]:.4g}, not <= 0"
            )
    qv = q.eval_points(fball)
    pstar = _p_star_at(p, s, n, fball)
    if bool(np.any(qv >= pstar)):
        margin = a * qv - (n - 1)
        if np.any(margin <= 0):
            j = int(np.argmin(margin))
            raise FamilyError(
                f"boundary blow-up condition fails at {fball[j].tolist()}: a q - (n-1) = {margin[j]:.4g}"
            )


def sharpness_sweep(
    family: ConcentrationFamily,
    p: ExponentField,
    q: ExponentField,
    s,
    dom: Domain,
    case_id: str = "sweep",
    threads: int | None = None,
) -> list[SweepRow]:
    """Trace ratios along the concentration family, one row per scale.

    Scales whose bump covers fewer than 3 cells are rejected with a
    diagnostic row instead of a ratio.
    """
    _check_family(family, p, q, _as_field(s), dom)
    pq = pair_quadrature(dom, "interior")
    rows = []
    for k in family.scales:
        if family.support_cells(dom, k) < 3:
            rows.append(SweepRow(case_id, float(k), None, None, None, False, REJECTED))
            continue
        fk = family.values(dom, k)
        rep = trace_check(fk, p, q, s, pq, threads)
        rows.append(
            SweepRow(
                case_id,
                float(k),
                rep.boundary_norm,
                rep.full_norm,
                rep.ratio,
                rep.subcritical,
                rep.status,
            )
        )
    return rows


def proof_chain_check(
    f: GridFunction,
    cert: GapCertificate,
    p: ExponentField,
    s,
    threads: int | None = None,
) -> ChainReport:
    """Frozen-exponent chain on every certificate patch.

    For patch constants (p_i, t) and F(x, y) = |f(x) - f(y)| / |x - y|^s
    under the weighted pair measure w / |x - y|^{n + (t - s) p_i}:

    * the frozen seminorm [f]_{t, p_i} is compared against the weighted
      norm of F (the recorded first ratio, finite by conjugate splitting,
      alongside the unit-function scale of that splitting);
    * the weighted norm of F never exceeds the variable seminorm on the
      patch, with constant exactly 1, because every pair kernel factor
      |x - y|^{(s - t) p_i} stays below 1 on a patch of diameter below 1;
    * the patch seminorm never exceeds the whole-domain seminorm because
      its modular drops terms.

    The frozen seminorm (constant p_i, order t) and the patch seminorm are
    ``gagliardo_seminorm`` on the quadrature of the patch's cells, so each
    takes the closed form, the folded cache or the streamed root that any
    seminorm takes.  The weighted norm of F and the unit-function scale are
    Luxemburg norms of the patch's pair data gathered into flat arrays.

    A row whose norms are not all finite, or any row when the domain
    seminorm is not, takes ``bracket-failure``: its non-finite norms read
    None, and so do its ratio and comparisons.  A non-finite domain
    seminorm reads None too.  Skipped patches compare nothing and keep
    their skip status.
    """
    dom = f.domain
    s = _as_field(s)
    if p.arity != PAIR:
        p = extend_symmetric_mean(p)
    n = dom.n
    pq_dom = pair_quadrature(dom, "interior")
    dom_norm = _if_finite(gagliardo_seminorm(f, p, s, pq_dom, threads).lambda_star)
    rows = []
    for idx, patch in enumerate(cert.patches):
        cells = cells_in_box(dom, np.asarray(patch.box_lo), np.asarray(patch.box_hi))
        if cells.size < 2:
            rows.append(PatchChainRow(idx, int(cells.size), None, None, None, None, None, None, None, "skipped-small"))
            continue
        vals = f.interior[cells]
        if float(np.max(vals)) == float(np.min(vals)):
            rows.append(PatchChainRow(idx, int(cells.size), None, None, None, None, None, None, None, "skipped-constant"))
            continue
        pq = pair_quadrature(dom, "interior", subset=cells)
        p_i, t = patch.p_i, patch.t
        frozen = gagliardo_seminorm(f, constant_field(p_i, PAIR), t, pq, threads).lambda_star
        semi = gagliardo_seminorm(f, p, s, pq, threads).lambda_star

        def gather(piece):
            vx, vy = piece.pair_values(vals)
            x, y = piece.x, piece.y
            with np.errstate(over="ignore"):  # data near 1e308 differ by inf
                dv = np.abs(differences(vx, vy))
            terms = (dv, piece.weights, piece.dist, p.eval_on(x, y), s.eval_on(x, y))
            return [piece.flat(a) for a in terms]

        pieces = map_pairs(pq, gather, threads)
        dv, ww, dd, pv, sv = (np.concatenate(parts) for parts in zip(*pieces))
        big_f = dv / dd ** sv
        w_mu = ww / dd ** (n + (t - sv) * p_i)
        mu_norm = luxemburg_weighted(big_f, w_mu, pv)
        # conjugate splitting scale: the norm of the unit function under the
        # weighted measure with exponent b = p_i p / (p - p_i)
        b = p_i * pv / (pv - p_i)
        if np.any(b <= 0):
            raise NumericError("frozen exponent reached the variable exponent on a patch")
        unit_scale = luxemburg_weighted(np.ones_like(dd), w_mu, b)
        norms = (frozen, mu_norm.lambda_star, semi, unit_scale.lambda_star)
        if dom_norm is None or not all(map(math.isfinite, norms)):
            rows.append(PatchChainRow(idx, int(cells.size), *map(_if_finite, norms), None, None, None, BRACKET_FAILURE))
            continue
        frozen, mu, semi, scale = norms
        first_ratio = frozen / mu if mu > 0 else None
        rows.append(
            PatchChainRow(
                idx, int(cells.size), frozen, mu, semi, scale, first_ratio, bool(mu <= semi), bool(semi <= dom_norm), OK
            )
        )
    return ChainReport(dom_norm, tuple(rows))


def _if_finite(v: float) -> float | None:
    return v if math.isfinite(v) else None
