"""Exponent fields and the subcritical covering certificate.

A field is an arithmetic expression over mesh coordinates.  Three arities
exist: point fields over the closed domain (variables ``x`` or ``x1, x2``),
pair fields over ordered point pairs (additionally ``y`` or ``y1, y2``),
and boundary fields sampled only at facet centroids.

Continuity assumptions enter the numerics only through sampled bounds:
``validate_bounds`` scans every mesh sample (cell centroids, facet
centroids, and for pair fields all ordered pairs of these, diagonal
included) and returns the observed infimum and supremum; a field stores
nothing, so each call scans again.
Symmetry p(x, y) = p(y, x) is never declared: callers that need it read it
off the expression (``_swap_invariant``) or compare the field with its
transpose on the sample pairs (``_swap_witness``).

Every all-pairs scan of a sample set (pair bounds, swap witness, patch
scans, the sweep's family check) walks it with ``_pair_scan``, row-major
over ``row_spans``, diagonal included.  The trace quotient
(n - 1) p / (n - s p) comes from ``_trace_quotient`` alone: +inf where
n - s p <= 0 and NaN where p or s is NaN, so a NaN exponent fails every
check of the form quotient >= bound.

One rule, ``_patch_holds``, says when a covering patch is valid:
``covering_partition`` builds each patch by it on a 2x sample mesh and
``verify_certificate`` re-checks it on a 4x one.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import expressions as ex
from .errors import (
    BoundViolationError,
    FieldError,
    PartitionError,
    SubcriticalityError,
)
from .geometry import Domain, GridFunction, cells_in_box, facets_in_box, refine, row_spans

POINT = "point"
PAIR = "pair"
BOUNDARY = "boundary"

_ARITIES = (POINT, PAIR, BOUNDARY)

# admissible open ranges keyed by exponent role
_ROLE_RANGES = {
    "p": (1.0, math.inf),
    "q": (1.0, math.inf),
    "r": (1.0, math.inf),
    "s": (0.0, 1.0),
    "t": (0.0, 1.0),
    "data": (-math.inf, math.inf),
}

# covering certificates sample a mesh of twice the input resolution per axis,
# try the patch diameter bounds of the ladder in turn and halve delta up to six
# times per patch; verify_certificate re-samples at four times the resolution
_SAMPLE_REFINE = 2
_EPS_LADDER = (0.5, 0.25, 0.125, 0.0625)
_DELTA_RETRIES = 6
_VERIFY_REFINE = 4


@dataclass(frozen=True)
class ExponentField:
    """A scalar coefficient field: an immutable value, equal and hashed by
    its arity, expression tree and source text."""

    arity: str
    tree: object
    source: str = ""

    def constant_value(self) -> float | None:
        """The field's value if it is constant as an expression, else None."""
        if isinstance(self.tree, ex.Num):
            return float(self.tree.value)
        return None

    def eval_points(self, pts: np.ndarray) -> np.ndarray:
        pts = np.atleast_2d(np.asarray(pts, dtype=float))
        return np.broadcast_to(self.eval_on(tuple(pts.T), ()), pts.shape[:1]).copy()

    def eval_pairs(self, x_pts: np.ndarray, y_pts: np.ndarray) -> np.ndarray:
        """Evaluate at pairs given as equal-length point arrays."""
        if self.arity != PAIR:
            raise FieldError("eval_pairs needs a pair field")
        x_pts = np.atleast_2d(np.asarray(x_pts, dtype=float))
        y_pts = np.atleast_2d(np.asarray(y_pts, dtype=float))
        return np.broadcast_to(self.eval_on(tuple(x_pts.T), tuple(y_pts.T)), x_pts.shape[:1]).copy()

    def eval_pair_grid(self, x_rows: np.ndarray, y_cols: np.ndarray) -> np.ndarray:
        """Broadcast evaluation over the grid x_rows x y_cols, shape (r, c)."""
        if self.arity != PAIR:
            raise FieldError("eval_pair_grid needs a pair field")
        out = self.eval_on(tuple(x_rows.T[:, :, None]), tuple(y_cols.T[:, None, :]))
        return np.broadcast_to(out, (x_rows.shape[0], y_cols.shape[0]))

    def eval_on(self, x: tuple, y: tuple):
        """Evaluate on per-axis coordinates of the first (x) and second (y)
        points of a pair piece, arrays that broadcast against each other.

        The result keeps the shape the expression produces: a constant
        stays a scalar and a field of x1 alone keeps unit axes elsewhere.
        A point or boundary field reads x only.
        """
        return ex.evaluate(self.tree, _piece_env(x, y))


def _piece_env(x: tuple, y: tuple) -> dict:
    """Bind the coordinate names to per-axis arrays: x, y in 1-D and x1, x2,
    y1, y2 in 2-D.  An empty y binds no second point."""
    env = dict(zip(("x",) if len(x) == 1 else ("x1", "x2"), x))
    env.update(zip(("y",) if len(y) == 1 else ("y1", "y2"), y))
    return env


def parse_field(source, arity: str) -> ExponentField:
    """Parse a number or expression string into a field of the given arity."""
    if arity not in _ARITIES:
        raise FieldError(f"unknown arity {arity!r}")
    if isinstance(source, (int, float)) and not isinstance(source, bool):
        if not math.isfinite(float(source)):
            raise FieldError("constant field must be finite")
        return ExponentField(arity, ex.Num(float(source)), str(source))
    if not isinstance(source, str):
        raise FieldError(f"expected a number or an expression, got {source!r}")
    tree = ex.parse_expression(source)
    allowed = ex.POINT_VARS + ex.PAIR_VARS if arity == PAIR else ex.POINT_VARS
    ex.check_variables(tree, allowed, f"a {arity} field")
    return ExponentField(arity, tree, source)


def constant_field(value: float, arity: str = POINT) -> ExponentField:
    return parse_field(float(value), arity)


def extend_symmetric_mean(f: ExponentField) -> ExponentField:
    """Bivariate extension averaging the two endpoint values.

    The diagonal restriction reproduces the original field exactly, also in
    floating point: (v + v) / 2 == v.
    """
    if f.arity == PAIR:
        raise FieldError("field is already bivariate")
    swapped = ex.substitute(f.tree, {"x": "y", "x1": "y1", "x2": "y2"})
    tree = ex.fold(ex.Op("/", (ex.Op("+", (f.tree, swapped)), ex.Num(2.0))))
    return ExponentField(PAIR, tree, f"(({f.source}) averaged with itself)")


def transpose_field(f: ExponentField) -> ExponentField:
    if f.arity != PAIR:
        raise FieldError("transpose needs a pair field")
    tree = ex.substitute(f.tree, {"x": "y", "y": "x", "x1": "y1", "y1": "x1", "x2": "y2", "y2": "x2"})
    return ExponentField(PAIR, tree, f"transpose({f.source})")


def _swap_invariant(field: ExponentField) -> bool:
    """Whether field(x, y) == field(y, x) bit for bit, read off the
    expression: a constant, or a pair field equal to its transpose up to
    the operand order of + and *."""
    if field.constant_value() is not None:
        return True
    return field.arity == PAIR and ex.same_up_to_commuting(field.tree, transpose_field(field).tree)


def _swap_witness(f: ExponentField, dom: Domain):
    """The first sample pair (x, y), in the row-major order validate_bounds
    scans, with f(x, y) != f(y, x); None when f passes on every pair."""
    pts = _sample_points(dom, POINT)
    swapped = transpose_field(f)
    for start, x, y, shape in _pair_scan(pts):
        differ = np.broadcast_to(f.eval_on(x, y) != swapped.eval_on(x, y), shape)
        if differ.any():
            i, j = np.argwhere(differ)[0]
            return pts[start + i].tolist(), pts[j].tolist()
    return None


def _pair_scan(pts: np.ndarray):
    """Walk the ordered pairs of a point set, diagonal included, in the
    row-major order of its m x m table, one run [start, stop) of rows of
    row_spans(m) at a time.  Yields (start, x, y, shape): x and y are the
    per-axis coordinates of the run's points, shape (stop - start, 1), and
    of all m points, shape (1, m), and shape is (stop - start, m)."""
    m = pts.shape[0]
    y = tuple(pts.T[:, None, :])
    for start, stop in row_spans(m):
        yield start, tuple(pts[start:stop].T[:, :, None]), y, (stop - start, m)


def diagonal_field(f: ExponentField) -> ExponentField:
    """Restrict a pair field to the diagonal, yielding a point field."""
    if f.arity != PAIR:
        raise FieldError("diagonal restriction needs a pair field")
    tree = ex.fold(ex.substitute(f.tree, {"y": "x", "y1": "x1", "y2": "x2"}))
    return ExponentField(POINT, tree, f"diag({f.source})")


def conjugate_field(p: ExponentField, r: ExponentField) -> ExponentField:
    """The field q with 1/r = 1/p + 1/q pointwise, i.e. q = p r / (p - r)."""
    if p.arity != r.arity:
        raise FieldError("conjugate construction needs matching arities")
    tree = ex.fold(ex.Op("/", (ex.Op("*", (p.tree, r.tree)), ex.Op("-", (p.tree, r.tree)))))
    return ExponentField(p.arity, tree, f"conjugate({p.source}; {r.source})")


def function_on_domain(f: ExponentField, dom: Domain) -> GridFunction:
    """Sample a point field at all cell and facet centroids."""
    if f.arity == PAIR:
        raise FieldError("cannot sample a pair field as a grid function")
    return GridFunction(dom, f.eval_points(dom.cell_centroids), f.eval_points(dom.facet_centroids))


def _sample_points(dom: Domain, arity: str) -> np.ndarray:
    if arity == BOUNDARY:
        return dom.facet_centroids
    return np.vstack([dom.cell_centroids, dom.facet_centroids])


def validate_bounds(f: ExponentField, dom: Domain, role: str) -> tuple[float, float]:
    """Scan the mesh sample set, enforce the role's range, return the bounds.

    Point and boundary fields are sampled at centroids.  Pair fields are
    sampled at every ordered pair of domain samples, diagonal included, so
    the bounds also cover the diagonal restriction.
    """
    if role not in _ROLE_RANGES:
        raise FieldError(f"unknown exponent role {role!r}")
    if f.arity == PAIR:
        inf_v, sup_v, arg_lo, arg_hi = _pair_bounds(f, dom)
    else:
        pts = _sample_points(dom, f.arity)
        vals = f.eval_points(pts)
        if not np.all(np.isfinite(vals)):
            bad = int(np.flatnonzero(~np.isfinite(vals))[0])
            raise BoundViolationError(
                f"field is not finite at sample {pts[bad].tolist()}",
                point=pts[bad].tolist(),
                value=float(vals[bad]),
            )
        i_lo, i_hi = int(np.argmin(vals)), int(np.argmax(vals))
        inf_v, sup_v = float(vals[i_lo]), float(vals[i_hi])
        arg_lo, arg_hi = pts[i_lo].tolist(), pts[i_hi].tolist()

    lo_req, hi_req = _ROLE_RANGES[role]
    if not inf_v > lo_req:
        raise BoundViolationError(
            f"role {role!r} requires values > {lo_req}; found {inf_v} at {arg_lo}",
            point=arg_lo,
            value=inf_v,
        )
    if not sup_v < hi_req:
        raise BoundViolationError(
            f"role {role!r} requires values < {hi_req}; found {sup_v} at {arg_hi}",
            point=arg_hi,
            value=sup_v,
        )
    return inf_v, sup_v


def _pair_bounds(f: ExponentField, dom: Domain):
    pts = _sample_points(dom, POINT)
    if f.constant_value() is not None:
        v, pair = f.constant_value(), (pts[0].tolist(), pts[0].tolist())
        return v, v, pair, pair
    inf_v, sup_v = math.inf, -math.inf
    arg_lo = arg_hi = None
    for start, x, y, shape in _pair_scan(pts):
        grid = np.broadcast_to(f.eval_on(x, y), shape)
        if not np.all(np.isfinite(grid)):
            i, j = np.argwhere(~np.isfinite(grid))[0]
            pt = (pts[start + i].tolist(), pts[j].tolist())
            raise BoundViolationError(f"field is not finite at pair {pt}", point=pt, value=float(grid[i, j]))
        i, j = np.unravel_index(int(np.argmin(grid)), grid.shape)
        if grid[i, j] < inf_v:
            inf_v, arg_lo = float(grid[i, j]), (pts[start + i].tolist(), pts[j].tolist())
        i, j = np.unravel_index(int(np.argmax(grid)), grid.shape)
        if grid[i, j] > sup_v:
            sup_v, arg_hi = float(grid[i, j]), (pts[start + i].tolist(), pts[j].tolist())
    return inf_v, sup_v, arg_lo, arg_hi


def _diag_values(f: ExponentField, pts: np.ndarray) -> np.ndarray:
    """Values of a point field, or of a pair field restricted to x == y."""
    if f.arity == PAIR:
        return f.eval_pairs(pts, pts)
    return f.eval_points(pts)


def _trace_quotient(p, s, n: int):
    """(n - 1) p / (n - s p) elementwise: +inf where n - s p <= 0, where the
    trace exponent is unbounded, and NaN where p or s is NaN."""
    p = np.asarray(p, dtype=float)
    denom = n - s * p
    with np.errstate(divide="ignore", invalid="ignore"):
        return np.where(denom <= 0, math.inf, (n - 1) * p / denom)


def critical_trace_exponent(p: ExponentField, s, n: int, x) -> float:
    """Largest boundary integrability order carried by interior regularity.

    Returns (n - 1) pbar / (n - sbar pbar) at the point x, where pbar and
    sbar are diagonal values.  When n - sbar pbar <= 0 the exponent is
    unbounded and the extended real +inf is returned; callers must treat it
    as a tag, never feed it into arithmetic expecting a finite float.
    """
    x = np.atleast_2d(np.asarray(x, dtype=float))
    return float(_p_star_at(p, _as_field(s), n, x)[0])


def _as_field(s) -> ExponentField:
    if isinstance(s, ExponentField):
        return s
    return constant_field(float(s), POINT)


def _p_star_at(p: ExponentField, s: ExponentField, n: int, pts: np.ndarray) -> np.ndarray:
    return _trace_quotient(_diag_values(p, pts), _diag_values(s, pts), n)


def subcritical_gap(p: ExponentField, q: ExponentField, s, dom: Domain) -> float:
    """Minimum of p_star - q over boundary samples.

    Samples where the critical exponent is unbounded never shrink the gap.
    If every sample is unbounded the gap itself is +inf.  A nonpositive or
    NaN gap raises, carrying the first such witness and both exponents.
    """
    s = _as_field(s)
    pts = dom.facet_centroids
    pstar = _p_star_at(p, s, dom.n, pts)
    qv = q.eval_points(pts)
    gaps = pstar - qv
    i = int(np.argmin(gaps))
    if not gaps[i] > 0:
        raise SubcriticalityError(
            f"boundary exponent is not subcritical at {pts[i].tolist()}: "
            f"critical exponent {pstar[i]:.6g}, boundary exponent {qv[i]:.6g}",
            witness=pts[i].tolist(),
            p_star=float(pstar[i]),
            q_value=float(qv[i]),
        )
    return float(np.min(gaps))


def freeze_margin_ok(p_i: float, s_i: float, n: int, q_values, k: float) -> bool:
    """Check (n-1) p_i / (n - s_i p_i) >= k/3 + q at every given q sample."""
    frozen = _trace_quotient(p_i, s_i, n)
    q_values = np.atleast_1d(np.asarray(q_values, dtype=float))
    return bool(np.all(frozen >= k / 3.0 + q_values))


@dataclass(frozen=True)
class PatchSpec:
    """One covering patch: a closed box with frozen constant exponents.

    ``continuum_ok`` and ``frozen_ok`` read true in every patch
    covering_partition returns, since it raises rather than return a patch
    that fails ``_patch_holds``; they stay as keys of the partition report."""

    box_lo: tuple
    box_hi: tuple
    p_i: float
    s_i: float
    t: float
    delta: float
    continuum_ok: bool  # sampled margin k/2 with the variable exponents
    frozen_ok: bool     # margin k/3 with the frozen constants


@dataclass(frozen=True)
class GapCertificate:
    gap_k: float
    epsilon: float
    patches: tuple[PatchSpec, ...]

    @property
    def n_patches(self) -> int:
        return len(self.patches)


def _boundary_boxes(dom: Domain, side_len: float) -> list[tuple[np.ndarray, np.ndarray]]:
    """Overlapping axis-aligned boxes whose centers tile the boundary of a
    rectangle: the bottom and top edges corner to corner, then the left and
    right edges between the corners, each at a spacing of at most half a
    side."""
    half = side_len / 2.0
    (x0, y0), (x1, y1) = dom.recipe["bounds"]
    edges = [((x0, y0), (x1, y0)), ((x0, y1), (x1, y1)), ((x0, y0), (x0, y1)), ((x1, y0), (x1, y1))]
    centers = []
    for i, (p0, p1) in enumerate(np.asarray(edges, dtype=float)):
        steps = max(1, math.ceil(float(np.linalg.norm(p1 - p0)) / half))
        u = np.linspace(0.0, 1.0, steps + 1)[:, None]
        # the side edges leave out the corners, which the bottom and top hold
        u = u if i < 2 else u[1:-1]
        centers.extend((1 - u) * p0 + u * p1)
    return [(c - half, c + half) for c in centers]


def _box_lattice(lo, hi, dom: Domain, m: int = 9) -> np.ndarray:
    """Deterministic lattice on the closed patch box clipped to the domain's
    bounds, ``dom.recipe["bounds"]``: the bounding box of the cell and
    facet centroids, since the facet centroids lie on the sides of the
    interval or rectangle.  Mesh centroids alone can miss a field extremum
    that sits on a box edge between samples, and a finer checking mesh
    would then undercut the frozen constants; the lattice pins the box
    edges and corners regardless of mesh alignment."""
    dlo, dhi = np.reshape(np.asarray(dom.recipe["bounds"], dtype=float), (2, dom.n))
    clo = np.maximum(np.asarray(lo, dtype=float), dlo)
    chi = np.minimum(np.asarray(hi, dtype=float), dhi)
    axes = [np.linspace(clo[a], chi[a], m) for a in range(dom.n)]
    grid = np.meshgrid(*axes, indexing="ij")
    return np.stack([g.ravel() for g in grid], axis=1)


def _patch_samples(p: ExponentField, q: ExponentField, s: ExponentField, sdom: Domain, dom: Domain, lo, hi):
    """What a patch on the closed box [lo, hi] is checked against, on the
    sample mesh sdom: the facets of sdom in the box, as indices; q at the
    box's boundary points, those facets' centroids or, in a box narrower
    than the facets, the box lattice's points on the boundary (none in a
    box inside the domain); and the ``_patch_scan`` of the cells and facets
    of sdom in the box and the box lattice."""
    fidx = facets_in_box(sdom, lo, hi)
    cidx = cells_in_box(sdom, lo, hi)
    lattice = _box_lattice(lo, hi, dom)
    qpts = sdom.facet_centroids[fidx]
    if fidx.size == 0:
        blo, bhi = dom.recipe["bounds"]
        qpts = lattice[np.any((lattice == blo) | (lattice == bhi), axis=1)]
    pts = np.vstack([sdom.cell_centroids[cidx], sdom.facet_centroids[fidx], lattice])
    return fidx, q.eval_points(qpts), _patch_scan(p, s, pts, dom.n)


def _patch_scan(p: ExponentField, s: ExponentField, pts: np.ndarray, n: int):
    """Mins of p, s, the product s*p, and the variable-exponent trace
    quotient over all ordered pairs of the patch sample points (diagonal
    included).  A NaN anywhere makes its minimum, and the quotient's, NaN."""
    mins = np.full(4, math.inf)
    for _, x, y, _ in _pair_scan(pts):
        pg = p.eval_on(x, y)
        sg = s.eval_on(x, y)
        grids = (pg, sg, sg * pg, _trace_quotient(pg, sg, n))
        mins = np.minimum(mins, [np.min(g) for g in grids])
    return tuple(float(v) for v in mins)


def _patch_holds(patch: PatchSpec, scan, q_vals: np.ndarray, k: float, n: int) -> bool:
    """The one rule for a covering patch, checked against the ``_patch_scan``
    of its box and q at the box's boundary points: the sampled quotient
    clears k/2 + q and the frozen one k/3 + q (``freeze_margin_ok``);
    delta > 0, p_i < inf p - delta and p_i - 1 > delta; 0 < t < s_i <= inf s;
    and s_i p_i > 1 wherever the sampled s p stays above 1.  The frozen
    quotient is read as +inf once s_i p_i reaches n, so s_i p_i has no
    upper cap.  A NaN anywhere fails the rule."""
    p_min, s_min, sp_min, quo_min = scan
    return bool(
        quo_min >= k / 2.0 + np.max(q_vals)
        and freeze_margin_ok(patch.p_i, patch.s_i, n, q_vals, k)
        and 0.0 < patch.delta
        and patch.p_i < p_min - patch.delta
        and patch.p_i - 1.0 > patch.delta
        and 0.0 < patch.t < patch.s_i <= s_min
        and (patch.s_i * patch.p_i > 1.0 or not sp_min > 1.0)
    )


def _first_patch(lo, hi, scan, q_vals: np.ndarray, k: float, n: int, delta0: float) -> PatchSpec | None:
    """The first patch of the delta ladder on the box [lo, hi] that
    ``_patch_holds`` accepts, or None: delta = delta0 / 2^a for
    a = 0 .. _DELTA_RETRIES, p_i = inf p - 2 delta, s_i = inf s and
    t = s_i - min(delta, s_i / 4).  A smaller delta pushes the frozen
    constants toward the patch infima, which can only enlarge the frozen
    quotient."""
    p_min, s_min = scan[:2]
    ladder = (
        PatchSpec(tuple(lo.tolist()), tuple(hi.tolist()), p_min - 2.0 * d, s_min, s_min - min(d, s_min / 4.0), d, True, True)
        for d in (delta0 / 2.0**a for a in range(_DELTA_RETRIES + 1))
    )
    return next((patch for patch in ladder if _patch_holds(patch, scan, q_vals, k, n)), None)


def covering_partition(p: ExponentField, q: ExponentField, s, dom: Domain, k: float) -> GapCertificate:
    """Construct a finite cover of the boundary by small certified patches.

    Each patch is a closed axis-aligned box of diameter strictly below the
    chosen epsilon < 1, intersected with the closed domain.  On each patch
    the variable exponents keep a sampled trace-quotient margin of k/2 over
    the boundary exponent, and frozen constants (p_i, s_i) keep a margin of
    k/3.  The auxiliary order t sits strictly below s_i so that chains of
    comparison seminorms built from the certificate dominate strictly.
    Each box takes the first patch of the delta ladder that ``_patch_holds``,
    the rule verify_certificate checks, accepts on a mesh of _SAMPLE_REFINE
    times the input resolution per axis, trying each diameter bound of
    _EPS_LADDER in turn; a box that holds no facet of that mesh samples q at
    its lattice's boundary points, so that no box is dropped from the cover.

    An infinite gap certifies trivially for any finite margin, so k = +inf
    is replaced by 1.0 before margins are formed.
    """
    if not (isinstance(k, (int, float)) and k > 0):
        raise PartitionError(f"need a positive subcritical gap, got {k!r}")
    k_eff = 1.0 if math.isinf(k) else float(k)
    s = _as_field(s)
    if dom.n < 2:
        raise PartitionError(
            "covering certificates need a two-dimensional domain: the frozen trace "
            "quotient carries a factor n - 1 that vanishes on intervals"
        )
    sdom = refine(dom, _SAMPLE_REFINE)
    p_inf_global, _ = validate_bounds(p, sdom, "p")
    validate_bounds(s, sdom, "s")
    validate_bounds(q, sdom, "q")
    delta0 = min(0.1, (p_inf_global - 1.0) / 2.0)

    failures = []
    for eps in _EPS_LADDER:
        side = 0.99 * eps / math.sqrt(dom.n)
        patches = []
        for lo, hi in _boundary_boxes(dom, side):
            _, q_vals, scan = _patch_samples(p, q, s, sdom, dom, lo, hi)
            patch = _first_patch(lo, hi, scan, q_vals, k_eff, dom.n, delta0)
            if patch is None:
                quo_min, q_max = scan[3], float(np.max(q_vals))
                why = f"no frozen constants after {_DELTA_RETRIES} delta halvings"
                if not quo_min >= k_eff / 2.0 + q_max:
                    why = f"sampled margin k/2 fails on a patch (min quotient {quo_min:.4g}, max q {q_max:.4g})"
                failures.append(f"eps={eps}: {why}")
                break
            patches.append(patch)
        else:
            # every patch passed; the boxes, centred on the boundary and
            # overlapping, cover it
            return GapCertificate(gap_k=k_eff, epsilon=float(eps), patches=tuple(patches))
    raise PartitionError("covering construction failed: " + "; ".join(failures[-3:]))


def verify_certificate(cert: GapCertificate, p: ExponentField, q: ExponentField, s, dom: Domain) -> bool:
    """Re-check every patch that meets the boundary by ``_patch_holds``, the
    rule covering_partition builds it by, sampled on a finer mesh, and that
    the patch boxes cover every facet of that mesh."""
    s = _as_field(s)
    sdom = refine(dom, _VERIFY_REFINE)
    covered = np.zeros(sdom.n_facets, dtype=bool)
    for patch in cert.patches:
        fidx, q_vals, scan = _patch_samples(p, q, s, sdom, dom, np.asarray(patch.box_lo), np.asarray(patch.box_hi))
        covered[fidx] = True
        if q_vals.size and not _patch_holds(patch, scan, q_vals, cert.gap_k, dom.n):
            return False
    return bool(np.all(covered))
