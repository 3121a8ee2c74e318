"""Modulars and Luxemburg norms for variable exponents.

The discrete modular of a weighted value set is

    rho(lambda) = sum_k w_k (|v_k| / lambda)^{p_k},

strictly decreasing in lambda whenever some v_k is nonzero, so the norm is
the unique root of rho = 1.  The root is bracketed by geometric expansion
from lambda = 1 and bisected to a relative bracket width of 1e-12; the
returned midpoint then satisfies |rho(lambda*) - 1| <= 1e-10 for any
bounded exponent field.  A variable-p seminorm whose log-terms do not fold
takes Newton steps in log lambda instead, within the same reach and to a
bracket of the same width (``_newton_root``).

The fractional (Gagliardo) modular runs the same construction over the
ordered-pair quadrature with values |f(x) - f(y)| and weights
w_xy / |x - y|^{n + s p}.  Every pair sum goes through ``map_pairs``, which
walks offset-stencil chunks over the rows of a full uniform grid, and over
any other point set (boundary facets, subsets) the row blocks of its one
row; both are ``PairChunk`` pieces, so the term code is written once.

The integrand is swap-invariant when p and s both are, and ``_half_walk``
decides that here, where both are known, from their expressions alone
(``exponents._swap_invariant``): a constant, or a pair field whose
expression equals its own transpose up to the operand order of + and *
(``extend_symmetric_mean`` builds one).  Such an integrand walks only half
of the stencil (see ``map_pairs``).  A point field s reads x only and keeps
the full walk, and so does a pair field whose symmetry the expression does
not prove, whatever its values.

Three execution strategies for a seminorm, chosen only by the input (never
by thread count, so results stay bit-reproducible):

* constant p: the modular is exactly homogeneous, one pass gives
  rho(1) = A, lambda* = A^{1/p} and rho(lambda*) = A lambda*^{-p} in
  closed form (an A below 2^-1022 / REL_TOL, which may be a sum of
  subnormal terms, takes the folded bisection below; a root beyond the
  bracket expansion's reach bisects A lambda^{-p} with no further pass,
  and fails as every root past the reach does);
* a variable p whose log-terms fold (``_folds``, read off p's expression
  and the quadrature as ``_half_walk`` reads symmetry): p names the
  coordinates of one grid axis only (x1 and y1, or x2 and y2) on a full
  2-D grid, or of one point only (x... or y...) on an interval, facets or a
  subset.  One pass fills log-terms and exponents, and pairs that share an
  exponent are summed into one entry (the kernel's log-term joins after
  the sums where it is one table along them); each piece is folded, as
  the pass yields it, into the table of its column run whose exponent
  array it equals, so an exponent of x1 alone leaves nx^2 entries on a
  full grid, and the tables hold at most about 2 nx^2 + ny^2 entries.
  Each bisection step is a vector operation over them;
* any other p streams its log-terms: every evaluation of
  phi(t) = log rho(e^t) re-runs the fill's term code, keeps no table, and
  takes a safeguarded Newton step in t = log lambda (``_newton_root``).

A Lebesgue norm of a constant p takes the same closed form, where rho(1) is
finite and at least 2^-1022 / REL_TOL and its root lies within the bracket
expansion's reach; any other Lebesgue norm is bisected.

A pass of ``modular_gagliardo`` sums a piece along the grid rows where its
kernel is one table before it applies the kernel, and forms a constant p's
terms on a grid row of one finite value as one row or column: the
concentration family is 0 on most rows of a fine grid, so most of its row
pairs cost O(nx), not O(nx^2).  No pair is skipped.
"""

from __future__ import annotations

import math
from collections.abc import Iterator
from dataclasses import dataclass

import numpy as np

from .errors import FieldError, ModularError
from .exponents import (
    BOUNDARY,
    PAIR,
    ExponentField,
    _as_field,
    _swap_invariant,
    diagonal_field,
    extend_symmetric_mean,
)
from .expressions import free_variables
from .geometry import GridFunction, PairQuadrature, differences, map_pairs, reduce_pairs

CONVERGED = "converged"
ZERO_FUNCTION = "zero-function"
BRACKET_FAILURE = "bracket-failure"

REL_TOL = 1e-12
MAX_EXPAND = 200
MAX_BISECT = 200

# the least rho(1) a closed-form root is taken from: a smaller one may be a
# sum of subnormal terms, each off by up to 2^-1075, and is bisected instead
_NORMAL_RHO = 2.0**-1022 / REL_TOL


@dataclass(frozen=True)
class LuxemburgResult:
    lambda_star: float
    modular_at_lambda: float
    bracket: tuple[float, float]
    iterations: int
    status: str

    def __float__(self) -> float:
        return self.lambda_star


def _ratio_power(values: np.ndarray, lam: float, p: np.ndarray) -> np.ndarray:
    """(values / lam)^p.  A ratio that overflows gives inf, a modular above
    1 that the root bracket expands past like any other."""
    with np.errstate(all="ignore"):
        return (values / lam if lam != 1.0 else values) ** p


def weighted_modular(values: np.ndarray, weights: np.ndarray, p: np.ndarray, lam: float) -> float:
    if not lam > 0:
        raise ModularError(f"modular needs lambda > 0, got {lam}")
    return float(np.sum(weights * _ratio_power(np.abs(values), lam, p)))


def solve_unit_modular(modular_fn) -> LuxemburgResult:
    """Find the root of modular_fn = 1 by expansion plus bisection."""
    evals = 0

    def probe(lam):
        nonlocal evals
        evals += 1
        return modular_fn(lam)

    lam = 1.0
    m = probe(lam)
    if math.isnan(m):
        return LuxemburgResult(math.nan, m, (lam, lam), evals, BRACKET_FAILURE)
    if m == 1.0:
        return LuxemburgResult(lam, m, (lam, lam), evals, CONVERGED)
    # expand from lam: double the bracket's top while rho stays above 1,
    # or halve its bottom while rho stays below 1
    up = m > 1.0
    lo, hi = (lam, 2.0 * lam) if up else (0.5 * lam, lam)
    for _ in range(MAX_EXPAND):
        edge = hi if up else lo
        me = probe(edge)
        if math.isnan(me):
            return LuxemburgResult(math.nan, me, (lo, hi), evals, BRACKET_FAILURE)
        if me == 1.0:
            return LuxemburgResult(edge, me, (edge, edge), evals, CONVERGED)
        if (me > 1.0) != up:
            break
        lo, hi = (hi, 2.0 * hi) if up else (0.5 * lo, lo)
    else:
        return LuxemburgResult(math.nan, m, (lo, hi), evals, BRACKET_FAILURE)

    for _ in range(MAX_BISECT):
        if hi - lo <= REL_TOL * hi:
            break
        mid = 0.5 * (lo + hi)
        mm = probe(mid)
        if mm == 1.0:
            return LuxemburgResult(mid, mm, (mid, mid), evals, CONVERGED)
        if mm > 1.0:
            lo = mid
        else:
            hi = mid
    lam = 0.5 * (lo + hi)
    return LuxemburgResult(lam, probe(lam), (lo, hi), evals, CONVERGED)


def luxemburg_weighted(values: np.ndarray, weights: np.ndarray, p: np.ndarray) -> LuxemburgResult:
    """Luxemburg norm of flat weighted samples; the building block for every
    scope-specific norm in the package."""
    values = np.abs(np.asarray(values, dtype=float))
    if values.size == 0 or float(np.max(values)) == 0.0:
        return LuxemburgResult(0.0, 0.0, (0.0, 0.0), 0, ZERO_FUNCTION)
    weights = np.asarray(weights, dtype=float)
    p = np.asarray(p, dtype=float)
    return solve_unit_modular(lambda lam: float(np.sum(weights * _ratio_power(values, lam, p))))


def _scope_arrays(f: GridFunction, scope: str):
    if scope == "interior":
        return f.interior, f.domain.cell_measures, f.domain.cell_centroids
    if scope == "boundary":
        return f.boundary, f.domain.facet_measures, f.domain.facet_centroids
    raise ModularError(f"unknown scope {scope!r}")


def _point_exponent(p: ExponentField, scope: str, pts: np.ndarray) -> tuple[np.ndarray, float | None]:
    """p's samples at the scope's points, and p's value if it is constant
    as an expression (``_constant_exponent``).  A sample of +-inf or <= 0
    has no Luxemburg norm, as a constant has none, and raises FieldError
    naming the exponent by its source text, as the caller may have passed
    it as another exponent (q of trace_check); a NaN sample is left to the
    root's bracket-failure."""
    if p.arity == PAIR:
        raise FieldError("Lebesgue modular needs a point field; apply diagonal_field first")
    if scope == "interior" and p.arity == BOUNDARY:
        raise FieldError("boundary field cannot weight an interior norm")
    pc = _constant_exponent(p, repr(p.source))
    pvals = p.eval_points(pts)
    bad = pvals[np.isinf(pvals) | (pvals <= 0)]
    if bad.size:
        want = "finite" if bad[0] == math.inf else "positive"
        raise FieldError(f"exponent {p.source!r} must be {want}, got the sample {bad[0]:g}")
    return pvals, pc


def _homogeneous_root(rho1: float, p: float) -> LuxemburgResult | None:
    """The root of a modular of one constant exponent p from rho(1) alone:
    rho(lam) = rho(1) lam^-p exactly, so lambda* = rho(1)^(1/p), and the
    second evaluation is in closed form, so the count stays at two.

    None, for the caller to bisect, where rho(1) is not finite or below
    2^-1022 / REL_TOL (it may then be a sum of subnormal terms, each off by
    up to 2^-1075), and where lambda* lies beyond the bracket expansion's
    reach, so that a norm beyond 2^+-200 fails as every other root does,
    with the bisection's bracket failure."""
    if not _NORMAL_RHO <= rho1 < math.inf:
        return None
    lam = rho1 ** (1.0 / p)
    if not 2.0 ** (1 - MAX_EXPAND) <= lam <= 2.0 ** (MAX_EXPAND - 1):
        return None
    return LuxemburgResult(lam, rho1 * lam**-p, (lam, lam), 2, CONVERGED)


def _constant_exponent(p: ExponentField, name: str) -> float | None:
    """p's value if it is constant as an expression, else None.  A constant
    p <= 0 has no Luxemburg norm (its modular does not fall below 1 as
    lambda grows), and neither has a NaN or +inf (the constant an expression
    such as ``1e400`` folds to): each raises, naming the exponent."""
    pc = p.constant_value()
    if pc is not None and not pc > 0:
        raise FieldError(f"exponent {name} must be positive, got the constant {pc:g}")
    if pc == math.inf:
        raise FieldError(f"exponent {name} must be finite, got the constant {pc:g}")
    return pc


def luxemburg_norm(f: GridFunction, p: ExponentField, scope: str) -> LuxemburgResult:
    """Luxemburg norm on one scope; zero values give the zero-function tag.

    A p that is constant as an expression takes the closed-form root where
    rho(1) is finite and at least 2^-1022 / REL_TOL and the root lies within
    the bracket expansion's reach; anywhere else the root is bisected, so a
    bracket failure, an overflowing modular or a modular of subnormal terms
    gives the bisection's own result.  A constant p <= 0 or +inf raises
    FieldError, and so does a variable p with any sample, at the scope's
    cell or facet centroids, of +-inf or <= 0 (``2 + 1e400*x``, ``0*x``,
    ``x - 0.5`` on [0, 1]); a NaN sample gives bracket-failure.  The error
    names p by its source text (``exponent 'x - 0.5'``), as a caller such as
    trace_check passes its q here; a seminorm's error names its parameter,
    ``p`` or ``q``."""
    values, weights, pts = _scope_arrays(f, scope)
    pvals, pc = _point_exponent(p, scope, pts)
    if pc is not None:
        res = _homogeneous_root(weighted_modular(values, weights, pvals, 1.0), pc)
        if res is not None:
            return res
    return luxemburg_weighted(values, weights, pvals)


def _half_walk(p: ExponentField, s: ExponentField) -> bool:
    """Whether the pair integrands of p and s (the modular's and the
    embedding kernel's) are swap-invariant, so map_pairs may walk half."""
    return _swap_invariant(p) and _swap_invariant(s)


def _pair_term_fields(p: ExponentField, s: ExponentField, pq: PairQuadrature):
    """Pair exponent p and kernel exponent n + s p on a pair piece, each in
    the shape its expression produces (a scalar for constants).

    On a full 2-D grid where neither p nor s names a row coordinate (x2,
    y2), read off the expressions as ``_folds`` reads them, both depend on
    a stencil chunk's column run (ix0, ix1) alone: they are evaluated once
    per run, and every later chunk of the run, at any row offset, gets the
    same read-only arrays.  A piece without ``offset_dist`` (the point-set
    view's row blocks, the solver's ``PairQuadrature.block`` tiles) is
    evaluated each time and never kept, so no table of all pairs is held;
    nor is any piece of an interval or a point set, whose runs a pass walks
    once each."""
    if p.arity != PAIR:
        raise FieldError("pair modular needs a pair exponent; apply extend_symmetric_mean first")
    n = pq.dim

    def evaluate(piece):
        pg = p.eval_on(piece.x, piece.y)
        return pg, n + s.eval_on(piece.x, piece.y) * pg

    rows = {"x2", "y2"} & (free_variables(p.tree) | free_variables(s.tree))
    if pq.grid is None or len(pq.grid) != 2 or rows:
        return evaluate
    runs = {}

    def fields_on(piece):
        if piece.offset_dist is None:
            return evaluate(piece)
        fields = runs.get((piece.ix0, piece.ix1))
        if fields is None:
            fields = evaluate(piece)
            for a in fields:
                if isinstance(a, np.ndarray):
                    a.setflags(write=False)
            # two threads may evaluate one run: every chunk gets the kept one
            fields = runs.setdefault((piece.ix0, piece.ix1), fields)
        return fields

    return fields_on


def _row_levels(values: np.ndarray, nx: int) -> np.ndarray:
    """Per grid row of nx values, the one finite value the row holds, NaN
    for any other row (two values, an infinity or a NaN)."""
    grid = np.asarray(values, dtype=float).reshape(-1, nx)
    lo, hi = grid.min(axis=1), grid.max(axis=1)
    return np.where((lo == hi) & np.isfinite(lo), lo, np.nan)


def modular_gagliardo(
    f: GridFunction,
    p: ExponentField,
    s,
    pq: PairQuadrature,
    lam: float,
    threads: int | None = None,
) -> float:
    """Double-integral modular of the difference quotient at lambda > 0.

    A slab of a piece's differences dv is written in place into a fresh
    array by ``geometry.differences``, divided by lambda and raised to p in
    place.  A constant p = 2 squares it; any other p takes |dv| first.
    Along the axes where the kernel w / d^(n + s p) of ``PairChunk.kernel``
    is one table (the grid rows of a chunk, for a constant p and s or an
    exponent of x1 alone) the terms are summed first, and the row sums are
    multiplied by the kernel, cleared on the self-pairs and added up; a
    point field s or an exponent that reads x2 changes the kernel from row
    to row, and its pieces are summed term by term.  For a constant p and s
    on a grid the kernel is computed once per column offset and read
    through the chunk's Toeplitz view.

    A constant p sums a piece's grid rows in three parts (``_row_levels``):
    a row pair whose second row holds one finite value c gives its
    |a_ix - c|^p as one column over ix, a pair where only the first row
    holds one value c gives |c - b_jx|^p as one row over jx, and only the
    other row pairs are formed as slabs.  A variable p forms every row pair
    as a slab.  Every pair's term is still its own difference raised to p,
    so nothing is skipped.

    Where the product with the kernel is not finite everywhere, because a
    row sum overflowed or the kernel holds an inf, the piece is summed term
    by term instead, so an inf or a NaN is the one the pairs themselves
    give.  The differences, powers and products run under one np.errstate,
    so such a pass warns of nothing.
    """
    if not lam > 0:
        raise ModularError(f"modular needs lambda > 0, got {lam}")
    vals = pq.values(f)
    s = _as_field(s)
    fields_on = _pair_term_fields(p, s, pq)
    square = p.constant_value() == 2.0
    nx, ny = pq._row_shape()
    # a variable p raises each pair to its own exponent: no row is level
    levels = np.full(ny, np.nan) if p.constant_value() is None else _row_levels(vals, nx)

    def power(term, pg):
        """(term / lam)^p, in place; the caller ignores overflow."""
        if lam != 1.0:
            term /= lam
        if square:
            np.square(term, out=term)
        else:
            np.abs(term, out=term)
            term **= pg
        return term

    def row_sums(piece, vx, vy, pg, kern):
        """The piece's terms summed over its grid rows (the slab rows, then
        the level-row columns and rows) times the kernel, one table."""
        first = levels[piece.iy0 : piece.iy1, None, None]
        second = levels[piece.iy0 + piece.dy : piece.iy1 + piece.dy, None, None]
        col = np.isfinite(second[:, 0, 0])
        row = np.isfinite(first[:, 0, 0]) & ~col
        rest = ~(col | row)
        parts = ((vx[rest], vy[rest]), (vx[col], second[col]), (first[row], vy[row]))
        with np.errstate(all="ignore"):
            sums = [np.sum(power(differences(a, b), pg), axis=0, keepdims=True) for a, b in parts if len(a)]
            return sum(sums[1:], sums[0]) * kern

    def piece_sum(piece) -> float:
        vx, vy = piece.pair_values(vals)
        pg, kexp = fields_on(piece)
        kern = piece.kernel(kexp)
        # where the kernel is one table along the grid rows, the terms are
        # summed along them before they meet it
        summed = row_sums(piece, vx, vy, pg, kern) if kern.shape[0] == 1 else None
        if summed is None or not np.all(np.isfinite(summed)):
            # term by term: where a row sum overflows or the kernel is not
            # finite, the inf or NaN is then the one the pairs give
            with np.errstate(all="ignore"):
                summed = power(differences(vx, vy), pg)
                summed *= kern
        if piece.offdiag is not None:
            np.copyto(summed, 0.0, where=~piece.offdiag)
        return float(np.sum(summed))

    return reduce_pairs(pq, piece_sum, threads, _half_walk(p, s))


def _folds(p: ExponentField, pq: PairQuadrature) -> bool:
    """Whether p's log-terms fold into tables of bounded size, read off p's
    expression and the quadrature alone: p names the coordinates of one grid
    axis only (x1 and y1, or x2 and y2) on a full 2-D grid, or of one point
    only (x, x1, x2, or y, y1, y2) on an interval, facets or a subset.  A
    constant names none and always folds."""
    names = free_variables(p.tree)
    if pq.grid is not None and len(pq.grid) == 2:
        return names <= {"x1", "y1"} or names <= {"x2", "y2"}
    return names <= {"x", "x1", "x2"} or names <= {"y", "y1", "y2"}


def _log_terms(piece, vals, fields_on, t: float = 0.0):
    """The log-terms log(w (|dv| / e^t)^p / d^(n + s p)) of a piece in two
    parts, and its exponent array in the shape its expression produces: the
    pair part p (log|dv| - t), in a new array of the piece's shape,
    self-pairs not yet masked, and the kernel part log w - (n + s p) log d,
    in the shape its inputs produce (one (1, ix1 - ix0, nx) plane for every
    grid row of a chunk unless p or s reads a row coordinate).  The caller
    adds the two.  The slab is written in place: a chained broadcast
    expression over it costs several times as much in temporaries.  A
    shift t of 0 is not subtracted, which is exact.  The caller holds an
    np.errstate: an overflowing difference gives an inf log-term, a zero
    difference a -inf one."""
    pg, kexp = fields_on(piece)
    lc = differences(*piece.pair_values(vals))
    np.log(np.abs(lc, out=lc), out=lc)
    if t:
        lc -= t
    lc *= pg
    c = np.multiply(kexp, np.log(piece.dist))
    return lc, np.subtract(np.log(piece.weights), c, out=c), pg


def _unit_axes(shape: tuple, a) -> set:
    """The axes of shape, longer than 1, along which a (broadcast to shape)
    is constant because its own extent there is 1."""
    ashape = (1,) * (len(shape) - np.ndim(a)) + np.shape(a)
    return {i for i, (n, k) in enumerate(zip(shape, ashape)) if k == 1 < n}


def _shifted_exp(piece, lc: np.ndarray, axes) -> np.ndarray:
    """exp(lc - top) in place, where top is lc's maximum over axes (all of
    them for None), kept as an array, and 0 where it is -inf.  Self-pairs
    count as -inf.  A +inf log-term makes its group NaN."""
    if piece.offdiag is not None:
        np.copyto(lc, -np.inf, where=~piece.offdiag)
    top = np.max(lc, axis=axes, keepdims=True)
    top[top == -np.inf] = 0.0
    np.exp(np.subtract(lc, top, out=lc), out=lc)
    return top


def _fill_log_terms(f, p, s, pq, threads) -> Iterator:
    """Log-terms log(w |dv|^p / d^(n + s p)) of every pair piece, yielded in
    partition order as one pass fills them, as (run, logc, pvals): the
    piece's column run (ix0, ix1) and flat arrays of its log-terms and
    their exponents.

    Each piece keeps one entry per entry of its exponent array.  Along an
    axis that p does not vary on (a field of x1 alone has unit axes
    elsewhere), all pairs share one exponent, so their terms are summed once
    here: sum_k exp(l_k - p t) = exp(L - p t) with L the max-shifted
    log-sum-exp of the l_k.  Self-pairs and zero differences count as -inf,
    and a group of nothing else stays -inf.  The kernel part of
    ``_log_terms`` joins the pair part after those sums where it is one
    table along them (an exponent of x1 alone with an s that reads no row,
    on a full 2-D grid: L + k for the group's one kernel term k), and
    before them where it varies along them (an exponent of x2 alone, a
    point set); the choice is read off the array shapes, as the summed
    axes are.  A piece whose exponent array collapses no axis (one grid
    row, for an exponent of x1 alone, or an interval's pieces, for an
    exponent of both points) keeps one entry per pair, its kernel part
    added to each, self-pairs dropped, for the fold to add up across the
    row offsets.  A swap-invariant integrand fills only the half walk of
    map_pairs.
    """
    vals = pq.values(f)
    fields_on = _pair_term_fields(p, s, pq)

    def fill(piece) -> tuple:
        with np.errstate(all="ignore"):
            lc, kern, pg = _log_terms(piece, vals, fields_on)
            # the axes of the piece along which p's array is constant; the
            # kernel part joins after their sums where it is constant too
            axes = _unit_axes(lc.shape, pg)
            late = axes and axes <= _unit_axes(lc.shape, kern)
            if not late:
                lc += kern
            if not axes:
                return (piece.ix0, piece.ix1), piece.flat(lc), piece.flat(pg)
            axes = tuple(sorted(axes))
            top = _shifted_exp(piece, lc, axes)
            group = np.log(np.sum(lc, axis=axes, keepdims=True)) + top
            if late:
                group += kern
        return (piece.ix0, piece.ix1), group.reshape(-1), np.broadcast_to(pg, group.shape).reshape(-1)

    return map_pairs(pq, fill, threads, _half_walk(p, s))


def _log_term_cache(f, p, s, pq, threads) -> list:
    """(logc, pvals) tables for rho(lambda) = sum exp(logc - pvals log lambda)
    over every pair: the pieces of _fill_log_terms folded in partition order.
    Called only where ``_folds`` holds, so the tables stay small.

    A piece starts a table when it is the first of its column run
    [ix0, ix1) with its entry count.  Every later piece of that run and
    count whose exponents equal the table's, entry for entry, is added into
    it with logaddexp: exp(a - p t) + exp(b - p t) = exp(logaddexp(a, b) -
    p t) for one p, so no pair is left out.  For an exponent of x1 alone
    every piece of a run folds into one table of its (ix, jx) pairs, nx^2
    entries over the runs of a full grid; where the pieces are single grid
    rows, the dy = 0 ones drop their self-pairs and fold into a second
    table of the run.  Pieces whose exponents differ from their table's
    (those of an exponent of x2 alone hold one entry per grid row) stay as
    they were filled.  Each piece is folded as the pass yields it, in
    partition order and in the calling thread, so the tables do not depend
    on the thread count, and a one-thread fill holds one piece besides the
    tables.
    """
    tables, first = [], {}
    for run, logc, pvals in _fill_log_terms(f, p, s, pq, threads):
        # i == len(tables) when this piece is the first of its key
        i = first.setdefault((run, logc.size), len(tables))
        if i < len(tables) and np.array_equal(tables[i][1], pvals):
            with np.errstate(invalid="ignore"):
                tables[i] = (np.logaddexp(tables[i][0], logc), tables[i][1])
        else:
            tables.append((logc, pvals))
    return tables


def _cached_modular(tables: list):
    """rho(lambda) = sum exp(logc - p log lambda) over the folded tables of
    _log_term_cache, summed table by table in order."""

    def modular(lam: float) -> float:
        neg_log = -math.log(lam)
        total = 0.0
        with np.errstate(all="ignore"):
            for logc, pvals in tables:
                total += float(np.exp(pvals * neg_log + logc).sum())
        return total

    return modular


def _streamed_log_modular(f, p, s, pq, threads):
    """t -> (phi(t), its Newton step -phi(t) / phi'(t)) for phi(t) =
    log rho(e^t) = log sum exp(l_k - p_k t), where phi' = -sum p_k exp(.) /
    sum exp(.), from one pass of the fill's term code per call; nothing is
    kept between calls.  Each piece gives its max-shifted sums, combined in
    partition order, so the bits do not depend on the thread count.  A NaN
    or a +inf log-term makes phi NaN."""
    vals, fields_on, half = pq.values(f), _pair_term_fields(p, s, pq), _half_walk(p, s)

    def sums(piece, t):
        """The piece's top, sum exp(l - p t - top) and sum p exp(l - p t - top)."""
        with np.errstate(all="ignore"):
            lc, kern, pg = _log_terms(piece, vals, fields_on, t)
            lc += kern
            top = _shifted_exp(piece, lc, None).item()
            total = np.sum(lc)
            # a piece of zero differences and self-pairs alone sums to 0; its
            # top of 0 must not shift the other pieces' sums into underflow
            return (top if total else -math.inf), total, np.sum(np.multiply(lc, pg, out=lc))

    def phi(t: float):
        top, total, weighted = np.array(list(map_pairs(pq, lambda piece: sums(piece, t), threads, half))).T
        with np.errstate(all="ignore"):
            scale = np.exp(top - np.max(top))
            value = np.max(top) + np.log(np.sum(total * scale))
            return float(value), float(value * np.sum(total * scale) / np.sum(weighted * scale))

    return phi


def _newton_root(phi) -> LuxemburgResult:
    """The root of phi(t) = log rho(e^t) = 0 by Newton steps in t = log
    lambda, phi returning phi and its Newton step.  Every iterate is a
    point k g of the lattice of multiples of g = REL_TOL / 8 (several ulps
    of any t within reach): the tangent's root rounded down onto it.  For a
    positive exponent phi is convex and decreasing, so every tangent's root
    lies left of the root: from t = 0 the iterates rise to it after the
    first step.

    lo and hi are the greatest lattice point where phi read >= 0 and the
    least where it read < 0, and each iterate is kept strictly between
    them, so a step that stalls moves on by one lattice point.  Once they
    are neighbours, lambda* is e^hi and the bracket (e^lo, e^hi): the root
    lies in it by phi's own signs at its two ends, however a tangent's root
    was rounded, and lambda* depends on phi's last bits only at lattice
    points next to the root, as bisection does.  rho(lambda*) is within
    about p g of 1.

    A NaN phi or step, a root beyond 2^+-MAX_EXPAND, the bracket expansion's
    reach (iterates are clamped to it, and one there with the root still
    beyond it fails), and MAX_BISECT evaluations without a root give
    bracket-failure.  iterations counts evaluations."""
    grid = REL_TOL / 8
    reach = math.floor(MAX_EXPAND * math.log(2.0) / grid)
    # lattice indices: the iterate, the greatest read >= 0, the least read < 0
    k, lo, hi, at_hi = 0, -reach - 1, reach + 1, math.nan
    for evals in range(1, MAX_BISECT + 1):
        value, step = phi(k * grid)
        # an iterate clamped to the reach with the root still beyond it
        if math.isnan(value + step) or (abs(k) == reach and (value >= 0.0) == (k > 0)):
            break
        lo, hi, at_hi = (lo, k, value) if value < 0.0 else (k, hi, at_hi)
        if hi - lo == 1:
            return LuxemburgResult(math.exp(hi * grid), math.exp(at_hi), (math.exp(lo * grid), math.exp(hi * grid)), evals, CONVERGED)
        k = min(max(math.floor(min(max(k + step / grid, -reach), reach)), lo + 1), hi - 1)
    return LuxemburgResult(math.nan, math.nan, (math.nan, math.nan), evals, BRACKET_FAILURE)


def _gagliardo_root(f, p, s, pq, threads, name) -> LuxemburgResult:
    if p.arity != PAIR:
        p = extend_symmetric_mean(p)
    p_const = _constant_exponent(p, name)
    vals = pq.values(f)
    if float(np.max(vals)) == float(np.min(vals)):
        return LuxemburgResult(0.0, 0.0, (0.0, 0.0), 0, ZERO_FUNCTION)
    if p_const is not None:
        a = modular_gagliardo(f, p, s, pq, 1.0, threads)
        if not math.isfinite(a) or a <= 0.0:
            return LuxemburgResult(math.nan, a, (1.0, 1.0), 1, BRACKET_FAILURE)
        res = _homogeneous_root(a, p_const)
        if res is not None:
            return res
        if a >= _NORMAL_RHO:
            # the root lies beyond the reach: bisect rho(lam) = a lam^-p,
            # exact for a constant p, which fails as every root past it does
            return solve_unit_modular(lambda lam: a * lam**-p_const)
        # a rho(1) that may be a sum of subnormal terms: a constant p folds
        # its log-terms to one per piece, and their bisection probes near
        # the root, where no term that counts is subnormal
    if _folds(p, pq):
        return solve_unit_modular(_cached_modular(_log_term_cache(f, p, s, pq, threads)))
    return _newton_root(_streamed_log_modular(f, p, s, pq, threads))


def gagliardo_seminorm(
    f: GridFunction,
    p: ExponentField,
    s,
    pq: PairQuadrature,
    threads: int | None = None,
) -> LuxemburgResult:
    """Luxemburg norm of the fractional difference quotient over interior
    pairs.  A constant p <= 0 or +inf raises FieldError."""
    if pq.scope != "interior":
        raise ModularError("interior seminorm called with a boundary quadrature")
    return _gagliardo_root(f, p, _as_field(s), pq, threads, "p")


def boundary_gagliardo_seminorm(
    f: GridFunction,
    q: ExponentField,
    t,
    pq: PairQuadrature,
    threads: int | None = None,
) -> LuxemburgResult:
    """Same construction over facet pairs; the kernel exponent keeps the
    ambient dimension n, matching the interior convention.  A constant
    q <= 0 or +inf raises FieldError."""
    if pq.scope != "boundary":
        raise ModularError("boundary seminorm needs a boundary quadrature")
    return _gagliardo_root(f, q, _as_field(t), pq, threads, "q")


def full_norm(
    f: GridFunction,
    p: ExponentField,
    s,
    pq: PairQuadrature,
    threads: int | None = None,
) -> float:
    """Lebesgue norm with the diagonal exponent plus the fractional seminorm."""
    pbar = diagonal_field(p) if p.arity == PAIR else p
    lebesgue = luxemburg_norm(f, pbar, "interior")
    semi = gagliardo_seminorm(f, p, s, pq, threads)
    return lebesgue.lambda_star + semi.lambda_star
