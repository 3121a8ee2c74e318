"""Strictly convex nonlocal Neumann energy and its first-order minimizer.

The discrete energy over interior cell values u is

    sum_{i != j} w_ij |u_i - u_j|^{p_ij} / (p_ij |x_i - x_j|^{n + s_ij p_ij})
    + sum_k w_k |u_k|^{pbar_k} / pbar_k
    - sum_f a_f g_f u_{cell(f)}

with the boundary trace of u taken from the facet's adjacent interior cell.
Each |.|^{p} term is convex and the bulk term is strictly so, which is what
the two-start uniqueness checks lean on.

Assembly builds what does not depend on u once, when the problem is first
assembled, for the row blocks of the interior pair quadrature.  The kernel
is w / |x_i - x_j|^(n + s p), 0 on self-pairs so that every self-pair term
is an exact 0.  A uniform mesh gives every pair the same weight
w = |cell|^2: one scalar for a constant p and s, and for a variable one a
per-pair array of that value, which the tiles of ``PairQuadrature.block``
carry and ``PairChunk.kernel`` reads.

* For a p and s that are constant as expressions, the kernel depends only
  on the pair's offset.  It is computed once per row offset by
  ``PairChunk.kernel`` of one ``PairQuadrature.chunk``, on its offset
  distances, and held as one (nx, 2 ny - 1, nx) table
  (``_offset_kernel``): 2 nx^2 ny entries, 1 MB at 40^2 cells and 33 MB
  at 128^2, where the M^2 pairs would take 2.1 GB.  The kernel of one
  cell against all M cells is a contiguous run of that table, so a run of
  rows within a grid row, or a run of whole grid rows, is one strided view
  of it, and a row tile meets its kernel in at most three products, with
  no copy.  Where the cell coordinates are dyadic the offset distances are
  the coordinate differences to the bit; elsewhere a kernel entry may move
  in its last bits.
* A variable p or s keeps, per row block, (rows, M) tables without the
  piece's leading unit axis: the kernel, and p in the shape its expression
  produces (a scalar for a constant, one row or one column for a p of one
  point).  They are filled a row tile at a time: ``PairChunk.kernel`` of
  one ``PairQuadrature.block`` (a one-row piece of the point-set view, with
  distances built per pair) writes into the table, per tile of about
  PAIR_BLOCK_TARGET / 64 pairs.  That is 8 B per pair, plus 8 B per pair
  when p reads both points, for the life of the problem: about 0.8 GB at
  100^2 cells (1.6 GB), and no fixed memory bound.

``_times_kernel`` reads both kinds, so energy and gradient have one body.
They sweep u's differences (``geometry.differences``, written into the
tile) a row tile of about PAIR_BLOCK_TARGET / 32 pairs (512 KB) at a
time, in scratch that each call allocates per block: besides
the kernel a call holds a tile or two per thread, never a (rows, M) array,
and calls on one problem may run concurrently.

An energy term is formed as |u_i - u_j|^p kern / p and a gradient term as
kern sign(u_i - u_j) |u_i - u_j|^(p - 1), with the sign bit copied from the
difference.  For a constant p = 2 they are (u_i - u_j)^2 kern * 0.5 and
kern (u_i - u_j): a square needs no abs, and x * 0.5 is x / 2 to the bit.
These give the bits of abs, power and a negate masked on u_i < u_j, the
form ``tests/oracles.py`` keeps, except in the sign of a zero: a -0.0
difference (u_i = -0.0, u_j = +0.0) stays -0.0 where that form gives +0.0.
That reaches no result.  A row sum holds its self-pair's +0.0, so it is
never -0.0, and the pair part starts from +0.0, so it never becomes -0.0
and a -0.0 column sum or bulk term leaves it unchanged.  A NaN from
inf - inf may keep the sign bit that abs cleared; it is a NaN either way.
The energy adds the block sums in row-block order; the gradient sums its
pair part over the blocks (rows added, columns subtracted) before it adds
the bulk gradient.  Solver histories depend on that order to the last bit,
so the tiles keep the sums of whole blocks: a block's energy is np.sum of
its (rows, M) terms, added in leaves along numpy's own pairwise split
(``_pairwise_sum``), and the gradient's column sums carry from tile to tile
as row 0 of the tile buffer, so they add the rows in the order a
column sum of the whole block does.
The offset-stencil enumeration of the seminorms would reorder the sums and
move the energy in its last bits, and a shift that small can change the
iteration count of a converging solve.  The order is fixed, so reports do
not depend on the thread count.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ProblemError
from .exponents import (
    BOUNDARY,
    PAIR,
    ExponentField,
    _as_field,
    _p_star_at,
    _swap_invariant,
    _swap_witness,
    constant_field,
    diagonal_field,
    extend_symmetric_mean,
    validate_bounds,
)
from . import geometry
from .geometry import Domain, GridFunction, _map_ordered, differences, pair_quadrature
from .modular import _pair_term_fields

CONVERGED = "converged"
NONCONVERGED = "nonconverged"
LINE_SEARCH_FAILURE = "line-search-failure"

_ARMIJO = 0.5
_SHRINK = 0.5
_SLOPE = 0.9  # slope-shrink factor for the flat-energy endgame
_MAX_BACKTRACKS = 60
_LBFGS_MEMORY = 10


@dataclass(frozen=True)
class EnergyProblem:
    """Data of the boundary-load energy: pair exponent p, order s, facet
    data g, and the integrability class r of g on the boundary."""

    domain: Domain
    p: ExponentField
    s: ExponentField
    g: GridFunction
    r: ExponentField

    def __post_init__(self):
        object.__setattr__(self, "s", _as_field(self.s))
        if not isinstance(self.r, ExponentField):
            object.__setattr__(self, "r", constant_field(float(self.r), BOUNDARY))
        if self.p.arity != PAIR:
            object.__setattr__(self, "p", extend_symmetric_mean(self.p))
        validate_bounds(self.p, self.domain, "p")
        if not _swap_invariant(self.p) and _swap_witness(self.p, self.domain) is not None:
            raise ProblemError("pair exponent must satisfy p(x, y) = p(y, x)")
        validate_bounds(self.s, self.domain, "s")
        validate_bounds(self.r, self.domain, "r")
        if self.g.boundary.shape[0] != self.domain.n_facets:
            raise ProblemError("boundary data does not match the mesh facets")
        _check_load_pairing(self.p, self.s, self.r, self.domain)


def _check_load_pairing(p, s, r, dom: Domain) -> None:
    """Trace pairing with L^{r} data needs the critical exponent to clear the
    conjugate r/(r-1) wherever it is finite."""
    if dom.n < 2:
        # the critical-exponent formula carries a factor n - 1 that vanishes
        # on intervals, where the trace is two point values and the pairing
        # is a finite sum for any data class
        return
    pts = dom.facet_centroids
    pstar = _p_star_at(p, s, dom.n, pts)
    rv = r.eval_points(pts)
    rconj = rv / (rv - 1.0)
    bad = np.isfinite(pstar) & (pstar <= rconj)
    if np.any(bad):
        j = int(np.argmax(bad))
        raise ProblemError(
            f"boundary data class too weak at {pts[j].tolist()}: "
            f"critical exponent {pstar[j]:.6g} <= conjugate {rconj[j]:.6g}"
        )


def _signed_power(delta: np.ndarray, expo) -> np.ndarray:
    """sign(delta) |delta|^expo in a new array, with delta's sign bit, so
    a zero delta gives a zero of its own sign (expo > 0 for every p > 1)."""
    out = np.abs(delta)
    with np.errstate(over="ignore", invalid="ignore"):
        out **= expo
    return np.copysign(out, delta, out=out)


def _tile_rows(m: int, share: int = 32) -> int:
    """Rows of a row tile of a block with m columns: about
    PAIR_BLOCK_TARGET / share entries (512 KB at the default and share 32),
    and at least two rows, so that a block's first tile shows which axes
    of the block an exponent spans."""
    return max(2, geometry.PAIR_BLOCK_TARGET // share // m)


def _pairwise_sum(lo: int, n: int, leaf: int, span_sum):
    """The sum of the flat span [lo, lo + n) along numpy's own pairwise
    split, the one np.sum of a contiguous array runs: a span of more than
    128 entries splits at n // 2 rounded down to a multiple of 8.  Spans of
    at most max(leaf, 128) entries are leaves, added by span_sum(lo, hi) as
    np.add.reduce of the span, which runs the same split below them, so the
    total is np.sum's to the bit.  The split exists only to keep the block
    sums of a whole (rows, M) term array while the terms are made a tile at
    a time; a solver on the half stencil reorders those sums anyway, and
    deletes it."""
    if n <= max(leaf, 128):
        return span_sum(lo, lo + n)
    n2 = n // 2
    n2 -= n2 % 8
    return _pairwise_sum(lo, n2, leaf, span_sum) + _pairwise_sum(lo + n2, n - n2, leaf, span_sum)


def _rows(pg, r0: int, r1: int):
    """Rows r0 .. r1 - 1 of a block's p: a scalar or a one-row p serves
    every row as it is."""
    return pg if np.ndim(pg) == 0 or len(pg) == 1 else pg[r0:r1]


class _BlockAssembly:
    """Energy and gradient over the row blocks of the interior pair
    quadrature, with everything that does not depend on u built once.
    Both work a block in row tiles (``_tile_rows``), each call in scratch
    of its own, so calls are reentrant."""

    def __init__(self, prob: EnergyProblem):
        dom = prob.domain
        self.mass_w = dom.cell_measures
        self.mass_p = diagonal_field(prob.p).eval_points(dom.cell_centroids)
        load = np.zeros(dom.n_cells)
        np.add.at(load, dom.facet_cells, dom.facet_measures * prob.g.boundary)
        self.load = load
        self.pq = pair_quadrature(dom, "interior")
        fields_on = _pair_term_fields(prob.p, prob.s, self.pq)
        m = self.pq.n_points
        # a constant p and s on a grid: the kernel depends on the pair's
        # offset alone, and the blocks hold no table
        self.offsets = None
        if self.pq.grid is not None and prob.p.constant_value() is not None and prob.s.constant_value() is not None:
            pg, self.offsets = self._offset_kernel(fields_on)
            self.blocks = [(a, b, pg, None) for a, b in self.pq.row_blocks()]
            return
        # PairQuadrature.block holds three arrays of its size at its peak,
        # so tiles of half the size keep that under 1 MB at the default
        # PAIR_BLOCK_TARGET
        step = _tile_rows(m, 64)
        # per row block, in partition order: (row_start, row_stop, p, kern)
        # with kern = w / dist^(n + s p), 0 on self-pairs, filled one tile
        # of rows at a time; an array p keeps the axes its expression spans
        self.blocks = []
        for a, b in self.pq.row_blocks():
            kern = np.empty((b - a, m))
            pg = None
            for r0 in range(0, b - a, step):
                r1 = min(r0 + step, b - a)
                pt = self._kernel_tile(fields_on, a + r0, a + r1, kern[r0:r1])
                if np.ndim(pt) == 0:
                    pg = pt
                    continue
                if pg is None:
                    pg = np.empty((b - a if pt.shape[1] > 1 else 1, pt.shape[2]))
                _rows(pg, r0, r1)[...] = pt[0]
            self.blocks.append((a, b, pg, kern))

    def _kernel_tile(self, fields_on, a: int, b: int, out: np.ndarray):
        """Write the kernel of rows a <= i < b into out and return p there,
        from one ``PairQuadrature.block``, freed on return."""
        tile = self.pq.block(a, b)
        pt, kexp = fields_on(tile)
        tile.kernel(kexp, out=out[None])[~tile.offdiag] = 0.0
        return pt

    def _offset_kernel(self, fields_on):
        """p and the kernel of a constant p and s, from one table by the
        pair's offset: entry (ix, dy + ny - 1, jx) of the (nx, 2 ny - 1, nx)
        table is the kernel of the offsets dy = jy - iy and ix - jx, from
        the distances of ``PairQuadrature.chunk``, 0 at offset (0, 0).  The
        kernel of cell (ix, iy) against every cell is then the one run
        table[ix, ny - 1 - iy : 2 ny - 1 - iy] of M entries, and the kernel
        is returned as the read-only (ny, nx, M) view of those runs."""
        nx, ny = self.pq._row_shape()
        table = np.empty((nx, 2 * ny - 1, nx))
        for dy in range(1 - ny, ny):
            iy0 = max(0, -dy)
            piece = self.pq.chunk(dy, iy0, iy0 + 1, 0, nx)
            pg, kexp = fields_on(piece)
            table[:, dy + ny - 1] = piece.kernel(kexp)[0]
        np.fill_diagonal(table[:, ny - 1], 0.0)  # offset (0, 0)
        step = table.itemsize
        view = np.ndarray((ny, nx, nx * ny), table.dtype, table, (ny - 1) * nx * step, (-nx * step, table.strides[0], step))
        view.flags.writeable = False
        return pg, view

    def _times_kernel(self, blk, r0: int, r1: int, src: np.ndarray, out: np.ndarray) -> None:
        """out = src times the kernel of rows r0 <= r < r1 of a block, for
        (r1 - r0, M) arrays src and out, which may be one array.  A block's
        table is sliced; the per-offset kernel is read through one view per
        run of rows within a grid row and one for the whole grid rows
        between, so at most three products."""
        a, _, _, kern = blk
        if kern is not None:
            np.multiply(src, kern[r0:r1], out=out)
            return
        nx = self.offsets.shape[1]
        i = r0
        while i < r1:
            iy, ix = divmod(a + i, nx)
            if ix or r1 - i < nx:
                kern = self.offsets[iy, None, ix : ix + min(nx - ix, r1 - i)]
            else:
                kern = self.offsets[iy : iy + (r1 - i) // nx]
            n = kern.shape[0] * kern.shape[1]
            run = slice(i - r0, i - r0 + n)
            np.multiply(src[run].reshape(kern.shape), kern, out=out[run].reshape(kern.shape))
            i += n

    def _bulk(self, u: np.ndarray) -> float:
        with np.errstate(over="ignore"):
            power = np.abs(u) ** self.mass_p
        mass = float(np.sum(self.mass_w * power / self.mass_p))
        return mass - float(self.load @ u)

    def energy(self, u: np.ndarray, threads=None) -> float:
        m = u.size
        leaf = max(geometry.PAIR_BLOCK_TARGET // 32, 128)

        def eblock(blk) -> float:
            a, b, pg, _ = blk
            square = np.ndim(pg) == 0 and pg == 2.0
            # the rows under a leaf: leaf // m, and two more where it starts
            # and ends inside a row
            scratch = np.empty((min(b - a, leaf // m + 2), m))

            def span_sum(lo: int, hi: int):
                r0, r1 = lo // m, -(-hi // m)
                t = differences(u[a + r0 : a + r1, None], u, scratch[: r1 - r0])
                p = _rows(pg, r0, r1)
                with np.errstate(over="ignore"):
                    if square:
                        np.square(t, out=t)
                        self._times_kernel(blk, r0, r1, t, t)
                        t *= 0.5
                    else:
                        np.abs(t, out=t)
                        t **= p
                        self._times_kernel(blk, r0, r1, t, t)
                        t /= p
                return np.add.reduce(t.reshape(-1)[lo - r0 * m : hi - r0 * m])

            return float(_pairwise_sum(0, (b - a) * m, leaf, span_sum))

        total = 0.0
        for v in _map_ordered(eblock, self.blocks, threads):
            total += v
        return float(total) + self._bulk(u)

    def gradient(self, u: np.ndarray, threads=None) -> np.ndarray:
        m = u.size
        step = _tile_rows(m)

        def gblock(blk):
            a, b, pg, _ = blk
            square = np.ndim(pg) == 0 and pg == 2.0
            rows = np.empty(b - a)
            cols = np.zeros(m)
            # row 0 carries the column sums of the tiles before, so that the
            # column sums add the rows in the order of one (b - a, M) array
            buf = np.empty((min(step, b - a) + 1, m))
            for r0 in range(0, b - a, step):
                r1 = min(r0 + step, b - a)
                buf[0] = cols
                t = differences(u[a + r0 : a + r1, None], u, buf[1 : 1 + r1 - r0])
                self._times_kernel(blk, r0, r1, t if square else _signed_power(t, _rows(pg, r0, r1) - 1.0), t)
                np.add.reduce(t, axis=1, out=rows[r0:r1])
                np.add.reduce(buf[: 1 + r1 - r0], axis=0, out=cols)
            return a, b, rows, cols

        pair = np.zeros_like(u)
        for a, b, rows, cols in _map_ordered(gblock, self.blocks, threads):
            pair[a:b] += rows
            pair -= cols
        return pair + (self.mass_w * _signed_power(u, self.mass_p - 1.0) - self.load)


def _assembly(prob: EnergyProblem) -> _BlockAssembly:
    asm = getattr(prob, "_asm", None)
    if asm is None:
        asm = _BlockAssembly(prob)
        object.__setattr__(prob, "_asm", asm)
    return asm


def energy(u: GridFunction, prob: EnergyProblem, threads: int | None = None) -> float:
    return _assembly(prob).energy(np.asarray(u.interior, dtype=float), threads)


def gradient(u: GridFunction, prob: EnergyProblem, threads: int | None = None) -> GridFunction:
    g = _assembly(prob).gradient(np.asarray(u.interior, dtype=float), threads)
    return GridFunction.from_interior(prob.domain, g)


def el_residual(u: GridFunction, prob: EnergyProblem, threads: int | None = None) -> float:
    """Sup-norm of the discrete first-variation; zero iff the weak form
    holds against every test vector."""
    g = _assembly(prob).gradient(np.asarray(u.interior, dtype=float), threads)
    return float(np.max(np.abs(g)))


@dataclass(frozen=True)
class SolverOptions:
    tol: float = 1e-8
    max_iter: int = 5000
    seed: int = 42
    # L-BFGS is the only method; the field stays for configs that name it
    accelerate: bool = True
    start: str = "zero"

    def __post_init__(self):
        if self.accelerate is not True:
            raise ProblemError("accelerate: steepest descent was removed, so only true is accepted")


@dataclass(frozen=True)
class SolverReport:
    minimizer: GridFunction
    energy: float
    el_residual: float
    iterations: int
    history: tuple
    status: str
    # work counters: every energy and gradient evaluation minimize made,
    # and every rejected trial step of its line searches
    energy_calls: int = 0
    gradient_calls: int = 0
    backtracks: int = 0


class _Lbfgs:
    def __init__(self, memory: int):
        self.memory = memory
        self.s: list[np.ndarray] = []
        self.y: list[np.ndarray] = []
        self.rho: list[float] = []

    def update(self, s: np.ndarray, y: np.ndarray) -> None:
        sy = float(s @ y)
        # curvature guard: skip the pair when it carries no positive signal
        if sy <= 1e-12 * float(np.linalg.norm(s)) * float(np.linalg.norm(y)):
            return
        self.s.append(s)
        self.y.append(y)
        self.rho.append(1.0 / sy)
        if len(self.s) > self.memory:
            del self.s[0], self.y[0], self.rho[0]

    def direction(self, g: np.ndarray) -> np.ndarray:
        if not self.s:
            return -g
        q = g.copy()
        alphas = []
        for s, y, rho in zip(reversed(self.s), reversed(self.y), reversed(self.rho)):
            a = rho * float(s @ q)
            q -= a * y
            alphas.append(a)
        gamma = (1.0 / self.rho[-1]) / float(self.y[-1] @ self.y[-1])
        q *= gamma
        for (s, y, rho), a in zip(zip(self.s, self.y, self.rho), reversed(alphas)):
            b = rho * float(y @ q)
            q += s * (a - b)
        return -q


def minimize(
    prob: EnergyProblem,
    opts: SolverOptions | None = None,
    threads: int | None = None,
) -> SolverReport:
    """L-BFGS descent with backtracking from the configured start.

    Every iteration takes the L-BFGS direction, or -g when that direction
    fails the slope test, and starts its line search at alpha = 1.
    Sufficient decrease uses Armijo parameter 0.5 with step halving.

    Once the predicted Armijo decrease drops below the floating-point
    resolution of the energy value itself, sufficient decrease is no longer
    representable even though the gradient is still resolvable; in that
    regime a step is accepted when it does not raise the energy and shrinks
    the directional slope (approximate Wolfe endgame).

    An accepted step that leaves u bit-identical (alpha d below the
    resolution of u) ends the solve with line-search-failure: the next
    iteration would repeat it exactly, since its line search restarts at
    alpha = 1 and the memory skips the zero-curvature pair.
    """
    opts = opts or SolverOptions()
    asm = _assembly(prob)
    m = prob.domain.n_cells
    if opts.start == "zero":
        u = np.zeros(m)
    elif opts.start == "random":
        u = np.random.default_rng(opts.seed).standard_normal(m)
    else:
        raise ProblemError(f"unknown start '{opts.start}' (expected zero|random)")

    e = asm.energy(u, threads)
    g = asm.gradient(u, threads)
    n_energy, n_gradient, backtracks = 1, 1, 0
    ginf = float(np.max(np.abs(g)))
    history = [(0, e, ginf)]
    mem = _Lbfgs(_LBFGS_MEMORY)
    status = NONCONVERGED

    for it in range(1, opts.max_iter + 1):
        if ginf <= opts.tol:
            status = CONVERGED
            break
        d = mem.direction(g)
        gd = float(g @ d)
        if not np.isfinite(gd) or gd >= 0.0:
            d = -g
            gd = float(g @ d)
        alpha = 1.0
        flat = 32.0 * np.finfo(float).eps * (1.0 + abs(e))
        accepted = False
        g_new = None
        for _ in range(_MAX_BACKTRACKS):
            u_new = u + alpha * d
            e_new = asm.energy(u_new, threads)
            n_energy += 1
            if np.isfinite(e_new) and e_new <= e + _ARMIJO * alpha * gd:
                accepted = True
                break
            if np.isfinite(e_new) and e_new <= e and _ARMIJO * alpha * -gd <= flat:
                # Armijo decrease below energy resolution: accept on slope
                g_trial = asm.gradient(u_new, threads)
                n_gradient += 1
                gd_new = float(g_trial @ d)
                if np.isfinite(gd_new) and _SLOPE * gd <= gd_new <= -1e-10 * gd:
                    accepted = True
                    g_new = g_trial
                    break
            alpha *= _SHRINK
            backtracks += 1
        if not accepted or np.array_equal(u_new, u):
            status = LINE_SEARCH_FAILURE
            break
        if g_new is None:
            g_new = asm.gradient(u_new, threads)
            n_gradient += 1
        mem.update(alpha * d, g_new - g)
        u, e, g = u_new, e_new, g_new
        ginf = float(np.max(np.abs(g)))
        history.append((it, e, ginf))
    if status == NONCONVERGED and ginf <= opts.tol:
        status = CONVERGED

    return SolverReport(
        minimizer=GridFunction.from_interior(prob.domain, u),
        energy=e,
        el_residual=ginf,
        iterations=history[-1][0],
        history=tuple(history),
        status=status,
        energy_calls=n_energy,
        gradient_calls=n_gradient,
        backtracks=backtracks,
    )
