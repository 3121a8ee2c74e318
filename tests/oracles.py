"""Reference computations the tests compare against.

Everything here takes a deliberately different route from the package:
double sums are materialized as full matrices instead of walking row
blocks or offset stencils, Luxemburg roots come from scipy's brentq instead of the
package bisection, the quadratic-energy minimizer comes from a dense
linear solve, and continuum values come from adaptive quadrature.
``stencil_modular`` alone keeps the stencil's partition, so that it can
pin the package's per-piece tables bit for bit, and the ``masked_*``
functions keep the solver's row blocks and its earlier masked kernels, with
the kernel of every pair built from the cell coordinates
(``dense_pair_kernel``), so that the solver's energy and gradient can be
pinned to them bit for bit on a dyadic mesh; ``whole_block_tables`` builds
the kernel tables of those blocks whole, one piece per block, where the
solver fills them a row tile at a time or reads them by offset.
"""

import numpy as np
from scipy.integrate import quad
from scipy.optimize import brentq

import fraclab as fl
from fraclab import solver
from fraclab.geometry import _map_ordered
from fraclab.modular import _pair_term_fields


def continuum_luxemburg_1d(f, p, lo=0.0, hi=1.0):
    """Root of the continuum modular on an interval, by quad + brentq."""

    def resid(lam):
        val, _ = quad(
            lambda x: (abs(f(x)) / lam) ** p(x), lo, hi, epsabs=1e-13, epsrel=1e-13
        )
        return val - 1.0

    return brentq(resid, 1e-6, 1e6, xtol=1e-14, rtol=8.9e-16)


def discrete_luxemburg(values, weights, pvals):
    """Weighted finite-sum Luxemburg root via brentq on a grown bracket."""
    values = np.abs(np.asarray(values, dtype=float))
    weights = np.asarray(weights, dtype=float)
    pvals = np.asarray(pvals, dtype=float)
    if float(np.max(values)) == 0.0:
        return 0.0

    def resid(lam):
        return float(np.sum(weights * (values / lam) ** pvals)) - 1.0

    lo, hi = 1e-8, 1.0
    while resid(hi) > 0.0:
        hi *= 2.0
    while resid(lo) < 0.0:
        lo /= 2.0
    return brentq(resid, lo, hi, xtol=1e-15, rtol=8.9e-16)


def pair_tables(dom, p_fn, s_fn, subset=None, scope="interior"):
    """Materialized ordered-pair tables: weights w_i w_j, distances, p, s,
    over all cells (or facets, for the boundary scope) or over the ones
    listed in subset.

    Diagonal entries carry weight 0 so full-matrix sums drop them.
    """
    cells = slice(None) if subset is None else np.asarray(subset)
    if scope == "boundary":
        pts, m = dom.facet_centroids[cells], dom.facet_measures[cells]
    else:
        pts, m = dom.cell_centroids[cells], dom.cell_measures[cells]
    diff = pts[:, None, :] - pts[None, :, :]
    dist = np.sqrt(np.sum(diff * diff, axis=2))
    w = np.outer(m, m)
    np.fill_diagonal(w, 0.0)
    np.fill_diagonal(dist, 1.0)  # placeholder, masked by the zero weight
    pgrid = p_fn(pts[:, None, :], pts[None, :, :])
    sgrid = s_fn(pts[:, None, :], pts[None, :, :])
    return w, dist, np.broadcast_to(pgrid, w.shape), np.broadcast_to(sgrid, w.shape)


def dense_modular(dom, fvals, p_fn, s_fn, subset=None, scope="interior"):
    """The Gagliardo modular lam -> sum w |dv / lam|^p / d^(n + s p) as an
    explicit double sum; fvals holds one value per cell (or facet) of the
    subset.  n is the ambient dimension on either scope."""
    w, dist, pgrid, sgrid = pair_tables(dom, p_fn, s_fn, subset, scope)
    fvals = np.asarray(fvals, dtype=float)
    dv = np.abs(fvals[:, None] - fvals[None, :])
    kern = w / dist ** (dom.n + sgrid * pgrid)

    def modular(lam):
        with np.errstate(all="ignore"):
            return float(np.sum(kern * (dv / lam) ** pgrid))

    return modular


def stencil_modular(pq, vals, p, s, lam, half=False, row_sums=True):
    """The Gagliardo modular over the package's stencil partition
    (pq.chunks(half)) of a full grid, each piece's tables built as 2-D
    arrays: the distance of every (ix, jx) pair from its offsets,
    sqrt((hx (ix - jx))^2 + (hy dy)^2) with 1.0 on the self-pairs, the
    kernel w / d^(n + s p) on that table, and the term |dv| formed by
    broadcast subtraction, divided by lam and raised to p in place.

    With row_sums a piece is summed as the package sums one, along the grid
    rows where the kernel is one table first, then times the kernel (term
    by term where that is not finite), self-pairs cleared.  A constant p
    sorts the rows one by one: a row pair whose second row holds one finite
    value gives a column over ix, one whose first row alone does gives a
    row over jx, and the others give their (ix, nx) tables; the tables, the
    columns and the rows are each stacked and summed, and added in that
    order.  Without row_sums every piece is summed term by term.  It keeps
    the package's partition and summation order, so a package that forms
    the same doubles matches it bit for bit."""
    nx = pq.grid[0]
    hx, hy = (*pq.spacing, 0.0)[:2]
    w0 = float(pq.measures[0] * pq.measures[0])
    cx = pq.points[:nx, 0]
    grid = np.asarray(vals, dtype=float).reshape(-1, nx)
    level = [r[0] if np.all(r == r[0]) and np.isfinite(r[0]) else None for r in grid]
    constant = p.constant_value() is not None

    def power(dv, pg):
        dv = np.abs(dv)
        if lam != 1.0:
            dv /= lam
        dv **= pg
        return dv

    total = 0.0
    for dy, iy0, iy1, ix0, ix1 in pq.chunks(half):
        k = np.arange(ix0, ix1)[:, None] - np.arange(nx)[None, :]
        dist = np.sqrt((hx * k) ** 2 + (hy * dy) ** 2)[None]
        if dy == 0:
            dist = np.where(k != 0, dist, 1.0)
        w = 2.0 * w0 if half and dy > 0 else w0
        x, y = (cx[None, ix0:ix1, None],), (cx[None, None, :],)
        if pq.dim == 2:
            cy = pq.points[::nx, 1]
            x += (cy[iy0:iy1, None, None],)
            y += (cy[iy0 + dy : iy1 + dy, None, None],)
        pg = p.eval_on(x, y)
        kexp = pq.dim + s.eval_on(x, y) * pg
        a, b = grid[iy0:iy1, ix0:ix1], grid[iy0 + dy : iy1 + dy]
        with np.errstate(all="ignore"):
            term = power(a[:, :, None] - b[:, None, :], pg)
            kern = w / dist**kexp
            summed = None
            if row_sums and constant and np.shape(kern)[0] == 1:
                tables, cols, rows = [], [], []
                for i in range(iy1 - iy0):
                    if level[iy0 + dy + i] is not None:
                        cols.append(power(a[i, :, None] - level[iy0 + dy + i], pg))
                    elif level[iy0 + i] is not None:
                        rows.append(power(level[iy0 + i] - b[i, None, :], pg))
                    else:
                        tables.append(power(a[i, :, None] - b[i, None, :], pg))
                parts = [np.sum(np.stack(t), axis=0, keepdims=True) for t in (tables, cols, rows) if t]
                summed = parts[0]
                for part in parts[1:]:
                    summed = summed + part
            elif row_sums and np.shape(kern)[0] == 1 < term.shape[0]:
                summed = np.sum(term, axis=0, keepdims=True)
            if summed is not None:
                summed = summed * kern
            term = summed if summed is not None and np.all(np.isfinite(summed)) else term * kern
        if dy == 0:
            term = np.where(k != 0, term, 0.0)
        total += float(np.sum(term))
    return float(total)


def dense_gagliardo(dom, fvals, p_fn, s_fn, subset=None, scope="interior"):
    """Gagliardo seminorm by explicit double sum and brentq."""
    if float(np.max(fvals)) == float(np.min(fvals)):
        return 0.0
    modular = dense_modular(dom, fvals, p_fn, s_fn, subset, scope)

    def resid(lam):
        return modular(lam) - 1.0

    lo, hi = 1e-8, 1.0
    while resid(hi) > 0.0:
        hi *= 2.0
    while resid(lo) < 0.0:
        lo /= 2.0
    return brentq(resid, lo, hi, xtol=1e-15, rtol=8.9e-16)


def _energy_tables(dom, g_boundary, p_fn, s_fn):
    """Kernel w / d^(n + s p) (0 on the diagonal), pair exponent, diagonal
    exponent pbar and the facet load pushed onto the adjacent cells."""
    w, dist, pgrid, sgrid = pair_tables(dom, p_fn, s_fn)
    kern = w / dist ** (dom.n + sgrid * pgrid)
    pts = dom.cell_centroids
    pbar = np.broadcast_to(p_fn(pts, pts), (dom.n_cells,))
    load = np.zeros(dom.n_cells)
    np.add.at(load, dom.facet_cells, dom.facet_measures * np.asarray(g_boundary, dtype=float))
    return kern, pgrid, pbar, load


def dense_energy(dom, u, g_boundary, p_fn, s_fn):
    """The solver energy

        sum_{i != j} K_ij |u_i - u_j|^p_ij / p_ij + sum_k m_k |u_k|^pbar_k / pbar_k
        - sum_f a_f g_f u_cell(f)

    with K_ij = m_i m_j / d_ij^(n + s_ij p_ij), as full-matrix sums."""
    kern, pgrid, pbar, load = _energy_tables(dom, g_boundary, p_fn, s_fn)
    u = np.asarray(u, dtype=float)
    du = np.abs(u[:, None] - u[None, :])
    pair = np.sum(kern * du**pgrid / pgrid)
    bulk = np.sum(dom.cell_measures * np.abs(u) ** pbar / pbar)
    return float(pair + bulk - load @ u)


def _odd_power(d, expo):
    """sign(d) |d|^expo, 0 where d == 0."""
    return np.where(d == 0.0, 0.0, np.sign(d) * np.abs(d) ** expo)


def dense_gradient(dom, u, g_boundary, p_fn, s_fn):
    """Gradient of dense_energy for a symmetric p: the terms (i, j) and
    (j, i) both hold |u_i - u_j|^p_ij, so d/du_i collects
    (K_ij + K_ji) sign(u_i - u_j) |u_i - u_j|^(p_ij - 1) along row i."""
    kern, pgrid, pbar, load = _energy_tables(dom, g_boundary, p_fn, s_fn)
    u = np.asarray(u, dtype=float)
    pair = np.sum((kern + kern.T) * _odd_power(u[:, None] - u[None, :], pgrid - 1.0), axis=1)
    return pair + dom.cell_measures * _odd_power(u, pbar - 1.0) - load


def masked_signed_power(delta, expo, out=None):
    """sign(delta) |delta|^expo by abs, power, a masked negate and a masked
    zero, so a zero delta gives +0.0 whatever its sign."""
    zero = delta == 0.0
    neg = delta < 0.0
    out = np.abs(delta, out=out)
    with np.errstate(over="ignore", invalid="ignore"):
        out **= expo
    np.negative(out, out=out, where=neg)
    np.copyto(out, 0.0, where=zero)
    return out


def dense_pair_kernel(prob):
    """The solver's pair kernel w / d^(n + s p) and its p over every ordered
    pair of cells, built per pair from the cell centroids as (M, M) tables:
    d from the coordinate differences squared and added axis by axis, and
    the kernel 0 on the diagonal.  A constant p stays a scalar, as the
    solver keeps it."""
    dom = prob.domain
    pts = dom.cell_centroids
    d2 = np.zeros((dom.n_cells, dom.n_cells))
    for a in range(dom.n):
        d2 += (pts[:, None, a] - pts[None, :, a]) ** 2
    dist = np.sqrt(d2)
    np.fill_diagonal(dist, 1.0)
    pc = prob.p.constant_value()
    pg = all_pair_values(prob.p, pts)
    w = float(dom.cell_measures[0] * dom.cell_measures[0])
    with np.errstate(over="ignore"):
        kern = w / dist ** (dom.n + all_pair_values(prob.s, pts) * pg)
    np.fill_diagonal(kern, 0.0)
    return kern, pg if pc is None else pc


def _row_blocks(prob):
    return fl.pair_quadrature(prob.domain, "interior").row_blocks()


def masked_block_energy(prob, u, threads=None):
    """The solver energy over its row blocks by the general kernel at every
    p: broadcast difference, abs, power, kernel, divide by p, with the
    kernel of ``dense_pair_kernel``; the bulk term is the assembly's."""
    kern, pg = dense_pair_kernel(prob)

    def eblock(blk):
        a, b = blk
        p = pg if np.ndim(pg) == 0 else pg[a:b]
        t = np.subtract(u[a:b, None], u[None, :])
        np.abs(t, out=t)
        with np.errstate(over="ignore"):
            t **= p
            t *= kern[a:b]
        t /= p
        return float(np.sum(t))

    total = 0.0
    for v in _map_ordered(eblock, _row_blocks(prob), threads):
        total += v
    return float(total) + solver._assembly(prob)._bulk(u)


def masked_block_gradient(prob, u, threads=None):
    """The solver gradient over its row blocks with masked_signed_power at
    every p and the kernel of ``dense_pair_kernel``, the pair part summed
    before the assembly's bulk part is added."""
    kern, pg = dense_pair_kernel(prob)
    asm = solver._assembly(prob)

    def gblock(blk):
        a, b = blk
        p = pg if np.ndim(pg) == 0 else pg[a:b]
        t = np.subtract(u[a:b, None], u[None, :])
        masked_signed_power(t, p - 1.0, out=t)
        t *= kern[a:b]
        return a, b, t.sum(axis=1), t.sum(axis=0)

    pair = np.zeros_like(u)
    for a, b, rows, cols in _map_ordered(gblock, _row_blocks(prob), threads):
        pair[a:b] += rows
        pair -= cols
    return pair + (asm.mass_w * masked_signed_power(u, asm.mass_p - 1.0) - asm.load)


def whole_block_tables(prob):
    """(row_start, row_stop, p, kern) per row block of the solver's interior
    pair quadrature, each from one ``PairQuadrature.block`` of the whole
    block: kern = w / dist^(n + s p), 0 on self-pairs, and p in the shape
    its expression produces, the piece's leading unit axis dropped."""
    pq = fl.pair_quadrature(prob.domain, "interior")
    fields_on = _pair_term_fields(prob.p, prob.s, pq)
    w = float(pq.measures[0] * pq.measures[0])
    out = []
    for a, b in pq.row_blocks():
        block = pq.block(a, b)
        pg, kexp = fields_on(block)
        with np.errstate(over="ignore"):
            kern = block.dist**kexp
        np.divide(w, kern, out=kern)
        kern[~block.offdiag] = 0.0
        out.append((a, b, pg[0] if np.ndim(pg) else pg, kern[0]))
    return out


def all_pair_values(field, pts):
    """A point or pair field at every ordered pair of pts, diagonal
    included, as an (m, m) table evaluated on flat repeated point arrays."""
    m = pts.shape[0]
    xi, yj = np.repeat(pts, m, axis=0), np.tile(pts, (m, 1))
    vals = field.eval_pairs(xi, yj) if field.arity == fl.PAIR else field.eval_points(xi)
    return vals.reshape(m, m)


def family_admissibility_error(family, p, s, dom):
    """The interior-admissibility message of the sharpness sweep's family
    check, or None when a p - n + s p <= 0 on every ordered pair of anchor
    ball samples (a NaN is not).  The witness is the argmax over the first
    violating row of the full (m, m) table, the row's first NaN if it holds
    one; a point field is read at the second point."""
    c = np.asarray(family.center, dtype=float)
    pts = np.vstack([dom.cell_centroids, dom.facet_centroids])
    ball = pts[np.linalg.norm(pts - c[None, :], axis=1) <= family.delta]

    def table(field):
        tab = all_pair_values(field, ball)
        return tab if field.arity == fl.PAIR else tab.T

    pv, sv = table(p), table(s)
    lhs = family.a * pv - dom.n + sv * pv
    for i in range(ball.shape[0]):
        if not np.all(lhs[i] <= 0):
            j = int(np.argmax(lhs[i]))
            return f"interior admissibility fails near {ball[j].tolist()}: a p - n + s p = {lhs[i, j]:.4g}, not <= 0"
    return None


def pair_bounds(field, pts):
    """Min and max of a field over every ordered pair of pts, each with its
    first witness pair in row-major order."""
    tab = all_pair_values(field, pts)
    lo = np.unravel_index(int(np.argmin(tab)), tab.shape)
    hi = np.unravel_index(int(np.argmax(tab)), tab.shape)
    return (
        float(tab[lo]),
        float(tab[hi]),
        tuple(pts[i].tolist() for i in lo),
        tuple(pts[i].tolist() for i in hi),
    )


def patch_scan(p, s, pts, n):
    """Mins of p, s, s p and the trace quotient (n - 1) p / (n - s p) over
    every ordered pair of pts, diagonal included; the quotient is +inf
    where s p reaches n."""
    pg, sg = all_pair_values(p, pts), all_pair_values(s, pts)
    sp = sg * pg
    quo = np.full(sp.shape, np.inf)
    ok = sp < n
    quo[ok] = (n - 1) * pg[ok] / (n - sp[ok])
    return float(pg.min()), float(sg.min()), float(sp.min()), float(quo.min())


def quadratic_minimizer(dom, s_const, g_boundary):
    """Direct solve of the p = 2 optimality system.

    For constant p = 2 the energy is u'Hu/2 - b'u with
    H = 2 (diag(K 1) - K) + diag(cell measures),
    K_ij = m_i m_j / d_ij^(n + 2 s), b the facet load pushed onto the
    adjacent cells.  The minimizer is the unique solution of H u = b.
    """
    pts = dom.cell_centroids
    m = dom.cell_measures
    diff = pts[:, None, :] - pts[None, :, :]
    dist = np.sqrt(np.sum(diff * diff, axis=2))
    np.fill_diagonal(dist, 1.0)
    k = np.outer(m, m) / dist ** (dom.n + 2.0 * s_const)
    np.fill_diagonal(k, 0.0)
    h = -2.0 * k
    np.fill_diagonal(h, 2.0 * np.sum(k, axis=1))
    h += np.diag(m)
    b = np.zeros(dom.n_cells)
    np.add.at(b, dom.facet_cells, dom.facet_measures * np.asarray(g_boundary, dtype=float))
    return np.linalg.solve(h, b), h, b


def fd_gradient(prob, u_interior, h=1e-6):
    """Central-difference gradient of the energy, one coordinate at a time."""
    u = np.asarray(u_interior, dtype=float)
    out = np.empty_like(u)
    for i in range(u.size):
        up, dn = u.copy(), u.copy()
        up[i] += h
        dn[i] -= h
        ep = fl.energy(fl.GridFunction.from_interior(prob.domain, up), prob)
        en = fl.energy(fl.GridFunction.from_interior(prob.domain, dn), prob)
        out[i] = (ep - en) / (2.0 * h)
    return out


def random_energy_problem(seed):
    """Frozen generator for the nonquadratic solver corpus.

    Exponents stay inside [1.6, 2.8] and s inside [0.43, 0.48]; with r = 6
    the critical trace quotient then clears the conjugate exponent 1.2 at
    every facet, so every draw passes the data-class guard.
    """
    rng = np.random.default_rng(seed)
    dom = fl.build_rectangle((0.0, 0.0), (1.0, 1.0), 6, 6)
    a = rng.uniform(1.6, 2.0)
    b = rng.uniform(0.1, 0.8)
    p = fl.extend_symmetric_mean(fl.parse_field(f"{a} + {b}*x1", fl.POINT))
    s = float(rng.uniform(0.43, 0.48))
    c0, c1 = rng.uniform(0.5, 1.5), rng.uniform(-0.5, 0.5)
    g = fl.GridFunction.from_callable(
        dom, lambda x: c0 + c1 * np.sin(3.141592653589793 * x[:, 0])
    )
    prob = fl.EnergyProblem(dom, p, fl.constant_field(s, fl.PAIR), g, 6.0)
    u0 = fl.GridFunction.from_interior(dom, 0.5 * rng.standard_normal(dom.n_cells))
    return prob, u0
