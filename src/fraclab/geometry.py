"""Meshed domains, grid functions, and the all-pairs quadrature fabric.

Cells and boundary facets are integrated with the midpoint rule: one value
per centroid, weighted by the cell or facet measure.  Double integrals use
every ordered pair of distinct centroids with weight ``|cell_i| * |cell_j|``.

Pairs are enumerated as offset stencils over a grid of rows, cut into
pieces (``PairChunk``) of at most ``PAIR_BLOCK_TARGET`` pairs.  For each
row offset dy the pairs form a (rows, nx, nx) slab, split into runs of
grid rows or of table rows; ``PairQuadrature.chunks`` lists them.

* When an interior quadrature covers every cell of a uniform interval or
  rectangle mesh, a pair's distance and weight depend only on its index
  offset: a piece's distances are computed once per column offset, on the
  vector of its ix1 - ix0 + nx - 1 offsets (2 nx - 1 for whole rows), and
  ``dist`` is a read-only Toeplitz view of that vector; its weight is one
  scalar, and exponent fields are evaluated on broadcast coordinate
  slices.
* Any other point set (boundary facets, explicit subsets) is one grid row
  of its m points, so its pieces are the dy = 0 chunks (0, 0, 1, a, b)
  whose column runs [a, b) are ``row_spans(m)``: consecutive rows i of the
  (i, j) table, with distances and weights built per pair from the
  coordinates and measures.  ``row_spans`` is the one row partition of an
  all-pairs scan: the long rows of ``chunks`` and the sample-pair scan of
  ``exponents.py`` use it too.  ``block`` and ``reduce_blocks`` walk any
  quadrature this way, as a point set; the solver assembly takes
  ``row_blocks``, and ``block`` for a variable exponent.

An integrand that takes the same value on (x, y) and (y, x) needs only half
of the stencil: ``map_pairs(..., symmetric=True)`` walks the dy >= 0 chunks
and weights each dy > 0 chunk twice, for its mirror at -dy.  The dy = 0
chunks hold both orders of their pairs and stay whole at weight 1.  Which
integrands qualify is decided by the caller, which knows the exponents.

Reduction order is part of the contract.  The partition into pieces is
fixed by the mesh alone, never by the worker count, and piece results are
combined sequentially in partition order.  Reruns with different thread
counts therefore produce bit-identical sums.
"""

from __future__ import annotations

import math
from collections.abc import Iterator
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field, replace

import numpy as np

from .errors import DomainError, GridFunctionError, MeshError

# target number of pairs per reduction block; fixed so the partition of the
# pair set never depends on the thread count
PAIR_BLOCK_TARGET = 1 << 21

_DEFAULT_THREADS = 1


def set_default_threads(k: int) -> None:
    global _DEFAULT_THREADS
    _DEFAULT_THREADS = max(1, int(k))


def get_default_threads() -> int:
    return _DEFAULT_THREADS


def row_spans(m: int) -> list[tuple[int, int]]:
    """Row spans [a, b) of a scan over the m x m table of an m-point set,
    each of at most PAIR_BLOCK_TARGET entries (at least one row)."""
    rows = max(1, PAIR_BLOCK_TARGET // max(1, m))
    return [(i, min(i + rows, m)) for i in range(0, m, rows)]


def _readonly(a: np.ndarray) -> np.ndarray:
    a = np.ascontiguousarray(a, dtype=np.float64)
    a.setflags(write=False)
    return a


@dataclass(frozen=True)
class Domain:
    """Uniform mesh of an interval or an axis-aligned rectangle."""

    n: int
    cell_centroids: np.ndarray
    cell_measures: np.ndarray
    facet_centroids: np.ndarray
    facet_measures: np.ndarray
    facet_sides: tuple[str, ...]
    facet_cells: np.ndarray
    diameter: float
    recipe: dict = field(compare=False)

    @property
    def n_cells(self) -> int:
        return self.cell_centroids.shape[0]

    @property
    def n_facets(self) -> int:
        return self.facet_centroids.shape[0]

    @property
    def volume(self) -> float:
        return float(np.sum(self.cell_measures))

    @property
    def boundary_measure(self) -> float:
        return float(np.sum(self.facet_measures))


def build_interval(a: float, b: float, n_cells: int) -> Domain:
    """Mesh (a, b) with n_cells uniform cells.

    The boundary consists of the two endpoints carrying counting measure 1.
    This convention exists for cheap one-dimensional smoke tests; trace
    statements are only meaningful on two-dimensional domains.
    """
    a, b = float(a), float(b)
    if not (math.isfinite(a) and math.isfinite(b)) or not a < b:
        raise DomainError(f"degenerate interval ({a}, {b})")
    n_cells = int(n_cells)
    if n_cells < 2:
        raise DomainError("interval needs at least 2 cells for pair quadrature")
    h = (b - a) / n_cells
    centers = a + (np.arange(n_cells) + 0.5) * h
    dom = Domain(
        n=1,
        cell_centroids=_readonly(centers[:, None]),
        cell_measures=_readonly(np.full(n_cells, h)),
        facet_centroids=_readonly(np.array([[a], [b]])),
        facet_measures=_readonly(np.ones(2)),
        facet_sides=("left", "right"),
        facet_cells=np.array([0, n_cells - 1]),
        diameter=(b - a) - h,
        recipe={"type": "interval", "bounds": [a, b], "resolution": [n_cells]},
    )
    _check_measures(dom, exact_volume=b - a, exact_boundary=2.0)
    return dom


def build_rectangle(lo, hi, nx: int, ny: int) -> Domain:
    """Mesh the rectangle [lo1, hi1] x [lo2, hi2] with nx by ny uniform cells."""
    lo = np.asarray(lo, dtype=float)
    hi = np.asarray(hi, dtype=float)
    if lo.shape != (2,) or hi.shape != (2,):
        raise DomainError("rectangle corners must be 2-vectors")
    if not np.all(np.isfinite(lo)) or not np.all(np.isfinite(hi)) or not np.all(lo < hi):
        raise DomainError(f"degenerate rectangle {lo.tolist()} .. {hi.tolist()}")
    nx, ny = int(nx), int(ny)
    if nx < 2 or ny < 2:
        raise DomainError("rectangle needs at least 2 cells per axis for pair quadrature")
    w, h = hi - lo
    hx, hy = w / nx, h / ny
    cx = lo[0] + (np.arange(nx) + 0.5) * hx
    cy = lo[1] + (np.arange(ny) + 0.5) * hy
    gx, gy = np.meshgrid(cx, cy)  # cell index = ix + iy * nx
    cells = np.column_stack([gx.ravel(), gy.ravel()])

    fx, fy, fm, fs, fc = [], [], [], [], []
    ix = np.arange(nx)
    iy = np.arange(ny)
    # bottom, top, left, right in that fixed order
    fx.append(cx), fy.append(np.full(nx, lo[1])), fm.append(np.full(nx, hx))
    fs += ["bottom"] * nx
    fc.append(ix)
    fx.append(cx), fy.append(np.full(nx, hi[1])), fm.append(np.full(nx, hx))
    fs += ["top"] * nx
    fc.append(ix + (ny - 1) * nx)
    fx.append(np.full(ny, lo[0])), fy.append(cy), fm.append(np.full(ny, hy))
    fs += ["left"] * ny
    fc.append(iy * nx)
    fx.append(np.full(ny, hi[0])), fy.append(cy), fm.append(np.full(ny, hy))
    fs += ["right"] * ny
    fc.append(iy * nx + (nx - 1))

    facets = np.column_stack([np.concatenate(fx), np.concatenate(fy)])
    dom = Domain(
        n=2,
        cell_centroids=_readonly(cells),
        cell_measures=_readonly(np.full(nx * ny, hx * hy)),
        facet_centroids=_readonly(facets),
        facet_measures=_readonly(np.concatenate(fm)),
        facet_sides=tuple(fs),
        facet_cells=np.concatenate(fc),
        diameter=math.hypot(w - hx, h - hy),
        recipe={"type": "rectangle", "bounds": [lo.tolist(), hi.tolist()], "resolution": [nx, ny]},
    )
    _check_measures(dom, exact_volume=w * h, exact_boundary=2 * (w + h))
    return dom


def _check_measures(dom: Domain, exact_volume: float, exact_boundary: float) -> None:
    if abs(dom.volume - exact_volume) > 1e-12 * exact_volume:
        raise DomainError("cell measures fail to sum to the domain volume")
    if abs(dom.boundary_measure - exact_boundary) > 1e-12 * exact_boundary:
        raise DomainError("facet measures fail to sum to the boundary measure")


def build_from_recipe(recipe: dict) -> Domain:
    kind = recipe.get("type")
    if kind == "interval":
        (a, b), (n,) = recipe["bounds"], recipe["resolution"]
        return build_interval(a, b, n)
    if kind == "rectangle":
        (lo, hi), (nx, ny) = recipe["bounds"], recipe["resolution"]
        return build_rectangle(lo, hi, nx, ny)
    raise DomainError(f"unknown domain type {kind!r}")


def refine(dom: Domain, factor: int) -> Domain:
    """Rebuild the same geometry with factor times the resolution per axis."""
    recipe = dict(dom.recipe)
    recipe["resolution"] = [r * int(factor) for r in recipe["resolution"]]
    return build_from_recipe(recipe)


def _in_box(points: np.ndarray, lo, hi, tol: float) -> np.ndarray:
    lo = np.asarray(lo, dtype=float)
    hi = np.asarray(hi, dtype=float)
    return np.flatnonzero(
        np.all(points >= lo[None, :] - tol, axis=1) & np.all(points <= hi[None, :] + tol, axis=1)
    )


def cells_in_box(dom: Domain, lo, hi) -> np.ndarray:
    """Indices of cells whose centroids lie in the closed box."""
    return _in_box(dom.cell_centroids, lo, hi, 1e-12 * max(1.0, dom.diameter))


def facets_in_box(dom: Domain, lo, hi) -> np.ndarray:
    return _in_box(dom.facet_centroids, lo, hi, 1e-12 * max(1.0, dom.diameter))


@dataclass(frozen=True)
class GridFunction:
    """Midpoint samples of a function: one value per cell and per facet."""

    domain: Domain
    interior: np.ndarray
    boundary: np.ndarray

    def __post_init__(self):
        interior = _readonly(np.atleast_1d(np.asarray(self.interior, dtype=float)))
        boundary = _readonly(np.atleast_1d(np.asarray(self.boundary, dtype=float)))
        if interior.shape != (self.domain.n_cells,):
            raise GridFunctionError(
                f"need {self.domain.n_cells} interior values, got {interior.shape}"
            )
        if boundary.shape != (self.domain.n_facets,):
            raise GridFunctionError(
                f"need {self.domain.n_facets} boundary values, got {boundary.shape}"
            )
        if not np.all(np.isfinite(interior)) or not np.all(np.isfinite(boundary)):
            raise GridFunctionError("grid function values must be finite")
        object.__setattr__(self, "interior", interior)
        object.__setattr__(self, "boundary", boundary)

    @classmethod
    def from_callable(cls, dom: Domain, fn) -> "GridFunction":
        return cls(dom, np.asarray(fn(dom.cell_centroids)), np.asarray(fn(dom.facet_centroids)))

    @classmethod
    def from_interior(cls, dom: Domain, interior) -> "GridFunction":
        """Extend interior values to the boundary by the adjacent-cell trace."""
        interior = np.asarray(interior, dtype=float)
        return cls(dom, interior, interior[dom.facet_cells])

    def scaled(self, c: float) -> "GridFunction":
        return GridFunction(self.domain, c * self.interior, c * self.boundary)


@dataclass(frozen=True)
class PairChunk:
    """One piece of the pair set: pairs ((ix, iy), (jx, iy + dy)) for iy in
    [iy0, iy1), ix in [ix0, ix1) and every jx < nx, shaped
    (rows, ix1 - ix0, nx).  A point set that is not a full grid is one row
    of nx points, so its pieces are rows ix0 .. ix1 - 1 of its (i, j) table
    with one leading unit axis.

    ``x`` and ``y`` hold per-axis coordinates of the first and second
    points that only broadcast to the chunk shape.  ``dist`` carries a
    placeholder 1.0 on self-pairs so kernels never divide by zero.  On a
    full grid a pair's distance depends only on its column offset
    k = ix - jx: ``offset_dist`` holds it for the chunk's ix1 - ix0 + nx - 1
    offsets (2 nx - 1 for a whole table), ix0 - nx + 1 .. ix1 - 1 in order,
    ``dist`` is its read-only (1, ix1 - ix0, nx) Toeplitz view (see
    ``by_offset``) and ``weights`` is one scalar.  On a point set both are
    built per pair and ``offset_dist`` is None.  ``offdiag`` masks out the
    self-pairs and is None unless the chunk holds some (dy == 0).
    """

    dy: int
    iy0: int
    iy1: int
    ix0: int
    ix1: int
    nx: int
    x: tuple
    y: tuple
    weights: float | np.ndarray
    dist: np.ndarray
    offdiag: np.ndarray | None
    offset_dist: np.ndarray | None = None

    @property
    def shape(self) -> tuple[int, int, int]:
        return (self.iy1 - self.iy0, self.ix1 - self.ix0, self.nx)

    @property
    def n_pairs(self) -> int:
        rows, cols, nx = self.shape
        return rows * cols * (nx - 1 if self.offdiag is not None else nx)

    def by_offset(self, vec: np.ndarray) -> np.ndarray:
        """The read-only (1, ix1 - ix0, nx) view of a vector indexed like
        ``offset_dist``, one value per column offset: entry (0, i, j) is the
        value at offset ix0 + i - j, as ``dist`` is of ``offset_dist``."""
        return _toeplitz(vec, self.nx)

    def pair_values(self, v: np.ndarray):
        """(v at first points, v at second points), broadcasting to the chunk."""
        grid = v.reshape(-1, self.nx)
        return (
            grid[self.iy0 : self.iy1, self.ix0 : self.ix1, None],
            grid[self.iy0 + self.dy : self.iy1 + self.dy, None, :],
        )

    def total(self, term) -> float:
        """Sum of term (broadcast to the chunk) over the chunk's pairs,
        self-pairs excluded.  term is zeroed on the self-pairs and summed in
        its own shape, and the sum scaled by the extents it broadcasts along,
        so a term that is one table for every row is never copied out to
        the chunk's size."""
        term = np.asarray(term, dtype=float)
        if np.broadcast_shapes(term.shape, self.shape) != self.shape:
            raise ValueError(f"a term of shape {term.shape} does not broadcast to the chunk {self.shape}")
        if self.offdiag is not None:
            term = np.where(self.offdiag, term, 0.0)
        return float(np.sum(term)) * (math.prod(self.shape) // term.size)

    def flat(self, a) -> np.ndarray:
        """The entries of a (broadcast to the chunk) on its pairs, in pair order."""
        a = np.broadcast_to(a, self.shape)
        if self.offdiag is None:
            return a.reshape(-1)
        return a[np.broadcast_to(self.offdiag, self.shape)]


@dataclass(frozen=True)
class PairQuadrature:
    """All ordered pairs of distinct centroids from one scope of a domain.

    ``grid`` (cells per axis) and ``spacing`` are set when the points are
    every cell of a uniform mesh, in mesh order; they give ``chunks`` and
    ``chunk`` the rows of that mesh and its Toeplitz distances.  Without
    them the points are one row of n_points points.
    """

    points: np.ndarray
    measures: np.ndarray
    scope: str
    dim: int
    subset: np.ndarray | None = None
    domain_diameter: float = 1.0
    grid: tuple[int, ...] | None = None
    spacing: tuple[float, ...] | None = None

    @property
    def n_points(self) -> int:
        return self.points.shape[0]

    @property
    def n_pairs(self) -> int:
        m = self.n_points
        return m * (m - 1)

    def row_blocks(self) -> list[tuple[int, int]]:
        return row_spans(self.n_points)

    def block(self, row_start: int, row_stop: int) -> PairChunk:
        """Rows [row_start, row_stop) of the (i, j) table over the points:
        the chunk (0, 0, 1, row_start, row_stop) of the point-set view."""
        return _point_set(self).chunk(0, 0, 1, row_start, row_stop)

    def _row_shape(self) -> tuple[int, int]:
        """(points per grid row, grid rows); a point set is one row."""
        if self.grid is None:
            return self.n_points, 1
        return (*self.grid, 1)[:2]

    def chunks(self, half: bool = False) -> list[tuple[int, ...]]:
        """Offset-stencil partition of the pair set in reduction order, as
        (dy, iy0, iy1, ix0, ix1).

        Each row offset dy is cut into chunks of at most PAIR_BLOCK_TARGET
        pairs: whole grid rows while an nx x nx plane fits, else the
        row_spans(nx) runs of table rows within one grid row, so a long
        interval is split too.  A point set, one row, has only dy = 0.
        With half, only the offsets dy >= 0 are listed: chunk(..., half=True)
        gives the dy > 0 chunks weight 2, standing for their mirrors at -dy.
        """
        nx, ny = self._row_shape()
        per_chunk = max(1, PAIR_BLOCK_TARGET // nx)  # table rows per chunk
        out = []
        for dy in range(0 if half else 1 - ny, ny):
            lo, hi = max(0, -dy), min(ny, ny - dy)
            if per_chunk >= nx:
                step = per_chunk // nx
                spans = [(a, min(a + step, hi), 0, nx) for a in range(lo, hi, step)]
            else:
                spans = [(iy, iy + 1, a, b) for iy in range(lo, hi) for a, b in row_spans(nx)]
            out.extend((dy, *span) for span in spans)
        return out

    def chunk(self, dy: int, iy0: int, iy1: int, ix0: int, ix1: int, half: bool = False) -> PairChunk:
        nx, _ = self._row_shape()
        offdiag = (np.arange(ix0, ix1)[:, None] != np.arange(nx)[None, :])[None] if dy == 0 else None
        if self.grid is None:
            pts = self.points
            x = tuple(pts[None, ix0:ix1, a, None] for a in range(self.dim))
            y = tuple(pts[None, None, :, a] for a in range(self.dim))
            d2 = np.zeros((1, ix1 - ix0, nx))
            for xa, ya in zip(x, y):
                d2 += (xa - ya) ** 2
            dist = _placeholder_on_self_pairs(np.sqrt(d2, out=d2), offdiag, self.domain_diameter)
            w = self.measures[None, ix0:ix1, None] * self.measures[None, None, :]
            return PairChunk(dy, iy0, iy1, ix0, ix1, nx, x, y, w, dist, offdiag)
        cx = self.points[:nx, 0]
        x, y = (cx[None, ix0:ix1, None],), (cx[None, None, :],)
        if self.dim == 2:
            cy = self.points[::nx, 1]
            x += (cy[iy0:iy1, None, None],)
            y += (cy[iy0 + dy : iy1 + dy, None, None],)
        hx, hy = (*self.spacing, 0.0)[:2]
        # the column offsets k = ix - jx of the chunk, ix0 - nx + 1 .. ix1 - 1
        k = np.arange(ix0 - nx + 1, ix1)
        offset_dist = np.sqrt((hx * k) ** 2 + (hy * dy) ** 2)
        offset_dist = _placeholder_on_self_pairs(offset_dist, k != 0 if dy == 0 else None, self.domain_diameter)
        offset_dist.setflags(write=False)
        w = float(self.measures[0] * self.measures[0])
        if half and dy > 0:
            w *= 2.0
        return PairChunk(dy, iy0, iy1, ix0, ix1, nx, x, y, w, _toeplitz(offset_dist, nx), offdiag, offset_dist)

    def values(self, f: GridFunction) -> np.ndarray:
        vals = f.interior if self.scope == "interior" else f.boundary
        if self.subset is not None:
            vals = vals[self.subset]
        return vals


def _placeholder_on_self_pairs(dist: np.ndarray, other: np.ndarray | None, diameter: float) -> np.ndarray:
    """dist with 1.0 on its self-pairs, after checking the distances of the
    other pairs (where the mask other holds; None when all are other pairs)
    against the resolution floor."""
    nearest = dist.min() if other is None else dist.min(initial=np.inf, where=other)
    if nearest < 1e-15 * max(1.0, diameter):
        raise MeshError("coincident quadrature points: pair distance below resolution floor")
    return dist if other is None else np.where(other, dist, 1.0)


def _toeplitz(vec: np.ndarray, nx: int) -> np.ndarray:
    """The read-only (1, vec.size - nx + 1, nx) view t[0, i, j] =
    vec[i - j + nx - 1] of a contiguous vector indexed by column offset."""
    step = vec.itemsize
    view = np.ndarray((1, vec.size - nx + 1, nx), vec.dtype, vec, (nx - 1) * step, (0, step, -step))
    view.flags.writeable = False
    return view


def pair_quadrature(dom: Domain, scope: str, subset: np.ndarray | None = None) -> PairQuadrature:
    """Ordered-pair quadrature over cells (interior) or facets (boundary)."""
    if scope == "interior":
        pts, meas = dom.cell_centroids, dom.cell_measures
    elif scope == "boundary":
        pts, meas = dom.facet_centroids, dom.facet_measures
    else:
        raise DomainError(f"unknown scope {scope!r}")
    if subset is not None:
        subset = np.asarray(subset, dtype=int)
        pts, meas = pts[subset], meas[subset]
    if pts.shape[0] < 2:
        raise DomainError(f"{scope} pair quadrature needs at least 2 points")
    grid = spacing = None
    if scope == "interior" and subset is None and dom.recipe.get("type") in ("interval", "rectangle"):
        grid = tuple(int(r) for r in dom.recipe["resolution"])
        lo, hi = (np.atleast_1d(np.asarray(b, dtype=float)) for b in dom.recipe["bounds"])
        spacing = tuple(float(v) for v in (hi - lo) / np.asarray(grid))
        if math.prod(grid) != pts.shape[0]:
            grid = spacing = None
    return PairQuadrature(
        points=_readonly(pts),
        measures=_readonly(meas),
        scope=scope,
        dim=dom.n,
        subset=subset,
        domain_diameter=dom.diameter,
        grid=grid,
        spacing=spacing,
    )


def _map_ordered(fn, items: list, threads: int | None) -> Iterator:
    """fn over items, its results yielded in the order of items.  In one
    thread each result is made when the consumer asks for it, so a consumer
    that folds them as they come holds one at a time.  A consumer that stops
    early closes the iterator: items not yet started are then cancelled, and
    the pool waits for the running ones."""
    threads = _DEFAULT_THREADS if threads is None else max(1, int(threads))
    if threads == 1 or len(items) == 1:
        yield from map(fn, items)
        return
    with ThreadPoolExecutor(max_workers=threads) as ex:
        yield from ex.map(fn, items)


def map_pairs(
    pq: PairQuadrature,
    fn,
    threads: int | None = None,
    symmetric: bool = False,
) -> Iterator:
    """Apply fn to every piece of the pair set, its results yielded in
    partition order as the walk reaches them (an iterator, read once).

    The pieces are the chunks of ``PairQuadrature.chunks``: offset-stencil
    chunks when pq covers a full uniform grid, row blocks of its one row
    otherwise.  fn sees ``PairChunk`` (``x``, ``y``, ``weights``, ``dist``,
    ``offdiag``, ``shape``, ``pair_values``, ``total``, ``flat``,
    ``n_pairs``).

    symmetric declares that fn's integrand takes the same value on (x, y)
    and (y, x) and enters its result through ``weights``.  A full grid then
    walks only the dy >= 0 chunks, the dy > 0 ones at twice the weight, and
    skips their mirrors: half the work for the same sum.  The dy = 0 chunks
    stay whole, so an interval or a point set walks exactly as without it.
    """
    return _map_ordered(
        lambda spec: fn(pq.chunk(*spec, half=symmetric)), pq.chunks(symmetric), threads
    )


def reduce_pairs(
    pq: PairQuadrature,
    fn,
    threads: int | None = None,
    symmetric: bool = False,
) -> float:
    """Sum fn over every piece of the pair set, in partition order."""
    total = 0.0
    for v in map_pairs(pq, fn, threads, symmetric):
        total += v
    return float(total)


def _point_set(pq: PairQuadrature) -> PairQuadrature:
    """pq without its grid: its points as one row, walked in row blocks."""
    return pq if pq.grid is None else replace(pq, grid=None, spacing=None)


def reduce_blocks(pq: PairQuadrature, block_fn, threads: int | None = None) -> float:
    """Sum block_fn over the row blocks of pq's point-set view, in order."""
    return reduce_pairs(_point_set(pq), block_fn, threads)
