"""Meshes, grid functions, and the ordered-pair quadrature."""

from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

import fraclab as fl
from fraclab.errors import DomainError, GridFunctionError, MeshError
from fraclab.geometry import map_blocks, reduce_blocks

import oracles


def test_interval_layout():
    dom = fl.build_interval(0.0, 1.0, 8)
    assert dom.n == 1
    assert dom.n_cells == 8
    assert dom.volume == pytest.approx(1.0, abs=0)
    # the boundary of an interval is two points, each carrying unit measure
    assert dom.n_facets == 2
    assert np.array_equal(dom.facet_measures, [1.0, 1.0])
    assert dom.facet_sides == ("left", "right")
    assert np.array_equal(dom.facet_cells, [0, 7])
    assert np.allclose(dom.cell_centroids[:, 0], (np.arange(8) + 0.5) / 8.0)


def test_rectangle_layout():
    dom = fl.build_rectangle((0.0, 0.0), (1.0, 2.0), 4, 8)
    assert dom.n == 2
    assert dom.n_cells == 32
    assert dom.n_facets == 2 * (4 + 8)
    assert dom.volume == pytest.approx(2.0, abs=1e-15)
    assert dom.boundary_measure == pytest.approx(6.0, abs=1e-15)
    assert set(dom.facet_sides) == {"left", "right", "bottom", "top"}
    # every facet centroid sits half a cell away from its adjacent cell centroid
    gap = np.linalg.norm(dom.facet_centroids - dom.cell_centroids[dom.facet_cells], axis=1)
    assert np.all((gap == 0.125) | (gap == 0.125))
    assert dom.diameter == pytest.approx(np.sqrt(0.75**2 + 1.75**2))


@pytest.mark.parametrize(
    "build",
    [
        lambda: fl.build_interval(1.0, 1.0, 4),
        lambda: fl.build_interval(0.0, 1.0, 0),
        lambda: fl.build_rectangle((0, 0), (1, 1), 0, 3),
        lambda: fl.build_rectangle((0, 0), (0, 1), 4, 4),
    ],
)
def test_degenerate_meshes_rejected(build):
    with pytest.raises(DomainError):
        build()


@pytest.mark.parametrize(
    "build, message",
    [
        (lambda: fl.build_rectangle((0.0, 0.0, 0.0), (1.0, 1.0, 1.0), 4, 4), "corners must be 2-vectors"),
        (lambda: fl.build_rectangle((0.0,), (1.0,), 4, 4), "corners must be 2-vectors"),
        # a subnormal length rounds its cells: 1.5e-323 / 2 is 1e-323
        (lambda: fl.build_interval(0.0, 1.5e-323, 2), "cell measures fail to sum to the domain volume"),
        # the cells' measures underflow to 0 as the exact area does, while
        # the facets sum to 8e-323 against a perimeter of 6e-323
        (lambda: fl.build_rectangle((0.0, 0.0), (1.5e-323, 1.5e-323), 2, 2), "facet measures fail to sum"),
    ],
)
def test_malformed_meshes_rejected(build, message):
    with pytest.raises(DomainError, match=message):
        build()


def test_pair_quadrature_arguments_are_checked(square8):
    with pytest.raises(DomainError, match="unknown scope 'edges'"):
        fl.pair_quadrature(square8, "edges")
    for scope in ("interior", "boundary"):
        with pytest.raises(DomainError, match=f"{scope} pair quadrature needs at least 2 points"):
            fl.pair_quadrature(square8, scope, subset=np.array([3]))


def test_recipe_that_misses_cells_walks_as_a_point_set(square8):
    # a domain whose recipe does not count its cells takes no stencil
    odd = replace(square8, recipe={**square8.recipe, "resolution": [8, 7]})
    pq = fl.pair_quadrature(odd, "interior")
    assert pq.grid is None and pq.spacing is None
    assert pq.chunks() == [(0, 0, 1, a, b) for a, b in fl.geometry.row_spans(64)]


def test_recipe_round_trip():
    dom = fl.build_rectangle((0.0, 0.0), (1.0, 2.0), 4, 8)
    again = fl.build_from_recipe(dom.recipe)
    assert np.array_equal(again.cell_centroids, dom.cell_centroids)
    assert np.array_equal(again.facet_measures, dom.facet_measures)
    assert again.recipe == dom.recipe


def test_refine_preserves_measure():
    dom = fl.build_rectangle((0.0, 0.0), (1.0, 1.0), 4, 4)
    fine = fl.refine(dom, 3)
    assert fine.n_cells == 9 * dom.n_cells
    assert fine.volume == pytest.approx(dom.volume, rel=1e-15)
    assert fine.boundary_measure == pytest.approx(dom.boundary_measure, rel=1e-15)


def test_box_selection():
    dom = fl.build_rectangle((0.0, 0.0), (1.0, 1.0), 8, 8)
    cells = fl.cells_in_box(dom, (0.0, 0.0), (0.5, 0.5))
    assert cells.size == 16
    assert np.all(dom.cell_centroids[cells] <= 0.5)
    facets = fl.facets_in_box(dom, (0.0, 0.0), (0.5, 0.5))
    assert facets.size == 8
    assert fl.cells_in_box(dom, (2.0, 2.0), (3.0, 3.0)).size == 0


def test_grid_function_validation():
    dom = fl.build_interval(0.0, 1.0, 8)
    with pytest.raises(GridFunctionError, match="interior values"):
        fl.GridFunction(dom, np.zeros(5), np.zeros(2))
    with pytest.raises(GridFunctionError, match="boundary values"):
        fl.GridFunction(dom, np.zeros(8), np.zeros(3))
    with pytest.raises(GridFunctionError, match="finite"):
        fl.GridFunction(dom, np.full(8, np.nan), np.zeros(2))


def test_grid_function_is_immutable():
    dom = fl.build_interval(0.0, 1.0, 8)
    f = fl.GridFunction.from_callable(dom, lambda x: x[:, 0])
    with pytest.raises(ValueError):
        f.interior[0] = 5.0


def test_from_interior_extends_by_adjacent_trace():
    dom = fl.build_rectangle((0.0, 0.0), (1.0, 1.0), 4, 4)
    vals = np.arange(dom.n_cells, dtype=float)
    f = fl.GridFunction.from_interior(dom, vals)
    assert np.array_equal(f.boundary, vals[dom.facet_cells])


def test_scaled():
    dom = fl.build_interval(0.0, 1.0, 8)
    f = fl.GridFunction.from_callable(dom, lambda x: x[:, 0] + 1.0)
    g = f.scaled(-2.0)
    assert np.array_equal(g.interior, -2.0 * f.interior)
    assert np.array_equal(g.boundary, -2.0 * f.boundary)


def test_pair_quadrature_counts_ordered_distinct_pairs(monkeypatch):
    monkeypatch.setattr(fl.geometry, "PAIR_BLOCK_TARGET", 100)
    dom = fl.build_rectangle((0.0, 0.0), (1.0, 2.0), 4, 8)
    pq = fl.pair_quadrature(dom, "interior")
    n = dom.n_cells
    assert pq.n_points == n
    assert pq.n_pairs == n * (n - 1)
    w, dist, _, _ = oracles.pair_tables(dom, lambda x, y: 2.0, lambda x, y: 0.5)
    blocks = map_blocks(pq, lambda blk: blk)
    assert len(blocks) > 1
    counted = 0
    for blk in blocks:
        # a row block is rows ix0 .. ix1 - 1 of the table, behind a unit axis
        rows = slice(blk.ix0, blk.ix1)
        offdiag = blk.offdiag[0]
        # the self-pairs i == j are the only masked entries
        assert np.array_equal(~offdiag, np.eye(n, dtype=bool)[rows])
        counted += int(np.count_nonzero(offdiag))
        # weights are products of the two cell measures
        assert np.allclose(blk.flat(blk.weights), w[rows][offdiag])
        assert np.allclose(blk.flat(blk.dist), dist[rows][offdiag])
    assert counted == pq.n_pairs


def test_pair_quadrature_subset_and_boundary_scope():
    dom = fl.build_rectangle((0.0, 0.0), (1.0, 1.0), 4, 4)
    sub = fl.pair_quadrature(dom, "interior", subset=np.array([0, 3, 7]))
    assert sub.n_points == 3
    assert sub.n_pairs == 6
    bq = fl.pair_quadrature(dom, "boundary")
    assert bq.n_points == dom.n_facets
    assert bq.scope == "boundary"


@pytest.mark.parametrize("subset", [[0, 3, 3], [5, 2, 7, 5]])
def test_coincident_points_are_rejected(subset):
    dom = fl.build_rectangle((0.0, 0.0), (1.0, 1.0), 4, 4)
    pq = fl.pair_quadrature(dom, "interior", subset=np.array(subset))
    # a repeated cell pairs two distinct indices at distance 0
    with pytest.raises(MeshError, match="coincident quadrature points"):
        fl.geometry.reduce_pairs(pq, lambda piece: 0.0)
    # the self-pairs alone are not a coincidence
    fl.geometry.reduce_pairs(fl.pair_quadrature(dom, "interior", subset=np.array(sorted(set(subset)))), lambda piece: 0.0)


@pytest.mark.parametrize(
    "build, clear",
    [
        # cells 7.5e-16 apart, below the floor of 1e-15 at diameters under 1
        (lambda: fl.build_interval(0.0, 1.5e-15, 2), None),
        # rows 5e-16 apart: the offsets dy = +-1, k = 0 coincide, while the
        # dy = 0 chunk's nearest pairs are 0.25 apart
        (lambda: fl.build_rectangle((0.0, 0.0), (1.0, 1e-15), 4, 2), (0, 0, 2, 0, 4)),
        # columns 5e-16 apart: dy = 0, k = +-1 coincide, dy = 1 does not
        (lambda: fl.build_rectangle((0.0, 0.0), (1e-15, 1.0), 2, 4), (1, 0, 3, 0, 2)),
    ],
)
def test_coincident_grid_offsets_are_rejected(build, clear):
    pq = fl.pair_quadrature(build(), "interior")
    assert pq.grid is not None
    with pytest.raises(MeshError, match="coincident quadrature points"):
        fl.geometry.reduce_pairs(pq, lambda piece: 0.0)
    if clear is not None:
        # the check is per chunk, and self-pairs at distance 0 are no coincidence
        assert pq.chunk(*clear).dist.min() >= 0.25


def test_block_iteration_covers_every_row_once():
    dom = fl.build_rectangle((0.0, 0.0), (1.0, 1.0), 5, 5)
    pq = fl.pair_quadrature(dom, "interior")
    rows = []
    for start, stop in pq.row_blocks():
        rows.extend(range(start, stop))
    assert rows == list(range(pq.n_points))
    blk = pq.block(0, 2)
    assert blk.weights.shape == (1, 2, pq.n_points)
    assert blk.offdiag.dtype == bool
    # the diagonal entries of the leading block are the only masked ones
    assert np.count_nonzero(~blk.offdiag) == 2


def test_reduce_blocks_is_thread_invariant():
    dom = fl.build_rectangle((0.0, 0.0), (1.0, 1.0), 9, 9)
    pq = fl.pair_quadrature(dom, "interior")

    def block_sum(block):
        term = block.weights * np.exp(-block.dist)
        return float(np.sum(np.where(block.offdiag, term, 0.0)))

    one = reduce_blocks(pq, block_sum, threads=1)
    four = reduce_blocks(pq, block_sum, threads=4)
    # bit-identical, not merely close: block order is fixed by the partition
    assert one == four
    parts = map_blocks(pq, block_sum, threads=4)
    assert sum(parts) == pytest.approx(one, rel=1e-15)


@pytest.mark.parametrize("dy", [0, 2])
def test_chunk_total_sums_a_broadcast_term_in_its_own_shape(dy):
    dom = fl.build_rectangle((0.0, 0.0), (1.0, 1.0), 6, 5)
    pq = fl.pair_quadrature(dom, "interior")
    piece = pq.chunk(dy, 0, 5 - dy, 0, 6)
    assert piece.shape == (5 - dy, 6, 6) and (piece.offdiag is not None) == (dy == 0)
    mask = np.ones(piece.shape, dtype=bool) if piece.offdiag is None else np.broadcast_to(piece.offdiag, piece.shape)
    kernel = piece.weights / piece.dist**2.5
    # one table for every row, the whole chunk, and one value per row
    for term in (kernel, kernel + np.arange(5 - dy)[:, None, None], np.arange(5.0 - dy)[:, None, None]):
        full = np.broadcast_to(term, piece.shape)
        assert piece.total(term) == pytest.approx(float(np.sum(full[mask])), rel=1e-15)
    # a term of more rows than the chunk, or of more axes
    for shape in ((6, 6, 6), (2, 5 - dy, 6, 6)):
        with pytest.raises(ValueError):
            piece.total(np.ones(shape))


def test_default_thread_control():
    old = fl.get_default_threads()
    try:
        fl.set_default_threads(3)
        assert fl.get_default_threads() == 3
        # out-of-range requests clamp to the serial floor instead of raising;
        # the command line validates user input before it gets here
        fl.set_default_threads(0)
        assert fl.get_default_threads() == 1
    finally:
        fl.set_default_threads(old)


@given(n=st.integers(2, 30))
def test_interval_measures_sum(n):
    dom = fl.build_interval(-1.0, 2.5, n)
    assert dom.volume == pytest.approx(3.5, rel=1e-14)
    assert dom.n_cells == n
    assert dom.boundary_measure == 2.0


@given(nx=st.integers(2, 8), ny=st.integers(2, 8))
def test_rectangle_counts(nx, ny):
    dom = fl.build_rectangle((0.0, 0.0), (1.0, 1.0), nx, ny)
    assert dom.n_cells == nx * ny
    assert dom.n_facets == 2 * (nx + ny)
    assert dom.volume == pytest.approx(1.0, rel=1e-14)
