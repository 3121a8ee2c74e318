"""Every way of enumerating pairs, pinned against the dense oracles.

A full-grid interior quadrature takes the offset-stencil chunks; the same
cells passed as an explicit subset take the row blocks.  Shrinking
PAIR_BLOCK_TARGET splits both into many pieces (and the solver's row-block
assembly with them).  A variable-p seminorm folds its log-terms or streams
them, and the exponent alone picks which: the cases' p reads both
coordinates and streams, their p_x1, a pair field of the first point's x1
alone, folds on every quadrature.  The meshes favour no path: the order s
is a point field (so the kernel is not symmetric), nx != ny, the bounds are
not the unit box and hx != hy, one mesh is an interval, and one quadrature
is a box subset.
The symmetric half walk of the stencil, taken only by swap-invariant
integrands, has its own section with constant and mean-extended orders, and
so do the grid rows of one value, which the constant-p pass forms as one
row or column.
"""

import math
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import fraclab as fl
from fraclab import exponents, geometry, modular, solver

import oracles


def _cases():
    rect = {
        "dom": lambda: fl.build_rectangle((-0.5, 1.0), (1.5, 2.25), 7, 5),
        "f": "sin(2*x1) + x1*x2^2/3",
        "p": "2 + x1/4 + x2^2/10",
        "p_x1": "2 + x1/4",
        "s": "0.3 + 0.1*x2 - 0.05*x1",
        "p_fn": lambda x, y: (4.0 + (x[..., 0] + y[..., 0]) / 4.0 + (x[..., 1] ** 2 + y[..., 1] ** 2) / 10.0) / 2.0,
        "s_fn": lambda x, y: 0.3 + 0.1 * x[..., 1] - 0.05 * x[..., 0],
    }
    interval = {
        "dom": lambda: fl.build_interval(-1.0, 2.0, 23),
        "f": "sin(2*x) + x^2/3",
        "p": "2 + x/4",
        "p_x1": "2 + x/4",
        "s": "0.35 + 0.1*x",
        "p_fn": lambda x, y: (4.0 + (x[..., 0] + y[..., 0]) / 4.0) / 2.0,
        "s_fn": lambda x, y: 0.35 + 0.1 * x[..., 0],
    }
    return {"rect-7x5": rect, "interval-23": interval}


CASES = _cases()
P_CONST = 2.5
S_CONST = 0.4
S_FIELD = fl.constant_field(S_CONST, fl.PAIR)

# pieces of at most this many pairs split every mesh here into many pieces,
# including runs of table rows within one grid row
SMALL_TARGET = 20

PATHS = ["grid", "explicit-subset", "grid-small-pieces", "explicit-subset-small-pieces"]


def _problem(name):
    case = CASES[name]
    dom = case["dom"]()
    f = fl.function_on_domain(fl.parse_field(case["f"], fl.POINT), dom)
    p = fl.extend_symmetric_mean(fl.parse_field(case["p"], fl.POINT))
    s = fl.parse_field(case["s"], fl.POINT)
    return case, dom, f, p, s


def _quadrature(dom, path, monkeypatch):
    if path.endswith("small-pieces"):
        monkeypatch.setattr(geometry, "PAIR_BLOCK_TARGET", SMALL_TARGET)
    subset = np.arange(dom.n_cells) if path.startswith("explicit-subset") else None
    return fl.pair_quadrature(dom, "interior", subset=subset)


def _const_fn(v):
    return lambda x, y: np.full(np.broadcast_shapes(x.shape[:-1], y.shape[:-1]), v)


@pytest.mark.parametrize("path", PATHS)
@pytest.mark.parametrize("mesh", sorted(CASES))
def test_modular_matches_dense_oracle(mesh, path, monkeypatch):
    case, dom, f, p, s = _problem(mesh)
    pq = _quadrature(dom, path, monkeypatch)
    p_const = fl.constant_field(P_CONST, fl.PAIR)
    for lam in (0.7, 1.0, 3.0):
        got = fl.modular_gagliardo(f, p, s, pq, lam)
        want = oracles.dense_modular(dom, f.interior, case["p_fn"], case["s_fn"])(lam)
        assert got == pytest.approx(want, rel=1e-12)
        got = fl.modular_gagliardo(f, p_const, s, pq, lam)
        want = oracles.dense_modular(dom, f.interior, _const_fn(P_CONST), case["s_fn"])(lam)
        assert got == pytest.approx(want, rel=1e-12)


def _first_x1(x, y):
    return 2.0 + x[..., 0] / 4.0


@pytest.mark.parametrize("exponent", ["variable", "variable-folded", "constant"])
@pytest.mark.parametrize("path", PATHS)
@pytest.mark.parametrize("mesh", sorted(CASES))
def test_seminorm_matches_dense_oracle(mesh, path, exponent, monkeypatch):
    case, dom, f, p, s = _problem(mesh)
    pq = _quadrature(dom, path, monkeypatch)
    p_fn = case["p_fn"]
    if exponent == "constant":
        p, p_fn = fl.constant_field(P_CONST, fl.PAIR), _const_fn(P_CONST)
    if exponent == "variable-folded":
        p, p_fn = fl.parse_field(case["p_x1"], fl.PAIR), _first_x1
    # the case's p reads both coordinates and streams
    assert modular._folds(p, pq) == (exponent != "variable")
    res = fl.gagliardo_seminorm(f, p, s, pq)
    assert res.status == fl.CONVERGED
    assert abs(res.modular_at_lambda - 1.0) <= 1e-10
    want = oracles.dense_gagliardo(dom, f.interior, p_fn, case["s_fn"])
    assert res.lambda_star == pytest.approx(want, rel=1e-10)


@pytest.mark.parametrize("small_pieces", [False, True])
def test_box_subset_matches_dense_oracle(small_pieces, monkeypatch):
    case, dom, f, p, s = _problem("rect-7x5")
    if small_pieces:
        monkeypatch.setattr(geometry, "PAIR_BLOCK_TARGET", SMALL_TARGET)
    cells = fl.cells_in_box(dom, (0.0, 1.2), (1.2, 2.0))
    assert 4 <= cells.size < dom.n_cells
    pq = fl.pair_quadrature(dom, "interior", subset=cells)
    vals = f.interior[cells]
    want = oracles.dense_modular(dom, vals, case["p_fn"], case["s_fn"], subset=cells)(0.8)
    assert fl.modular_gagliardo(f, p, s, pq, 0.8) == pytest.approx(want, rel=1e-12)
    res = fl.gagliardo_seminorm(f, p, s, pq)
    want = oracles.dense_gagliardo(dom, vals, case["p_fn"], case["s_fn"], subset=cells)
    assert res.lambda_star == pytest.approx(want, rel=1e-10)


@pytest.mark.parametrize("exponent", ["variable", "variable-folded"])
@pytest.mark.parametrize("target", [None, SMALL_TARGET])
def test_boundary_seminorm_matches_dense_facet_oracle(target, exponent, monkeypatch):
    # the 7 x 5 rectangle's bottom and top facets have width hx, its left
    # and right ones height hy != hx
    case, dom, f, q, t = _problem("rect-7x5")
    q_fn = case["p_fn"]
    if exponent == "variable-folded":
        q, q_fn = fl.parse_field(case["p_x1"], fl.PAIR), _first_x1
    assert len(set(dom.facet_measures)) == 2
    if target is not None:
        monkeypatch.setattr(geometry, "PAIR_BLOCK_TARGET", target)
    pq = fl.pair_quadrature(dom, "boundary")
    assert pq.grid is None and (len(pq.chunks()) > 1) == (target is not None)
    assert modular._folds(q, pq) == (exponent == "variable-folded")
    want = oracles.dense_modular(dom, f.boundary, q_fn, case["s_fn"], scope="boundary")(0.8)
    assert fl.modular_gagliardo(f, q, t, pq, 0.8) == pytest.approx(want, rel=1e-12)
    res = fl.boundary_gagliardo_seminorm(f, q, t, pq)
    assert res.status == fl.CONVERGED
    assert abs(res.modular_at_lambda - 1.0) <= 1e-10
    want = oracles.dense_gagliardo(dom, f.boundary, q_fn, case["s_fn"], scope="boundary")
    assert res.lambda_star == pytest.approx(want, rel=1e-10)


@pytest.mark.parametrize("target", [None, SMALL_TARGET])
@pytest.mark.parametrize("scope", ["boundary", "explicit-subset"])
def test_point_set_chunks_are_the_row_blocks(scope, target, monkeypatch):
    _, dom, _, _, _ = _problem("rect-7x5")
    if target is not None:
        monkeypatch.setattr(geometry, "PAIR_BLOCK_TARGET", target)
    if scope == "boundary":
        pq = fl.pair_quadrature(dom, "boundary")
    else:
        pq = fl.pair_quadrature(dom, "interior", subset=np.arange(dom.n_cells))
    m = pq.n_points
    want = [(0, 0, 1, a, b) for a, b in geometry.row_spans(m)]
    # one grid row of m points: only dy = 0, and half walks the same chunks
    assert pq.chunks() == pq.chunks(half=True) == want
    assert (len(want) > 1) == (target is not None)
    for spec, (a, b) in zip(want, pq.row_blocks()):
        c = pq.chunk(*spec)
        assert c.shape == (1, b - a, m) and c.n_pairs == (b - a) * (m - 1)
        assert np.array_equal(c.weights[0], np.outer(pq.measures[a:b], pq.measures))
        # distances per pair, not per column offset
        assert c.offset_dist is None


@pytest.mark.parametrize("mesh", sorted(CASES))
def test_embedding_kernel_matches_dense_oracle(mesh):
    case, dom, f, p, s = _problem(mesh)
    t, r = 0.2, 1.5
    rep = fl.embedding_check(f, p, s, t, r)
    w, dist, pg, sg = oracles.pair_tables(dom, case["p_fn"], case["s_fn"])
    want = float(np.sum(w * dist ** ((sg - t) * r * pg / (pg - r) - dom.n)))
    assert rep.kernel_bound == pytest.approx(want, rel=1e-12)


# a pair exponent below 2, where the gradient's power p - 1 is below 1
P_BELOW_2 = {"rect-7x5": "1.75 + x1/10", "interval-23": "1.75 + x/10"}


def _p_below_2_fn(x, y):
    return (3.5 + (x[..., 0] + y[..., 0]) / 10.0) / 2.0


def _load(dom):
    return fl.GridFunction.from_callable(dom, lambda x: 1.0 + 0.3 * np.cos(2.0 * x[:, 0]))


@pytest.mark.parametrize("exponent", ["case-p", "p-below-2"])
@pytest.mark.parametrize("target", [None, SMALL_TARGET])
@pytest.mark.parametrize("mesh", sorted(CASES))
def test_assembly_matches_dense_energy_oracle(mesh, target, exponent, monkeypatch):
    case, dom, _, p, s = _problem(mesh)
    p_fn = case["p_fn"]
    if exponent == "p-below-2":
        p_fn = _p_below_2_fn
        p = fl.extend_symmetric_mean(fl.parse_field(P_BELOW_2[mesh], fl.POINT))
    if target is not None:
        monkeypatch.setattr(geometry, "PAIR_BLOCK_TARGET", target)
    g = _load(dom)
    prob = fl.EnergyProblem(dom, p, s, g, 6.0)
    assert (len(solver._assembly(prob).blocks) > 1) == (target is not None)
    # values rounded to 0.1 tie many pairs, so the gradient meets
    # |u_i - u_j|^(p - 1) at u_i == u_j
    vals = np.round(np.random.default_rng(5).standard_normal(dom.n_cells), 1)
    assert np.unique(vals).size < vals.size
    u = fl.GridFunction.from_interior(dom, vals)
    want = oracles.dense_energy(dom, vals, g.boundary, p_fn, case["s_fn"])
    assert fl.energy(u, prob) == pytest.approx(want, rel=1e-12)
    want = oracles.dense_gradient(dom, vals, g.boundary, p_fn, case["s_fn"])
    got = fl.gradient(u, prob).interior
    assert np.allclose(got, want, rtol=1e-12, atol=1e-12 * np.max(np.abs(want)))


def _blocked_problem(mesh, monkeypatch):
    """The mesh's problem, its assembly split into many row blocks."""
    _, dom, _, p, s = _problem(mesh)
    monkeypatch.setattr(geometry, "PAIR_BLOCK_TARGET", SMALL_TARGET)
    g = _load(dom)
    rng = np.random.default_rng(7)
    u = fl.GridFunction.from_interior(dom, rng.standard_normal(dom.n_cells))
    return fl.EnergyProblem(dom, p, s, g, 6.0), u


@pytest.mark.parametrize("mesh", sorted(CASES))
def test_block_assembly_builds_each_block_once(mesh, monkeypatch):
    prob, u = _blocked_problem(mesh, monkeypatch)
    calls = []
    original = geometry.PairQuadrature.block

    def counting(self, a, b):
        calls.append((a, b))
        return original(self, a, b)

    monkeypatch.setattr(geometry.PairQuadrature, "block", counting)
    asm = solver._assembly(prob)
    assert calls == asm.pq.row_blocks() and len(calls) > 1
    calls.clear()
    for _ in range(3):
        fl.energy(u, prob)
        fl.gradient(u, prob)
    assert calls == []


def test_block_assembly_is_thread_invariant(monkeypatch):
    prob, u = _blocked_problem("rect-7x5", monkeypatch)
    assert prob.p.constant_value() is None and prob.s.arity == fl.POINT
    assert len(solver._assembly(prob).blocks) > 1
    assert fl.energy(u, prob, threads=1) == fl.energy(u, prob, threads=2)
    g1, g2 = fl.gradient(u, prob, threads=1), fl.gradient(u, prob, threads=2)
    assert np.array_equal(g1.interior, g2.interior)


# -- the offset-stencil enumeration --------------------------------------------


@pytest.mark.parametrize("target", [None, SMALL_TARGET])
@pytest.mark.parametrize("mesh", sorted(CASES))
def test_stencil_chunks_cover_each_pair_once(mesh, target, monkeypatch):
    _, dom, _, _, _ = _problem(mesh)
    if target is not None:
        monkeypatch.setattr(geometry, "PAIR_BLOCK_TARGET", target)
    pq = fl.pair_quadrature(dom, "interior")
    assert pq.grid == tuple(dom.recipe["resolution"])
    idx = np.arange(dom.n_cells, dtype=float)
    ii, jj, dd, n_pairs = [], [], [], 0
    for spec in pq.chunks():
        c = pq.chunk(*spec)
        # one table row (nx pairs) is the smallest piece, as one row is for row blocks
        assert np.prod(c.shape) <= max(geometry.PAIR_BLOCK_TARGET, c.nx)
        n_pairs += c.n_pairs
        vi, vj = c.pair_values(idx)
        ii.append(c.flat(vi))
        jj.append(c.flat(vj))
        dd.append(c.flat(c.dist))
        assert c.weights == dom.cell_measures[0] ** 2
    assert n_pairs == pq.n_pairs
    if target is not None:
        assert max(c[4] - c[3] for c in pq.chunks()) < dom.recipe["resolution"][0]
    ii, jj, dd = (np.concatenate(a) for a in (ii, jj, dd))
    ii, jj = ii.astype(int), jj.astype(int)
    order = np.lexsort((jj, ii))
    want_i, want_j = np.nonzero(~np.eye(dom.n_cells, dtype=bool))
    assert np.array_equal(ii[order], want_i) and np.array_equal(jj[order], want_j)
    exact = np.linalg.norm(dom.cell_centroids[ii] - dom.cell_centroids[jj], axis=1)
    assert np.allclose(dd, exact, rtol=1e-14, atol=0.0)


def test_stencil_needs_every_cell_of_a_grid(square8):
    assert fl.pair_quadrature(square8, "interior").grid == (8, 8)
    assert fl.pair_quadrature(square8, "interior", subset=np.arange(64)).grid is None
    assert fl.pair_quadrature(square8, "boundary").grid is None


# -- exponent-field scans -----------------------------------------------------


def _scan_fields():
    """(p, s) for the all-pairs scans of exponents.py.  The asymmetric s
    pushes s p past n = 2 on some pairs, where the trace quotient is +inf."""
    p_pt = fl.parse_field("2 + x1/4 + x2^2/10", fl.POINT)
    s_pt = fl.parse_field("0.3 + 0.1*x2 - 0.05*x1", fl.POINT)
    return {
        "constant": (fl.constant_field(2.5, fl.PAIR), fl.constant_field(0.4, fl.PAIR)),
        "point": (p_pt, s_pt),
        "pair": (fl.extend_symmetric_mean(p_pt), fl.extend_symmetric_mean(s_pt)),
        "asymmetric-pair": (
            fl.parse_field("2 + x1/4 + y2/5 - x2*y1/10", fl.PAIR),
            fl.parse_field("0.5 + 0.3*y2 - 0.1*x1", fl.PAIR),
        ),
        "point-s-pair-p": (fl.extend_symmetric_mean(p_pt), s_pt),
    }


SCAN_FIELDS = _scan_fields()


@pytest.mark.parametrize("target", [None, 1, 300])
@pytest.mark.parametrize("fields", sorted(SCAN_FIELDS))
def test_patch_scan_matches_all_pairs_oracle(fields, target, monkeypatch):
    if target is not None:
        monkeypatch.setattr(geometry, "PAIR_BLOCK_TARGET", target)
    p, s = SCAN_FIELDS[fields]
    dom = CASES["rect-7x5"]["dom"]()
    lattice = exponents._box_lattice((0.0, 0.5), (1.0, 1.5), dom)
    # patch samples as covering_partition gathers them, with lattice points
    # repeated so that some sample points coincide
    pts = np.vstack([dom.cell_centroids, dom.facet_centroids, lattice, lattice[::7]])
    assert exponents._patch_scan(p, s, pts, dom.n) == oracles.patch_scan(p, s, pts, dom.n)


@pytest.mark.parametrize("target", [None, 1, 300])
@pytest.mark.parametrize("fields", sorted(SCAN_FIELDS))
def test_pair_bounds_match_all_pairs_oracle(fields, target, monkeypatch):
    if target is not None:
        monkeypatch.setattr(geometry, "PAIR_BLOCK_TARGET", target)
    dom = CASES["rect-7x5"]["dom"]()
    pts = np.vstack([dom.cell_centroids, dom.facet_centroids])
    for f in SCAN_FIELDS[fields]:
        if f.arity != fl.PAIR:
            continue
        assert exponents._pair_bounds(f, dom) == oracles.pair_bounds(f, pts)


def test_constant_pair_bound_violation_names_a_pair():
    dom = CASES["rect-7x5"]["dom"]()
    with pytest.raises(fl.BoundViolationError) as err:
        fl.validate_bounds(fl.constant_field(0.5, fl.PAIR), dom, "p")
    x, y = err.value.point
    assert x == y == dom.cell_centroids[0].tolist()
    assert err.value.value == 0.5


def test_pair_bounds_never_call_swap_witness(monkeypatch):
    calls = []
    original = exponents._swap_witness

    def counting(f, dom):
        calls.append(f.source)
        return original(f, dom)

    monkeypatch.setattr(exponents, "_swap_witness", counting)
    dom = CASES["rect-7x5"]["dom"]()
    pts = np.vstack([dom.cell_centroids, dom.facet_centroids])
    proven = fl.extend_symmetric_mean(fl.parse_field("2 + x1/2 + x2^2/10", fl.POINT))
    # symmetric in value, but max does not commute in the proof
    unproven = fl.parse_field("2 + max(x1, y1)/4", fl.PAIR)
    for f in (proven, unproven):
        assert exponents._pair_bounds(f, dom) == oracles.pair_bounds(f, pts)
    assert calls == []


def _count_passes(monkeypatch):
    """Count calls of the pair-enumeration entry point, wherever bound."""
    calls = []
    original = geometry.map_pairs

    def counting(*args, **kwargs):
        calls.append(1)
        return original(*args, **kwargs)

    for mod in (geometry, modular):
        monkeypatch.setattr(mod, "map_pairs", counting)
    return calls


def test_constant_p_seminorm_makes_one_pass(monkeypatch):
    _, dom, f, _, s = _problem("rect-7x5")
    passes = _count_passes(monkeypatch)
    res = fl.gagliardo_seminorm(f, fl.constant_field(P_CONST, fl.PAIR), s, fl.pair_quadrature(dom, "interior"))
    assert len(passes) == 1
    assert res.iterations == 2
    assert abs(res.modular_at_lambda - 1.0) <= 1e-14


def test_variable_p_seminorm_fills_its_cache_in_one_pass(monkeypatch):
    case, dom, f, _, s = _problem("rect-7x5")
    p = fl.extend_symmetric_mean(fl.parse_field(case["p_x1"], fl.POINT))
    passes = _count_passes(monkeypatch)
    res = fl.gagliardo_seminorm(f, p, s, fl.pair_quadrature(dom, "interior"))
    assert len(passes) == 1
    assert res.iterations > 2


def test_streamed_root_makes_one_pass_per_evaluation(monkeypatch):
    _, dom, f, p, s = _problem("interval-23")
    passes = _count_passes(monkeypatch)
    filled = _record_fill(monkeypatch)
    res = fl.gagliardo_seminorm(f, p, s, fl.pair_quadrature(dom, "interior"))
    # no fill: every evaluation re-runs the term code in a pass of its own
    assert filled == []
    assert len(passes) == res.iterations <= 8


def _cache_entries(f, p, s, pq):
    """Entries of the folded cache that the bisection runs over."""
    return sum(logc.size for logc, _ in modular._log_term_cache(f, p, s, pq, None))


def _fill_entries(f, p, s, pq):
    """Entries of the pass that fills the cache, before it is folded."""
    return sum(logc.size for _, logc, _ in modular._fill_log_terms(f, p, s, pq, None))


def _record_fill(monkeypatch):
    """Record every piece that a cache fill hands to the fold."""
    seen = []
    original = modular._fill_log_terms

    def recording(*args):
        for piece in original(*args):
            seen.append(piece)
            yield piece

    monkeypatch.setattr(modular, "_fill_log_terms", recording)
    return seen


@pytest.mark.parametrize("mesh", sorted(CASES))
def test_stencil_results_are_thread_invariant(mesh, monkeypatch):
    case, dom, f, p, s = _problem(mesh)
    monkeypatch.setattr(geometry, "PAIR_BLOCK_TARGET", SMALL_TARGET)
    pq = fl.pair_quadrature(dom, "interior")
    assert len(pq.chunks()) > 8
    # a pair exponent of x1 alone: its log-terms are summed over the second point
    p_x1 = fl.parse_field(case["p_x1"], fl.PAIR)
    assert _cache_entries(f, p_x1, s, pq) < pq.n_pairs

    def results(threads):
        semi = fl.gagliardo_seminorm(f, p, s, pq, threads=threads)
        semi_x1 = fl.gagliardo_seminorm(f, p_x1, s, pq, threads=threads)
        # a constant order makes the integrand swap-invariant: the half walk
        semi_half = fl.gagliardo_seminorm(f, p, S_CONST, pq, threads=threads)
        return (
            fl.modular_gagliardo(f, p, s, pq, 0.9, threads=threads),
            semi.lambda_star,
            semi.modular_at_lambda,
            semi_x1.lambda_star,
            semi_x1.modular_at_lambda,
            fl.gagliardo_seminorm(f, fl.constant_field(P_CONST, fl.PAIR), s, pq, threads=threads),
            fl.embedding_check(f, p, s, 0.2, 1.5, threads=threads).kernel_bound,
            fl.modular_gagliardo(f, p, S_CONST, pq, 0.9, threads=threads),
            semi_half.lambda_star,
            semi_half.modular_at_lambda,
            fl.embedding_check(f, p, S_CONST, 0.2, 1.5, threads=threads).kernel_bound,
        )

    assert results(1) == results(4)


# -- the variable-p log-term cache, summed over axes the exponent ignores ------


def _x1_mean(x, y):
    return (4.0 + (x[..., 0] + y[..., 0]) / 4.0) / 2.0


def _x2_mean(x, y):
    return (4.0 + (x[..., 1] ** 2 + y[..., 1] ** 2) / 10.0) / 2.0


# (f, p, arity, p_fn, path, s) on the rect-7x5 mesh; s None is the case's
# point field, which walks the whole stencil, and a constant s walks half of
# it.  The comment names the axes of a default-size piece that collapse
COLLAPSE_CASES = {
    # grid rows of a stencil chunk
    "mean-x1": (None, "2 + x1/4", fl.POINT, _x1_mean, "grid", None),
    "mean-x1-constant-s": (None, "2 + x1/4", fl.POINT, _x1_mean, "grid", S_CONST),
    # both x axes of a chunk; the dy = 0 chunks hold self-pairs
    "mean-x2-squared": (None, "2 + x2^2/10", fl.POINT, _x2_mean, "grid", None),
    "mean-x2-squared-constant-s": (None, "2 + x2^2/10", fl.POINT, _x2_mean, "grid", S_CONST),
    # none: one entry per pair
    "mean-x1-x2-constant-s": (None, "2 + x1/4 + x2^2/10", fl.POINT, None, "grid", S_CONST),
    # the column axis of a row block
    "pair-x1-subset": (None, "2 + x1/4", fl.PAIR, lambda x, y: 2.0 + x[..., 0] / 4.0, "explicit-subset", None),
    # f of x1 alone: whole row groups have zero differences
    "f-of-x1": ("sin(2*x1) + x1^2/3", "2 + x1/4", fl.POINT, _x1_mean, "grid", None),
}


def _collapse_problem(name):
    f_src, p_src, arity, p_fn, path, s_const = COLLAPSE_CASES[name]
    case, dom, f, _, s = _problem("rect-7x5")
    if f_src is not None:
        f = fl.function_on_domain(fl.parse_field(f_src, fl.POINT), dom)
    p = fl.parse_field(p_src, arity)
    if arity == fl.POINT:
        p = fl.extend_symmetric_mean(p)
    s_fn = case["s_fn"]
    if s_const is not None:
        s, s_fn = fl.constant_field(s_const, fl.PAIR), _const_fn(s_const)
    return dom, f, p, s, p_fn or case["p_fn"], s_fn, path


@pytest.mark.parametrize("target", [None, SMALL_TARGET])
@pytest.mark.parametrize("name", sorted(COLLAPSE_CASES))
def test_collapsed_cache_matches_dense_oracle(name, target, monkeypatch):
    dom, f, p, s, p_fn, s_fn, path = _collapse_problem(name)
    if target is not None:
        monkeypatch.setattr(geometry, "PAIR_BLOCK_TARGET", target)
    pq = _quadrature(dom, path, monkeypatch)
    if target is None and name != "mean-x1-x2-constant-s":
        assert _cache_entries(f, p, s, pq) < pq.n_pairs
    # the folded tables against the double sum, away from the root too
    rho = modular._cached_modular(modular._log_term_cache(f, p, s, pq, None))
    dense = oracles.dense_modular(dom, f.interior, p_fn, s_fn)
    for lam in (0.3, 0.8, 4.0):
        assert rho(lam) == pytest.approx(dense(lam), rel=1e-12)
    res = fl.gagliardo_seminorm(f, p, s, pq)
    assert res.status == fl.CONVERGED
    assert abs(res.modular_at_lambda - 1.0) <= 1e-10
    assert res.lambda_star == pytest.approx(oracles.dense_gagliardo(dom, f.interior, p_fn, s_fn), rel=1e-10)
    assert abs(dense(res.lambda_star) - 1.0) <= 1e-10


@pytest.mark.parametrize("name", sorted(COLLAPSE_CASES))
def test_collapsed_cache_matches_the_streamed_root(name, monkeypatch):
    dom, f, p, s, _, _, path = _collapse_problem(name)
    pq = _quadrature(dom, path, monkeypatch)
    # every entry folds but the exponent of both coordinates, which streams
    assert modular._folds(p, pq) == (name != "mean-x1-x2-constant-s")
    res = fl.gagliardo_seminorm(f, p, s, pq)
    streamed = modular._newton_root(modular._streamed_log_modular(f, p, s, pq, None))
    assert streamed.status == res.status == fl.CONVERGED
    assert streamed.iterations <= 8
    assert res.lambda_star == pytest.approx(streamed.lambda_star, rel=1e-12)
    if not modular._folds(p, pq):
        assert repr(res) == repr(streamed)


# folded (entries, tables) per COLLAPSE_CASES entry and piece target, None
# for the entry that streams.  At the default target every offset is one
# piece of all 7 columns, so an exponent of x1 alone folds into one table of
# the 7 x 7 column pairs, and one of x2 alone into one entry per row of each
# offset: 5 + 4 + 3 + 2 + 1, whose mirror offsets fold on the full walk.
# With SMALL_TARGET every piece is one grid row of the column run (0, 2),
# (2, 4), (4, 6) or (6, 7), and the dy = 0 pieces of a run drop their
# self-pairs, so x1 leaves two tables per run: 7 x 6 + 7 x 7 entries.  x2
# leaves one entry per piece but the first of each run on the full walk
# (25 - 1 per run), every one on the half walk (15 per run).  The row blocks
# of a point set hold one entry per point.  An exponent of both coordinates
# would keep one entry per pair, so it streams.
FOLD_COUNTS = {
    "mean-x1": {None: (49, 1), SMALL_TARGET: (42 + 49, 8)},
    "mean-x1-constant-s": {None: (49, 1), SMALL_TARGET: (42 + 49, 8)},
    "mean-x2-squared": {None: (15, 5), SMALL_TARGET: (96, 96)},
    "mean-x2-squared-constant-s": {None: (15, 5), SMALL_TARGET: (60, 60)},
    "mean-x1-x2-constant-s": {None: None, SMALL_TARGET: None},
    "pair-x1-subset": {None: (35, 1), SMALL_TARGET: (35, 35)},
    "f-of-x1": {None: (49, 1), SMALL_TARGET: (42 + 49, 8)},
}


@pytest.mark.parametrize("target", [None, SMALL_TARGET])
@pytest.mark.parametrize("name", sorted(COLLAPSE_CASES))
def test_folded_cache_holds_one_table_per_column_run(name, target, monkeypatch):
    dom, f, p, s, _, _, path = _collapse_problem(name)
    if target is not None:
        monkeypatch.setattr(geometry, "PAIR_BLOCK_TARGET", target)
    pq = _quadrature(dom, path, monkeypatch)
    assert modular._folds(p, pq) == (FOLD_COUNTS[name][target] is not None)
    if not modular._folds(p, pq):
        return
    tables = modular._log_term_cache(f, p, s, pq, None)
    assert (sum(logc.size for logc, _ in tables), len(tables)) == FOLD_COUNTS[name][target]
    assert all(logc.shape == pvals.shape for logc, pvals in tables)
    # the tables hold no more than the fill
    assert sum(logc.size for logc, _ in tables) <= _fill_entries(f, p, s, pq)


@pytest.mark.parametrize("name", sorted(COLLAPSE_CASES))
def test_folded_cache_is_thread_invariant(name, monkeypatch):
    dom, f, p, s, _, _, path = _collapse_problem(name)
    monkeypatch.setattr(geometry, "PAIR_BLOCK_TARGET", SMALL_TARGET)
    pq = _quadrature(dom, path, monkeypatch)

    def tables(threads):
        cache = modular._log_term_cache(f, p, s, pq, threads)
        return [(logc.tobytes(), pvals.tobytes()) for logc, pvals in cache]

    assert tables(1) == tables(4)
    semi = [fl.gagliardo_seminorm(f, p, s, pq, threads=k) for k in (1, 4)]
    assert repr(semi[0]) == repr(semi[1])


def test_folding_adds_equal_exponents_only(monkeypatch):
    # pieces of one column run and entry count fold only where their
    # exponent arrays are equal entry for entry; a piece of other exponents,
    # or of another run, keeps its own table
    run = (0, 2)
    pieces = [
        (run, np.log([1.0, 2.0]), np.array([2.0, 3.0])),
        (run, np.log([4.0, 8.0]), np.array([2.0, 3.0])),
        (run, np.log([16.0, 32.0]), np.array([2.0, 3.5])),
        ((2, 4), np.log([64.0, 128.0]), np.array([2.0, 3.0])),
        (run, np.array([-np.inf, 0.0]), np.array([2.0, 3.0])),
    ]
    monkeypatch.setattr(modular, "_fill_log_terms", lambda *args: pieces)
    tables = modular._log_term_cache(None, None, None, None, None)
    assert [pvals.tolist() for _, pvals in tables] == [[2.0, 3.0], [2.0, 3.5], [2.0, 3.0]]
    assert np.exp(tables[0][0]) == pytest.approx([1.0 + 4.0, 2.0 + 8.0 + 1.0], rel=1e-15)
    assert np.exp(tables[1][0]) == pytest.approx([16.0, 32.0], rel=1e-15)
    assert np.exp(tables[2][0]) == pytest.approx([64.0, 128.0], rel=1e-15)


@pytest.mark.parametrize("nx, ny", [(7, 5), (4, 9)])
def test_cache_holds_one_entry_per_exponent_entry(nx, ny):
    dom = fl.build_rectangle((-0.5, 1.0), (1.5, 2.25), nx, ny)
    f = fl.function_on_domain(fl.parse_field(CASES["rect-7x5"]["f"], fl.POINT), dom)
    p = fl.extend_symmetric_mean(fl.parse_field("2 + x1/4", fl.POINT))
    s = fl.parse_field(CASES["rect-7x5"]["s"], fl.POINT)
    pq = fl.pair_quadrature(dom, "interior")
    # the fill holds one entry per row offset and (ix, jx) pair, the dy = 0
    # self-pairs included; every offset holds the same exponents, so they
    # fold into one table of the (ix, jx) pairs
    assert _fill_entries(f, p, s, pq) == (2 * ny - 1) * nx * nx
    assert _cache_entries(f, p, s, pq) == nx * nx


@pytest.mark.parametrize("path", ["grid", "explicit-subset"])
def test_exponent_of_every_coordinate_streams_without_a_cache(path, monkeypatch):
    _, dom, f, p, s = _problem("rect-7x5")
    pq = _quadrature(dom, path, monkeypatch)
    calls = []
    monkeypatch.setattr(modular, "_log_term_cache", lambda *args: calls.append(args))
    res = fl.gagliardo_seminorm(f, p, s, pq)
    assert calls == [] and res.status == fl.CONVERGED


# -- the streamed root: Newton in log lambda over passes that keep no table ---


# (mesh, walk, quadrature) of a seminorm whose exponent, the case's p, reads
# both coordinates: the half walk takes a constant s, the full one the
# case's point field s
STREAMED = {
    "rect-full-walk": ("rect-7x5", "full", "grid"),
    "rect-half-walk": ("rect-7x5", "half", "grid"),
    "interval": ("interval-23", "full", "grid"),
    "facets": ("rect-7x5", "full", "facets"),
    "box-subset": ("rect-7x5", "full", "box"),
}


@pytest.mark.parametrize("target", [None, SMALL_TARGET])
@pytest.mark.parametrize("name", sorted(STREAMED))
def test_streamed_root_matches_dense_oracle(name, target, monkeypatch):
    mesh, walk, where = STREAMED[name]
    case, dom, f, p, s = _problem(mesh)
    s_fn = case["s_fn"]
    if walk == "half":
        s, s_fn = S_FIELD, _const_fn(S_CONST)
    if target is not None:
        monkeypatch.setattr(geometry, "PAIR_BLOCK_TARGET", target)
    scope, subset, vals = "interior", None, f.interior
    if where == "facets":
        scope, vals = "boundary", f.boundary
    if where == "box":
        subset = fl.cells_in_box(dom, (0.0, 1.2), (1.2, 2.0))
        vals = f.interior[subset]
    pq = fl.pair_quadrature(dom, scope, subset=subset)
    assert not modular._folds(p, pq) and modular._half_walk(p, s) == (walk == "half")
    root = fl.boundary_gagliardo_seminorm if scope == "boundary" else fl.gagliardo_seminorm
    one, two = (root(f, p, s, pq, threads=k) for k in (1, 2))
    assert repr(one) == repr(two)
    assert one.status == fl.CONVERGED and one.iterations <= 8
    lo, hi = one.bracket
    assert lo <= one.lambda_star <= hi and hi - lo <= 1e-12 * hi
    points = {"subset": subset, "scope": scope}
    want = oracles.dense_gagliardo(dom, vals, case["p_fn"], s_fn, **points)
    assert one.lambda_star == pytest.approx(want, rel=1e-10)
    dense = oracles.dense_modular(dom, vals, case["p_fn"], s_fn, **points)
    assert abs(dense(one.lambda_star) - 1.0) <= 1e-10
    # the dense root lies in the bracket, by the oracle's own signs too
    assert lo <= want <= hi and dense(lo) > 1.0 > dense(hi)
    # the root scales with the data up to the reach of 2^200, and past it
    # either way the root fails
    for scale, status in ((2.0**190, fl.CONVERGED), (2.0**-190, fl.CONVERGED),
                          (2.0**210, fl.BRACKET_FAILURE), (2.0**-210, fl.BRACKET_FAILURE)):
        res = root(f.scaled(scale), p, s, pq)
        assert res.status == status
        if status == fl.CONVERGED:
            assert res.lambda_star == pytest.approx(scale * one.lambda_star, rel=1e-10)
        else:
            assert math.isnan(res.lambda_star)


@pytest.mark.parametrize("target", [None, SMALL_TARGET])
def test_streamed_root_shifts_past_pieces_of_zero_differences(target, monkeypatch):
    """A piece whose pairs all have equal values adds nothing to phi, and
    its sums must not set the shift across pieces: with every other
    log-term below log(2^-1074) at t = 0, a shift of 0 would make phi -inf
    at its first evaluation."""
    if target is not None:
        monkeypatch.setattr(geometry, "PAIR_BLOCK_TARGET", target)
    dom = fl.build_rectangle((0.0, 0.0), (1.0, 1.0), 16, 16)
    f = fl.GridFunction.from_callable(dom, lambda x: 1e-3 * x[:, 1] * (1.0 - x[:, 1]))
    p = _mean("120 + x1 + x2")
    p_fn = lambda x, y: (240.0 + x[..., 0] + x[..., 1] + y[..., 0] + y[..., 1]) / 2.0
    s_fn = _const_fn(S_CONST)
    pq = fl.pair_quadrature(dom, "interior")
    # the first and last grid rows hold equal values, so every pair between
    # them, the pieces of row offset 15, has a zero difference
    rows = f.interior.reshape(16, 16)
    assert np.array_equal(rows[0], rows[15]) and not modular._folds(p, pq)
    w, dist, pg, sg = oracles.pair_tables(dom, p_fn, s_fn)
    with np.errstate(divide="ignore"):
        logs = np.log(w) + pg * np.log(np.abs(f.interior[:, None] - f.interior[None, :])) - (dom.n + sg * pg) * np.log(dist)
    assert logs.max() < math.log(5e-324)
    one, two = (fl.gagliardo_seminorm(f, p, S_CONST, pq, threads=k) for k in (1, 2))
    assert repr(one) == repr(two)
    assert one.status == fl.CONVERGED and one.iterations <= 8
    want = oracles.dense_gagliardo(dom, f.interior, p_fn, s_fn)
    assert one.lambda_star == pytest.approx(want, rel=1e-10)
    dense = oracles.dense_modular(dom, f.interior, p_fn, s_fn)
    lo, hi = one.bracket
    assert abs(dense(one.lambda_star) - 1.0) <= 1e-10 and dense(lo) > 1.0 > dense(hi)


def _linear_phi(root, slope=-2.5):
    """phi(t) = slope (t - root), with its Newton step."""
    return lambda t: (slope * (t - root), root - t)


def test_newton_root_ends_on_the_lattice_point_right_of_the_root():
    # a linear phi is its own tangent: one step reaches the root, rounded
    # down onto the multiples of REL_TOL / 8 in t, and one more evaluation
    # reads the least multiple right of it
    grid = modular.REL_TOL / 8
    # roots away from the lattice points, so the least one right of each is plain
    for root in (r + grid / 3 for r in (0.3, -1.7, 40.0, 138.0, -138.0, 5 * grid)):
        probes = []
        res = modular._newton_root(lambda t: probes.append(t) or _linear_phi(root)(t))
        assert res.status == fl.CONVERGED and res.iterations <= 4
        lo, hi = res.bracket
        assert lo <= math.exp(root) <= hi and math.log(hi / lo) <= 1.1 * grid
        top = math.ceil(root / grid) * grid
        assert res.lambda_star == math.exp(top) == math.exp(probes[-1])
        # phi off in its last bits, so that its first step ends on the other
        # side of the root, gives the same lambda*
        for off in (1 + 4e-16, 1 - 4e-16):
            shifted = modular._newton_root(lambda t: (_linear_phi(root)(t)[0] * off, (root - t) * off))
            assert shifted.lambda_star == res.lambda_star


def test_newton_root_brackets_the_root_when_a_tangent_overshoots_it():
    # the tangents' roots are computed g / 2 right of the root, which lies
    # g / 5 below a lattice point: the first iterate lands on that point,
    # right of the root, and the root ends in the bracket below it
    grid = modular.REL_TOL / 8
    top = 40_000_000
    root = (top - 0.2) * grid
    assert (top - 1) * grid < root < top * grid
    res = modular._newton_root(lambda t: (-2.5 * (t - root), root - t + grid / 2))
    assert res.status == fl.CONVERGED and res.iterations <= 4
    lo, hi = res.bracket
    assert lo <= math.exp(root) <= hi
    assert (lo, hi) == (math.exp((top - 1) * grid), math.exp(top * grid)) == (lo, res.lambda_star)
    # rho(lambda*) is read at lambda*, not at the last evaluation, the lower end
    assert res.modular_at_lambda == math.exp(-2.5 * (top * grid - root)) < 1.0


@pytest.mark.parametrize("cells", [1.5, 3.2])
def test_newton_root_probes_up_the_lattice_to_the_root(cells):
    # phi stays positive a few cells right of its tangents' root: each probe
    # left of the root takes the next lattice point up
    grid = modular.REL_TOL / 8
    tangent, root = 132.75, 132.75 + cells * grid
    probes = []

    def phi(t):
        probes.append(t)
        return (1e-300 if tangent <= t <= root else -2.0 * (t - tangent)), tangent - t

    res = modular._newton_root(phi)
    assert res.status == fl.CONVERGED
    assert len(set(probes)) == len(probes) == res.iterations
    lo, hi = (math.log(v) for v in res.bracket)
    assert lo <= root <= hi
    assert res.lambda_star == math.exp(probes[-1]) and probes[-2] <= root < probes[-1]


def test_newton_root_fails_on_nan_past_reach_and_without_a_root():
    res = modular._newton_root(lambda t: (math.nan, math.nan))
    assert (res.status, res.iterations) == (fl.BRACKET_FAILURE, 1) and math.isnan(res.lambda_star)
    # a root past 2^200 or below 2^-200: the first step is clamped to the
    # reach, and the root still lies beyond it
    reach = modular.MAX_EXPAND * math.log(2.0)
    for root in (reach + 1.0, -reach - 1.0):
        res = modular._newton_root(_linear_phi(root))
        assert (res.status, res.iterations) == (fl.BRACKET_FAILURE, 2)
    # a root just within reach, which the first step passes, converges
    res = modular._newton_root(lambda t: (-2.5 * (t + reach - 0.5), -(t + reach - 0.5) * 1.5))
    assert res.status == fl.CONVERGED and abs(math.log(res.lambda_star) + reach - 0.5) <= 1e-12
    # a phi whose steps cycle between two points never reaches a root:
    # MAX_BISECT evaluations, then a failure
    res = modular._newton_root(lambda t: (1.0, 1.0) if t < 0.5 else (-1.0, -1.0))
    assert (res.status, res.iterations) == (fl.BRACKET_FAILURE, modular.MAX_BISECT)


# -- the symmetric half walk --------------------------------------------------


def _mean_s_fn(case):
    return lambda x, y: (case["s_fn"](x, y) + case["s_fn"](y, x)) / 2.0


# (p, s, p_fn, s_fn) builders for integrands that are swap-invariant
HALF_FIELDS = {
    "constant-p-constant-s": lambda case: (
        fl.constant_field(P_CONST, fl.PAIR),
        S_FIELD,
        _const_fn(P_CONST),
        _const_fn(S_CONST),
    ),
    "mean-p-constant-s": lambda case: (
        fl.extend_symmetric_mean(fl.parse_field(case["p"], fl.POINT)),
        fl.constant_field(S_CONST),
        case["p_fn"],
        _const_fn(S_CONST),
    ),
    "mean-p-mean-s": lambda case: (
        fl.extend_symmetric_mean(fl.parse_field(case["p"], fl.POINT)),
        fl.extend_symmetric_mean(fl.parse_field(case["s"], fl.POINT)),
        case["p_fn"],
        _mean_s_fn(case),
    ),
}


def _record_offsets(monkeypatch):
    """Record the row offset dy of every stencil chunk built."""
    seen = []
    original = geometry.PairQuadrature.chunk

    def recording(self, dy, *args, **kwargs):
        seen.append(dy)
        return original(self, dy, *args, **kwargs)

    monkeypatch.setattr(geometry.PairQuadrature, "chunk", recording)
    return seen


def _full_walk(monkeypatch):
    """Make every pair pass walk the whole stencil, whatever its caller says."""
    original = geometry.map_pairs

    def full(pq, fn, threads=None, symmetric=False):
        return original(pq, fn, threads)

    for mod in (geometry, modular):
        monkeypatch.setattr(mod, "map_pairs", full)


def _walk_results(f, p, s, pq):
    return (
        *(fl.modular_gagliardo(f, p, s, pq, lam) for lam in (0.7, 1.0, 3.0)),
        fl.gagliardo_seminorm(f, p, s, pq).lambda_star,
        fl.embedding_check(f, p, s, 0.2, 1.5).kernel_bound,
    )


@pytest.mark.parametrize("target", [None, SMALL_TARGET])
@pytest.mark.parametrize("fields", sorted(HALF_FIELDS))
@pytest.mark.parametrize("mesh", sorted(CASES))
def test_half_walk_matches_full_walk_and_dense_oracle(mesh, fields, target, monkeypatch):
    case, dom, f, _, _ = _problem(mesh)
    if target is not None:
        monkeypatch.setattr(geometry, "PAIR_BLOCK_TARGET", target)
    p, s, p_fn, s_fn = HALF_FIELDS[fields](case)
    pq = fl.pair_quadrature(dom, "interior")
    assert modular._half_walk(p, s)

    ny = pq.grid[1] if dom.n == 2 else 1
    seen = _record_offsets(monkeypatch)
    half = _walk_results(f, p, s, pq)
    # an interval has only dy = 0, which the half walk keeps whole
    assert set(seen) == set(range(ny))

    seen.clear()
    with monkeypatch.context() as m:
        _full_walk(m)
        full = _walk_results(f, p, s, pq)
    assert set(seen) == set(range(1 - ny, ny))

    assert half == pytest.approx(full, rel=1e-14)
    for lam, got in zip((0.7, 1.0, 3.0), half):
        assert got == pytest.approx(oracles.dense_modular(dom, f.interior, p_fn, s_fn)(lam), rel=1e-12)
    assert half[3] == pytest.approx(oracles.dense_gagliardo(dom, f.interior, p_fn, s_fn), rel=1e-10)
    w, dist, pg, sg = oracles.pair_tables(dom, p_fn, s_fn)
    kernel = float(np.sum(w * dist ** ((sg - 0.2) * 1.5 * pg / (pg - 1.5) - dom.n)))
    assert half[4] == pytest.approx(kernel, rel=1e-12)


@pytest.mark.parametrize(
    "source, arity, invariant",
    [
        (0.4, fl.POINT, True),
        ("0.3 + 0.1*x2", fl.POINT, False),
        ("2 + x1*y1 + max(x2, 1)*max(y2, 1)", fl.PAIR, True),
        ("x1/y1 + y1/x1", fl.PAIR, True),
        ("x1 - y1", fl.PAIR, False),
        ("x1/y1", fl.PAIR, False),
        # symmetric in value, but not by the operand order of + and *
        ("abs(x1 - y1)", fl.PAIR, False),
    ],
)
def test_swap_invariance_is_read_off_the_expression(source, arity, invariant):
    field = fl.parse_field(source, arity)
    assert exponents._swap_invariant(field) is invariant
    if arity == fl.PAIR:
        assert exponents._swap_invariant(fl.transpose_field(field)) is invariant
    else:
        mean = fl.extend_symmetric_mean(field)
        assert exponents._swap_invariant(mean) and exponents._swap_invariant(fl.transpose_field(mean))


def _full_only_fields(case):
    """Integrands that are not swap-invariant."""
    p_mean = fl.extend_symmetric_mean(fl.parse_field(case["p"], fl.POINT))
    return {
        "point-s": (p_mean, fl.parse_field(case["s"], fl.POINT)),
        "asymmetric-p": (fl.parse_field("2 + x1/4", fl.PAIR), S_FIELD),
    }


@pytest.mark.parametrize("name", ["point-s", "asymmetric-p"])
def test_half_walk_needs_a_provably_symmetric_integrand(name, monkeypatch):
    case, dom, f, _, _ = _problem("rect-7x5")
    p, s = _full_only_fields(case)[name]
    pq = fl.pair_quadrature(dom, "interior")
    assert not modular._half_walk(p, s)

    def results():
        semi = fl.gagliardo_seminorm(f, p, s, pq)
        return fl.modular_gagliardo(f, p, s, pq, 0.8), semi.lambda_star, semi.modular_at_lambda, semi.iterations

    seen = _record_offsets(monkeypatch)
    got = results()
    # every chunk of each pass, each row offset from -(ny - 1) to ny - 1: the
    # modular's, then the cache fill's, or one per streamed evaluation
    passes = 2 if modular._folds(p, pq) else 1 + got[3]
    assert sorted(seen) == sorted(spec[0] for spec in passes * pq.chunks())
    with monkeypatch.context() as m:
        _full_walk(m)
        assert results() == got
    if name == "point-s":
        seen.clear()
        fl.embedding_check(f, p, s, 0.2, 1.5)
        assert min(seen) < 0


@pytest.mark.parametrize("target", [None, SMALL_TARGET])
@pytest.mark.parametrize("mesh", sorted(CASES))
def test_half_stencil_covers_each_unordered_pair_once(mesh, target, monkeypatch):
    _, dom, _, _, _ = _problem(mesh)
    if target is not None:
        monkeypatch.setattr(geometry, "PAIR_BLOCK_TARGET", target)
    pq = fl.pair_quadrature(dom, "interior")
    cell_w = dom.cell_measures[0] ** 2
    idx = np.arange(dom.n_cells, dtype=float)
    ii, jj, mult, weighted = [], [], [], 0.0
    for spec in pq.chunks(half=True):
        c = pq.chunk(*spec, half=True)
        assert c.dy >= 0 and c.weights == (2.0 if c.dy > 0 else 1.0) * cell_w
        vi, vj = c.pair_values(idx)
        ii.append(c.flat(vi))
        jj.append(c.flat(vj))
        mult.append(np.full(c.n_pairs, c.weights / cell_w))
        weighted += c.weights / cell_w * c.n_pairs
    # weight times pairs adds up to the full walk's
    assert weighted == pq.n_pairs == sum(pq.chunk(*spec).n_pairs for spec in pq.chunks())
    ii, jj, mult = (np.concatenate(a) for a in (ii, jj, mult))
    ii, jj = ii.astype(int), jj.astype(int)
    # a pair of two grid rows comes once at weight 2, from the lower row; a
    # pair within one row comes in both orders at weight 1
    assert np.all((mult == 2.0) == (ii // pq.grid[0] != jj // pq.grid[0]))
    assert np.all(jj[mult == 2.0] > ii[mult == 2.0])
    lo, hi = np.minimum(ii, jj), np.maximum(ii, jj)
    counts = np.zeros((dom.n_cells, dom.n_cells))
    np.add.at(counts, (lo, hi), mult)
    want = 2.0 * np.triu(np.ones((dom.n_cells, dom.n_cells)), k=1)
    assert np.array_equal(counts, want)
    if dom.n == 1:
        assert pq.chunks(half=True) == pq.chunks()


@pytest.mark.parametrize("nx, ny", [(7, 5), (4, 9)])
def test_half_walk_cache_holds_one_entry_per_offset_and_column_pair(nx, ny):
    dom = fl.build_rectangle((-0.5, 1.0), (1.5, 2.25), nx, ny)
    f = fl.function_on_domain(fl.parse_field(CASES["rect-7x5"]["f"], fl.POINT), dom)
    p = fl.extend_symmetric_mean(fl.parse_field("2 + x1/4", fl.POINT))
    pq = fl.pair_quadrature(dom, "interior")
    assert _fill_entries(f, p, S_FIELD, pq) == ny * nx * nx
    assert _cache_entries(f, p, S_FIELD, pq) == nx * nx


# -- level rows in the constant-p pass ----------------------------------------


def _rect_fn(fn):
    """A grid function on the rect-7x5 mesh from a callable of (m, 2) points."""
    dom = CASES["rect-7x5"]["dom"]()
    return dom, fl.GridFunction.from_callable(dom, fn)


def _bump(x):
    # radius 1/2 around a point of the bottom edge x2 = 1: grid rows 0 and 1
    return fl.mollifier_profile(2.0 * (x - np.array([0.5, 1.0])))


# f on the rect-7x5 mesh (rows at x2 = 1.125, 1.375, ..., 2.125)
LEVEL_DATA = {
    # rows 2 to 4 hold one 0, rows 0 and 1 the bump
    "bump-bottom-edge": _bump,
    # one constant per row, a different one on each: every row is level
    "rows-of-different-constants": lambda x: x[:, 1] ** 2,
    # rows 1 to 3 hold one nonzero constant, 0.7; rows 0 and 4 vary
    "nonzero-constant-middle-rows": lambda x: np.where(np.abs(x[:, 1] - 1.625) < 0.3, 0.7, np.sin(3.0 * x[:, 0])),
    # rows 0 and 3 hold -0.4 and 1.3, the others vary: the row offset 1
    # pairs rows of each kind, so its chunk sums all three parts
    "two-level-rows-of-different-constants": lambda x: np.select(
        [np.abs(x[:, 1] - 1.125) < 0.1, np.abs(x[:, 1] - 1.875) < 0.1], [-0.4, 1.3], np.sin(3.0 * x[:, 0]) + x[:, 1]
    ),
    "no-level-row": lambda x: np.sin(np.pi * x[:, 0]) + x[:, 1],
}


def _record_specs(monkeypatch):
    """Record the (dy, iy0, iy1, ix0, ix1) of every stencil chunk built."""
    seen = []
    original = geometry.PairQuadrature.chunk

    def recording(self, *spec, half=False):
        seen.append(spec)
        return original(self, *spec, half=half)

    monkeypatch.setattr(geometry.PairQuadrature, "chunk", recording)
    return seen


def _same(a, b):
    return a == b or (np.isnan(a) and np.isnan(b))


def test_level_data_holds_the_rows_it_names():
    levels = {name: modular._row_levels(_rect_fn(fn)[1].interior, 7) for name, fn in LEVEL_DATA.items()}
    assert np.array_equal(levels["bump-bottom-edge"], [np.nan, np.nan, 0.0, 0.0, 0.0], equal_nan=True)
    assert np.all(np.isfinite(levels["rows-of-different-constants"]))
    assert np.unique(levels["rows-of-different-constants"]).size == 5
    assert np.array_equal(levels["nonzero-constant-middle-rows"], [np.nan, 0.7, 0.7, 0.7, np.nan], equal_nan=True)
    assert np.array_equal(
        levels["two-level-rows-of-different-constants"], [-0.4, np.nan, np.nan, 1.3, np.nan], equal_nan=True
    )
    assert np.all(np.isnan(levels["no-level-row"]))


@pytest.mark.parametrize("target", [None, SMALL_TARGET])
@pytest.mark.parametrize("p_value", [2.0, P_CONST])
@pytest.mark.parametrize("data", sorted(LEVEL_DATA))
def test_level_rows_match_dense_oracle(data, p_value, target, monkeypatch):
    if target is not None:
        monkeypatch.setattr(geometry, "PAIR_BLOCK_TARGET", target)
    dom, f = _rect_fn(LEVEL_DATA[data])
    p = fl.constant_field(p_value, fl.PAIR)
    pq = fl.pair_quadrature(dom, "interior")
    assert pq.spacing[0] != pq.spacing[1]
    if target is not None:
        # single-row column runs
        assert all(iy1 - iy0 == 1 and ix1 - ix0 < 7 for _, iy0, iy1, ix0, ix1 in pq.chunks(half=True))
    dense = oracles.dense_modular(dom, f.interior, _const_fn(p_value), _const_fn(S_CONST))
    seen = _record_specs(monkeypatch)
    for lam in (0.7, 1.0, 3.0):
        got = fl.modular_gagliardo(f, p, S_FIELD, pq, lam)
        assert got == pytest.approx(dense(lam), rel=1e-12)
        assert got == oracles.stencil_modular(pq, f.interior, p, S_FIELD, lam, half=True)
        assert got == fl.modular_gagliardo(f, p, S_FIELD, pq, lam, threads=2)
    # every chunk of the stencil is walked, whatever the values
    assert sorted(seen) == sorted(6 * pq.chunks(half=True))
    res = fl.gagliardo_seminorm(f, p, S_FIELD, pq)
    want = oracles.dense_gagliardo(dom, f.interior, _const_fn(p_value), _const_fn(S_CONST))
    assert res.lambda_star == pytest.approx(want, rel=1e-10)
    assert abs(res.modular_at_lambda - 1.0) <= 1e-14


@pytest.mark.parametrize("p_value", [2.0, P_CONST])
def test_bump_forms_slabs_only_for_row_pairs_within_it(p_value, monkeypatch):
    dom, f = _rect_fn(_bump)
    pq = fl.pair_quadrature(dom, "interior")
    slab_rows = []
    original = modular.differences

    def recording(first, second, out=None):
        d = original(first, second, out)
        if min(d.shape[1:]) > 1:  # a slab, not a level row's column or row
            slab_rows.append(d.shape[0])
        return d

    monkeypatch.setattr(modular, "differences", recording)
    fl.modular_gagliardo(f, fl.constant_field(p_value, fl.PAIR), S_FIELD, pq, 1.0)
    # the bump holds grid rows 0 and 1, and rows 2 to 4 hold one 0: of the
    # 15 row pairs of the half walk only (0, 0), (1, 1) and (0, 1) are slabs
    assert sum(slab_rows) == 3
    assert sum(iy1 - iy0 for _, iy0, iy1, _, _ in pq.chunks(half=True)) == 15


def test_level_rows_are_thread_invariant(monkeypatch):
    monkeypatch.setattr(geometry, "PAIR_BLOCK_TARGET", SMALL_TARGET)
    dom, f = _rect_fn(_bump)
    pq = fl.pair_quadrature(dom, "interior")
    p = fl.constant_field(P_CONST, fl.PAIR)
    assert len(pq.chunks(half=True)) > 8

    def results(threads):
        semi = fl.gagliardo_seminorm(f, p, S_CONST, pq, threads=threads)
        return (
            fl.modular_gagliardo(f, p, S_CONST, pq, 0.9, threads=threads),
            semi.lambda_star,
            semi.modular_at_lambda,
            fl.trace_check(f, p, fl.constant_field(1.5, fl.BOUNDARY), S_CONST, pq, threads=threads).full_norm,
        )

    assert results(1) == results(2)


def _with_rows(row_values):
    """The rect-7x5 interior, grid row iy filled from row_values[iy] (a
    scalar or 7 values), set past GridFunction's finite-value check."""
    dom = CASES["rect-7x5"]["dom"]()
    f = fl.GridFunction.from_interior(dom, np.zeros(dom.n_cells))
    vals = np.concatenate([np.broadcast_to(np.asarray(v, dtype=float), (7,)) for v in row_values])
    object.__setattr__(f, "interior", vals)
    return dom, f


NONFINITE_ROWS = {
    # inf - inf is NaN on the pairs within the row
    "row-of-inf": ([0.0, np.inf, 0.0, 0.0, 0.0], True),
    "row-of-minus-inf": ([1.0, 1.0, 1.0, 1.0, -np.inf], True),
    "row-holding-a-nan": ([0.0, 0.0, [0.0] * 3 + [np.nan] + [0.0] * 3, 0.0, 0.0], True),
    # finite rows whose differences overflow: the sum is inf, not NaN
    "overflowing-differences": ([1e308, -1e308, 1e308, -1e308, 1e308], False),
}


@pytest.mark.parametrize("target", [None, SMALL_TARGET])
@pytest.mark.parametrize("name", sorted(NONFINITE_ROWS))
def test_nonfinite_rows_among_level_rows_match_dense_oracle(name, target, monkeypatch):
    if target is not None:
        monkeypatch.setattr(geometry, "PAIR_BLOCK_TARGET", target)
    rows, nan = NONFINITE_ROWS[name]
    dom, f = _with_rows(rows)
    pq = fl.pair_quadrature(dom, "interior")
    p = fl.constant_field(P_CONST, fl.PAIR)
    with np.errstate(all="ignore"):
        got = fl.modular_gagliardo(f, p, S_CONST, pq, 1.0)
        dense = oracles.dense_modular(dom, f.interior, _const_fn(P_CONST), _const_fn(S_CONST))(1.0)
    assert _same(got, dense)
    assert np.isnan(got) if nan else got == np.inf


def _gated_fields(case):
    return {
        # 0^p is 1 or inf, not 0, when p <= 0
        "p-zero": (fl.constant_field(0.0, fl.PAIR), S_FIELD),
        "p-negative": (fl.constant_field(-1.0, fl.PAIR), S_FIELD),
        # w / d^(2 + 0.9 * 600) overflows at the nearest pairs: 0 * inf is NaN
        "kernel-overflow": (fl.constant_field(600.0, fl.PAIR), fl.constant_field(0.9, fl.PAIR)),
        "variable-p": (fl.extend_symmetric_mean(fl.parse_field(case["p"], fl.POINT)), S_FIELD),
        "point-s": (fl.constant_field(P_CONST, fl.PAIR), fl.parse_field(case["s"], fl.POINT)),
    }


@pytest.mark.parametrize("name", ["p-zero", "p-negative", "kernel-overflow", "variable-p", "point-s"])
def test_level_rows_keep_every_pairs_own_term(name):
    # a zero difference gives 0^p, which is 1 for p = 0 and inf for p < 0,
    # and 0 * inf is NaN where the kernel overflows: the pass forms those
    # terms on level rows as on any other
    case = CASES["rect-7x5"]
    dom, f = _rect_fn(_bump)
    p, s = _gated_fields(case)[name]
    pq = fl.pair_quadrature(dom, "interior")
    half = modular._half_walk(p, s)
    with np.errstate(all="ignore"):
        got = fl.modular_gagliardo(f, p, s, pq, 1.0)
        assert _same(got, oracles.stencil_modular(pq, f.interior, p, s, 1.0, half))
    if name == "p-negative":
        assert got == np.inf
    elif name == "kernel-overflow":
        assert np.isnan(got)
    else:
        p_fn = {"p-zero": _const_fn(0.0), "variable-p": case["p_fn"]}.get(name, _const_fn(P_CONST))
        s_fn = case["s_fn"] if name == "point-s" else _const_fn(S_CONST)
        assert got == pytest.approx(oracles.dense_modular(dom, f.interior, p_fn, s_fn)(1.0), rel=1e-12)


# -- the row-summed pass ------------------------------------------------------


def _term_by_term(f, p, s, pq, lam):
    """The modular with nothing summed before the kernel: every piece
    multiplied out and summed term by term, as the pass ran before the
    row sums."""
    return oracles.stencil_modular(pq, pq.values(f), p, s, lam, modular._half_walk(p, s), row_sums=False)


# per name, a function of the rect-7x5 case giving (f, p, s, p_fn, s_fn).
# A constant p whose kernel is one table along a piece's grid rows sums
# them with its level rows, a variable p whose kernel is sums them as slabs,
# and a kernel that varies along them is summed term by term, each checked
# bit for bit against stencil_modular, which sums each way as the package
# does.  f None is the case's function, which has no level row
ROW_SUM_CASES = {
    "constant-no-level-row": lambda case: (None, fl.constant_field(P_CONST, fl.PAIR), S_FIELD,
                                           _const_fn(P_CONST), _const_fn(S_CONST)),
    "constant-level-rows": lambda case: (_bump, fl.constant_field(P_CONST, fl.PAIR), S_FIELD,
                                         _const_fn(P_CONST), _const_fn(S_CONST)),
    # 0^0 = 1: every self-pair term is w, so only zeroing them after the row
    # sum keeps them out
    "p-zero": lambda case: (None, fl.constant_field(0.0, fl.PAIR), S_FIELD,
                            _const_fn(0.0), _const_fn(S_CONST)),
    # the exponent of x1 alone whose seminorm folds
    "p-of-x1": lambda case: (None, fl.extend_symmetric_mean(fl.parse_field(case["p_x1"], fl.POINT)),
                             S_FIELD, _x1_mean, _const_fn(S_CONST)),
    # n + s p varies along the rows
    "point-s-of-x2": lambda case: (None, fl.constant_field(P_CONST, fl.PAIR), fl.parse_field(case["s"], fl.POINT),
                                   _const_fn(P_CONST), case["s_fn"]),
    "pair-p-of-x2": lambda case: (None, fl.extend_symmetric_mean(fl.parse_field("2 + x2^2/10", fl.POINT)),
                                  S_FIELD, _x2_mean, _const_fn(S_CONST)),
}

# pieces of two grid rows of the rect-7x5 mesh, and one where an offset has
# an odd number of rows
TWO_ROWS = 2 * 7 * 7


@pytest.mark.parametrize("target", [None, TWO_ROWS])
@pytest.mark.parametrize("name", sorted(ROW_SUM_CASES))
def test_row_summed_pass_matches_dense_oracle(name, target, monkeypatch):
    if target is not None:
        monkeypatch.setattr(geometry, "PAIR_BLOCK_TARGET", target)
    build = ROW_SUM_CASES[name]
    case = CASES["rect-7x5"]
    f_fn, p, s, p_fn, s_fn = build(case)
    if f_fn is None:
        _, dom, f, _, _ = _problem("rect-7x5")
    else:
        dom, f = _rect_fn(f_fn)
    pq = fl.pair_quadrature(dom, "interior")
    level = np.isfinite(modular._row_levels(f.interior, 7))
    assert level.any() == (name == "constant-level-rows")
    dense = oracles.dense_modular(dom, f.interior, p_fn, s_fn)
    lams = (0.7, 1.0, 3.0)
    got = [fl.modular_gagliardo(f, p, s, pq, lam) for lam in lams]
    assert got == pytest.approx([dense(lam) for lam in lams], rel=1e-12)
    half = modular._half_walk(p, s)
    assert got == [oracles.stencil_modular(pq, f.interior, p, s, lam, half) for lam in lams]
    if name == "p-of-x1":
        passes = _count_passes(monkeypatch)
        res = fl.gagliardo_seminorm(f, p, s, pq)
        assert len(passes) == 1
        assert res.status == fl.CONVERGED
        assert res.modular_at_lambda == pytest.approx(dense(res.lambda_star), rel=1e-12)
        assert res.lambda_star == pytest.approx(oracles.dense_gagliardo(dom, f.interior, p_fn, s_fn), rel=1e-10)


# one cell of 1.1e154 in the middle of 16^2 cells, p = 2, s = 1/2: every
# term is finite, but where the row offset pairs the spike's column with
# itself two of a piece's grid rows hold 1.21e308, and their sum overflows.
# rho(1) as the term-by-term pass gives it, and its root rho(1)^(1/2), which
# lies past the bracket's reach of 2^200
SPIKE_RHO1 = 1.2590386282372855e308
SPIKE_LAMBDA = 1.1220689052982823e154


def test_row_sum_that_overflows_is_summed_term_by_term():
    dom = fl.build_rectangle((0.0, 0.0), (1.0, 1.0), 16, 16)
    vals = np.zeros(dom.n_cells)
    vals[8 * 16 + 8] = 1.1e154
    f = fl.GridFunction.from_interior(dom, vals)
    p = fl.constant_field(2.0, fl.PAIR)
    pq = fl.pair_quadrature(dom, "interior")
    rho1 = fl.modular_gagliardo(f, p, 0.5, pq, 1.0)
    assert math.isfinite(rho1)
    assert rho1 == pytest.approx(SPIKE_RHO1, rel=1e-12)
    assert rho1 == pytest.approx(_term_by_term(f, p, fl.constant_field(0.5, fl.PAIR), pq, 1.0), rel=1e-12)
    dense = oracles.dense_modular(dom, vals, _const_fn(2.0), _const_fn(0.5))
    assert rho1 == pytest.approx(dense(1.0), rel=1e-12)
    assert math.sqrt(rho1) == pytest.approx(SPIKE_LAMBDA, rel=1e-12) and SPIKE_LAMBDA > 2.0**200
    res = fl.gagliardo_seminorm(f, p, 0.5, pq)
    assert res.status == fl.BRACKET_FAILURE and math.isnan(res.lambda_star)


@pytest.mark.parametrize("name", ["kernel-overflow", *sorted(NONFINITE_ROWS)])
def test_nonfinite_row_sums_keep_the_term_by_term_result(name):
    if name == "kernel-overflow":
        # w / d^542 is inf at the nearest pairs, and 0 * inf is NaN
        dom, f = _rect_fn(_bump)
        p, s = _gated_fields(CASES["rect-7x5"])[name]
        nan = True
    else:
        (dom, f), nan = _with_rows(NONFINITE_ROWS[name][0]), NONFINITE_ROWS[name][1]
        p, s = fl.constant_field(P_CONST, fl.PAIR), S_FIELD
    pq = fl.pair_quadrature(dom, "interior")
    with np.errstate(all="ignore"):
        got = fl.modular_gagliardo(f, p, s, pq, 1.0)
        want = _term_by_term(f, p, s, pq, 1.0)
    assert _same(got, want)
    assert np.isnan(got) if nan else got == np.inf


def test_log_term_fill_folds_each_piece_as_it_arrives(monkeypatch):
    # 32^2 cells in pieces of 4 grid rows: a point-field s walks every row
    # offset, 280 pieces of one 32 x 32 table each, which the fill once held
    # all at once before folding them into one
    monkeypatch.setattr(geometry, "PAIR_BLOCK_TARGET", 4 * 32 * 32)
    dom = fl.build_rectangle((0.0, 0.0), (1.0, 1.0), 32, 32)
    f = fl.function_on_domain(fl.parse_field("sin(3*x1) + x1*x2^2", fl.POINT), dom)
    p = fl.extend_symmetric_mean(fl.parse_field("2 + x1/2", fl.POINT))
    s = fl.parse_field("0.3 + 0.1*x2", fl.POINT)
    pq = fl.pair_quadrature(dom, "interior")
    assert len(pq.chunks()) == 280
    fill_bytes = 16 * _fill_entries(f, p, s, pq)
    tracemalloc.start()
    try:
        tables = modular._log_term_cache(f, p, s, pq, 1)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < fill_bytes / 4

    def table_bytes(cache):
        return [(logc.tobytes(), pvals.tobytes()) for logc, pvals in cache]

    # the same tables as folding the whole fill after the pass, at any
    # thread count
    filled = list(modular._fill_log_terms(f, p, s, pq, 1))
    two_threads = modular._log_term_cache(f, p, s, pq, 2)
    monkeypatch.setattr(modular, "_fill_log_terms", lambda *args: filled)
    after_pass = modular._log_term_cache(f, p, s, pq, 1)
    assert table_bytes(tables) == table_bytes(two_threads) == table_bytes(after_pass)
    assert len(tables) == 1


# -- distances and kernels per column offset ------------------------------------


@pytest.mark.parametrize("half", [False, True])
@pytest.mark.parametrize("target", [None, SMALL_TARGET])
@pytest.mark.parametrize("mesh", sorted(CASES))
def test_chunk_distances_equal_the_two_dimensional_table(mesh, target, half, monkeypatch):
    _, dom, _, _, _ = _problem(mesh)
    if target is not None:
        monkeypatch.setattr(geometry, "PAIR_BLOCK_TARGET", target)
    pq = fl.pair_quadrature(dom, "interior")
    nx = pq.grid[0]
    hx, hy = (*pq.spacing, 0.0)[:2]
    assert hx != hy
    w = dom.cell_measures[0] ** 2
    specs = pq.chunks(half)
    if target is not None:
        assert any(ix1 - ix0 < nx for _, _, _, ix0, ix1 in specs)
    for dy, iy0, iy1, ix0, ix1 in specs:
        c = pq.chunk(dy, iy0, iy1, ix0, ix1, half=half)
        # the distance of every pair from its own offsets, with the 1.0
        # placeholder on the self-pairs
        k = np.arange(ix0, ix1)[:, None] - np.arange(nx)[None, :]
        want = np.sqrt((hx * k) ** 2 + (hy * dy) ** 2)[None]
        if dy == 0:
            want = np.where(k != 0, want, 1.0)
        assert c.dist.shape == want.shape == (1, ix1 - ix0, nx)
        assert np.array_equal(c.dist, want)
        assert not c.dist.flags.writeable and not c.offset_dist.flags.writeable
        assert c.offset_dist.shape == (ix1 - ix0 + nx - 1,)
        # entry m of the vector is offset ix0 - nx + 1 + m
        assert np.array_equal(c.offset_dist[k - (ix0 - nx + 1)], want[0])
        assert np.array_equal(c.by_offset(np.arange(ix0 - nx + 1.0, ix1)), k[None])
        assert c.weights == (2.0 * w if half and dy > 0 else w)


def _stencil_fields(case):
    return {
        "p-2": fl.constant_field(2.0, fl.PAIR),
        "p-2.5": fl.constant_field(P_CONST, fl.PAIR),
        "p-x1": fl.extend_symmetric_mean(fl.parse_field(case["p_x1"], fl.POINT)),
    }


@pytest.mark.parametrize("target", [None, SMALL_TARGET])
@pytest.mark.parametrize("data", ["case-f", "level-rows"])
@pytest.mark.parametrize("s_name", ["constant-s", "point-s"])
@pytest.mark.parametrize("p_name", ["p-2", "p-2.5", "p-x1"])
@pytest.mark.parametrize("mesh", sorted(CASES))
def test_modular_equals_the_per_piece_table_walk(mesh, p_name, s_name, data, target, monkeypatch):
    case, dom, f, _, _ = _problem(mesh)
    if data == "level-rows":
        # rect: grid rows 2 to 4 hold one 0; interval: its one row is never
        # level, and f takes two values, with ties, every fourth cell 1.5
        if mesh == "rect-7x5":
            dom, f = _rect_fn(_bump)
        else:
            f = fl.GridFunction.from_interior(dom, np.where(np.arange(dom.n_cells) % 4 == 0, 1.5, 0.0))
    if target is not None:
        monkeypatch.setattr(geometry, "PAIR_BLOCK_TARGET", target)
    pq = fl.pair_quadrature(dom, "interior")
    p = _stencil_fields(case)[p_name]
    s = S_FIELD if s_name == "constant-s" else fl.parse_field(case["s"], fl.POINT)
    half = s_name == "constant-s"
    for lam in (0.7, 1.0, 3.0):
        got = fl.modular_gagliardo(f, p, s, pq, lam)
        assert got == oracles.stencil_modular(pq, f.interior, p, s, lam, half)


_EDGE_FLOATS = [0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308, 1e-160, 1.3407807929942596e154,
                1.3407807929942597e154, -1e200, 1.7976931348623157e308, np.inf, -np.inf, np.nan, -np.nan]


@settings(max_examples=200)
@example(values=_EDGE_FLOATS)
@given(values=st.lists(st.one_of(
    st.floats(allow_nan=True, allow_infinity=True),
    st.floats(min_value=-2.3e-308, max_value=2.3e-308),
    st.floats(min_value=1e153, max_value=1e155),
), min_size=1, max_size=70))
def test_square_is_bitwise_the_power_two(values):
    # the p = 2 pass squares its term where the general path raises it to
    # p = 2.0; both must give the same bits, NaN and signed zero included
    x = np.array(values, dtype=float)
    with np.errstate(all="ignore"):
        in_place = x.copy()
        in_place **= 2.0
        squared = np.square(x)
        for power in (in_place, x**2.0, np.power(x, 2.0)):
            assert np.array_equal(squared.view(np.uint64), power.view(np.uint64))


# -- overflow in the pair passes: statuses, never a RuntimeWarning ------------


def _alternating_huge(dom):
    return fl.GridFunction.from_interior(dom, np.where(np.arange(dom.n_cells) % 2 == 0, 1e308, -1e308))


def _product(dom):
    return fl.GridFunction.from_callable(dom, lambda x: x[:, 0] * x[:, 1] + 0.5)


def _mean(expr):
    return fl.extend_symmetric_mean(fl.parse_field(expr, fl.POINT))


# (values, p, s, passes of modular_gagliardo, (status, lambda*,
# evaluations)): the closed form makes one pass, the cached (folded) and the
# streamed roots none.  lambda* None is checked against the dense oracle
OVERFLOW_CASES = {
    # the kernel's d^(n + s p) underflows to 0, so the kernel is inf
    "p300-closed-form": (_product, lambda: fl.constant_field(300.0, fl.PAIR), 0.9, 1, ("bracket-failure", math.nan, 1)),
    # the log form adds log w - (n + s p) log d, which does not overflow
    "p300-x1-cached": (_product, lambda: _mean("300 + x1"), 0.9, 0, ("converged", 1.0577904892102197, 43)),
    "p300-x1-x2-streamed": (_product, lambda: _mean("300 + x1 + x2"), 0.9, 0, ("converged", None, 4)),
    # the differences overflow to inf, and a log-sum of inf terms is NaN
    "huge-cached": (_alternating_huge, lambda: _mean("2 + x1"), 0.4, 0, ("bracket-failure", math.nan, 1)),
    "huge-streamed": (_alternating_huge, lambda: _mean("2 + x1 + x2"), 0.4, 0, ("bracket-failure", math.nan, 1)),
}


@pytest.mark.parametrize("case", [*sorted(OVERFLOW_CASES), "embedding-kernel"])
def test_overflowing_pair_passes_keep_their_status_without_a_warning(case, monkeypatch):
    """Inputs that made the kernel, the differences, the cache fill and its
    fold warn keep their statuses, roots and evaluation counts on each
    seminorm path, and warn no more; so does the embedding kernel whose
    power overflows (r within 1e-13 of p), which is inf."""
    dom = fl.build_rectangle((0.0, 0.0), (1.0, 1.0), 16, 16)
    if case == "embedding-kernel":
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            rep = fl.embedding_check(_product(dom), fl.constant_field(2.0, fl.PAIR), 0.5, 0.25, 2.0 * (1 - 1e-13))
        assert rep.kernel_bound == math.inf and not rep.zero_function
        return
    values, p, s, passes, (status, lam, evals) = OVERFLOW_CASES[case]
    made = []
    pass_once = modular.modular_gagliardo
    monkeypatch.setattr(modular, "modular_gagliardo", lambda *args: made.append(args[4]) or pass_once(*args))
    f, pq = values(dom), fl.pair_quadrature(dom, "interior")
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        res = fl.gagliardo_seminorm(f, p(), s, pq)
    assert modular._folds(p(), pq) == (not case.endswith("streamed"))
    assert (res.status, res.iterations, len(made)) == (status, evals, passes)
    if lam is None:
        # log rho(lambda*) of the dense tables, in log form: in the power
        # form the oracle's kernel overflows too
        p_fn = lambda x, y: (600.0 + x[..., 0] + x[..., 1] + y[..., 0] + y[..., 1]) / 2.0
        w, dist, pg, sg = oracles.pair_tables(dom, p_fn, _const_fn(s))
        dv = np.abs(f.interior[:, None] - f.interior[None, :]) / res.lambda_star
        with np.errstate(divide="ignore"):
            logs = np.log(w) + pg * np.log(dv) - (dom.n + sg * pg) * np.log(dist)
        assert abs(logs.max() + math.log(np.sum(np.exp(logs - logs.max())))) <= 1e-10
    else:
        assert res.lambda_star == lam or math.isnan(res.lambda_star) and math.isnan(lam)
