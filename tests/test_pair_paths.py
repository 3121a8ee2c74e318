"""Every way of enumerating pairs, pinned against the dense oracles.

A full-grid interior quadrature takes the offset-stencil chunks; the same
cells passed as an explicit subset take the row blocks.  Shrinking
PAIR_BLOCK_TARGET splits both into many pieces (and the solver's row-block
assembly with them), and PAIR_CACHE_LIMIT = 0 forces the uncached
bisection.  The meshes favour no path: the order s is a point field (so the
kernel is not symmetric), nx != ny, the bounds are not the unit box and
hx != hy, one mesh is an interval, and one quadrature is a box subset.
The symmetric half walk of the stencil, taken only by swap-invariant
integrands, has its own section with constant and mean-extended orders, and
so does the walk trimmed to the grid rows where f is not one constant.
"""

import contextlib
import math
import threading
import tracemalloc

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


@pytest.mark.parametrize("exponent", ["variable", "variable-uncached", "constant"])
@pytest.mark.parametrize("path", PATHS)
@pytest.mark.parametrize("mesh", sorted(CASES))
def test_seminorm_matches_dense_oracle(mesh, path, exponent, monkeypatch):
    case, dom, f, p, s = _problem(mesh)
    pq = _quadrature(dom, path, monkeypatch)
    p_fn = case["p_fn"]
    if exponent == "constant":
        p, p_fn = fl.constant_field(P_CONST, fl.PAIR), _const_fn(P_CONST)
    if exponent == "variable-uncached":
        monkeypatch.setattr(modular, "PAIR_CACHE_LIMIT", 0)
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


@pytest.mark.parametrize("exponent", ["variable", "variable-uncached"])
@pytest.mark.parametrize("target", [None, SMALL_TARGET])
def test_boundary_seminorm_matches_dense_facet_oracle(target, exponent, monkeypatch):
    # the 7 x 5 rectangle's bottom and top facets have width hx, its left
    # and right ones height hy != hx
    case, dom, f, q, t = _problem("rect-7x5")
    assert len(set(dom.facet_measures)) == 2
    if target is not None:
        monkeypatch.setattr(geometry, "PAIR_BLOCK_TARGET", target)
    if exponent == "variable-uncached":
        monkeypatch.setattr(modular, "PAIR_CACHE_LIMIT", 0)
    pq = fl.pair_quadrature(dom, "boundary")
    assert pq.grid is None and (len(pq.chunks()) > 1) == (target is not None)
    want = oracles.dense_modular(dom, f.boundary, case["p_fn"], case["s_fn"], scope="boundary")(0.8)
    assert fl.modular_gagliardo(f, q, t, pq, 0.8) == pytest.approx(want, rel=1e-12)
    res = fl.boundary_gagliardo_seminorm(f, q, t, pq)
    assert res.status == fl.CONVERGED
    assert abs(res.modular_at_lambda - 1.0) <= 1e-10
    want = oracles.dense_gagliardo(dom, f.boundary, case["p_fn"], case["s_fn"], scope="boundary")
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
    _, dom, f, p, s = _problem("rect-7x5")
    passes = _count_passes(monkeypatch)
    res = fl.gagliardo_seminorm(f, p, s, fl.pair_quadrature(dom, "interior"))
    assert len(passes) == 1
    assert res.iterations > 2


def test_uncached_bisection_makes_one_pass_per_evaluation(monkeypatch):
    _, dom, f, p, s = _problem("interval-23")
    monkeypatch.setattr(modular, "PAIR_CACHE_LIMIT", 0)
    passes = _count_passes(monkeypatch)
    filled = _record_fill(monkeypatch)
    res = fl.gagliardo_seminorm(f, p, s, fl.pair_quadrature(dom, "interior"))
    # the fill stops at its first piece, whose table passes the limit
    assert len(filled) == 1
    assert len(passes) == 1 + res.iterations


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
        with contextlib.closing(original(*args)) as pieces:
            for piece in pieces:
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
def test_collapsed_cache_matches_uncached_bisection(name, monkeypatch):
    dom, f, p, s, _, _, path = _collapse_problem(name)
    pq = _quadrature(dom, path, monkeypatch)
    cached = fl.gagliardo_seminorm(f, p, s, pq)
    monkeypatch.setattr(modular, "PAIR_CACHE_LIMIT", 0)
    uncached = fl.gagliardo_seminorm(f, p, s, pq)
    assert cached.iterations == uncached.iterations
    assert cached.lambda_star == pytest.approx(uncached.lambda_star, rel=1e-12)


# folded (entries, tables) per COLLAPSE_CASES entry and piece target.  At the
# default target every offset is one piece of all 7 columns, so an exponent
# of x1 alone folds into one table of the 7 x 7 column pairs, and one of x2
# alone into one entry per row of each offset: 5 + 4 + 3 + 2 + 1, whose
# mirror offsets fold on the full walk.  With SMALL_TARGET every piece is one
# grid row of the column run (0, 2), (2, 4), (4, 6) or (6, 7), and the dy = 0
# pieces of a run drop their self-pairs, so x1 leaves two tables per run:
# 7 x 6 + 7 x 7 entries.  x2 leaves one entry per piece but the first of each
# run on the full walk (25 - 1 per run), every one on the half walk (15 per
# run).  The row blocks of a point set hold one entry per point.
FOLD_COUNTS = {
    "mean-x1": {None: (49, 1), SMALL_TARGET: (42 + 49, 8)},
    "mean-x1-constant-s": {None: (49, 1), SMALL_TARGET: (42 + 49, 8)},
    "mean-x2-squared": {None: (15, 5), SMALL_TARGET: (96, 96)},
    "mean-x2-squared-constant-s": {None: (15, 5), SMALL_TARGET: (60, 60)},
    # one entry per pair of the half walk: 5 rows of 7 x 6 at dy = 0, then
    # 4 + 3 + 2 + 1 rows of 7 x 7
    "mean-x1-x2-constant-s": {None: (5 * 42 + 10 * 49, 5), SMALL_TARGET: (5 * 42 + 10 * 49, 60)},
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
    tables = modular._log_term_cache(f, p, s, pq, None)
    assert (sum(logc.size for logc, _ in tables), len(tables)) == FOLD_COUNTS[name][target]
    assert all(logc.shape == pvals.shape for logc, pvals in tables)
    # PAIR_CACHE_LIMIT bounds the tables, which hold no more than the fill
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
def test_exponent_of_every_coordinate_keeps_one_entry_per_pair(path, monkeypatch):
    _, dom, f, p, s = _problem("rect-7x5")
    pq = _quadrature(dom, path, monkeypatch)
    assert _cache_entries(f, p, s, pq) == pq.n_pairs


@pytest.mark.parametrize("path", ["grid", "explicit-subset"])
def test_cache_limit_counts_the_held_tables(path, monkeypatch):
    case, dom, f, p, s = _problem("rect-7x5")
    pq = _quadrature(dom, path, monkeypatch)
    p_x1 = fl.parse_field(case["p_x1"], fl.PAIR)
    for pf in (p, p_x1, fl.extend_symmetric_mean(fl.parse_field(case["p_x1"], fl.POINT))):
        for sf in (s, S_FIELD):
            held = _cache_entries(f, pf, sf, pq)
            assert held <= _fill_entries(f, pf, sf, pq)
            # tables of exactly the limit are kept, one entry more is not
            with monkeypatch.context() as m:
                m.setattr(modular, "PAIR_CACHE_LIMIT", held)
                assert sum(logc.size for logc, _ in modular._log_term_cache(f, pf, sf, pq, None)) == held
                m.setattr(modular, "PAIR_CACHE_LIMIT", held - 1)
                assert modular._log_term_cache(f, pf, sf, pq, None) is None


def test_cache_limit_counts_entries_not_pairs(monkeypatch):
    case, dom, f, _, _ = _problem("rect-7x5")
    p = fl.extend_symmetric_mean(fl.parse_field(case["p_x1"], fl.POINT))
    pq = fl.pair_quadrature(dom, "interior")
    entries = _fill_entries(f, p, S_FIELD, pq)
    assert entries < pq.n_pairs
    monkeypatch.setattr(modular, "PAIR_CACHE_LIMIT", (entries + pq.n_pairs) // 2)
    passes = _count_passes(monkeypatch)
    cached = fl.gagliardo_seminorm(f, p, S_CONST, pq)
    assert len(passes) == 1
    monkeypatch.setattr(modular, "PAIR_CACHE_LIMIT", 0)
    filled = _record_fill(monkeypatch)
    uncached = fl.gagliardo_seminorm(f, p, S_CONST, pq)
    # one cached pass, then one stopped fill of one piece and a pass per
    # evaluation
    assert len(filled) == 1
    assert len(passes) == 2 + uncached.iterations
    assert cached.lambda_star == pytest.approx(uncached.lambda_star, rel=1e-12)


def test_cache_limit_bounds_the_folded_tables_not_the_fill(monkeypatch):
    # an exponent of x1 alone with a point-field s: the fill walks every row
    # offset, (2 ny - 1) nx^2 entries, and folds them into nx^2
    case, dom, f, _, s = _problem("rect-7x5")
    nx, ny = 7, 5
    p = fl.extend_symmetric_mean(fl.parse_field(case["p_x1"], fl.POINT))
    pq = fl.pair_quadrature(dom, "interior")
    assert _fill_entries(f, p, s, pq) == (2 * ny - 1) * nx * nx
    monkeypatch.setattr(modular, "PAIR_CACHE_LIMIT", nx * nx)
    passes = _count_passes(monkeypatch)
    cached = fl.gagliardo_seminorm(f, p, s, pq)
    assert len(passes) == 1
    monkeypatch.setattr(modular, "PAIR_CACHE_LIMIT", 0)
    uncached = fl.gagliardo_seminorm(f, p, s, pq)
    assert cached.lambda_star == pytest.approx(uncached.lambda_star, rel=1e-12)


def test_fill_stops_at_the_piece_that_passes_the_limit(monkeypatch):
    # an exponent of both coordinates: most pieces start a table of their own
    _, dom, f, p, s = _problem("rect-7x5")
    monkeypatch.setattr(geometry, "PAIR_BLOCK_TARGET", SMALL_TARGET)
    pq = fl.pair_quadrature(dom, "interior")
    pieces = list(modular._fill_log_terms(f, p, s, pq, None))

    def held(k):
        """Entries the tables hold once the first k pieces are folded."""
        with monkeypatch.context() as m:
            m.setattr(modular, "_fill_log_terms", lambda *args: iter(pieces[:k]))
            return sum(logc.size for logc, _ in modular._log_term_cache(f, p, s, pq, None))

    limit = pq.n_pairs // 3
    stop = next(k for k in range(len(pieces)) if held(k + 1) > limit)
    assert held(stop) <= limit and 0 < stop < len(pieces) - 1

    def run(threads):
        monkeypatch.setattr(modular, "PAIR_CACHE_LIMIT", limit)
        filled = _record_fill(monkeypatch)
        before = threading.active_count()
        res = fl.gagliardo_seminorm(f, p, s, pq, threads=threads)
        assert threading.active_count() == before
        assert len(filled) == stop + 1
        return res

    res = run(1)
    monkeypatch.setattr(modular, "PAIR_CACHE_LIMIT", 0)
    uncached = fl.gagliardo_seminorm(f, p, s, pq)
    assert (res.lambda_star, res.bracket, res.iterations) == (
        uncached.lambda_star,
        uncached.bracket,
        uncached.iterations,
    )
    assert repr(run(2)) == repr(res)


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

    def full(pq, fn, threads=None, symmetric=False, values=None):
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
        return fl.modular_gagliardo(f, p, s, pq, 0.8), semi.lambda_star, semi.modular_at_lambda

    seen = _record_offsets(monkeypatch)
    got = results()
    # every chunk of both passes, each row offset from -(ny - 1) to ny - 1
    assert sorted(seen) == sorted(spec[0] for spec in 2 * pq.chunks())
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


# -- the walk trimmed to rows that are not inert -----------------------------


def _rect_fn(fn):
    """A grid function on the rect-7x5 mesh from a callable of (m, 2) points."""
    dom = CASES["rect-7x5"]["dom"]()
    return dom, fl.GridFunction.from_callable(dom, fn)


def _bump(x):
    # radius 1/2 around a point of the bottom edge x2 = 1: grid rows 0 and 1
    return fl.mollifier_profile(2.0 * (x - np.array([0.5, 1.0])))


# f on the rect-7x5 mesh (rows at x2 = 1.125, 1.375, ..., 2.125)
TRIM_DATA = {
    "bump-bottom-edge": _bump,
    # one constant per row, a different one on each: only dy = 0 is inert
    "rows-of-different-constants": lambda x: x[:, 1] ** 2,
    # rows 1 to 3 hold 0.7, rows 0 and 4 vary: a chunk is never split, so
    # one that spans the whole offset keeps its inert middle rows
    "inert-middle-block": lambda x: np.where(np.abs(x[:, 1] - 1.625) < 0.3, 0.7, np.sin(3.0 * x[:, 0])),
    "no-constant-row": lambda x: np.sin(np.pi * x[:, 0]) + x[:, 1],
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


def _untrimmed_modular(f, p, s, pq, lam, monkeypatch):
    """modular_gagliardo over the stencil its caller asks for, never
    trimmed: the walk as it ran before trimming existed."""
    original = geometry.map_pairs

    def untrimmed(pq, fn, threads=None, symmetric=False, values=None):
        return original(pq, fn, threads, symmetric)

    with monkeypatch.context() as m:
        for mod in (geometry, modular):
            m.setattr(mod, "map_pairs", untrimmed)
        return fl.modular_gagliardo(f, p, s, pq, lam)


def _table_rows(specs):
    return sum((iy1 - iy0) * (ix1 - ix0) for _, iy0, iy1, ix0, ix1 in specs)


@pytest.mark.parametrize("target", [None, SMALL_TARGET])
@pytest.mark.parametrize("data", sorted(TRIM_DATA))
def test_trimmed_walk_matches_dense_oracle(data, target, monkeypatch):
    if target is not None:
        monkeypatch.setattr(geometry, "PAIR_BLOCK_TARGET", target)
    dom, f = _rect_fn(TRIM_DATA[data])
    p, s, p_fn, s_fn = HALF_FIELDS["constant-p-constant-s"](CASES["rect-7x5"])
    pq = fl.pair_quadrature(dom, "interior")
    seen = _record_specs(monkeypatch)
    for lam in (0.7, 1.0, 3.0):
        got = fl.modular_gagliardo(f, p, s, pq, lam)
        assert got == pytest.approx(oracles.dense_modular(dom, f.interior, p_fn, s_fn)(lam), rel=1e-12)
    res = fl.gagliardo_seminorm(f, p, s, pq)
    assert res.lambda_star == pytest.approx(oracles.dense_gagliardo(dom, f.interior, p_fn, s_fn), rel=1e-10)
    assert abs(res.modular_at_lambda - 1.0) <= 1e-14

    untrimmed = pq.chunks(half=True)
    walk = pq.chunks(half=True, values=f.interior)
    assert seen == 4 * walk
    if data == "no-constant-row":
        assert walk == untrimmed
        assert got == _untrimmed_modular(f, p, s, pq, 3.0, monkeypatch)
    elif data == "inert-middle-block" and target is None:
        # each whole-offset chunk starts and ends on a varying row
        assert walk == untrimmed
    else:
        assert _table_rows(walk) < _table_rows(untrimmed)


@pytest.mark.parametrize("target", [None, SMALL_TARGET])
@pytest.mark.parametrize("data", sorted(TRIM_DATA))
def test_trimmed_chunks_skip_only_inert_row_pairs(data, target, monkeypatch):
    if target is not None:
        monkeypatch.setattr(geometry, "PAIR_BLOCK_TARGET", target)
    dom, f = _rect_fn(TRIM_DATA[data])
    pq = fl.pair_quadrature(dom, "interior")
    nx = pq.grid[0]
    vals = f.interior
    row_const = [np.unique(vals[iy * nx : (iy + 1) * nx]).size == 1 for iy in range(pq.grid[1])]

    def inert(iy, jy):
        return row_const[iy] and row_const[jy] and vals[iy * nx] == vals[jy * nx]

    for half in (False, True):
        full = pq.chunks(half)
        trimmed = pq.chunks(half, vals)
        assert len(trimmed) <= len(full)
        kept = {}
        for dy, iy0, iy1, ix0, ix1 in trimmed:
            # a trimmed chunk starts and ends on a row that is not inert
            assert not inert(iy0, iy0 + dy) and not inert(iy1 - 1, iy1 - 1 + dy)
            for iy in range(iy0, iy1):
                kept.setdefault((dy, iy), set()).update(range(ix0, ix1))
        for dy, iy0, iy1, ix0, ix1 in full:
            for iy in range(iy0, iy1):
                # every row the trim left out is inert, every other row is whole
                cols = kept.get((dy, iy), set())
                assert cols >= set(range(ix0, ix1)) or inert(iy, iy + dy)


def test_bump_walk_visits_only_the_rows_it_reaches(monkeypatch):
    dom, f = _rect_fn(_bump)
    pq = fl.pair_quadrature(dom, "interior")
    # the bump is nonzero on grid rows 0 and 1 and exactly 0 on rows 2 to 4
    rows = f.interior.reshape(5, 7)
    assert np.all(rows[2:] == 0.0) and np.all(np.ptp(rows[:2], axis=1) > 0)
    p, s, _, _ = HALF_FIELDS["constant-p-constant-s"](CASES["rect-7x5"])
    seen = _record_specs(monkeypatch)
    fl.modular_gagliardo(f, p, s, pq, 1.0)
    # per dy = 0..4 the rows iy with row iy or iy + dy in the bump: 2, 2, 2, 2, 1
    assert sum(iy1 - iy0 for _, iy0, iy1, _, _ in seen) == 9
    assert sum(iy1 - iy0 for _, iy0, iy1, _, _ in pq.chunks(half=True)) == 15


def test_trimmed_walk_is_thread_invariant(monkeypatch):
    monkeypatch.setattr(geometry, "PAIR_BLOCK_TARGET", SMALL_TARGET)
    dom, f = _rect_fn(_bump)
    pq = fl.pair_quadrature(dom, "interior")
    p = fl.constant_field(P_CONST, fl.PAIR)
    assert len(pq.chunks(half=True, values=f.interior)) > 8

    def results(threads):
        semi = fl.gagliardo_seminorm(f, p, S_CONST, pq, threads=threads)
        return (
            fl.modular_gagliardo(f, p, S_CONST, pq, 0.9, threads=threads),
            semi.lambda_star,
            semi.modular_at_lambda,
            fl.trace_check(f, p, fl.constant_field(1.5, fl.BOUNDARY), S_CONST, pq, threads=threads).full_norm,
        )

    assert results(1) == results(4)


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
def test_nonfinite_rows_are_walked_as_before(name, target, monkeypatch):
    if target is not None:
        monkeypatch.setattr(geometry, "PAIR_BLOCK_TARGET", target)
    rows, nan = NONFINITE_ROWS[name]
    dom, f = _with_rows(rows)
    pq = fl.pair_quadrature(dom, "interior")
    p = fl.constant_field(P_CONST, fl.PAIR)
    with np.errstate(all="ignore"):
        got = fl.modular_gagliardo(f, p, S_CONST, pq, 1.0)
        want = _untrimmed_modular(f, p, S_CONST, pq, 1.0, monkeypatch)
    assert _same(got, want)
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
def test_walk_is_trimmed_only_when_skipped_terms_vanish(name, monkeypatch):
    dom, f = _rect_fn(_bump)
    p, s = _gated_fields(CASES["rect-7x5"])[name]
    pq = fl.pair_quadrature(dom, "interior")
    seen = _record_specs(monkeypatch)
    with np.errstate(all="ignore"):
        got = fl.modular_gagliardo(f, p, s, pq, 1.0)
        assert seen == pq.chunks(modular._half_walk(p, s))
        assert _same(got, _untrimmed_modular(f, p, s, pq, 1.0, monkeypatch))


# -- the row-summed pass ------------------------------------------------------


def _record_collapses(monkeypatch):
    """Record the axes each piece of a pass sums its term along before the
    kernel: () where the kernel varies along every axis of the piece."""
    seen = []
    original = modular._collapsed_axes

    def recording(shape, kshape):
        seen.append(original(shape, kshape))
        return seen[-1]

    monkeypatch.setattr(modular, "_collapsed_axes", recording)
    return seen


def _term_by_term(f, p, s, pq, lam, monkeypatch):
    """modular_gagliardo with nothing summed before the kernel: every piece
    multiplied out and summed term by term, as the pass ran before the
    row sums."""
    with monkeypatch.context() as m:
        m.setattr(modular, "_collapsed_axes", lambda shape, kshape: ())
        return fl.modular_gagliardo(f, p, s, pq, lam)


# per name, a function of the rect-7x5 case giving (f, p, s, p_fn, s_fn),
# and whether the kernel is one table along the grid rows of a piece, so the
# pass sums them first.  f None is the case's function, which has no
# constant row
ROW_SUM_CASES = {
    "constant-untrimmed": (lambda case: (None, fl.constant_field(P_CONST, fl.PAIR), S_FIELD,
                                         _const_fn(P_CONST), _const_fn(S_CONST)), True),
    "constant-trimmed": (lambda case: (_bump, fl.constant_field(P_CONST, fl.PAIR), S_FIELD,
                                       _const_fn(P_CONST), _const_fn(S_CONST)), True),
    # 0^0 = 1: every self-pair term is w, so only zeroing them after the row
    # sum keeps them out
    "p-zero": (lambda case: (None, fl.constant_field(0.0, fl.PAIR), S_FIELD,
                             _const_fn(0.0), _const_fn(S_CONST)), True),
    # the uncached bisection's pass
    "uncached-p-of-x1": (lambda case: (None, fl.extend_symmetric_mean(fl.parse_field(case["p_x1"], fl.POINT)),
                                       S_FIELD, _x1_mean, _const_fn(S_CONST)), True),
    # n + s p varies along the rows
    "point-s-of-x2": (lambda case: (None, fl.constant_field(P_CONST, fl.PAIR), fl.parse_field(case["s"], fl.POINT),
                                    _const_fn(P_CONST), case["s_fn"]), False),
    "pair-p-of-x2": (lambda case: (None, fl.extend_symmetric_mean(fl.parse_field("2 + x2^2/10", fl.POINT)),
                                   S_FIELD, _x2_mean, _const_fn(S_CONST)), False),
}

# pieces of two grid rows of the rect-7x5 mesh, and one where an offset has
# an odd number of rows
TWO_ROWS = 2 * 7 * 7


@pytest.mark.parametrize("target", [None, TWO_ROWS])
@pytest.mark.parametrize("name", sorted(ROW_SUM_CASES))
def test_row_summed_pass_matches_dense_oracle(name, target, monkeypatch):
    if target is not None:
        monkeypatch.setattr(geometry, "PAIR_BLOCK_TARGET", target)
    build, collapses = ROW_SUM_CASES[name]
    case = CASES["rect-7x5"]
    f_fn, p, s, p_fn, s_fn = build(case)
    if f_fn is None:
        _, dom, f, _, _ = _problem("rect-7x5")
    else:
        dom, f = _rect_fn(f_fn)
    pq = fl.pair_quadrature(dom, "interior")
    trimmed = pq.chunks(half=True, values=f.interior) != pq.chunks(half=True)
    assert trimmed == (name == "constant-trimmed")
    dense = oracles.dense_modular(dom, f.interior, p_fn, s_fn)
    lams = (0.7, 1.0, 3.0)
    with monkeypatch.context() as m:
        seen = _record_collapses(m)
        got = [fl.modular_gagliardo(f, p, s, pq, lam) for lam in lams]
    assert got == pytest.approx([dense(lam) for lam in lams], rel=1e-12)
    # pieces of one grid row have nothing to sum
    assert set(seen) == ({(), (0,)} if collapses else {()})
    if name == "uncached-p-of-x1":
        monkeypatch.setattr(modular, "PAIR_CACHE_LIMIT", 0)
        passes = _count_passes(monkeypatch)
        filled = _record_fill(monkeypatch)
        res = fl.gagliardo_seminorm(f, p, s, pq)
        assert len(filled) == 1
        assert len(passes) == 1 + res.iterations
        assert res.status == fl.CONVERGED
        assert res.modular_at_lambda == pytest.approx(dense(res.lambda_star), rel=1e-12)
        assert res.lambda_star == pytest.approx(oracles.dense_gagliardo(dom, f.interior, p_fn, s_fn), rel=1e-10)


# one cell of 1.1e154 in the middle of 16^2 cells, p = 2, s = 1/2: every
# term is finite, but where the row offset pairs the spike's column with
# itself two of a piece's grid rows hold 1.21e308, and their sum overflows.
# rho(1) and the root as the term-by-term pass gives them
SPIKE_RHO1 = 1.2590386282372855e308
SPIKE_LAMBDA = 1.1220689052982823e154


def test_row_sum_that_overflows_is_summed_term_by_term(monkeypatch):
    dom = fl.build_rectangle((0.0, 0.0), (1.0, 1.0), 16, 16)
    vals = np.zeros(dom.n_cells)
    vals[8 * 16 + 8] = 1.1e154
    f = fl.GridFunction.from_interior(dom, vals)
    p = fl.constant_field(2.0, fl.PAIR)
    pq = fl.pair_quadrature(dom, "interior")
    rho1 = fl.modular_gagliardo(f, p, 0.5, pq, 1.0)
    assert math.isfinite(rho1)
    assert rho1 == pytest.approx(SPIKE_RHO1, rel=1e-12)
    assert rho1 == pytest.approx(_term_by_term(f, p, 0.5, pq, 1.0, monkeypatch), rel=1e-12)
    dense = oracles.dense_modular(dom, vals, _const_fn(2.0), _const_fn(0.5))
    assert rho1 == pytest.approx(dense(1.0), rel=1e-12)
    res = fl.gagliardo_seminorm(f, p, 0.5, pq)
    assert res.status == fl.CONVERGED
    assert res.lambda_star == pytest.approx(SPIKE_LAMBDA, rel=1e-12)


@pytest.mark.parametrize("name", ["kernel-overflow", *sorted(NONFINITE_ROWS)])
def test_nonfinite_row_sums_keep_the_term_by_term_result(name, monkeypatch):
    if name == "kernel-overflow":
        # w / d^542 is inf at the nearest pairs, and 0 * inf is NaN
        dom, f = _rect_fn(_bump)
        p, s = _gated_fields(CASES["rect-7x5"])[name]
        nan = True
    else:
        (dom, f), nan = _with_rows(NONFINITE_ROWS[name][0]), NONFINITE_ROWS[name][1]
        p, s = fl.constant_field(P_CONST, fl.PAIR), S_FIELD
    pq = fl.pair_quadrature(dom, "interior")
    with np.errstate(all="ignore"), monkeypatch.context() as m:
        seen = _record_collapses(m)
        got = fl.modular_gagliardo(f, p, s, pq, 1.0)
        want = _term_by_term(f, p, s, pq, 1.0, monkeypatch)
    # the trimmed walk of a row of -inf among constant rows has one row per piece
    assert ((0,) in seen) == (name != "row-of-minus-inf")
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
@pytest.mark.parametrize("walk", ["trimmed", "untrimmed"])
@pytest.mark.parametrize("s_name", ["constant-s", "point-s"])
@pytest.mark.parametrize("p_name", ["p-2", "p-2.5", "p-x1"])
@pytest.mark.parametrize("mesh", sorted(CASES))
def test_modular_equals_the_per_piece_table_walk(mesh, p_name, s_name, walk, target, monkeypatch):
    case, dom, f, _, _ = _problem(mesh)
    if mesh == "rect-7x5":
        # grid rows 2 to 4 hold one 0, so a constant p trims them
        dom, f = _rect_fn(_bump)
    if target is not None:
        monkeypatch.setattr(geometry, "PAIR_BLOCK_TARGET", target)
    pq = fl.pair_quadrature(dom, "interior")
    p = _stencil_fields(case)[p_name]
    s = S_FIELD if s_name == "constant-s" else fl.parse_field(case["s"], fl.POINT)
    half = s_name == "constant-s"
    trims = walk == "trimmed" and p_name != "p-x1" and s_name == "constant-s" and mesh == "rect-7x5"
    trim = f.interior if trims else None
    if trims:
        assert pq.chunks(half, trim) != pq.chunks(half)
    for lam in (0.7, 1.0, 3.0):
        if walk == "trimmed":
            got = fl.modular_gagliardo(f, p, s, pq, lam)
        else:
            got = _untrimmed_modular(f, p, s, pq, lam, monkeypatch)
        assert got == oracles.stencil_modular(pq, f.interior, p, s, lam, half, trim)


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
