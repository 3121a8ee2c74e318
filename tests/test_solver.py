"""The boundary-load energy, its gradient, and the descent solver."""

import dataclasses
import hashlib
import json
import sys
import threading
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import fraclab as fl
from fraclab import cli, geometry, solver
from fraclab.errors import ProblemError
from fraclab.solver import LINE_SEARCH_FAILURE, NONCONVERGED

import oracles

PI = 3.141592653589793


def fn(dom, callable_):
    return fl.GridFunction.from_callable(dom, callable_)


def quadratic_problem(dom, g_expr="1", s=0.25):
    g = fl.function_on_domain(fl.parse_field(g_expr, fl.POINT), dom)
    return fl.EnergyProblem(
        dom, fl.constant_field(2.0, fl.PAIR), fl.constant_field(s, fl.PAIR), g, 6.0
    )


random_problem = oracles.random_energy_problem


# -- energy values -----------------------------------------------------------


def test_energy_of_constant_closed_form(square8):
    """Constants kill the pair term: G(c) = c^2/2 |domain| - c |boundary|."""
    prob = quadratic_problem(square8)
    for c in (0.0, 2.0, -1.5):
        u = fn(square8, lambda x, c=c: np.full(x.shape[0], c))
        assert fl.energy(u, prob) == pytest.approx(c * c / 2.0 - 4.0 * c, abs=1e-12)


def test_energy_identity_golden_1d():
    """u(x) = x with p = 2, s = 1/4, no load: the two quadratic terms
    integrate to 4/15 and 1/6, totalling 13/30."""
    dom = fl.build_interval(0.0, 1.0, 256)
    z = fn(dom, lambda x: np.zeros(x.shape[0]))
    prob = fl.EnergyProblem(dom, fl.constant_field(2.0, fl.PAIR), fl.constant_field(0.25, fl.PAIR), z, 2.0)
    u = fn(dom, lambda x: x[:, 0])
    e = fl.energy(u, prob)
    assert e == pytest.approx(0.4332806968161456, rel=1e-10)
    assert abs(e - 13.0 / 30.0) < 1e-4


def test_energy_thread_invariance():
    prob, u = random_problem(3)
    assert fl.energy(u, prob, threads=1) == fl.energy(u, prob, threads=4)
    g1 = fl.gradient(u, prob, threads=1).interior
    g4 = fl.gradient(u, prob, threads=4).interior
    assert np.array_equal(g1, g4)


# -- gradient ----------------------------------------------------------------


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_gradient_matches_finite_differences(seed):
    prob, u = random_problem(seed)
    g_pkg = fl.gradient(u, prob).interior
    g_fd = oracles.fd_gradient(prob, u.interior, h=1e-6)
    rel = float(np.max(np.abs(g_pkg - g_fd)) / np.max(np.abs(g_fd)))
    assert rel < 1e-5


def test_p2_gradient_is_affine(square8):
    prob = quadratic_problem(square8)
    rng = np.random.default_rng(11)
    u = rng.standard_normal(square8.n_cells)
    v = rng.standard_normal(square8.n_cells)

    def grad(w):
        return fl.gradient(fl.GridFunction.from_interior(square8, w), prob).interior

    lhs = grad(u + v) + grad(np.zeros_like(u))
    rhs = grad(u) + grad(v)
    scale = float(np.max(np.abs(rhs))) + 1.0
    assert np.max(np.abs(lhs - rhs)) < 1e-12 * scale


def test_el_residual_at_zero_is_load_supremum(square8):
    prob = quadratic_problem(square8, g_expr="1 + x1")
    b = np.zeros(square8.n_cells)
    np.add.at(b, square8.facet_cells, square8.facet_measures * prob.g.boundary)
    z = fn(square8, lambda x: np.zeros(x.shape[0]))
    # the pair and bulk gradients vanish at the origin, leaving minus the load
    assert fl.el_residual(z, prob) == pytest.approx(float(np.max(np.abs(b))), rel=1e-15)
    assert fl.boundary_pairing(z, prob) == 0.0


def test_boundary_pairing_holder_chain(square8):
    """|load pairing| <= L1 norm of g Tu <= 2.01 ||g||_r ||Tu||_r'."""
    prob, u = random_problem(5)
    dom = prob.domain
    pairing = fl.boundary_pairing(u, prob)
    gu = prob.g.boundary * u.boundary
    l1 = float(np.sum(dom.facet_measures * np.abs(gu)))
    assert abs(pairing) <= l1 + 1e-12
    r = fl.constant_field(6.0, fl.BOUNDARY)
    rconj = fl.constant_field(1.2, fl.BOUNDARY)
    ng = fl.luxemburg_norm(prob.g, r, "boundary").lambda_star
    nu = fl.luxemburg_norm(u, rconj, "boundary").lambda_star
    assert l1 <= 2.01 * ng * nu


# -- kernels against the masked oracle, bit for bit ------------------------


def bits(x):
    """The IEEE bit patterns, so that -0.0 and +0.0 (and NaN signs) differ."""
    return np.asarray(x, dtype=float).view(np.int64)


def kernel_problem(exponent):
    dom = fl.build_rectangle((0.0, 0.0), (1.0, 1.5), 8, 6)
    g = fn(dom, lambda x: 1.0 + 0.3 * np.cos(2.0 * x[:, 0]))
    p, s = {
        "p2": (fl.constant_field(2.0, fl.PAIR), 0.25),
        # s = 0.6 keeps the critical trace exponent above r' = 1.2
        "p1.5": (fl.constant_field(1.5, fl.PAIR), 0.6),
        "extend-mean": (fl.extend_symmetric_mean(fl.parse_field("1.7 + x1/2", fl.POINT)), 0.45),
        # p of the second or of the first point alone: one row for every
        # row of a block, or one column
        "one-row": (fl.parse_field("1.5 + 0*y1", fl.PAIR), 0.6),
        "per-row": (fl.parse_field("1.5 + 0*x1", fl.PAIR), 0.6),
        # a constant p with an s of the first point: one table per block
        "p2-point-s": (fl.constant_field(2.0, fl.PAIR), fl.parse_field("0.2 + x1/10", fl.POINT)),
    }[exponent]
    if not isinstance(s, fl.ExponentField):
        s = fl.constant_field(s, fl.PAIR)
    return fl.EnergyProblem(dom, p, s, g, 6.0)


def kernel_input(case, m):
    rng = np.random.default_rng(3)
    if case == "ties":
        return np.round(rng.standard_normal(m), 1)
    if case == "runs":
        return np.repeat(rng.standard_normal(m // 6 + 1), 6)[:m]
    if case == "signed-zeros":
        u = np.round(rng.standard_normal(m), 1)
        u[::3] = -0.0
        u[1::3] = 0.0
        return u
    if case == "huge":
        return 1e200 * rng.standard_normal(m)
    u = rng.standard_normal(m)
    u[m // 2] = np.nan
    return u


KERNEL_CASES = ["ties", "runs", "signed-zeros", "huge", "nan"]


@pytest.mark.parametrize("threads", [1, 2])
@pytest.mark.parametrize("case", KERNEL_CASES)
@pytest.mark.parametrize("exponent", ["p2", "p1.5", "extend-mean", "p2-point-s"])
def test_kernels_match_masked_oracle_bit_for_bit(exponent, case, threads, monkeypatch):
    """The p = 2 kernels (product, square, halving) and the copysign power
    give the bits of the masked kernels: a -0.0 difference stays -0.0 up to
    the column sums, and no sum that reaches the gradient can be -0.0."""
    monkeypatch.setattr(geometry, "PAIR_BLOCK_TARGET", 200)
    prob = kernel_problem(exponent)
    asm = solver._assembly(prob)
    assert len(asm.blocks) > 1
    m = prob.domain.n_cells
    u = kernel_input(case, m)
    d = geometry.differences(u[:, None], u)
    if case == "signed-zeros":
        assert np.any((d == 0.0) & np.signbit(d)) and np.any((d == 0.0) & ~np.signbit(d))
    if case in ("ties", "runs"):
        assert np.unique(u).size < m
    with np.errstate(over="raise"):
        e = asm.energy(u, threads)
        assert bits(e) == bits(oracles.masked_block_energy(prob, u, threads))
        g = asm.gradient(u, threads)
        assert np.array_equal(bits(g), bits(oracles.masked_block_gradient(prob, u, threads)))
    if case == "huge" and exponent == "p2":
        assert e == np.inf
    if case == "nan":
        assert np.isnan(e) and np.all(np.isnan(g))


@pytest.mark.parametrize("exponent", ["p2", "p1.5", "extend-mean"])
def test_kernels_match_masked_oracle_where_the_mesh_is_not_dyadic(exponent, monkeypatch):
    """On 10 x 6 cells of [0, 1] x [0, 1.3] the coordinates are not dyadic:
    a constant p's kernel, from the offsets, rounds apart from the one built
    from coordinate differences in some last bits, so energy and gradient
    agree with the masked kernels within rel 1e-14, and a variable p's
    table, built from the differences, still to the bit."""
    monkeypatch.setattr(geometry, "PAIR_BLOCK_TARGET", 600)
    base = kernel_problem(exponent)
    dom = fl.build_rectangle((0.0, 0.0), (1.0, 1.3), 10, 6)
    prob = fl.EnergyProblem(dom, base.p, base.s, fn(dom, lambda x: 1.0 + 0.3 * np.cos(2.0 * x[:, 0])), 6.0)
    asm = solver._assembly(prob)
    assert len(asm.blocks) > 1
    u = kernel_input("ties", dom.n_cells)
    e, g = asm.energy(u), asm.gradient(u)
    e_want, g_want = oracles.masked_block_energy(prob, u), oracles.masked_block_gradient(prob, u)
    if exponent == "extend-mean":
        assert bits(e) == bits(e_want) and np.array_equal(bits(g), bits(g_want))
    else:
        kern, _ = oracles.dense_pair_kernel(prob)
        rows = np.vstack([kernel_rows(asm, blk, blk[1] - blk[0]) for blk in asm.blocks])
        assert np.count_nonzero(rows != kern) > 0
        assert e == pytest.approx(e_want, rel=1e-14)
        assert np.allclose(g, g_want, rtol=1e-14, atol=1e-14 * np.max(np.abs(g_want)))


# a block target of 4096 puts the 48 cells of kernel_problem in one block
# of 2304 entries: gradient tiles of two rows, energy leaves of 72 entries,
# which straddle rows
STRADDLING_TARGET = 4096


@pytest.mark.parametrize("case", KERNEL_CASES)
@pytest.mark.parametrize("exponent", ["p2", "p1.5", "extend-mean", "one-row", "per-row", "p2-point-s"])
def test_straddling_tiles_match_masked_oracle_bit_for_bit(exponent, case, monkeypatch):
    """The tiles and leaves give the bits of the masked kernels over whole
    blocks, also where a leaf straddles two rows."""
    monkeypatch.setattr(geometry, "PAIR_BLOCK_TARGET", STRADDLING_TARGET)
    prob = kernel_problem(exponent)
    asm = solver._assembly(prob)
    m = prob.domain.n_cells
    assert [blk[:2] for blk in asm.blocks] == [(0, m)] and solver._tile_rows(m) == 2
    u = kernel_input(case, m)
    with np.errstate(over="raise"):
        assert bits(asm.energy(u)) == bits(oracles.masked_block_energy(prob, u))
        assert np.array_equal(bits(asm.gradient(u)), bits(oracles.masked_block_gradient(prob, u)))


def kernel_rows(asm, blk, tile):
    """The kernel of a block's rows as one (rows, M) array, read through
    ``_times_kernel`` a tile of rows at a time."""
    a, b = blk[:2]
    m = asm.pq.n_points
    out = np.empty((b - a, m))
    for r0 in range(0, b - a, tile):
        r1 = min(r0 + tile, b - a)
        asm._times_kernel(blk, r0, r1, np.ones((r1 - r0, m)), out[r0:r1])
    return out


CONSTANT_EXPONENTS = ("p2", "p1.5")


@pytest.mark.parametrize("target", [None, 200, STRADDLING_TARGET])
@pytest.mark.parametrize("exponent", ["p2", "p1.5", "extend-mean", "one-row", "per-row", "p2-point-s"])
def test_tiled_tables_equal_whole_block_tables(exponent, target, monkeypatch):
    """A variable p's kern and p, filled a row tile at a time, are the
    tables one piece per block gives, p in the same shape: one row, one
    column or one entry per pair.  A constant p and s hold no table: p is
    the block's scalar, and the per-offset kernel read a row, 3 rows (runs
    that cross a grid row), 11 rows (a run, a whole grid row of 8 cells and
    a run) or a block at a time is the whole block's table, on this dyadic
    mesh bit for bit."""
    if target is not None:
        monkeypatch.setattr(geometry, "PAIR_BLOCK_TARGET", target)
    prob = kernel_problem(exponent)
    asm = solver._assembly(prob)
    got, want = asm.blocks, oracles.whole_block_tables(prob)
    assert [blk[:2] for blk in got] == [blk[:2] for blk in want]
    for blk, (_, _, pg_want, kern_want) in zip(got, want):
        pg, kern = blk[2:]
        assert np.shape(pg) == np.shape(pg_want)
        assert np.array_equal(bits(pg), bits(pg_want))
        if exponent in CONSTANT_EXPONENTS:
            assert kern is None
            for tile in (1, 3, 11, blk[1] - blk[0]):
                assert np.array_equal(bits(kernel_rows(asm, blk, tile)), bits(kern_want))
        else:
            assert np.array_equal(bits(kern), bits(kern_want))
    a, b, pg, _ = got[0]
    m = prob.domain.n_cells
    shape = {"one-row": (1, m), "per-row": (b - a, 1), "extend-mean": (b - a, m)}
    assert np.shape(pg) == shape.get(exponent, ())
    assert (asm.offsets is None) == (exponent not in CONSTANT_EXPONENTS)


# (domain, whether its cell coordinates are dyadic)
OFFSET_MESHES = {
    "square16": (lambda: fl.build_rectangle((0.0, 0.0), (1.0, 1.0), 16, 16), True),
    "square32": (lambda: fl.build_rectangle((0.0, 0.0), (1.0, 1.0), 32, 32), True),
    "interval16": (lambda: fl.build_interval(0.0, 1.0, 16), True),
    "square20": (lambda: fl.build_rectangle((0.0, 0.0), (1.0, 1.0), 20, 20), False),
    "square40": (lambda: fl.build_rectangle((0.0, 0.0), (1.0, 1.0), 40, 40), False),
}


@pytest.mark.parametrize("mesh", sorted(OFFSET_MESHES))
def test_offset_kernel_equals_whole_block_tables(mesh):
    """The kernel read by offset is the one built pair by pair from the
    cell coordinates: to the bit where the coordinates are dyadic, and
    within rel 1e-14 where hx k and x_i - x_j round apart.  It takes
    2 nx^2 ny entries, not M^2."""
    build, dyadic = OFFSET_MESHES[mesh]
    prob = quadratic_problem(build())
    asm = solver._assembly(prob)
    nx, ny = asm.pq._row_shape()
    assert asm.offsets.base.shape == (nx, 2 * ny - 1, nx) and not asm.offsets.flags.writeable
    want = oracles.whole_block_tables(prob)
    differ = 0
    for blk, (a, b, _, kern) in zip(asm.blocks, want):
        assert blk[:2] == (a, b) and blk[3] is None
        got = kernel_rows(asm, blk, b - a)
        if dyadic:
            assert np.array_equal(bits(got), bits(kern))
        else:
            assert np.allclose(got, kern, rtol=1e-14, atol=0.0)
            differ += np.count_nonzero(got != kern)
    assert (differ > 0) == (not dyadic)


@example(n=128, leaf=1, seed=0)
@example(n=129, leaf=1, seed=0)
@example(n=137, leaf=128, seed=0)
@example(n=5000, leaf=129, seed=0)
@example(n=2_096_000, leaf=65536, seed=0)
@settings(max_examples=300)
@given(
    n=st.one_of(st.integers(1, 5000), st.sampled_from([65537, 70001, 131075])),
    leaf=st.sampled_from([1, 8, 100, 127, 128, 129, 1000, 65536]),
    seed=st.integers(0, 2**32 - 1),
)
def test_pairwise_split_gives_numpy_sum(n, leaf, seed):
    """The leaf split and its combine give np.sum's bits, for leaves below,
    at and above numpy's own 128; terms spread over twenty decades make the
    sum depend on its order, so a numpy that splits otherwise fails this."""
    rng = np.random.default_rng(seed)
    a = rng.standard_normal(n) * 10.0 ** rng.integers(-10, 10, n)
    got = solver._pairwise_sum(0, n, leaf, lambda lo, hi: np.add.reduce(a[lo:hi]))
    assert bits(got) == bits(np.sum(a))


def test_concurrent_calls_on_one_problem_give_one_thread_bits(monkeypatch):
    """A call's scratch is its own, so calls from several threads on one
    problem, each with its own u, give the bits of calls made one at a time."""
    monkeypatch.setattr(geometry, "PAIR_BLOCK_TARGET", STRADDLING_TARGET)
    prob = kernel_problem("extend-mean")
    asm = solver._assembly(prob)
    rng = np.random.default_rng(11)
    us = [rng.standard_normal(prob.domain.n_cells) for _ in range(4)]
    want = [(bits(asm.energy(u)), bits(asm.gradient(u))) for u in us]
    got = [[] for _ in us]
    start = threading.Barrier(len(us))

    def work(k):
        start.wait()
        for _ in range(100):
            got[k].append((bits(asm.energy(us[k])), bits(asm.gradient(us[k]))))

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        workers = [threading.Thread(target=work, args=(k,)) for k in range(len(us))]
        for t in workers:
            t.start()
        for t in workers:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in workers)
    for k, calls in enumerate(got):
        assert len(calls) == 100
        assert all(e == want[k][0] and np.array_equal(g, want[k][1]) for e, g in calls)


def test_constant_p_assembly_and_calls_hold_no_table():
    """On 40^2 cells (2.56M pairs, 19.5 MB of kernel as a table) a constant
    p and s hold the per-offset kernel (1 MB), and the assembly with an
    energy and a gradient call peaks under 2 MB."""
    prob = quadratic_problem(fl.build_rectangle((0.0, 0.0), (1.0, 1.0), 40, 40))
    u = np.random.default_rng(2).standard_normal(prob.domain.n_cells)
    tracemalloc.start()
    try:
        asm = solver._assembly(prob)
        asm.energy(u, threads=1)
        asm.gradient(u, threads=1)
        assert tracemalloc.get_traced_memory()[1] < 2 * 2**20
    finally:
        tracemalloc.stop()
    assert asm.offsets.base.nbytes == 40 * 79 * 40 * 8
    assert len(asm.blocks) == 2 and all(blk[3] is None for blk in asm.blocks)


def test_variable_p_assembly_and_calls_hold_tiles_not_blocks():
    """On 40^2 cells (2.56M pairs in two blocks, 19.5 MB of kernel) a
    variable p holds its kernel tables and tiles of under 1 MB besides,
    and an energy call holds under 1 MB, a gradient call under 1.5 MB (its
    tile of powers beside its buffer): no (rows, M) array."""
    dom = fl.build_rectangle((0.0, 0.0), (1.0, 1.0), 40, 40)
    g = fl.function_on_domain(fl.parse_field("1", fl.POINT), dom)
    prob = fl.EnergyProblem(dom, fl.parse_field("2 + 0*x1", fl.PAIR), fl.constant_field(0.25, fl.PAIR), g, 6.0)
    u = np.random.default_rng(2).standard_normal(prob.domain.n_cells)
    tracemalloc.start()
    try:
        asm = solver._assembly(prob)
        kern = sum(blk[3].nbytes for blk in asm.blocks)
        assert len(asm.blocks) == 2 and tracemalloc.get_traced_memory()[1] < kern + 2**20
        tracemalloc.reset_peak()
        held, _ = tracemalloc.get_traced_memory()
        asm.energy(u, threads=1)
        assert tracemalloc.get_traced_memory()[1] - held < 2**20
        tracemalloc.reset_peak()
        asm.gradient(u, threads=1)
        assert tracemalloc.get_traced_memory()[1] - held < 3 * 2**19
    finally:
        tracemalloc.stop()
    assert asm.offsets is None


def test_infinite_entry_gives_nan_where_the_masked_kernels_do():
    """inf - inf is a NaN whose sign bit the masked kernels' abs clears;
    the package's kernels keep it, so only NaN sign bits may differ."""
    prob = kernel_problem("p2")
    asm = solver._assembly(prob)
    u = kernel_input("ties", prob.domain.n_cells)
    u[5] = np.inf
    with np.errstate(invalid="ignore"):
        got = (asm.energy(u), asm.gradient(u))
        want = (oracles.masked_block_energy(prob, u), oracles.masked_block_gradient(prob, u))
    for a, b in zip(got, want):
        assert np.array_equal(np.isnan(a), np.isnan(b))
        assert np.array_equal(bits(a)[~np.isnan(a)], bits(b)[~np.isnan(b)])


def test_signed_power_keeps_the_sign_of_zero():
    d = np.array([-0.0, 0.0, -2.0, 3.0, np.nan])
    got = solver._signed_power(d, 0.5)
    assert np.array_equal(bits(got[:2]), bits(d[:2]))
    assert np.array_equal(got[2:4], [-(2.0**0.5), 3.0**0.5]) and np.isnan(got[4])
    masked = oracles.masked_signed_power(d, 0.5)
    assert np.array_equal(bits(masked[:2]), bits([0.0, 0.0]))
    assert np.array_equal(bits(got[2:]), bits(masked[2:]))


@example(0.0)
@example(-0.0)
@example(5e-324)
@example(-5e-324)
@example(2.2250738585072014e-308)
@example(1.7976931348623157e308)
@example(np.inf)
@example(-np.inf)
@example(np.nan)
@given(st.floats(allow_nan=True, allow_infinity=True, allow_subnormal=True))
def test_halving_by_product_is_division_by_two(x):
    a = np.array([x, -x])
    b = a.copy()
    a *= 0.5
    b /= 2.0
    assert np.array_equal(bits(a), bits(b))


# -- pinned solver work -------------------------------------------------------


SOLVE_CONFIG = Path(__file__).resolve().parents[1] / "scripts" / "configs" / "solve.json"


def solve_config_problem():
    """The committed solve config (16^2 cells, p = 2, s = 1/4), built the
    way ``fraclab solve`` builds it."""
    cfg = json.loads(SOLVE_CONFIG.read_text())
    dom = cli._domain(cfg["domain"])
    prob = fl.EnergyProblem(
        dom,
        cli._pair_field(cfg["p"], "p"),
        cli._pair_field(cfg["s"], "s"),
        cli._grid_fn(cfg["g"], dom, "g"),
        cli._parse(cfg["r"], fl.BOUNDARY, "r"),
    )
    sv = cfg["solver"]
    return prob, fl.SolverOptions(tol=sv["tol"], accelerate=sv["accelerate"])


def variable_exponent_problem():
    prob, _ = random_problem(4)
    return prob, fl.SolverOptions(tol=1e-7, accelerate=True)


# (iterations, energy calls, gradient calls, backtracks), the sha256 of the
# minimizer's bytes and the full history, as the masked kernels gave them
PINNED_SOLVES = {
    "solve-config": (
        solve_config_problem,
        (37, 66, 40, 28),
        "26eb0a65e3aa925dc9b2325c68d4a37626b98280956781f9ea96cbbea18fbd41",
        (
            (0, 0.0, 0.125),
            (1, -0.26482500458912367, 0.11263718849350395),
            (2, -1.8417782999988819, 0.03706328963590596),
            (3, -2.5301310173581872, 0.03339040740647939),
            (4, -4.689699518506767, 0.09304688144733902),
            (5, -6.208745484603417, 0.10582578040395006),
            (6, -8.168902239094738, 0.06893512058282433),
            (7, -8.67558949671593, 0.03870878069475241),
            (8, -8.84685002353218, 0.01891994673410112),
            (9, -8.88465339357092, 0.008891350744746604),
            (10, -8.89381256739831, 0.004116449125436683),
            (11, -8.895978253292718, 0.0018035885279275576),
            (12, -8.896371651114617, 0.0008062963653623217),
            (13, -8.89645098622138, 0.0003676576258862113),
            (14, -8.896467545407479, 0.000167024262971327),
            (15, -8.896470900157297, 7.722333542554624e-05),
            (16, -8.896471625362855, 3.3614228387213174e-05),
            (17, -8.896471766459216, 1.4876481192527269e-05),
            (18, -8.896471792651473, 6.7042850592086145e-06),
            (19, -8.896471798183683, 3.2238210611566787e-06),
            (20, -8.896471799312597, 1.3603159359221184e-06),
            (21, -8.896471799534737, 6.416683706444298e-07),
            (22, -8.89647179958245, 2.5498366493237334e-07),
            (23, -8.896471799590909, 1.1597919411313051e-07),
            (24, -8.896471799593003, 6.60501939149516e-08),
            (25, -8.896471799593892, 3.219029034474963e-08),
            (26, -8.896471799594853, 5.361049266149054e-08),
            (27, -8.896471799595993, 7.994546968870253e-08),
            (28, -8.896471799598746, 1.1148597683918737e-07),
            (29, -8.896471799599977, 1.1221910015818404e-07),
            (30, -8.8964717996025, 5.556104523338212e-08),
            (31, -8.896471799602665, 4.133704442632613e-08),
            (32, -8.896471799602942, 7.438147781729798e-09),
            (33, -8.89647179960295, 3.238322063628396e-09),
            (34, -8.89647179960295, 1.147386385555449e-09),
            (35, -8.896471799602953, 1.054242955086937e-09),
            (36, -8.896471799602956, 1.2675731367317589e-09),
            (37, -8.896471799602956, 9.52250764352236e-10),
        ),
    ),
    "variable-p": (
        variable_exponent_problem,
        (22, 40, 23, 17),
        "431e9a171731ba3bf656524f6836b8ffe9bafbb1e7a0001ad589ec2b07804ee1",
        (
            (0, 0.0, 0.1982429636190574),
            (1, -0.26630327006817345, 0.12222842228811444),
            (2, -0.6863963198029306, 0.19409342951499248),
            (3, -1.235491449712223, 0.2355610263872945),
            (4, -2.288375656616251, 0.2621911362971805),
            (5, -2.4892931224096575, 0.30210539270432746),
            (6, -2.821068994862521, 0.17163420256901263),
            (7, -2.939603602084363, 0.03634402282272854),
            (8, -2.9429322805661813, 0.015861249203290975),
            (9, -2.9436380146793533, 0.0037918111021296164),
            (10, -2.943770036769331, 0.002307998589176158),
            (11, -2.9438104013646975, 0.0011829269447531376),
            (12, -2.943821922063846, 0.00041249905506654874),
            (13, -2.9438222540941665, 0.00022833816616881636),
            (14, -2.943822437506255, 3.111004529064709e-05),
            (15, -2.943822440284507, 1.3662846785222893e-05),
            (16, -2.9438224410126517, 7.027869761117023e-06),
            (17, -2.943822441180714, 3.2841301891989305e-06),
            (18, -2.9438224412216663, 1.687111630191418e-06),
            (19, -2.943822441231664, 7.654097785719793e-07),
            (20, -2.9438224412339786, 3.744393333796059e-07),
            (21, -2.9438224412344973, 1.7313635525262328e-07),
            (22, -2.943822441234612, 8.42486562735445e-08),
        ),
    ),
}


@pytest.mark.parametrize("name", sorted(PINNED_SOLVES))
def test_solver_work_is_pinned(name):
    """Work counts, history and minimizer of two solves, to the last bit:
    a kernel change that moves the energy or gradient in its last bits
    moves these."""
    build, counts, digest, history = PINNED_SOLVES[name]
    prob, opts = build()
    rep = fl.minimize(prob, opts)
    assert rep.status == fl.CONVERGED
    assert (rep.iterations, rep.energy_calls, rep.gradient_calls, rep.backtracks) == counts
    assert rep.history == history
    assert hashlib.sha256(rep.minimizer.interior.tobytes()).hexdigest() == digest


# -- problem validation ------------------------------------------------------


def test_pairing_guard_rejects_weak_data_class(square8):
    g = fn(square8, lambda x: np.ones(x.shape[0]))
    # p* = 2/(2 - 0.5) = 4/3 at every facet while r = 2 conjugates to 2
    with pytest.raises(ProblemError, match="boundary data class too weak"):
        fl.EnergyProblem(square8, fl.constant_field(2.0, fl.PAIR),
                         fl.constant_field(0.25, fl.PAIR), g, 2.0)


def test_pairing_guard_skips_intervals():
    """On intervals the trace is two point evaluations, so any data class
    pairs; the 2D guard formula would reject everything there."""
    dom = fl.build_interval(0.0, 1.0, 16)
    g = fn(dom, lambda x: np.ones(x.shape[0]))
    prob = fl.EnergyProblem(dom, fl.constant_field(2.0, fl.PAIR), fl.constant_field(0.25, fl.PAIR), g, 2.0)
    rep = fl.minimize(prob, fl.SolverOptions(tol=1e-8, accelerate=True))
    assert rep.status == fl.CONVERGED


def test_asymmetric_pair_exponent_rejected(square8):
    g = fn(square8, lambda x: np.ones(x.shape[0]))
    p_bad = fl.parse_field("2 + x1/(2 + y1)", fl.PAIR)
    with pytest.raises(ProblemError, match=r"p\(x, y\) = p\(y, x\)"):
        fl.EnergyProblem(square8, p_bad, fl.constant_field(0.45, fl.PAIR), g, 6.0)


# p(x, y) = p(y, x) on the first 64 cells of a 16 x 16 mesh of the unit
# square, where x2 and y2 stay below 0.75, but on no pair across x2 = 0.75
ASYMMETRIC_ABOVE = "2 + 0.1*(max(x2, 0.75) - max(y2, 0.75))"


@pytest.mark.parametrize("validated", [False, True])
def test_asymmetry_on_any_sample_pair_is_rejected(validated):
    dom = fl.build_rectangle((0.0, 0.0), (1.0, 1.0), 16, 16)
    p = fl.parse_field(ASYMMETRIC_ABOVE, fl.PAIR)
    if validated:
        # a range check beforehand must not stand in for the symmetry check
        fl.validate_bounds(p, dom, "p")
    g = fn(dom, lambda x: np.ones(x.shape[0]))
    with pytest.raises(ProblemError, match=r"p\(x, y\) = p\(y, x\)"):
        fl.EnergyProblem(dom, p, fl.constant_field(0.25, fl.PAIR), g, 6.0)


def test_swap_check_runs_only_where_no_proof_covers_p(square8, monkeypatch):
    calls = []
    original = solver._swap_witness

    def counting(f, dom):
        calls.append(f.source)
        return original(f, dom)

    monkeypatch.setattr(solver, "_swap_witness", counting)
    g = fn(square8, lambda x: np.ones(x.shape[0]))
    s = fl.constant_field(0.45, fl.PAIR)
    for p in (fl.constant_field(2.0, fl.PAIR), fl.parse_field("2 + x1/4", fl.POINT)):
        fl.EnergyProblem(square8, p, s, g, 6.0)
    assert calls == []
    # symmetric in value, but max does not commute in the proof
    p = fl.parse_field("2 + max(x1, y1)/4", fl.PAIR)
    fl.EnergyProblem(square8, p, s, g, 6.0)
    assert calls == [p.source]


def test_boundary_data_must_match_facets(square8):
    other = fl.build_rectangle((0.0, 0.0), (1.0, 1.0), 4, 4)
    g = fn(other, lambda x: np.ones(x.shape[0]))
    with pytest.raises(ProblemError, match="does not match the mesh facets"):
        fl.EnergyProblem(square8, fl.constant_field(2.0, fl.PAIR),
                         fl.constant_field(0.45, fl.PAIR), g, 6.0)


# -- minimization ------------------------------------------------------------


def test_minimizer_matches_linear_oracle(square8):
    prob = quadratic_problem(square8)
    rep = fl.minimize(prob, fl.SolverOptions(tol=1e-9, accelerate=True))
    assert rep.status == fl.CONVERGED
    u_star, _, _ = oracles.quadratic_minimizer(square8, 0.25, prob.g.boundary)
    assert float(np.max(np.abs(rep.minimizer.interior - u_star))) < 1e-8
    assert rep.el_residual <= 1e-9


def test_two_start_uniqueness():
    """Strict convexity: both starts land on the same minimizer.  On this
    domain the optimality system is an M-matrix with row sums 1/4, so each
    converged iterate sits within 4 tol of the true minimizer."""
    dom = fl.build_rectangle((0.0, 0.0), (4.0, 4.0), 8, 8)
    prob = quadratic_problem(dom)
    tol = 1e-8
    r0 = fl.minimize(prob, fl.SolverOptions(tol=tol, accelerate=True, start="zero"))
    r1 = fl.minimize(prob, fl.SolverOptions(tol=tol, accelerate=True, start="random", seed=7))
    assert r0.status == fl.CONVERGED and r1.status == fl.CONVERGED
    diff = float(np.max(np.abs(r0.minimizer.interior - r1.minimizer.interior)))
    assert diff <= 10.0 * tol


def test_minimize_variable_exponent_reaches_stationarity():
    prob, _ = random_problem(4)
    rep = fl.minimize(prob, fl.SolverOptions(tol=1e-7, accelerate=True))
    assert rep.status == fl.CONVERGED
    assert rep.el_residual <= 1e-7
    # stationarity confirmed against the finite-difference gradient
    g_fd = oracles.fd_gradient(prob, rep.minimizer.interior, h=1e-6)
    assert float(np.max(np.abs(g_fd))) < 1e-5


def test_history_energy_nonincreasing():
    prob, _ = random_problem(8)
    rep = fl.minimize(prob, fl.SolverOptions(tol=1e-7))
    energies = [e for _, e, _ in rep.history]
    assert all(b <= a for a, b in zip(energies, energies[1:]))
    its = [it for it, _, _ in rep.history]
    assert its == list(range(len(its)))
    assert rep.iterations == its[-1]


def test_strict_midpoint_convexity():
    prob, _ = random_problem(6)
    rng = np.random.default_rng(123)
    for _ in range(6):
        u = rng.standard_normal(prob.domain.n_cells)
        v = rng.standard_normal(prob.domain.n_cells)

        def e(w):
            return fl.energy(fl.GridFunction.from_interior(prob.domain, w), prob)

        eu, ev, em = e(u), e(v), e(0.5 * (u + v))
        gap = 0.5 * (eu + ev) - em
        assert gap >= 1e-12 * max(1.0, abs(eu) + abs(ev))


def test_solver_determinism():
    prob, _ = random_problem(9)
    a = fl.minimize(prob, fl.SolverOptions(tol=1e-7, accelerate=True), threads=1)
    b = fl.minimize(prob, fl.SolverOptions(tol=1e-7, accelerate=True), threads=4)
    assert np.array_equal(a.minimizer.interior, b.minimizer.interior)
    assert a.history == b.history
    counters = lambda r: (r.energy_calls, r.gradient_calls, r.backtracks)
    assert counters(a) == counters(b)
    # one energy per trial step: the initial one, one per accepted step and
    # one per rejected trial
    assert a.energy_calls == 1 + a.iterations + a.backtracks
    assert a.gradient_calls >= 1 + a.iterations


def test_no_op_step_ends_the_solve():
    # tol 1e-13 lies below what this load can reach: around iteration 48 the
    # accepted step alpha d no longer changes u, and every later iteration
    # would repeat it up to max_iter
    dom = fl.build_rectangle((0.0, 0.0), (1.0, 1.0), 12, 12)
    prob = quadratic_problem(dom, "1 + x1/2 + x2^2/4")
    steps = []
    asm = solver._assembly(prob)
    original = asm.energy

    def spy(u, threads=None):
        steps.append(u.copy())
        return original(u, threads)

    asm.energy = spy
    max_iter = 500
    opts = fl.SolverOptions(tol=1e-13, max_iter=max_iter)
    rep = fl.minimize(prob, opts)
    assert rep.status == LINE_SEARCH_FAILURE
    # the final iterate is evaluated twice: when the step reaching it is
    # tried, and as the no-op step that ends the solve
    hits = [i for i, v in enumerate(steps) if np.array_equal(v, rep.minimizer.interior)]
    assert len(hits) == 2 and hits[1] == len(steps) - 1
    assert rep.iterations < max_iter and rep.iterations < rep.energy_calls
    rows = [h[1:] for h in rep.history]
    assert all(a != b for a, b in zip(rows, rows[1:]))


def test_steepest_descent_is_refused():
    # L-BFGS is the one method; the field stays only for configs naming it
    assert fl.SolverOptions().accelerate is True
    with pytest.raises(ProblemError, match="steepest descent was removed"):
        fl.SolverOptions(accelerate=False)


def test_nonconverged_status(square8):
    prob = quadratic_problem(square8)
    rep = fl.minimize(prob, fl.SolverOptions(tol=1e-12, max_iter=3))
    assert rep.status == NONCONVERGED
    assert rep.iterations == 3


def test_convergence_on_the_last_allowed_iteration(square8):
    prob = quadratic_problem(square8)
    opts = fl.SolverOptions(tol=1e-8, accelerate=True)
    full = fl.minimize(prob, opts)
    assert full.status == fl.CONVERGED
    last = fl.minimize(prob, dataclasses.replace(opts, max_iter=full.iterations))
    assert last.status == fl.CONVERGED
    assert last.history == full.history
    short = fl.minimize(prob, dataclasses.replace(opts, max_iter=full.iterations - 1))
    assert short.status == NONCONVERGED


@pytest.mark.parametrize("bad", ["uphill", "not-finite"])
def test_failed_quasi_newton_direction_falls_back_to_steepest_descent(bad, square8, monkeypatch):
    """A memory direction that fails the slope test is replaced by -g: an
    uphill or NaN direction would otherwise reject every trial step."""
    trials = []

    def broken(self, g):
        trials.append(g.copy())
        return g.copy() if bad == "uphill" else np.full_like(g, np.nan)

    monkeypatch.setattr(solver._Lbfgs, "direction", broken)
    prob = quadratic_problem(square8)
    rep = fl.minimize(prob, fl.SolverOptions(tol=1e-8, accelerate=True))
    assert rep.status == fl.CONVERGED
    assert len(trials) == rep.iterations


def test_lbfgs_memory_skips_pairs_without_positive_curvature():
    mem = solver._Lbfgs(3)
    g = np.array([1.0, -2.0])
    mem.update(np.array([1.0, 0.0]), np.array([-1.0, 0.0]))  # negative curvature
    mem.update(np.array([1.0, 0.0]), np.array([0.0, 1.0]))  # zero curvature
    assert mem.s == [] and mem.y == [] and mem.rho == []
    assert np.array_equal(mem.direction(g), -g)
    mem.update(np.array([1.0, 0.0]), np.array([2.0, 0.0]))
    assert mem.rho == [0.5]


def test_unknown_start_rejected(square8):
    prob = quadratic_problem(square8)
    with pytest.raises(ProblemError, match="unknown start"):
        fl.minimize(prob, fl.SolverOptions(start="bogus"))


def test_minimizer_extends_boundary_by_trace(square8):
    prob = quadratic_problem(square8)
    rep = fl.minimize(prob, fl.SolverOptions(tol=1e-8, accelerate=True))
    assert np.array_equal(rep.minimizer.boundary, rep.minimizer.interior[square8.facet_cells])


# -- coercivity probe --------------------------------------------------------


def test_coercivity_probe_monotone_without_load(square8):
    z = fn(square8, lambda x: np.zeros(x.shape[0]))
    prob = fl.EnergyProblem(square8, fl.constant_field(2.0, fl.PAIR),
                            fl.constant_field(0.25, fl.PAIR), z, 6.0)
    u = fn(square8, lambda x: x[:, 0] + 0.3)
    tab = fl.coercivity_probe(u, prob, (1.0, 2.0, 4.0, 8.0))
    assert tab.increasing is True
    ratios = [row[2] for row in tab.rows]
    assert all(b > a for a, b in zip(ratios, ratios[1:]))
    # scaling a p = 2 energy with no load doubles the ratio exactly
    assert ratios[1] == pytest.approx(2.0 * ratios[0], rel=1e-12)


def test_coercivity_probe_single_scale_has_no_verdict(square8):
    prob = quadratic_problem(square8)
    u = fn(square8, lambda x: x[:, 0] + 0.3)
    assert fl.coercivity_probe(u, prob, (2.0,)).increasing is None


def test_coercivity_probe_rejects_zero_ray(square8):
    prob = quadratic_problem(square8)
    z = fn(square8, lambda x: np.zeros(x.shape[0]))
    with pytest.raises(ProblemError, match="nonzero ray"):
        fl.coercivity_probe(z, prob, (1.0, 2.0))
