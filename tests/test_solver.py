"""The boundary-load energy, its gradient, and the descent solver."""

import numpy as np
import pytest

import fraclab as fl
from fraclab import solver
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


@pytest.mark.parametrize("cached", [False, True])
def test_asymmetry_on_any_sample_pair_is_rejected(cached):
    dom = fl.build_rectangle((0.0, 0.0), (1.0, 1.0), 16, 16)
    p = fl.parse_field(ASYMMETRIC_ABOVE, fl.PAIR)
    if cached:
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


@pytest.mark.parametrize("accelerate, max_iter", [(True, 500), (False, 1000)])
def test_no_op_step_ends_the_solve(accelerate, max_iter):
    # tol 1e-13 lies below what this load can reach: around iteration 48
    # (545 in steepest descent, after a backtracked step) the accepted step
    # alpha d no longer changes u, and every later iteration would repeat it
    # up to max_iter
    dom = fl.build_rectangle((0.0, 0.0), (1.0, 1.0), 12, 12)
    prob = quadratic_problem(dom, "1 + x1/2 + x2^2/4")
    steps = []
    asm = solver._assembly(prob)
    original = asm.energy

    def spy(u, threads=None):
        steps.append(u.copy())
        return original(u, threads)

    asm.energy = spy
    opts = fl.SolverOptions(tol=1e-13, accelerate=accelerate, max_iter=max_iter)
    rep = fl.minimize(prob, opts)
    assert rep.status == LINE_SEARCH_FAILURE
    # the final iterate is evaluated twice: when the step reaching it is
    # tried, and as the no-op step that ends the solve
    hits = [i for i, v in enumerate(steps) if np.array_equal(v, rep.minimizer.interior)]
    assert len(hits) == 2 and hits[1] == len(steps) - 1
    assert rep.iterations < max_iter and rep.iterations < rep.energy_calls
    rows = [h[1:] for h in rep.history]
    assert all(a != b for a, b in zip(rows, rows[1:]))


def test_steepest_descent_goes_on_after_an_unbacktracked_no_op(square8):
    # G(u) = c/2 |u - 2|^2 with c = 1e-20: from a random start the first
    # steps alpha c (2 - u) fall below the resolution of u and are accepted
    # at once, so alpha doubles until the steps resolve and the solve
    # converges
    class Flat:
        c = 1e-20

        def energy(self, u, threads=None):
            return 0.5 * self.c * float(np.sum((u - 2.0) ** 2))

        def gradient(self, u, threads=None):
            return self.c * (u - 2.0)

    prob = quadratic_problem(square8)
    object.__setattr__(prob, "_asm", Flat())
    opts = fl.SolverOptions(tol=1e-34, start="random", max_iter=200)
    rep = fl.minimize(prob, opts)
    assert rep.status == fl.solver.CONVERGED
    rows = [h[1:] for h in rep.history]
    assert rows[0] == rows[1]
    assert np.allclose(rep.minimizer.interior, 2.0, rtol=0, atol=1e-12)


def test_nonconverged_status(square8):
    prob = quadratic_problem(square8)
    rep = fl.minimize(prob, fl.SolverOptions(tol=1e-12, max_iter=3))
    assert rep.status == NONCONVERGED
    assert rep.iterations == 3


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
