"""The four benchmark workloads.

Each workload splits into ``setup`` (everything before the first timed
call: meshing, field parsing, grid functions, pair quadrature, problem
validation), ``run`` (the timed calls into fraclab) and ``check`` (outputs
against pinned values, oracles and the unit-modular condition).  The seed
changes data only: function coefficients, the family centre along the
bottom edge, the load.  It never changes mesh sizes, exponents or how many
calls are made.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import shutil
import tempfile
import time

import numpy as np

import fraclab as fl
from fraclab import cli
from fraclab.embeddings import REJECTED

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
CONFIG_DIR = os.path.join(ROOT, "scripts", "configs")
OUT_DIR = os.path.join(ROOT, "perfbench", "out")
PI = "3.141592653589793"
REL = 1e-12  # pinned values and oracle energies
RHO_TOL = 1e-10  # |rho(lambda*) - 1| at a Luxemburg root


class Checks:
    """Counts checks attempted and failed; a failure is recorded, never raised."""

    def __init__(self):
        self.attempted = 0
        self.failures = []

    def expect(self, name, ok, detail=""):
        self.attempted += 1
        if not ok:
            self.failures.append(f"{name}: {detail}" if detail else name)
        return ok

    def close(self, name, got, want, rel=REL):
        ok = got is not None and want is not None and _close(got, want, rel)
        return self.expect(name, ok, f"got {got!r}, want {want!r} (rel {rel:g})")

    def same(self, name, got, want):
        return self.expect(name, got == want, f"got {got!r}, want {want!r}")


def _close(a, b, rel):
    if isinstance(a, float) or isinstance(b, float):
        if not (isinstance(a, (int, float)) and isinstance(b, (int, float))):
            return False
        return a == b or abs(a - b) <= rel * max(abs(a), abs(b))
    if isinstance(a, dict):
        return isinstance(b, dict) and a.keys() == b.keys() and all(_close(a[k], b[k], rel) for k in a)
    if isinstance(a, list):
        return isinstance(b, list) and len(a) == len(b) and all(_close(x, y, rel) for x, y in zip(a, b))
    return a == b


def _rng(seed):
    return np.random.default_rng([int(seed), 20170410])


def _rect(n):
    return fl.build_rectangle((0.0, 0.0), (1.0, 1.0), n, n)


def _median_time(fn, reps):
    times = []
    for _ in range(reps):
        t0 = time.perf_counter()
        fn()
        times.append(time.perf_counter() - t0)
    return float(np.median(times))


class Workload:
    name = ""
    size = 0  # cells per axis at full size
    seeded = True  # False: the seed does not apply, pinned values hold for every seed

    def setup(self, seed, size):
        raise NotImplementedError

    def fresh(self, state):
        """Untimed preparation before every timed repetition."""

    def run(self, state):
        raise NotImplementedError

    def fingerprint(self, result):
        """Exact value that must repeat from repetition to repetition."""
        raise NotImplementedError

    def counts(self, state, result):
        """Work counters visible in the results; they must repeat exactly."""
        return {}

    def pin(self, state, result):
        """Values recorded in reference.json at the default seed."""
        raise NotImplementedError

    def check(self, state, result, chk, ref):
        raise NotImplementedError

    def spot_threads2(self, state, result, chk):
        """Recompute part of the result at two threads; it must be identical."""
        raise NotImplementedError

    def expressions(self, state):
        return state["exprs"]

    def pair_problem(self, state, result):
        """(f, p, s, pq) for the geometry, exponents and modular probes."""
        return configs_pair_problem(state["size"])

    def solver_problem(self, state, result):
        """(EnergyProblem factory, u) for the solver probes."""
        return configs_solver_problem(state["size"])

    def close(self, state):
        pass


# -- configs -----------------------------------------------------------------

CONFIG_COMMANDS = ("norm", "seminorm", "trace-check", "partition", "solve")


def _load_config(cmd, size):
    with open(os.path.join(CONFIG_DIR, f"{cmd}.json")) as fh:
        cfg = json.load(fh)
    if size:
        cfg["domain"]["resolution"] = [size] * len(cfg["domain"]["resolution"])
    return cfg


def configs_pair_problem(size):
    cfg = _load_config("seminorm", size)
    dom = fl.build_from_recipe(cfg["domain"])
    f = fl.function_on_domain(fl.parse_field(cfg["f"], fl.POINT), dom)
    p = fl.extend_symmetric_mean(fl.parse_field(cfg["p"]["extend_mean"], fl.POINT))
    s = fl.parse_field(cfg["s"], fl.PAIR)
    return f, p, s, fl.pair_quadrature(dom, "interior")


def configs_solver_problem(size):
    cfg = _load_config("solve", size)
    dom = fl.build_from_recipe(cfg["domain"])
    g = fl.function_on_domain(fl.parse_field(cfg["g"], fl.POINT), dom)
    p = fl.parse_field(cfg["p"], fl.PAIR)
    s = fl.parse_field(cfg["s"], fl.PAIR)
    r = float(cfg["r"])
    u = fl.function_on_domain(fl.parse_field("x1*x2", fl.POINT), dom)
    return (lambda: fl.EnergyProblem(dom, p, s, g, r)), u


def _cli(argv):
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = cli.main(argv)
    return code, buf.getvalue()


class Configs(Workload):
    """The five small committed configs through fraclab.cli.main, each
    followed by --verify on its report.  Per-call overhead dominates; the
    seed does not apply."""

    name = "configs"
    seeded = False

    def setup(self, seed, size):
        os.makedirs(OUT_DIR, exist_ok=True)
        work = tempfile.mkdtemp(prefix="configs-", dir=OUT_DIR)
        paths = {}
        exprs = []
        for cmd in CONFIG_COMMANDS:
            cfg = _load_config(cmd, size)
            paths[cmd] = os.path.join(work, f"{cmd}.json")
            with open(paths[cmd], "w") as fh:
                json.dump(cfg, fh)
            for key in ("f", "g", "p", "q", "s", "r"):
                src = cfg.get(key)
                if isinstance(src, dict):
                    src = src["extend_mean"]
                if isinstance(src, str):
                    exprs.append((src, fl.POINT))
        return {"size": size, "work": work, "paths": paths, "exprs": exprs}

    def run(self, state, threads=1):
        out = {"reports": {}, "codes": {}, "verify": {}, "ms": {}}
        verify_s = 0.0
        for cmd in CONFIG_COMMANDS:
            t0 = time.perf_counter()
            code, text = _cli([cmd, state["paths"][cmd], "--out", state["work"], "--threads", str(threads)])
            t1 = time.perf_counter()
            vcode, vtext = _cli(["--verify", os.path.join(state["work"], f"{cmd}-report.json"), "--threads", str(threads)])
            verify_s += time.perf_counter() - t1
            out["ms"][cmd] = 1e3 * (t1 - t0)
            out["codes"][cmd] = (code, vcode)
            out["reports"][cmd] = text
            out["verify"][cmd] = vtext
        out["ms"]["verify"] = 1e3 * verify_s
        return out

    def fingerprint(self, result):
        return tuple(result["reports"][c] for c in CONFIG_COMMANDS)

    def counts(self, state, result):
        rep = {c: json.loads(result["reports"][c]) for c in ("seminorm", "solve")}
        return {
            "seminorm.evals": rep["seminorm"]["result"]["iterations"],
            "solve.iterations": rep["solve"]["result"]["iterations"],
        }

    def pin(self, state, result):
        return {"reports": {c: json.loads(result["reports"][c]) for c in CONFIG_COMMANDS}}

    def check(self, state, result, chk, ref):
        for cmd in CONFIG_COMMANDS:
            code, vcode = result["codes"][cmd]
            chk.same(f"configs.{cmd}.exit", code, 0)
            chk.expect(f"configs.{cmd}.verify", vcode == 0 and result["verify"][cmd].startswith("verify ok"),
                       f"exit {vcode}: {result['verify'][cmd].strip()!r}")
            if ref is not None:
                got = json.loads(result["reports"][cmd])
                want = ref["reports"][cmd]
                chk.close(f"configs.{cmd}.headline", got.get("headline"), want["headline"])
                chk.expect(f"configs.{cmd}.report", _close(got, want, REL), "report differs from the pinned one")

    def spot_threads2(self, state, result, chk):
        try:
            two = self.run(state, threads=2)
        finally:
            fl.set_default_threads(1)
        for cmd in CONFIG_COMMANDS:
            chk.expect(f"configs.{cmd}.threads2", two["reports"][cmd] == result["reports"][cmd],
                       "report bytes differ at two threads")

    def close(self, state):
        shutil.rmtree(state["work"], ignore_errors=True)


# -- sweep64 -----------------------------------------------------------------


class Sweep64(Workload):
    """The sharpness config: constant p = 2, s = 1/2, q = 3, scales 1, 2, 4, 8.
    Two pair passes per scale; the seed moves the family centre."""

    name = "sweep64"
    size = 64

    def setup(self, seed, size):
        n = size or self.size
        cx = float(_rng(seed).uniform(0.35, 0.65))
        exprs = [("2", fl.PAIR), ("3", fl.BOUNDARY), ("0.5", fl.PAIR)]
        p, q, s = (fl.parse_field(src, ar) for src, ar in exprs)
        dom = _rect(n)
        fam = fl.ConcentrationFamily(center=(cx, 0.0), a=0.45, scales=(1.0, 2.0, 4.0, 8.0))
        pq = fl.pair_quadrature(dom, "interior")
        return {"size": size, "exprs": exprs, "dom": dom, "p": p, "q": q, "s": s, "fam": fam, "pq": pq}

    def run(self, state):
        return fl.sharpness_sweep(state["fam"], state["p"], state["q"], state["s"], state["dom"],
                                  case_id="super-64", threads=1)

    def fingerprint(self, result):
        return tuple(result)

    def counts(self, state, result):
        return {"rows": len(result), "embeddings.rejected_rows": sum(r.status == REJECTED for r in result)}

    def pin(self, state, result):
        return {"rows": [[r.boundary_norm, r.full_norm, r.ratio, r.status] for r in result]}

    def check(self, state, result, chk, ref):
        st = state
        chk.same("sweep64.rows", len(result), len(st["fam"].scales))
        for row in result:
            tag = f"sweep64.k{row.scale:g}"
            if row.status != "ok":
                chk.expect(f"{tag}.rejected", st["fam"].support_cells(st["dom"], row.scale) < 3, row.status)
                continue
            fk = st["fam"].values(st["dom"], row.scale)
            bnd = fl.luxemburg_norm(fk, st["q"], "boundary")
            chk.expect(f"{tag}.boundary", bnd.lambda_star == row.boundary_norm
                       and abs(bnd.modular_at_lambda - 1.0) <= RHO_TOL, f"{bnd} vs {row.boundary_norm!r}")
            leb = fl.luxemburg_norm(fk, fl.diagonal_field(st["p"]), "interior")
            semi = row.full_norm - leb.lambda_star
            rho = fl.modular_gagliardo(fk, st["p"], st["s"], st["pq"], semi, threads=1)
            chk.expect(f"{tag}.rho", abs(rho - 1.0) <= RHO_TOL, f"rho(lambda*) = {rho!r}")
            chk.expect(f"{tag}.ratio", row.ratio == row.boundary_norm / row.full_norm, repr(row))
        if ref is not None:
            got = self.pin(state, result)["rows"]
            chk.expect("sweep64.pinned", _close(got, ref["rows"], REL), f"{got} vs {ref['rows']}")

    def spot_threads2(self, state, result, chk):
        row = next((r for r in result if r.status == "ok"), None)
        if not chk.expect("sweep64.threads2.row", row is not None, "no ok row"):
            return
        fk = state["fam"].values(state["dom"], row.scale)
        rep = fl.trace_check(fk, state["p"], state["q"], state["s"], state["pq"], threads=2)
        chk.expect("sweep64.threads2", (rep.boundary_norm, rep.full_norm, rep.ratio)
                   == (row.boundary_norm, row.full_norm, row.ratio), f"{rep} vs {row}")

    def pair_problem(self, state, result):
        fk = state["fam"].values(state["dom"], state["fam"].scales[0])
        return fk, state["p"], state["s"], state["pq"]


# -- varp64 ------------------------------------------------------------------


class VarP64(Workload):
    """Seminorm with p = extend_mean(2 + x1/2), s = 0.4 and seeded smooth f:
    root finding over a variable-exponent modular."""

    name = "varp64"
    size = 64

    def setup(self, seed, size):
        n = size or self.size
        rng = _rng(seed)
        c0, c1, c2 = rng.uniform(0.25, 0.75), rng.uniform(0.75, 1.25), rng.uniform(-0.25, 0.25)
        f_src = f"{c0!r} + {c1!r}*x1*x2 + {c2!r}*sin({PI}*x1)"
        exprs = [(f_src, fl.POINT), ("2 + x1/2", fl.POINT), ("0.4", fl.PAIR)]
        dom = _rect(n)
        f = fl.function_on_domain(fl.parse_field(f_src, fl.POINT), dom)
        p = fl.extend_symmetric_mean(fl.parse_field(exprs[1][0], fl.POINT))
        s = fl.parse_field(exprs[2][0], fl.PAIR)
        return {"size": size, "exprs": exprs, "f": f, "p": p, "s": s, "pq": fl.pair_quadrature(dom, "interior")}

    def run(self, state):
        return fl.gagliardo_seminorm(state["f"], state["p"], state["s"], state["pq"], threads=1)

    def fingerprint(self, result):
        return result

    def counts(self, state, result):
        return {"modular.evals": result.iterations}

    def pin(self, state, result):
        return {"lambda": result.lambda_star, "evals": result.iterations}

    def check(self, state, result, chk, ref):
        chk.same("varp64.status", result.status, fl.CONVERGED)
        chk.expect("varp64.modular_at_lambda", abs(result.modular_at_lambda - 1.0) <= RHO_TOL,
                   repr(result.modular_at_lambda))
        rho = fl.modular_gagliardo(state["f"], state["p"], state["s"], state["pq"], result.lambda_star, threads=1)
        state["rho1"] = rho
        chk.expect("varp64.rho", abs(rho - 1.0) <= RHO_TOL, f"rho(lambda*) = {rho!r}")
        if ref is not None:
            chk.close("varp64.pinned", result.lambda_star, ref["lambda"])

    def spot_threads2(self, state, result, chk):
        rho = fl.modular_gagliardo(state["f"], state["p"], state["s"], state["pq"], result.lambda_star, threads=2)
        chk.same("varp64.threads2", rho, state.get("rho1"))

    def pair_problem(self, state, result):
        return state["f"], state["p"], state["s"], state["pq"]


# -- solve40 -----------------------------------------------------------------


class Solve40(Workload):
    """minimize for p = 2, s = 1/4, r = 6, tol 1e-9, accelerated, on 40^2
    cells: above the dense-assembly limit.

    The seed flips the sign of the load g = 1 of the committed solve config.
    Negation is exact, so both loads take the same iterations and line-search
    steps.  Any other change of the load moves the iteration count (35 to 45
    for loads within 1% of each other), and some loads never reach the
    tolerance: with g = 1 + x1/2 + x2^2/4 the gradient stays at 1.36e-9 and
    minimize keeps accepting steps that change nothing.
    """

    name = "solve40"
    size = 40
    OPTS = fl.SolverOptions(tol=1e-9, accelerate=True)

    def setup(self, seed, size):
        n = size or self.size
        g_src = "-1" if _rng(seed).integers(2) else "1"
        exprs = [("2", fl.PAIR), ("0.25", fl.PAIR), (g_src, fl.POINT), ("6", fl.BOUNDARY)]
        dom = _rect(n)
        p, s = fl.parse_field("2", fl.PAIR), fl.parse_field("0.25", fl.PAIR)
        g = fl.function_on_domain(fl.parse_field(g_src, fl.POINT), dom)
        r = fl.parse_field("6", fl.BOUNDARY)
        st = {"size": size, "exprs": exprs, "dom": dom, "p": p, "s": s, "g": g, "r": r}
        self.fresh(st)
        return st

    def _problem(self, state):
        return fl.EnergyProblem(state["dom"], state["p"], state["s"], state["g"], state["r"])

    def fresh(self, state):
        # the assembly is cached on the problem, so each timed solve gets a
        # newly validated one
        state["prob"] = self._problem(state)

    def run(self, state):
        return fl.minimize(state["prob"], self.OPTS, threads=1)

    def fingerprint(self, result):
        return (result.energy, result.el_residual, result.iterations, result.status,
                result.minimizer.interior.tobytes())

    def counts(self, state, result):
        return {"solver.iterations": result.iterations}

    def pin(self, state, result):
        return {"energy": result.energy, "iterations": result.iterations}

    def check(self, state, result, chk, ref):
        import oracles

        chk.same("solve40.status", result.status, "converged")
        chk.expect("solve40.el_residual", result.el_residual <= self.OPTS.tol, repr(result.el_residual))
        u, h, b = oracles.quadratic_minimizer(state["dom"], 0.25, state["g"].boundary)
        e_star = float(0.5 * u @ h @ u - b @ u)
        chk.close("solve40.oracle_energy", result.energy, e_star)
        if ref is not None:
            chk.close("solve40.pinned", result.energy, ref["energy"])

    def spot_threads2(self, state, result, chk):
        u, prob = result.minimizer, state["prob"]
        e1, e2 = fl.energy(u, prob, threads=1), fl.energy(u, prob, threads=2)
        g1, g2 = fl.gradient(u, prob, threads=1), fl.gradient(u, prob, threads=2)
        chk.expect("solve40.threads2", e1 == e2 and np.array_equal(g1.interior, g2.interior),
                   f"energy {e1!r} vs {e2!r}")

    def pair_problem(self, state, result):
        return result.minimizer, state["p"], state["s"], fl.pair_quadrature(state["dom"], "interior")

    def solver_problem(self, state, result):
        return (lambda: self._problem(state)), result.minimizer


WORKLOADS = {w.name: w for w in (Configs(), Sweep64(), VarP64(), Solve40())}


# -- layer probes ------------------------------------------------------------


def layer_probes(workload, state, result, reps=3):
    """Direct timings of single layers on the workload's own problem."""
    f, p, s, pq = workload.pair_problem(state, result)
    out = {"geometry.pairs": pq.n_pairs, "geometry.blocks": len(pq.row_blocks())}

    def null_pass(threads):
        return lambda: fl.geometry.reduce_blocks(pq, lambda blk: 0.0, threads)

    t1 = _median_time(null_pass(1), reps)
    t2 = _median_time(null_pass(2), reps)
    out["geometry.pass_ns_per_pair"] = 1e9 * t1 / pq.n_pairs
    out["geometry.speedup_t2"] = t1 / t2

    def grid_eval_s():
        busy = 0.0
        for a, b in pq.row_blocks():
            t0 = time.perf_counter()
            p.eval_pair_grid(pq.points[a:b], pq.points)
            if s.arity == fl.PAIR:
                s.eval_pair_grid(pq.points[a:b], pq.points)
            busy += time.perf_counter() - t0
        return busy

    out["exponents.pair_grid_ns_per_pair"] = 1e9 * float(np.median([grid_eval_s() for _ in range(reps)])) / pq.n_pairs

    exprs = workload.expressions(state)
    n_parse = 50
    parse_s = _median_time(lambda: [fl.parse_field(src, ar) for _ in range(n_parse) for src, ar in exprs], reps)
    out["expressions.parse_us"] = 1e6 * parse_s / (n_parse * len(exprs))

    out["modular.pass_s"] = _median_time(lambda: fl.modular_gagliardo(f, p, s, pq, 1.0, threads=1), reps)

    make_problem, u = workload.solver_problem(state, result)
    prob = make_problem()
    t0 = time.perf_counter()
    fl.energy(u, prob, threads=1)
    out["solver.first_call_s"] = time.perf_counter() - t0
    out["solver.energy_ms"] = 1e3 * _median_time(lambda: fl.energy(u, prob, threads=1), reps)
    g1 = _median_time(lambda: fl.gradient(u, prob, threads=1), reps)
    g2 = _median_time(lambda: fl.gradient(u, prob, threads=2), reps)
    out["solver.gradient_ms"] = 1e3 * g1
    out["solver.speedup_t2"] = g1 / g2
    return out
