"""Command line front end: one subcommand per computation, a JSON config in,
a JSON report out (plus CSV for sweeps).

Every report embeds the config it was produced from and one headline number;
--verify re-reads a report, recomputes the headline from that embedded
config, and confirms agreement to 1e-12.  For a fixed config and seed the
emitted bytes do not depend on the thread count.

Exit codes: 0 success, 2 config or validation error, 3 numeric failure,
4 solver nonconvergence.
"""

from __future__ import annotations

import argparse
import csv
import functools
import json
import math
import os
import sys
from dataclasses import asdict, astuple

import numpy as np

from . import expressions as ex
from .embeddings import (
    ConcentrationFamily,
    embedding_check,
    holder_check,
    sharpness_sweep,
    trace_check,
)
from .errors import ConfigError, FraclabError, NumericError, ProblemError
from .exponents import (
    BOUNDARY,
    PAIR,
    POINT,
    covering_partition,
    extend_symmetric_mean,
    function_on_domain,
    parse_field,
    subcritical_gap,
    validate_bounds,
    verify_certificate,
)
from .geometry import build_from_recipe, pair_quadrature, set_default_threads
from .modular import (
    BRACKET_FAILURE,
    boundary_gagliardo_seminorm,
    gagliardo_seminorm,
    luxemburg_norm,
)
from .solver import CONVERGED, EnergyProblem, SolverOptions, minimize

CSV_HEADER = ("case_id", "k_or_patch", "boundary_norm", "full_norm", "ratio", "subcritical", "status")


def _check_keys(cfg, required, optional, path):
    if not isinstance(cfg, dict):
        raise ConfigError(f"{path}: expected an object")
    unknown = sorted(set(cfg) - set(required) - set(optional))
    if unknown:
        raise ConfigError(f"{path}: unknown key(s) {', '.join(unknown)}")
    missing = sorted(set(required) - set(cfg))
    if missing:
        raise ConfigError(f"{path}: missing key(s) {', '.join(missing)}")


def _domain(raw):
    _check_keys(raw, {"type", "bounds", "resolution"}, set(), "domain")
    try:
        return build_from_recipe(raw)
    except (KeyError, TypeError, ValueError) as err:
        raise ConfigError(f"domain: {err}") from None


def _scope(value):
    if value not in ("interior", "boundary"):
        raise ConfigError(f"scope: expected interior|boundary, got {value!r}")
    return value


def _number(raw, path, kind=float):
    """The JSON number at config key path as a finite float, or as an int
    when kind is int.  Strings, booleans and other types are config errors."""
    if type(raw) is int or (kind is float and type(raw) is float):
        if kind is int or abs(raw) <= sys.float_info.max:  # not inf, nan or beyond
            return kind(raw)
    raise ConfigError(f"{path}: expected {'an integer' if kind is int else 'a finite number'}, got {raw!r}")


def _numbers(raw, path):
    if not isinstance(raw, list):
        raise ConfigError(f"{path}: expected a list of numbers, got {raw!r}")
    return tuple(_number(v, f"{path}[{i}]") for i, v in enumerate(raw))


def _parse(raw, arity, path):
    try:
        if isinstance(raw, dict):
            _check_keys(raw, {"extend_mean"}, set(), path)
            if arity != PAIR:
                raise ConfigError(f"{path}: extend_mean makes a pair field, and {path} takes a {arity} field")
            return extend_symmetric_mean(parse_field(raw["extend_mean"], POINT))
        return parse_field(raw, arity)
    except ConfigError:
        raise
    except FraclabError as err:
        raise ConfigError(f"{path}: {err}") from None


def _pair_field(raw, path):
    """Exponent usable on point pairs.  Plain expressions in point variables
    are extended symmetrically; expressions naming y-variables are taken as
    written."""
    f = _parse(raw, PAIR, path)
    if f.constant_value() is None and not (ex.free_variables(f.tree) & set(ex.PAIR_VARS)):
        return extend_symmetric_mean(_parse(raw, POINT, path))
    return f


def _grid_fn(raw, dom, path):
    try:
        return function_on_domain(parse_field(raw, POINT), dom)
    except FraclabError as err:
        raise ConfigError(f"{path}: {err}") from None


def _check_ranges(dom, **fields):
    """validate_bounds on each field, its config key naming its role."""
    for key, f in fields.items():
        try:
            validate_bounds(f, dom, key)
        except FraclabError as err:
            raise ConfigError(f"{key}: {err}") from None


def _numeric_ok(res, what):
    if res.status == BRACKET_FAILURE:
        raise NumericError(f"{what}: Luxemburg bracketing failed")
    return res


def _finite_or_none(v):
    if v is None:
        return None, False
    return (v, False) if math.isfinite(v) else (None, True)


def _cmd_norm(cfg):
    _check_keys(cfg, {"domain", "f", "p"}, {"scope"}, "config")
    dom = _domain(cfg["domain"])
    scope = _scope(cfg.get("scope", "interior"))
    f = _grid_fn(cfg["f"], dom, "f")
    p = _parse(cfg["p"], POINT if scope == "interior" else BOUNDARY, "p")
    _check_ranges(dom, p=p)
    res = _numeric_ok(luxemburg_norm(f, p, scope), "norm")
    return res.lambda_star, asdict(res)


def _cmd_seminorm(cfg):
    _check_keys(cfg, {"domain", "f", "p", "s"}, {"scope"}, "config")
    dom = _domain(cfg["domain"])
    scope = _scope(cfg.get("scope", "interior"))
    f = _grid_fn(cfg["f"], dom, "f")
    p = _pair_field(cfg["p"], "p")
    s = _pair_field(cfg["s"], "s")
    _check_ranges(dom, p=p, s=s)
    pq = pair_quadrature(dom, scope)
    if scope == "interior":
        res = gagliardo_seminorm(f, p, s, pq)
    else:
        res = boundary_gagliardo_seminorm(f, p, s, pq)
    _numeric_ok(res, "seminorm")
    return res.lambda_star, asdict(res)


def _cmd_trace_check(cfg):
    _check_keys(cfg, {"domain", "f", "p", "q", "s"}, set(), "config")
    dom = _domain(cfg["domain"])
    f = _grid_fn(cfg["f"], dom, "f")
    p = _pair_field(cfg["p"], "p")
    q = _parse(cfg["q"], BOUNDARY, "q")
    s = _pair_field(cfg["s"], "s")
    _check_ranges(dom, p=p, q=q, s=s)
    rep = _numeric_ok(trace_check(f, p, q, s), "trace-check")
    gap, unbounded = _finite_or_none(rep.gap_k)
    return (rep.ratio if rep.ratio is not None else 0.0), {**asdict(rep), "gap_k": gap, "gap_unbounded": unbounded}


def _cmd_holder(cfg):
    _check_keys(cfg, {"domain", "f", "g", "p", "q", "r"}, {"scope"}, "config")
    dom = _domain(cfg["domain"])
    scope = _scope(cfg.get("scope", "interior"))
    arity = POINT if scope == "interior" else BOUNDARY
    f = _grid_fn(cfg["f"], dom, "f")
    g = _grid_fn(cfg["g"], dom, "g")
    p = _parse(cfg["p"], arity, "p")
    q = _parse(cfg["q"], arity, "q")
    r = _parse(cfg["r"], arity, "r")
    # conjugacy then bounds r: 1/r = 1/p + 1/q lies in (0, 2) when p, q > 1,
    # where role 'r' (> 1) would turn away the classical p = q = 2, r = 1
    _check_ranges(dom, p=p, q=q)
    rep = _numeric_ok(holder_check(f, g, p, q, r, scope), "holder")
    result = {**asdict(rep), "rhs_product": rep.factor_norms[0] * rep.factor_norms[1]}
    return (rep.ratio if rep.ratio is not None else 0.0), result


def _cmd_sharpness(cfg):
    _check_keys(cfg, {"domain", "p", "q", "s", "family"}, {"case_id"}, "config")
    dom = _domain(cfg["domain"])
    p = _pair_field(cfg["p"], "p")
    q = _parse(cfg["q"], BOUNDARY, "q")
    s = _pair_field(cfg["s"], "s")
    _check_ranges(dom, p=p, q=q, s=s)
    fam_cfg = cfg["family"]
    _check_keys(fam_cfg, {"center", "a", "scales"}, {"delta", "profile"}, "family")
    # the mollifier is the only profile; the key stays accepted as input
    if fam_cfg.get("profile", "mollifier") != "mollifier":
        raise ConfigError(f"family: unknown profile {fam_cfg['profile']!r}")
    center = _numbers(fam_cfg["center"], "family.center")
    if len(center) != dom.n:
        raise ConfigError(f"family: center must have {dom.n} coordinates")
    scales = _numbers(fam_cfg["scales"], "family.scales")
    if not scales or any(k <= 0 for k in scales):
        raise ConfigError("family: scales must be positive numbers")
    fam = ConcentrationFamily(
        center=center,
        a=_number(fam_cfg["a"], "family.a"),
        scales=scales,
        delta=_number(fam_cfg.get("delta", 0.25), "family.delta"),
    )
    rows = sharpness_sweep(fam, p, q, s, dom, case_id=str(cfg.get("case_id", "sweep")))
    headline = 0.0
    for row in rows:
        if row.ratio is not None:
            headline = row.ratio
    return headline, {"rows": [dict(zip(CSV_HEADER, astuple(r))) for r in rows]}


def _cmd_partition(cfg):
    _check_keys(cfg, {"domain", "p", "q", "s"}, set(), "config")
    dom = _domain(cfg["domain"])
    p = _pair_field(cfg["p"], "p")
    q = _parse(cfg["q"], BOUNDARY, "q")
    s = _pair_field(cfg["s"], "s")
    k = subcritical_gap(p, q, s, dom)
    cert = covering_partition(p, q, s, dom, k)
    verified = verify_certificate(cert, p, q, s, dom)
    # cert.gap_k is the effective gap, 1.0 for an infinite one; the report
    # keeps the computed gap
    gap, unbounded = _finite_or_none(k)
    result = {
        **asdict(cert),
        "gap_k": gap,
        "gap_unbounded": unbounded,
        "n_patches": cert.n_patches,
        "verified": verified,
    }
    return cert.epsilon, result


def _cmd_embed(cfg):
    _check_keys(cfg, {"domain", "f", "p", "s", "t", "r"}, set(), "config")
    dom = _domain(cfg["domain"])
    f = _grid_fn(cfg["f"], dom, "f")
    p = _pair_field(cfg["p"], "p")
    s = _pair_field(cfg["s"], "s")
    rep = embedding_check(f, p, s, _number(cfg["t"], "t"), _number(cfg["r"], "r"))
    return rep.kernel_bound, asdict(rep)


def _cmd_solve(cfg):
    _check_keys(cfg, {"domain", "p", "s", "g", "r"}, {"solver"}, "config")
    dom = _domain(cfg["domain"])
    p = _pair_field(cfg["p"], "p")
    s = _pair_field(cfg["s"], "s")
    g = _grid_fn(cfg["g"], dom, "g")
    r = _parse(cfg["r"], BOUNDARY, "r")
    sv = cfg.get("solver", {})
    _check_keys(sv, set(), {"tol", "max_iter", "seed", "accelerate", "start"}, "solver")
    seed = _number(sv.get("seed", 42), "solver.seed", int)
    if seed < 0:
        raise ConfigError(f"solver.seed: expected a non-negative integer, got {seed!r}")
    try:
        opts = SolverOptions(
            tol=_number(sv.get("tol", 1e-8), "solver.tol"),
            max_iter=_number(sv.get("max_iter", 5000), "solver.max_iter", int),
            seed=seed,
            accelerate=sv.get("accelerate", True),
            start=str(sv.get("start", "zero")),
        )
    except ProblemError as err:
        # SolverOptions turns away accelerate = false; its message names the key
        raise ConfigError(f"solver.{err}") from None
    prob = EnergyProblem(dom, p, s, g, r)
    rep = minimize(prob, opts)
    result = {
        "energy": rep.energy,
        "el_residual": rep.el_residual,
        "iterations": rep.iterations,
        "status": rep.status,
        "history": [[it, e, gi] for it, e, gi in rep.history],
        "minimizer": rep.minimizer.interior.tolist(),
    }
    return rep.energy, result


_HANDLERS = {
    "norm": _cmd_norm,
    "seminorm": _cmd_seminorm,
    "trace-check": _cmd_trace_check,
    "sharpness": _cmd_sharpness,
    "holder": _cmd_holder,
    "partition": _cmd_partition,
    "embed": _cmd_embed,
    "solve": _cmd_solve,
}


def _sanitize(obj):
    if isinstance(obj, dict):
        return {k: _sanitize(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_sanitize(v) for v in obj]
    if isinstance(obj, np.ndarray):
        return [_sanitize(v) for v in obj.tolist()]
    if isinstance(obj, (bool, np.bool_)):
        return bool(obj)
    if isinstance(obj, (int, np.integer)):
        return int(obj)
    if isinstance(obj, (float, np.floating)):
        v = float(obj)
        return v if math.isfinite(v) else None
    return obj


def _csv_cell(v):
    if isinstance(v, str):
        return v
    if isinstance(v, bool):
        return "true" if v else "false"
    return "" if v is None else "%.17g" % v


def _write_csv(path, rows):
    """The sweep's report rows under CSV_HEADER: a str as is, a bool as
    true/false, None as empty and a number as %.17g."""
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh, lineterminator="\n")
        w.writerow(CSV_HEADER)
        w.writerows([_csv_cell(v) for v in row.values()] for row in rows)


def _load_json(path):
    try:
        with open(path) as fh:
            cfg = json.load(fh)
    except OSError as err:
        raise ConfigError(f"cannot read config {path}: {err}") from None
    except json.JSONDecodeError as err:
        raise ConfigError(f"config {path} line {err.lineno} column {err.colno}: {err.msg}") from None
    if not isinstance(cfg, dict):
        raise ConfigError("config root must be an object")
    return cfg


def _resolve_threads(value):
    if value is not None:
        if value < 1:
            raise ConfigError("threads must be a positive integer")
        return value
    env = os.environ.get("FRACLAB_THREADS")
    if env is not None:
        try:
            k = int(env)
        except ValueError:
            raise ConfigError(f"FRACLAB_THREADS is not an integer: {env!r}") from None
        if k < 1:
            raise ConfigError("FRACLAB_THREADS must be a positive integer")
        return k
    return os.cpu_count() or 1


def _verify(path):
    try:
        with open(path) as fh:
            rep = json.load(fh)
    except (OSError, json.JSONDecodeError) as err:
        raise ConfigError(f"cannot read report {path}: {err}") from None
    if not isinstance(rep, dict) or not {"command", "config", "headline"} <= set(rep):
        raise ConfigError("report lacks command/config/headline fields")
    cmd = rep["command"]
    if cmd not in _HANDLERS:
        raise ConfigError(f"unknown command {cmd!r} in report")
    headline, _ = _HANDLERS[cmd](rep["config"])
    stored = _number(rep["headline"], "headline")
    if abs(headline - stored) <= 1e-12 * max(1.0, abs(stored)):
        sys.stdout.write(f"verify ok: {cmd} headline {headline!r} matches report\n")
        return 0
    raise NumericError(f"verify mismatch for {cmd}: recomputed {headline!r}, report has {stored!r}")


@functools.cache
def _build_parser():
    # built once per process: a parse keeps no state in the parser.
    # --threads is accepted before and after the subcommand; with no default
    # the subcommand's parse overwrites the top-level value only when given
    threads = argparse.ArgumentParser(add_help=False)
    threads.add_argument("--threads", type=int, default=argparse.SUPPRESS, help="worker thread cap (default: FRACLAB_THREADS or hardware count)")
    parser = argparse.ArgumentParser(
        prog="fraclab",
        description="Variable-exponent fractional norms, trace diagnostics, and the nonlocal Neumann solver.",
        parents=[threads],
    )
    parser.add_argument("--verify", metavar="REPORT", help="recheck a report's headline against its embedded config")
    sub = parser.add_subparsers(dest="command")
    for name in _HANDLERS:
        sp = sub.add_parser(name, parents=[threads])
        sp.add_argument("config_path", nargs="?", default=None, help="JSON config path")
        sp.add_argument("--out", default=None, help="directory for the report files")
    return parser


def main(argv=None):
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        threads = _resolve_threads(getattr(args, "threads", None))
        set_default_threads(threads)
        if args.verify:
            return _verify(args.verify)
        if not args.command:
            parser.print_usage(sys.stderr)
            raise ConfigError("a subcommand is required (or --verify REPORT)")
        if not args.config_path:
            raise ConfigError("a config path is required")
        cfg = _load_json(args.config_path)
        headline, result = _HANDLERS[args.command](cfg)
        report = _sanitize({"command": args.command, "config": cfg, "headline": headline, "result": result})
        text = json.dumps(report, sort_keys=True, indent=2, allow_nan=False) + "\n"
        sys.stdout.write(text)
        if args.out:
            os.makedirs(args.out, exist_ok=True)
            with open(os.path.join(args.out, f"{args.command}-report.json"), "w") as fh:
                fh.write(text)
            if args.command == "sharpness":
                _write_csv(os.path.join(args.out, "sharpness.csv"), result["rows"])
        if args.command == "solve" and result["status"] != CONVERGED:
            return 4
        return 0
    except FraclabError as err:
        sys.stderr.write(f"error: {err}\n")
        return err.exit_code


if __name__ == "__main__":
    sys.exit(main())
