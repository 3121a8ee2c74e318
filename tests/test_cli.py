"""Command line contract: configs in, reports out, exit codes, --verify."""

import dataclasses
import json
import os
import runpy
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import fraclab as fl
from fraclab import cli
from fraclab.cli import CSV_HEADER, main
from fraclab.geometry import get_default_threads, set_default_threads

import oracles

INTERVAL = {"type": "interval", "bounds": [0.0, 1.0], "resolution": [64]}
SQUARE = {"type": "rectangle", "bounds": [[0.0, 0.0], [1.0, 1.0]], "resolution": [16, 16]}
REPO = Path(__file__).resolve().parent.parent


@pytest.fixture(autouse=True)
def _restore_threads():
    # main() installs the resolved thread count globally; keep tests isolated
    k = get_default_threads()
    yield
    set_default_threads(k)


@pytest.fixture
def run(tmp_path, capsys, monkeypatch):
    monkeypatch.delenv("FRACLAB_THREADS", raising=False)

    def _run(argv, cfg=None):
        if cfg is not None:
            path = tmp_path / "config.json"
            path.write_text(json.dumps(cfg))
            argv = argv + [str(path)]
        rc = main(argv)
        out = capsys.readouterr()
        return rc, out.out, out.err

    return _run


def norm_cfg(**over):
    cfg = {"domain": dict(INTERVAL), "f": "2", "p": "2 + x"}
    cfg.update(over)
    return cfg


# -- happy paths -------------------------------------------------------------


def test_norm_constant_two_headline_is_exact(run):
    rc, out, err = run(["norm"], norm_cfg())
    assert rc == 0 and err == ""
    rep = json.loads(out)
    assert rep["command"] == "norm"
    assert rep["headline"] == 2.0
    assert rep["result"]["status"] == "converged"
    assert rep["result"]["iterations"] == 2
    assert rep["result"]["modular_at_lambda"] == 1.0
    assert rep["config"]["f"] == "2"


def test_report_is_sorted_json_with_trailing_newline(run):
    _, out, _ = run(["norm"], norm_cfg())
    rep = json.loads(out)
    assert out == json.dumps(rep, sort_keys=True, indent=2, allow_nan=False) + "\n"


def test_report_file_equals_stdout(run, tmp_path):
    outdir = tmp_path / "reports"
    rc, out, _ = run(["norm", "--out", str(outdir)], norm_cfg())
    assert rc == 0
    assert (outdir / "norm-report.json").read_text() == out


def test_verify_accepts_fresh_report(run, tmp_path):
    outdir = tmp_path / "reports"
    run(["norm", "--out", str(outdir)], norm_cfg())
    rc, out, err = run(["--verify", str(outdir / "norm-report.json")])
    assert rc == 0 and err == ""
    assert out.startswith("verify ok: norm headline")


def test_verify_flags_tampered_headline(run, tmp_path):
    outdir = tmp_path / "reports"
    run(["norm", "--out", str(outdir)], norm_cfg())
    path = outdir / "norm-report.json"
    rep = json.loads(path.read_text())
    rep["headline"] = 2.5
    path.write_text(json.dumps(rep))
    rc, _, err = run(["--verify", str(path)])
    assert rc == 3
    assert "verify mismatch for norm" in err


def test_verify_rejects_shapeless_report(run, tmp_path):
    path = tmp_path / "r.json"
    path.write_text(json.dumps({"headline": 1.0}))
    rc, _, err = run(["--verify", str(path)])
    assert rc == 2
    assert "report lacks command/config/headline fields" in err


def test_verify_rejects_a_headline_that_is_not_a_number(run, tmp_path):
    outdir = tmp_path / "reports"
    run(["norm", "--out", str(outdir)], norm_cfg())
    path = outdir / "norm-report.json"
    rep = json.loads(path.read_text())
    rep["headline"] = None
    path.write_text(json.dumps(rep))
    rc, out, err = run(["--verify", str(path)])
    assert rc == 2 and out == ""
    assert err == "error: headline: expected a finite number, got None\n"


def test_verify_rejects_an_unknown_command(run, tmp_path):
    path = tmp_path / "r.json"
    path.write_text(json.dumps({"command": "plot", "config": {}, "headline": 1.0}))
    rc, out, err = run(["--verify", str(path)])
    assert rc == 2 and out == ""
    assert err == "error: unknown command 'plot' in report\n"


@pytest.mark.parametrize("content", [None, "{not json"])
def test_verify_rejects_unreadable_report(run, tmp_path, content):
    path = tmp_path / "r.json"
    if content is not None:
        path.write_text(content)
    rc, out, err = run(["--verify", str(path)])
    assert rc == 2 and out == ""
    assert f"cannot read report {path}" in err


def test_sanitize_turns_arrays_into_lists_of_finite_numbers():
    rep = cli._sanitize({"v": np.array([[1.5, np.inf], [np.nan, 2.0]]), "k": np.arange(2)})
    assert rep == {"v": [[1.5, None], [None, 2.0]], "k": [0, 1]}
    assert type(rep["v"]) is list and type(rep["k"][1]) is int


def test_seminorm_zero_function(run):
    cfg = {"domain": dict(INTERVAL), "f": "0", "p": "2", "s": "0.4"}
    rc, out, _ = run(["seminorm"], cfg)
    assert rc == 0
    rep = json.loads(out)
    assert rep["headline"] == 0.0
    assert rep["result"]["status"] == "zero-function"


def test_seminorm_stdout_thread_invariant(run):
    cfg = {
        "domain": dict(SQUARE),
        "f": "x1*x2 + 0.5",
        "p": {"extend_mean": "2 + x1/2"},
        "s": "0.4",
    }
    rc1, out1, _ = run(["seminorm", "--threads", "1"], cfg)
    rc4, out4, _ = run(["seminorm", "--threads", "4"], cfg)
    assert rc1 == rc4 == 0
    assert out1 == out4


def test_boundary_seminorm_report(run, tmp_path):
    # an exponent of both coordinates streams its log-terms over the facets
    square8 = {"type": "rectangle", "bounds": [[0.0, 0.0], [1.0, 1.0]], "resolution": [8, 8]}
    cfg = {"domain": square8, "scope": "boundary", "f": "sin(3*x1) + x1*x2", "p": "2 + x1/4 + x2^2/10", "s": "0.4"}
    outdir = tmp_path / "reports"
    rc, out, err = run(["seminorm", "--out", str(outdir)], cfg)
    assert rc == 0 and err == ""
    headline = json.loads(out)["headline"]
    dom = fl.build_rectangle((0.0, 0.0), (1.0, 1.0), 8, 8)
    f = fl.function_on_domain(fl.parse_field(cfg["f"], fl.POINT), dom)
    p = fl.extend_symmetric_mean(fl.parse_field(cfg["p"], fl.POINT))
    res = fl.boundary_gagliardo_seminorm(f, p, 0.4, fl.pair_quadrature(dom, "boundary"))
    assert headline == res.lambda_star
    rc, out, _ = run(["--verify", str(outdir / "seminorm-report.json")])
    assert rc == 0 and out.startswith("verify ok: seminorm")
    # the power-form pass, bisected: the root the report had before it streamed
    pq = fl.pair_quadrature(dom, "boundary")
    bisected = fl.solve_unit_modular(lambda lam: fl.modular_gagliardo(f, p, 0.4, pq, lam))
    assert headline == pytest.approx(bisected.lambda_star, rel=1e-12)


def test_trace_check_verify_roundtrip(run, tmp_path):
    outdir = tmp_path / "reports"
    cfg = {"domain": dict(SQUARE), "f": "1", "p": "2", "q": "1.5", "s": "0.5"}
    rc, out, _ = run(["trace-check", "--out", str(outdir)], cfg)
    assert rc == 0
    rep = json.loads(out)
    assert rep["result"]["subcritical"] is True
    assert rep["result"]["gap_k"] == pytest.approx(0.5, abs=1e-12)
    assert rep["result"]["gap_unbounded"] is False
    assert rep["headline"] == rep["result"]["ratio"]
    rc, out, _ = run(["--verify", str(outdir / "trace-check-report.json")])
    assert rc == 0 and out.startswith("verify ok: trace-check")


def test_trace_check_without_a_gap_reports_none(run):
    # q = 3 lies above the critical trace exponent 2 of p = 2, s = 1/2 in the plane
    cfg = {"domain": dict(SQUARE8), "f": "x1 + x2", "p": "2", "q": "3", "s": "0.5"}
    rc, out, _ = run(["trace-check"], cfg)
    assert rc == 0
    res = json.loads(out)["result"]
    assert res["subcritical"] is False
    assert res["gap_k"] is None and res["gap_unbounded"] is False


def test_trace_check_bracket_failure_exits_3(run, tmp_path):
    # norms beyond 2^200 fail their bracketing; the report used to read ok
    # with every number null, and --verify of it crashed
    outdir = tmp_path / "reports"
    cfg = {"domain": dict(SQUARE8), "f": "1e200*(x1 + x2)", "p": "2", "q": "1.5", "s": "0.5"}
    rc, out, err = run(["trace-check", "--out", str(outdir)], cfg)
    assert rc == 3 and out == ""
    assert err == "error: trace-check: Luxemburg bracketing failed\n"
    assert not outdir.exists()


def test_seminorm_kernel_underflow_exits_3_without_a_warning(tmp_path):
    # at p = 300 the kernel's d^(n + s p) underflows to 0; its inf kernel
    # used to print two RuntimeWarnings above the error line
    path = tmp_path / "c.json"
    path.write_text(json.dumps({"domain": dict(SQUARE), "f": "x1*x2 + 0.5", "p": "300", "s": "0.9"}))
    env = {**os.environ, "PYTHONPATH": str(REPO / "src")}
    env.pop("FRACLAB_THREADS", None)
    done = subprocess.run(
        [sys.executable, "-m", "fraclab.cli", "seminorm", str(path)], env=env, capture_output=True, text=True
    )
    assert done.returncode == 3 and done.stdout == ""
    assert done.stderr == "error: seminorm: Luxemburg bracketing failed\n"


def test_embed_bracket_failure_exits_3(run):
    cfg = {"domain": dict(SQUARE8), "f": "1e200*(x1 + x2)", "p": "2.5", "s": "0.5", "t": 0.25, "r": 1.5}
    rc, out, err = run(["embed"], cfg)
    assert rc == 3 and out == ""
    assert err == "error: embedding: variable seminorm: Luxemburg bracketing failed\n"


def test_holder_bracket_failure_exits_3(run, tmp_path):
    # the product and f's norm fail their bracketing; the report used to
    # read ok with a null ratio and exit 0
    outdir = tmp_path / "reports"
    cfg = {"domain": dict(INTERVAL), "f": "1e200*(1 + x)", "g": "1 + x", "p": "2", "q": "2", "r": "1"}
    rc, out, err = run(["holder", "--out", str(outdir)], cfg)
    assert rc == 3 and out == ""
    assert err == "error: holder: Luxemburg bracketing failed\n"
    assert not outdir.exists()


def test_partition_report(run):
    cfg = {"domain": dict(SQUARE), "p": "2", "q": "1.5", "s": "0.5"}
    rc, out, _ = run(["partition"], cfg)
    assert rc == 0
    rep = json.loads(out)
    assert rep["headline"] == 0.5
    res = rep["result"]
    assert res["verified"] is True
    assert res["n_patches"] == 24 and len(res["patches"]) == 24
    assert res["gap_k"] == pytest.approx(0.5, abs=1e-12)
    first = res["patches"][0]
    assert first["p_i"] == pytest.approx(1.9, abs=1e-12)
    assert first["continuum_ok"] and first["frozen_ok"]


def test_embed_headline_is_kernel_bound(run):
    cfg = {
        "domain": dict(INTERVAL),
        "f": "sin(6.283185307179586*x)",
        "p": "3",
        "s": "0.5",
        "t": 0.25,
        "r": 2.0,
    }
    rc, out, _ = run(["embed"], cfg)
    assert rc == 0
    rep = json.loads(out)
    assert rep["headline"] == rep["result"]["kernel_bound"]
    assert rep["result"]["zero_function"] is False


def test_holder_report(run):
    cfg = {
        "domain": dict(INTERVAL),
        "f": "1 + x",
        "g": "exp(-x)",
        "p": "2",
        "q": "2",
        "r": "1",
    }
    rc, out, _ = run(["holder"], cfg)
    assert rc == 0
    rep = json.loads(out)
    assert rep["result"]["ratio"] <= 1.0 + 1e-12
    assert rep["result"]["rhs_product"] == pytest.approx(
        rep["result"]["factor_norms"][0] * rep["result"]["factor_norms"][1], rel=1e-15
    )


def test_solve_verify_roundtrip(run, tmp_path):
    outdir = tmp_path / "reports"
    cfg = {
        "domain": {"type": "rectangle", "bounds": [[0.0, 0.0], [1.0, 1.0]], "resolution": [8, 8]},
        "p": "2",
        "s": "0.25",
        "g": "1",
        "r": "6",
        "solver": {"tol": 1e-9, "accelerate": True},
    }
    rc, out, _ = run(["solve", "--out", str(outdir)], cfg)
    assert rc == 0
    rep = json.loads(out)
    assert rep["result"]["status"] == "converged"
    assert len(rep["result"]["minimizer"]) == 64
    assert rep["result"]["history"][0][:2] == [0, 0.0]
    # the solver's work counters stay out of the report
    assert not {"energy_calls", "gradient_calls", "backtracks"} & set(rep["result"])
    rc, out, _ = run(["--verify", str(outdir / "solve-report.json")])
    assert rc == 0 and out.startswith("verify ok: solve")


def _assert_close(got, want, rel, where="report"):
    if isinstance(got, float) or isinstance(want, float):
        assert got == pytest.approx(want, rel=rel, abs=0.0), where
    elif isinstance(want, dict):
        assert isinstance(got, dict) and got.keys() == want.keys(), where
        for key in want:
            _assert_close(got[key], want[key], rel, f"{where}.{key}")
    elif isinstance(want, list):
        assert isinstance(got, list) and len(got) == len(want), where
        for i, (a, b) in enumerate(zip(got, want)):
            _assert_close(a, b, rel, f"{where}[{i}]")
    else:
        assert got == want, where


def test_solve_config_report_matches_its_pin(run):
    # a change in the last bits of the solver's sums moves this report's
    # el_residual by orders of magnitude, far outside rel 1e-12
    pins = json.loads((REPO / "perfbench" / "reference.json").read_text())
    want = pins["configs"]["values"]["reports"]["solve"]
    rc, out, _ = run(["solve", str(REPO / "scripts" / "configs" / "solve.json")])
    assert rc == 0
    _assert_close(json.loads(out), want, 1e-12)


def test_solve_asymmetric_exponent_exits_2(run):
    # symmetric on the first 64 cells (x2 < 0.75), not on the whole mesh
    cfg = {
        "domain": dict(SQUARE),
        "p": "2 + 0.1*(max(x2, 0.75) - max(y2, 0.75))",
        "s": "0.25",
        "g": "1",
        "r": "6",
        "solver": {"tol": 1e-9, "accelerate": True},
    }
    rc, out, err = run(["solve"], cfg)
    assert rc == 2 and out == ""
    assert err == "error: pair exponent must satisfy p(x, y) = p(y, x)\n"


def test_solve_nonconvergence_exits_4(run):
    cfg = {
        "domain": {"type": "rectangle", "bounds": [[0.0, 0.0], [1.0, 1.0]], "resolution": [8, 8]},
        "p": "2",
        "s": "0.25",
        "g": "1",
        "r": "6",
        "solver": {"tol": 1e-14, "max_iter": 3},
    }
    rc, out, _ = run(["solve"], cfg)
    assert rc == 4
    # the report is still emitted so the run can be inspected
    assert json.loads(out)["result"]["status"] == "nonconverged"


def test_solve_stall_exits_4(run):
    cfg = {
        "domain": {"type": "rectangle", "bounds": [[0.0, 0.0], [1.0, 1.0]], "resolution": [12, 12]},
        "p": "2",
        "s": "0.25",
        "g": "1 + x1/2 + x2^2/4",
        "r": "6",
        "solver": {"tol": 1e-13, "accelerate": True},
    }
    rc, out, _ = run(["solve"], cfg)
    assert rc == 4
    assert json.loads(out)["result"]["status"] == "line-search-failure"


def test_solve_result_does_not_need_the_accelerate_key(run):
    cfg = json.loads((REPO / "scripts" / "configs" / "solve.json").read_text())
    assert cfg["solver"]["accelerate"] is True
    rc, named, _ = run(["solve"], cfg)
    assert rc == 0
    del cfg["solver"]["accelerate"]
    rc, left_out, _ = run(["solve"], cfg)
    assert rc == 0
    result = lambda text: json.dumps(json.loads(text)["result"], sort_keys=True, indent=2)
    assert result(left_out) == result(named)


def test_sharpness_csv_layout(run, tmp_path):
    outdir = tmp_path / "reports"
    cfg = {
        "domain": {"type": "rectangle", "bounds": [[0.0, 0.0], [1.0, 1.0]], "resolution": [32, 32]},
        "p": "2",
        "q": "1.5",
        "s": "0.5",
        "case_id": "ctl",
        "family": {"center": [0.5, 0.0], "a": 0.45, "scales": [1.0, 64.0]},
    }
    rc, out, _ = run(["sharpness", "--out", str(outdir)], cfg)
    assert rc == 0
    rep = json.loads(out)
    rows = rep["result"]["rows"]
    assert [r["status"] for r in rows] == ["ok", "rejected-resolution"]
    assert rep["headline"] == rows[0]["ratio"]
    assert rows[1]["ratio"] is None

    lines = (outdir / "sharpness.csv").read_text().splitlines()
    assert lines[0] == ",".join(CSV_HEADER)
    ok_cells = lines[1].split(",")
    assert ok_cells[0] == "ctl" and ok_cells[1] == "1"
    assert ok_cells[2] == "%.17g" % rows[0]["boundary_norm"]
    assert float(ok_cells[4]) == rows[0]["ratio"]
    assert ok_cells[5] == "true" and ok_cells[6] == "ok"
    assert lines[2] == "ctl,64,,,,false,rejected-resolution"


# -- config and argument failures --------------------------------------------


def test_expression_error_carries_position(run):
    rc, _, err = run(["norm"], norm_cfg(f="1 + * 2"))
    assert rc == 2
    assert err == "error: f: unexpected '*' (at position 4)\n"


def test_unknown_config_key(run):
    rc, _, err = run(["norm"], norm_cfg(bogus=1))
    assert rc == 2
    assert "config: unknown key(s) bogus" in err


def test_missing_config_key(run):
    cfg = norm_cfg()
    del cfg["p"]
    rc, _, err = run(["norm"], cfg)
    assert rc == 2
    assert "config: missing key(s) p" in err


def test_scope_rejected(run):
    rc, _, err = run(["norm"], norm_cfg(scope="sideways"))
    assert rc == 2
    assert "scope: expected interior|boundary, got 'sideways'" in err


def test_unknown_domain_type(run):
    rc, _, err = run(["norm"], norm_cfg(domain={"type": "disk", "bounds": [0, 1], "resolution": [4]}))
    assert rc == 2
    assert "unknown domain type 'disk'" in err


@pytest.mark.parametrize("cmd", ["partition", "solve", "trace-check"])
def test_bounds_whose_cells_overflow_exit_2(run, cmd):
    # cells of 2.5e299 on a side: their measure overflowed in the boxes of
    # partition and the pair distances of solve and trace-check, an
    # OverflowError with a traceback and exit 1
    cfg = json.loads((REPO / "scripts" / "configs" / f"{cmd}.json").read_text())
    cfg["domain"] = {"type": "rectangle", "bounds": [[0.0, 0.0], [1e300, 1e300]], "resolution": [4, 4]}
    rc, out, err = run([cmd], cfg)
    assert rc == 2 and out == ""
    assert err == "error: rectangle [0.0, 0.0] .. [1e+300, 1e+300]: its area or boundary measure overflows\n"


def test_bracket_failure_exits_3(run):
    rc, _, err = run(["norm"], norm_cfg(f="1e200", p="2"))
    assert rc == 3
    assert err == "error: norm: Luxemburg bracketing failed\n"


def test_norm_nan_exponent_names_its_first_sample(run):
    rc, out, err = run(["norm"], norm_cfg(p="2 + sqrt(x - 0.5)"))
    assert rc == 2 and out == ""
    dom = fl.build_interval(0.0, 1.0, 64)
    pts = np.vstack([dom.cell_centroids, dom.facet_centroids])
    first = pts[np.flatnonzero(pts[:, 0] < 0.5)[0]].tolist()
    assert err == f"error: p: field is not finite at sample {first}\n"


def test_seminorm_nan_exponent_names_its_first_pair(run):
    cfg = {"domain": dict(INTERVAL), "f": "x", "p": "2 + sqrt(x - y)", "s": "0.4"}
    rc, out, err = run(["seminorm"], cfg)
    assert rc == 2 and out == ""
    # the first NaN of the row-major scan over every ordered sample pair
    dom = fl.build_interval(0.0, 1.0, 64)
    pts = np.vstack([dom.cell_centroids, dom.facet_centroids])
    lo, _, witness, _ = oracles.pair_bounds(fl.parse_field(cfg["p"], fl.PAIR), pts)
    assert np.isnan(lo)
    assert err == f"error: p: field is not finite at pair {witness}\n"


def test_holder_conjugacy_failure_exits_2(run):
    cfg = {"domain": dict(INTERVAL), "f": "1", "g": "1", "p": "2", "q": "3", "r": "1"}
    rc, _, err = run(["holder"], cfg)
    assert rc == 2
    assert "not conjugate at" in err


@pytest.mark.parametrize(
    "p, q, r, key",
    [
        # 1/r = 1/p + 1/q holds on each; p or q is outside its role range
        ("0.5", "-1", "1", "p"),
        ("2", "0.5", "0.4", "q"),
        ("2", "2/(2*x - 1)", "2/(2*x)", "q"),
    ],
)
def test_holder_checks_role_ranges_exits_2(run, p, q, r, key):
    cfg = {"domain": dict(INTERVAL), "f": "1 + x", "g": "exp(-x)", "p": p, "q": q, "r": r}
    rc, out, err = run(["holder"], cfg)
    assert rc == 2 and out == ""
    assert err.startswith(f"error: {key}: role '{key}' requires values > 1.0; found ")


def test_holder_nan_exponent_exits_2(run):
    cfg = {"domain": dict(INTERVAL), "f": "1 + x", "g": "exp(-x)", "p": "2", "q": "2", "r": "sqrt(x - 2)"}
    rc, out, err = run(["holder"], cfg)
    assert rc == 2 and out == ""
    assert err == "error: exponents are not conjugate at [0.0078125]: residual nan\n"


def test_subcommand_required(run):
    rc, _, err = run([])
    assert rc == 2
    assert "a subcommand is required" in err


def test_config_path_required(run):
    rc, _, err = run(["norm"])
    assert rc == 2
    assert "a config path is required" in err


def test_unreadable_config_path_exits_2(run, tmp_path):
    path = tmp_path / "missing.json"
    rc, out, err = run(["norm", str(path)])
    assert rc == 2 and out == ""
    assert err.startswith(f"error: cannot read config {path}: ") and err.count("\n") == 1


def test_malformed_json_reports_location(run, tmp_path):
    path = tmp_path / "broken.json"
    path.write_text('{"domain": ')
    rc, _, err = run(["norm", str(path)])
    assert rc == 2
    assert "line 1 column" in err


def test_config_root_must_be_object(run, tmp_path):
    path = tmp_path / "list.json"
    path.write_text("[1, 2]")
    rc, _, err = run(["norm", str(path)])
    assert rc == 2
    assert "config root must be an object" in err


def test_env_threads_must_be_integer(run, monkeypatch, tmp_path):
    path = tmp_path / "c.json"
    path.write_text(json.dumps(norm_cfg()))
    monkeypatch.setenv("FRACLAB_THREADS", "abc")
    rc = main(["norm", str(path)])
    assert rc == 2
    monkeypatch.setenv("FRACLAB_THREADS", "2")
    assert main(["norm", str(path)]) == 0


def test_env_threads_must_be_positive(monkeypatch, capsys, tmp_path):
    path = tmp_path / "c.json"
    path.write_text(json.dumps(norm_cfg()))
    monkeypatch.setenv("FRACLAB_THREADS", "0")
    assert main(["norm", str(path)]) == 2
    assert "FRACLAB_THREADS must be a positive integer" in capsys.readouterr().err


def test_thread_flag_must_be_positive(run):
    rc, _, err = run(["norm", "--threads", "0"], norm_cfg())
    assert rc == 2
    assert "threads must be a positive integer" in err


SQUARE8 = {"type": "rectangle", "bounds": [[0.0, 0.0], [1.0, 1.0]], "resolution": [8, 8]}
TYPED_CONFIGS = {
    "norm": norm_cfg(),
    "sharpness": {
        "domain": dict(SQUARE),
        "p": "2",
        "q": "1.5",
        "s": "0.5",
        "family": {"center": [0.5, 0.0], "a": 0.45, "scales": [1.0, 2.0], "delta": 0.25},
    },
    "solve": {
        "domain": dict(SQUARE8),
        "p": "2",
        "s": "0.25",
        "g": "1",
        "r": "6",
        "solver": {"tol": 1e-9, "max_iter": 500, "seed": 3, "accelerate": True, "start": "random"},
    },
    "embed": {"domain": dict(INTERVAL), "f": "x", "p": "3", "s": "0.5", "t": 0.25, "r": 2.0},
    "seminorm": {"domain": dict(SQUARE8), "f": "x1*x2", "p": "2 + x1/2", "s": "0.4"},
    "trace-check": {"domain": dict(SQUARE8), "f": "x1 + x2", "p": "2", "q": "1.5", "s": "0.5"},
}


def _typed_cfg(command, key, value):
    cfg = json.loads(json.dumps(TYPED_CONFIGS[command]))
    *parents, leaf = key.split(".")
    node = cfg
    for k in parents:
        node = node[k]
    node[leaf] = value
    return cfg


@pytest.mark.parametrize("command", sorted(TYPED_CONFIGS))
def test_typed_configs_run(run, command):
    rc, _, err = run([command], TYPED_CONFIGS[command])
    assert rc == 0 and err == ""


# each report's result is its API dataclass, plus the keys the CLI adds
REPORT_TYPES = {
    "norm": (fl.LuxemburgResult, set()),
    "seminorm": (fl.LuxemburgResult, set()),
    "trace-check": (fl.TraceReport, {"gap_unbounded"}),
    "holder": (fl.HolderReport, {"rhs_product"}),
    "embed": (fl.EmbeddingReport, set()),
    "partition": (fl.GapCertificate, {"gap_unbounded", "n_patches", "verified"}),
}
REPORT_CONFIGS = {
    **TYPED_CONFIGS,
    "holder": {"domain": dict(INTERVAL), "f": "1 + x", "g": "exp(-x)", "p": "2", "q": "2", "r": "1"},
    "partition": {"domain": dict(SQUARE8), "p": "2", "q": "1.5", "s": "0.5"},
}


def _field_names(cls):
    return [f.name for f in dataclasses.fields(cls)]


@pytest.mark.parametrize("command", sorted(REPORT_TYPES))
def test_report_result_is_the_api_dataclass(run, command):
    cls, extras = REPORT_TYPES[command]
    rc, out, _ = run([command], REPORT_CONFIGS[command])
    assert rc == 0
    result = json.loads(out)["result"]
    assert set(result) == set(_field_names(cls)) | extras
    if command == "partition":
        assert result["verified"] is True
        for patch in result["patches"]:
            assert list(patch) == sorted(_field_names(fl.PatchSpec))


def test_sweep_rows_are_sweep_row_fields_under_csv_header(run):
    # the header names SweepRow's fields in order, scale as k_or_patch
    assert _field_names(fl.SweepRow) == ["scale" if h == "k_or_patch" else h for h in CSV_HEADER]
    rc, out, _ = run(["sharpness"], TYPED_CONFIGS["sharpness"])
    assert rc == 0
    for row in json.loads(out)["result"]["rows"]:
        assert list(row) == sorted(CSV_HEADER)


@pytest.mark.parametrize(
    "command, key, value",
    [
        ("sharpness", "family.a", "abc"),
        pytest.param("sharpness", "family.a", 10**400, id="sharpness-family.a-beyond-float"),
        ("sharpness", "family.center", ["0.5", 0.0]),
        ("sharpness", "family.center", 0.5),
        ("sharpness", "family.scales", [1.0, True]),
        ("sharpness", "family.scales", "1, 2"),
        ("sharpness", "family.delta", "wide"),
        ("solve", "solver.max_iter", "lots"),
        ("solve", "solver.max_iter", 2.5),
        ("solve", "solver.tol", "tight"),
        ("solve", "solver.tol", float("inf")),
        ("solve", "solver.seed", "x"),
        ("solve", "solver.seed", -1),
        ("solve", "solver.accelerate", "false"),
        ("solve", "solver.accelerate", 1),
        # steepest descent was removed
        ("solve", "solver.accelerate", False),
        pytest.param("norm", "domain", [0.0, 1.0], id="norm-domain-list"),
        # an interval takes one resolution; unpacking two raises a ValueError
        pytest.param("norm", "domain", dict(INTERVAL, resolution=[8, 8]), id="norm-domain-two-resolutions"),
        ("embed", "t", "x"),
        ("embed", "r", None),
        ("norm", "p", True),
        ("norm", "f", False),
        # below the role range of p
        ("norm", "p", 0.5),
        ("norm", "p", "x/2"),
        ("norm", "p", None),
        pytest.param("norm", "p", [2], id="norm-p-list"),
        # outside the role ranges p > 1, 0 < s < 1, q > 1
        ("seminorm", "p", 0.5),
        ("seminorm", "p", "x1/2"),
        ("seminorm", "s", 1.5),
        ("seminorm", "s", "x1"),
        ("trace-check", "p", 0.5),
        ("trace-check", "q", 0.5),
        ("trace-check", "s", 1.5),
        ("sharpness", "p", 1.0),
        ("sharpness", "q", "1 - x2"),
        ("sharpness", "s", 0),
    ],
)
def test_ill_typed_config_value_exits_2(run, command, key, value):
    rc, out, err = run([command], _typed_cfg(command, key, value))
    assert rc == 2 and out == ""
    # the message names the key path, elements of a list by index
    assert err.startswith(f"error: {key}") and err.count("\n") == 1


def test_family_profile_key(run, tmp_path):
    base_dir, named_dir = tmp_path / "base", tmp_path / "named"
    rc, base, _ = run(["sharpness", "--out", str(base_dir)], TYPED_CONFIGS["sharpness"])
    assert rc == 0
    rc, named, _ = run(["sharpness", "--out", str(named_dir)], _typed_cfg("sharpness", "family.profile", "mollifier"))
    assert rc == 0
    # the report echoes its config; without the echoed key it is byte-identical
    rep = json.loads(named)
    assert rep["config"]["family"].pop("profile") == "mollifier"
    assert json.dumps(rep, sort_keys=True, indent=2, allow_nan=False) + "\n" == base
    assert (named_dir / "sharpness.csv").read_bytes() == (base_dir / "sharpness.csv").read_bytes()
    rc, out, err = run(["sharpness"], _typed_cfg("sharpness", "family.profile", "gauss"))
    assert rc == 2 and out == ""
    assert err == "error: family: unknown profile 'gauss'\n"


@pytest.mark.parametrize(
    "key, value, message",
    [
        ("family.center", [0.5, 0.0, 0.0], "family: center must have 2 coordinates"),
        ("family.scales", [1.0, -2.0], "family: scales must be positive numbers"),
        ("family.scales", [], "family: scales must be positive numbers"),
    ],
)
def test_family_geometry_exits_2(run, key, value, message):
    rc, out, err = run(["sharpness"], _typed_cfg("sharpness", key, value))
    assert rc == 2 and out == ""
    assert err == f"error: {message}\n"


def test_extend_mean_key_error_is_reported_once(run):
    cfg = _typed_cfg("seminorm", "p", {"extend_mean": "2", "scale": 1})
    rc, out, err = run(["seminorm"], cfg)
    assert rc == 2 and out == ""
    assert err == "error: p: unknown key(s) scale\n"


@pytest.mark.parametrize(
    "command, key, arity",
    [("norm", "p", "point"), ("trace-check", "q", "boundary"), ("solve", "r", "boundary")],
)
def test_extend_mean_is_turned_away_where_a_key_takes_no_pair_field(run, command, key, arity):
    cfg = _typed_cfg(command, key, {"extend_mean": "2 + x/2" if command == "norm" else "1.5"})
    rc, out, err = run([command], cfg)
    assert rc == 2 and out == ""
    assert err == f"error: {key}: extend_mean makes a pair field, and {key} takes a {arity} field\n"


@pytest.mark.parametrize(
    "argv, threads",
    [
        (["--threads", "3", "norm", "{config}"], 3),
        (["norm", "{config}", "--threads", "5"], 5),
        # the subcommand's value wins
        (["--threads", "3", "norm", "{config}", "--threads", "5"], 5),
        (["--verify", "{report}", "--threads", "4"], 4),
        (["norm", "{config}"], 6),  # FRACLAB_THREADS
    ],
)
def test_thread_flag_before_or_after_the_subcommand(argv, threads, tmp_path, monkeypatch, capsys):
    config = tmp_path / "c.json"
    config.write_text(json.dumps(norm_cfg()))
    monkeypatch.setenv("FRACLAB_THREADS", "6")
    assert main(["norm", str(config), "--out", str(tmp_path)]) == 0
    calls = []
    monkeypatch.setattr(cli, "set_default_threads", calls.append)
    paths = {"config": str(config), "report": str(tmp_path / "norm-report.json")}
    assert main([a.format(**paths) for a in argv]) == 0
    assert calls == [threads]


def test_one_parser_serves_every_call_of_a_process(tmp_path, monkeypatch, capsys):
    config = tmp_path / "c.json"
    config.write_text(json.dumps(norm_cfg()))
    monkeypatch.setenv("FRACLAB_THREADS", "6")
    calls = []
    monkeypatch.setattr(cli, "set_default_threads", calls.append)
    reports = []
    for argv in (
        ["--threads", "3", "norm", str(config)],
        ["norm", str(config)],
        ["norm", str(config), "--threads", "5"],
        ["norm", str(config)],
    ):
        assert main(argv) == 0
        reports.append(capsys.readouterr().out)
    # a --threads of one call is not carried into the next
    assert calls == [3, 6, 5, 6]
    assert len(set(reports)) == 1 and reports[0].startswith("{")
    assert cli._build_parser() is cli._build_parser()


def test_module_runs_as_a_script(tmp_path, monkeypatch, capsys):
    path = tmp_path / "c.json"
    path.write_text(json.dumps(norm_cfg()))
    monkeypatch.delenv("FRACLAB_THREADS", raising=False)
    monkeypatch.setattr(sys, "argv", ["fraclab", "norm", str(path)])
    # a fresh run of the module, as `python -m fraclab.cli` makes it
    monkeypatch.delitem(sys.modules, "fraclab.cli")
    with pytest.raises(SystemExit) as exc:
        runpy.run_module("fraclab.cli", run_name="__main__")
    assert exc.value.code == 0
    assert json.loads(capsys.readouterr().out)["headline"] == 2.0
