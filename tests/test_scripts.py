"""Smoke runs of the scripts in scripts/, so an API change cannot break
them silently."""

import importlib.util
import json
from pathlib import Path

import pytest

SCRIPTS = Path(__file__).resolve().parent.parent / "scripts"


def _load(name):
    spec = importlib.util.spec_from_file_location(name, SCRIPTS / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_trace_stability_runs(capsys):
    rc = _load("trace_stability").main(["--resolutions", "4", "6", "--expr", "x1 + x2"])
    assert rc == 0
    out = capsys.readouterr().out
    assert "x1 + x2" in out and "worst variation" in out


def test_pin_goldens_runs(capsys):
    rc = _load("pin_goldens").main([])
    assert rc == 0
    goldens = json.loads(capsys.readouterr().out)
    assert "sweep_super_ratios_128" not in goldens
    # the same value tests/test_modular.py pins
    assert goldens["norm_identity_p2_N64"] == pytest.approx(0.577332649588925, rel=1e-12)
