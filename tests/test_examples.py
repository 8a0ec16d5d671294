"""Smoke tests: every example must run end to end at reduced size."""

import os
import runpy
import subprocess
import sys
from pathlib import Path

import pytest

EXAMPLES = Path(__file__).resolve().parent.parent / "examples"
SRC = EXAMPLES.parent / "src"
sys.path.insert(0, str(EXAMPLES))


def load(name):
    return runpy.run_path(str(EXAMPLES / name))


class TestExamplesRun:
    def test_quickstart(self, capsys):
        load("quickstart.py")["main"](600)
        out = capsys.readouterr().out
        assert "modeled GPU time" in out
        assert "smallest angle" in out

    def test_mesh_refinement(self, capsys):
        load("mesh_refinement.py")["main"](800)
        out = capsys.readouterr().out
        assert "simulated GPU" in out
        assert "speedup" in out

    def test_sat_solving(self, capsys):
        load("sat_solving.py")["main"](300)
        out = capsys.readouterr().out
        assert "status:" in out

    def test_delaunay_morph(self, capsys):
        load("delaunay_morph.py")["main"](250)
        out = capsys.readouterr().out
        assert "verified Delaunay" in out

    def test_morph_toolkit_tour(self, capsys):
        mod = load("morph_toolkit_tour.py")
        mod["section_7_3_conflicts"]()
        mod["section_6_1_layout"]()
        mod["generic_engine"]()
        out = capsys.readouterr().out
        assert "OVERLAPPING winners" in out
        assert "proper coloring" in out

    @pytest.mark.slow
    def test_pointsto_compiler(self, capsys):
        load("pointsto_compiler.py")["main"]()
        out = capsys.readouterr().out
        assert "may_alias" in out


#: every ``python -m`` entry point the CI workflow invokes
ENTRY_POINTS = ["repro.tune", "repro.serve", "repro.scenarios",
                "repro.sessions", "repro.gateway", "repro.analysis.static"]


@pytest.mark.parametrize("module", ENTRY_POINTS)
def test_entry_point_imports_in_a_fresh_interpreter(module):
    # Import cycles only show when a module is the first one imported,
    # so each entry point gets its own interpreter.
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(SRC), env.get("PYTHONPATH")) if p)
    proc = subprocess.run([sys.executable, "-m", module, "--help"],
                          capture_output=True, text=True, env=env,
                          timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout
