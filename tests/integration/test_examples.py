"""Smoke tests: the fast example scripts must run end to end.

``quickstart.py``, ``routability_flow.py`` and ``model_zoo.py`` train on
the full cached suite (minutes), so they are exercised by the benchmark
suite instead; the two examples below are self-contained and quick.
Every example is also imported in-process: each keeps its work behind
``if __name__ == "__main__"``, so an import runs nothing and only
resolves the ``repro`` names the script uses.
"""

import glob
import importlib.util
import os
import subprocess
import sys

import pytest

EXAMPLES = os.path.join(os.path.dirname(__file__), "..", "..", "examples")


def run_example(name: str, *args: str) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, os.path.join(EXAMPLES, name), *args],
        capture_output=True, text=True, timeout=300)


class TestExamples:
    def test_feature_recovery_runs(self):
        result = run_example("feature_recovery.py")
        assert result.returncode == 0, result.stderr
        assert "topological one-hop reach" in result.stdout
        assert "0.00e+00" in result.stdout  # exact recovery

    def test_bookshelf_io_runs(self):
        result = run_example("bookshelf_io.py")
        assert result.returncode == 0, result.stderr
        assert "parsed demo_bs" in result.stdout
        assert "LH-graph" in result.stdout
        assert "forward pass OK" in result.stdout

    def test_serving_runs(self):
        result = run_example("serving.py")
        assert result.returncode == 0, result.stderr
        assert "no probing involved" in result.stdout
        assert "stage calls {}" in result.stdout  # warm queue: zero work
        assert "all cached: True" in result.stdout
        assert "client round trip" in result.stdout

    @pytest.mark.parametrize("name", ["quickstart.py", "routability_flow.py",
                                      "model_zoo.py", "bookshelf_io.py",
                                      "feature_recovery.py", "serving.py"])
    def test_examples_have_docstring_and_main(self, name):
        path = os.path.join(EXAMPLES, name)
        source = open(path).read()
        assert source.lstrip().startswith(('#!', '"""')), name
        assert '__main__' in source, name

    @pytest.mark.parametrize(
        "path", sorted(glob.glob(os.path.join(EXAMPLES, "*.py"))),
        ids=os.path.basename)
    def test_example_imports(self, path):
        """A public name an example imports cannot vanish unnoticed."""
        name = os.path.splitext(os.path.basename(path))[0]
        spec = importlib.util.spec_from_file_location(f"_example_{name}",
                                                      path)
        spec.loader.exec_module(importlib.util.module_from_spec(spec))
