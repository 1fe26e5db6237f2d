import importlib.util
from pathlib import Path

import numpy as np
import pytest

TOOLS = Path(__file__).resolve().parent.parent / "tools"


def load(name):
    spec = importlib.util.spec_from_file_location(name, TOOLS / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


digest = load("output_digest")
accuracy = load("accuracy")


class TestOutputCompare:
    def test_array_gap(self):
        gap = digest._array_gap
        b = np.array([[1.0, -4.0], [np.inf, 0.0]])
        assert gap(b.copy(), b) == 0.0
        a = b.copy()
        a[0, 0] += 2.0 ** -50
        assert gap(a, b) == 2.0 ** -52  # relative to the largest |b|
        a[1, 0] = np.nan  # a non-finite entry that moves
        assert gap(a, b) == np.inf
        assert gap(b[:1], b) == np.inf
        nan = np.array([np.nan, 1.0])
        assert gap(nan.copy(), nan) == 0.0

    def test_file_gap(self):
        gap = digest._file_gap
        assert gap("s,v\n0.5,2\n", "s,v\n0.5,2\n") == 0.0
        assert gap("x=1.5e-16\n", "x=1e-16\n") == 0.5e-16 / 1.5e-16
        assert gap("a,b\n1,2\n", "a,c\n1,2\n") == np.inf
        assert gap("1,2\n", "1,2,3\n") == np.inf
        assert gap("0,1\n", "0.0,1.0\n") == 0.0

    def test_compare_groups(self, tmp_path):
        # the largest gap per growth function and output, and per command
        for side, scale in (("new", 1.0 + 2.0 ** -50), ("old", 1.0)):
            root = tmp_path / side
            (root / "cli" / "bbm0").mkdir(parents=True)
            np.savez(root / "core.npz", **{
                "power(2)|3 nodes, value pass|value": np.array(2.0 * scale),
                "power(2)|4 nodes, value pass|value": np.array(2.0),
                "power(2)|3 nodes, Hessian pass|Hessian": np.eye(2)})
            (root / "cli" / "bbm0" / "bbm.csv").write_text(
                f"s,v\n0.5,{scale!r}\n")
        lines = digest.compare(tmp_path / "new", tmp_path / "old")
        assert len(lines) == 3
        assert lines[0].split()[:3] == ["core", "power(2)", "value"]
        assert float(lines[0].split()[3]) == pytest.approx(2.0 ** -50,
                                                           rel=1e-2)
        assert "3 nodes, value pass" in lines[0]
        assert lines[1].split()[2:4] == ["Hessian", "0"]
        assert lines[2].split()[:2] == ["cli", "bbm"]
        assert float(lines[2].split()[2]) > 0.0


class TestAccuracy:
    def test_small_cases(self):
        # one line per growth function of the stored hat table and mesh,
        # and per mesh and order of the t^2 sweep; errors that are small,
        # but not 0, and the same on a second run
        hat = accuracy.hat_errors(nodes=(33,))
        assert [label for label, _ in hat] == [
            "hat max(power(2), power(3)), 33 nodes", "hat power(3), 33 nodes"]
        square = accuracy.square_errors(nodes=(9,), orders=(0.7, 0.9),
                                        states=2)
        assert [label for label, _ in square] == [
            "t^2 random, 9 nodes, s = 0.7", "t^2 random, 9 nodes, s = 0.9"]
        assert all(0.0 < err < 1e-2 for _, err in hat + square)
        assert accuracy.square_errors(nodes=(9,), orders=(0.7, 0.9),
                                      states=2) == square
