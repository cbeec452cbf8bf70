"""The sampling engine's draw discipline, and the module boundary around it."""

import ast
import pathlib
import sys

import numpy as np
import pytest

from specgauss import _engine, build_fbm, build_generalized_ou, fbm_coefficients

_SRC = pathlib.Path(_engine.__file__).parent


@pytest.mark.parametrize("seed", [0, -7, 2**64 + 3])
def test_run_blocks_hands_each_path_its_own_philox_stream(monkeypatch, seed):
    n, n_paths = 5, 11
    cases = [
        (build_fbm(0.3, 1.0, n, fbm_coefficients(0.3, 1.0, n)), 2 * n + 1),
        (build_generalized_ou(2.0, 0.0, 0.0, 2.0, 0.5, 1.0, n), 2 * n + 2),
    ]
    hi = (seed % 2**64) << 64
    for exp, width in cases:
        ref = np.array([np.random.Generator(np.random.Philox(key=hi + i)).standard_normal(width)
                        for i in range(n_paths)])
        for budget in (width, _engine.BLOCK_DOUBLES):
            for threads in (1, 3):
                got = np.full((n_paths, width), np.nan)

                def block(start, stop, z):
                    assert z.shape == (stop - start, width)
                    got[start:stop] = z

                with monkeypatch.context() as mp:
                    mp.setattr(_engine, "BLOCK_DOUBLES", budget)
                    _engine.run_blocks(exp, n_paths, 1, seed, threads, block)
                assert got.tobytes() == ref.tobytes(), f"width={width} budget={budget} threads={threads}"


# the runtime dependencies declared in pyproject.toml: one numeric backend
_DEPENDENCIES = {"numpy", "scipy"}


def _private(name):
    return name.startswith("_") and not (name.startswith("__") and name.endswith("__"))


def _foreign(module):
    top = module.split(".")[0]
    return top not in _DEPENDENCIES and top not in sys.stdlib_module_names


def _boundary_breaches(source):
    """Private names a module takes from a sibling module, and imports of
    packages that are neither declared dependencies nor the standard library."""
    tree = ast.parse(source)
    siblings = set()  # local names bound to sibling modules
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            found += [a.name for a in node.names if _foreign(a.name)]
        elif isinstance(node, ast.ImportFrom):
            if node.level == 0:
                if _foreign(node.module):
                    found.append(node.module)
            elif node.module is None:
                siblings.update(a.asname or a.name for a in node.names)
            else:
                found += [f"{node.module}.{a.name}" for a in node.names if _private(a.name)]
    for node in ast.walk(tree):
        if (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
                and node.value.id in siblings and _private(node.attr)):
            found.append(f"{node.value.id}.{node.attr}")
    return found


def test_modules_take_no_private_name_from_a_sibling():
    assert _boundary_breaches("from .expansion import _fold, build_fbm") == ["expansion._fold"]
    assert _boundary_breaches("from . import expansion as e\ne._fold(1)") == ["e._fold"]
    assert _boundary_breaches("import cupy\nfrom jax import jit\nimport scipy.fft") == ["cupy", "jax"]
    breaches = {
        path.name: found
        for path in sorted(_SRC.glob("*.py"))
        if (found := _boundary_breaches(path.read_text(encoding="utf-8")))
    }
    assert not breaches
