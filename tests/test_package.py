"""Tests of the package as a whole: its public API and its source."""

import ast
import importlib
import sys
from pathlib import Path

import kcbs_msr

# The public API, by defining module.
PUBLIC_API = {
    "states": [
        "DEFAULT_SEED",
        "BlochAngles",
        "InvalidStateError",
        "MsrPair",
        "Qutrit",
        "f_function",
        "f_value",
        "msr_to_qutrit",
        "overlap_angle",
        "qubit_ket",
        "sample_pairs",
    ],
    "observables": [
        "CLASSICAL_BOUND",
        "IncompatibleFrameError",
        "PentagramFrame",
        "SPECTRUM_MAX",
        "SPECTRUM_MIN",
        "SPIN1_X",
        "SPIN1_Y",
        "SPIN1_Z",
        "assignment_values",
        "kcbs_operator_diagonal",
        "kcbs_operator_from_frame",
        "pentagram_vectors",
    ],
    "measures": [
        "DegenerateAnglesError",
        "InfeasiblePhaseError",
        "concurrence_function",
        "concurrence_msr",
        "concurrence_symmetric",
        "delta_phi_for_constant_c",
        "expectation_value",
        "f_from_concurrence",
        "s_closed_form",
        "s_function",
        "s_rational_form",
        "s_via_concurrence",
    ],
    "extremal": [
        "ExtremalResult",
        "LOCAL_BOUND",
        "chsh_max",
        "concurrence_threshold",
        "extremal_witnesses",
        "numeric_extremal_search",
        "s_max_for_concurrence",
        "s_min_for_concurrence",
        "s_min_from_beta",
    ],
    "classify": ["Regime", "StateReport", "classify_s", "classify_state"],
    "scan": [
        "ScanConfig",
        "ScanRecord",
        "ScanSummary",
        "compute_scan",
        "write_scan",
    ],
    "checks": ["CheckResult", "run_all_checks"],
}


class TestPublicApi:
    def test_package_exports_exactly_the_api(self):
        expected = {name for names in PUBLIC_API.values() for name in names}
        assert len(expected) == 55
        assert len(kcbs_msr.__all__) == len(set(kcbs_msr.__all__))
        assert set(kcbs_msr.__all__) == expected

    def test_each_name_is_its_defining_modules_object(self):
        for module_name, names in PUBLIC_API.items():
            module = importlib.import_module(f"kcbs_msr.{module_name}")
            assert set(module.__all__) == set(names), module_name
            for name in names:
                assert getattr(kcbs_msr, name) is getattr(module, name), name


# numpy ufuncs whose kernel numpy picks by the CPU's SIMD features; the
# kernels may round differently, so a value from one of them can differ in
# its last bit between CPUs.  src/ computes these with math, value by value.
CPU_DISPATCHED_UFUNCS = {
    "arccos", "arcsin", "arctan", "arctan2", "exp", "expm1", "log", "log1p",
    "power", "tan", "sinh", "cosh", "tanh", "cbrt",
}


def _source_trees():
    root = Path(kcbs_msr.__file__).parent
    for path in sorted(root.rglob("*.py")):
        yield path.relative_to(root), ast.parse(path.read_text(encoding="utf-8"), filename=str(path))


class TestSource:
    def test_no_assert_statements(self):
        # ``python -O`` strips asserts, so none may guard the package's math.
        found = [
            f"{path}:{node.lineno}"
            for path, tree in _source_trees()
            for node in ast.walk(tree)
            if isinstance(node, ast.Assert)
        ]
        assert found == []

    def test_no_unused_imports(self):
        # Every name a module imports is read somewhere in it; __init__
        # imports to re-export, so it is left out.
        found = []
        for path, tree in _source_trees():
            if path.name == "__init__.py":
                continue
            read = {
                node.id
                for node in ast.walk(tree)
                if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)
            }
            for node in ast.walk(tree):
                if isinstance(node, ast.Import) or (
                    isinstance(node, ast.ImportFrom) and node.module != "__future__"
                ):
                    for alias in node.names:
                        bound = alias.asname or alias.name.split(".")[0]
                        if bound not in read:
                            found.append(f"{path}:{node.lineno}: {bound}")
        assert found == []

    def test_no_unused_private_functions(self):
        # Every private module-level function is read by name (a Name or an
        # Attribute) somewhere in the package outside its own body; a
        # docstring mention does not count.
        trees = dict(_source_trees())
        reads = [
            (node.id if isinstance(node, ast.Name) else node.attr, id(node))
            for tree in trees.values()
            for node in ast.walk(tree)
            if isinstance(node, (ast.Name, ast.Attribute)) and isinstance(node.ctx, ast.Load)
        ]
        found = []
        for path, tree in trees.items():
            for func in tree.body:
                if not isinstance(func, ast.FunctionDef) or not func.name.startswith("_"):
                    continue
                own = {id(node) for node in ast.walk(func)}
                if not any(name == func.name and key not in own for name, key in reads):
                    found.append(f"{path}:{func.lineno}: {func.name}")
        assert found == []

    def test_no_cpu_dispatched_ufuncs(self):
        # Known exception: the complex np.abs of checks' global-phase-invariance.
        # Over 2*10^6 complex normal inputs it differs in 74,311 values between
        # numpy 2.4.6's X86_V2 baseline and its AVX2 kernel, yet verify prints
        # the same bytes with every dispatched feature on or off.  Written as
        # re^2 + im^2 it moved the printed errors at 1, 200, 4097, 10^4 and
        # 10^6 samples, so it stays np.abs.
        found = []
        for path, tree in _source_trees():
            for node in ast.walk(tree):
                if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name) \
                        and node.value.id in ("np", "numpy"):
                    names = [node.attr]
                elif isinstance(node, ast.ImportFrom) and (node.module or "").startswith("numpy"):
                    names = [alias.name for alias in node.names]
                else:
                    continue
                found += [
                    f"{path}:{node.lineno}: {name}" for name in names if name in CPU_DISPATCHED_UFUNCS
                ]
        assert found == []

    def test_imports_only_numpy_and_the_standard_library(self):
        # The package's one dependency is numpy; scipy and the rest stay out.
        found = []
        for path, tree in _source_trees():
            for node in ast.walk(tree):
                if isinstance(node, ast.Import):
                    names = [alias.name for alias in node.names]
                elif isinstance(node, ast.ImportFrom) and node.level == 0:
                    names = [node.module]
                else:
                    continue
                found += [
                    f"{path}:{node.lineno}: {name}"
                    for name in names
                    if name.split(".")[0] != "numpy"
                    and name.split(".")[0] not in sys.stdlib_module_names
                ]
        assert found == []
