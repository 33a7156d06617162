from __future__ import annotations

import ast
import re
from pathlib import Path

import drt

ROOT = Path(__file__).resolve().parents[1]

# Test-only oracles (brute_force_max, is_isomorphic_small, common_in_neighbors)
# live in conftest.py; adding a name here is a deliberate API change.
PUBLIC_API = [
    "AbelianGroup",
    "BaselineSummary",
    "CandidateSet",
    "FiniteField",
    "RankingResult",
    "SplitMix64",
    "Tournament",
    "Verdict",
    "__version__",
    "adjacency_matrix",
    "affine_witness",
    "are_equivalent",
    "bound_is_vacuous",
    "candidate_from_indices",
    "cayley_tournament",
    "check_mixing",
    "check_ranking",
    "check_sigma_gap",
    "check_theorem_bound",
    "classify",
    "common_out_neighbors",
    "count_consistent",
    "derive_seed",
    "difference_profile",
    "edge_count",
    "enumerate_automorphisms",
    "exact_max_consistent",
    "exhaustive_mixing_check",
    "format_diffset",
    "format_group_spec",
    "format_tournament",
    "gap_bound",
    "heuristic_rank",
    "is_doubly_regular",
    "is_shds",
    "is_skew",
    "make_field",
    "mask_vertices",
    "nonzero_squares",
    "paley_set",
    "parse_diffset",
    "parse_group_spec",
    "parse_tournament",
    "random_baseline",
    "random_tournament",
    "reverse_ranking",
    "sampled_mixing_check",
    "signed_adjacency",
    "verify_gram_identities",
    "vertex_mask",
]


def test_public_api():
    assert sorted(drt.__all__) == PUBLIC_API
    for name in PUBLIC_API:
        assert hasattr(drt, name), name


def test_star_import_binds_exactly_the_public_api():
    # no submodule and no `annotations` flag; test_public_api rules out a
    # name listed twice
    ns: dict = {}
    exec("from drt import *", ns)
    del ns["__builtins__"]
    assert sorted(ns) == PUBLIC_API


def test_sources_parse_at_the_declared_python_floor():
    # a regex, not tomllib: the floor itself (3.10) has no tomllib
    pyproject = (ROOT / "pyproject.toml").read_text()
    floor = re.search(r'^requires-python = ">=(\d+)\.(\d+)"$', pyproject, re.M)
    assert floor, "pyproject.toml declares no requires-python floor"
    version = (int(floor[1]), int(floor[2]))
    modules = sorted((ROOT / "src" / "drt").glob("*.py"))
    assert modules
    for path in modules:
        ast.parse(path.read_text(), filename=str(path), feature_version=version)


def test_version_has_one_owner():
    # drt.__version__ is the version; pyproject.toml reads it, so the
    # reports' tool_version and the package metadata cannot disagree
    pyproject = (ROOT / "pyproject.toml").read_text()
    project = re.search(r"^\[project\]\n(.*?)(?=^\[|\Z)", pyproject, re.M | re.S)
    assert project, "pyproject.toml has no [project] table"
    assert not re.search(r"^version\s*=", project[1], re.M)
    assert re.search(r'^dynamic = \[.*"version".*\]$', project[1], re.M)
    dynamic = re.search(
        r"^\[tool\.setuptools\.dynamic\]\n(.*?)(?=^\[|\Z)", pyproject, re.M | re.S)
    assert dynamic, "pyproject.toml has no [tool.setuptools.dynamic] table"
    assert re.search(
        r'^version = \{\s*attr = "drt\.__version__"\s*\}$', dynamic[1], re.M)
    assert re.fullmatch(r"\d+\.\d+\.\d+", drt.__version__)


OPENSSL_MODULES = {"hashlib", "_hashlib"}


def _import_time_modules(source: str) -> list[str]:
    """Modules named by the import statements that run when `source` is
    imported: every one outside a function body, under `if` and `try` too."""
    found = []
    stack = [ast.parse(source)]
    while stack:
        for node in ast.iter_child_nodes(stack.pop()):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
                continue
            if isinstance(node, ast.Import):
                found += [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                found.append(node.module)
            stack.append(node)
    return found


def test_import_scan_sees_module_level_only():
    source = (
        "import os, hashlib.x\n"
        "try:\n    from _hashlib import new\nexcept ImportError:\n    pass\n"
        "class C:\n    import json\n"
        "def f():\n    import zlib\n"
    )
    assert sorted(_import_time_modules(source)) == [
        "_hashlib", "hashlib.x", "json", "os"]


def test_no_module_imports_openssl_at_import_time():
    # hashlib maps OpenSSL's libcrypto; drt hashes inputs with CPython's
    # built-in SHA-256 inside cli._load, so no process pays for it at import.
    for path in sorted((ROOT / "src" / "drt").glob("*.py")):
        modules = _import_time_modules(path.read_text())
        openssl = {name.partition(".")[0] for name in modules} & OPENSSL_MODULES
        assert not openssl, f"{path.name} imports {sorted(openssl)} at module level"
