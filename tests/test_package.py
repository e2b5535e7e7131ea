"""The package surface is pinned, and each command loads only the modules it
runs: `import csw` loads no submodule, and the commands that run no analysis
never load the analysis sweeps, the hull LPs or the simplex."""

import importlib
import json
import os
import subprocess
import sys
from pathlib import Path
from types import ModuleType

import pytest

import csw

ROOT = Path(__file__).resolve().parent.parent

PUBLIC = [
    "AxiomReport", "BasisConstantResult", "Capture", "Claim", "DeltaSystem",
    "EpsExperimentConfig", "ExperimentReport", "Functional", "HullCertificate",
    "KExperimentConfig", "LinearConstraint", "LpSolution", "NormingFamily",
    "Origin", "Scheme", "SchemeSet", "SeparationConfig", "SparseVector", "TypeSpec",
    "analysis", "basis_constant", "build_K_family", "build_eps_family",
    "build_scheme", "check_axioms", "check_biorthogonality", "coherence_report",
    "constraint", "dual_norm", "errors", "family_dumps", "family_from_json",
    "family_loads", "family_to_json", "find_capture", "format_rational",
    "format_vector", "global_dual", "hull", "in_symmetric_hull", "is_delta_system",
    "norm", "norming", "pair", "parse_rational",
    "parse_vector", "polar_support", "position_map", "run_K_experiment",
    "run_eps_experiment", "scheme_dumps", "scheme_from_json", "scheme_loads",
    "scheme_to_json", "schemes", "simplex", "simplex_solve", "spread",
    "type_violations", "validate_type", "vectors", "verify_eps_separation",
    "well_definedness_report",
]

LP_CODE = {"csw.analysis", "csw.hull", "csw.simplex"}

LOADED = 'sorted(m for m in sys.modules if m.startswith("csw."))'


def _fresh(code, cwd):
    """The JSON that `code` prints last, run in a fresh interpreter."""
    env = dict(os.environ)
    env.pop("CSW_OUT_DIR", None)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, "-c", code], cwd=cwd, env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.splitlines()[-1])


def test_import_csw_loads_no_submodule(tmp_path):
    assert _fresh(f"import json, sys, csw; print(json.dumps({LOADED}))", tmp_path) == []


def test_the_kernels_load_no_lp_code(tmp_path):
    loaded = _fresh(f"import json, sys, csw.kernels; print(json.dumps({LOADED}))",
                    tmp_path)
    assert loaded == ["csw.kernels", "csw.vectors"]


CLI_RUN = f"""\
import contextlib, io, json, sys
import csw.cli
commands = [
    ["type", "validate", "--m", "1,2,4", "--n", "2,3", "--r", "0,1"],
    ["scheme", "build", "--type", "1,2,4;2,3;0,1", "--out", "s.json"],
    ["scheme", "check", "s.json"],
    ["norming", "build", "--scheme", "s.json", "--space", "eps", "--param", "1/2",
     "--out", "H.json"],
    ["norming", "build", "--scheme", "s.json", "--space", "k", "--param", "2",
     "--out", "K.json"],
    ["norm", "eval", "--family", "H.json", "--vec", "0:1,1:-1"],
    ["norm", "eval", "--family", "K.json", "--vec", "0:1,3:1/2", "--norm-mode", "all"],
]
result = {{"codes": [], "loaded": []}}
with contextlib.redirect_stdout(io.StringIO()):
    for argv in commands:
        result["codes"].append(csw.cli.main(argv))
    result["loaded"].append({LOADED})
    result["codes"].append(csw.cli.main(["analyze", "biorth", "--family", "H.json"]))
    result["loaded"].append({LOADED})
print(json.dumps(result))
"""


def test_commands_without_an_analysis_load_no_lp_code(tmp_path):
    result = _fresh(CLI_RUN, tmp_path)
    assert result["codes"] == [0] * 8
    before, after = result["loaded"]
    assert {"csw.cli", "csw.kernels", "csw.norming", "csw.schemes"} <= set(before)
    assert LP_CODE.isdisjoint(before)
    assert LP_CODE <= set(after)


def test_all_is_pinned():
    assert csw.__all__ == PUBLIC


def test_every_public_name_is_its_defining_modules_binding():
    for name in csw.__all__:
        value = getattr(csw, name)
        if isinstance(value, ModuleType):
            assert value is importlib.import_module(f"csw.{name}")
        else:
            assert value.__module__.startswith("csw.")
            assert value is getattr(sys.modules[value.__module__], name)


def test_star_import_binds_every_public_name():
    namespace = {}
    exec("from csw import *", namespace)
    del namespace["__builtins__"]
    assert sorted(namespace) == PUBLIC
    assert all(namespace[name] is getattr(csw, name) for name in PUBLIC)


def test_version_and_unknown_names():
    assert csw.__version__ == "0.1.0"
    assert "__version__" not in csw.__all__
    assert not hasattr(csw, "nope")
    with pytest.raises(AttributeError, match="'nope'"):
        csw.nope
    assert not hasattr(csw, "norming_max")  # a kernel, not a package export
