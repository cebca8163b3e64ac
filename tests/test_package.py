"""The package namespace: one list of public names, resolved on first use,
and no numpy for the commands that never read it."""

import importlib
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

import coeffsharp

ROOT = Path(__file__).resolve().parents[1]
MODULES = ("series_engine", "caratheodory", "functionals", "lemmas", "verifier")

#: every name the package exported from a hand-kept import list, by module
EXPORTED = {
    "series_engine": ("COMPLEX", "RATIONAL", "TruncatedSeries", "antiderivative_over_t",
                      "compose", "cosh_series", "divide_by_z", "exp_series",
                      "extremal_function", "log_series", "monomial", "series", "series_div",
                      "starlike_from_schwarz"),
    "caratheodory": ("CaratheodoryPoint", "SchwarzCoeffs", "coeffs_from_point",
                     "extremal_p_series", "schwarz_from_p"),
    "functionals": ("FunctionalValue", "evaluate_functional", "hankel_log",
                    "hankel_log_inverse", "moduli_diff_Gamma", "moduli_diff_gamma"),
    "lemmas": ("PsiInput", "YInput", "lemma23_bound", "lemma23_empirical", "lemma24_check",
               "psi_empirical", "psi_minus_bound", "psi_plus_bound", "y_argmax", "y_branch",
               "y_brute_force", "y_closed_form"),
    "verifier": ("THEOREM_IDS", "Bound", "SearchConfig", "VerificationReport",
                 "sharpness_witness", "verify", "verify_all"),
}


def module(name):
    return importlib.import_module(f"coeffsharp.{name}")


def test_every_formerly_exported_name_is_its_module_object():
    for module_name, names in EXPORTED.items():
        for name in names:
            assert getattr(coeffsharp, name) is getattr(module(module_name), name), name


def test_every_public_name_resolves_once_and_is_listed():
    public = [n for m in MODULES for n in module(m).__all__]
    assert len(public) == len(set(public)), "a name is in two modules' __all__"
    for m in MODULES:
        for name in module(m).__all__:
            assert getattr(coeffsharp, name) is getattr(module(m), name)
            assert vars(coeffsharp)[name] is getattr(module(m), name)  # cached on first use
    assert set(public) <= set(dir(coeffsharp))


def test_every_name_the_benchmark_reads_resolves():
    for path in (ROOT / "perfbench" / "workloads.py", ROOT / "perfbench" / "layers.py"):
        names = set(re.findall(r"\bcs\.(\w+)", path.read_text()))
        assert names, path
        for name in names:
            assert hasattr(coeffsharp, name), (path.name, name)


def test_submodules_and_imports_from_the_package():
    from coeffsharp import exprs, verify

    assert verify is module("verifier").verify
    assert exprs is module("exprs")
    assert coeffsharp.verifier is module("verifier")
    assert coeffsharp._search is module("_search")


@pytest.mark.parametrize("name", ["not_a_name", "_tau1_polynomials", "__wrapped__"])
def test_an_unknown_or_private_name_raises_attribute_error(name):
    with pytest.raises(AttributeError, match=f"has no attribute '{name}'"):
        getattr(coeffsharp, name)


#: runs ``python -m coeffsharp`` with the arguments after ``-c CODE``
RUN_CLI = """
import runpy, sys
sys.argv[0] = "coeffsharp"
try:
    runpy.run_module("coeffsharp", run_name="__main__", alter_sys=True)
except SystemExit as exc:
    assert exc.code == 0, exc.code
"""


def loaded_modules(code, *args):
    """The names in ``sys.modules`` after ``python -c code *args`` runs on
    this checkout."""
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    code += "\nimport sys\nprint(*sys.modules)"
    proc = subprocess.run([sys.executable, "-c", code, *args], env=env,
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    loaded = set(proc.stdout.splitlines()[-1].split())
    assert "coeffsharp" in loaded
    return loaded


def numpy_loaded(code, *args):
    return "numpy" in loaded_modules(code, *args)


@pytest.mark.parametrize("code, args", [
    ("import coeffsharp", ()),
    ("from coeffsharp import exprs", ()),
    (RUN_CLI, ("series", "f1", "--order", "4")),
    (RUN_CLI, ("eval", "gamma1", "--c", "1/2")),
    (RUN_CLI, ("lemma", "Y", "--", "-0.2", "0.5", "0.3")),
    (RUN_CLI, ("lemma", "L23", "1/4")),
    (RUN_CLI, ("lemma", "L41", "plus", "1/4", "-0.03125", "1/8")),
], ids=["import", "import-exprs", "series", "eval", "lemma-Y", "lemma-L23", "lemma-L41"])
def test_exact_commands_never_import_numpy(code, args):
    assert not numpy_loaded(code, *args)


def test_lemma_still_imports_numpy():
    # the probe above can see numpy: a command that runs an oracle loads it
    assert numpy_loaded(RUN_CLI, "lemma", "L23", "--oracle", "1/4")


DERIVE_ALL = """
from coeffsharp.functionals import _FUNCTIONALS
from coeffsharp.lemmas import _tau1_polynomials
from coeffsharp.verifier import THEOREMS
names = {n for th in THEOREMS.values() for n in (th.modulus, th.offset) if n}
assert len(names) == 7 and all(_tau1_polynomials(_FUNCTIONALS[n][1]) for n in names)
"""


def polynomial_package_loaded(code):
    """Whether numpy's ``polynomial`` package, or a module of it, is loaded."""
    return any(name.split(".")[:2] == ["numpy", "polynomial"] for name in loaded_modules(code))


def test_the_tau1_derivation_never_loads_the_polynomial_package():
    assert not polynomial_package_loaded(DERIVE_ALL)
    # the probe can see the package when it is loaded
    assert polynomial_package_loaded(DERIVE_ALL + "from numpy import polynomial")
