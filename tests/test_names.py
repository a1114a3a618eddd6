"""Public names resolve lazily, to one object wherever they are read.

Reports import only the modules they run; the library-only code lives in
``topos`` and ``spectral``, and every name keeps resolving from the
package and from the module that defined it before the split.
"""

import importlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

import sievelogic

# Old module -> (new module, the names that moved).
MOVED = {
    "fincat": ("topos", ["Check", "build_category", "compose", "poset_to_category"]),
    "heyting": ("topos", [
        "codomain_view", "empty_sieve", "is_sieve", "make_sieve", "make_topology",
        "principal_sieve", "push_sieve", "sieve_implies", "sieve_join", "sieve_leq",
        "sieve_meet", "sieve_not", "validate_heyting_table",
    ]),
    "presheaf": ("topos", [
        "NaturalTransformation", "Subobject", "characteristic_arrow", "check_global_section",
        "enumerate_natural_transformations", "enumerate_subobjects", "global_sections",
        "is_natural", "make_presheaf", "omega_presheaf", "subobject_from_arrow",
        "subobject_from_family", "terminal_presheaf", "validate_presheaf", "validate_subobject",
    ]),
    "quantum": ("spectral", [
        "SieveValuation", "SpectralAlgebra", "_overlaps", "coarse_graining_presheaf",
        "find_arrow", "func_check", "function_of", "ks_global_section_search",
        "nu_state_valuation", "spectral_projector", "spectrum_subsets",
        "valuation_transformation", "verify_spectral_operator",
    ]),
    "exact": ("spectral", [
        "conj_transpose", "identity_matrix", "is_hermitian", "is_idempotent",
        "is_zero_matrix", "mat_add", "mat_mul", "zero_matrix",
    ]),
}
MOVED_CASES = [(old, new, name) for old, (new, names) in MOVED.items() for name in names]
SRC = str(Path(sievelogic.__file__).resolve().parents[1])
REPORT_MODULES = ["errors", "exact", "fincat", "heyting", "presheaf", "quantum"]


def module(name):
    return importlib.import_module(f"sievelogic.{name}")


@pytest.mark.parametrize("name", sievelogic.__all__)
def test_package_name_resolves_and_is_listed(name):
    value = getattr(sievelogic, name)
    assert name in dir(sievelogic)
    if name in REPORT_MODULES:
        assert value is module(name)
        return
    # Every report module that gives the name gives this one object ...
    givers = [m for m in REPORT_MODULES if name in dir(module(m))]
    assert givers and all(getattr(module(m), name) is value for m in givers)
    # ... and it is the object its defining module holds.
    if getattr(value, "__name__", None) == name:
        assert getattr(importlib.import_module(value.__module__), name) is value


def test_all_lists_each_name_once():
    assert len(set(sievelogic.__all__)) == len(sievelogic.__all__) == 73


@pytest.mark.parametrize("old, new, name", MOVED_CASES)
def test_moved_name_is_one_object(old, new, name):
    value = getattr(module(new), name)
    assert getattr(module(old), name) is value
    assert name in dir(module(old))
    assert value.__module__ == f"sievelogic.{new}"
    if name in sievelogic.__all__:
        assert getattr(sievelogic, name) is value


@pytest.mark.parametrize("where", ["heyting", "presheaf", "quantum"])
def test_check_record_resolves_from_each_checking_module(where):
    assert module(where).Check is module("fincat").Check is module("topos").Check
    assert "Check" in dir(module(where))


def test_star_import_binds_every_name():
    namespace = {}
    exec("from sievelogic import *", namespace)
    assert {name: namespace[name] for name in sievelogic.__all__} == {
        name: getattr(sievelogic, name) for name in sievelogic.__all__
    }


@pytest.mark.parametrize("where", ["", "exact", "fincat", "heyting", "presheaf", "quantum"])
def test_unknown_name_raises_attribute_error(where):
    target = module(where) if where else sievelogic
    with pytest.raises(AttributeError, match="no attribute 'no_such_name'"):
        target.no_such_name
    assert not hasattr(target, "no_such_name")


def test_package_import_loads_no_submodule():
    done = subprocess.run(
        [sys.executable, "-S", "-c",
         "import sys, sievelogic\n"
         "def loaded(): return sorted(m for m in sys.modules if 'sievelogic' in m)\n"
         "print(loaded()); sievelogic.SizeLimitExceeded; print(loaded())"],
        env=dict(os.environ, PYTHONPATH=SRC), capture_output=True, text=True, check=True,
    )
    assert done.stdout == "['sievelogic']\n['sievelogic', 'sievelogic.errors']\n"
