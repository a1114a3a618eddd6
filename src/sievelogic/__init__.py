"""sievelogic: finite presheaf-topos machinery with exact quantum checks.

The package splits into a generic topos core (finite categories, sieves
and their Heyting algebras, presheaves with the sieve-valued subobject
classifier and global-section search) and an exact operator layer (Gaussian
rational spectral data, the thin category of operators and spectrum
functions, the dual and coarse-graining presheaves, sieve-valued
valuations) plus a CLI over scenario files.

Reports import only the modules that hold code a report can reach; the
library-only rest lives in ``topos`` and ``spectral``. Importing the
package loads no submodule: every name below is imported when first read.
"""

__all__ = [
    "Arrow", "FinCategory", "FiniteTopology", "GlobalSection", "HeytingAlgebraTable",
    "NaturalTransformation", "ObjectId", "OperatorCategory", "Presheaf", "Sieve",
    "SieveLogicError", "SieveValuation", "SizeLimitExceeded", "SpectralAlgebra",
    "SpectralOperator", "State", "Subobject", "all_sieves", "arrows_from", "born_prob",
    "build_category", "build_operator_category", "characteristic_arrow",
    "check_global_section", "coarse_graining_presheaf", "codomain_view", "compose",
    "dual_presheaf", "empty_sieve", "enumerate_natural_transformations",
    "enumerate_subobjects", "errors", "exact", "excluded_middle_violations", "fincat",
    "find_arrow", "func_check", "function_of", "global_section_search", "global_sections",
    "heyting", "is_natural", "is_sieve", "ks_global_section_search", "make_operator",
    "make_presheaf", "make_sieve", "make_state", "make_topology", "nu_state",
    "nu_state_valuation", "omega_presheaf", "open_set_heyting", "poset_to_category",
    "presheaf", "principal_sieve", "push_sieve", "quantum", "sieve_algebra", "sieve_implies",
    "sieve_join", "sieve_leq", "sieve_meet", "sieve_not", "spectral_projector",
    "spectrum_subsets", "subobject_from_arrow", "subobject_from_family", "terminal_presheaf",
    "validate_heyting_table", "validate_presheaf", "valuation_transformation",
    "verify_spectral_operator",
]
__version__ = "0.1.0"

# The report modules, in import order; each name is read from the first that has it.
_MODULES = ("errors", "exact", "fincat", "heyting", "presheaf", "quantum")


def __getattr__(name: str):
    """A name of ``__all__``, imported on first read and kept: a submodule's
    name is the module, any other name goes through the module's own table."""
    if name in __all__:
        from importlib import import_module
        for home in _MODULES:
            module = import_module(f"{__name__}.{home}")
            if home == name or name in dir(module):
                value = globals()[name] = module if home == name else getattr(module, name)
                return value
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})
