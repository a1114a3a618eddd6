"""sievelogic: finite presheaf-topos machinery with exact quantum checks.

The package splits into a generic topos core (finite categories, sieves
and their Heyting algebras, presheaves with the sieve-valued subobject
classifier and global-section search) and an exact operator layer (Gaussian
rational spectral data, the thin category of operators and spectrum
functions, the dual and coarse-graining presheaves, sieve-valued
valuations) plus a CLI over scenario files.

Reports import only the modules that hold code a report can reach; the
library-only rest lives in ``topos`` and ``spectral``. Every name below is
imported when first read, from the report module that lists it.
"""

from .errors import lazy_names

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

# The module each name of ``__all__`` is read from (a submodule names itself);
# a library-only name resolves on through that module's own table.
_HOMES = {
    **{name: name for name in ("errors", "exact", "fincat", "heyting", "presheaf", "quantum")},
    **dict.fromkeys(("SieveLogicError", "SizeLimitExceeded"), "errors"),
    **dict.fromkeys((
        "Arrow", "FinCategory", "ObjectId", "arrows_from", "build_category", "compose",
        "poset_to_category",
    ), "fincat"),
    **dict.fromkeys((
        "FiniteTopology", "HeytingAlgebraTable", "Sieve", "all_sieves", "codomain_view",
        "empty_sieve", "excluded_middle_violations", "is_sieve", "make_sieve", "make_topology",
        "open_set_heyting", "principal_sieve", "push_sieve", "sieve_algebra", "sieve_implies",
        "sieve_join", "sieve_leq", "sieve_meet", "sieve_not", "validate_heyting_table",
    ), "heyting"),
    **dict.fromkeys((
        "GlobalSection", "NaturalTransformation", "Presheaf", "Subobject", "characteristic_arrow",
        "check_global_section", "enumerate_natural_transformations", "enumerate_subobjects",
        "global_section_search", "global_sections", "is_natural", "make_presheaf",
        "omega_presheaf", "subobject_from_arrow", "subobject_from_family", "terminal_presheaf",
        "validate_presheaf",
    ), "presheaf"),
    **dict.fromkeys((
        "OperatorCategory", "SieveValuation", "SpectralAlgebra", "SpectralOperator", "State",
        "born_prob", "build_operator_category", "coarse_graining_presheaf", "dual_presheaf",
        "find_arrow", "func_check", "function_of", "ks_global_section_search", "make_operator",
        "make_state", "nu_state", "nu_state_valuation", "spectral_projector", "spectrum_subsets",
        "valuation_transformation", "verify_spectral_operator",
    ), "quantum"),
}

__getattr__, __dir__ = lazy_names(globals(), _HOMES)
