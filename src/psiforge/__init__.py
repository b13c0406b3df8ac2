"""psiforge: executable finite-scale checks for extended contact algebras,
ternary modal operators, and their Stone-style dualities.

The public names below load their module on first use (PEP 562), so
importing the package, or running one CLI verb, compiles only the modules
it needs.  ``from psiforge import check_eca`` and ``psiforge.check_eca``
return the very object defined in ``psiforge.contact_relation``.
"""

from importlib import import_module

_EXPORTS = {
    "boolean_core": (
        "FiniteBooleanAlgebra",
        "Filter",
        "automorphisms",
        "beta",
        "bool_eval",
        "closedset_to_filter",
        "filter_to_closedset",
        "make_algebra",
    ),
    "contact_relation": (
        "TernaryRelation",
        "characteristic_lemma_check",
        "check_derived_eca_props",
        "check_eca",
        "check_extca",
        "contact_from_eca",
        "empty_relation",
        "full_relation",
        "is_eca",
        "is_extca",
        "largest_eca",
        "op_to_rel",
        "posets_dual_iso_check",
        "rel_to_op",
        "relation_from_triples",
    ),
    "duality_frames": (
        "PsiFrame",
        "box_r",
        "check_psi_frame",
        "check_psi_space",
        "complex_algebra",
        "diamond_r",
        "dual_frame",
        "is_total",
        "l_set",
    ),
    "enumeration": (
        "CounterexampleResult",
        "OperatorEnumeration",
        "enumerate_ecas",
        "enumerate_operators",
        "find_counterexample",
        "named_axioms",
    ),
    "errors": (
        "EvalError",
        "InternalCheckError",
        "ParseError",
        "PreconditionError",
        "PsiforgeError",
        "SizeCapError",
    ),
    "filter_congruence": (
        "ClassifiedFilter",
        "Congruence",
        "all_filters_classified",
        "classify_filter",
        "congruence_from_filter",
        "congruence_to_filter",
        "is_simple",
        "is_subdirectly_irreducible",
        "relational_iff_simple_strict_check",
        "variety_spot_checks",
    ),
    "morphisms": (
        "BooleanHom",
        "EcaMorphismClassification",
        "MorphismClassification",
        "classify_eca_morphism",
        "classify_frame_map",
        "classify_psi_morphism",
        "enumerate_homs",
        "make_hom",
        "morphism_duality_check",
    ),
    "report": ("AxiomResult", "CheckReport"),
    "terms": ("Sentence", "Term", "eval_term", "holds", "parse", "parse_term", "pretty"),
    "ternary_operator": (
        "TernaryOperator",
        "box_op",
        "check_3bamo",
        "check_pi2_equivalents",
        "check_psi",
        "check_strict",
        "discriminator_check",
        "example_3bamo",
        "is_relational",
        "mu",
        "mu_iter",
        "smallest_diamond",
    ),
    "topo_models": (
        "FiniteTopology",
        "RegularClosedAlgebra",
        "eca_from_topology",
        "interior_closure",
        "make_topology",
        "regular_closed_algebra",
        "three_point_space",
    ),
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names}

# the submodules that held these names are public too, as they were when
# the package imported them all
__all__ = sorted([*_EXPORTS, *_MODULE_OF])


def __getattr__(name: str):
    # not cached: a lookup always reads the submodule's current attribute
    if name in _EXPORTS:
        return import_module(f"{__name__}.{name}")
    if name in _MODULE_OF:
        return getattr(import_module(f"{__name__}.{_MODULE_OF[name]}"), name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__() -> list[str]:
    return sorted(set(globals()) | set(__all__))
