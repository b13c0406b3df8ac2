"""psiforge: executable finite-scale checks for extended contact algebras,
ternary modal operators, and their Stone-style dualities."""

from .boolean_core import (
    FiniteBooleanAlgebra,
    Filter,
    automorphisms,
    beta,
    bool_eval,
    closedset_to_filter,
    filter_closedset_maps,
    filter_to_closedset,
    make_algebra,
)
from .contact_relation import (
    TernaryRelation,
    characteristic_lemma_check,
    check_derived_eca_props,
    check_eca,
    check_extca,
    contact_from_eca,
    empty_relation,
    full_relation,
    is_eca,
    is_extca,
    largest_eca,
    op_to_rel,
    posets_dual_iso_check,
    rel_to_op,
    relation_from_triples,
)
from .duality_frames import (
    PsiFrame,
    box_r,
    check_psi_frame,
    check_psi_space,
    complex_algebra,
    diamond_r,
    dual_frame,
    is_total,
    l_set,
)
from .enumeration import (
    CounterexampleResult,
    OperatorEnumeration,
    enumerate_ecas,
    enumerate_operators,
    find_counterexample,
    named_axioms,
)
from .errors import (
    EvalError,
    InternalCheckError,
    ParseError,
    PreconditionError,
    PsiforgeError,
    SizeCapError,
)
from .filter_congruence import (
    ClassifiedFilter,
    Congruence,
    all_filters_classified,
    classify_filter,
    congruence_filter_maps,
    congruence_from_filter,
    congruence_to_filter,
    is_simple,
    is_subdirectly_irreducible,
    relational_iff_simple_strict_check,
    variety_spot_checks,
)
from .morphisms import (
    BooleanHom,
    EcaMorphismClassification,
    MorphismClassification,
    classify_eca_morphism,
    classify_frame_map,
    classify_psi_morphism,
    enumerate_homs,
    make_hom,
    morphism_duality_check,
)
from .report import AxiomResult, CheckReport
from .terms import Sentence, Term, eval_term, holds, parse, parse_term, pretty
from .ternary_operator import (
    TernaryOperator,
    box_op,
    check_3bamo,
    check_pi2_equivalents,
    check_psi,
    check_strict,
    discriminator_check,
    example_3bamo,
    is_relational,
    mu,
    mu_iter,
    smallest_diamond,
)
from .topo_models import (
    FiniteTopology,
    RegularClosedAlgebra,
    eca_from_topology,
    interior_closure,
    make_topology,
    regular_closed_algebra,
    three_point_space,
)

__all__ = [name for name in dir() if not name.startswith("_")]
