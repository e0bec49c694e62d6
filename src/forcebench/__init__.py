"""forcebench: an executable workbench for the algebra of forcing.

Finite complete boolean algebras, regular embeddings and their retractions,
boolean-valued names, two-step iterations, iteration-system limits, and
semigenericity degrees — with every structural law machine-audited at desk
scale, exhaustively where the instance space allows and by seeded sampling
above.
"""

from .finite_cba import (
    FilterSpec,
    FiniteCBA,
    Restriction,
    Ultrafilter,
    format_element,
    parse_element,
    quotient_by_filter,
    ultrafilters,
)
from .free_algebra import (
    FREE_ONE,
    FREE_ZERO,
    FreeAlgebra,
    FreeElement,
    GeneratorChain,
    chain_vanishing,
    format_free,
    free_normalize,
    free_project,
    generator,
    parse_free_expression,
)
from .morphisms import (
    CompleteHom,
    FreeInclusion,
    hom_from_fiber_map,
    identity_hom,
    ker_coker,
    restrict,
    retraction_laws_audit,
    stone_dual_quotient,
)
from .poset import Poset, boolean_completion
from .bvm import (
    BName,
    NamePool,
    check_name,
    delta1_audit,
    eval_at_atom,
    forcing_audit,
    fullness_witness,
    lift_name,
    mix,
    standard_formula_pool,
    standard_name_pool,
    truth_value,
)
from .two_step import (
    AtomwisePresentation,
    Triangle,
    build_two_step,
    canonical_representative,
    lift_embedding_name,
    quotient_algebra,
    quotient_hom,
    three_step_assoc_audit,
    two_step_iso_audit,
)
from .iteration import (
    ConstantThread,
    IterationSystem,
    RuleThread,
    VectorThread,
    antichain_sup_audit,
    build_lazy_system,
    build_system,
    direct_limit_correspondence_audit,
    pointwise_sup,
    quotient_system,
    rcs_membership,
    thread_validate,
)
from .semigen import (
    ModelTrace,
    OrdinalName,
    disjointify,
    gen_value,
    restriction_audit,
    semigeneric_sup_audit,
    sg_value,
    sp_identity_audit,
)
from .gallery import build_fresh_tower, sup_gap_audit, wedge_meet_audit
from .workspace import parse_workspace
from .report import Ledger
from .cli import execute
from . import tables
