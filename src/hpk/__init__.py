"""Desk-scale homotopy computations.

Finite truncated simplicial sets, simplicial groupoids, strict 2-groupoids,
finite Grothendieck sites and presheaves, with brute-force oracles for every
homotopy-group comparison: the loop groupoid / classifying complex
adjunction, the Moerdijk-Svensson nerve, sheafification and the
sheaf-isomorphism weak-equivalence criterion, and a backtracking lifting
solver.
"""

from .budgets import BudgetExceeded
from .groups import GroupTable, PresentedGroup
from .sset import (
    InsufficientDepth,
    SimplicialMap,
    TruncatedSimplicialSet,
    disjoint_union,
    pi0_sset,
    pullback,
    pushout,
    standard_complex,
    validate_sset,
)
from .kan import KanConditionFailed, is_kan, kan_report, pi_n_kan
from .abelian import AbelianHom, ChainFixture, FiniteAbelianGroup
from .groupoids import (
    FiniteGroupoid,
    FreeGroupoid,
    GroupoidHom,
    SimplicialGroupoid,
    SimplicialGroupoidMap,
    dold_kan,
    hom_complex,
    hom_simplicial_group,
    moore_pi_n,
    pi0_groupoid,
    pi0_hom_presentation,
    pi0_sgpd,
    reduce_word,
)
from .loop import (
    counit,
    loop_groupoid,
    transpose_to_sgpd,
    transpose_to_sset,
    unit,
    w_total,
    wbar,
)
from .two_groupoids import (
    TwoFunctor,
    TwoGroupoid,
    ms_fibration,
    ms_weak_equivalence,
    nerve,
    pi_2gpd,
    validate_2gpd,
)
from .cover import pi2_by_cover
from .whitehead import (
    PresentedTwoGroupoid,
    counit_weak_equivalence,
    whitehead_2gpd,
)
from .sites import FiniteSite, comma_site
from .presheaves import (
    NaturalTransformation,
    Presheaf,
    apply_pointwise,
    homotopy_presheaf,
    homotopy_sheaf,
    is_sheaf,
    is_weak_equivalence,
    plus,
    sheafify,
    y_u,
)
from .lifting import LiftingProblem, generating_inclusions, solve_lifting
from .model_checks import (
    free_instance_weak_equivalence,
    map_fills_horns,
    pullback_sgpd,
    pushout_free_sgpd,
    wbar_fibration_instance,
)
from .presheaves import pi0_sheaf
