"""Separability decision engine for multipartite states of rank at most four.

A PPT state of rank below four is separable; at rank four it is
entangled exactly when its range, after support compression, is a
completely entangled subspace of a 3x3 or 2x2x2 system, which a single
determinantal polynomial in the Plücker coordinates of the range
decides.  The package pairs that test with an independent numerical
product-vector oracle and a greedy decomposition extractor.
"""

__version__ = "0.1.0"

from .chow import (
    ChowForm,
    builtin_chow,
    delta1,
    eval_chow,
    generate_chow_Mx2,
    permute_form,
    subspace_meets_segre,
)
from .codec import from_dict, to_dict
from .engine import (
    ClassificationReport,
    classify,
    length_bounds,
    report_from_dict,
    report_to_dict,
)
from .gallery import (
    ProductBasis,
    divincenzo_state,
    random_ppt_rank4_33,
    random_separable,
    three_qubit_upb,
    two_qutrit_ab_rows,
    two_qutrit_ab_state,
    upb_complement_state,
)
from .grassmann import (
    PlueckerVector,
    SubspaceBasis,
    dual_pluecker,
    pluecker,
    pluecker_relations_residual,
)
from .oracle import (
    Decomposition,
    ProductVectorHit,
    bipartite_kernel_product_vectors_2x2x2,
    check_general_position,
    count_kernel_product_vectors_3x3,
    find_product_vector,
    greedy_decompose,
)
from .ppt import PptReport, birank, is_ppt
from .states import (
    MultiState,
    SpectralData,
    ToleranceConfig,
    compress_support,
    is_product,
    kernel_basis,
    local_ranks,
    new_state,
    partial_transpose,
    range_basis,
    rank_of,
    reduced_state,
    spectral,
    state_from_dict,
    state_to_dict,
)

__all__ = [name for name in dir() if not name.startswith("_")]
