"""Exact computations with groupoids of germs on star spaces.

The package models the n-edge star space, the groupoid of germs of an
edge-permutation action, and its convolution *-algebra in an exact normal
form, together with the representation machinery that produces normalizers
whose open support is not a bisection.  A finite-groupoid module provides
Hausdorff positive controls with explicit numeric tolerances.
"""

from .algebra import (
    AlgebraElement,
    CompatibilityError,
    NotNormalizerError,
    cross_central_element,
    embed_C0,
    from_sheet,
    is_bisection_support,
    lambda_scalar,
    open_support,
    verify_central_ideal,
)
from .finite import (
    FiniteAlgebraElement,
    FiniteGroupoid,
    diagonal_masa_check,
    faithfulness_check,
    intersection_property_check,
    key_inequality_check,
    principality,
    regular_rep,
)
from .germs import CenterGerm, EdgeGerm, GermError, GermGroupoid, parse_star_spec
from .perms import CycleParseError, PermGroup, Permutation, parse_cycles
from .poly import PiecewisePoly
from .rep import (
    GroupAlgebraElement,
    PreimageObstruction,
    build_strange_normalizer,
    build_unitary_v,
    commutant_basis,
    min_norm_preimage,
    phi,
)
from .scalars import Scalar, parse_scalar, render_scalar
from .starspace import CENTER, EdgePoint, OpenStarSet, PPFun, act, membership

__version__ = "0.1.0"
