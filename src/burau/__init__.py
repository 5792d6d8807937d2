"""Entropy lower bounds for disk braids.

Braid words act on a free group; the Burau matrix over the Laurent ring (the
abelianized Fox Jacobian of that action) is a product of generator matrices,
and spectral radii of its unit-circle specializations bound the growth rate
(hence the topological entropy of any homeomorphism realizing the braid) from
below.
"""

from .braid import (
    BraidParseError,
    BraidWord,
    compose,
    exponent_sum,
    inverse,
    parse_braid,
    permutation,
    render_braid,
)
from .foxburau import (
    BurauMatrix,
    alexander_polynomial,
    burau_matrix,
    reduce_full,
    reduced_burau,
)
from .freegroup import (
    FreeAutomorphism,
    FreeWord,
    GrowthReport,
    OccurrenceMatrix,
    apply,
    artin_action,
    compose_autos,
    growth_rate_estimate,
    matrix_norm,
    occurrence_matrix,
    reduce_word,
)
from .laurent import BivariatePoly, LaurentMatrix, LaurentPoly, charpoly
from .spectral import (
    ComplexPolynomial,
    EntropyReport,
    GapReport,
    SweepResult,
    UnitRootCertificate,
    burau_radius_sweep,
    entropy_lower_bound,
    reciprocal_conjugate,
    resultant,
    roots,
    specialize,
    specialize_bivariate,
    spectral_radius,
    strict_gap_check,
    sweep_unit_circle,
    unit_circle_root_certificate,
)

__version__ = "0.1.0"
