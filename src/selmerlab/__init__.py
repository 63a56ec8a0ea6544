"""Tamagawa-ratio exponents for y^2 = x^3 + A x^2 + B x over the height window.

The exponent t(A, B) is computed two independent ways: as a sum of local
condition sizes (closed forms at the odd primes, multiplicative and
additive, each checked against Tate's algorithm; 2-adic and real local
images), and as the dimension gap of the two descent groups computed from
quartic torsor solvability.  The statistics layer reproduces the family's
divisor densities and mixed moments against their exact per-prime model.
"""

from .core_arith import (
    FactoredInteger,
    factor,
    signed_squarefree_divisors,
    squarefree_part,
)
from .curve_family import (
    CurvePair,
    count_window,
    density_delta,
    density_rho,
    enumerate_window,
    is_member,
)
from .descent import (
    SelmerSet,
    SolverPrecisionError,
    TorsorQuartic,
    descent_exponent,
    local_image,
    sel2_lower_bound,
    selmer_phi,
    selmer_phihat,
    solvable_padic,
    solvable_real,
)
from .local_analysis import (
    LocalFactorLedger,
    ReductionType,
    classify_reduction,
    factor_at_infinity,
    factor_at_two,
    mult_factor,
    tamagawa_exponent,
    tamagawa_number,
)
from .statistics import (
    MomentReport,
    PrimeModel,
    cdf_distance,
    empirical_mixed_moment,
    g1,
    g2,
    model_mixed_moment,
)

__version__ = "0.1.0"
