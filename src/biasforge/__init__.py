"""Sign-change biased distributional transforms.

Construct the transformed law of a random variable under a biasing
function with declared sign-change nodes, sample it, evaluate its
density, lift it to higher derivative orders, mix it into operator
transforms, and verify every defining identity against independent
oracles at desk scale.
"""

from .errors import (
    AllBetaZero,
    BiasforgeError,
    DegenerateAlpha,
    DegenerateBeta,
    InputError,
    NegativeAlpha,
    NegativeWeight,
    NoSampler,
    NonIntegrable,
    ParityMismatch,
    SignViolation,
    WeightMismatch,
    ZeroNormalizer,
)
from .distributions import (
    Distribution,
    RandomSource,
    TabulatedDensity,
    cache_density,
    dirac,
    dist_from_json,
    exponential,
    from_atoms,
    from_samples,
    half_normal,
    integrate_fn,
    make_mixture,
    moment,
    negative_half_normal,
    normal,
    numeric_cdf,
    sample,
    tilt,
    uniform,
)
from .polynomials import (
    NodeSet,
    PiecewisePoly,
    Polynomial,
    complete_homogeneous,
    correction_poly,
    interp_coeff,
    lagrange_poly,
)
from .transform import (
    BiasedDistribution,
    BiasRecipe,
    SignChangeSpec,
    alpha_of,
    bias,
    density_k1,
    expectation,
    lift_density,
    mixture_bias,
    recipe_moments,
    sign_spec,
    validate_spec,
)
from .higher import (
    ChainRecipe,
    beta_of,
    bias_to_order,
    second_difference_transform,
)
from .stein import (
    SteinOperator,
    first_order_bound,
    first_order_coupling_stats,
    fixed_point_check,
    higher_order_transform,
    second_order_bound,
    second_order_density,
    second_order_transform,
)
from .verify import (
    TestFunctionBank,
    ambiguity_demo,
    chain_identity_suite,
    check_identity_exact,
    check_identity_mc,
    exact_identity_suite,
    fixed_point_suite,
    half_normal_mixture,
    ks_critical,
    ks_statistic,
    plus_part,
    random_discrete,
    random_valid_spec,
    run_suite,
    unit_bias_spec,
    zero_bias_spec,
)

__version__ = "0.1.0"
