"""Numerics for zero sequences of entire functions in a horizontal strip.

The package measures how densely the zeros of a strip-zero model pack into
windows, evaluates the continuous argument branches those zeros induce on
the real line, applies the regularized Hilbert transform, and estimates
mean-oscillation (BMO) lower bounds; a model zoo and a divergence scan tie
these together to exhibit log-moduli escaping every oscillation bound as
window counts blow up.
"""

from .errors import (
    GridRangeError,
    HelsonSzegoBoundError,
    InputFormatError,
    InsufficientJumpError,
    NotMonotoneError,
    PreconditionError,
    TruncationError,
    VerificationError,
)
from .zeros import (
    CartwrightEstimate,
    DensityProfile,
    ProfileEntry,
    ZeroSet,
    blaschke_sum,
    blaschke_tail,
    cartwright_integral_estimate,
    decompose_uniformly_discrete,
    load_zero_set,
    save_zero_set,
    separation_constant,
    upper_density_profile,
    window_count,
)
from .argbranch import (
    ArgBranchValue,
    PhiSumResult,
    find_growth_window,
    growth_constant,
    phi,
    phi_derivative,
    phi_sum,
)
from .sampled import SampledFunction
from .oscillation import (
    Fast2Check,
    OscillationReport,
    bmo_estimate,
    check_fast2,
    mean_oscillation,
)
from .hilbert import hilbert_transform, hilbert_transform_sampled
from .zoo import (
    ZooModel,
    cluster_model,
    count_claim_check,
    hot_unit_window,
    load_delta_csv,
    referee_example1,
    referee_example2,
    relative_zero_set,
    shift_to_strip,
    sine_type_model,
    write_delta_csv,
)
from .logmodel import (
    ComposedWeight,
    DivergenceRow,
    HilbertLogModel,
    HSWitness,
    compose_helson_szego,
    hlf_samples,
    reconstruct_log_modulus,
    theorem_divergence_scan,
)

__version__ = "0.1.0"
