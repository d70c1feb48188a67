"""Numerical harmonic analysis on periodic grids.

Dyadic frequency decompositions, rearrangement-based norms (Lebesgue,
Lorentz, Besov, Triebel-Lizorkin), real-interpolation machinery
(K-functionals, weighted decompositions, layer-cake splittings, duality,
rank partitions, reiteration), a randomized verification harness for a
two-sided smoothing inequality, and exact extremal families demonstrating
the sharpness of its outer exponent.
"""

from .spectral import (
    BlockDecomposition,
    CutoffProfile,
    GridSpec,
    SampledField,
    decompose,
    load_field,
    lowest_scale_for_dc_only,
    make_cutoff_profile,
    reconstruct,
    save_field,
)
from .norms import (
    BesovParams,
    LorentzParams,
    MeasuredValues,
    RearrangementProfile,
    besov_seminorm,
    conjugate_exponent,
    lebesgue_norm,
    lorentz_embedding_constant,
    lorentz_norm,
    lorentz_normalization,
    normalized_lorentz_norm,
    rearrangement,
    triebel_seminorm,
)
from .interpolation import (
    InterpParams,
    JDecomposition,
    PartitionResult,
    ReiterationResult,
    duality_pairing_check,
    ell_partition,
    ell_partition_constant,
    interpolation_norm_K,
    j_bound,
    j_bound_constant,
    j_sum_functional,
    k_functional_L1_Linf,
    layer_cake_bound_ratio,
    layer_cake_constant,
    layer_cake_decompose,
    reiteration_check,
    run_interp_suite,
    trivial_decomposition,
)
from .inequalities import (
    CaseParams,
    GENERATORS,
    derive_params,
    generate_field,
    hedberg_constant,
    hedberg_pointwise,
    make_suite_grid,
    run_suite,
    segment_admissible,
    segment_endpoints,
    verify_case,
)
from .sharpness import (
    Atom,
    AtomicSum,
    GrowthResult,
    SharpnessParams,
    atomic_besov_upper,
    atomic_distribution,
    build_atom,
    build_closed_form_family,
    build_family,
    build_params,
    default_level_grid,
    growth_experiment,
    pairing,
    rasterization_grid,
    rasterize,
    scale_counts,
    solve_exponents,
    verify_disjoint,
)

__version__ = "0.1.0"
