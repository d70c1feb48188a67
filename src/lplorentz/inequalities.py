"""Verification harness for refined scale-product inequalities.

The central object is a parameter set tying two Besov-type seminorms (one at
positive regularity ``alpha`` with inner exponent ``q0``, one at negative
regularity ``-beta`` with inner exponent ``q1``) to a Lorentz norm of the
field itself: the harness measures the ratio

    ``lorentz(p, r)  /  ( besov(alpha, q0, r0)**(1-theta) * besov(-beta, q1, r1)**theta )``

over seeded families of test fields, where ``theta = alpha/(alpha+beta)`` and
``1/p = (1-theta)/q0 + theta/q1`` are forced by scaling covariance.  Also
included: the pointwise product bound on block maxima (with a fully derived
constant), and the admissibility predicate for pairs of outer exponents along
the segment of valid dual positions.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .norms import (
    BesovParams,
    LorentzParams,
    MeasuredValues,
    _check_exponent,
    _compose,
    _inv,
    besov_seminorm,
    lorentz_norm,
)
from .spectral import (
    BlockDecomposition,
    CutoffProfile,
    GridSpec,
    SampledField,
    decompose,
    lowest_scale_for_dc_only,
    make_cutoff_profile,
    reconstruct,
)

__all__ = [
    "CaseParams",
    "AdmissibilityResult",
    "derive_params",
    "hedberg_constant",
    "hedberg_pointwise",
    "verify_case",
    "segment_endpoints",
    "segment_admissible",
    "GENERATORS",
    "make_suite_grid",
    "generate_field",
    "run_suite",
]

_INF = math.inf


@dataclass(frozen=True)
class CaseParams:
    """One inequality instance.

    ``alpha, beta`` are the positive/negative regularities; ``q0, q1`` the
    inner integrabilities of the two seminorms; ``r0, r1`` their outer scale
    exponents; ``(p, r)`` the Lorentz target, where ``r = None`` selects
    ``r_star``.  ``theta``, ``p`` and ``r_star`` are derived:

    - ``theta = alpha / (alpha + beta)`` (so ``alpha*(1-theta) = beta*theta``),
    - ``1/p = (1-theta)/q0 + theta/q1``,
    - ``1/r_star = (1-theta)/r0 + theta/r1``.

    ``r_star`` is the natural composed outer exponent: ratios stay bounded
    when ``1/r <= 1/r_star`` and grow otherwise.
    """

    alpha: float
    beta: float
    q0: float
    q1: float
    r0: float
    r1: float
    r: float | None = None

    def __post_init__(self) -> None:
        alpha, beta = self.alpha, self.beta
        if not (math.isfinite(alpha) and alpha > 0 and math.isfinite(beta) and beta > 0):
            raise ValueError("alpha and beta must be positive reals")
        for name in ("q0", "q1", "r0", "r1"):
            object.__setattr__(self, name, _check_exponent(name, getattr(self, name)))
        if not 1.0 < self.p < _INF:
            raise ValueError(
                f"composed integrability 1/p={_inv(self.p)!r} leaves (0, 1); p must be in (1, inf)"
            )
        r = self.r_star if self.r is None else _check_exponent("r", self.r)
        object.__setattr__(self, "r", r)

    @property
    def theta(self) -> float:
        return self.alpha / (self.alpha + self.beta)

    @property
    def p(self) -> float:
        return _compose(self.theta, self.q0, self.q1)

    @property
    def r_star(self) -> float:
        return _compose(self.theta, self.r0, self.r1)


def derive_params(
    alpha: float,
    beta: float,
    q0: float,
    q1: float,
    r0: float,
    r1: float,
    r: float | None = None,
) -> CaseParams:
    """Parameter set of one case; ``r`` defaults to the composed exponent ``r_star``."""
    return CaseParams(alpha, beta, q0, q1, r0, r1, r)


# ---------------------------------------------------------------------------
# Pointwise product bound on block maxima
# ---------------------------------------------------------------------------


def hedberg_constant(alpha: float, beta: float) -> float:
    """Constant ``C0(alpha, beta)`` of the pointwise bound
    ``|sum_j block_j(x)| <= C0 * A_alpha(x)**(1-theta) * A_beta(x)**theta``.

    Derivation: with ``a = A_alpha(x)`` and ``b = A_beta(x)``,
    ``|block_j(x)| <= min(2**(-j*alpha) * a, 2**(j*beta) * b)``; summing the
    two geometric tails on either side of the crossing index and taking the
    worst fractional position of the crossing (the endpoint of a convex
    function of the fractional part) gives

        ``C0 = max( 1/(1-2**-alpha) + 2**-beta/(1-2**-beta),
                    2**-alpha/(1-2**-alpha) + 1/(1-2**-beta) )``.
    """
    if not (alpha > 0 and beta > 0):
        raise ValueError("alpha and beta must be positive")
    ga = 1.0 / (1.0 - 2.0 ** (-alpha))
    gb = 1.0 / (1.0 - 2.0 ** (-beta))
    return max(ga + (gb - 1.0), (ga - 1.0) + gb)


def hedberg_pointwise(
    d: BlockDecomposition, alpha: float, beta: float
) -> tuple[SampledField, float]:
    """Pointwise product bound from the block maxima at two regularities.

    Computes ``A_alpha(x) = sup_j 2**(j*alpha) |block_j(x)|`` and
    ``A_beta(x) = sup_j 2**(-j*beta) |block_j(x)|``, returns the bound field
    ``C0 * A_alpha**(1-theta) * A_beta**theta`` (with ``theta =
    alpha/(alpha+beta)``) and the empirical constant
    ``sup_x |sum_j block_j(x)| / (A_alpha**(1-theta) * A_beta**theta)(x)``
    over the points where the product is positive.  The lowpass part is not
    included in the numerator: the bound concerns the content carried by the
    blocks.  The empirical constant never exceeds
    :func:`hedberg_constant` -- a hard guarantee, not a statistical one.
    """
    if not (alpha > 0 and beta > 0):
        raise ValueError("alpha and beta must be positive")
    theta = alpha / (alpha + beta)
    if d.blocks.shape[0] == 0:
        raise ValueError("decomposition has no blocks")
    blocks = d.blocks.reshape(d.blocks.shape[0], -1)
    stack = np.abs(blocks)
    jarr = d.scales[:, None]
    a_alpha = np.max(2.0 ** (jarr * alpha) * stack, axis=0)
    a_beta = np.max(2.0 ** (-jarr * beta) * stack, axis=0)
    product = a_alpha ** (1.0 - theta) * a_beta**theta
    block_sum = np.abs(blocks.sum(axis=0))
    mask = product > 0.0
    empirical = float(np.max(block_sum[mask] / product[mask])) if mask.any() else 0.0
    bound = SampledField(d.grid, hedberg_constant(alpha, beta) * product)
    return bound, empirical


# ---------------------------------------------------------------------------
# Case verification
# ---------------------------------------------------------------------------


def verify_case(case: CaseParams, d: BlockDecomposition) -> tuple[float, float]:
    """Measure both sides ``(lhs, rhs)`` of the inequality on one block decomposition.

    The left side is the Lorentz ``(p, r)`` norm of ``reconstruct(d)``; the
    right side is ``besov(alpha, q0, r0)**(1-theta) * besov(-beta, q1, r1)**theta``.
    A zero right side with a positive left side would falsify the inequality
    and raises; it cannot occur for fields actually carried by the blocks.
    """
    field = reconstruct(d)
    lhs = lorentz_norm(MeasuredValues.from_field(field), LorentzParams(case.p, case.r))
    b0 = besov_seminorm(d, BesovParams(case.alpha, case.q0, case.r0))
    b1 = besov_seminorm(d, BesovParams(-case.beta, case.q1, case.r1))
    rhs = b0 ** (1.0 - case.theta) * b1**case.theta
    if rhs == 0.0 and lhs > 1e-13 * max(1.0, float(np.max(np.abs(field.samples)))):
        raise ArithmeticError(f"zero seminorm product with nonzero field norm {lhs!r}")
    return lhs, rhs


# ---------------------------------------------------------------------------
# Admissibility segment for outer-exponent pairs
# ---------------------------------------------------------------------------


def segment_endpoints(theta: float, p: float) -> tuple[tuple[float, float], tuple[float, float]]:
    """Endpoints of ``I = {(x, y) in [0,1]^2 : (1-theta) x + theta y = 1/p}``,
    ordered by increasing x (the first endpoint has the larger y)."""
    if not 0.0 < theta < 1.0:
        raise ValueError(f"theta must lie in (0, 1), got {theta!r}")
    if not 1.0 < p:
        raise ValueError(f"p must exceed 1, got {p!r}")
    inv_p = 1.0 / p
    x_lo = max(0.0, (inv_p - theta) / (1.0 - theta))
    x_hi = min(1.0, inv_p / (1.0 - theta))
    if x_lo > x_hi + 1e-15:
        raise ValueError(f"segment empty for theta={theta!r}, p={p!r}")

    def y_of(x: float) -> float:
        return min(1.0, max(0.0, (inv_p - (1.0 - theta) * x) / theta))

    return (x_lo, y_of(x_lo)), (x_hi, y_of(x_hi))


@dataclass(frozen=True)
class AdmissibilityResult:
    """Outcome of the segment predicate: the two ordering chains evaluated on
    the point ``(1/r0, 1/r1)`` against the segment endpoints, and their
    disjunction.  Both chains are reported because the orientation convention
    differs between them; consumers should rely on ``admissible``."""

    admissible: bool
    chain_low: bool
    chain_high: bool
    endpoints: tuple[tuple[float, float], tuple[float, float]]

    def __bool__(self) -> bool:
        return self.admissible


def segment_admissible(case: CaseParams) -> AdmissibilityResult:
    """Whether ``(1/r0, 1/r1)`` is admissible for the segment at ``(theta, p)``.

    Requires ``p <= 2``.  With endpoints ``(x0, y0)`` (smaller x) and
    ``(x1, y1)``, the two accepted orderings are ``x0 <= 1/r0 <= 1/r1 <= y0``
    and ``y1 <= 1/r1 <= 1/r0 <= x1``; comparisons carry a 1e-12 slack.
    """
    if case.p > 2.0:
        raise ValueError(f"segment predicate requires p <= 2, got p={case.p!r}")
    (x0, y0), (x1, y1) = segment_endpoints(case.theta, case.p)
    u, v = _inv(case.r0), _inv(case.r1)
    eps = 1e-12
    chain_low = (x0 <= u + eps) and (u <= v + eps) and (v <= y0 + eps)
    chain_high = (y1 <= v + eps) and (v <= u + eps) and (u <= x1 + eps)
    return AdmissibilityResult(chain_low or chain_high, chain_low, chain_high, ((x0, y0), (x1, y1)))


# ---------------------------------------------------------------------------
# Test-field generators
# ---------------------------------------------------------------------------

# Cutoff and scale ranges shared by all suite grids.  Fields are built as
# samples of grid-independent continuum functions so that ratios can be
# compared across grid refinements.
_PROFILE: CutoffProfile = make_cutoff_profile(1.0)

_STANDARD_PERIOD = 2.0 * math.pi
_STANDARD_J_MAX = 8  # needs points_per_axis >= 1024 at period 2*pi
_ATOMIC_PERIOD = 16.0
_ATOMIC_J_MAX = 6  # needs points_per_axis >= 1024 at period 16

GENERATORS = ("single-block", "multi-block-random", "lacunary", "atomic")


def _bump(u: np.ndarray) -> np.ndarray:
    """Odd compactly supported profile ``-10 u (1-u^2)^4`` on ``|u| <= 1``;
    it is the derivative of ``(1-u^2)^5``, so its integral vanishes exactly."""
    inside = np.abs(u) < 1.0
    w = np.where(inside, 1.0 - u * u, 0.0)
    return -10.0 * u * w**4


def _atom_row(
    x: np.ndarray, period: float, centers: np.ndarray, scale_j: int, amplitude: float
) -> np.ndarray:
    """Periodic row of bumps at scale ``2**-scale_j``, each evaluated only on the
    grid window over its support widened by one cell per side, so that the
    result equals a full-grid evaluation bit for bit."""
    n = x.size
    cell = period / n
    radius = 2.0**-scale_j
    total = np.zeros_like(x)
    for c in centers:
        lo = math.floor((c - radius) / cell) - 1
        hi = math.ceil((c + radius) / cell) + 1
        window = np.arange(lo, hi + 1)[:n] % n
        u = (x[window] - c + period / 2.0) % period - period / 2.0
        total[window] += _bump(u * 2.0**scale_j)
    return amplitude * total


def make_suite_grid(points_per_axis: int, generator: str) -> GridSpec:
    """Grid on which the named generator family is resolved and decomposable."""
    period = _ATOMIC_PERIOD if generator == "atomic" else _STANDARD_PERIOD
    return GridSpec(1, points_per_axis, period)


def _suite_scale_range(generator: str, grid: GridSpec) -> tuple[int, int]:
    j_min = lowest_scale_for_dc_only(grid)
    j_max = _ATOMIC_J_MAX if generator == "atomic" else _STANDARD_J_MAX
    if 2.0 ** (j_max + 1) > grid.nyquist * (1.0 + 1e-12):
        raise ValueError(
            f"grid too coarse for generator {generator!r}: need 2^{j_max + 1} <= Nyquist {grid.nyquist!r}"
        )
    return j_min, j_max


def generate_field(generator: str, rng: np.random.Generator, grid: GridSpec) -> SampledField:
    """Draw one test field.  All randomness is consumed in a grid-independent
    order, so the same seed yields samples of the same continuum function on
    every grid (up to sampling).

    - ``single-block``: one pure mode at frequency ``2**4`` with random
      amplitude -- every derived ratio is amplitude-invariant.
    - ``multi-block-random``: independent Gaussian coefficients on integer
      frequencies 1..256 (mean zero, so the lowpass of a DC-only
      decomposition vanishes identically).
    - ``lacunary``: one randomly placed, randomly weighted zero-mean atom per
      scale ``j = 1..6`` at width ``2**(1-j)``.
    - ``atomic``: disjointly placed rows of zero-mean atoms, ``~2**(j/2)``
      atoms at scale ``j = 1..4`` on a period-16 domain, amplitudes
      ``2**(-j*alpha)``-weighted lognormals with ``alpha = 1/2``.
    """
    if grid.dim != 1:
        raise ValueError("suite generators are one-dimensional")
    x = grid.axis_coordinates()
    n = grid.points_per_axis
    if generator == "single-block":
        amplitude = float(rng.lognormal(0.0, 1.0))
        return SampledField(grid, amplitude * np.cos(2.0**4 * x))
    if generator == "multi-block-random":
        kmax = 256
        coeffs = rng.standard_normal(kmax) + 1j * rng.standard_normal(kmax)
        if n // 2 < kmax:
            raise ValueError(f"grid too coarse: need points_per_axis >= {2 * kmax}")
        half = np.zeros(n // 2 + 1, dtype=complex)
        half[1 : kmax + 1] = coeffs
        samples = np.fft.irfft(half, n=n) * n
        return SampledField(grid, samples)
    if generator == "lacunary":
        samples = np.zeros_like(x)
        for j in range(1, 7):
            amplitude = float(rng.lognormal(0.0, 1.0))
            center = float(rng.uniform(0.0, grid.period))
            samples += _atom_row(x, grid.period, np.array([center]), j, amplitude)
        return SampledField(grid, samples)
    if generator == "atomic":
        samples = np.zeros_like(x)
        cursor = 0.5
        for j in range(1, 5):
            count = int(round(2.0 ** (j / 2.0)))
            radius = 2.0**-j
            step = 3.0 * radius
            centers = cursor + radius + step * np.arange(count)
            cursor = float(centers[-1] + radius + 0.5)
            amplitude = float(rng.lognormal(0.0, 1.0)) * 2.0 ** (-j * 0.5)
            samples += _atom_row(x, grid.period, centers, j, amplitude)
        if cursor > grid.period:
            raise ValueError("atom placement exceeded the period")
        return SampledField(grid, samples)
    raise ValueError(f"unknown generator {generator!r}; expected one of {GENERATORS}")


# ---------------------------------------------------------------------------
# Suite runner
# ---------------------------------------------------------------------------


def run_suite(
    case: CaseParams,
    generator: str,
    count: int,
    seed: int,
    grid_points: int = 4096,
) -> list[dict]:
    """Measure the inequality over ``count >= 1`` seeded random fields.

    Returns records ``{instance_id, lhs, rhs, ratio, generator_descriptor}``,
    with ``ratio = 0`` where ``rhs = 0``.  Each instance draws its own child
    generator from the master seed, so results are reproducible instance by
    instance: the first ``k`` records of a suite do not depend on ``count``.
    """
    if generator not in GENERATORS:
        raise ValueError(f"unknown generator {generator!r}; expected one of {GENERATORS}")
    if count < 1:
        raise ValueError("count must be >= 1")
    grid = make_suite_grid(grid_points, generator)
    j_min, j_max = _suite_scale_range(generator, grid)
    children = np.random.SeedSequence(seed).spawn(count)

    records = []
    for instance_id, child in enumerate(children):
        field = generate_field(generator, np.random.default_rng(child), grid)
        # ``d`` lives until the next ``decompose`` has run: freeing the blocks
        # before it (``verify_case(case, decompose(...))``) made 4096-point
        # suites about 45 % slower
        d = decompose(field, _PROFILE, j_min, j_max)
        lhs, rhs = verify_case(case, d)
        records.append({
            "instance_id": instance_id,
            "lhs": lhs,
            "rhs": rhs,
            "ratio": 0.0 if rhs == 0.0 else lhs / rhs,
            "generator_descriptor": f"{generator}[instance={instance_id}, seed={seed}, grid={grid_points}]",
        })
    return records
