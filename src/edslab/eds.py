"""Perturbation experiments and decay-envelope fitting.

One experiment perturbs the data at a single stage j, re-solves warm-started
from the base solution, and records the stage-wise deviation norms
s_i = ||w_i(perturbed) - w_i(base)|| over i = -1..N.  Profiles pooled over
stages and replicates are fitted with an exponential envelope
s_i <= Upsilon * rho^{|i-j|} * ||perturbation||, either by least squares on
the log (reported with r^2) or as the minimal upper envelope sharing the
least-squares decay rate.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ConfigurationError, FitError, NonconvergenceError, RegularityError
from .kkt import SolveOptions, solve_batch, solve_equality_nlp
from .problem import (
    Array,
    DataTrajectory,
    DOProblem,
    PrimalDualTrajectory,
    _as_vector,
)

# Entries this far below a profile's peak are solver noise; fitting the log
# of noise would corrupt the decay rate, so fits and bound checks skip them.
FLOOR_ABS = 1e-12
FLOOR_REL = 1e-9

CONTRAST_MARGIN = 0.05  # by which `decay_contrast` asks rho_a to undercut rho_b


@dataclass(frozen=True)
class PerturbationSpec:
    """A single-stage data perturbation: all other stages are untouched."""

    stage: int
    delta: Array

    def __post_init__(self):
        object.__setattr__(self, "delta", np.atleast_1d(np.asarray(self.delta, dtype=float)))

    @property
    def magnitude(self) -> float:
        return float(np.linalg.norm(self.delta))


@dataclass
class SensitivityProfile:
    """Stage-wise deviation norms for one perturbation experiment; `s` holds
    stages -1..N, read through `deviation(i)`.  `error` names the exception
    class and message of a solve that failed (`converged` is then False).
    `iterations` counts the solve's Newton iterations, up to the failure
    for a failed one."""

    stage: int
    s: Array
    magnitude: float
    converged: bool
    replicate: int = 0
    seed: tuple | None = None
    error: str | None = None
    iterations: int = 0

    def deviation(self, i: int) -> float:
        return float(self.s[i + 1])

    @property
    def n_stages(self) -> int:
        return self.s.size

    def stage_range(self):
        return range(-1, self.s.size - 1)

    @property
    def usable(self) -> bool:
        """Converged with a nonzero perturbation: fits, bound checks and
        plots read only such profiles."""
        return self.converged and self.magnitude > 0.0

    def floor(self) -> float:
        peak = float(self.s.max()) if self.s.size else 0.0
        return max(FLOOR_ABS, FLOOR_REL * peak)

    def above_floor(self) -> tuple[list, list]:
        """The stages i and deviations s_i, as two lists, where s_i exceeds
        the noise floor, picked by one array mask; both empty when the
        profile is not usable."""
        if not self.usable:
            return [], []
        keep = np.flatnonzero(self.s > self.floor())
        return (keep - 1).tolist(), self.s[keep].tolist()


def stage_deviations(a: PrimalDualTrajectory, b: PrimalDualTrajectory) -> Array:
    """Euclidean norm of w_i(a) - w_i(b) for every stage -1..N."""
    if a.dims != b.dims:
        raise ConfigurationError("trajectories have mismatched dimensions")
    dims = a.dims
    diff = a.vector - b.vector
    W = dims.w_rows(diff)
    out = np.empty(dims.N + 2)
    out[0] = np.linalg.norm(diff[: dims.n_0])
    out[1:-1] = np.linalg.norm(W, axis=1)
    out[-1] = np.linalg.norm(diff[dims.w_offsets[-2] :])  # w(N) = x_N
    return out


def random_perturbation(n: int, magnitude: float, rng: np.random.Generator) -> Array:
    """Uniform direction on the sphere scaled to the requested magnitude."""
    if n < 1:
        raise ConfigurationError("cannot perturb empty stage data")
    v = rng.standard_normal(n)
    norm = float(np.linalg.norm(v))
    while norm == 0.0:
        v = rng.standard_normal(n)
        norm = float(np.linalg.norm(v))
    return (magnitude / norm) * v


def _profile(stage: int, delta: Array, w_star, result, error) -> SensitivityProfile:
    """The profile of one solve: its result, or the last iterate that its
    error carries.  Norms that overflow read inf."""
    with np.errstate(over="ignore"):
        return SensitivityProfile(
            stage=stage,
            s=stage_deviations(result.trajectory, w_star),
            magnitude=float(np.linalg.norm(delta)),
            converged=error is None,
            error=None if error is None else f"{type(error).__name__}: {error}",
            iterations=result.iterations,
        )


def run_perturbation_experiment(
    p: DOProblem,
    d_star: DataTrajectory,
    w_star: PrimalDualTrajectory,
    spec: PerturbationSpec,
    opts: SolveOptions | None = None,
) -> SensitivityProfile:
    """Solve the problem with the data perturbed at one stage, warm-started
    from the base solution, and record stage-wise deviations.  A solve that
    does not converge or loses regularity yields a profile flagged
    converged=False (computed from the last iterate), carrying the error,
    which fits exclude."""
    delta = _as_vector(spec.delta, p.dims.nd(spec.stage), f"perturbation at stage {spec.stage}")
    error = None
    try:
        result = solve_equality_nlp(p, d_star.perturbed(spec.stage, delta), w0=w_star, opts=opts)
    except (NonconvergenceError, RegularityError) as exc:
        error, result = exc, exc.result
    return _profile(spec.stage, delta, w_star, result, error)


def run_experiments(
    p: DOProblem,
    d_star: DataTrajectory,
    w_star: PrimalDualTrajectory,
    stages,
    replicates: int,
    magnitude: float,
    seed: int,
    opts: SolveOptions | None = None,
    stats: dict | None = None,
):
    """Batch of seeded experiments over (stage, replicate) pairs, all solved
    together by one `kkt.solve_batch` call, which adds its solver counts to
    the dict `stats` when given.  Each pair draws its direction from an
    independently derived generator, so one pair's result does not depend
    on the others; profiles come back sorted by (stage, replicate) with
    their derivation seeds recorded."""
    if replicates < 1:
        raise ConfigurationError("replicates must be >= 1")
    tasks = []
    for j in stages:
        if not -1 <= j <= p.dims.N:
            raise ConfigurationError(f"perturbation stage {j} outside [-1, {p.dims.N}]")
        if p.dims.nd(j) == 0:
            raise ConfigurationError(f"stage {j} has empty data; nothing to perturb")
        for rep in range(replicates):
            rng = np.random.default_rng([seed, j + 1, rep])
            tasks.append((j, rep, random_perturbation(p.dims.nd(j), magnitude, rng)))
    solved = solve_batch(p, (d_star.perturbed(j, delta) for j, _, delta in tasks), w_star, opts, stats)
    profiles = []
    for (j, rep, delta), (result, error) in zip(tasks, solved, strict=True):
        profile = _profile(j, delta, w_star, result, error)
        profile.replicate, profile.seed = rep, (seed, j, rep)
        profiles.append(profile)
    profiles.sort(key=lambda pr: (pr.stage, pr.replicate))
    return profiles


# ---------------------------------------------------------------------------
# envelope fitting


@dataclass
class DecayFit:
    """Exponential envelope s_i ~ upsilon * rho^{|i-j|} * magnitude.

    `mode` is "ls" (log least squares, reported with r^2) or "envelope"
    (same decay rate, upsilon inflated minimally so no fitted point exceeds
    the bound).  `clamped` marks a fitted rate above one that was clipped;
    `floor` records the largest noise floor used when selecting points.
    """

    upsilon: float
    rho: float
    r2: float
    floor: float
    mode: str
    clamped: bool
    n_points: int

    @property
    def no_decay(self) -> bool:
        return self.rho >= 1.0 - 1e-12


def pooled_points(profiles):
    """(|i - j|, log(s_i / magnitude), largest floor) of `fit_decay`."""
    # math.log, not np.log: the two differ in the last bit on some inputs
    dists, logs = [np.empty(0)], []
    for prof in profiles:
        stages, s = prof.above_floor()
        dists.append(np.abs(np.asarray(stages, dtype=float) - prof.stage))
        logs.extend(map(math.log, (np.asarray(s) / prof.magnitude).tolist()))
    floors = [prof.floor() for prof in profiles if prof.usable]
    return np.concatenate(dists), np.asarray(logs, dtype=float), (max(floors) if floors else FLOOR_ABS)


def fit_decay(profiles, mode: str = "ls", points: tuple | None = None) -> DecayFit:
    """Least-squares line through (|i - j|, log(s_i / magnitude)) pooled
    over converged profiles, entries above the noise floor only; `points`
    is `pooled_points(profiles)` when the caller holds them."""
    if mode not in ("ls", "envelope"):
        raise ConfigurationError(f"unknown fit mode '{mode}'")
    dists, logs, floor = pooled_points(profiles) if points is None else points
    if dists.size < 3:
        raise FitError(f"need at least 3 points above the noise floor, have {dists.size}")
    if np.ptp(dists) == 0.0:
        raise FitError("all usable points share one distance; cannot fit a rate")
    slope, intercept = np.polyfit(dists, logs, 1)
    pred = slope * dists + intercept
    ss_res = float(np.sum((logs - pred) ** 2))
    ss_tot = float(np.sum((logs - logs.mean()) ** 2))
    r2 = 1.0 if ss_tot <= 1e-300 else 1.0 - ss_res / ss_tot
    rho = math.exp(slope)
    clamped = rho > 1.0
    if clamped:
        rho = 1.0
    upsilon = math.exp(intercept)
    if mode == "envelope":
        log_rho = math.log(rho) if rho < 1.0 else 0.0
        upsilon = float(np.exp(np.max(logs - dists * log_rho)))
    return DecayFit(
        upsilon=upsilon,
        rho=rho,
        r2=r2,
        floor=floor,
        mode=mode,
        clamped=clamped,
        n_points=int(dists.size),
    )


@dataclass
class BoundCheck:
    slack: float
    n_checked: int
    violations: int
    worst_ratio: float

    @property
    def passed(self) -> bool:
        return self.violations == 0


def verify_eds_bound(profiles, fit: DecayFit, slack: float = 1.0) -> BoundCheck:
    """Check s_i <= slack * upsilon * rho^{|i-j|} * magnitude at every stage
    of every converged profile above the noise floor; single-stage
    perturbations collapse the general stage sum to this one term."""
    n_checked = 0
    violations = 0
    worst = 0.0
    for prof in profiles:
        for i, si in zip(*prof.above_floor()):
            bound = slack * fit.upsilon * fit.rho ** abs(i - prof.stage) * prof.magnitude
            ratio = si / bound
            n_checked += 1
            worst = max(worst, ratio)
            if ratio > 1.0 + 1e-12:
                violations += 1
    return BoundCheck(slack=slack, n_checked=n_checked, violations=violations, worst_ratio=worst)


@dataclass
class DecayContrast:
    rho_a: float
    rho_b: float
    margin: float

    @property
    def separated(self) -> bool:
        return self.rho_a + self.margin < self.rho_b


def decay_contrast(fit_a: DecayFit, fit_b: DecayFit) -> DecayContrast:
    """Is case A's decay rate smaller than case B's by more than CONTRAST_MARGIN?"""
    return DecayContrast(rho_a=fit_a.rho, rho_b=fit_b.rho, margin=CONTRAST_MARGIN)
