"""Deterministic Monte Carlo engine for the estimator comparison study.

The data-generating process draws a stratified one-sided-noncompliance
population: equal-probability strata, per-unit compliance coins whose rates
optionally follow a geometric pattern over strata, stratum-shifted control
means that optionally explain 63% of outcome variance, and unit normal
total outcome variance. A concentration variant reparameterizes compliance
as (p r^3, p r^2, p r, p) across four strata so a single knob r moves the
design from uninformative (r = 1) to perfectly predictive (r = 0).

The engine's unit of work is a segment, a range of one config's
replications, and a block is a list of segments of about 64k units in
all. Configs that share n and estimator tags fill blocks together, in
config order, so a config smaller than a block shares one with the next.
Within a block each replication draws its table and assignment from its
own stream; the block is then revealed, reduced to (R, G) moments in one
pass and run through every estimator's row-wise kernel at once
(estimators.estimate_rows), the same code that estimate() runs on one
sample. Each row's results go to its own config's slots, which are
aggregated and freed once that config's last block is done.

A replication's draws are, in order, what these numpy calls draw from its
stream, Generator(Philox(SeedSequence(entropy=seed, spawn_key=(rep,)))):
integers(0, G, n) or choice(G, n, p=weights), random(n),
normal(0, sd, n), with random strata integers(0, k, n), and
permutation(n)[:n1] for the treated units. The engine makes the same bits
with less per-replication work: it derives the Philox keys of a config's
replications once per config, resets one generator per block to each
replication's key, and draws with calls that skip per-call work (a
searchsorted of random(n) into the weights' cdf, standard normals scaled
once per segment, and an in-place shuffle of an arange row).

Determinism contract: every replication draws from its own counter-based
substream keyed by (seed, replication index) (Philox; Salmon et al., SC11).
Its key is numpy's SeedSequence(entropy=seed, spawn_key=(rep,)) key,
derived once per config, and the block's one generator is reset to that
key, counter 0 and an empty buffer before the replication draws. Each row
of a block is computed independently of the others, and aggregation reads
preallocated per-replication slots in index order, so results are byte
identical for any block partition, any mix of configs in a block and any
thread count: each config's metrics equal those it gets run alone.
Threads run whole blocks.
"""

from __future__ import annotations

import math
import threading
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from typing import Callable, NamedTuple, Sequence

import numpy as np

from .data_model import (
    BLOCK_UNITS,
    InfeasibleCompliance,
    MaskedRows,
    NonIntegralArm,
    ObservedBlock,
    ScienceTable,
    _treated_count,
    check_science,
    first_appearance,
    reveal,
)
from .estimators import DEFAULT_ESTIMATORS, METHODS, EstimatorConfig, estimate_rows

_VALID_TAGS = frozenset(METHODS) | {"ORACLE"}

__all__ = [
    "RNG_FAMILY",
    "DEFAULT_ESTIMATORS",
    "ScenarioConfig",
    "ConcentrationConfig",
    "EstimatorMetrics",
    "ScenarioMetrics",
    "generate_science_table",
    "generate_concentration_table",
    "generate_random_strata",
    "run_scenario",
    "run_concentration",
    "run_grid",
    "default_grid",
]

RNG_FAMILY = "philox4x64"

# stratum pattern scale: between-stratum variance of centered consecutive
# integers 0..G-1 over equal strata is (G^2 - 1) / 12
def _pattern_scale(num_strata: int, between_var: float) -> float:
    spread = (num_strata * num_strata - 1.0) / 12.0
    return math.sqrt(between_var / spread)


def _check_count(name: str, value, least: int) -> None:
    """Refuse a count that is not an integer (a bool is not one) or is
    below least."""
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
        raise ValueError(f"{name} must be an integer, got {value!r}")
    if value < least:
        raise ValueError(f"{name} must be at least {least}")


def _check_run(config: "ScenarioConfig | ConcentrationConfig") -> None:
    """The checks both config types share."""
    _check_count("n", config.n, 4)
    try:
        _treated_count(config.n, config.p_treat)
    except NonIntegralArm as exc:  # a config error like the others here
        raise ValueError(str(exc)) from None
    _check_count("replications", config.replications, 1)
    seed = config.seed
    if isinstance(seed, bool) or not isinstance(seed, (int, np.integer)) or seed < 0:
        raise ValueError("seed must be a non-negative integer")
    if not 0.0 <= config.outcome_r2 < 1.0:
        raise ValueError("outcome_r2 must lie in [0, 1)")
    unknown = [t for t in config.estimators if t not in _VALID_TAGS]
    if unknown:
        raise ValueError(f"unknown estimator tags: {unknown}")


@dataclass(frozen=True)
class ScenarioConfig:
    """One cell of the factorial simulation design.

    tau, compliance_ratio, and outcome_r2 are calibration constants with
    documented defaults; heterogeneous_tau replaces tau with the declining
    per-stratum profile 0.8 - 0.2 g.
    """

    n: int = 2000
    target_pi_c: float = 0.10
    predicts_compliance: bool = False
    predicts_outcome: bool = False
    never_taker_shift: float = 0.0
    heterogeneous_tau: bool = False
    p_treat: float = 0.5
    replications: int = 1000
    seed: int = 0
    num_strata: int = 4
    tau: float = 0.5
    compliance_ratio: float = 0.1
    outcome_r2: float = 0.63
    random_strata_k: int | None = None
    estimators: tuple[str, ...] = DEFAULT_ESTIMATORS

    def __post_init__(self) -> None:
        if not 0.0 < self.target_pi_c < 1.0:
            raise ValueError("target_pi_c must lie in (0, 1)")
        _check_run(self)
        _check_count("num_strata", self.num_strata, 1)
        if not 0.0 < self.compliance_ratio <= 1.0:
            raise ValueError("compliance_ratio must lie in (0, 1]")
        if self.random_strata_k is not None:
            _check_count("random_strata_k", self.random_strata_k, 1)

    @property
    def scenario_id(self) -> str:
        base = (
            f"n{self.n}_pi{self.target_pi_c:g}"
            f"_pc{int(self.predicts_compliance)}_py{int(self.predicts_outcome)}"
            f"_nt{self.never_taker_shift:g}_ht{int(self.heterogeneous_tau)}"
        )
        if self.random_strata_k is not None:
            base += f"_rk{self.random_strata_k}"
        return base


@dataclass(frozen=True)
class ConcentrationConfig:
    """Compliance-concentration design: stratum g of G gets compliance
    rate p * r^(G-1-g), with p solved so the weighted overall rate is
    target_p. r = 1 spreads compliers evenly; r = 0 puts them all in the
    final stratum."""

    r: float = 0.5
    target_p: float = 0.15
    weights: tuple[float, ...] = (0.35, 0.30, 0.20, 0.15)
    n: int = 2000
    never_taker_shift: float = 0.0
    heterogeneous_tau: bool = False
    predicts_outcome: bool = False
    p_treat: float = 0.5
    replications: int = 1000
    seed: int = 0
    tau: float = 0.5
    outcome_r2: float = 0.63
    estimators: tuple[str, ...] = DEFAULT_ESTIMATORS

    def __post_init__(self) -> None:
        if not 0.0 <= self.r <= 1.0:
            raise ValueError("r must lie in [0, 1]")
        if not 0.0 < self.target_p < 1.0:
            raise ValueError("target_p must lie in (0, 1)")
        if len(self.weights) < 1 or any(w <= 0 for w in self.weights):
            raise ValueError("weights must be positive")
        if abs(sum(self.weights) - 1.0) > 1e-9:
            raise ValueError("weights must sum to 1")
        _check_run(self)
        self.base_rate  # fail construction on infeasible compliance

    @property
    def num_strata(self) -> int:
        return len(self.weights)

    @property
    def base_rate(self) -> float:
        """Top-stratum compliance rate p solving the overall-rate equation."""
        g = self.num_strata
        powers = self.r ** np.arange(g - 1, -1, -1, dtype=np.float64)
        denom = float(np.dot(self.weights, powers))
        p = self.target_p / denom
        if not 0.0 < p <= 1.0:
            raise InfeasibleCompliance(
                f"target_p={self.target_p} with r={self.r} needs top-stratum "
                f"compliance {p:.4g} outside (0, 1]"
            )
        return p

    @property
    def scenario_id(self) -> str:
        return f"r{self.r:g}_P{self.target_p:g}_n{self.n}"


@dataclass(frozen=True)
class _Design:
    """Everything one replication's population draw needs, per stratum.

    Each replication draws, from its own stream and in this order: stratum
    labels (uniform, or by the weights' cdf), compliance uniforms, outcome
    normals, and with random_k the k random stratum labels that replace
    the first ones. `_assemble` turns a block of such draws into tables.
    """

    n: int
    num_strata: int
    comp_prob: np.ndarray
    mu_g: np.ndarray
    noise_sd: float
    never_taker_shift: float
    tau_g: np.ndarray
    cdf: np.ndarray | None = None
    random_k: int | None = None

    @classmethod
    def of(cls, config: "ScenarioConfig | ConcentrationConfig") -> "_Design":
        g = config.num_strata
        if isinstance(config, ConcentrationConfig):
            comp_prob = config.base_rate * config.r ** np.arange(g - 1, -1, -1, dtype=np.float64)
            # the cdf as Generator.choice builds it from p
            cdf, random_k = np.asarray(config.weights, dtype=np.float64).cumsum(), None
            cdf /= cdf[-1]
        else:
            cdf, random_k = None, config.random_strata_k
            if config.predicts_compliance:
                powers = config.compliance_ratio ** np.arange(g, dtype=np.float64)
                base = g * config.target_pi_c / float(powers.sum())
                comp_prob = base * powers
                if base > 1.0:
                    raise InfeasibleCompliance(
                        f"target_pi_c={config.target_pi_c} needs top-stratum compliance "
                        f"{base:.4g} > 1 under ratio {config.compliance_ratio}"
                    )
            else:
                comp_prob = np.full(g, config.target_pi_c)
        if config.predicts_outcome:
            scale = _pattern_scale(g, config.outcome_r2)
            mu_g = scale * (np.arange(g) - (g - 1) / 2.0)
            noise_sd = math.sqrt(1.0 - config.outcome_r2)
        else:
            mu_g = np.zeros(g)
            noise_sd = 1.0
        if config.heterogeneous_tau:
            tau_g = 0.8 - 0.2 * np.arange(g, dtype=np.float64)
        else:
            tau_g = np.full(g, config.tau)
        return cls(
            config.n, g, comp_prob, mu_g, noise_sd, config.never_taker_shift, tau_g,
            cdf, random_k,
        )

    def draw(self, draws: dict[str, np.ndarray], i: int, rng: np.random.Generator) -> None:
        """One replication's population draws into row i: what
        integers(0, G, n) or choice(G, n, p=weights), random(n),
        normal(0, noise_sd, n) and, with random_k, integers(0, k, n) draw
        in turn. choice is its own searchsorted of random(n) into the cdf,
        without its per-call checks of p, and the normals are standard ones
        that `outcomes` scales."""
        n = self.n
        if self.cdf is None:
            draws["strata"][i] = rng.integers(0, self.num_strata, size=n)
        else:
            draws["strata"][i] = self.cdf.searchsorted(rng.random(n), side="right")
        rng.random(out=draws["u"][i])
        rng.standard_normal(out=draws["noise"][i])
        if self.random_k is not None:
            draws["labels"][i] = rng.integers(0, self.random_k, size=n)

    def outcomes(self, strata, u, noise, complier) -> None:
        """Rows drawn from this design, made tables in place: the complier
        flags go into `complier`, y0 into `noise` and y1 into `u`."""
        np.less(u, np.take(self.comp_prob, strata), out=complier)
        if self.noise_sd != 1.0:
            # normal(0, sd) draws 0 + sd * standard_normal: the same but for
            # the sign of a zero, which y0 = noise + (mu + shift) does not keep
            noise *= self.noise_sd
        # y0 = mu + shift * never-taker + noise, y1 = tau * complier + y0
        y0 = np.take(self.mu_g, strata)
        y0 += self.never_taker_shift * ~complier
        noise += y0
        # mode "clip" fills `out` without a buffer; every code is below G
        np.take(self.tau_g, strata, out=u, mode="clip")
        u *= complier
        u += noise


def _buffers(reps: int, n: int, labels: bool) -> dict[str, np.ndarray]:
    """Room for the population draws of `reps` replications."""
    shape = (reps, n)
    draws = {"strata": np.empty(shape, dtype=np.int64), "u": np.empty(shape),
             "noise": np.empty(shape)}
    if labels:
        draws["labels"] = np.empty(shape, dtype=np.int64)
    return draws


def _assemble(draws: dict[str, np.ndarray], parts) -> tuple[np.ndarray, ...]:
    """The tables (y0, y1, d0, d1, strata) of a block of draws, one per
    row, each part (design, rows) made by its own design. It empties
    `draws`, whose buffers become the tables, so a block's peak memory
    stays low."""
    strata, y1, y0 = draws.pop("strata"), draws.pop("u"), draws.pop("noise")
    labels = draws.pop("labels", None)
    is_complier = np.empty(strata.shape, dtype=bool)
    for design, rows in parts:
        design.outcomes(strata[rows], y1[rows], y0[rows], is_complier[rows])
        if design.random_k is not None:
            strata[rows] = labels[rows]
    del labels
    d1 = is_complier.view(np.int8)
    d0 = np.zeros_like(d1)
    check_science(y0, y1, d0, d1)
    return y0, y1, d0, d1, strata


def _draw_table(config, rng: np.random.Generator) -> ScienceTable:
    design = _Design.of(config)
    draws = _buffers(1, design.n, design.random_k is not None)
    design.draw(draws, 0, rng)
    return ScienceTable.from_arrays(*(a[0] for a in _assemble(draws, [(design, slice(0, 1))])))


def generate_science_table(config: ScenarioConfig, rng: np.random.Generator) -> ScienceTable:
    """Draw one population table for a factorial-grid scenario.

    With predicts_compliance, stratum g's compliance rate is p * ratio^g,
    rescaled so the expected overall rate stays at target_pi_c; otherwise
    every unit complies with probability target_pi_c. With random_strata_k
    the table is relabeled as generate_random_strata does.
    """
    return _draw_table(config, rng)


def generate_concentration_table(
    config: ConcentrationConfig, rng: np.random.Generator
) -> ScienceTable:
    """Draw one population table for the concentration sweep."""
    return _draw_table(config, rng)


def generate_random_strata(
    table: ScienceTable, k: int, rng: np.random.Generator
) -> ScienceTable:
    """Relabel a table with k uniform random strata, unrelated to anything."""
    if k < 1:
        raise ValueError("k must be at least 1")
    labels = rng.integers(0, k, size=table.n)
    return ScienceTable.from_arrays(
        y0=table.y0, y1=table.y1, d0=table.d0, d1=table.d1, strata=labels
    )


@dataclass(frozen=True)
class EstimatorMetrics:
    """Monte Carlo performance summary for one estimator in one scenario."""

    estimator: str
    bias: float
    true_se: float
    rmse: float
    cal_bloom: float
    cal_delta: float
    rel_instab_bloom: float
    rel_instab_delta: float
    drop_rate: float
    fail_rate: float
    mean_n_used: float


@dataclass(frozen=True)
class ScenarioMetrics:
    """All estimator rows for one scenario plus its identifying metadata."""

    scenario_id: str
    n: int
    pi_c_target: float
    predicts_c: bool
    predicts_y: bool
    nt_shift: float
    het_tau: bool
    seed: int
    rng_family: str
    replications: int
    rows: tuple[EstimatorMetrics, ...]


# numpy's SeedSequence hash on 32-bit words, with the constants of
# numpy/random/bit_generator.pyx. Each function takes ints or uint32 arrays.
_MASK32 = 0xFFFFFFFF
_POOL_SIZE = 4
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_L, _MIX_R = 0xCA01F9DD, 0x4973F715


def _hashmix(word, const: int, mult: int = _MULT_A):
    """A word hashed with the constant `const`, and the constant after it."""
    after = const * mult & _MASK32
    word = (word ^ const) * after & _MASK32
    return word ^ word >> 16, after


def _mix(x, y):
    word = ((_MIX_L * x & _MASK32) - (_MIX_R * y & _MASK32)) & _MASK32
    return word ^ word >> 16


def _mix_in(pool: list, word, const: int) -> int:
    """One entropy word mixed into every pool word; the constant after it."""
    for dst in range(_POOL_SIZE):
        hashed, const = _hashmix(word, const)
        pool[dst] = _mix(pool[dst], hashed)
    return const


def _philox_keys(seed: int, reps: range) -> np.ndarray:
    """The (len(reps), 2) Philox keys of replications `reps` of `seed`:
    row i is SeedSequence(entropy=seed, spawn_key=(reps[i],))
    .generate_state(2, np.uint64). What the hash mixes before the spawn
    word depends on the seed alone, so it runs once; the rest runs on all
    the replications' words at once."""
    ends = (reps[0], reps[-1]) if reps else (0, 0)
    if min(ends) < 0 or max(ends) > _MASK32:
        raise ValueError("replication indices must lie in [0, 2**32)")
    # the seed's 32-bit words, low first, padded to the pool size as
    # SeedSequence pads an entropy that has a spawn key
    words = [seed >> s & _MASK32 for s in range(0, max(seed.bit_length(), 1), 32)]
    words += [0] * (_POOL_SIZE - len(words))
    pool, const = [], _INIT_A
    for word in words[:_POOL_SIZE]:
        hashed, const = _hashmix(word, const)
        pool.append(hashed)
    for src in range(_POOL_SIZE):
        for dst in range(_POOL_SIZE):
            if src != dst:
                hashed, const = _hashmix(pool[src], const)
                pool[dst] = _mix(pool[dst], hashed)
    for word in words[_POOL_SIZE:]:
        const = _mix_in(pool, word, const)
    rep_words = np.arange(reps.start, reps.stop, reps.step, dtype=np.int64).astype(np.uint32)
    _mix_in(pool, rep_words, const)
    # generate_state: four words hashed out of the pool, paired low first
    const, out = _INIT_B, []
    for word in pool:
        word, const = _hashmix(word, const, _MULT_B)
        out.append(word)
    return np.stack(out, axis=1).astype("<u4").view("<u8").astype(np.uint64)


@dataclass
class _RepStore:
    """Per-replication result slots, preallocated for index-order reads."""

    est: dict[str, np.ndarray]
    se_b: dict[str, np.ndarray]
    se_d: dict[str, np.ndarray]
    n_used: dict[str, np.ndarray]
    dropped: dict[str, np.ndarray]
    truth: np.ndarray

    @classmethod
    def empty(cls, tags: Sequence[str], reps: int) -> "_RepStore":
        def make() -> dict[str, np.ndarray]:
            return {t: np.full(reps, np.nan) for t in tags}

        return cls(
            est=make(),
            se_b=make(),
            se_d=make(),
            n_used=make(),
            dropped={t: np.zeros(reps, dtype=bool) for t in tags},
            truth=np.full(reps, np.nan),
        )


class _Segment(NamedTuple):
    """The engine's unit of work: replications `reps` of one job, in rows
    `rows` of the block that holds them."""

    job: "_Job"
    reps: range
    rows: slice


def _draw_block(block: list[_Segment]) -> tuple[dict[str, np.ndarray], np.ndarray]:
    """A block's population draws and its (R, n) assignments. Each
    replication draws its population and then its assignment from its own
    substream: the block's one generator, reset to the replication's key.
    Row i of `order` holds its units' flat positions in the block, so
    `rng.shuffle` of it draws what permutation(n) does, and the first n1
    units of each row are treated."""
    n = block[0].job.config.n
    r = block[-1].rows.stop
    draws = _buffers(r, n, any(s.job.design.random_k is not None for s in block))
    order = np.arange(r * n).reshape(r, n)
    bit_generator = np.random.Philox(0)
    rng = np.random.Generator(bit_generator)
    # a fresh Philox's state: counter 0, an empty buffer and no spare
    # 32-bit word; each replication starts from it with its own key
    state = bit_generator.state
    i = 0
    for job, reps, _ in block:
        draw = job.design.draw
        for key in job.keys[reps.start : reps.stop].tolist():
            state["state"]["key"] = key
            bit_generator.state = state
            draw(draws, i, rng)
            rng.shuffle(order[i])
            i += 1
    z = np.zeros((r, n), dtype=np.int8)
    for job, _, rows in block:
        z.reshape(-1)[order[rows, : job.n1]] = 1
    return draws, z


def _run_block(block: list[_Segment], est_config: EstimatorConfig) -> None:
    """A block's segments: draw each replication from its own substream,
    then reveal, estimate and store them all at once, each row in its own
    job's slots."""
    draws, z = _draw_block(block)
    y0, y1, d0, d1, strata = _assemble(draws, [(s.job.design, s.rows) for s in block])
    codes, num_strata, _ = first_appearance(strata)
    del strata
    y, d = reveal(y0, y1, d0, d1, z)
    # binary uptake without defiers: a complier is a unit with d1 > d0
    obs = ObservedBlock(z, d, y, codes, num_strata, d1 > d0)
    compliers = MaskedRows(obs.complier_positions, z.shape)
    live = compliers.counts > 0  # truth undefined elsewhere
    effects = compliers.take(y1) - compliers.take(y0)
    truth = compliers.mean_var(effects)[0]
    del y0, y1, d0, d1  # free the potential outcomes before the estimators run
    for job, reps, rows in block:
        at = np.flatnonzero(live[rows])
        job.store.truth[reps.start + at] = truth[rows.start + at]
    for tag in block[0].job.config.estimators:
        out = estimate_rows(obs, tag, est_config)
        ok = live & ~out.failed & np.isfinite(out.est)
        dropped = out.kept.sum(axis=1) < num_strata
        for job, reps, rows in block:
            at = np.flatnonzero(ok[rows])
            slots, src, store = reps.start + at, rows.start + at, job.store
            store.est[tag][slots] = out.est[src]
            store.se_b[tag][slots] = out.se_bloom[src]
            store.se_d[tag][slots] = out.se_delta[src]
            store.n_used[tag][slots] = out.n_used[src]
            store.dropped[tag][slots] = dropped[src]


def _aggregate(
    store: _RepStore, tags: Sequence[str], reps: int
) -> tuple[EstimatorMetrics, ...]:
    """Each tag's metrics over the replications where its estimate is
    finite. The tags are rows of (T, reps) arrays, and MaskedRows gives
    every row the 1-D np.mean / np.std(ddof=1) of its entries, so each
    metric is what those functions give on that tag's values alone."""
    est, se_b, se_d, n_used, dropped = (
        np.stack([getattr(store, name)[t] for t in tags])
        for name in ("est", "se_b", "se_d", "n_used", "dropped")
    )
    ok = np.isfinite(est)
    n_ok = ok.sum(axis=1)
    used = MaskedRows.of(ok)
    err = est - store.truth
    with np.errstate(invalid="ignore", divide="ignore"):
        bias = used.sum(err) / n_ok
        true_se = np.sqrt(used.mean_var(used.take(est))[1])
        rmse = np.sqrt(used.sum(err * err) / n_ok)
        var_est = true_se * true_se
        cal, instability = [], []
        for se in (se_b, se_d):
            finite = ok & np.isfinite(se)
            n_finite = finite.sum(axis=1)
            rows = MaskedRows.of(finite)
            mean_sq = rows.sum(se * se) / n_finite
            defined = (n_finite > 0) & (var_est > 0.0)
            cal.append(np.where(defined, np.sqrt(mean_sq / var_est), np.nan))
            sd = np.sqrt(rows.mean_var(rows.take(se))[1])
            defined = (n_finite >= 2) & np.isfinite(true_se) & (true_se != 0.0)
            instability.append(np.where(defined, sd / true_se, np.nan))
        # each instability relative to UNSTRAT's; nan without UNSTRAT
        base = tags.index("UNSTRAT") if "UNSTRAT" in tags else None
        for inst in instability:
            inst /= np.nan if base is None else inst[base]
        drop_rate = (dropped & ok).sum(axis=1) / n_ok
        mean_n_used = used.sum(n_used) / n_ok
    fail_rate = 1.0 - n_ok / reps
    columns = (bias, true_se, rmse, *cal, *instability, drop_rate, fail_rate, mean_n_used)
    return tuple(
        EstimatorMetrics(tag, *(float(c[i]) for c in columns)) for i, tag in enumerate(tags)
    )


class _Job:
    """One config's run: its design, the result slots its blocks write
    while they run, and what `finish` made of the slots once they are done."""

    def __init__(self, config: "ScenarioConfig | ConcentrationConfig") -> None:
        self.config = config
        self.design = _Design.of(config)
        self.n1 = _treated_count(config.n, config.p_treat)  # the config checked it
        # row i: replication i's Philox key
        self.keys = _philox_keys(int(config.seed), range(config.replications))
        self.blocks = 0  # blocks holding some of its replications, not yet run
        self.store: _RepStore | None = None
        self.result = None


def _plan(jobs: Sequence[_Job]) -> list[list[_Segment]]:
    """Blocks of as many replications as fit in BLOCK_UNITS units, with
    each job's count of them. The jobs that share n and estimator tags fill
    blocks together, in job order, so a job's replications span
    consecutive blocks."""
    groups: dict[tuple, list[_Job]] = {}
    for job in jobs:
        groups.setdefault((job.config.n, job.config.estimators), []).append(job)
    blocks = []
    for (n, _), group in groups.items():
        size = max(1, BLOCK_UNITS // n)
        block, used = [], 0
        for job in group:
            start, reps = 0, job.config.replications
            while start < reps:
                stop = min(reps, start + size - used)
                block.append(_Segment(job, range(start, stop), slice(used, used + stop - start)))
                job.blocks += 1
                used += stop - start
                start = stop
                if used == size:
                    blocks.append(block)
                    block, used = [], 0
        if block:
            blocks.append(block)
    return blocks


def _run_reps(configs: Sequence, threads: int, finish: Callable) -> list:
    """Every replication of every config, in blocks that `_plan` fills.
    Blocks run on `threads` threads and each writes only its own slots. A
    config's slots exist from the start of its first block to the end of
    its last, when finish(config, slots) runs; its results come back in
    config order."""
    if threads < 1:
        raise ValueError("threads must be at least 1")
    jobs = [_Job(c) for c in configs]
    blocks = _plan(jobs)
    est_config = EstimatorConfig()
    lock = threading.Lock()

    def run(block: list[_Segment]) -> None:
        with lock:
            for job, _, _ in block:
                if job.store is None:
                    job.store = _RepStore.empty(job.config.estimators, job.config.replications)
        _run_block(block, est_config)
        with lock:
            done = []
            for job, _, _ in block:
                job.blocks -= 1
                if not job.blocks:
                    done.append(job)
        for job in done:
            job.result, job.store = finish(job.config, job.store), None

    if threads > 1 and len(blocks) > 1:
        with ThreadPoolExecutor(max_workers=threads) as pool:
            list(pool.map(run, blocks))
    else:
        for block in blocks:
            run(block)
    return [job.result for job in jobs]


def _metrics(config, store: _RepStore) -> ScenarioMetrics:
    concentration = isinstance(config, ConcentrationConfig)
    return ScenarioMetrics(
        scenario_id=config.scenario_id,
        n=config.n,
        pi_c_target=config.target_p if concentration else config.target_pi_c,
        predicts_c=config.r < 1.0 if concentration else config.predicts_compliance,
        predicts_y=config.predicts_outcome,
        nt_shift=config.never_taker_shift,
        het_tau=config.heterogeneous_tau,
        seed=config.seed,
        rng_family=RNG_FAMILY,
        replications=config.replications,
        rows=_aggregate(store, config.estimators, config.replications),
    )


def run_scenario(config: ScenarioConfig, threads: int = 1) -> ScenarioMetrics:
    """Run one factorial-grid scenario and aggregate its metrics.

    Per replication: fresh table, complete randomization of p_treat * n
    units, every configured estimator. Estimator failures are tallied, not
    fatal; bias and rmse are measured against each replication's own
    realized complier effect.
    """
    return run_grid([config], threads)[0]


def run_concentration(config: ConcentrationConfig, threads: int = 1) -> ScenarioMetrics:
    """Run one point of the compliance-concentration sweep."""
    return run_grid([config], threads)[0]


def run_grid(
    configs: Sequence[ScenarioConfig | ConcentrationConfig], threads: int = 1
) -> list[ScenarioMetrics]:
    """Run a collection of scenarios of either config type; one
    ScenarioMetrics per config, in order. Configs that share n and
    estimator tags share blocks, and each config's metrics equal those it
    gets run alone."""
    return _run_reps(configs, threads, _metrics)


def default_grid(
    replications: int = 1000,
    seed: int = 0,
    n_values: Sequence[int] = (500, 1000, 2000),
    pi_c_values: Sequence[float] = (0.05, 0.075, 0.10),
    nt_shifts: Sequence[float] = (-0.5, 0.0, 0.5),
) -> list[ScenarioConfig]:
    """The full factorial grid; seeds are offset per scenario so no two
    scenarios share a replication stream."""
    configs = []
    idx = 0
    for n in n_values:
        for pi_c in pi_c_values:
            for predicts_c in (False, True):
                for predicts_y in (False, True):
                    for shift in nt_shifts:
                        for het in (False, True):
                            configs.append(
                                ScenarioConfig(
                                    n=n,
                                    target_pi_c=pi_c,
                                    predicts_compliance=predicts_c,
                                    predicts_outcome=predicts_y,
                                    never_taker_shift=shift,
                                    heterogeneous_tau=het,
                                    replications=replications,
                                    seed=seed + idx,
                                )
                            )
                            idx += 1
    return configs
