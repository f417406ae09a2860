"""Deterministic Monte Carlo engine for the estimator comparison study.

The data-generating process draws a stratified one-sided-noncompliance
population: equal-probability strata, per-unit compliance coins whose rates
optionally follow a geometric pattern over strata, stratum-shifted control
means that optionally explain 63% of outcome variance, and unit normal
total outcome variance. A concentration variant reparameterizes compliance
as (p r^3, p r^2, p r, p) across four strata so a single knob r moves the
design from uninformative (r = 1) to perfectly predictive (r = 0).

Configs that share n and estimator tags form a group, whose width is the
most strata one of its replications can have. A replication's one address
in the engine is its row in its group, whose rows are its configs'
replications in config order. Chunks and flushes are ranges of a group's
rows (_plan): chunks of at most BLOCK_UNITS units and BLOCK_UNITS moment
values, so a config smaller than a chunk shares one with the next, and
flushes of consecutive chunks. _segments maps a range of rows to the
replications it holds, one segment per config. Per chunk, each
replication draws its population and assignment from its own stream and
reveals y (_unit_phase). Two calls reduce the chunk to rows of fixed
size: block_moments to (R, width) and pooled (R, 1) moments, and
complier_summary to each row's compliers' arm counts, means and variances
of y, their strata and the truth, the mean of their y1 - y0. A flush
stacks its chunks' rows, and every estimator's row-wise kernel
(estimators.estimate_rows, the code that estimate() runs on one sample),
ORACLE included, runs once on them. A chunk's rows lacking some of the
width's codes have empty cells there, which are not its strata
(ObservedBlock.present). A flush returns its rows' results and writes
nothing else; run_grid, the one run loop, copies them into each config's
slots in order, and aggregates and frees a config's slots once its last
row is written.

A replication's draws are, in order, what these numpy calls draw from its
stream, Generator(Philox(SeedSequence(entropy=seed, spawn_key=(rep,)))):
integers(0, G, n) or choice(G, n, p=weights), random(n),
normal(0, sd, n), with random strata integers(0, k, n), and
permutation(n)[:n1] for the treated units. The engine makes the same bits
with less per-replication work: it derives the Philox keys of a config's
replications once per config, resets one generator per chunk to each
replication's key, and makes only C fills per replication: integers'
raw 64-bit words, choice's random(n), standard normals and an in-place
shuffle of an arange row. Once per segment it maps each word's 32-bit
halves to labels as integers does (Lemire), counts choice's cdf edges
at or below each uniform and scales the normals. A replication with a word
that integers rejects, and a segment of odd n or some k past 2**32,
draws by the literal calls.

Determinism contract: every replication draws from its own counter-based
substream keyed by (seed, replication index) (Philox; Salmon et al., SC11),
the chunk's one generator reset to that key, counter 0 and an empty buffer
before the replication draws. Each row of a flush is computed on its own,
whatever strata its moments hold, and aggregation reads per-replication
slots in index order, so results are byte identical for any partition
into chunks and flushes, any mix of configs in them and any thread count:
each config's metrics equal those it gets run alone. The calling thread
runs every chunk in buffers that it keeps between chunks and calls; every
chunk overwrites what it reads of them, and two threads may each run
run_grid at once. `threads` is checked (at least 1) and changes nothing.
"""

from __future__ import annotations

import functools
import itertools
import math
import sys
import threading
from dataclasses import dataclass, fields
from typing import Sequence

import numpy as np

from .data_model import (
    BLOCK_UNITS,
    ComplierSummary,
    Infeasible,
    MaskedRows,
    NonFinite,
    ObservedBlock,
    ScienceTable,
    StratumMoments,
    _treated_count,
    block_moments,
    complier_summary,
    first_appearance,
)
from .estimators import DEFAULT_ESTIMATORS, METHODS, check_tags, estimate_rows

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

def _check_count(name: str, value, least: int) -> None:
    """Refuse a count that is not an integer (a bool is not one) or is
    below least."""
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
        raise ValueError(f"{name} must be an integer, got {value!r}")
    if value < least:
        raise ValueError(f"{name} must be at least {least}")


def _check_run(config: "ScenarioConfig | ConcentrationConfig") -> None:
    """The checks both config types share. tau and never_taker_shift must
    each lie within +-sqrt(DBL_MAX / replications) / (16 n^4), where no
    moment, SE or metric can overflow: every outcome is at most
    M = |tau| + |never_taker_shift| + 16 in size (the pattern is below
    sqrt(3), a float64 standard normal below 14); under one-sided uptake a
    nonzero first stage is at least 1/n, so an estimate is at most about
    M n^2 / 2 and a squared SE about M^2 n^8 / 32 (both TSLS_DUMMY's); the
    metrics sum `replications` such squares, about 2**10 below DBL_MAX."""
    _check_count("n", config.n, 4)
    _treated_count(config.n, config.p_treat)
    _check_count("replications", config.replications, 1)
    seed = config.seed
    if isinstance(seed, bool) or not isinstance(seed, (int, np.integer)) or seed < 0:
        raise ValueError("seed must be a non-negative integer")
    if not 0.0 <= config.outcome_r2 < 1.0:
        raise ValueError("outcome_r2 must lie in [0, 1)")
    bound = math.sqrt(sys.float_info.max / config.replications) / (16.0 * float(config.n) ** 4)
    for name in ("tau", "never_taker_shift"):
        value = getattr(config, name)
        if not math.isfinite(value):
            raise ValueError(f"{name} must be finite, got {value!r}")
        if abs(value) > bound:
            raise ValueError(f"{name}={value!r} lies outside +-{bound:.4g}, where the moments "
                             f"and SEs of n={config.n} units over {config.replications} "
                             "replications can overflow")
    check_tags(config.estimators, (*METHODS, "ORACLE"))
    if config.predicts_outcome and config.num_strata == 1:
        raise ValueError("predicts_outcome needs at least 2 strata to spread outcomes over")


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
        _check_count("num_strata", self.num_strata, 1)
        _check_run(self)
        if not 0.0 < self.compliance_ratio <= 1.0:
            raise ValueError("compliance_ratio must lie in (0, 1]")
        if self.random_strata_k is not None:
            _check_count("random_strata_k", self.random_strata_k, 1)
            if self.random_strata_k > 2**63:  # integers(0, k) draws int64 labels
                raise ValueError("random_strata_k must be at most 2**63")
        self.comp_prob  # fail construction on infeasible compliance

    @functools.cached_property
    def comp_prob(self) -> np.ndarray:
        """Stratum g's compliance rate: target_pi_c, or with predicts_compliance
        base * compliance_ratio^g averaging target_pi_c, refused if base > 1."""
        g = self.num_strata
        if not self.predicts_compliance:
            return np.full(g, self.target_pi_c)
        powers = self.compliance_ratio ** np.arange(g, dtype=np.float64)
        base = g * self.target_pi_c / float(powers.sum())
        if base > 1.0:
            raise Infeasible(
                f"target_pi_c={self.target_pi_c} needs top-stratum compliance "
                f"{base:.4g} > 1 under ratio {self.compliance_ratio}"
            )
        return base * powers

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
        if len(self.weights) < 1 or any(not w > 0 for w in self.weights):
            raise ValueError("weights must be positive")
        if abs(sum(self.weights) - 1.0) > 1e-9:
            raise ValueError("weights must sum to 1")
        _check_run(self)
        self.comp_prob  # fail construction on infeasible compliance

    @property
    def num_strata(self) -> int:
        return len(self.weights)

    @functools.cached_property
    def comp_prob(self) -> np.ndarray:
        """Each stratum's compliance rate p * r^(G-1-g), with the top rate p
        solving the overall-rate equation, refused unless p lies in (0, 1]."""
        powers = self.r ** np.arange(self.num_strata - 1, -1, -1, dtype=np.float64)
        p = self.target_p / float(np.dot(self.weights, powers))
        if not 0.0 < p <= 1.0:
            raise Infeasible(
                f"target_p={self.target_p} with r={self.r} needs top-stratum "
                f"compliance {p:.4g} outside (0, 1]"
            )
        return p * powers

    @property
    def scenario_id(self) -> str:
        return f"r{self.r:g}_P{self.target_p:g}_n{self.n}"


@dataclass(frozen=True)
class _Design:
    """Everything one replication's population draw needs, per stratum.

    Each replication draws, from its own stream and in this order: stratum
    labels (uniform, or by the weights' cdf), compliance uniforms, outcome
    normals, and with random_k the k random stratum labels that replace
    the first ones. `outcomes` turns rows of such draws into tables.
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
            # the cdf as Generator.choice builds it from p
            cdf, random_k = np.asarray(config.weights, dtype=np.float64).cumsum(), None
            cdf /= cdf[-1]
        else:
            cdf, random_k = None, config.random_strata_k
        if config.predicts_outcome:
            # the between-stratum variance of centered consecutive integers
            # 0..G-1 over equal strata is (G^2 - 1) / 12
            scale = math.sqrt(config.outcome_r2 / ((g * g - 1.0) / 12.0))
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
            config.n, g, config.comp_prob, mu_g, noise_sd, config.never_taker_shift, tau_g,
            cdf, random_k,
        )

    def draw(self, draws: dict[str, np.ndarray], i: int, rng: np.random.Generator) -> None:
        """One replication's population draws into row i by the literal
        calls, as generate_science_table and the engine where not `raw`
        draw: what integers(0, G, n) or choice(G, n, p=weights), random(n),
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

    @property
    def raw(self) -> bool:  # draw_raw's bits are draw's: no spare 32-bit word, no 64-bit one
        return self.n % 2 == 0 and max(self.num_strata, self.random_k or 1) <= 2**32

    def draw_raw(self, draws: dict[str, np.ndarray], i: int, rng: np.random.Generator) -> None:
        """draw's bits in row i, but each integers(0, k, n) left as the
        n / 2 words it maps (none at k = 1) and choice's uniforms in
        `rate`, for map_raw to make labels of, a segment at a time."""
        if self.cdf is not None:
            rng.random(out=draws["rate"][i])
        elif self.num_strata > 1:
            draws["strata_words"][i] = rng.bit_generator.random_raw(self.n // 2)
        rng.random(out=draws["u"][i])
        rng.standard_normal(out=draws["noise"][i])
        if (self.random_k or 1) > 1:
            draws["label_words"][i] = rng.bit_generator.random_raw(self.n // 2)

    def map_raw(self, draws: dict[str, np.ndarray], rows: slice) -> np.ndarray:
        """The labels of draw_raw's rows `rows`, in place, and the rows with
        a word numpy rejects, after which all its draws differ. choice's
        label counts the cdf's inner edges at or below its uniform, which
        is searchsorted(side="right")."""
        strata, rejected = draws["strata"][rows], False
        if self.cdf is not None:
            strata.fill(0)
            for edge in self.cdf[:-1]:
                strata += np.greater_equal(draws["rate"][rows], edge, out=draws["complier"][rows])
        else:
            rejected = _lemire(draws["strata_words"][rows], self.num_strata, strata)
        if self.random_k is not None:
            rejected |= _lemire(draws["label_words"][rows], self.random_k, draws["labels"][rows])
        return rows.start + np.flatnonzero(rejected)

    def outcomes(self, strata, u, noise, complier, rate, shift) -> None:
        """Rows drawn from this design, made tables in place but for y1: the
        complier flags go into `complier`, y0 into `noise` and each unit's
        tau into `u`. rate and shift are float rows of the same shape to
        work in. y1 is tau + y0 at a complier and y0 at any other unit."""
        # mode "clip" fills `out` without a buffer; every code is below G
        np.less(u, np.take(self.comp_prob, strata, out=rate, mode="clip"), out=complier)
        if self.noise_sd != 1.0:
            # normal(0, sd) draws 0 + sd * standard_normal: the same but for
            # the sign of a zero, which y0 = noise + (mu + shift) does not keep
            noise *= self.noise_sd
        # y0 = mu + shift * never-taker + noise
        y0 = np.take(self.mu_g, strata, out=rate, mode="clip")
        y0 += np.multiply(self.never_taker_shift, ~complier, out=shift)
        noise += y0
        np.take(self.tau_g, strata, out=u, mode="clip")


class _Buffers:
    """The unit-sized arrays that a chunk runs in, for chunks of up to
    `units` units, and the arange that refills `order`.

    `rows(r, n)` views the first r * n values of each as (r, n). A
    chunk's arrays take turns in the slots, each after the last use of
    the one before it:
      strata -> codes                   order -> each row's shuffled units
      labels -> first_appearance's key  u -> tau -> d as float, products
        -> the moments' cells           noise -> y0 -> y
      rate -> choice's uniforms or the strata's words, shift -> the
        labels' words; both -> the outcomes' work -> the centred y and d
      complier -> choice's work -> d    z
    """

    _SLOTS = {"strata": np.intp, "order": np.intp, "labels": np.intp, "u": np.float64,
              "noise": np.float64, "rate": np.float64, "shift": np.float64, "z": np.int8,
              "complier": np.bool_}

    def __init__(self, units: int) -> None:
        self.units = units
        self.flat = {name: np.empty(units, dtype) for name, dtype in self._SLOTS.items()}
        self.positions = np.arange(units)
        self.positions.setflags(write=False)

    def rows(self, r: int, n: int) -> dict[str, np.ndarray]:
        views = {name: a[: r * n].reshape(r, n) for name, a in self.flat.items()}
        views["positions"] = self.positions[: r * n]
        # the words that _Design.draw_raw draws strata and labels as
        views["strata_words"] = views["rate"].view("<u8")[:, : n // 2]
        views["label_words"] = views["shift"].view("<u8")[:, : n // 2]
        return views


# the buffers that a thread keeps between chunks and between calls
_kept = threading.local()


def _kept_buffers(units: int) -> _Buffers:
    """This thread's buffers, made at its first chunk (or remade larger)
    to hold BLOCK_UNITS units, or `units` if more."""
    buffers = getattr(_kept, "buffers", None)
    if buffers is None or buffers.units < units:
        buffers = _kept.buffers = _Buffers(max(units, BLOCK_UNITS))
    return buffers


def generate_science_table(
    config: ScenarioConfig | ConcentrationConfig, rng: np.random.Generator
) -> ScienceTable:
    """Draw one population table for a factorial-grid scenario or a point
    of the concentration sweep, with the compliance rates config.comp_prob.
    With random_strata_k the table is relabeled as generate_random_strata
    does."""
    design = _Design.of(config)
    slots = _Buffers(design.n).rows(1, design.n)
    design.draw(slots, 0, rng)
    names = ("strata", "u", "noise", "complier", "rate", "shift", "labels")
    strata, y1, y0, complier, *work, labels = (slots[name][0] for name in names)
    design.outcomes(strata, y1, y0, complier, *work)
    y1 *= complier  # tau * 0 + y0 is y0
    y1 += y0
    d1 = complier.view(np.int8)
    strata = strata if design.random_k is None else labels
    return ScienceTable.from_arrays(y0, y1, np.zeros_like(d1), d1, strata)


# the concentration sweep's name for the same draw
generate_concentration_table = generate_science_table


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
    """Per-replication results, as a flush's rows or as a config's slots.

    values[0..3] are each tag's (T, reps) est, se_bloom, se_delta and
    n_used, nan where a replication has no result (no complier, or the
    estimator failed); dropped marks a result that left out some stratum,
    and truth, nan without compliers, is the realized complier effect."""

    values: np.ndarray
    dropped: np.ndarray
    truth: np.ndarray

    @classmethod
    def empty(cls, tags: int, reps: int) -> "_RepStore":
        nan = np.full((4, tags, reps), np.nan)
        return cls(nan, np.zeros((tags, reps), dtype=bool), np.full(reps, np.nan))


def _lemire(words: np.ndarray, k: int, out: np.ndarray):
    """What integers(0, k, n) draws from rows of n / 2 words, into the
    (R, n) rows `out`, and whether each row has a word it rejects: each
    32-bit half x, low first, maps to (x * k) >> 32, rejected where
    (x * k) mod 2**32 < 2**32 mod k (Lemire, ACM TOMACS 29(1), 2019). At
    k = 2**32 it maps x to x, at k = 1 to 0. It overwrites the words."""
    halves, wide = words.view("<u4"), out.view(np.uint64)
    np.multiply(halves, np.uint64(k), out=wide, dtype=np.uint64)
    np.right_shift(wide, np.uint64(32), out=wide)
    if 2**32 % k == 0:
        return False
    np.multiply(halves, np.uint32(k), out=halves)  # each product mod 2**32
    return halves.min(axis=1) < 2**32 % k


def _draw_block(group: Sequence[_Job], chunk: range, slots: dict[str, np.ndarray]) -> np.ndarray:
    """The population draws of `chunk`, a range of the group's rows,
    written into `slots` (`_Buffers.rows`), and its (R, n) assignments z,
    which it returns. Each replication draws its population and then its
    assignment from its own substream: the chunk's one generator, reset to
    the replication's key. Row i of `order` holds its units' flat
    positions in the chunk, so `rng.shuffle` of it draws what
    permutation(n) does, and the first n1 units of each row are treated.
    A segment (_segments) draws by _Design.draw_raw where _Design.raw
    holds, and then maps its words at once; a replication with a word
    numpy rejects, and any other segment, draws by _Design.draw."""
    order, positions = slots["order"], slots["positions"].reshape(slots["order"].shape)
    np.copyto(order, positions)
    bit_generator = np.random.Philox(0)
    rng = np.random.Generator(bit_generator)
    # a fresh Philox's state: counter 0, an empty buffer and no spare
    # 32-bit word; each replication starts from it with its own key
    state = bit_generator.state

    def replicate(draw, i: int, key: list) -> None:
        state["state"]["key"] = key
        bit_generator.state = state
        draw(slots, i, rng)
        rng.shuffle(order[i])

    for job, reps, at in _segments(group, chunk):
        design, keys = job.design, job.keys[reps.start : reps.stop].tolist()
        draw = design.draw_raw if design.raw else design.draw
        for i, key in enumerate(keys, at.start):
            replicate(draw, i, key)
        for i in design.map_raw(slots, at) if design.raw else ():
            order[i] = positions[i]
            replicate(design.draw, i, keys[i - at.start])
    z = slots["z"]
    z.fill(0)
    for job, _, at in _segments(group, chunk):
        z.reshape(-1)[order[at, : job.n1]] = 1
    return z


def _unit_phase(group: Sequence[_Job], chunk: range, slots: dict[str, np.ndarray], width: int):
    """What `chunk`, a range of the group's rows, computes from its units
    in `slots` (`_Buffers.rows`), each replication drawn from its own
    substream and revealed: the rows' moments at `width` strata and
    pooled, and their ComplierSummary at `width` with the truth, by the
    call that ObservedBlock.of_units makes."""
    z = _draw_block(group, chunk, slots)
    strata, tau, y, complier = (slots[name] for name in ("strata", "u", "noise", "complier"))
    for job, _, at in _segments(group, chunk):
        work = (slots["rate"][at], slots["shift"][at])
        job.design.outcomes(strata[at], tau[at], y[at], complier[at], *work)
        if job.design.random_k is not None:
            strata[at] = slots["labels"][at]
    # y holds y0; y1 differs from it only at the compliers, where it is tau + y0
    at = np.flatnonzero(complier)
    y0 = y.take(at)
    y1 = tau.take(at)
    y1 += y0
    if not (np.isfinite(y).all() and np.isfinite(y1).all()):
        raise NonFinite("potential outcomes must be finite")
    codes, _, _ = first_appearance(
        strata, key=slots["labels"], codes=strata, positions=slots["positions"]
    )
    # reveal y1 at the treated compliers and d = d1 * z in place
    treated = z.take(at).view(bool)
    y.reshape(-1)[at[treated]] = y1[treated]
    d = np.logical_and(complier, z, out=complier).view(np.int8)
    # the key's slot, tau's and the outcome temporaries' are free for the moments
    work = (slots["labels"], tau, slots["rate"], slots["shift"])
    moments, pooled = block_moments(z, d, y, codes, width, work)
    return moments, pooled, complier_summary(at, z, y, codes, width, y1 - y0)


# a row's moment values per stratum
_MOMENT_FIELDS = len(fields(StratumMoments))


def _stack(parts: list) -> "StratumMoments | ComplierSummary":
    """Moments, or complier summaries, of consecutive rows, stacked in order."""
    return type(parts[0])(
        *(np.concatenate([getattr(p, f.name) for p in parts]) for f in fields(parts[0]))
    )


def _flush(config: "ScenarioConfig | ConcentrationConfig", phases: list) -> _RepStore:
    """The rows of `phases`, unit phases of consecutive chunks of a group of
    which config is one: the truth, and every tag's results where a row
    has compliers and the tag did not fail, each tag run once on one
    ObservedBlock of their stacked moments and complier summaries. It
    writes no job, nor rows that share the buffers."""
    moments, pooled, compliers = (_stack(p) for p in zip(*phases))
    obs = ObservedBlock(moments, pooled, config.n, compliers)
    num_strata = obs.present.sum(axis=1)
    rows = _RepStore.empty(len(config.estimators), len(num_strata))
    rows.truth[:] = compliers.truth  # nan without compliers
    for i, tag in enumerate(config.estimators):
        out = estimate_rows(obs, tag)
        ok = ~np.isnan(rows.truth) & ~out.failed
        results = (out.est, out.se_bloom, out.se_delta, out.n_used)
        for field, result in zip(rows.values[:, i], results):
            field[ok] = result[ok]
        rows.dropped[i] = ok & (out.kept.sum(axis=1) < num_strata)
    return rows


def _aggregate(
    store: _RepStore, tags: Sequence[str], reps: int
) -> tuple[EstimatorMetrics, ...]:
    """Each tag's metrics over the replications where its estimate is
    finite. The tags are rows of (T, reps) arrays, and MaskedRows gives
    every row the 1-D np.mean / np.std(ddof=1) of its entries, so each
    metric is what those functions give on that tag's values alone."""
    est, se_b, se_d, n_used = store.values
    dropped = store.dropped
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
    """One config's run: its design, treated count, width and Philox keys,
    and the slots its rows are written into from its first flush to its last."""

    def __init__(self, config: "ScenarioConfig | ConcentrationConfig") -> None:
        self.config = config
        self.design = _Design.of(config)
        self.n1 = _treated_count(config.n, config.p_treat)  # the config checked it
        # the most strata a replication can have: at most one per unit
        self.width = min(self.design.random_k or self.design.num_strata, config.n)
        # row i: replication i's Philox key
        self.keys = _philox_keys(int(config.seed), range(config.replications))
        self.store: _RepStore | None = None


def _segments(group: Sequence[_Job], rows: range):
    """Each (job, reps, at) in `rows`, a range of the group's rows (its jobs'
    replications, in job order): a job, its replications `reps` that the
    rows hold, and their positions `at`, counted from rows.start."""
    start = 0
    for job in group:
        stop = start + job.config.replications
        first, last = max(start, rows.start), min(stop, rows.stop)
        if first < last:
            at = slice(first - rows.start, last - rows.start)
            yield job, range(first - start, last - start), at
        start = stop


def _plan(jobs: Sequence[_Job]) -> list[tuple[list[_Job], int, list[range]]]:
    """Every flush, in order, as its group, the group's width and its
    chunks, each a range of the group's rows. The jobs that share n and
    estimator tags form a group, whose width is the largest of its jobs'.
    Its rows are cut into chunks of as many as keep both their units and
    their moment values, 13 (width + 1) per row, within BLOCK_UNITS, so a
    job's replications span consecutive chunks. Every row has a fixed
    number of values, so each flush is as many of the group's chunks, in
    order, as take their rows' values to BLOCK_UNITS, or the group's rest."""
    groups: dict[tuple, list[_Job]] = {}
    for job in jobs:
        groups.setdefault((job.config.n, job.config.estimators), []).append(job)
    plan = []
    for (n, _), group in groups.items():
        width = max(job.width for job in group)
        size = max(1, BLOCK_UNITS // max(n, _MOMENT_FIELDS * (width + 1)))
        total = sum(job.config.replications for job in group)
        chunks = [range(start, min(start + size, total)) for start in range(0, total, size)]
        # a row's moments and its ComplierSummary, 7 values and a flag per stratum
        row_values = _MOMENT_FIELDS * (width + 1) + 7 + width
        per = -(-BLOCK_UNITS // (size * row_values))  # chunks per flush
        plan += [(group, width, chunks[i : i + per]) for i in range(0, len(chunks), per)]
    return plan


def run_grid(
    configs: Sequence[ScenarioConfig | ConcentrationConfig], threads: int = 1
) -> list[ScenarioMetrics]:
    """Run configs of either type; one ScenarioMetrics per config, in
    order, each equal to what it gets run alone. Each flush that `_plan`
    makes runs its chunks' unit phases in turn, on this thread and in the
    buffers it keeps, and then `_flush` runs them; its rows are copied
    into their configs' slots, which exist from a config's first rows to
    its last, then become its metrics. threads must be at least 1 and
    changes nothing that runs."""
    if threads < 1:
        raise ValueError("threads must be at least 1")
    jobs = [_Job(c) for c in configs]
    results = {}
    for group, width, chunks in _plan(jobs):
        n = group[0].config.n
        buffers = _kept_buffers(max(map(len, chunks)) * n)
        phases = [_unit_phase(group, c, buffers.rows(len(c), n), width) for c in chunks]
        rows = _flush(group[0].config, phases)
        for job, reps, src in _segments(group, range(chunks[0].start, chunks[-1].stop)):
            if job.store is None:
                job.store = _RepStore.empty(len(job.config.estimators), job.config.replications)
            dst = slice(reps.start, reps.stop)
            job.store.values[..., dst] = rows.values[..., src]
            job.store.dropped[:, dst] = rows.dropped[:, src]
            job.store.truth[dst] = rows.truth[src]
            # a job's rows are flushed in order: this is its last
            if reps.stop == job.config.replications:
                results[job], job.store = _metrics(job.config, job.store), None
    return [results[job] for job in jobs]


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


def run_scenario(config: ScenarioConfig | ConcentrationConfig, threads: int = 1) -> ScenarioMetrics:
    """Run one factorial-grid scenario or one point of the concentration
    sweep and aggregate its metrics.

    Per replication: fresh table, complete randomization of p_treat * n
    units, every configured estimator. Estimator failures are tallied, not
    fatal; bias and rmse are measured against each replication's own
    realized complier effect. threads is as in run_grid.
    """
    return run_grid([config], threads)[0]


# the concentration sweep's name for the same run
run_concentration = run_scenario


def default_grid(
    replications: int = 1000,
    seed: int = 0,
    n_values: Sequence[int] = (500, 1000, 2000),
    pi_c_values: Sequence[float] = (0.05, 0.075, 0.10),
    nt_shifts: Sequence[float] = (-0.5, 0.0, 0.5),
) -> list[ScenarioConfig]:
    """The full factorial grid, its last factor varying fastest; seeds are
    offset per scenario so no two scenarios share a replication stream."""
    flags = (False, True)
    cells = itertools.product(n_values, pi_c_values, flags, flags, nt_shifts, flags)
    return [
        ScenarioConfig(
            n=n, target_pi_c=pi_c, predicts_compliance=predicts_c, predicts_outcome=predicts_y,
            never_taker_shift=shift, heterogeneous_tau=het, replications=replications,
            seed=seed + idx,
        )
        for idx, (n, pi_c, predicts_c, predicts_y, shift, het) in enumerate(cells)
    ]
