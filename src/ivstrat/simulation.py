"""Deterministic Monte Carlo engine for the estimator comparison study.

The data-generating process draws a stratified one-sided-noncompliance
population: equal-probability strata, per-unit compliance coins whose rates
optionally follow a geometric pattern over strata, stratum-shifted control
means that optionally explain 63% of outcome variance, and unit normal
total outcome variance. A concentration variant reparameterizes compliance
as (p r^3, p r^2, p r, p) across four strata so a single knob r moves the
design from uninformative (r = 1) to perfectly predictive (r = 0).

The engine runs replications in blocks of about 64k units. Within a block
each replication draws its table and assignment from its own stream; the
block is then revealed, reduced to (R, G) moments in one pass and run
through every estimator's row-wise kernel at once (estimators.estimate_rows),
the same code that estimate() runs on one sample.

Determinism contract: every replication draws from its own counter-based
substream keyed by (seed, replication index) (Philox; Salmon et al., SC11),
each row of a block is computed independently of the others, and
aggregation reads preallocated per-replication slots in index order, so
results are byte identical for any block partition and any thread count.
Threads run whole blocks.
"""

from __future__ import annotations

import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .data_model import (
    BLOCK_UNITS,
    InfeasibleCompliance,
    MaskedRows,
    ObservedBlock,
    ScienceTable,
    _frozen,
    check_science,
    first_appearance,
    reveal,
)
from .estimators import METHODS, EstimatorConfig, estimate_rows

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

DEFAULT_ESTIMATORS = (
    "UNSTRAT",
    "IV_W",
    "IV_A",
    "DSS",
    "DSF",
    "PWIV",
    "TSLS_DUMMY",
    "ORACLE",
)

# stratum pattern scale: between-stratum variance of centered consecutive
# integers 0..G-1 over equal strata is (G^2 - 1) / 12
def _pattern_scale(num_strata: int, between_var: float) -> float:
    spread = (num_strata * num_strata - 1.0) / 12.0
    return math.sqrt(between_var / spread)


def _check_treated_count(n: int, p_treat: float) -> int:
    n1 = p_treat * n
    if not 0.0 < p_treat < 1.0 or abs(n1 - round(n1)) > 1e-9:
        raise ValueError(f"p_treat * n = {n1} must be a whole number of treated units")
    n1 = round(n1)
    if not 0 < n1 < n:
        raise ValueError("both arms must be nonempty")
    return n1


def _check_run(config: "ScenarioConfig | ConcentrationConfig") -> None:
    """The checks both config types share."""
    if config.n < 4:
        raise ValueError("n must be at least 4")
    _check_treated_count(config.n, config.p_treat)
    if config.replications < 1:
        raise ValueError("replications must be at least 1")
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
        if self.num_strata < 1:
            raise ValueError("num_strata must be at least 1")
        if not 0.0 < self.compliance_ratio <= 1.0:
            raise ValueError("compliance_ratio must lie in (0, 1]")
        if self.random_strata_k is not None and self.random_strata_k < 1:
            raise ValueError("random_strata_k must be at least 1")

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
    labels (uniform, or by `weights`), compliance uniforms, outcome
    normals, and with random_k the k random stratum labels that replace
    the first ones. `assemble` turns a block of such draws into tables.
    """

    n: int
    num_strata: int
    comp_prob: np.ndarray
    mu_g: np.ndarray
    noise_sd: float
    never_taker_shift: float
    tau_g: np.ndarray
    weights: tuple[float, ...] | None = None
    random_k: int | None = None

    @classmethod
    def of(cls, config: "ScenarioConfig | ConcentrationConfig") -> "_Design":
        g = config.num_strata
        if isinstance(config, ConcentrationConfig):
            comp_prob = config.base_rate * config.r ** np.arange(g - 1, -1, -1, dtype=np.float64)
            weights, random_k = config.weights, None
        else:
            weights, random_k = None, config.random_strata_k
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
            weights, random_k,
        )

    def empty(self, reps: int) -> dict[str, np.ndarray]:
        shape = (reps, self.n)
        draws = {"strata": np.empty(shape, dtype=np.int64), "u": np.empty(shape),
                 "noise": np.empty(shape)}
        if self.random_k is not None:
            draws["labels"] = np.empty(shape, dtype=np.int64)
        return draws

    def draw(self, draws: dict[str, np.ndarray], i: int, rng: np.random.Generator) -> None:
        """One replication's population draws into row i."""
        g, n = self.num_strata, self.n
        if self.weights is None:
            draws["strata"][i] = rng.integers(0, g, size=n)
        else:
            draws["strata"][i] = rng.choice(g, size=n, p=np.asarray(self.weights))
        rng.random(out=draws["u"][i])
        draws["noise"][i] = rng.normal(0.0, self.noise_sd, n)
        if self.random_k is not None:
            draws["labels"][i] = rng.integers(0, self.random_k, size=n)

    def assemble(self, draws: dict[str, np.ndarray]) -> "_Tables":
        strata = draws["strata"]
        is_complier = draws["u"] < self.comp_prob[strata]
        mu = self.mu_g[strata] + self.never_taker_shift * (~is_complier)
        y0 = mu + draws["noise"]
        y1 = y0 + self.tau_g[strata] * is_complier
        d1 = is_complier.astype(np.int8)
        d0 = np.zeros_like(d1)
        check_science(y0, y1, d0, d1)
        labels = draws.get("labels", strata)
        codes, num_strata, firsts = first_appearance(labels)
        # each row's labels in code order (padding repeats the last unit's)
        values = np.take_along_axis(labels, np.minimum(firsts, self.n - 1), axis=1)
        return _Tables(y0, y1, d0, d1, codes, num_strata, values)


@dataclass(frozen=True)
class _Tables:
    """A block of population tables, one per row, with dense stratum codes;
    labels[i, g] is the label row i codes as g."""

    y0: np.ndarray
    y1: np.ndarray
    d0: np.ndarray
    d1: np.ndarray
    codes: np.ndarray
    num_strata: np.ndarray
    labels: np.ndarray

    def table(self, i: int) -> ScienceTable:
        labels = tuple(self.labels[i][: self.num_strata[i]])
        y0, y1, d0, d1, codes = (
            _frozen(a[i]) for a in (self.y0, self.y1, self.d0, self.d1, self.codes)
        )
        return ScienceTable(y0, y1, d0, d1, codes, labels)


def _draw_table(config, rng: np.random.Generator) -> ScienceTable:
    design = _Design.of(config)
    draws = design.empty(1)
    design.draw(draws, 0, rng)
    return design.assemble(draws).table(0)


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


def _rep_rng(seed: int, rep: int) -> np.random.Generator:
    ss = np.random.SeedSequence(entropy=seed, spawn_key=(rep,))
    return np.random.Generator(np.random.Philox(ss))


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


def _run_block(
    store: _RepStore,
    reps: range,
    config,
    design: _Design,
    n1: int,
    est_config: EstimatorConfig,
) -> None:
    """Replications reps[0]..reps[-1] as one block: draw each from its own
    substream, then reveal, estimate and store them all at once."""
    n, r = config.n, len(reps)
    draws = design.empty(r)
    z = np.zeros((r, n), dtype=np.int8)
    for i, rep in enumerate(reps):
        rng = _rep_rng(config.seed, rep)
        design.draw(draws, i, rng)
        z[i, rng.permutation(n)[:n1]] = 1
    tables = design.assemble(draws)
    del draws
    compliers = (tables.d1 == 1) & (tables.d0 == 0)
    live = np.flatnonzero(compliers.any(axis=1))  # truth undefined elsewhere
    slots = reps.start + live
    store.truth[slots] = MaskedRows(compliers).mean_var(tables.y1 - tables.y0)[0][live]
    y, d = reveal(tables.y0, tables.y1, tables.d0, tables.d1, z)
    block = ObservedBlock(z, d, y, tables.codes, tables.num_strata, compliers)
    for tag in config.estimators:
        rows = estimate_rows(block, tag, est_config)
        ok = ~rows.failed[live] & np.isfinite(rows.est[live])
        at, src = slots[ok], live[ok]
        store.est[tag][at] = rows.est[src]
        store.se_b[tag][at] = rows.se_bloom[src]
        store.se_d[tag][at] = rows.se_delta[src]
        store.n_used[tag][at] = rows.n_used[src]
        store.dropped[tag][at] = rows.kept[src].sum(axis=1) < tables.num_strata[src]


def _sd(x: np.ndarray) -> float:
    return float(np.std(x, ddof=1)) if len(x) > 1 else float("nan")


def _instability(se: np.ndarray, true_se: float) -> float:
    se = se[np.isfinite(se)]
    if len(se) < 2 or not math.isfinite(true_se) or true_se == 0.0:
        return float("nan")
    return _sd(se) / true_se


def _aggregate(
    store: _RepStore, tags: Sequence[str], reps: int
) -> tuple[EstimatorMetrics, ...]:
    baseline_b = float("nan")
    baseline_d = float("nan")
    if "UNSTRAT" in tags:
        est0 = store.est["UNSTRAT"]
        ok0 = np.isfinite(est0)
        se0 = _sd(est0[ok0])
        baseline_b = _instability(store.se_b["UNSTRAT"][ok0], se0)
        baseline_d = _instability(store.se_d["UNSTRAT"][ok0], se0)
    rows = []
    for tag in tags:
        est = store.est[tag]
        ok = np.isfinite(est)
        n_ok = int(ok.sum())
        fail_rate = 1.0 - n_ok / reps
        if n_ok == 0:
            nan = float("nan")
            rows.append(
                EstimatorMetrics(tag, nan, nan, nan, nan, nan, nan, nan, nan, 1.0, nan)
            )
            continue
        err = est[ok] - store.truth[ok]
        bias = float(np.mean(err))
        true_se = _sd(est[ok])
        rmse = math.sqrt(float(np.mean(err * err)))
        var_est = true_se * true_se
        se_b = store.se_b[tag][ok]
        se_d = store.se_d[tag][ok]
        se_b = se_b[np.isfinite(se_b)]
        se_d = se_d[np.isfinite(se_d)]
        cal_b = (
            math.sqrt(float(np.mean(se_b * se_b)) / var_est)
            if len(se_b) and var_est > 0.0
            else float("nan")
        )
        cal_d = (
            math.sqrt(float(np.mean(se_d * se_d)) / var_est)
            if len(se_d) and var_est > 0.0
            else float("nan")
        )
        inst_b = _instability(store.se_b[tag][ok], true_se) / baseline_b
        inst_d = _instability(store.se_d[tag][ok], true_se) / baseline_d
        rows.append(
            EstimatorMetrics(
                estimator=tag,
                bias=bias,
                true_se=true_se,
                rmse=rmse,
                cal_bloom=cal_b,
                cal_delta=cal_d,
                rel_instab_bloom=inst_b,
                rel_instab_delta=inst_d,
                drop_rate=float(np.mean(store.dropped[tag][ok])),
                fail_rate=fail_rate,
                mean_n_used=float(np.mean(store.n_used[tag][ok])),
            )
        )
    return tuple(rows)


def _run_reps(config, threads: int) -> _RepStore:
    """Every replication of a config, in blocks of as many replications as
    fit in BLOCK_UNITS units. Blocks run on `threads` threads; each writes
    only its own slots."""
    reps = config.replications
    n1 = _check_treated_count(config.n, config.p_treat)
    design = _Design.of(config)
    est_config = EstimatorConfig()
    store = _RepStore.empty(config.estimators, reps)
    size = max(1, BLOCK_UNITS // config.n)
    blocks = [range(a, min(a + size, reps)) for a in range(0, reps, size)]

    def one(part: range) -> None:
        _run_block(store, part, config, design, n1, est_config)

    if threads > 1 and len(blocks) > 1:
        with ThreadPoolExecutor(max_workers=threads) as pool:
            list(pool.map(one, blocks))
    else:
        for part in blocks:
            one(part)
    return store


def _run(config, threads: int) -> ScenarioMetrics:
    store = _run_reps(config, threads)
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
    return _run(config, threads)


def run_concentration(config: ConcentrationConfig, threads: int = 1) -> ScenarioMetrics:
    """Run one point of the compliance-concentration sweep."""
    return _run(config, threads)


def run_grid(
    configs: Sequence[ScenarioConfig], threads: int = 1
) -> list[ScenarioMetrics]:
    """Run a collection of scenarios; one ScenarioMetrics per config."""
    return [run_scenario(c, threads=threads) for c in configs]


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
