"""Observed and potential-outcome data representations.

Two views of an experiment live here. ObservedSample is what an analyst
actually sees: per-unit assignment z, uptake d, outcome y, and a stratum
label. ScienceTable is the full potential-outcome table (y0, y1, d0, d1,
stratum) used by the analytic oracles and the data-generating process;
revealing it under an assignment vector produces an ObservedSample.

Strata are always caller-provided labels. Internally they are re-coded to
dense integers 0..G-1 in order of first appearance, with the original labels
retained for reporting. All containers are immutable after construction and
safe to share across threads.
"""

from __future__ import annotations

from dataclasses import dataclass, fields, replace
from typing import Hashable, Iterator

import numpy as np


# ---------------------------------------------------------------------------
# Error vocabulary, shared by every module to avoid import cycles.


class EstimationError(Exception):
    """A cause in the data: an estimate, table or run that the data cannot
    support (the CLI exits 2). A caller's mistake is a ValueError (exit 1)."""


class NonBinary(EstimationError):
    pass


class NonFinite(EstimationError):
    pass


class EmptyArm(EstimationError):
    def __init__(self, stratum: Hashable = None, z: int | None = None):
        # without z: the label-free form that a row-wise kernel raises
        self.stratum = stratum
        self.z = z
        where = "a kept stratum" if z is None else f"stratum {stratum!r}"
        super().__init__(f"{where} has no units " + ("in one arm" if z is None else f"with z={z}"))


class DefierPresent(EstimationError):
    pass


class ExclusionViolation(EstimationError):
    pass


class ZeroCompliance(EstimationError):
    pass


class AllStrataDropped(EstimationError):
    pass


class TooFewUnits(EstimationError):
    pass


class DegenerateVariance(EstimationError):
    pass


class NoCompliers(EstimationError):
    pass


class NoCompliersInArm(EstimationError):
    def __init__(self, z: int):
        self.z = z
        super().__init__(f"no compliers assigned to z={z}")


class TwoSidedInput(EstimationError):
    pass


def _treated_count(n: int, p: float) -> int:
    """The number of treated units, round(p * n), refused unless p * n is
    whole and leaves both arms nonempty."""
    if not 0.0 < p < 1.0:
        raise ValueError(f"treatment proportion {p} must lie in (0, 1)")
    n1 = p * n
    if abs(n1 - round(n1)) > 1e-9:
        raise ValueError(f"p*N = {n1} is not a whole number of treated units")
    n1 = round(n1)
    if not 0 < n1 < n:
        raise ValueError("both arms must be nonempty")
    return n1


class Infeasible(EstimationError):
    """A request refused as a whole: an enumeration too large or undefined
    somewhere, or a simulated compliance profile with a rate outside (0, 1]."""


class MalformedRow(ValueError):
    def __init__(self, line: int, reason: str):
        self.line = line
        self.reason = reason
        super().__init__(f"line {line}: {reason}")


class MissingColumn(ValueError):
    def __init__(self, name: str):
        self.name = name
        super().__init__(f"missing column {name!r}")


class EmptyFile(ValueError):
    pass


class EmptyBin(ValueError):
    pass


# Compliance type codes. With binary monotone uptake, d0 + d1 identifies the
# type, so the codes are chosen to equal that sum.
NEVER_TAKER = 0
COMPLIER = 1
ALWAYS_TAKER = 2


def _frozen(a: np.ndarray) -> np.ndarray:
    a.setflags(write=False)
    return a


def first_appearance(
    labels: np.ndarray, key=None, codes=None, positions=None
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Dense codes in order of first appearance, row by row.

    labels is an (R, n) integer array. Returns the (R, n) codes, the (R,)
    number of distinct labels per row, and the (R, G) positions of each
    code's first unit, G being the largest count (rows with fewer labels
    are padded with n). key and codes, (R, n) intp arrays, and positions,
    np.arange(R * n), may be given to work in: the codes are then written
    into `codes`, which may be intp labels themselves, and `key` is
    overwritten.
    """
    r, n = labels.shape
    if labels.size == 0:
        return np.zeros((r, n), dtype=np.intp), np.zeros(r, dtype=np.intp), np.zeros((r, 0), np.intp)
    lab = labels.astype(np.intp, copy=False)
    lo = int(lab.min())
    span = int(lab.max()) - lo + 1
    if span > lab.size:  # sparse label values: rank them first
        _, lab = np.unique(lab.ravel(), return_inverse=True)
        lab, lo, span = lab.reshape(r, n), 0, int(lab.max()) + 1
    rows = np.arange(r)[:, None]
    key = np.subtract(lab, lo - span * rows, out=key).ravel()  # (row, label) cell
    first = np.full(r * span, r * n, dtype=np.intp)
    np.minimum.at(first, key, np.arange(r * n) if positions is None else positions)
    # each row's cells by first appearance, as flat cell indices
    order = np.argsort(first.reshape(r, span), axis=1, kind="stable") + span * rows
    rank = np.empty(r * span, dtype=np.intp)
    rank[order.ravel()] = np.tile(np.arange(span), r)
    count = (first < r * n).reshape(r, span).sum(axis=1)
    firsts = np.minimum(first[order[:, : int(count.max())]] - n * rows, n)
    # mode "clip" fills `out` without a buffer; every key is a cell
    codes = np.take(rank, key.reshape(r, n), out=codes, mode="clip")
    return codes, count, firsts


def _binary(a: np.ndarray) -> bool:
    return bool(((a == 0) | (a == 1)).all())


def _int8(a, name: str) -> np.ndarray:
    """a as int8 (an int8 array as is); NonBinary where the cast would
    change a value, as 0.5 to 0 or 257 to 1, which no later check sees."""
    a = np.asarray(a)
    with np.errstate(invalid="ignore"):
        out = np.asarray(a, dtype=np.int8)
    if out is not a and not np.array_equal(out, a):
        raise NonBinary(f"{name} must be 0 or 1")
    return out


def _levels(column) -> tuple[list, np.ndarray]:
    """Hashable labels' distinct values by first appearance (equal ones, as
    1, 1.0 and True, share the first's level) and each item's index."""
    index: dict = {}  # each label's first item's position, one lookup per item
    first = np.fromiter(map(index.setdefault, column, range(len(column))), np.intp, len(column))
    level = np.empty(len(column), np.intp)
    level[np.fromiter(index.values(), np.intp, len(index))] = np.arange(len(index))
    # in place: mode "clip" fills `out` without a buffer; no position is past n
    return list(index), np.take(level, first, out=first, mode="clip")


def _dense_codes(strata) -> tuple[np.ndarray, tuple[Hashable, ...]]:
    """Map labels to 0..G-1 in order of first appearance."""
    if isinstance(strata, np.ndarray) and strata.ndim == 1 and strata.dtype.kind in "biu":
        codes, _, firsts = first_appearance(strata[None, :])
        return codes[0], tuple(strata[firsts[0]])
    labels, codes = _levels(strata)
    return codes, tuple(labels)


@dataclass(frozen=True, eq=False)
class ObservedSample:
    """Observed data held column-wise, with strata as dense integer codes.

    Construct through from_arrays, which re-codes the stratum labels
    densely. Invariants (binary z/d, finite y, nonempty arms in each
    stratum, N >= 4) are enforced by validate, not by construction.
    Equality is identity (eq=False): field-wise == on arrays has no single
    truth value.
    """

    z: np.ndarray
    d: np.ndarray
    y: np.ndarray
    strata: np.ndarray
    stratum_labels: tuple[Hashable, ...]

    @classmethod
    def from_arrays(cls, z, d, y, strata=None) -> "ObservedSample":
        z, d = _int8(z, "z"), _int8(d, "d")
        y = np.asarray(y, dtype=np.float64)
        if strata is None:
            strata = np.zeros(len(z), dtype=np.intp)
        if not (len(z) == len(d) == len(y) == len(strata)):
            raise ValueError("z, d, y, strata must have equal length")
        codes, labels = _dense_codes(strata)
        return cls(_frozen(z), _frozen(d), _frozen(y), _frozen(codes), labels)

    @property
    def n(self) -> int:
        return len(self.z)

    @property
    def n1(self) -> int:
        return int(np.sum(self.z == 1))

    @property
    def n0(self) -> int:
        return int(np.sum(self.z == 0))

    @property
    def num_strata(self) -> int:
        return len(self.stratum_labels)


def validate(sample: ObservedSample) -> ObservedSample:
    """Check sample invariants and return the sample with dense stratum codes.

    Raises NonBinary if z or d leave {0,1}, NonFinite for non-finite y,
    TooFewUnits for N < 4, and EmptyArm(g, z) if any stratum lacks units on
    either arm (which also covers an empty arm overall).
    """
    labels = sample.stratum_labels
    sample = ObservedSample.from_arrays(sample.z, sample.d, sample.y, sample.strata)
    sample = replace(sample, stratum_labels=tuple(labels[g] for g in sample.stratum_labels))
    if not _binary(sample.z):
        raise NonBinary("z must be 0 or 1")
    if not _binary(sample.d):
        raise NonBinary("d must be 0 or 1")
    if not np.isfinite(sample.y).all():
        raise NonFinite("y must be finite")
    if sample.n < 4:
        raise TooFewUnits(f"need at least 4 units, got {sample.n}")
    counts1 = np.bincount(sample.strata[sample.z == 1], minlength=sample.num_strata)
    counts0 = np.bincount(sample.strata[sample.z == 0], minlength=sample.num_strata)
    for code, label in enumerate(sample.stratum_labels):
        if counts1[code] == 0:
            raise EmptyArm(label, 1)
        if counts0[code] == 0:
            raise EmptyArm(label, 0)
    return sample


@dataclass(frozen=True)
class ScienceTable:
    """The complete potential-outcome table for a finite population.

    Construction rejects defiers (d1 < d0) and any unit violating the
    exclusion restriction (d0 == d1 but y1 != y0). Compliance type is the
    derived quantity d0 + d1, see NEVER_TAKER / COMPLIER / ALWAYS_TAKER.
    """

    y0: np.ndarray
    y1: np.ndarray
    d0: np.ndarray
    d1: np.ndarray
    strata: np.ndarray
    stratum_labels: tuple[Hashable, ...]

    @classmethod
    def from_arrays(cls, y0, y1, d0, d1, strata=None) -> "ScienceTable":
        y0 = np.asarray(y0, dtype=np.float64)
        y1 = np.asarray(y1, dtype=np.float64)
        d0, d1 = _int8(d0, "d0"), _int8(d1, "d1")
        if strata is None:
            strata = np.zeros(len(y0), dtype=np.intp)
        if not (len(y0) == len(y1) == len(d0) == len(d1) == len(strata)):
            raise ValueError("y0, y1, d0, d1, strata must have equal length")
        check_science(y0, y1, d0, d1)
        codes, labels = _dense_codes(strata)
        return cls(_frozen(y0), _frozen(y1), _frozen(d0), _frozen(d1), _frozen(codes), labels)

    @property
    def n(self) -> int:
        return len(self.y0)

    @property
    def num_strata(self) -> int:
        return len(self.stratum_labels)

    @property
    def compliance_type(self) -> np.ndarray:
        return (self.d0 + self.d1).astype(np.int8)

    @property
    def is_complier(self) -> np.ndarray:
        return (self.d1 == 1) & (self.d0 == 0)

    @property
    def pi_c(self) -> float:
        return float(np.mean(self.is_complier))

    @property
    def pi_a(self) -> float:
        return float(np.mean(self.d0 == 1))

    @property
    def pi_n(self) -> float:
        return float(np.mean(self.d1 == 0))

    @property
    def one_sided(self) -> bool:
        return not np.any(self.d0 == 1)

    @property
    def itt(self) -> float:
        return float(np.mean(self.y1 - self.y0))

    @property
    def cace(self) -> float:
        mask = self.is_complier
        if not mask.any():
            raise NoCompliers("table has no compliers, CACE undefined")
        return float(np.mean(self.y1[mask] - self.y0[mask]))


def check_science(y0: np.ndarray, y1: np.ndarray, d0: np.ndarray, d1: np.ndarray) -> None:
    """The ScienceTable invariants, for arrays of any (equal) shape: binary
    uptake, finite outcomes, no defiers, and the exclusion restriction."""
    if not (_binary(d0) and _binary(d1)):
        raise NonBinary("d0 and d1 must be 0 or 1")
    if not (np.isfinite(y0).all() and np.isfinite(y1).all()):
        raise NonFinite("potential outcomes must be finite")
    if np.any(d1 < d0):
        raise DefierPresent("monotonicity requires d1 >= d0 for every unit")
    if np.any((y0 != y1) & (d0 == d1)):
        raise ExclusionViolation("units with d0 == d1 must have y1 == y0")


class MaskedRows:
    """The entries of each row of (R, m) arrays at given positions, gathered
    once into contiguous blocks of the rows that have equally many entries.

    Layout: the rows are ordered (stably) by their entry count, and `index`
    lists the flat positions of their entries in that order, each row's in
    column order. `take` gathers every entry with that one index; the c
    rows that have k entries each are then one contiguous (c, k) slice of
    the result, and `counts` gives each row's k.

    Each reduction runs on one such slice along axis 1, where numpy sums
    every contiguous row pairwise on its own, so a row gets exactly the
    1-D np.sum / np.mean / np.var of its entries. Reductions must stay per
    row: zero-padded rows, a non-contiguous gather, or one reduction over
    several stacked slices change the pairwise order, and with it the last
    bits, once more than a few entries are summed.
    """

    def __init__(self, positions: np.ndarray, shape: tuple[int, int]) -> None:
        """positions: increasing flat positions into an array of `shape`."""
        r, m = shape
        self.counts = counts = np.bincount(positions // m, minlength=r)
        self.order = order = counts.argsort(kind="stable")
        self.sizes = sizes = counts[order]
        ends = np.add.accumulate(sizes)
        # each entry's offset from where its row starts in positions to
        # where it starts in index
        shift = np.repeat(np.add.accumulate(counts)[order] - ends, sizes)
        # entries gathered at `positions`, in their order, are in index
        # order at entry_order
        self.entry_order = shift + np.arange(len(positions))
        self.index = positions[self.entry_order]
        cuts = [0, *(np.flatnonzero(sizes[1:] != sizes[:-1]) + 1).tolist(), r]
        starts = [0, *ends.tolist()]  # where each row, in count order, starts in index
        # (first row, last row + 1, first entry, entries per row), in order
        self.groups = [
            (a, b, starts[a], (starts[b] - starts[a]) // (b - a))
            for a, b in zip(cuts, cuts[1:])
            if a < b
        ]

    @classmethod
    def of(cls, mask: np.ndarray) -> "MaskedRows":
        """The entries where an (R, m) mask is set."""
        return cls(np.flatnonzero(mask), mask.shape)

    def take(self, values: np.ndarray) -> np.ndarray:
        """The entries of (R, m) values, in index order."""
        return np.take(values, self.index)

    def _reduce(self, entries: np.ndarray) -> np.ndarray:
        """Each row's sum of entries, rows in count order."""
        out = np.empty(len(self.sizes))
        for a, b, lo, k in self.groups:
            np.add.reduce(entries[lo : lo + (b - a) * k].reshape(b - a, k), axis=1, out=out[a:b])
        return out

    def _rows(self, ordered: np.ndarray) -> np.ndarray:
        """Per-row values in count order, put back in row order."""
        out = np.empty_like(ordered)
        out[self.order] = ordered
        return out

    def sum(self, values: np.ndarray) -> np.ndarray:
        """Each row's sum of the entries of (R, m) values."""
        return self._rows(self._reduce(self.take(values)))

    def mean(self, entries: np.ndarray) -> np.ndarray:
        """Row means (nan without entries) of entries in index order."""
        with np.errstate(invalid="ignore", divide="ignore"):
            return self._rows(self._reduce(entries) / self.sizes)

    def mean_var(self, entries: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Row means, as `mean`, and sample variances (ddof 1;
        nan with fewer than 2 entries) of entries in index order, as from
        `take`. The variance runs np.var's steps: the sum divided by the
        count, deviations, their squares, and the sum of those."""
        sizes = self.sizes
        with np.errstate(invalid="ignore", divide="ignore"):
            mean = self._reduce(entries) / sizes
            dev = np.subtract(entries, np.repeat(mean, sizes))
            var = self._reduce(np.square(dev, out=dev)) / (sizes - 1)
        var[sizes < 2] = np.nan
        return self._rows(mean), self._rows(var)


def reveal(y0, y1, d0, d1, z: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Observed (y, d) under assignment z, elementwise over any shape."""
    treated = z == 1
    y = np.where(treated, y1, y0).astype(np.float64, copy=False)
    return y, np.where(treated, d1, d0).astype(np.int8, copy=False)


def science_to_observed(table: ScienceTable, assignment) -> ObservedSample:
    """Reveal observed data under a binary assignment vector.

    y = z*y1 + (1-z)*y0 and d = z*d1 + (1-z)*d0, with strata carried over.
    The result is not validated; run validate before estimation. An
    assignment that is not all 0 or 1 is the caller's ValueError.
    """
    z = np.asarray(assignment)
    if len(z) != table.n:
        raise ValueError(f"assignment has length {len(z)}, table has {table.n}")
    if not _binary(z):
        raise ValueError("assignment must be 0 or 1")
    z = z.astype(np.int8, copy=False)
    y, d = reveal(table.y0, table.y1, table.d0, table.d1, z)
    return ObservedSample(_frozen(z), _frozen(d), _frozen(y), table.strata, table.stratum_labels)


@dataclass(frozen=True)
class StratumMoments:
    """Vectorized per-stratum moments, indexed by dense stratum code.

    Undefined entries ((co)variances on arms with fewer than 2 units) are nan
    rather than None so downstream code can stay in array form.
    """

    n_g: np.ndarray
    n_g1: np.ndarray
    n_g0: np.ndarray
    ybar1: np.ndarray
    ybar0: np.ndarray
    dbar1: np.ndarray
    dbar0: np.ndarray
    s2_y1: np.ndarray
    s2_y0: np.ndarray
    s2_d1: np.ndarray
    s2_d0: np.ndarray
    s_yd1: np.ndarray
    s_yd0: np.ndarray

    @property
    def f_hat(self) -> np.ndarray:
        return self.dbar1 - self.dbar0

    @property
    def itt_hat(self) -> np.ndarray:
        return self.ybar1 - self.ybar0


    def map(self, fn) -> "StratumMoments":
        """The moments with fn applied to every field array."""
        return StratumMoments(**{f.name: fn(getattr(self, f.name)) for f in fields(self)})


def block_moments(
    z, d, y, strata, num_strata: int, work=None
) -> tuple[StratumMoments, StratumMoments]:
    """Per-stratum, per-arm moments of R samples in one vectorized call:
    (R, G) fields with G = num_strata, and pooled (R, 1) fields with every
    unit in one stratum.

    z, d, y and strata are (R, n) arrays, one sample per row, and d is
    integer-valued. Each pass runs one bincount per sum over a cell index
    (rep*2G + 2g + z, then rep*2 + z), which sums each cell in unit order,
    so every row is bit-identical to computing that sample alone. The
    pooled counts and d sums are the stratified ones added over strata,
    which is exact. Two-pass (mean, then centered products) so the s2 and
    s_yd terms do not suffer the cancellation of a sums-of-squares shortcut.

    work, four C-contiguous (R, n) arrays (intp, then three float64) that
    no argument shares, may be given for the full-size temporaries: the
    cells, d as float and then the cross products, and the centred y and
    d, squared in place. None of them is in the result.
    """
    passes = _moment_passes(z, d, y, strata, num_strata, work)
    return next(passes), next(passes)


def _moment_passes(z, d, y, strata, num_strata: int, work) -> Iterator[StratumMoments]:
    """block_moments' two passes, each run when asked for: the (R, G)
    moments, then the pooled (R, 1) ones."""
    r, g = len(z), num_strata
    if work is None:
        work = (np.empty(z.shape, dtype=np.intp), *(np.empty(z.shape) for _ in range(3)))
    rows = np.arange(r)[:, None]
    np.add(strata, g * rows, out=work[0])
    cell, prod, ry, rd = (a.reshape(-1) for a in work)
    cell *= 2
    cell += z.ravel()
    y, d = y.ravel(), d.ravel()
    np.copyto(prod, d)
    counts = np.bincount(cell, minlength=2 * g * r).astype(np.float64)
    sum_d = np.bincount(cell, weights=prod, minlength=2 * g * r)
    arrays = (cell, y, d, prod, ry, rd)
    moments = _cell_moments(counts, sum_d, *arrays, r, g)
    yield moments
    if g == 1:
        yield moments
        return
    np.add(z, 2 * rows, out=work[0])
    pooled = (a.reshape(r, g, 2).sum(axis=1).ravel() for a in (counts, sum_d))
    yield _cell_moments(*pooled, *arrays, r, 1)


def _cell_moments(counts, sum_d, cell, y, d, prod, ry, rd, r: int, g: int) -> StratumMoments:
    """block_moments' pass over the cells in `cell`, given each cell's
    count and sum of d."""
    ncells = 2 * g * r
    sum_y = np.bincount(cell, weights=y, minlength=ncells)
    with np.errstate(invalid="ignore", divide="ignore"):
        mean_y = sum_y / counts
        mean_d = sum_d / counts
    # mode "clip" fills `out` without a buffer; every cell is below ncells
    np.take(mean_y, cell, out=ry, mode="clip")
    np.subtract(y, ry, out=ry)
    np.take(mean_d, cell, out=rd, mode="clip")
    np.subtract(d, rd, out=rd)
    ss_yd = np.bincount(cell, weights=np.multiply(ry, rd, out=prod), minlength=ncells)
    ss_y = np.bincount(cell, weights=np.multiply(ry, ry, out=ry), minlength=ncells)
    ss_d = np.bincount(cell, weights=np.multiply(rd, rd, out=rd), minlength=ncells)
    dof = counts - 1.0
    with np.errstate(invalid="ignore", divide="ignore"):
        s2_y = np.where(dof >= 1, ss_y / dof, np.nan)
        s2_d = np.where(dof >= 1, ss_d / dof, np.nan)
        s_yd = np.where(dof >= 1, ss_yd / dof, np.nan)

    def arms(a: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        a = a.reshape(r, g, 2)
        return a[..., 1], a[..., 0]

    (n1, n0), (ybar1, ybar0), (dbar1, dbar0) = arms(counts), arms(mean_y), arms(mean_d)
    (s2_y1, s2_y0), (s2_d1, s2_d0), (s_yd1, s_yd0) = arms(s2_y), arms(s2_d), arms(s_yd)
    return StratumMoments(
        n_g=(n0 + n1).astype(np.intp),
        n_g1=n1.astype(np.intp),
        n_g0=n0.astype(np.intp),
        ybar1=ybar1,
        ybar0=ybar0,
        dbar1=dbar1,
        dbar0=dbar0,
        s2_y1=s2_y1,
        s2_y0=s2_y0,
        s2_d1=s2_d1,
        s2_d0=s2_d0,
        s_yd1=s_yd1,
        s_yd0=s_yd0,
    )


def stratum_moments(sample: ObservedSample) -> StratumMoments:
    """All per-stratum, per-arm moments of one sample: block_moments' (R, G)
    pass with R = 1, without its pooled one, fields indexed by dense
    stratum code."""
    z, d, y, strata = (a[None] for a in (sample.z, sample.d, sample.y, sample.strata))
    return next(_moment_passes(z, d, y, strata, sample.num_strata, None)).map(lambda a: a[0])


# units per block of samples: amortizes numpy call overhead over many
# samples while bounding a block's working set. The simulation's kept
# buffers take 66 bytes a unit: 2.16 MB here, about one core's 2 MB L2.
# On a 2-vCPU host (in-process medians of 25 calls, two rounds), the
# benchmark's n=2000 call took 26-28 ms at 1 << 14 and 24-25 ms at both
# 1 << 15 and 1 << 16; its n=500 call took 13.5-14.6 ms at 1 << 14 and
# 11.1-11.7 ms at both others. 1 << 16 held 2.4 MB more resident memory.
BLOCK_UNITS = 1 << 15


@dataclass(frozen=True)
class ComplierSummary:
    """R samples' true compliers, each row reduced on its own: per arm the
    count, mean and ddof-1 variance of observed y (nan with too few), the
    (R, G) mask of the strata that hold one, and, where the effects were
    given, the truth: the mean of their y1 - y0 (nan without compliers)."""

    n1: np.ndarray
    ybar1: np.ndarray
    s2_y1: np.ndarray
    n0: np.ndarray
    ybar0: np.ndarray
    s2_y0: np.ndarray
    strata: np.ndarray
    truth: np.ndarray | None = None


def complier_summary(at, z, y, strata, num_strata: int, effect=None) -> ComplierSummary:
    """The ComplierSummary at G = num_strata of (R, n) arrays z, y and
    dense stratum codes whose true compliers sit at the increasing flat
    positions `at`; effect, if given, holds their y1 - y0 in `at` order.
    MaskedRows reduces each row alone, whatever rows it is reduced with."""
    r, n = z.shape
    treated = z.take(at) == 1  # z is 0 or 1
    arms = []
    for arm in (treated, ~treated):
        rows = MaskedRows(at[arm], (r, n))
        arms += (rows.counts, *rows.mean_var(rows.take(y)))
    has = np.zeros((r, num_strata), dtype=bool)
    has[at // n, strata.take(at)] = True
    truth = None
    if effect is not None:
        rows = MaskedRows(at, (r, n))
        truth = rows.mean(effect[rows.entry_order])
    return ComplierSummary(*arms, has, truth)


@dataclass(frozen=True, eq=False)
class ObservedBlock:
    """R observed samples of n units each, as every estimator reads them.

    moments holds their (R, G) per-stratum, per-arm moments and pooled the
    (R, 1) ones with every unit in one stratum. Each row has dense stratum
    codes; G may exceed a row's count, and `present` masks out the codes
    it lacks, the ones without units. compliers, known only from a science
    table, is their ComplierSummary at the same G; only the ORACLE kernel
    reads it. No field is per unit. of_units builds a block from unit
    arrays, and `of` from one ObservedSample (R = 1). Equality is identity.
    """

    moments: StratumMoments
    pooled: StratumMoments
    n: int
    compliers: ComplierSummary | None = None

    @property
    def present(self) -> np.ndarray:
        """The (R, G) mask of the stratum codes each row has."""
        return self.moments.n_g > 0

    @classmethod
    def of_units(cls, z, d, y, strata, compliers=None) -> "ObservedBlock":
        """The block of (R, n) unit arrays, one sample per row with dense
        stratum codes, its moments at G = strata.max() + 1 (0 without
        units); compliers, the (R, n) mask of true compliers, gives the
        complier summary."""
        g = int(strata.max(initial=-1)) + 1
        moments, pooled = block_moments(z, d, y, strata, g)
        summary = None
        if compliers is not None:
            summary = complier_summary(np.flatnonzero(compliers), z, y, strata, g)
        return cls(moments, pooled, z.shape[1], summary)

    @classmethod
    def of(cls, sample: ObservedSample, compliers=None) -> "ObservedBlock":
        return cls.of_units(sample.z[None], sample.d[None], sample.y[None], sample.strata[None],
                            None if compliers is None else compliers[None])


@dataclass(frozen=True)
class EstimateReport:
    """One estimator's result row.

    se_bloom and se_delta are None when the method does not define them or
    the sample is too small to compute them. For TSLS_DUMMY the se_bloom slot
    carries the conventional homoskedastic 2SLS standard error, and for
    ORACLE the Neyman SE of the complier difference in means; each is that
    method's single nominal SE.
    """

    method: str
    estimate: float
    f_hat: float
    n_used: int
    strata_kept: frozenset
    se_bloom: float | None = None
    se_delta: float | None = None
