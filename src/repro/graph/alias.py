"""Walker's alias method for O(1) discrete sampling.

The paper uses the alias method for constant-time negative sampling
over hundreds of millions of nodes (§V-A, citing Walker 1977).  The
table is built once in O(n) and each draw costs one uniform and one
comparison.

Construction here is array-native: :func:`build_alias_tables` builds
the tables for *many* distributions in one pass — one per CSR row —
pairing deficit ("small") entries with surplus ("large") entries
through per-row prefix sums instead of the classic python stack loop.
:class:`CSRAliasTables` wraps the per-row tables of one ``(src type,
edge type, dst type)`` adjacency and serves batched weighted neighbour
draws for the meta-path walkers.
"""

from __future__ import annotations

from typing import Optional, Tuple

import numpy as np

#: entries whose scaled mass is within this tolerance of 1 are treated
#: as exactly resolved (mirrors the sequential algorithm's final sweep)
_ONE_TOL = 1e-9


def _segment_cumsum(values: np.ndarray, segments: np.ndarray) -> np.ndarray:
    """Inclusive cumulative sum restarting at each segment boundary.

    ``segments`` must be sorted ascending (values grouped by segment).
    """
    running = np.cumsum(values)
    first = np.ones(segments.size, dtype=bool)
    first[1:] = segments[1:] != segments[:-1]
    starts = np.flatnonzero(first)
    seg_lens = np.diff(np.append(starts, segments.size))
    base = np.repeat(running[starts] - values[starts], seg_lens)
    return running - base


def _sequential_rows(prob: np.ndarray, alias: np.ndarray, rem: np.ndarray,
                     pending: np.ndarray, row_of: np.ndarray,
                     local: np.ndarray) -> None:
    """Classic two-stack cleanup for rows the vectorised rounds left over.

    Only reachable on pathological weight chains (each round otherwise
    resolves every current deficit entry); kept as an exactness net.
    """
    left = np.flatnonzero(pending)
    if left.size == 0:
        return
    boundaries = np.flatnonzero(np.diff(row_of[left])) + 1
    for group in np.split(left, boundaries):
        small = [i for i in group if rem[i] < 1.0]
        large = [i for i in group if rem[i] >= 1.0]
        while small and large:
            s = small.pop()
            l = large.pop()
            prob[s] = rem[s]
            alias[s] = local[l]
            rem[l] -= 1.0 - rem[s]
            if rem[l] < 1.0:
                small.append(l)
            else:
                large.append(l)
        for i in small + large:
            prob[i] = 1.0
    pending[left] = False


def build_alias_tables(weights, indptr=None,
                       max_rounds: int = 64) -> Tuple[np.ndarray, np.ndarray]:
    """Vectorised alias-table construction, one table per CSR row.

    Parameters
    ----------
    weights:
        Flat non-negative weights, finite, concatenated row by row.
    indptr:
        CSR row pointer (``weights[indptr[i]:indptr[i+1]]`` is row
        ``i``); ``None`` treats the whole array as a single row.  Empty
        rows are allowed and produce no table entries.
    max_rounds:
        Safety cap on pairing rounds before the sequential fallback
        finishes any leftovers (never reached on realistic weights).

    Returns ``(prob, alias)`` aligned with ``weights``; ``alias`` holds
    *row-local* column indices so multi-row draws compose with the
    row's ``indptr`` offset.

    Each round classifies every still-open entry as deficit (scaled
    mass < 1) or surplus (> 1), lays the deficits and surpluses of each
    row on a common mass axis via prefix sums, and assigns every
    deficit entry to the surplus entry whose span contains its starting
    offset — all deficits finalise per round, so total work stays
    O(n log n) across rounds (the log from one merge sort per round).
    """
    weights = np.asarray(weights, dtype=np.float64)
    if weights.ndim != 1:
        raise ValueError("weights must be a 1-D array")
    if not np.all(np.isfinite(weights)):
        raise ValueError("weights must be finite (no NaN/inf)")
    if np.any(weights < 0):
        raise ValueError("weights must be non-negative")
    if indptr is None:
        indptr = np.array([0, weights.size], dtype=np.int64)
    else:
        indptr = np.asarray(indptr, dtype=np.int64)
    nnz = weights.size
    lens = np.diff(indptr)
    num_rows = lens.size
    if nnz == 0:
        return np.empty(0, dtype=np.float64), np.empty(0, dtype=np.int64)

    row_of = np.repeat(np.arange(num_rows), lens)
    running = np.concatenate([[0.0], np.cumsum(weights)])
    sums = running[indptr[1:]] - running[indptr[:-1]]
    if np.any((sums <= 0) & (lens > 0)):
        raise ValueError("rows with edges must have positive total weight")

    row_sums, row_lens = sums[row_of], lens[row_of]
    with np.errstate(over="ignore", invalid="ignore"):
        rem = weights * (row_lens / row_sums)
    # a denormal row sum overflows that scale to inf; those entries take
    # the quotient-first form (each quotient <= 1), every other row keeps
    # the bits — and so the seeded draws — it always had
    overflowed = ~np.isfinite(rem)
    if overflowed.any():
        rem[overflowed] = ((weights[overflowed] / row_sums[overflowed])
                           * row_lens[overflowed])
    prob = np.ones(nnz, dtype=np.float64)
    local = np.arange(nnz, dtype=np.int64) - np.repeat(indptr[:-1], lens)
    alias = local.copy()
    pending = np.ones(nnz, dtype=bool)

    for _round in range(max_rounds):
        open_idx = np.flatnonzero(pending)
        if open_idx.size == 0:
            break
        mass = rem[open_idx]
        near_one = np.abs(mass - 1.0) <= _ONE_TOL
        if near_one.any():
            pending[open_idx[near_one]] = False    # prob 1, alias self
            open_idx = open_idx[~near_one]
            mass = mass[~near_one]
        if open_idx.size == 0:
            break
        deficit_side = mass < 1.0
        sm = open_idx[deficit_side]
        lg = open_idx[~deficit_side]
        n_sm = np.bincount(row_of[sm], minlength=num_rows)
        n_lg = np.bincount(row_of[lg], minlength=num_rows)
        # rows where one side ran out: mass conservation says whatever
        # remains is ~1, so finalise it
        lone_sm = sm[n_lg[row_of[sm]] == 0]
        if lone_sm.size:
            prob[lone_sm] = np.clip(rem[lone_sm], 0.0, 1.0)
            pending[lone_sm] = False
        lone_lg = lg[n_sm[row_of[lg]] == 0]
        if lone_lg.size:
            pending[lone_lg] = False
        sm = sm[n_lg[row_of[sm]] > 0]
        lg = lg[n_sm[row_of[lg]] > 0]
        if sm.size == 0:
            continue

        sm_rows = row_of[sm]
        lg_rows = row_of[lg]
        deficits = 1.0 - rem[sm]
        surpluses = rem[lg] - 1.0
        deficit_end = _segment_cumsum(deficits, sm_rows)
        deficit_start = deficit_end - deficits
        surplus_end = _segment_cumsum(surpluses, lg_rows)

        # rank each deficit's start among its row's surplus span ends; a
        # deficit starting exactly where a surplus ends goes to the NEXT
        # surplus entry (the tied one has no span left to donate)
        merged_vals = np.concatenate([deficit_start, surplus_end])
        merged_rows = np.concatenate([sm_rows, lg_rows])
        merged_small = np.concatenate([np.ones(sm.size, dtype=np.int8),
                                       np.zeros(lg.size, dtype=np.int8)])
        order = np.lexsort((merged_small, merged_vals, merged_rows))
        surplus_rank = np.empty(order.size, dtype=np.int64)
        surplus_rank[order] = np.cumsum(1 - merged_small[order])
        n_lg_round = np.bincount(lg_rows, minlength=num_rows)
        lg_before_row = np.cumsum(n_lg_round) - n_lg_round
        k_in_row = surplus_rank[:sm.size] - lg_before_row[sm_rows]
        k_in_row = np.clip(k_in_row, 0, n_lg_round[sm_rows] - 1)
        assigned_pos = lg_before_row[sm_rows] + k_in_row
        assigned = lg[assigned_pos]

        prob[sm] = rem[sm]
        alias[sm] = local[assigned]
        pending[sm] = False
        absorbed = np.bincount(assigned_pos, weights=deficits,
                               minlength=lg.size)
        rem[lg] -= absorbed

    _sequential_rows(prob, alias, rem, pending, row_of, local)
    np.clip(prob, 0.0, 1.0, out=prob)
    return prob, alias


class AliasSampler:
    """Constant-time sampler over a discrete distribution.

    Parameters
    ----------
    weights:
        Non-negative, finite, not-all-zero weights; normalised
        internally.
    """

    def __init__(self, weights):
        weights = np.asarray(weights, dtype=np.float64)
        if weights.ndim != 1 or weights.size == 0:
            raise ValueError("weights must be a non-empty 1-D array")
        if not np.all(np.isfinite(weights)):
            raise ValueError("weights must be finite (no NaN/inf)")
        if np.any(weights < 0):
            raise ValueError("weights must be non-negative")
        if weights.sum() <= 0:
            raise ValueError("weights must not all be zero")
        self.n = weights.size
        self.prob, self.alias = build_alias_tables(weights)

    def sample(self, rng: np.random.Generator, size=None):
        """Draw indices; scalar when ``size`` is None, else an array."""
        if size is None:
            column = int(rng.integers(self.n))
            if rng.random() < self.prob[column]:
                return column
            return int(self.alias[column])
        columns = rng.integers(self.n, size=size)
        coins = rng.random(size=size)
        take_alias = coins >= self.prob[columns]
        result = np.where(take_alias, self.alias[columns], columns)
        return result


class CSRAliasTables:
    """One alias table per CSR row, built in a single vectorised pass.

    The batched walker's step primitive: ``draw`` picks one weighted
    neighbour per source row with two uniforms and two gathers, so a
    whole level of walks advances without touching python loops.
    """

    __slots__ = ("indptr", "indices", "lens", "prob", "alias")

    def __init__(self, indptr, indices, weights):
        self.indptr = np.asarray(indptr, dtype=np.int64)
        self.indices = np.asarray(indices, dtype=np.int64)
        self.lens = np.diff(self.indptr)
        self.prob, self.alias = build_alias_tables(weights, self.indptr)

    @property
    def num_rows(self) -> int:
        return int(self.lens.size)

    def draw(self, rng: np.random.Generator, rows) -> np.ndarray:
        """One weighted neighbour id per row; ``-1`` where a row is empty."""
        rows = np.asarray(rows, dtype=np.int64)
        lens = self.lens[rows]
        out = np.full(rows.shape, -1, dtype=np.int64)
        live = np.flatnonzero(lens > 0)
        if live.size == 0:
            return out
        base = self.indptr[rows[live]]
        span = lens[live]
        column = np.minimum((rng.random(live.size) * span).astype(np.int64),
                            span - 1)
        slot = base + column
        take_alias = rng.random(live.size) >= self.prob[slot]
        column = np.where(take_alias, self.alias[slot], column)
        out[live] = self.indices[base + column]
        return out
