"""Absorbing Markov chain analytics for route discovery.

Route discovery is modeled as a walk over subcell states that ends either
at a destination (base station or access point) or in the dedicated
``NO_ROUTE`` state once no relay can be found.  With the transition matrix
in canonical form

    P = [[I, 0],
         [R, Q]]

the fundamental matrix (I - Q)^-1 yields mean absorption times, their
variances and the absorption probabilities.  All linear algebra goes
through one dense LU factorization; the matrix is never inverted
explicitly.  Whether absorption is reachable from every transient state is
decided exactly, by a reverse breadth-first search over the positive
transitions, before any solve.

A seeded Monte Carlo walk simulator doubles as an independent oracle for
the analytic results.  It samples each step by inverse transform over the
nonzeros of the current row, through a guide table (Chen & Asau, 1974):
each row's unit interval is cut into equal buckets, and a bucket whose
draws all land on one target stores it, so most steps cost one lookup and
the rest O(row degree).  Since the column a draw picks never decreases as
the draw grows, and the bucket edges are exact binary fractions, the table
picks the same column as a count over the row for every draw.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Hashable, Mapping, Sequence

import numpy as np
from scipy.linalg import lu_factor, lu_solve

NO_ROUTE = "nr"

_ROW_SUM_TOL = 1e-9


class ChainError(ValueError):
    """Malformed chain: bad rows, unknown states or unreachable absorption."""


@dataclass(frozen=True)
class AbsorbingChain:
    """Row-stochastic chain over transient states followed by absorbing states.

    ``matrix`` is ordered with the transient states first (in ``transient``
    order) and the absorbing states last; ``dwell`` holds the per-visit slot
    cost of each transient state.  The first solve or walk checks the matrix
    with ``canonical_form`` and keeps its (Q, R) blocks for the later ones,
    so the matrix must not change after that.
    """

    transient: tuple[Hashable, ...]
    absorbing: tuple[Hashable, ...]
    matrix: np.ndarray
    dwell: np.ndarray
    _blocks: tuple[np.ndarray, np.ndarray] | None = field(
        default=None, init=False, repr=False, compare=False
    )

    def __post_init__(self):
        n, a = len(self.transient), len(self.absorbing)
        if self.matrix.shape != (n + a, n + a):
            raise ChainError(
                f"matrix shape {self.matrix.shape} does not match {n} transient + {a} absorbing states"
            )
        if self.dwell.shape != (n,):
            raise ChainError("dwell vector must have one entry per transient state")
        if np.any(self.dwell <= 0):
            raise ChainError("dwell times must be positive")

    def transient_index(self, label: Hashable) -> int:
        try:
            return self.transient.index(label)
        except ValueError:
            raise ChainError(f"unknown transient state {label!r}") from None


def build_chain(
    rows: Mapping[Hashable, Sequence[tuple[Hashable, float]]],
    absorbing: Sequence[Hashable],
    dwell: Mapping[Hashable, float] | float = 1.0,
) -> AbsorbingChain:
    """Assemble an AbsorbingChain from per-state target/probability rows.

    ``rows`` maps each transient state to its outgoing (target, probability)
    pairs; targets may be transient or absorbing.  ``dwell`` is a uniform
    slot cost or a per-state mapping.
    """
    transient = tuple(rows)
    absorbing = tuple(absorbing)
    if set(transient) & set(absorbing):
        raise ChainError("a state cannot be both transient and absorbing")
    index = {s: k for k, s in enumerate(transient)}
    for k, s in enumerate(absorbing):
        index[s] = len(transient) + k
    n = len(transient) + len(absorbing)
    # (row, column, probability) triplets in row order; an entry fault stops
    # the collection, but a bad sum in an earlier row is reported first
    r, c, v = [], [], []
    fault = None
    for k, (state, targets) in enumerate(rows.items()):
        for target, prob in targets:
            if target not in index:
                fault = k, f"row for {state!r} targets unknown state {target!r}"
                break
            if prob < -_ROW_SUM_TOL:
                fault = k, f"negative probability {prob!r} in row for {state!r}"
                break
            r.append(k)
            c.append(index[target])
            v.append(prob)
        if fault is not None:
            break
    matrix = np.zeros((n, n))
    # unbuffered, in triplet order: duplicate targets accumulate as they are listed
    np.add.at(matrix, (np.array(r, dtype=np.intp), np.array(c, dtype=np.intp)), np.array(v, float))
    totals = matrix[: len(transient)].sum(axis=1)
    checked = len(transient) if fault is None else fault[0]
    bad = np.flatnonzero(np.abs(totals[:checked] - 1.0) > _ROW_SUM_TOL)
    if bad.size:
        k = bad[0]
        raise ChainError(f"row for {transient[k]!r} sums to {totals[k]!r}, expected 1")
    if fault is not None:
        raise ChainError(fault[1])
    matrix[: len(transient)] /= totals[:, None]
    for k in range(len(transient), n):
        matrix[k, k] = 1.0
    if isinstance(dwell, Mapping):
        dwell_vec = np.array([dwell[s] for s in transient], dtype=float)
    else:
        dwell_vec = np.full(len(transient), float(dwell))
    return AbsorbingChain(transient=transient, absorbing=absorbing, matrix=matrix, dwell=dwell_vec)


def canonical_form(chain: AbsorbingChain) -> tuple[np.ndarray, np.ndarray]:
    """Extract (Q, R): transient-to-transient and transient-to-absorbing blocks.

    Validates row stochasticity and that absorption is reachable from every
    transient state along transitions of positive probability.  The check
    is exact: a reverse breadth-first search from the absorbing states over
    the nonzero entries, with no tolerance.
    """
    n = len(chain.transient)
    sums = chain.matrix.sum(axis=1)
    bad = np.where(np.abs(sums - 1.0) > _ROW_SUM_TOL)[0]
    if bad.size:
        raise ChainError(f"row {bad[0]} sums to {sums[bad[0]]!r}, expected 1")
    if np.any(chain.matrix < -_ROW_SUM_TOL):
        raise ChainError("transition probabilities cannot be negative")
    trapped = _first_trapped(chain.matrix, n)
    if trapped is not None:
        raise ChainError(f"absorption unreachable from state {chain.transient[trapped]!r}")
    return chain.matrix[:n, :n], chain.matrix[:n, n:]


def _checked_blocks(chain: AbsorbingChain) -> tuple[np.ndarray, np.ndarray]:
    """canonical_form of the chain, run once per chain; later calls reuse its (Q, R)."""
    if chain._blocks is None:
        object.__setattr__(chain, "_blocks", canonical_form(chain))
    return chain._blocks


def _first_trapped(matrix: np.ndarray, n: int) -> int | None:
    """First transient index with no positive path to an absorbing state."""
    rows, cols = np.nonzero(matrix[:n] > 0)
    order = np.argsort(cols, kind="stable")
    sources = rows[order].tolist()
    start = np.searchsorted(cols[order], np.arange(matrix.shape[0] + 1)).tolist()
    reached = [False] * n + [True] * (matrix.shape[0] - n)
    frontier = list(range(n, matrix.shape[0]))
    while frontier:
        j = frontier.pop()
        for i in sources[start[j] : start[j + 1]]:
            if not reached[i]:
                reached[i] = True
                frontier.append(i)
    return next((i for i in range(n) if not reached[i]), None)


@dataclass(frozen=True)
class ChainStatistics:
    """Absorption statistics, analytic or empirical.

    tau/var_tau are per transient state; absorb_probs has one column per
    absorbing state.  tau_mean and absorb_dist aggregate over the initial
    distribution (or over all walks when empirical), and counts holds the
    per-state walk counts for empirical results.
    """

    tau: np.ndarray
    var_tau: np.ndarray
    absorb_probs: np.ndarray
    tau_mean: float
    absorb_dist: np.ndarray
    counts: np.ndarray | None = None


def _initial_distribution(chain: AbsorbingChain, start: np.ndarray | None) -> np.ndarray:
    n = len(chain.transient)
    if start is None:
        return np.full(n, 1.0 / n)
    f = np.asarray(start, dtype=float)
    if f.shape != (n,) or np.any(f < 0) or not np.isclose(f.sum(), 1.0, atol=_ROW_SUM_TOL):
        raise ChainError("initial distribution must be a probability vector over transient states")
    return f


def absorption_statistics(chain: AbsorbingChain, start: np.ndarray | None = None) -> ChainStatistics:
    """Mean/variance of time to absorption and absorption probabilities.

    Solves (I - Q) x = b by LU factorization for the dwell vector, its
    square and the R block; the variance follows the second-moment identity
    for per-state dwell costs.  Variances within roundoff below zero read
    0; a more negative one raises ChainError naming its state.
    """
    Q, R = _checked_blocks(chain)
    n = len(chain.transient)
    eye = np.eye(n)
    lu = lu_factor(eye - Q)
    e = chain.dwell
    tau = lu_solve(lu, e)
    # var = 2 (I-Q)^-1 T Q tau + (I-Q)^-1 e^2 - tau^2, with T = diag(dwell)
    var = 2.0 * lu_solve(lu, e * (Q @ tau)) + lu_solve(lu, e * e) - tau * tau
    # roundoff may leave a zero variance slightly negative; more is an error
    negative = np.flatnonzero(var < -_ROW_SUM_TOL * np.maximum(1.0, tau * tau))
    if negative.size:
        k = negative[0]
        raise ChainError(
            f"variance {var[k]!r} of state {chain.transient[k]!r} is negative beyond roundoff"
        )
    var = np.maximum(var, 0.0)
    absorb = lu_solve(lu, R)
    f = _initial_distribution(chain, start)
    return ChainStatistics(
        tau=tau,
        var_tau=var,
        absorb_probs=absorb,
        tau_mean=float(f @ tau),
        absorb_dist=f @ absorb,
    )


_CHUNK = 200_000
_BUCKETS = 64


def _sampling_rows(rows: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Padded per-row (target column, cumulative probability) arrays.

    Entries are the nonzeros before the last column, in column order, then
    the last column at cumulative 1.0; padding repeats that closing entry.
    """
    last = rows.shape[1] - 1
    r, c = np.nonzero(rows[:, :last])
    degree = np.bincount(r, minlength=rows.shape[0])
    slot = np.arange(r.size) - np.repeat(np.cumsum(degree) - degree, degree)
    width = int(degree.max(initial=0)) + 1
    target = np.full((rows.shape[0], width), last)
    target[r, slot] = c
    values = np.zeros((rows.shape[0], width))
    values[r, slot] = rows[r, c]
    cum = np.cumsum(values, axis=1)
    cum[np.arange(width) >= degree[:, None]] = 1.0
    return target, cum


def _guide_table(target: np.ndarray, cum: np.ndarray) -> np.ndarray:
    """Flat (row, bucket) table of the target every draw in the bucket picks.

    Bucket ``b`` holds the draws u in [b/B, (b+1)/B).  Where count(cum < u)
    is the same at both edges it is the same for every draw between them;
    elsewhere the table holds -1.
    """
    edges = np.arange(_BUCKETS + 1) / _BUCKETS
    below = np.zeros((cum.shape[0], _BUCKETS + 1), dtype=np.intp)
    for column in cum.T:
        below += column[:, None] < edges
    lo, hi = below[:, :-1], below[:, 1:]
    guide = np.take_along_axis(target, lo, axis=1)
    guide[lo != hi] = -1
    return guide.ravel()


def simulate_walks(
    chain: AbsorbingChain,
    n_walks: int,
    seed: int,
    start: np.ndarray | None = None,
) -> ChainStatistics:
    """Monte Carlo oracle: simulate ``n_walks`` absorption walks.

    Walks start from the ``start`` distribution (uniform by default), are
    partitioned into fixed-size chunks with seeds derived from ``seed`` and
    merged deterministically, so results are reproducible for a given seed
    regardless of chunking.

    Each row is sampled from padded (target, cumulative probability) arrays
    built from its nonzeros in column order.  The last column always closes
    the row at exactly 1.0, as a nonzero or as an appended entry, so a step
    with uniform draw ``u`` goes to column count(cum < u): the column a
    cumulative sum over the full row would pick, since zeros leave that sum
    unchanged.

    A guide table (Chen & Asau) splits [0, 1) into ``_BUCKETS`` equal
    buckets per row and stores the column of each bucket whose edges give
    the same count; a step reads it at ``floor(u * B)``, and only draws in
    the other buckets count the row.  With B a power of two, ``u * B`` and
    the edges ``b / B`` are exact, so the table picks what the count picks
    for every draw.  Only live walks are carried from step to step, each
    chunk draws one uniform per live walk and step in walk order, and each
    walk adds its dwell times in visiting order.
    """
    if n_walks < 1:
        raise ChainError(f"need at least one walk, got {n_walks}")
    _checked_blocks(chain)
    n, a = len(chain.transient), len(chain.absorbing)
    f = _initial_distribution(chain, start)
    target, cum = _sampling_rows(chain.matrix[:n])
    guide = _guide_table(target, cum)
    dwell = chain.dwell

    counts = np.zeros(n, dtype=np.int64)
    time_sum = np.zeros(n)
    time_sqsum = np.zeros(n)
    absorb_counts = np.zeros((n, a), dtype=np.int64)

    chunks = [_CHUNK] * (n_walks // _CHUNK)
    if n_walks % _CHUNK:
        chunks.append(n_walks % _CHUNK)
    seeds = np.random.SeedSequence(seed).spawn(len(chunks))
    for size, chunk_seed in zip(chunks, seeds):
        rng = np.random.Generator(np.random.PCG64(chunk_seed))
        origin = rng.choice(n, size=size, p=f)
        landed = np.empty(size, dtype=np.int64)
        total = np.empty(size)
        walk = np.arange(size)
        state = origin
        elapsed = dwell[origin]
        while walk.size:
            u = rng.random(walk.size)
            step = guide[state * _BUCKETS + (u * _BUCKETS).astype(np.intp)]
            miss = np.flatnonzero(step < 0)
            if miss.size:
                rows = state[miss]
                step[miss] = target[rows, (cum[rows] < u[miss, None]).sum(axis=1)]
            absorbed = step >= n
            if absorbed.any():
                # index lists, not masks: each mask index would scan the mask again
                gone, live = np.flatnonzero(absorbed), np.flatnonzero(~absorbed)
                done = walk[gone]
                landed[done] = step[gone] - n
                total[done] = elapsed[gone]
                walk, step, elapsed = walk[live], step[live], elapsed[live]
            state = step
            elapsed += dwell[state]
        np.add.at(counts, origin, 1)
        np.add.at(time_sum, origin, total)
        np.add.at(time_sqsum, origin, total * total)
        np.add.at(absorb_counts, (origin, landed), 1)

    visited = counts > 0
    tau = np.full(n, np.nan)
    var = np.full(n, np.nan)
    tau[visited] = time_sum[visited] / counts[visited]
    twice = counts > 1
    var[twice] = (time_sqsum[twice] - counts[twice] * tau[twice] ** 2) / (counts[twice] - 1)
    probs = np.full((n, a), np.nan)
    probs[visited] = absorb_counts[visited] / counts[visited, None]
    return ChainStatistics(
        tau=tau,
        var_tau=var,
        absorb_probs=probs,
        tau_mean=float(time_sum.sum() / n_walks),
        absorb_dist=absorb_counts.sum(axis=0) / n_walks,
        counts=counts,
    )
