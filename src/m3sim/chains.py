"""Absorbing Markov chain analytics for route discovery.

Route discovery is modeled as a walk over subcell states that ends either
at a destination (base station or access point) or in the dedicated
``NO_ROUTE`` state once no relay can be found.  With the transition matrix
in canonical form

    P = [[I, 0],
         [R, Q]]

the fundamental matrix (I - Q)^-1 yields mean absorption times, their
variances and the absorption probabilities.  A chain stores only its
transient rows, in compressed sparse row (CSR) form; the absorbing rows
are the implicit identity.  Build, check, solve and walk all read those
rows, so no step allocates an array of (transient + absorbing)^2 entries.
A chain is checked once, when it is built: one that exists is row
stochastic, and absorption is reachable from each of its transient states.

The solve orders the transient states by reverse Cuthill–McKee (Cuthill &
McKee, 1969) over the symmetric pattern of Q, which gathers the nonzeros of
I - Q into a narrow band, and factorizes that band once with LAPACK's
banded LU (``dgbtrf``); the matrix is never inverted explicitly.  Whether
absorption is reachable from every transient state is decided exactly, by
a reverse breadth-first search over the positive transitions.

A seeded Monte Carlo walk simulator doubles as an independent oracle for
the analytic results.  It samples each start and each step by inverse
transform, through a guide table (Chen & Asau, 1974): the unit interval of
the start distribution, and of each row's nonzeros, is cut into equal
buckets, and a bucket whose draws all land on one state stores it, so most
draws cost one lookup and the rest a search of the cumulative sums.  Since
the state a draw picks never decreases as the draw grows, and the bucket
edges are exact binary fractions, the table picks the same state as that
search for every draw; the starts are the ones ``Generator.choice`` draws.
"""

from __future__ import annotations

import importlib.machinery
import importlib.util
import math
import os
import sys
from dataclasses import dataclass, field
from typing import Hashable, Mapping, Sequence

import numpy as np

NO_ROUTE = "nr"

_ROW_SUM_TOL = 1e-9


class ChainError(ValueError):
    """Malformed chain: bad rows, unknown states or unreachable absorption."""


@dataclass(frozen=True)
class AbsorbingChain:
    """Row-stochastic chain over transient states followed by absorbing states.

    States are numbered with the transient states first (in ``transient``
    order) and the absorbing states after them.  Transient row ``i`` holds
    the columns ``indices[indptr[i]:indptr[i + 1]]``, strictly increasing,
    with the probabilities ``probs`` at the same positions; every absorbing
    row is the implicit identity.  ``dwell`` holds the per-visit slot cost of
    each transient state.  The chain is checked when it is built: its
    structure here, then its rows by ``canonical_form``.
    """

    transient: tuple[Hashable, ...]
    absorbing: tuple[Hashable, ...]
    indptr: np.ndarray
    indices: np.ndarray
    probs: np.ndarray
    dwell: np.ndarray
    _index: dict[Hashable, int] = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        n, size = len(self.transient), len(self.transient) + len(self.absorbing)
        nnz = self.indices.shape[0]
        if self.indptr.shape != (n + 1,) or self.indptr[0] != 0 or self.indptr[-1] != nnz:
            raise ChainError(f"indptr must run from 0 to {nnz} over {n} transient rows")
        if self.indices.shape != (nnz,) or self.probs.shape != (nnz,):
            raise ChainError("indices and probs must be vectors of equal length")
        counts = np.diff(self.indptr)
        if counts.min(initial=0) < 0:
            raise ChainError("indptr must not decrease")
        if nnz and (self.indices.min() < 0 or self.indices.max() >= size):
            raise ChainError(f"column indices must lie in [0, {size})")
        # (row, column) keys rise strictly exactly when each row's columns do
        if np.any(np.diff(np.repeat(np.arange(n), counts) * size + self.indices) <= 0):
            raise ChainError("column indices must strictly increase within each row")
        if self.dwell.shape != (n,):
            raise ChainError("dwell vector must have one entry per transient state")
        if np.any(self.dwell <= 0):
            raise ChainError("dwell times must be positive")
        index = {s: k for k, s in enumerate(self.transient)}
        if len(index) != n:
            raise ChainError("transient state labels must be distinct")
        object.__setattr__(self, "_index", index)
        canonical_form(self)

    def transient_index(self, label: Hashable) -> int:
        """Position of a transient state, looked up in a table built with the chain."""
        try:
            return self._index[label]
        except (KeyError, TypeError):
            raise ChainError(f"unknown transient state {label!r}") from None


def _row_ids(chain: AbsorbingChain) -> np.ndarray:
    """Transient row of every stored entry."""
    return np.repeat(np.arange(len(chain.transient)), np.diff(chain.indptr))


def build_chain(
    rows: Mapping[Hashable, Sequence[tuple[Hashable, float]]],
    absorbing: Sequence[Hashable],
    dwell: Mapping[Hashable, float] | float = 1.0,
) -> AbsorbingChain:
    """Assemble an AbsorbingChain from per-state target/probability rows.

    ``rows`` maps each transient state to its outgoing (target, probability)
    pairs; targets may be transient or absorbing.  ``dwell`` is a uniform
    slot cost or a per-state mapping.

    Duplicate targets of a row add up in the order they are listed.  Each
    row's total is then the sum of its entries taken one after another in
    column order, and every entry is divided by it.  Entries that end up
    exactly zero are not stored.
    """
    transient = tuple(rows)
    absorbing = tuple(absorbing)
    if set(transient) & set(absorbing):
        raise ChainError("a state cannot be both transient and absorbing")
    index = {s: k for k, s in enumerate(transient)}
    for k, s in enumerate(absorbing):
        index[s] = len(transient) + k
    n, size = len(transient), len(transient) + len(absorbing)
    # (row * size + column, probability) pairs in row order; an entry fault
    # stops the collection, but a bad sum in an earlier row is reported first
    keys, v = [], []
    fault = None
    for k, (state, targets) in enumerate(rows.items()):
        for target, prob in targets:
            if target not in index:
                fault = k, f"row for {state!r} targets unknown state {target!r}"
                break
            if not -_ROW_SUM_TOL <= prob < math.inf:
                kind = "negative" if math.isfinite(prob) else "non-finite"
                fault = k, f"{kind} probability {prob!r} in row for {state!r}"
                break
            keys.append(k * size + index[target])
            v.append(prob)
        if fault is not None:
            break
    indptr, indices, probs = _pack(
        transient, size, np.array(keys, dtype=np.intp), np.array(v, dtype=float), fault
    )
    if isinstance(dwell, Mapping):
        dwell_vec = np.array([dwell[s] for s in transient], dtype=float)
    else:
        dwell_vec = np.full(n, float(dwell))
    return AbsorbingChain(transient, absorbing, indptr, indices, probs, dwell_vec)


def _pack(
    transient: tuple[Hashable, ...],
    size: int,
    key: np.ndarray,
    value: np.ndarray,
    fault: tuple[int, str] | None = None,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """CSR (indptr, indices, probs) of listed entries, normalised as ``build_chain`` documents.

    ``key`` holds row * size + column and ``value`` the probability of each
    entry, in row order and within a row in listed order.  ``fault`` is the
    (row, message) of an entry fault that stopped the listing: a bad sum in
    an earlier row is reported first, then the fault.
    """
    n = len(transient)
    # one stable sort by (row, column) keeps duplicate targets in listed order
    order = np.argsort(key, kind="stable")
    key = key[order]
    head = np.ones(key.size, dtype=bool)
    head[1:] = key[1:] != key[:-1]
    # np.add.at is unbuffered and runs in index order: each duplicate, and
    # then each entry of a row, adds in turn
    data = np.zeros(int(head.sum()))
    np.add.at(data, np.cumsum(head) - 1, value[order])
    row, col = np.divmod(key[head], size)
    totals = np.zeros(n)
    np.add.at(totals, row, data)
    checked = n if fault is None else fault[0]
    bad = np.flatnonzero(np.abs(totals[:checked] - 1.0) > _ROW_SUM_TOL)
    if bad.size:
        k = bad[0]
        raise ChainError(f"row for {transient[k]!r} sums to {float(totals[k])!r}, expected 1")
    if fault is not None:
        raise ChainError(fault[1])
    probs = data / totals[row]
    kept = probs != 0.0
    indptr = np.zeros(n + 1, dtype=np.intp)
    np.cumsum(np.bincount(row[kept], minlength=n), out=indptr[1:])
    return indptr, col[kept], probs[kept]


def canonical_form(chain: AbsorbingChain) -> None:
    """Check that the chain is in canonical form with reachable absorption.

    Validates row stochasticity, that no probability is negative beyond
    roundoff, and that absorption is reachable from every transient state
    along transitions of positive probability.  The reachability check is
    exact: a reverse breadth-first search from the absorbing states over
    the stored positive entries, with no tolerance.
    """
    n = len(chain.transient)
    row = _row_ids(chain)
    sums = np.zeros(n)
    np.add.at(sums, row, chain.probs)
    bad = np.flatnonzero(np.abs(sums - 1.0) > _ROW_SUM_TOL)
    if bad.size:
        raise ChainError(f"row {bad[0]} sums to {float(sums[bad[0]])!r}, expected 1")
    if np.any(chain.probs < -_ROW_SUM_TOL):
        raise ChainError("transition probabilities cannot be negative")
    positive = chain.probs > 0
    trapped = _first_trapped(row[positive], chain.indices[positive], n, n + len(chain.absorbing))
    if trapped is not None:
        raise ChainError(f"absorption unreachable from state {chain.transient[trapped]!r}")


def _first_trapped(rows: np.ndarray, cols: np.ndarray, n: int, size: int) -> int | None:
    """First transient index with no path along (row -> col) edges to an absorbing state."""
    order = np.argsort(cols, kind="stable")
    sources = rows[order]
    start = np.searchsorted(cols[order], np.arange(size + 1))
    reached = np.zeros(size, dtype=bool)
    reached[n:] = True
    frontier = np.arange(n, size)
    while frontier.size:
        # the sources of every edge into the frontier, then the unreached ones
        lo = start[frontier]
        count = start[frontier + 1] - lo
        at = np.arange(int(count.sum())) + np.repeat(lo - np.cumsum(count) + count, count)
        fresh = np.zeros(size, dtype=bool)
        fresh[sources[at]] = True
        fresh &= ~reached
        reached |= fresh
        frontier = np.flatnonzero(fresh)
    trapped = np.flatnonzero(~reached[:n])
    return int(trapped[0]) if trapped.size else None


def _reverse_cuthill_mckee(rows: np.ndarray, cols: np.ndarray, n: int) -> np.ndarray:
    """Reverse Cuthill–McKee order of n nodes over the symmetric pattern of the edges.

    Components are numbered one after another, each from its unnumbered
    node of least degree (lowest index on ties), so nodes without a
    neighbour come first.  A breadth-first search numbers the unnumbered
    neighbours of each node, in the order the nodes were numbered, by
    increasing degree and then index.  The whole order is then reversed.
    """
    off = rows != cols
    pairs = np.sort(np.concatenate([rows[off] * n + cols[off], cols[off] * n + rows[off]]))
    pairs = pairs[np.diff(pairs, prepend=-1) != 0]
    head, tail = np.divmod(pairs, n)
    degree = np.bincount(head, minlength=n)
    tail = tail[np.lexsort((tail, degree[tail], head))]
    start = np.zeros(n + 1, dtype=np.intp)
    np.cumsum(degree, out=start[1:])
    start, neighbours = start.tolist(), tail.tolist()
    numbered = [False] * n
    order = []
    for seed in np.argsort(degree, kind="stable").tolist():
        if numbered[seed]:
            continue
        numbered[seed] = True
        k = len(order)
        order.append(seed)
        while k < len(order):
            v = order[k]
            k += 1
            for w in neighbours[start[v] : start[v + 1]]:
                if not numbered[w]:
                    numbered[w] = True
                    order.append(w)
    return np.array(order[::-1], dtype=np.intp)


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
    if f.shape != (n,) or np.any(f < 0) or not np.isclose(f.sum(), 1.0, rtol=0.0, atol=_ROW_SUM_TOL):
        raise ChainError("initial distribution must be a probability vector over transient states")
    return f


def _banded_lu():
    """LAPACK's banded LU factorization and solve, ``(dgbtrf, dgbtrs)``.

    Taken at the first solve from scipy's compiled extension
    ``scipy.linalg._flapack``, loaded on its own: importing it through
    ``scipy.linalg`` would first run that package's ``__init__``, which
    loads numpy.testing, numpy.f2py and numpy.ma among others and takes
    about 0.2 s, against a few milliseconds for the extension.  It is
    registered under its full name, so a later ``import scipy.linalg``
    reuses it and ``scipy.linalg.lapack`` exports these same functions.
    """
    name = "scipy.linalg._flapack"
    flapack = sys.modules.get(name)
    if flapack is None:
        # finding the top-level package does not import it
        scipy = importlib.util.find_spec("scipy")
        dirs = [os.path.join(d, "linalg") for d in (scipy and scipy.submodule_search_locations or ())]
        spec = importlib.machinery.PathFinder.find_spec(name, dirs) if dirs else None
        if spec is None:
            raise ImportError(f"cannot find {name}, which holds LAPACK's dgbtrf and dgbtrs", name=name)
        flapack = importlib.util.module_from_spec(spec)
        sys.modules[name] = flapack
        spec.loader.exec_module(flapack)
    return flapack.dgbtrf, flapack.dgbtrs


def absorption_statistics(chain: AbsorbingChain, start: np.ndarray | None = None) -> ChainStatistics:
    """Mean/variance of time to absorption and absorption probabilities.

    Solves (I - Q) x = b for the dwell vector, its square and the R block
    in one banded solve, and for the variance term e∘(Qτ) in a second; both
    reuse one banded LU factorization of I - Q in reverse Cuthill–McKee
    order.  The variance follows the second-moment identity for per-state
    dwell costs.  Variances within roundoff below zero read 0; a more
    negative one raises ChainError naming its state.
    """
    n, a = len(chain.transient), len(chain.absorbing)
    row, col, prob = _row_ids(chain), chain.indices, chain.probs
    inner = col < n
    qr, qc, qv = row[inner], col[inner], prob[inner]
    order = _reverse_cuthill_mckee(qr, qc, n)
    pos = np.empty(n, dtype=np.intp)
    pos[order] = np.arange(n)
    # I - Q in LAPACK band storage: entry (i, j) at [kl + ku + i - j, j], with
    # kl more rows on top for the fill of partial pivoting
    i, j = pos[qr], pos[qc]
    kl = int(np.max(i - j, initial=0))
    ku = int(np.max(j - i, initial=0))
    band = np.zeros((2 * kl + ku + 1, n), order="F")
    band[kl + ku] = 1.0
    band[kl + ku + i - j, j] -= qv
    dgbtrf, dgbtrs = _banded_lu()
    lu, piv, info = dgbtrf(band, kl, ku, overwrite_ab=1)
    if info > 0:
        # absorption is reachable, but only through probabilities that cancel
        raise ChainError(f"I - Q is singular at state {chain.transient[order[info - 1]]!r}")
    e = chain.dwell
    rhs = np.zeros((n, 2 + a), order="F")
    rhs[:, 0] = e[order]
    rhs[:, 1] = (e * e)[order]
    rhs[pos[row[~inner]], 2 + col[~inner] - n] = prob[~inner]
    x = dgbtrs(lu, kl, ku, rhs, piv)[0][pos]
    tau, second, absorb = x[:, 0], x[:, 1], x[:, 2:]
    # var = 2 (I-Q)^-1 T Q tau + (I-Q)^-1 e^2 - tau^2, with T = diag(dwell)
    q_tau = np.bincount(qr, weights=qv * tau[qc], minlength=n)
    cross = dgbtrs(lu, kl, ku, (e * q_tau)[order, None], piv)[0][pos, 0]
    var = 2.0 * cross + second - tau * tau
    # roundoff may leave a zero variance slightly negative; more is an error
    negative = np.flatnonzero(var < -_ROW_SUM_TOL * np.maximum(1.0, tau * tau))
    if negative.size:
        k = negative[0]
        raise ChainError(
            f"variance {var[k]!r} of state {chain.transient[k]!r} is negative beyond roundoff"
        )
    var = np.maximum(var, 0.0)
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


def _sampling_rows(
    indptr: np.ndarray, indices: np.ndarray, probs: np.ndarray, last: int
) -> tuple[np.ndarray, np.ndarray]:
    """Padded per-row (target column, cumulative probability) arrays of CSR rows.

    Entries are the nonzeros before column ``last``, in column order, then
    ``last`` at cumulative 1.0; padding repeats that closing entry.
    """
    n = indptr.size - 1
    kept = (indices != last) & (probs != 0.0)
    r = np.repeat(np.arange(n), np.diff(indptr))[kept]
    degree = np.bincount(r, minlength=n)
    slot = np.arange(r.size) - np.repeat(np.cumsum(degree) - degree, degree)
    width = int(degree.max(initial=0)) + 1
    target = np.full((n, width), last)
    target[r, slot] = indices[kept]
    values = np.zeros((n, width))
    values[r, slot] = probs[kept]
    cum = np.cumsum(values, axis=1)
    cum[np.arange(width) >= degree[:, None]] = 1.0
    return target, cum


def _guide_table(target: np.ndarray, cum: np.ndarray) -> np.ndarray:
    """Flat (row, bucket) table of the target every draw in the bucket picks.

    Bucket ``b`` holds the draws u in [b/B, (b+1)/B).  Where count(cum < u)
    is the same at both edges it is the same for every draw between them;
    elsewhere the table holds -1.  An entry c lies below the edges b/B with
    b > floor(c * B), exact for B a power of two, so one histogram of
    floor(c * B) + 1 per row, summed along the edges, gives every count.
    """
    rows, width = cum.shape
    bins = _BUCKETS + 2
    first = np.clip(np.floor(cum * _BUCKETS).astype(np.intp) + 1, 0, bins - 1)
    hist = np.bincount((first + bins * np.arange(rows)[:, None]).ravel(), minlength=rows * bins)
    # each row adds its width to the running sum, so entry (r, b) is
    # r * width + count(cum[r] < b/B): the flat position of the target picked
    at = np.cumsum(hist).reshape(rows, bins)
    lo, hi = at[:, :_BUCKETS], at[:, 1 : _BUCKETS + 1]
    guide = target.ravel()[lo]
    guide[lo != hi] = -1
    return guide.ravel()


def _start_draws(rng: np.random.Generator, f: np.ndarray, size: int) -> np.ndarray:
    """``rng.choice(f.size, size=size, p=f)``: the same draws and the same states.

    Like ``choice``, each of ``size`` uniforms u picks count(cdf <= u) of
    the cumulative sums normalised to end at 1.0, but through a guide table
    over B buckets, the power of two at or above the smaller of four per
    state and one per draw.  Every draw in [b/B, (b+1)/B) counts at least
    count(cdf <= b/B), the sums with ceil(cdf * B) <= b, and at most
    count(cdf < (b+1)/B), those with floor(cdf * B) <= b; ``cdf * B`` is
    exact, so two histograms give both.  A bucket where the two agree
    stores the count, and only draws in the others search the sums.
    """
    cdf = f.cumsum()
    cdf /= cdf[-1]
    buckets = 1 << (min(4 * f.size, size) - 1).bit_length()
    scaled = cdf * buckets
    lo = np.cumsum(np.bincount(np.ceil(scaled).astype(np.intp), minlength=buckets + 1)[:buckets])
    hi = np.cumsum(np.bincount(scaled.astype(np.intp), minlength=buckets + 1)[:buckets])
    guide = np.where(lo == hi, lo, -1)
    u = rng.random(size)
    state = guide[(u * buckets).astype(np.intp)]
    miss = np.flatnonzero(state < 0)
    state[miss] = np.searchsorted(cdf, u[miss], side="right")
    return state


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
    for every draw.  The starts read a guide table over the start
    distribution the same way, and are the states ``Generator.choice``
    would draw.  Each chunk draws one uniform per walk for the starts, then
    one per live walk and step in walk order; only live walks are carried
    from step to step, and each walk adds its dwell times in visiting order.
    """
    if n_walks < 1:
        raise ChainError(f"need at least one walk, got {n_walks}")
    n, a = len(chain.transient), len(chain.absorbing)
    f = _initial_distribution(chain, start)
    target, cum = _sampling_rows(chain.indptr, chain.indices, chain.probs, n + a - 1)
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
        origin = _start_draws(rng, f, size)
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
        # bincount adds in input order, so listing each running sum ahead of
        # the chunk's walks adds them one after another, as np.add.at did
        ahead = np.concatenate((np.arange(n), origin))
        time_sum = np.bincount(ahead, np.concatenate((time_sum, total)), n)
        time_sqsum = np.bincount(ahead, np.concatenate((time_sqsum, total * total)), n)
        counts += np.bincount(origin, minlength=n)
        absorb_counts += np.bincount(origin * a + landed, minlength=n * a).reshape(n, a)

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
