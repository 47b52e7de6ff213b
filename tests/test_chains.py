"""Absorbing-chain analytics against closed-form cases and Monte Carlo runs."""

import dataclasses
import importlib.machinery
import importlib.util
import math
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

import m3sim.chains
from m3sim.chains import (
    _ROW_SUM_TOL,
    NO_ROUTE,
    ChainError,
    ChainStatistics,
    absorption_statistics,
    build_chain,
    canonical_form,
    simulate_walks,
)
from m3sim.cli import bundled_scenario
from m3sim.grid import NUM_COLORS, Destinations, GridParams, SubcellGrid, make_destinations
from m3sim.routing import (
    COORD,
    FALLBACK,
    LIR,
    ProtocolConfig,
    RoutingError,
    build_lir_chain,
    build_mdr_chain,
    coordinated_color_population,
    coordination_probability,
    rank_probabilities,
)
from m3sim.scenario import load_scenario

# -- dense oracles -----------------------------------------------------------


def dense(chain):
    """The (n+a)^2 transition matrix of a chain, built from its CSR rows."""
    n, size = len(chain.transient), len(chain.transient) + len(chain.absorbing)
    out = np.eye(size)
    out[:n] = 0.0
    out[np.repeat(np.arange(n), np.diff(chain.indptr)), chain.indices] = chain.probs
    return out


def uniform_dwell_variance(chain):
    """Variance of absorption time via the fundamental-matrix identity.

    Valid only for a uniform dwell T: var = ((2N - I) N 1 - (N 1)^2) T^2.
    """
    t = chain.dwell[0]
    if not np.allclose(chain.dwell, t):
        raise ChainError("uniform-dwell variance requires equal dwell times")
    canonical_form(chain)
    n = len(chain.transient)
    Q = dense(chain)[:n, :n]
    fundamental = np.linalg.inv(np.eye(n) - Q)
    steps = fundamental @ np.ones(n)
    return ((2.0 * fundamental - np.eye(n)) @ steps - steps * steps) * t * t


def spectral_radius(chain):
    """Spectral radius of Q; absorption is unreachable somewhere iff it is ~1."""
    n = len(chain.transient)
    return float(np.max(np.abs(np.linalg.eigvals(dense(chain)[:n, :n])))) if n else 0.0


def dense_walks(chain, n_walks, seed):
    """Uniform-start walker sampling from dense cumulative rows over all states."""
    n, a = len(chain.transient), len(chain.absorbing)
    cum = np.cumsum(dense(chain)[:n], axis=1)
    cum[:, -1] = 1.0
    counts = np.zeros(n, dtype=np.int64)
    time_sum = np.zeros(n)
    time_sqsum = np.zeros(n)
    absorb_counts = np.zeros((n, a), dtype=np.int64)
    chunks = [m3sim.chains._CHUNK] * (n_walks // m3sim.chains._CHUNK)
    if n_walks % m3sim.chains._CHUNK:
        chunks.append(n_walks % m3sim.chains._CHUNK)
    seeds = np.random.SeedSequence(seed).spawn(len(chunks))
    for size, chunk_seed in zip(chunks, seeds):
        rng = np.random.Generator(np.random.PCG64(chunk_seed))
        origin = rng.choice(n, size=size, p=np.full(n, 1.0 / n))
        state = origin.copy()
        elapsed = chain.dwell[state].copy()
        active = np.arange(size)
        landed = np.empty(size, dtype=np.int64)
        while active.size:
            step = (cum[state[active]] < rng.random((active.size, 1))).sum(axis=1)
            absorbed = step >= n
            landed[active[absorbed]] = step[absorbed] - n
            moved = active[~absorbed]
            state[moved] = step[~absorbed]
            elapsed[moved] += chain.dwell[state[moved]]
            active = moved
        np.add.at(counts, origin, 1)
        np.add.at(time_sum, origin, elapsed)
        np.add.at(time_sqsum, origin, elapsed * elapsed)
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


def assert_same_walks(chain, n_walks, seed):
    got, ref = simulate_walks(chain, n_walks, seed), dense_walks(chain, n_walks, seed)
    assert np.array_equal(got.counts, ref.counts)
    assert np.array_equal(got.absorb_probs, ref.absorb_probs, equal_nan=True)
    assert np.array_equal(got.tau, ref.tau, equal_nan=True)
    assert np.array_equal(got.var_tau, ref.var_tau, equal_nan=True)
    assert got.tau_mean == ref.tau_mean
    assert np.array_equal(got.absorb_dist, ref.absorb_dist)


def geometric(p, dwell=1.0):
    return build_chain({"s": [("s", 1.0 - p), ("done", p)]}, ["done"], dwell=dwell)


def ladder(p=0.6):
    # s2 -> s1 -> done, each rung advancing with probability p
    return build_chain(
        {
            "s1": [("s1", 1.0 - p), ("done", p)],
            "s2": [("s2", 1.0 - p), ("s1", p)],
        },
        ["done"],
    )


def test_geometric_mean_and_variance():
    stats = absorption_statistics(geometric(0.5))
    assert stats.tau[0] == pytest.approx(2.0)
    assert stats.var_tau[0] == pytest.approx(2.0)
    stats = absorption_statistics(geometric(0.8))
    assert stats.tau[0] == pytest.approx(1.25)
    assert stats.var_tau[0] == pytest.approx(0.3125)
    assert stats.absorb_probs[0, 0] == pytest.approx(1.0)


def test_dwell_scales_mean_linearly_and_variance_quadratically():
    base = absorption_statistics(geometric(0.7))
    scaled = absorption_statistics(geometric(0.7, dwell=7.0))
    assert scaled.tau[0] == pytest.approx(7.0 * base.tau[0])
    assert scaled.var_tau[0] == pytest.approx(49.0 * base.var_tau[0])


def test_ladder_means():
    stats = absorption_statistics(ladder(0.6))
    assert_allclose(stats.tau, [1.0 / 0.6, 2.0 / 0.6], rtol=1e-12)
    # uniform start over both rungs
    assert stats.tau_mean == pytest.approx(1.5 / 0.6)


def test_split_absorption_probabilities():
    chain = build_chain(
        {"s": [("s", 0.2), ("a", 0.24), ("b", 0.56)]},
        ["a", "b"],
    )
    stats = absorption_statistics(chain)
    assert_allclose(stats.absorb_probs[0], [0.3, 0.7], rtol=1e-12)
    assert_allclose(stats.absorb_dist, [0.3, 0.7], rtol=1e-12)


def test_variance_identity_cross_check():
    chain = build_chain(
        {
            "a": [("a", 0.1), ("b", 0.5), ("out", 0.4)],
            "b": [("a", 0.3), ("out", 0.7)],
        },
        ["out"],
        dwell=3.0,
    )
    stats = absorption_statistics(chain)
    assert_allclose(stats.var_tau, uniform_dwell_variance(chain), rtol=1e-10)


def test_uniform_dwell_identity_rejects_mixed_dwell():
    chain = build_chain(
        {"a": [("out", 1.0)], "b": [("a", 1.0)]}, ["out"], dwell={"a": 1.0, "b": 2.0}
    )
    with pytest.raises(ChainError):
        uniform_dwell_variance(chain)


def test_build_chain_normalizes_within_tolerance():
    chain = build_chain({"s": [("s", 0.5 + 2e-10), ("done", 0.5)]}, ["done"])
    assert dense(chain)[0].sum() == pytest.approx(1.0, abs=1e-15)


@pytest.mark.parametrize(
    "rows, absorbing",
    [
        ({"s": [("elsewhere", 1.0)]}, ["done"]),  # unknown target
        ({"s": [("s", -0.2), ("done", 1.2)]}, ["done"]),  # negative probability
        ({"s": [("done", 0.8)]}, ["done"]),  # row sum off
        ({"s": [("s", 1.0)]}, ["s"]),  # state on both sides
    ],
)
def test_build_chain_rejects_bad_rows(rows, absorbing):
    with pytest.raises(ChainError):
        build_chain(rows, absorbing)


def test_build_chain_rejects_nonpositive_dwell():
    with pytest.raises(ChainError):
        build_chain({"s": [("done", 1.0)]}, ["done"], dwell=0.0)


def test_canonical_form_requires_reachable_absorption():
    chain = build_chain(
        {"trap": [("trap", 1.0)], "s": [("trap", 0.5), ("done", 0.5)]}, ["done"]
    )
    with pytest.raises(ChainError, match="unreachable from state 'trap'"):
        canonical_form(chain)


def test_canonical_form_names_a_trapped_cycle():
    # two states feeding each other, one reachable from a leaking state
    chain = build_chain(
        {
            "s": [("a", 0.5), ("done", 0.5)],
            "a": [("b", 1.0)],
            "b": [("a", 0.7), ("b", 0.3)],
        },
        ["done"],
    )
    with pytest.raises(ChainError, match="unreachable from state 'a'"):
        canonical_form(chain)
    assert spectral_radius(chain) >= 1.0 - 1e-12


def test_reachability_is_exact_where_the_spectral_radius_is_not():
    # absorption is reachable, but the leak is below the old eigenvalue tolerance
    leak = 1e-14
    chain = build_chain({"s": [("s", 1.0 - leak), ("done", leak)]}, ["done"])
    canonical_form(chain)
    assert dense(chain)[0, 0] < 1.0 and dense(chain)[0, 1] > 0.0
    assert spectral_radius(chain) >= 1.0 - 1e-12


def test_transient_index():
    chain = ladder()
    assert chain.transient_index("s2") == 1
    assert [chain.transient_index(s) for s in chain.transient] == list(range(len(chain.transient)))
    for label in ("s9", ("s2", "coord"), ["s2"]):
        with pytest.raises(ChainError, match="unknown transient state"):
            chain.transient_index(label)


@pytest.mark.parametrize("prob", [math.nan, math.inf, -math.inf])
def test_non_finite_probability_is_rejected_by_name(prob):
    with pytest.raises(ChainError, match=f"non-finite probability {prob!r} in row for 's'"):
        build_chain({"s": [("s", prob), ("done", 1.0)]}, ["done"])


def test_start_distribution_validation():
    chain = ladder()
    with pytest.raises(ChainError):
        absorption_statistics(chain, start=np.array([0.5, 0.6]))
    with pytest.raises(ChainError):
        absorption_statistics(chain, start=np.array([1.0]))


@pytest.mark.parametrize("start", [[0.5, 0.500001], [0.5, 0.5 + 2 * _ROW_SUM_TOL], [0.5 - 2 * _ROW_SUM_TOL, 0.5]])
def test_start_sum_tolerance_is_absolute(start):
    # a relative tolerance of 1e-5 would pass the first vector
    message = "initial distribution must be a probability vector"
    with pytest.raises(ChainError, match=message):
        absorption_statistics(ladder(), start=np.array(start))
    with pytest.raises(ChainError, match=message):
        simulate_walks(ladder(), 100, seed=1, start=np.array(start))
    within = np.array([0.5, 0.5 + 0.5 * _ROW_SUM_TOL])
    assert absorption_statistics(ladder(), start=within).tau_mean > 0
    assert simulate_walks(ladder(), 100, seed=1, start=within).counts.sum() == 100


def _count_checks(monkeypatch):
    calls = []
    real = m3sim.chains.canonical_form

    def counted(chain):
        calls.append(chain)
        return real(chain)

    monkeypatch.setattr(m3sim.chains, "canonical_form", counted)
    return calls


def test_each_chain_is_checked_once(monkeypatch):
    calls = _count_checks(monkeypatch)
    chain = ladder()
    absorption_statistics(chain)
    simulate_walks(chain, 100, seed=1)
    absorption_statistics(chain)
    assert calls == [chain]
    simulate_walks(ladder(), 100, seed=1)
    assert len(calls) == 2


def test_a_chain_that_fails_its_check_fails_every_call(monkeypatch):
    calls = _count_checks(monkeypatch)
    chain = build_chain({"trap": [("trap", 1.0)], "s": [("trap", 0.5), ("done", 0.5)]}, ["done"])
    for _ in range(2):
        with pytest.raises(ChainError, match="unreachable from state 'trap'"):
            simulate_walks(chain, 100, seed=1)
    with pytest.raises(ChainError, match="unreachable from state 'trap'"):
        absorption_statistics(chain)
    assert len(calls) == 3


def test_simulation_is_seed_deterministic():
    chain = ladder(0.4)
    a = simulate_walks(chain, 5000, seed=11)
    b = simulate_walks(chain, 5000, seed=11)
    assert_allclose(a.tau, b.tau, rtol=0)
    assert np.array_equal(a.counts, b.counts)
    c = simulate_walks(chain, 5000, seed=12)
    assert not np.allclose(a.tau, c.tau)


def test_simulation_matches_analysis():
    chain = ladder(0.5)
    exact = absorption_statistics(chain)
    mc = simulate_walks(chain, 100_000, seed=7)
    for k in range(2):
        sigma = np.sqrt(exact.var_tau[k] / mc.counts[k])
        assert abs(mc.tau[k] - exact.tau[k]) < 4.0 * sigma
    assert mc.tau_mean == pytest.approx(exact.tau_mean, rel=0.02)
    assert mc.absorb_dist[0] == pytest.approx(1.0)


def _negative_variance_solve(offset):
    """LAPACK pair whose dgbtrs shifts, on its first call, the second column (I - Q)^-1 e^2 by ``offset``."""
    calls = []
    factor, solve = m3sim.chains._banded_lu()

    def shifted(*args, **kwargs):
        calls.append(None)
        x, info = solve(*args, **kwargs)
        if len(calls) == 1:
            x[:, 1] += offset
        return x, info

    return lambda: (factor, shifted)


def test_negative_variance_beyond_roundoff_is_reported(monkeypatch):
    monkeypatch.setattr(m3sim.chains, "_banded_lu", _negative_variance_solve(-1e-6))
    # geometric(1.0) has tau = 1 and variance exactly 0
    with pytest.raises(ChainError, match="variance .* of state 's' is negative"):
        absorption_statistics(geometric(1.0))


def test_negative_variance_within_roundoff_reads_zero(monkeypatch):
    monkeypatch.setattr(m3sim.chains, "_banded_lu", _negative_variance_solve(-1e-12))
    stats = absorption_statistics(geometric(1.0))
    assert stats.var_tau[0] == 0.0 and stats.tau[0] == 1.0


_BANDED_LU = (
    "import sys\nfrom m3sim.chains import _banded_lu\n"
    "pair = _banded_lu()\nflapack = sys.modules['scipy.linalg._flapack']\n"
)
_IMPORT_ORDERS = {
    "banded-lu-first": _BANDED_LU + "import scipy.linalg.lapack as lapack\n",
    "scipy-first": "import scipy.linalg.lapack as lapack\n" + _BANDED_LU,
}


@pytest.mark.parametrize("imports", _IMPORT_ORDERS.values(), ids=_IMPORT_ORDERS)
def test_banded_lu_returns_scipys_own_lapack_functions_in_either_import_order(imports):
    # the extension loaded on its own is the module scipy.linalg goes on to
    # use, so the solve calls the very functions scipy.linalg.lapack exports
    src = str(Path(m3sim.chains.__file__).resolve().parents[1])
    script = imports + (
        "assert flapack is lapack._flapack\n"
        "assert pair[0] is lapack.dgbtrf and pair[1] is lapack.dgbtrs\nprint('same')\n"
    )
    done = subprocess.run(
        [sys.executable, "-c", script],
        env=dict(os.environ, PYTHONPATH=src),
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout == "same\n"


@pytest.mark.parametrize("scipy_found", [False, True], ids=["no-scipy", "no-extension"])
def test_banded_lu_names_the_extension_it_cannot_find(monkeypatch, tmp_path, scipy_found):
    # a scipy package directory without linalg/_flapack, or no scipy at all
    empty = importlib.machinery.ModuleSpec("scipy", None, is_package=True)
    empty.submodule_search_locations = [str(tmp_path)]
    real = importlib.util.find_spec
    monkeypatch.setattr(
        importlib.util,
        "find_spec",
        lambda name, package=None: (empty if scipy_found else None) if name == "scipy" else real(name, package),
    )
    monkeypatch.delitem(sys.modules, "scipy.linalg._flapack", raising=False)
    with pytest.raises(ImportError, match=r"scipy\.linalg\._flapack"):
        m3sim.chains._banded_lu()


def test_singular_i_minus_q_is_reported():
    # absorption is reachable, but a tiny negative entry cancels the leak
    chain = build_chain({"s": [("s", 1.0), ("done", 5e-10), ("lost", -5e-10)]}, ["done", "lost"])
    assert dense(chain)[0, 0] == 1.0
    with pytest.raises(ChainError, match="I - Q is singular at state 's'"):
        absorption_statistics(chain)


def test_simulation_start_distribution_and_guards():
    chain = ladder()
    pinned = simulate_walks(chain, 2000, seed=3, start=np.array([1.0, 0.0]))
    assert pinned.counts[0] == 2000 and pinned.counts[1] == 0
    assert np.isnan(pinned.tau[1])
    with pytest.raises(ChainError):
        simulate_walks(chain, 0, seed=1)


# -- sparse walker and reachability against the dense oracles ---------------


@st.composite
def random_chains(draw):
    """Small chains with zero gaps, zero last columns, tiny negatives and traps.

    Transient states on either side of a cut never reach each other, so Q
    may fall apart into blocks; some rows only absorb, and some list a
    target twice.
    """
    n = draw(st.integers(1, 6))
    a = draw(st.integers(1, 3))
    labels = [f"t{k}" for k in range(n)] + [f"a{k}" for k in range(a)]
    cut = draw(st.integers(0, n))
    rows = {}
    for k in range(n):
        weights = draw(st.lists(st.integers(0, 4), min_size=n + a, max_size=n + a))
        side = range(cut) if k >= cut else range(cut, n)
        weights[side.start : side.stop] = [0] * len(side)
        # a closed row leaks nothing to the absorbing states directly
        mode = draw(st.sampled_from(("open", "closed", "absorb")))
        if mode == "closed":
            weights[n:] = [0] * a
        elif mode == "absorb":
            weights[:n] = [0] * n
        if not any(weights):
            weights[k if mode == "closed" else n] = 1
        total = sum(weights)
        row = [(labels[j], w / total) for j, w in enumerate(weights) if w]
        if draw(st.booleans()):
            # the same target listed twice, as two halves
            j = draw(st.integers(0, len(row) - 1))
            row[j] = (row[j][0], row[j][1] / 2)
            row.append(row[j])
        zeros = [j for j, w in enumerate(weights) if not w]
        if zeros and draw(st.booleans()):
            # a tiny negative entry in a zero column, within the row-sum tolerance
            row.append((labels[draw(st.sampled_from(zeros))], -0.5 * _ROW_SUM_TOL))
        rows[labels[k]] = row
    dwell = draw(st.sampled_from((1.0, 7.0, {label: 1.0 + (k % 3) for k, label in enumerate(labels[:n])})))
    return build_chain(rows, labels[n:], dwell)


@settings(max_examples=60, deadline=None, derandomize=True)
@given(random_chains(), st.integers(0, 2**32 - 1))
def test_sparse_walker_and_reachability_match_dense_references(chain, seed):
    # The two walkers pick the same target for every draw except u == 0.0, or
    # a draw within a tiny negative entry of a non-monotone cumulative row.
    radius = spectral_radius(chain)
    try:
        canonical_form(chain)
    except ChainError as err:
        assert "unreachable" in str(err)
        assert radius >= 1.0 - 1e-12
        with pytest.raises(ChainError, match="unreachable"):
            simulate_walks(chain, 10, seed)
        return
    assert radius < 1.0 - 1e-12
    assert_same_walks(chain, 400, seed)


@settings(max_examples=200, deadline=None, derandomize=True)
@given(random_chains())
def test_banded_solve_matches_a_dense_solve(chain):
    try:
        canonical_form(chain)
    except ChainError:
        return
    n = len(chain.transient)
    matrix = dense(chain)
    Q, R = matrix[:n, :n], matrix[:n, n:]
    A, e = np.eye(n) - Q, chain.dwell
    tau = np.linalg.solve(A, e)
    var = 2.0 * np.linalg.solve(A, e * (Q @ tau)) + np.linalg.solve(A, e * e) - tau * tau
    scale = np.maximum(1.0, tau * tau)
    if np.any(var < -_ROW_SUM_TOL * scale):
        # a tiny negative entry can push a zero variance below roundoff
        with pytest.raises(ChainError, match="negative beyond roundoff"):
            absorption_statistics(chain)
        return
    stats = absorption_statistics(chain)
    assert_allclose(stats.tau, tau, rtol=1e-12, atol=0)
    assert_allclose(stats.absorb_probs, np.linalg.solve(A, R), rtol=0, atol=1e-12)
    assert np.all(np.abs(stats.var_tau - np.maximum(var, 0.0)) <= 1e-12 * scale)


def test_reverse_cuthill_mckee_order():
    rcm = m3sim.chains._reverse_cuthill_mckee
    # edges 0-1, 0-2, 0-3, 1-4, 1-5, 3-4, each listed in one direction only:
    # from leaf 2 the levels are [2], [0], [3, 1] (3 has the lower degree),
    # then [4, 5] (4 is reached from 3, numbered first)
    rows, cols = np.array([0, 2, 0, 4, 1, 3]), np.array([1, 0, 3, 1, 5, 4])
    assert rcm(rows, cols, 6).tolist() == [5, 4, 1, 3, 0, 2]
    # a path 0-2-4, a pair 1-3, an isolated 5 and a self-loop at 2
    rows, cols = np.array([0, 2, 4, 1, 2]), np.array([2, 4, 2, 3, 2])
    assert rcm(rows, cols, 6).tolist() == [3, 1, 4, 2, 0, 5]


@pytest.mark.parametrize("name", ["default", "offload"])
def test_sparse_walker_matches_dense_reference_on_bundled_mdr_chain(name):
    scn = load_scenario(bundled_scenario(name))
    chain = build_mdr_chain(scn.grid, scn.dest, scn.experiment.availabilities[0])
    assert spectral_radius(chain) < 1.0 - 1e-12
    assert_same_walks(chain, 3000, seed=5)


# -- analytic statistics against the Monte Carlo oracle -----------------------


def _benchmark_checks():
    """perfbench/checks.py, whose limits every benchmarked `verify` row meets."""
    path = Path(__file__).resolve().parents[1] / "perfbench" / "checks.py"
    spec = importlib.util.spec_from_file_location("perfbench_checks", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


CHECKS = _benchmark_checks()


@st.composite
def absorbing_chains(draw):
    """Up to 8 transient states, 1-2 absorbing states and integer dwells."""
    n = draw(st.integers(1, 8))
    a = draw(st.integers(1, 2))
    labels = [f"t{k}" for k in range(n)] + [f"a{k}" for k in range(a)]
    rows = {}
    for k in range(n):
        weights = draw(st.lists(st.integers(0, 4), min_size=n + a, max_size=n + a))
        # the path t_k -> t_(k-1) -> ... -> t0 -> a0 keeps absorption reachable
        weights[k - 1 if k else n] += 1
        total = sum(weights)
        rows[labels[k]] = [(labels[j], w / total) for j, w in enumerate(weights) if w]
    dwell = {label: float(draw(st.integers(1, 7))) for label in labels[:n]}
    return build_chain(rows, labels[n:], dwell)


@settings(max_examples=60, deadline=None, derandomize=True)
@given(absorbing_chains(), st.integers(0, 2**32 - 1))
def test_analytic_statistics_agree_with_monte_carlo_on_random_chains(chain, seed):
    analytic = absorption_statistics(chain)
    empirical = simulate_walks(chain, 4000, seed)
    for k in range(len(chain.transient)):
        count = int(empirical.counts[k])
        assert count > 0
        tau, var = float(analytic.tau[k]), float(analytic.var_tau[k])
        if var > 1e-9 * max(1.0, tau**2):
            z = (float(empirical.tau[k]) - tau) / math.sqrt(var / count)
            assert abs(z) <= CHECKS.Z_LIMIT
        else:  # a deterministic absorption time
            assert empirical.tau[k] == pytest.approx(tau, rel=1e-9)
        gap = float(max(abs(empirical.absorb_probs[k] - analytic.absorb_probs[k])))
        assert gap <= CHECKS.GAP_SIGMAS * 0.5 / math.sqrt(count)


# -- generated route-discovery chains -----------------------------------------

GRIDS = {h: SubcellGrid(GridParams(H=h)) for h in range(1, 7)}


@st.composite
def discovery_chains(draw):
    grid = GRIDS[draw(st.integers(1, 6))]
    # ring-1 access points would cover the base station, which is not allowed
    rings = st.integers(2, max(grid.params.H, 2))
    placements = draw(st.lists(st.tuples(rings, st.floats(0.0, 359.0)), max_size=2 * (grid.params.H > 1)))
    cells = [grid.nearest_in_ring(h, theta)[0].i for h, theta in placements]
    if len(set(cells)) < len(cells):
        placements = placements[:1]
    dest = make_destinations(grid, placements)
    p = draw(st.floats(0.0, 1.0, exclude_min=True))
    if draw(st.booleans()):
        return build_lir_chain(grid, dest, p, ProtocolConfig(kind=LIR, p=p))
    return build_mdr_chain(grid, dest, p)


@settings(max_examples=30, deadline=None)
@given(discovery_chains())
def test_route_discovery_chains_are_absorbing_and_row_stochastic(chain):
    n, a = len(chain.transient), len(chain.absorbing)
    matrix = dense(chain)
    assert matrix.shape == (n + a, n + a)
    assert np.all(matrix >= 0.0)
    assert_allclose(matrix.sum(axis=1), 1.0, rtol=0, atol=1e-12)
    assert np.array_equal(matrix[n:], np.eye(n + a)[n:])
    canonical_form(chain)


# -- guide-table walker against the previous code, build against rows --------


def parent_sampling_rows(rows):
    """The (target, cumulative) rows as built before the guide table."""
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


def csr_sampling_rows(values):
    """m3sim.chains._sampling_rows of the nonzeros of dense rows closed by their last column."""
    r, c = np.nonzero(values)
    indptr = np.concatenate([[0], np.cumsum(np.bincount(r, minlength=len(values)))])
    return m3sim.chains._sampling_rows(indptr, c, values[r, c], values.shape[1] - 1)


def parent_walks(chain, n_walks, seed, start=None):
    """The walker before the guide table: full-size state arrays and a count per step."""
    if n_walks < 1:
        raise ChainError(f"need at least one walk, got {n_walks}")
    canonical_form(chain)
    n, a = len(chain.transient), len(chain.absorbing)
    f = m3sim.chains._initial_distribution(chain, start)
    target, cum = parent_sampling_rows(dense(chain)[:n])
    dwell = chain.dwell
    counts = np.zeros(n, dtype=np.int64)
    time_sum = np.zeros(n)
    time_sqsum = np.zeros(n)
    absorb_counts = np.zeros((n, a), dtype=np.int64)
    chunk = m3sim.chains._CHUNK
    chunks = [chunk] * (n_walks // chunk)
    if n_walks % chunk:
        chunks.append(n_walks % chunk)
    seeds = np.random.SeedSequence(seed).spawn(len(chunks))
    for size, chunk_seed in zip(chunks, seeds):
        rng = np.random.Generator(np.random.PCG64(chunk_seed))
        origin = rng.choice(n, size=size, p=f)
        state = origin.copy()
        elapsed = dwell[state].copy()
        active = np.arange(size)
        landed = np.empty(size, dtype=np.int64)
        while active.size:
            current = state[active]
            k = (cum[current] < rng.random((active.size, 1))).sum(axis=1)
            step = target[current, k]
            absorbed = step >= n
            hit = active[absorbed]
            landed[hit] = step[absorbed] - n
            moved = active[~absorbed]
            state[moved] = step[~absorbed]
            elapsed[moved] += dwell[state[moved]]
            active = moved
        np.add.at(counts, origin, 1)
        np.add.at(time_sum, origin, elapsed)
        np.add.at(time_sqsum, origin, elapsed * elapsed)
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


def assert_identical_statistics(got, ref):
    for field in dataclasses.fields(ChainStatistics):
        x, y = getattr(got, field.name), getattr(ref, field.name)
        if isinstance(y, np.ndarray):
            assert x.dtype == y.dtype and x.shape == y.shape, field.name
            assert np.array_equal(x, y, equal_nan=True), field.name
        else:
            assert type(x) is type(y) and (x == y or (math.isnan(x) and math.isnan(y))), field.name


def walks_match_parent(chain, n_walks, seed, start=None, chunk=None):
    with pytest.MonkeyPatch.context() as patch:
        if chunk is not None:
            patch.setattr(m3sim.chains, "_CHUNK", chunk)
        got = simulate_walks(chain, n_walks, seed, start)
        ref = parent_walks(chain, n_walks, seed, start)
    assert_identical_statistics(got, ref)


@st.composite
def start_distributions(draw, n):
    """None (uniform), one pinned state, or integer weights with zeros."""
    weights = draw(st.lists(st.integers(0, 3), min_size=n, max_size=n))
    if not any(weights):
        return None
    return np.array(weights, dtype=float) / sum(weights)


@settings(max_examples=80, deadline=None, derandomize=True)
@given(
    random_chains(),
    st.integers(0, 2**32 - 1),
    st.integers(1, 300),
    st.sampled_from((None, 1, 7, 64)),
    st.data(),
)
def test_guide_table_walker_equals_the_previous_walker(chain, seed, n_walks, chunk, data):
    try:
        canonical_form(chain)
    except ChainError:
        return
    start = data.draw(start_distributions(len(chain.transient)))
    walks_match_parent(chain, n_walks, seed, start, chunk)


@pytest.mark.parametrize("kind", ["MDR", "LIR"])
@pytest.mark.parametrize("p", [0.5, 0.9])
def test_guide_table_walker_equals_the_previous_walker_on_discovery_chains(kind, p):
    # the discovery benchmark's chains: H=10 with two access points
    grid = SubcellGrid(GridParams(H=10))
    dest = make_destinations(grid, [(5, 30.0), (5, 210.0)])
    if kind == "MDR":
        chain = build_mdr_chain(grid, dest, p)
    else:
        chain = build_lir_chain(grid, dest, p, ProtocolConfig(kind=LIR, p=p))
    walks_match_parent(chain, 5000, seed=3)
    # several chunks, the last one short
    walks_match_parent(chain, 5000, seed=4, chunk=1500)
    start = np.zeros(len(chain.transient))
    start[[0, len(start) // 2, len(start) - 1]] = [0.5, 0.25, 0.25]
    walks_match_parent(chain, 3000, seed=5, start=start, chunk=1024)


def chain_of_size(n):
    """n transient states, each absorbed with probability 1/2 or stepping to its successor."""
    rows = {k: [((k + 1) % n, 0.5), ("done", 0.5)] for k in range(n)}
    return build_chain(rows, ["done"], dwell={k: 1.0 + k % 3 for k in range(n)})


@pytest.mark.parametrize(
    "start",
    [
        [1.0],
        [0.125] * 8,
        np.full(64, 1 / 64),
        [0.25, 0.25, 0.5],
        [0.0, 0.25, 0.25, 0.5, 0.0],
        [0.0, 0.0, 1.0, 0.0],
        [0.5, 0.0, 0.0, 0.5],
        [1 / 3, 1 / 3, 1 / 3],
    ],
)
def test_starts_are_the_draws_of_choice(start):
    # one state, powers of two, sums on bucket edges and zeros at both ends,
    # with a table of four buckets per state and with one of fewer buckets
    f = np.array(start, dtype=float)
    for seed, size in [(0, 5000), (1, 5000), (2, 7), (3, 1)]:
        got = m3sim.chains._start_draws(np.random.default_rng(seed), f, size)
        ref = np.random.default_rng(seed).choice(f.size, size=size, p=f)
        assert got.dtype == ref.dtype and np.array_equal(got, ref)
    start = None if np.all(f == f[0]) else f
    walks_match_parent(chain_of_size(f.size), 3000, seed=9, start=start, chunk=1024)


@settings(max_examples=60, deadline=None, derandomize=True)
@given(
    st.integers(1, 700),
    st.integers(1, 3000),
    st.integers(0, 2**32 - 1),
    st.sampled_from(("uniform", "random", "sparse")),
)
def test_start_guide_table_equals_choice(n, size, seed, kind):
    # fewer draws than four per state caps the table at one bucket per draw
    rng = np.random.default_rng(seed)
    if kind == "uniform":
        f = np.full(n, 1.0 / n)
    elif kind == "random":
        f = rng.random(n)
    else:
        f = np.where(rng.random(n) < 0.2, rng.integers(1, 4, n), 0).astype(float)
        f[rng.integers(n)] = 1.0
    f /= f.sum()
    got = m3sim.chains._start_draws(np.random.default_rng(seed), f, size)
    ref = np.random.default_rng(seed).choice(n, size=size, p=f)
    assert got.dtype == ref.dtype and np.array_equal(got, ref)


def column_loop_guide_table(target, cum):
    """The step guide table as first built: a count of cum < b/B, one column at a time."""
    buckets = m3sim.chains._BUCKETS
    edges = np.arange(buckets + 1) / buckets
    below = np.zeros((cum.shape[0], buckets + 1), dtype=np.intp)
    for column in cum.T:
        below += column[:, None] < edges
    lo, hi = below[:, :-1], below[:, 1:]
    guide = np.take_along_axis(target, lo, axis=1)
    guide[lo != hi] = -1
    return guide.ravel()


def assert_same_guide_table(target, cum):
    got, ref = m3sim.chains._guide_table(target, cum), column_loop_guide_table(target, cum)
    assert got.dtype == ref.dtype and np.array_equal(got, ref)


@pytest.mark.parametrize("kind", ["MDR", "LIR"])
@pytest.mark.parametrize("p", [0.5, 0.9])
def test_histogram_guide_table_equals_the_column_loop_on_discovery_chains(kind, p):
    grid = SubcellGrid(GridParams(H=10))
    dest = make_destinations(grid, [(5, 30.0), (5, 210.0)])
    if kind == "MDR":
        chain = build_mdr_chain(grid, dest, p)
    else:
        chain = build_lir_chain(grid, dest, p, ProtocolConfig(kind=LIR, p=p))
    last = len(chain.transient) + len(chain.absorbing) - 1
    assert_same_guide_table(*m3sim.chains._sampling_rows(chain.indptr, chain.indices, chain.probs, last))


@settings(max_examples=60, deadline=None, derandomize=True)
@given(
    st.lists(
        st.lists(st.sampled_from((0.0, 0.125, 0.25, 0.3, 1 / 3, 0.5, -0.5 * _ROW_SUM_TOL)), min_size=1, max_size=6),
        min_size=1,
        max_size=6,
    )
)
def test_guide_table_picks_the_counted_column_at_every_bucket_edge(entries):
    # rows whose cumulative sums sit on bucket edges, dip below zero or fall back
    width = max(map(len, entries)) + 1
    values = np.zeros((len(entries), width))
    for k, row in enumerate(entries):
        values[k, : len(row)] = row
        values[k, len(row)] = 1.0 - sum(row)
    target, cum = csr_sampling_rows(values)
    assert_same_guide_table(target, cum)
    guide = m3sim.chains._guide_table(target, cum)
    buckets = m3sim.chains._BUCKETS
    edges = np.arange(buckets) / buckets
    draws = np.unique(np.concatenate([edges, np.nextafter(edges, 1.0), np.nextafter(edges[1:], 0.0)]))
    for k in range(len(entries)):
        picked = guide[k * buckets + (draws * buckets).astype(np.intp)]
        counted = target[k, (cum[k] < draws[:, None]).sum(axis=1)]
        known = picked >= 0
        assert np.array_equal(picked[known], counted[known])


def test_guide_table_falls_back_only_in_buckets_a_cumulative_sum_splits():
    # 0.3 lies inside bucket 19; 0.25 is the lower edge of bucket 16, whose
    # draw u = 0.25 still picks column 0 (cum < u fails) and all others column 2
    values = np.array([[0.3, 0.0, 0.7], [0.25, 0.0, 0.75], [0.0, 0.0, 1.0]])
    target, cum = csr_sampling_rows(values)
    guide = m3sim.chains._guide_table(target, cum).reshape(3, m3sim.chains._BUCKETS)
    assert guide[0].tolist() == [0] * 19 + [-1] + [2] * 44
    assert guide[1].tolist() == [0] * 16 + [-1] + [2] * 47
    assert guide[2].tolist() == [2] * 64


def row_by_row_build(rows, absorbing):
    """build_chain's documented result, one row and one entry at a time.

    Duplicate targets add in listed order, the row total adds the entries
    one after another in column order, each entry is divided by it, and
    exact zeros are dropped.  Returns the chain's (indptr, indices, probs).
    """
    transient = tuple(rows)
    if set(transient) & set(absorbing):
        raise ChainError("a state cannot be both transient and absorbing")
    index = {s: k for k, s in enumerate(transient + tuple(absorbing))}
    indptr, indices, probs = [0], [], []
    for state, targets in rows.items():
        entries = {}
        for target, prob in targets:
            if target not in index:
                raise ChainError(f"row for {state!r} targets unknown state {target!r}")
            if not math.isfinite(prob):
                raise ChainError(f"non-finite probability {prob!r} in row for {state!r}")
            if prob < -_ROW_SUM_TOL:
                raise ChainError(f"negative probability {prob!r} in row for {state!r}")
            entries[index[target]] = entries.get(index[target], 0.0) + prob
        total = np.float64(0.0)
        for col in sorted(entries):
            total += entries[col]
        if abs(total - 1.0) > _ROW_SUM_TOL:
            raise ChainError(f"row for {state!r} sums to {total!r}, expected 1")
        for col in sorted(entries):
            if entries[col] / total != 0.0:
                indices.append(col)
                probs.append(entries[col] / total)
        indptr.append(len(indices))
    return np.array(indptr), np.array(indices, dtype=np.intp), np.array(probs, dtype=float)


def assert_same_build(rows, absorbing):
    try:
        ref = row_by_row_build(rows, absorbing)
    except ChainError as err:
        with pytest.raises(ChainError) as got:
            build_chain(rows, absorbing)
        assert str(got.value) == str(err)
        return
    chain = build_chain(rows, absorbing)
    assert chain.transient == tuple(rows) and chain.absorbing == tuple(absorbing)
    for got, want in zip((chain.indptr, chain.indices, chain.probs), ref):
        assert got.dtype == want.dtype and np.array_equal(got, want)
    assert np.array_equal(chain.dwell, np.ones(len(rows)))


@st.composite
def chain_rows(draw):
    """Rows with duplicate, zero and unknown targets, negatives and sums off by a little or a lot."""
    n = draw(st.integers(1, 5))
    a = draw(st.integers(1, 3))
    labels = [f"t{k}" for k in range(n)] + [f"a{k}" for k in range(a)]
    targets = st.sampled_from(labels + ["gone"] if draw(st.integers(0, 3)) == 0 else labels)
    probs = st.sampled_from(
        (0.0, 0.1, 0.2, 0.25, 1 / 3, 0.5, 0.7, 1.0, -0.5 * _ROW_SUM_TOL, -0.2, 3e-10, math.nan, math.inf)
    )
    rows = {}
    for k in range(n):
        entries = draw(st.lists(st.tuples(targets, probs), max_size=2 * (n + a)))
        total = sum(p for _, p in entries)
        if total > 0 and draw(st.integers(0, 3)):
            entries = [(t, p / total) for t, p in entries]
        rows[labels[k]] = entries
    return rows, labels[n:]


@settings(max_examples=300, deadline=None, derandomize=True)
@given(chain_rows())
def test_one_scatter_build_equals_the_row_by_row_build(case):
    assert_same_build(*case)


@pytest.mark.parametrize(
    "rows",
    [
        # the first faulty row in row order is reported, whatever its fault
        {"s": [("done", 0.8)], "t": [("gone", 1.0)]},
        {"s": [("gone", 1.0)], "t": [("done", 0.8)]},
        {"s": [("done", 1.0)], "t": [("t", 0.5), ("done", 0.5), ("t", -0.2)], "u": [("done", 2.0)]},
        {"s": [("done", 1.0)], "t": [("done", 0.9)], "u": [("t", -0.2)]},
        # duplicate targets accumulate in the order they are listed
        {"s": [("s", 0.1), ("done", 0.3), ("s", 0.2), ("done", 0.4)], "t": [("s", 1 / 3)] * 3},
        {},
    ],
)
def test_one_scatter_build_reports_the_same_first_fault(rows):
    assert_same_build(rows, ["done"])


# -- grid builders against dict rows -------------------------------------------


def mdr_transition_row(grid, dest, cell, p):
    """Outgoing MDR transitions of one subcell: ranked neighbours plus no-route."""
    if cell.i in dest.indices():
        raise RoutingError(f"subcell {cell.i} is a destination, not a relay source")
    ranked = grid.rank_table(dest)[cell.i]
    probs, residual = rank_probabilities(p, len(ranked))
    row = list(zip(ranked, probs))
    row.append((NO_ROUTE, residual))
    return row


def lir_transition_rows(grid, dest, cell, p, n_color):
    """Outgoing LIR transitions of both copies of one subcell state (see build_lir_chain)."""
    dest_idx = dest.indices()
    if cell.i in dest_idx:
        raise RoutingError(f"subcell {cell.i} is a destination, not a relay source")
    ranked = grid.rank_table(dest)[cell.i]
    q = coordination_probability(p, n_color)
    coord_probs, coord_residual = rank_probabilities(q, len(ranked))
    fall_probs, fall_residual = rank_probabilities(p, len(ranked))

    def target(neighbor, mode):
        return neighbor if neighbor in dest_idx else (neighbor, mode)

    coord_row, fall_row = [], []
    for n, cp, fp in zip(ranked, coord_probs, fall_probs):
        coord_row.append((target(n, COORD), cp * (1.0 - coord_residual)))
        coord_row.append((target(n, FALLBACK), cp * coord_residual))
        fall_row.append((target(n, FALLBACK), fp * coord_residual))
        fall_row.append((target(n, COORD), fp * (1.0 - coord_residual)))
    coord_row.append((NO_ROUTE, coord_residual))
    fall_row.append((NO_ROUTE, fall_residual))
    return {COORD: coord_row, FALLBACK: fall_row}


def dict_row_chain(grid, dest, p, relay_color, dwell):
    """The MDR (relay_color False) or LIR chain's (rows, absorbing, dwell), one dict row per state."""
    rows, dwells = {}, {}
    n_color = None if relay_color is False else coordinated_color_population(grid, dest, relay_color)
    for cell in grid.cells:
        if cell.i in dest.indices():
            continue
        if n_color is None:
            rows[cell.i], dwells[cell.i] = mdr_transition_row(grid, dest, cell, p), dwell
            continue
        pair = lir_transition_rows(grid, dest, cell, p, n_color)
        for mode, slots in ((COORD, 1.0), (FALLBACK, float(NUM_COLORS))):
            rows[(cell.i, mode)], dwells[(cell.i, mode)] = pair[mode], slots
    return rows, [c.i for c in dest.absorbing_cells()] + [NO_ROUTE], dwells


GRIDS16 = {}


@st.composite
def grid_chain_cases(draw):
    """(grid, dest, p, relay_color or False for MDR, MDR dwell) over H 1-16."""
    h = draw(st.integers(1, 16))
    grid = GRIDS16.setdefault(h, SubcellGrid(GridParams(H=h)))
    rings = st.integers(2, max(h, 2))
    placements = draw(st.lists(st.tuples(rings, st.floats(0.0, 359.0)), max_size=2 * (h > 1)))
    cells = [grid.nearest_in_ring(ring, theta)[0].i for ring, theta in placements]
    dest = make_destinations(grid, placements[: 1 if len(set(cells)) < len(cells) else 2])
    if dest.aps and draw(st.booleans()):
        dest = Destinations(bs=None, aps=dest.aps, coverage=dest.coverage)
    p = draw(st.one_of(st.sampled_from((0.0, 1.0, 0.5, 0.9, math.nan, 1.5, -0.1)), st.floats(0.0, 1.0)))
    relay_color = draw(st.one_of(st.just(False), st.none(), st.integers(0, 6)))
    return grid, dest, p, relay_color, draw(st.sampled_from((1.0, 7.0, 2.5)))


def grid_chain(grid, dest, p, relay_color, dwell):
    if relay_color is False:
        return build_mdr_chain(grid, dest, p, dwell)
    return build_lir_chain(grid, dest, p, ProtocolConfig(kind=LIR, relay_color=relay_color))


@settings(max_examples=120, deadline=None, derandomize=True)
@given(grid_chain_cases())
def test_grid_builders_equal_the_dict_row_build_bit_for_bit(case):
    grid, dest, p, relay_color, dwell = case
    try:
        rows, absorbing, dwells = dict_row_chain(grid, dest, p, relay_color, dwell)
    except RoutingError as err:
        with pytest.raises(RoutingError) as got:
            grid_chain(*case)
        assert str(got.value) == str(err)
        return
    want = build_chain(rows, absorbing, dwells)
    got = grid_chain(*case)
    assert got.transient == want.transient and got.absorbing == want.absorbing
    for field in ("indptr", "indices", "probs", "dwell"):
        x, y = getattr(got, field), getattr(want, field)
        assert x.dtype == y.dtype and np.array_equal(x, y), field
    # and against the one-entry-at-a-time statement of the normalisation
    for x, y in zip((got.indptr, got.indices, got.probs), row_by_row_build(rows, absorbing)):
        assert np.array_equal(x, y)


def test_solve_factorizes_the_narrow_band_of_the_reordered_chain(monkeypatch):
    # the discovery benchmark's H=10 LIR chain: half-band 203 in state order
    grid = SubcellGrid(GridParams(H=10))
    dest = make_destinations(grid, [(5, 30.0), (5, 210.0)])
    chain = build_lir_chain(grid, dest, 0.7, ProtocolConfig(kind=LIR, p=0.7))
    n = len(chain.transient)
    rows = m3sim.chains._row_ids(chain)
    inner = chain.indices < n
    assert np.max(np.abs(rows[inner] - chain.indices[inner])) == 203
    bands = []
    factor, solve = m3sim.chains._banded_lu()

    def recorded(ab, kl, ku, **kwargs):
        bands.append((ab.shape, kl, ku))
        return factor(ab, kl, ku, **kwargs)

    monkeypatch.setattr(m3sim.chains, "_banded_lu", lambda: (recorded, solve))
    absorption_statistics(chain)
    assert bands == [((3 * 43 + 1, n), 43, 43)]


def test_h32_lir_chain_builds_and_solves_without_a_dense_matrix():
    # one dense (n+a)^2 array of this chain alone would take 321 MB
    grid = SubcellGrid(GridParams(H=32))
    dest = make_destinations(grid, [])
    tracemalloc.start()
    try:
        chain = build_lir_chain(grid, dest, 0.7, ProtocolConfig(kind=LIR, p=0.7))
        stats = absorption_statistics(chain)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(chain.transient) == 6336
    assert np.all(stats.tau > 0.0) and np.all(np.isfinite(stats.var_tau))
    assert_allclose(stats.absorb_probs.sum(axis=1), 1.0, rtol=0, atol=1e-12)
    assert peak < 100e6


@pytest.mark.parametrize(
    "change, message",
    [
        ({"indptr": np.array([0, 2])}, "indptr must run from 0 to 3"),
        ({"indptr": np.array([0, 4, 3])}, "indptr must not decrease"),
        ({"indices": np.array([1, 3, 2])}, r"column indices must lie in \[0, 3\)"),
        ({"indices": np.array([2, 1, 2])}, "strictly increase"),
        ({"indices": np.array([1, 1, 2])}, "strictly increase"),
        ({"probs": np.ones(2)}, "equal length"),
        ({"dwell": np.ones(3)}, "one entry per transient state"),
        ({"transient": ("s", "s")}, "labels must be distinct"),
    ],
)
def test_chain_rejects_malformed_rows(change, message):
    fields = {
        "transient": ("s", "t"),
        "absorbing": ("done",),
        "indptr": np.array([0, 2, 3]),
        "indices": np.array([1, 2, 0]),
        "probs": np.array([0.5, 0.5, 1.0]),
        "dwell": np.ones(2),
    }
    m3sim.chains.AbsorbingChain(**fields)  # a row may start below the previous row's end
    with pytest.raises(ChainError, match=message):
        m3sim.chains.AbsorbingChain(**fields | change)
