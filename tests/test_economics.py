"""Utility accounting, traffic bookkeeping, offloading and the price walk."""

import inspect
import math
import random
import re
import warnings
from dataclasses import dataclass, fields, replace
from functools import partial

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from m3sim import economics
from m3sim.cli import bundled_scenario
from m3sim.compression import climb_topology, full_vector
from m3sim.economics import (
    DEFAULT_USER_SITES,
    EconError,
    EconParams,
    NegotiationError,
    NegotiationResult,
    OffloadContext,
    TrafficState,
    apply_traffic_step,
    cooperation_capacity_ratio,
    expected_network_capacity,
    link_capacities,
    macrocell_utility,
    negotiate,
    negotiate_price,
    offload_breakdown,
    optimize_tessellation,
    route_capacity,
    snap_sites,
    user_utility,
)
from m3sim.chains import absorption_statistics
from m3sim.grid import NUM_COLORS, Destinations, GridParams, SubcellGrid, make_destinations
from m3sim.radio import RadioError, RadioParams, link_capacity, link_sinr
from m3sim.routing import (
    LAR,
    MDR,
    MLIR,
    MMDR,
    ProtocolConfig,
    Route,
    ScenarioOverlay,
    build_mdr_chain,
    extract_routes,
    schedule,
    start_state,
)
from m3sim.scenario import load_scenario

GRID4 = SubcellGrid(GridParams(H=4))


@pytest.fixture(scope="module")
def offload_ctx():
    dest = make_destinations(GRID4, [(3, 250)])
    radio = RadioParams(power=0.15, alpha=2.0, noise=1e-6)
    return OffloadContext(
        grid=GRID4,
        dest=dest,
        radio=radio,
        placements={"u1": 10, "u2": 27, "u4": 15, "u5": 16},
    )


@pytest.fixture(scope="module")
def offload_state():
    return TrafficState(
        bs_users=frozenset({"u1", "u2", "u4"}),
        wlan_users=frozenset({"u5"}),
        offload=frozenset({"u4"}),
    )


# -- utility algebra ---------------------------------------------------------

# Per-route delay, cost and summed-utility oracles: the route algebra that
# macrocell_utility and offload_breakdown fold into their own loops.


@dataclass(frozen=True)
class RouteMetrics:
    """Bottleneck capacity, total slot delay and energy cost of one user's route."""

    user: str
    capacity: float
    delay: float
    cost: float
    routed: bool = True

    @property
    def rate(self) -> float:
        """Capacity per slot of delay and watt of cost; zero when unrouted."""
        if not self.routed or not math.isfinite(self.delay):
            return 0.0
        return self.capacity / (self.delay * self.cost)


def network_utility(metrics, revenue):
    """Sum of per-user utilities; unrouted users contribute nothing."""
    total = 0.0
    for m in metrics:
        if m.routed:
            total += user_utility(m.capacity, m.delay, m.cost, revenue)
    return total


def expected_route_delay(chain, stats, origin, config):
    """Mean slots until absorption for a route-discovery walk from ``origin``.

    Round-robin protocols pay the full cycle per hop on a unit-dwell chain;
    the two-mode chain already carries per-mode dwell times.  Origins that
    can only end at the no-route state get an infinite delay.
    """
    idx = chain.transient_index(start_state(config, origin))
    if stats.absorb_probs[idx, :-1].sum() <= 0.0:
        return math.inf
    tau = float(stats.tau[idx])
    if config.kind in (MDR, MMDR, LAR):
        return NUM_COLORS * tau
    return tau


def scheduled_route_delay(route, cycle_length):
    """Slots to drain a deterministic route: one cycle per hop."""
    if not route.complete:
        return math.inf
    return len(route.links) * cycle_length


def route_cost(route, radio):
    """Transmit energy of one pass over the route (at least one transmission)."""
    return radio.power * max(len(route.links), 1)


def test_user_utility():
    assert user_utility(3.0, 2.0, 1.0, 2.0) == pytest.approx(3.0)
    assert user_utility(0.0, 2.0, 1.0, 2.0) == 0.0
    assert user_utility(3.0, math.inf, 1.0, 2.0) == 0.0
    with pytest.raises(EconError):
        user_utility(3.0, 0.0, 1.0, 2.0)
    with pytest.raises(EconError):
        user_utility(3.0, 2.0, -1.0, 2.0)


def test_network_utility_skips_unrouted():
    routed = RouteMetrics("a", capacity=2.0, delay=4.0, cost=0.5)
    stranded = RouteMetrics("b", capacity=0.0, delay=math.inf, cost=0.5, routed=False)
    assert network_utility([routed, stranded], revenue=2.0) == pytest.approx(2.0)
    assert stranded.rate == 0.0
    assert routed.rate == pytest.approx(1.0)


def test_route_delay_and_cost_helpers():
    route = Route(source=9, cells=(9, 2, 0), reached=0)
    dead = Route(source=9, cells=(9,), reached=None)
    assert scheduled_route_delay(route, 7) == 14.0
    assert scheduled_route_delay(dead, 7) == math.inf
    radio = RadioParams(power=0.2)
    assert route_cost(route, radio) == pytest.approx(0.4)
    assert route_cost(dead, radio) == pytest.approx(0.2)  # at least one transmission


def test_expected_route_delay_pays_cycle_per_hop():
    grid = SubcellGrid(GridParams(H=2))
    dest = make_destinations(grid)
    chain = build_mdr_chain(grid, dest, p=1.0)
    stats = absorption_statistics(chain)
    config = ProtocolConfig(kind=MDR, p=1.0)
    assert expected_route_delay(chain, stats, 7, config) == pytest.approx(14.0)
    assert expected_route_delay(chain, stats, 1, config) == pytest.approx(7.0)


def test_econ_params_validation():
    assert EconParams(mno_revenue=2.0, sso_revenue=1.0).bounds == (1.0, 2.0)
    assert EconParams(price_bounds=(0.05, 2.0)).bounds == (0.05, 2.0)
    with pytest.raises(EconError):
        EconParams(mno_revenue=1.0, sso_revenue=2.0)
    with pytest.raises(EconError):
        EconParams(sso_revenue=0.0, mno_revenue=1.0)
    with pytest.raises(EconError):
        EconParams(price_step=0.0)
    with pytest.raises(EconError, match="finite"):
        EconParams(price_step=math.inf)
    with pytest.raises(EconError):
        EconParams(tol=-1.0)
    with pytest.raises(EconError):
        EconParams(max_iter=0)
    with pytest.raises(EconError):
        EconParams(price_bounds=(0.0, 1.0))
    # every float field is finite
    for kwargs, message in [
        ({"mno_revenue": math.inf}, "MNO revenue must be finite, got inf"),
        ({"mno_revenue": math.nan}, "MNO revenue must be finite, got nan"),
        ({"sso_revenue": math.inf}, "SSO revenue must be finite, got inf"),
        ({"sso_revenue": -math.inf}, "SSO revenue must be finite, got -inf"),
        ({"tol": math.inf}, "tolerance must be finite and positive, got inf"),
        ({"tol": math.nan}, "tolerance must be finite and positive, got nan"),
        ({"price_bounds": (1e-300, math.inf)}, "price bounds must be finite, got (1e-300, inf)"),
        ({"price_bounds": (-math.inf, 1.0)}, "price bounds must be finite"),
        ({"price_bounds": (0.5, math.nan)}, "price bounds must be finite"),
    ]:
        with pytest.raises(EconError, match=re.escape(message)):
            EconParams(**kwargs)


# -- traffic bookkeeping -----------------------------------------------------


def test_apply_traffic_step():
    state = TrafficState(
        bs_users=frozenset({"u1", "u2", "u3"}),
        wlan_users=frozenset({"u5"}),
        bs_arrivals=frozenset({"u4"}),
        wlan_arrivals=frozenset({"u6"}),
        bs_departures=frozenset({"u2"}),
        offload=frozenset({"u3"}),
    )
    bs_next, wlan_next = apply_traffic_step(state)
    assert bs_next == {"u1", "u4"}
    assert wlan_next == {"u5", "u6", "u3"}


def test_traffic_state_validation():
    with pytest.raises(EconError):
        TrafficState(bs_users=frozenset({"u"}), wlan_users=frozenset({"u"}))
    with pytest.raises(EconError):
        TrafficState(bs_users=frozenset({"u"}), bs_arrivals=frozenset({"u"}))
    with pytest.raises(EconError):
        TrafficState(wlan_users=frozenset({"u"}), wlan_departures=frozenset({"v"}))
    with pytest.raises(EconError):
        # offloading a departing user
        TrafficState(
            bs_users=frozenset({"u"}),
            bs_departures=frozenset({"u"}),
            offload=frozenset({"u"}),
        )


# -- macrocell tessellation utility ------------------------------------------


def test_snap_sites_frozen_constellation():
    assert snap_sites(GRID4, DEFAULT_USER_SITES) == [30, 40, 11, 33, 52, 53, 12, 18, 17, 15, 12, 37]
    coarse = SubcellGrid(GridParams(H=2))
    assert snap_sites(coarse, DEFAULT_USER_SITES) == [15, 9, 3, 5, 14, 15, 3, 6, 5, 5, 3, 7]


def test_macrocell_utility_merges_colocated_users():
    sites = tuple(DEFAULT_USER_SITES)
    assert macrocell_utility(4, 0.15, sites=sites + (sites[0],)) == macrocell_utility(
        4, 0.15, sites=sites
    )


def test_macrocell_utility_rises_with_availability():
    low = macrocell_utility(4, 0.15, availability=0.7)
    high = macrocell_utility(4, 0.15, availability=1.0)
    assert 0.0 < low < high


def test_optimize_tessellation_consistency():
    result = optimize_tessellation([2, 3, 4], [0.15])
    assert set(result.surface) == {(2, 0.15), (3, 0.15), (4, 0.15)}
    h_star = result.argmax_h[0.15]
    assert result.surface[(h_star, 0.15)] == max(result.surface.values())
    assert result.best == (h_star, 0.15)
    assert 2 <= result.climb_h[0.15] <= 4
    with pytest.raises(EconError):
        optimize_tessellation([], [0.15])


# Reference search: every site snapped by a scan of all ring subcells, and
# every layer rebuilt for every (H, P) point the sweep or the climb scores.


def _snap_by_scan(grid, sites):
    """Nearest ring subcell of each site by (squared distance, index) over every cell."""
    out = []
    radius = grid.params.R

    def gap(cell, x, y):
        cx, cy = grid.center_position(cell)
        return (cx - x) ** 2 + (cy - y) ** 2, cell.i

    for frac, bearing in sites:
        x = frac * radius * math.cos(math.radians(bearing))
        y = frac * radius * math.sin(math.radians(bearing))
        out.append(min((c for c in grid.cells if c.h > 0), key=lambda c: gap(c, x, y)).i)
    return out


def _utility_per_point(
    h, power, *, sites=DEFAULT_USER_SITES, availability=1.0, macro_radius=1000.0,
    alpha=2.0, noise=1e-4, revenue=2.0,
):
    """One surface point with every layer rebuilt: grid, snap, routes, schedule, chain."""
    grid = SubcellGrid(GridParams(H=h, R=macro_radius))
    dest = Destinations(bs=grid.cell(0))
    radio = RadioParams(power=power, alpha=alpha, noise=noise)
    occupied = sorted(set(_snap_by_scan(grid, sites)))
    config = ProtocolConfig(kind=MDR, p=availability)
    overlay = ScenarioOverlay(sources=tuple(occupied))
    route_set = schedule(extract_routes(grid, dest, overlay, config), config, grid)
    caps = link_capacities(route_set.slots, radio, grid)
    chain = build_mdr_chain(grid, dest, availability)
    stats = absorption_statistics(chain)
    total = 0.0
    for route in route_set.routes:
        cap = route_capacity(route, caps)
        if cap <= 0.0:
            continue
        tau = float(stats.tau[chain.transient_index(route.source)])
        total += user_utility(cap, NUM_COLORS * tau, radio.power * tau, revenue)
    return total


def _optimize_per_point(h_values, powers, **kwargs):
    """The search with one ``_utility_per_point`` per (H, P), the climb's misses too."""
    hs = sorted(set(h_values))
    surface = {}
    for h in hs:
        for p in powers:
            surface[(h, p)] = _utility_per_point(h, p, **kwargs)
    argmax_h, climb_h = {}, {}
    for p in powers:
        argmax_h[p] = max(hs, key=lambda h: (surface[(h, p)], -h))
        cache = {h: surface[(h, p)] for h in hs}

        def utility(h, _power=p, _cache=cache):
            if h not in _cache:
                _cache[h] = _utility_per_point(h, _power, **kwargs)
            return _cache[h]

        climb_h[p] = climb_topology(hs[len(hs) // 2], utility, h_min=min(hs), h_max=max(hs))
    best = max(surface, key=lambda hp: (surface[hp], -hp[0], -hp[1]))
    return surface, argmax_h, climb_h, best


EDGE_SITES = ((0.0, 0.0), (0.15, 60.0), (0.4330127, 30.0), (0.99, 152.0), (1.2, 100.0), (1.3, 245.0))

TESSELLATION_CASES = {
    # the climb starts at 9 and scores 8 and 10, which the sweep leaves out
    "gaps": ([2, 5, 9, 12], [0.1, 0.35], {}),
    "availability": ([2, 3, 4, 5, 6], [0.15, 0.3], {"availability": 0.7}),
    "edge-sites": (
        [3, 4, 6, 7],
        [0.1, 0.3],
        {"sites": EDGE_SITES, "availability": 0.85, "alpha": 2.5, "noise": 1e-5, "revenue": 3.0},
    ),
}


@pytest.mark.parametrize("case", sorted(TESSELLATION_CASES))
def test_tessellation_search_equals_the_per_point_search(case):
    h_values, powers, kwargs = TESSELLATION_CASES[case]
    result = optimize_tessellation(h_values, powers, **kwargs)
    surface, argmax_h, climb_h, best = _optimize_per_point(h_values, powers, **kwargs)
    assert list(result.surface) == list(surface)
    assert result.surface == surface
    assert result.argmax_h == argmax_h
    assert result.climb_h == climb_h
    assert result.best == best
    for h in {h for h, _ in surface}:
        assert macrocell_utility(h, powers[0], **kwargs) == surface[(h, powers[0])]


def test_tessellation_search_builds_power_free_layers_once_per_ring_count(monkeypatch):
    calls = {name: [] for name in ("SubcellGrid", "build_mdr_chain", "absorption_statistics", "link_capacities")}

    def counted(name):
        real = getattr(economics, name)

        def wrapper(*args, **kwargs):
            calls[name].append(args)
            return real(*args, **kwargs)

        monkeypatch.setattr(economics, name, wrapper)

    for name in calls:
        counted(name)
    powers = [0.1, 0.2, 0.35]
    result = optimize_tessellation([2, 5, 9, 12], powers)
    built = [params.H for params, in calls["SubcellGrid"]]
    # the sweep, plus the depths the climb scored next to its path
    assert {2, 5, 9, 12} | set(result.climb_h.values()) <= set(built)
    assert len(built) == len(set(built)) > 4
    assert len(calls["build_mdr_chain"]) == len(calls["absorption_statistics"]) == len(built)
    priced = [(grid.params.H, radio.power) for _, radio, grid in calls["link_capacities"]]
    assert len(priced) == len(set(priced)) >= 4 * len(powers)
    assert {h for h, _ in priced} == set(built)


# H 1..16: every grid the snapping properties draw from
SNAP_GRIDS = {h: SubcellGrid(GridParams(H=h)) for h in range(1, 17)}


@st.composite
def boundary_sites(draw, grid):
    """The midpoint of two adjacent centers, or the corner three cells share."""
    a = draw(st.integers(0, len(grid.cells) - 1))
    b = draw(st.sampled_from(grid.adjacent[a]))
    shared = [c for c in grid.adjacent[b] if c in grid.adjacent[a]]
    corner = draw(st.booleans()) and shared
    points = [grid.center_position(grid.cells[i]) for i in (a, b, *(shared[:1] if corner else ()))]
    x = sum(px for px, _ in points) / len(points)
    y = sum(py for _, py in points) / len(points)
    return math.hypot(x, y) / grid.params.R, math.degrees(math.atan2(y, x))


@st.composite
def snapping_cases(draw):
    grid = SNAP_GRIDS[draw(st.sampled_from(sorted(SNAP_GRIDS)))]
    anywhere = st.tuples(
        st.floats(0.0, 1.3), st.floats(-1e4, 1e4, allow_nan=False, allow_infinity=False)
    )
    sites = draw(st.lists(st.one_of(anywhere, boundary_sites(grid)), min_size=1, max_size=12))
    return grid, sites


@settings(max_examples=400, deadline=None, derandomize=True)
@given(snapping_cases())
def test_snap_sites_matches_the_full_scan(case):
    grid, sites = case
    assert snap_sites(grid, sites) == _snap_by_scan(grid, sites)


@pytest.mark.parametrize("h", sorted(SNAP_GRIDS))
def test_snap_sites_break_exact_ties_toward_the_lower_index(h):
    # On the +x axis (bearing 0, so y is exactly 0) the cells (q, (1-q)/2)
    # and (q, (-1-q)/2) of an odd column q mirror each other: their squared
    # distances to the site are equal to the last bit.
    grid = SNAP_GRIDS[h]
    size = grid.params.subcell_radius
    for q in range(1, h + 1, 2):
        site = (1.5 * q * size / grid.params.R, 0.0)
        pair = (grid.index[(q, (1 - q) // 2)], grid.index[(q, (-1 - q) // 2)])
        assert snap_sites(grid, [site]) == _snap_by_scan(grid, [site]) == [min(pair)]


@pytest.mark.parametrize("h", [32, 48, 64])
def test_snap_sites_matches_the_full_scan_on_deep_grids(h):
    # default site 11 lies off the lattice for every H >= 8; the drawn sites
    # lie outside the macrocell (radius fractions 1.2-1.3) or across the
    # centre (negative fractions, so the bearing points the other way)
    rng = random.Random(h)
    outside = [(rng.uniform(1.2, 1.3), rng.uniform(0.0, 360.0)) for _ in range(4)]
    across = [(-rng.uniform(0.0, 1.3), rng.uniform(-360.0, 360.0)) for _ in range(4)]
    sites = [*DEFAULT_USER_SITES, *outside, *across]
    grid = SubcellGrid(GridParams(H=h))
    assert snap_sites(grid, sites) == _snap_by_scan(grid, sites)


@pytest.mark.parametrize(
    "site",
    [(math.nan, 10.0), (math.inf, 10.0), (-math.inf, 10.0), (1e200, 10.0), (0.5, math.nan)],
    ids=["nan", "inf", "-inf", "overflow", "nan-bearing"],
)
def test_snap_sites_names_a_site_at_no_finite_distance(site):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(EconError, match=re.escape(f"site 1 at {site!r} has no finite squared distance, got ")):
            snap_sites(GRID4, [DEFAULT_USER_SITES[0], site])


# -- availability sweeps -----------------------------------------------------


def test_expected_network_capacity_monotone_in_availability():
    grid = SubcellGrid(GridParams(H=2))
    dest = make_destinations(grid)
    radio = RadioParams(power=0.15, alpha=2.0, noise=1e-6)
    caps = [expected_network_capacity(grid, dest, radio, p) for p in (0.3, 0.6, 0.9)]
    assert 0.0 < caps[0] < caps[1] < caps[2]


def test_cooperation_ratio_pools_operators():
    grid = SubcellGrid(GridParams(H=2))
    dest = make_destinations(grid)
    radio = RadioParams(power=0.15, alpha=2.0, noise=1e-6)
    ratio, single, double = cooperation_capacity_ratio(grid, dest, radio)
    assert single == pytest.approx(0.3)
    assert double == pytest.approx(0.51)
    assert ratio > 1.0


# -- link-capacity table -----------------------------------------------------


def _capacity(grid, radio, tx, rx, interferers):
    return link_capacity(link_sinr(tx, rx, tuple(interferers), radio, grid))


def _rescanned_route_capacity(route, slot_of, radio, grid):
    """Reference: rescan the whole link -> slot map for every link of the route."""
    worst = math.inf
    for tx, rx in route.links:
        slot = slot_of[(tx, rx)]
        others = sorted(
            {a for (a, b), s in slot_of.items() if s == slot and (a, b) != (tx, rx)} - {tx, rx}
        )
        worst = min(worst, _capacity(grid, radio, tx, rx, others))
    return worst


@pytest.mark.parametrize("name", ["default", "offload"])
def test_link_table_matches_rescanned_route_capacity(name):
    scn = load_scenario(bundled_scenario(name))
    dest = Destinations(bs=scn.dest.bs)
    checked = 0
    for overlay in scn.overlays:
        for kind in (MDR, MMDR, MLIR, LAR):
            config = replace(scn.protocol, kind=kind, p=1.0)
            run_overlay = ScenarioOverlay(sources=overlay.sources) if kind == MDR else overlay
            rs = schedule(extract_routes(scn.grid, dest, run_overlay, config), config, scn.grid)
            caps = link_capacities(rs.slots, scn.radio, scn.grid)
            slot_of = {link: s for s, links in rs.slots.items() for link in links}
            for route in rs.complete_routes:
                expected = _rescanned_route_capacity(route, slot_of, scn.radio, scn.grid)
                assert route_capacity(route, caps) == expected
                checked += 1
    assert checked == 4 * sum(len(o.sources) for o in scn.overlays)


@st.composite
def slot_tables(draw):
    """Slots of hops between adjacent subcells on the H=4 grid; a receiver may
    transmit in its own slot."""
    hops = [(tx, rx) for tx in range(1, len(GRID4.cells)) for rx in GRID4.adjacent[tx]]
    links = draw(st.lists(st.sampled_from(hops), max_size=24, unique=True))
    slots = {}
    for link in links:
        slots.setdefault(draw(st.integers(0, 5)), []).append(link)
    return slots


def _by_link(memo):
    return {link: cap for by_link in memo.values() for link, cap in by_link.items()}


@settings(max_examples=60, deadline=None, derandomize=True)
@given(slot_tables())
def test_link_capacities_key_each_link_by_its_co_slot_transmitters(slots):
    radio = RadioParams(power=0.15, alpha=2.0, noise=1e-6)
    expected = _loop_capacities(slots, radio, GRID4)
    memo = {}
    caps = link_capacities(slots, radio, GRID4, memo)
    assert memo == expected
    assert caps == _by_link(expected)
    # a second call finds every link in its slot's entry
    assert link_capacities(slots, radio, GRID4, memo) == caps
    assert memo == expected


def _loop_capacities(slots, radio, grid):
    """Reference: every link through link_sinr, hearing its slot's other
    transmitters in ascending order; by sorted slot transmitters, then link."""
    memo = {}
    for links in slots.values():
        transmitters = tuple(sorted({tx for tx, _ in links}))
        by_link = memo.setdefault(transmitters, {})
        for tx, rx in links:
            by_link[(tx, rx)] = _capacity(grid, radio, tx, rx, [c for c in transmitters if c not in (tx, rx)])
    return memo


def _bundled_schedule(kind):
    scn = load_scenario(bundled_scenario("default"))
    config = replace(scn.protocol, kind=kind)
    rs = schedule(extract_routes(scn.grid, scn.dest, scn.overlays[0], config), config, scn.grid)
    return rs, scn.radio, scn.grid


def _mdr_overlay_schedule():
    """MDR routes from 30 % of the subcells of an H=10 grid: seven colour
    slots of 31 to 38 transmitters each."""
    grid = SubcellGrid(GridParams(H=10))
    cells = range(1, len(grid.cells))
    overlay = ScenarioOverlay(sources=tuple(sorted(random.Random(10).sample(cells, len(cells) * 3 // 10))))
    config = ProtocolConfig(kind=MDR)
    rs = schedule(extract_routes(grid, make_destinations(grid), overlay, config), config, grid)
    return rs, RadioParams(noise=1e-6), grid


@pytest.mark.parametrize(
    "case, paths",
    [
        # the bundled schedule's slots stay below the cut
        *[pytest.param(partial(_bundled_schedule, kind), {"loop"}, id=kind) for kind in (MDR, MMDR, MLIR)],
        pytest.param(_mdr_overlay_schedule, {"slot"}, id="wide-MDR-H10"),
    ],
)
def test_capacity_evaluates_each_scheduled_link_once(monkeypatch, case, paths):
    rs, radio, grid = case()
    calls = []
    real_sinr, real_slot = economics.link_sinr, economics.slot_sinrs

    def counted(tx, rx, interferers, radio, grid):
        calls.append(("loop", (tx, rx)))
        return real_sinr(tx, rx, interferers, radio, grid)

    def counted_slot(table, radio, grid):
        calls.extend(("slot", tuple(link)) for links, _ in table for link in links)
        return real_slot(table, radio, grid)

    monkeypatch.setattr(economics, "link_sinr", counted)
    monkeypatch.setattr(economics, "slot_sinrs", counted_slot)
    economics.network_capacity_throughput(rs, radio, grid)
    scheduled = [link for links in rs.slots.values() for link in links]
    assert len(scheduled) > 1
    assert sorted(link for _, link in calls) == sorted(scheduled)
    assert {path for path, _ in calls} == paths


@pytest.mark.parametrize("kind", [MMDR, MLIR])
def test_link_capacities_equal_the_loop_with_every_subcell_routed(kind):
    # every subcell routed to the base station, mLIR relays pinned to colour 3
    grid = SubcellGrid(GridParams(H=24))
    overlay = ScenarioOverlay(sources=tuple(range(1, len(grid.cells))), k0=3)
    config = ProtocolConfig(kind=kind)
    rs = schedule(extract_routes(grid, make_destinations(grid), overlay, config), config, grid)
    radio = RadioParams()
    assert max(len({tx for tx, _ in links}) for links in rs.slots.values()) >= economics.WIDE_SLOT
    expected = _by_link(_loop_capacities(rs.slots, radio, grid))
    assert link_capacities(rs.slots, radio, grid) == expected


def test_wide_slot_memo_misses_go_to_the_kernel(monkeypatch):
    rs, radio, grid = _mdr_overlay_schedule()
    expected = _loop_capacities(rs.slots, radio, grid)
    assert min(map(len, expected)) >= economics.WIDE_SLOT
    memo = {order: dict(sorted(by_link.items())[::2]) for order, by_link in expected.items()}
    misses = sorted(link for by_link in expected.values() for link in sorted(by_link)[1::2])
    handed, kernel_calls = [], []
    real_slot = economics.slot_sinrs

    def recorded(table, radio, grid):
        kernel_calls.append(len(table))
        handed.extend(link for links, _ in table for link in links)
        return real_slot(table, radio, grid)

    def refused(*args):
        raise AssertionError("a wide slot ran link_sinr")

    monkeypatch.setattr(economics, "slot_sinrs", recorded)
    monkeypatch.setattr(economics, "link_sinr", refused)
    caps = link_capacities(rs.slots, radio, grid, memo)
    assert memo == expected
    assert caps == _by_link(expected)
    assert sorted(handed) == misses
    # one kernel call for the whole slot table, one entry per slot with misses
    assert kernel_calls == [len(expected)]


def test_link_capacities_refuse_a_link_scheduled_twice():
    radio = RadioParams()
    for slots in ({0: [(1, 0)], 1: [(2, 0), (1, 0)]}, {0: [(2, 0), (1, 0), (1, 0)]}):
        with pytest.raises(EconError, match="^link 1->0 is scheduled more than once$"):
            link_capacities(slots, radio, GRID4)


def _silent_slots():
    """One link alone on an H=2 grid whose noise term underflows to 0.0."""
    return {0: [(1, 0)]}, RadioParams(noise=1e-320), SubcellGrid(GridParams(H=2, R=1e-3))


def _silent_wide_slots():
    """Link 1->0 beside 12 ring-4 transmitters: at alpha = 1000 their terms
    at the centre underflow to 0.0, and so does d_r**alpha with d_r < 1."""
    grid = SubcellGrid(GridParams(H=4, R=1.0))
    ring = [c.i for c in grid.ring(4)][::2]
    return {0: [(1, 0)] + [(tx, grid.adjacent[tx][0]) for tx in ring]}, RadioParams(alpha=1000.0), grid


@pytest.mark.parametrize("case, wide", [(_silent_slots, False), (_silent_wide_slots, True)], ids=["loop", "slot"])
def test_link_capacities_name_a_link_without_interference_or_noise(case, wide):
    slots, radio, grid = case()
    assert radio.noise_term(grid.params.relay_distance) == 0.0
    assert (len({tx for tx, _ in slots[0]}) >= economics.WIDE_SLOT) == wide
    with pytest.raises(RadioError, match="^SINR of link 1->0 is not finite"):
        link_capacities(slots, radio, grid)


def test_link_capacities_name_a_narrow_slot_before_a_wide_one():
    # narrow slots run link by link as they come, and the misses of every
    # wide slot go to the kernel afterwards, so the narrow slot's link is
    # named although the wide slot comes first
    slots, radio, grid = _silent_wide_slots()
    slots[1] = [(2, 0)]
    with pytest.raises(RadioError, match="^SINR of link 2->0 is not finite"):
        link_capacities(slots, radio, grid)
    del slots[1]
    with pytest.raises(RadioError, match="^SINR of link 1->0 is not finite"):
        link_capacities(slots, radio, grid)


def _reference_user_capacities(ctx, bs_users, wlan_users):
    """Reference: a WLAN hop is interference-free; a macro hop hears every
    other macro transmitter of its color."""
    grid, domain = ctx.grid, ctx.wlan_domain
    to_bs = Destinations(bs=ctx.dest.bs)
    to_ap = Destinations(bs=None, aps=ctx.dest.aps, coverage=ctx.dest.coverage)
    routes = {}
    for users, dest in ((bs_users, to_bs), (wlan_users, to_ap)):
        for u in users:
            overlay = ScenarioOverlay(sources=(ctx.placements[u],))
            routes[u] = extract_routes(grid, dest, overlay, ProtocolConfig(kind=MDR)).routes[0]

    def on_wlan(link):
        return link[0] in domain and link[1] in domain

    def color(i):
        return grid.cluster_color(grid.cell(i))

    macro_tx = {l[0] for r in routes.values() for l in r.links if not on_wlan(l)}
    out = {}
    for u, route in routes.items():
        caps = []
        for tx, rx in route.links:
            same_color = {a for a in macro_tx if color(a) == color(tx)}
            others = [] if on_wlan((tx, rx)) else sorted(same_color - {tx, rx})
            caps.append(_capacity(grid, ctx.radio, tx, rx, others))
        out[u] = min(caps) if route.complete and caps else 0.0
    return out


def test_offload_user_capacities_match_reference():
    scn = load_scenario(bundled_scenario("offload"))
    ctx = OffloadContext(grid=scn.grid, dest=scn.dest, radio=scn.radio, placements=scn.users)
    for state in scn.steps:
        offload_breakdown(ctx, state)
        for bs_users, wlan_users in ((state.bs_users, state.wlan_users), apply_traffic_step(state)):
            capacities = _reference_user_capacities(ctx, bs_users, wlan_users)
            # each rate is the reference capacity over the oracle's delay * cost
            oracle = _oracle_instant(ctx, bs_users, wlan_users)
            expected = {user: replace(m, capacity=capacities[user]).rate for user, m in oracle.items()}
            # the breakdown memoized both instants, so this reads its records
            assert economics._instant_rates(ctx, bs_users, wlan_users) == expected


# -- offloading --------------------------------------------------------------


def test_offload_context_validation():
    dest = make_destinations(GRID4, [(3, 250)])
    radio = RadioParams()
    with pytest.raises(EconError):
        OffloadContext(grid=GRID4, dest=make_destinations(GRID4), radio=radio, placements={})
    with pytest.raises(EconError):
        OffloadContext(grid=GRID4, dest=dest, radio=radio, placements={"u": 31})
    with pytest.raises(EconError):
        OffloadContext(grid=GRID4, dest=dest, radio=radio, placements={"u": 99})
    # subcell 0 exists: it is the base station, so the destination rule names it
    with pytest.raises(EconError, match="^user 'u' sits on a destination subcell$"):
        OffloadContext(grid=GRID4, dest=dest, radio=radio, placements={"u": 0})


def test_wlan_domain(offload_ctx):
    assert offload_ctx.wlan_domain == frozenset({31, 15, 16, 30, 32, 53, 54})


def test_offload_breakdown_wlan_schedule(offload_ctx, offload_state):
    b = offload_breakdown(offload_ctx, offload_state)
    bs_next, wlan_next = apply_traffic_step(offload_state)
    after = economics._instant_rates(offload_ctx, bs_next, wlan_next)
    caps = _reference_user_capacities(offload_ctx, bs_next, wlan_next)
    assert min(caps.values()) > 0.0
    power = offload_ctx.radio.power

    def rate(user, delay, hops):
        return caps[user] / (delay * (power * hops))

    # after the step u4 joins u5 on the access point: two WLAN link instances
    assert after["u4"] == rate("u4", 2.0, 1)
    assert after["u5"] == rate("u5", 2.0, 1)
    # same one-hop geometry, no co-slot interference: identical rate
    assert after["u4"] == pytest.approx(after["u5"])
    # macro users keep paying the full round robin per hop
    assert after["u1"] == rate("u1", 14.0, 2)
    assert after["u2"] == rate("u2", 21.0, 3)
    assert b.offload_after == pytest.approx(after["u4"])


def test_offload_breakdown_requires_placements(offload_ctx):
    state = TrafficState(bs_users=frozenset({"u1", "ghost"}))
    with pytest.raises(EconError, match="ghost"):
        offload_breakdown(offload_ctx, state)


def test_placements_added_after_the_context_is_built_are_not_seen():
    placements = {"u1": 10, "u2": 27, "u4": 15, "u5": 16}
    dest = make_destinations(GRID4, [(3, 250)])
    radio = RadioParams(power=0.15, alpha=2.0, noise=1e-6)
    ctx = OffloadContext(grid=GRID4, dest=dest, radio=radio, placements=placements)
    econ = EconParams(price_step=0.002, price_bounds=(0.05, 2.0))
    first = TrafficState(
        bs_users=frozenset({"u1", "u2", "u4"}), wlan_users=frozenset({"u5"}), offload=frozenset({"u4"})
    )
    negotiate(ctx, first, econ)  # the route memo now holds the placed cells
    placements["u12"] = 40
    later = TrafficState(bs_users=frozenset({"u1", "u12"}), offload=frozenset({"u12"}))
    with pytest.raises(EconError, match=r"users without placements: \['u12'\]"):
        negotiate(ctx, later, econ)
    with pytest.raises(TypeError):
        ctx.placements["u13"] = 41
    # a context built from the grown placements prices the same step
    fresh = OffloadContext(grid=GRID4, dest=dest, radio=radio, placements=placements)
    assert negotiate(fresh, later, econ).trace


def test_evaluate_offload_ledger(offload_ctx, offload_state):
    econ = EconParams(price_step=0.002, price_bounds=(0.05, 2.0))
    b = offload_breakdown(offload_ctx, offload_state)
    trace = negotiate(offload_ctx, offload_state, econ).trace
    assert len(trace) > 1
    for chi, d_mno, d_sso in trace:
        # Utility ledger of both operators before and after the step at price chi.
        mno_before = econ.mno_revenue * b.bs_before
        mno_after = econ.mno_revenue * b.bs_after + (econ.mno_revenue - chi) * b.offload_after
        sso_before = econ.sso_revenue * b.wlan_before
        sso_after = econ.sso_revenue * b.wlan_after + chi * b.offload_after
        assert d_mno == pytest.approx(mno_after - mno_before)
        assert d_sso == pytest.approx(sso_after - sso_before)

    (cheap, cheap_mno, cheap_sso), (dear, dear_mno, dear_sso) = min(trace), max(trace)
    assert cheap < dear
    assert cheap_mno > dear_mno  # the buyer prefers low prices
    assert cheap_sso < dear_sso  # the seller prefers high ones


# -- price negotiation -------------------------------------------------------

ECON = EconParams(mno_revenue=2.0, sso_revenue=0.5, price_step=0.01)


def test_negotiation_converges_on_linear_offsets():
    result = negotiate_price(lambda chi, s: 3.0 - 2.0 * chi, lambda chi, s: chi, ECON)
    assert result.converged and result.verdict == "offload"
    assert result.crossing == pytest.approx(1.0, abs=1e-9)
    assert result.price == pytest.approx(1.0, abs=1e-9)
    assert result.iterations == 25  # from the midpoint 1.25 down in 0.01 steps


def test_negotiation_accepts_the_opening_offer():
    result = negotiate_price(lambda chi, s: 1.0, lambda chi, s: 1.0, ECON, chi0=0.9)
    assert result.iterations == 0
    assert result.price == 0.9 and result.crossing == 0.9
    assert result.converged
    # only a pinned walk can refuse: a balanced offer above rho still offloads
    wide = replace(ECON, price_bounds=(0.5, 4.0))
    result = negotiate_price(lambda chi, s: 3.0, lambda chi, s: chi, wide, chi0=3.0)
    assert result.converged and result.crossing == 3.0 > wide.mno_revenue
    assert result.verdict == "offload"


def test_negotiation_settles_oscillation_at_the_exact_crossing():
    # equilibrium at 1.005 sits between two grid points; the walk ping-pongs
    result = negotiate_price(lambda chi, s: 1.005, lambda chi, s: chi, ECON, chi0=1.0)
    assert result.converged and result.verdict == "offload"
    assert result.crossing == pytest.approx(1.005)
    assert result.price == pytest.approx(1.0)
    assert result.iterations == 2


def test_negotiation_pinned_above_revenue_means_no_offload():
    result = negotiate_price(lambda chi, s: 3.0, lambda chi, s: chi, ECON)
    assert not result.converged
    assert result.price == 2.0
    assert result.crossing == pytest.approx(3.0)
    assert result.verdict == "no-offload"


def test_negotiation_pinned_below_bounds_still_offloads():
    result = negotiate_price(lambda chi, s: 0.3, lambda chi, s: chi, ECON)
    assert not result.converged
    assert result.price == 0.5
    assert result.crossing == pytest.approx(0.3)
    assert result.verdict == "offload"


def test_negotiation_with_zero_width_bounds_finds_the_crossing():
    # rho == rho1 and no bounds key: the walk cannot leave its opening price
    result = negotiate_price(lambda chi, s: 3.0 - 2.0 * chi, lambda chi, s: chi, EconParams())
    assert result.trace == ((2.0, -1.0, 2.0),)
    assert not result.converged
    assert (result.price, result.crossing, result.verdict) == (2.0, 1.0, "offload")


def test_negotiation_rejects_a_nan_opening_price():
    with pytest.raises(EconError, match="chi0") as err:
        negotiate_price(lambda chi, s: 3.0 - 2.0 * chi, lambda chi, s: chi, ECON, chi0=math.nan)
    assert not isinstance(err.value, NegotiationError)


def test_negotiation_budget_exhaustion():
    tight = EconParams(
        mno_revenue=2.0, sso_revenue=0.5, price_step=0.01, max_iter=3, price_bounds=(0.5, 100.0)
    )
    with pytest.raises(NegotiationError) as err:
        negotiate_price(lambda chi, s: 50.0, lambda chi, s: chi, tight)
    assert len(err.value.trace) == 3


def test_joint_walk_adapts_the_offload_set():
    result = negotiate_price(
        lambda chi, s: len(s) - chi,
        lambda chi, s: chi,
        ECON,
        offload=frozenset({"a"}),
        candidates=("b", "c"),
    )
    assert result.offload == frozenset({"a", "c"})
    assert result.price == pytest.approx(1.24)
    assert result.iterations == 4
    assert result.converged and result.verdict == "offload"


@settings(max_examples=300, deadline=None, derandomize=True)
@given(
    a=st.floats(-10.0, 10.0),
    b=st.floats(-10.0, 10.0),
    o=st.one_of(st.just(0.0), st.floats(0.05, 5.0)),
    lo=st.floats(0.01, 5.0),
    width=st.floats(0.01, 5.0),
    step=st.floats(1e-3, 0.5),
    chi0=st.one_of(st.none(), st.floats(-1.0, 11.0)),
)
def test_negotiation_terminates_at_the_closed_form_crossing(a, b, o, lo, width, step, chi0):
    # For a fixed set both offsets are affine in the price, A - chi*o and
    # B + chi*o, so they cross exactly at chi* = (A - B) / (2o).
    econ = EconParams(price_step=step, price_bounds=(lo, lo + width))
    lo, hi = econ.bounds
    result = negotiate_price(lambda chi, s: a - chi * o, lambda chi, s: b + chi * o, econ, chi0=chi0)
    assert len(result.trace) <= math.ceil((hi - lo) / step) + 3
    if o > 0.0:
        exact = (a - b) / (2.0 * o)
        assert abs(result.price - min(max(exact, lo), hi)) <= step * (1.0 + 1e-9)
        _, d_mno, d_sso = result.trace[-1]
        if abs(d_mno - d_sso) <= econ.tol:
            assert result.crossing == result.price
            assert abs(result.crossing - exact) <= econ.tol / (2.0 * o)
        else:
            assert result.crossing == pytest.approx(exact, rel=1e-12, abs=1e-12)
    else:
        assert result.converged or result.crossing is None


# -- the per-probe walk, the oracle of the array-probed one -------------------


def _per_probe_negotiate_price(delta_mno, delta_sso, econ, *, offload=frozenset(), candidates=(), chi0=None):
    """``negotiate_price`` as it probed one price at a time, kept as the reference."""
    lo, hi = econ.bounds
    step = econ.price_step
    if chi0 is None:
        chi0 = (lo + hi) / 2.0
    elif math.isnan(chi0):
        raise EconError(f"chi0 must be a number, got {chi0!r}")
    chi0 = min(max(chi0, lo), hi)
    current = frozenset(offload)
    pool = tuple(sorted(set(candidates) | current))

    def chi_at(k):
        return min(max(chi0 + k * step, lo), hi)

    def crossing_of(s):
        g0 = delta_mno(0.0, s) - delta_sso(0.0, s)
        g1 = delta_mno(1.0, s) - delta_sso(1.0, s)
        return None if g0 == g1 else g0 / (g0 - g1)

    k, chi = 0, chi_at(0)
    visited = set()
    trace = []
    best = None
    prev = None

    for _ in range(econ.max_iter):
        d_mno = delta_mno(chi, current)
        d_sso = delta_sso(chi, current)
        gap = d_mno - d_sso
        trace.append((chi, d_mno, d_sso))
        if best is None or abs(gap) < abs(best[1]):
            best = (chi, gap, current)

        converged = True
        if abs(gap) <= econ.tol:
            price, crossing = chi, chi
        elif (chi, current) in visited:
            price, _, offered = best
            crossing = price
            if prev[1] == current and (prev[0] > 0) != (gap > 0):
                crossing = crossing_of(current)
            current = offered
        else:
            visited.add((chi, current))
            k_next = k - 1 if d_sso > d_mno else k + 1
            next_set = current
            if candidates:
                next_set = _per_probe_adjust_offload(delta_mno, chi, current, pool, d_mno, d_sso)
            chi_next = chi_at(k_next)
            if chi_next != chi or next_set != current:
                prev = (gap, current)
                k, chi, current = k_next, chi_next, next_set
                continue
            price, crossing, converged = chi, crossing_of(current), False

        no_offload = not converged and (crossing is None or crossing > econ.mno_revenue)
        return NegotiationResult(
            price=price,
            crossing=crossing,
            verdict="no-offload" if no_offload else "offload",
            offload=current,
            iterations=len(trace) - 1,
            converged=converged,
            trace=tuple(trace),
        )

    raise NegotiationError(f"no equilibrium after {econ.max_iter} iterations", trace)


def _per_probe_adjust_offload(delta_mno, chi, current, pool, d_mno, d_sso):
    if d_sso > d_mno:
        additions = [u for u in pool if u not in current]
        if not additions:
            return current
        pick = max(additions, key=lambda u: (delta_mno(chi, current | {u}) - d_mno, u))
        return current | {pick}
    if len(current) > 1:
        members = [u for u in pool if u in current]
        pick = min(members, key=lambda u: (d_mno - delta_mno(chi, current - {u}), u))
        return current - {pick}
    return current


def _affine_walk(walk, terms, econ, offload, candidates, chi0, calls=None):
    """One walk over per-set affine offsets, m + (rho - chi) o and w + chi o.

    Returns the result, or the type, message and trace of the error raised.
    ``calls`` collects each offset call's price argument.
    """
    rho = econ.mno_revenue

    def d_mno(chi, s):
        if calls is not None:
            calls.append(chi)
        m, _, o = terms[s]
        return m + (rho - chi) * o

    def d_sso(chi, s):
        _, w, o = terms[s]
        return w + chi * o

    try:
        return walk(d_mno, d_sso, econ, offload=offload, candidates=candidates, chi0=chi0)
    except EconError as exc:
        return type(exc), str(exc), getattr(exc, "trace", None)


def _assert_walk_matches_the_per_probe_walk(terms, econ, offload, candidates, chi0):
    expected = _affine_walk(_per_probe_negotiate_price, terms, econ, offload, candidates, chi0)
    got = _affine_walk(negotiate_price, terms, econ, offload, candidates, chi0)
    assert type(got) is type(expected)
    if isinstance(expected, NegotiationResult):
        for f in fields(NegotiationResult):
            assert getattr(got, f.name) == getattr(expected, f.name), f.name
    else:
        assert got == expected
    return expected


_OFFSETS = st.one_of(st.sampled_from([-2.0, -0.5, 0.0, 0.25, 1.0, 3.0]), st.floats(-10.0, 10.0))
_SLOPES = st.one_of(st.sampled_from([0.0, 0.5, 1.0, 2.0]), st.floats(0.0, 5.0))


@st.composite
def affine_walks(draw):
    """Per-set affine terms over a pool of 1-5 users, bounds, step, budget and opening price.

    Dyadic terms, bounds and steps let probes land on the exact crossing;
    the budget is small enough that a fine step can exhaust it.
    """
    users = [f"u{i}" for i in range(draw(st.integers(1, 5)))]
    terms = {}
    for mask in range(1, 2 ** len(users)):
        members = frozenset(u for i, u in enumerate(users) if mask >> i & 1)
        terms[members] = (draw(_OFFSETS), draw(_OFFSETS), draw(_SLOPES))
    offload = frozenset(draw(st.sets(st.sampled_from(users), min_size=1)))
    candidates = tuple(sorted(draw(st.sets(st.sampled_from(users)))))
    lo = draw(st.one_of(st.sampled_from([0.25, 0.5, 1.0]), st.floats(0.01, 5.0)))
    width = draw(st.one_of(st.sampled_from([0.0, 1.5, 50.0]), st.floats(0.0, 10.0)))
    econ = EconParams(
        mno_revenue=2.0,
        sso_revenue=1.0,
        price_step=draw(st.one_of(st.sampled_from([1e-6, 1e-3, 0.25, 1.0]), st.floats(1e-6, 1.0))),
        tol=draw(st.sampled_from([1e-9, 1e-3, 0.25])),
        max_iter=draw(st.integers(1, 2000)),
        price_bounds=(lo, lo + width),
    )
    chi0 = draw(st.one_of(st.none(), st.sampled_from([0.5, 1.5]), st.floats(-1.0, 60.0)))
    return terms, econ, offload, candidates, chi0


@settings(max_examples=250, deadline=None, derandomize=True)
@given(affine_walks())
def test_array_probed_walk_matches_the_per_probe_walk(walk):
    _assert_walk_matches_the_per_probe_walk(*walk)


A, B, AB = frozenset("a"), frozenset("b"), frozenset("ab")
# name: (terms per set, offered set, candidates, EconParams knobs, chi0,
#        (price, crossing, offload, converged, probes))
# With rho = 2, gap(chi) = m - w + (2 - 2 chi) o for the terms (m, w, o).
WALKS = {
    # from 0.5 up in quarter steps onto the crossing at 1.5
    "tolerance-hit": (
        {A: (1.0, 0.0, 1.0)}, A, (), {"price_step": 0.25, "price_bounds": (0.5, 2.5)}, 0.5,
        (1.5, 1.5, A, True, 5),
    ),
    # the gap at 1.25 equals the tolerance, which counts as balanced
    "tolerance-edge": (
        {A: (1.0, 0.0, 1.0)}, A, (), {"price_step": 0.25, "tol": 0.5, "price_bounds": (0.5, 2.5)}, 0.5,
        (1.25, 1.25, A, True, 4),
    ),
    # steps of 0.3 straddle 1.5, so the walk turns back onto a probed price
    "cycle": (
        {A: (1.0, 0.0, 1.0)}, A, (), {"price_step": 0.3, "price_bounds": (0.5, 2.5)}, 0.5,
        (1.4, 1.5, A, True, 6),
    ),
    # the crossing at 3.5 lies above the bounds
    "pinned": (
        {A: (5.0, 0.0, 1.0)}, A, (), {"price_step": 0.01, "price_bounds": (0.5, 2.5)}, None,
        (2.5, 3.5, A, False, 101),
    ),
    "zero-width": (
        {A: (1.0, 0.0, 1.0)}, A, (), {"price_step": 0.01, "price_bounds": (1.0, 1.0)}, None,
        (1.0, 1.5, A, False, 1),
    ),
    "budget": (
        {A: (1.0, 0.0, 1.0)}, A, (), {"price_step": 1e-6, "price_bounds": (0.5, 2.5), "max_iter": 700}, 0.5,
        None,
    ),
    # every set trails: the three users shrink to two at 0.75 and to one at
    # 1.0, who walks up alone
    "set-shrinks-to-one": (
        {s: (3.0, 0.0, 1.0) for s in map(frozenset, ("a", "b", "c", "ab", "ac", "bc", "abc"))},
        frozenset("abc"), ("a", "b", "c"),
        {"price_step": 0.25, "price_bounds": (0.05, 3.0)}, 0.5,
        (2.5, 2.5, frozenset("c"), True, 9),
    ),
    # the pair walks down from 1.0, flips at 0.4 and hands over to "b", who
    # walks up to 1.3 and takes "a" back: the pair is at 1.0 again
    "set-revisits-a-run": (
        {AB: (-1.0, 0.0, 1.0), A: (0.5, 0.0, 1.0), B: (0.5, 0.0, 1.0)}, AB, ("a", "b"),
        {"price_step": 0.3, "price_bounds": (0.05, 2.5)}, 1.0,
        (1.3, 1.3, B, True, 7),
    ),
    # the pair flips at 0.4 first; back from 1.3 it walks down onto that flip,
    # so its last two probes straddle its crossing at 0.5
    "set-runs-onto-a-flip": (
        {AB: (-1.0, 0.0, 1.0), A: (0.5, 0.0, 1.0), B: (0.5, 0.0, 1.0)}, AB, ("a", "b"),
        {"price_step": 0.3, "price_bounds": (0.05, 2.5)}, 0.4,
        (1.3, 0.5, B, True, 7),
    ),
    # the pair's gap at 1.0 ties the opening gap of "b" at 1.5: the first stays best
    "set-ties-the-best": (
        {B: (-1.0, 0.0, 0.0), AB: (-1.0, 0.0, 2.0), A: (-2.0, 0.0, 0.0)}, B, ("a", "b"),
        {"price_step": 0.5, "price_bounds": (0.05, 2.5)}, 1.5,
        (1.5, 1.5, B, True, 5),
    ),
}


@pytest.mark.parametrize("name", WALKS)
def test_each_way_a_walk_ends_matches_the_per_probe_walk(name):
    terms, offload, candidates, knobs, chi0, expected = WALKS[name]
    econ = EconParams(mno_revenue=2.0, sso_revenue=1.0, **knobs)
    outcome = _assert_walk_matches_the_per_probe_walk(terms, econ, offload, candidates, chi0)
    if expected is None:
        assert outcome[0] is NegotiationError and len(outcome[2]) == econ.max_iter
        return
    price, crossing, offload, converged, probes = expected
    assert outcome.price == pytest.approx(price)
    assert outcome.crossing == pytest.approx(crossing)
    assert (outcome.offload, outcome.converged, len(outcome.trace)) == (offload, converged, probes)


def test_joint_walk_probes_each_fixed_set_run_as_arrays():
    # The whole pool, offered at 2.0, walks down to its crossing at 0.3 with
    # no user left to add; user "a" alone, offered at 0.1, walks up to its
    # crossing at 2.0 with no user left to drop.
    users = ("a", "b", "c")
    terms = {}
    for mask in range(1, 8):
        members = frozenset(u for i, u in enumerate(users) if mask >> i & 1)
        terms[members] = (0.0, 0.0, 1.0)
    terms[frozenset(users)] = (-1.4, 0.0, 1.0)
    terms[frozenset({"a"})] = (2.0, 0.0, 1.0)
    econ = EconParams(mno_revenue=2.0, sso_revenue=1.0, price_step=0.001, price_bounds=(0.05, 2.5))
    for chi0, offload in ((2.0, frozenset(users)), (0.1, frozenset({"a"}))):
        outcome = _assert_walk_matches_the_per_probe_walk(terms, econ, offload, users, chi0)
        assert outcome.offload == offload and len(outcome.trace) > 1500
        calls = []
        _affine_walk(negotiate_price, terms, econ, offload, users, chi0, calls)
        assert sum(1 for chi in calls if isinstance(chi, float)) < 10
        # each array of a run is twice as long as the one before it
        assert sum(1 for chi in calls if not isinstance(chi, float)) <= math.log2(len(outcome.trace))


def test_negotiate_end_to_end(offload_ctx, offload_state):
    econ = EconParams(price_step=0.002, price_bounds=(0.05, 2.0))
    result = negotiate(offload_ctx, offload_state, econ)
    assert result.verdict in ("offload", "no-offload")
    assert len(result.trace) == result.iterations + 1
    with pytest.raises(EconError):
        negotiate(offload_ctx, offload_state, econ, mode="auction")
    with pytest.raises(EconError):
        negotiate(
            offload_ctx,
            TrafficState(bs_users=frozenset({"u1"})),
            econ,
        )


# -- memoized offload work ---------------------------------------------------


def _fresh_negotiate(ctx, state, econ, mode):
    """Reference: ``negotiate`` with a new context, so no memo, for every breakdown.

    Returns the result and each probed set's breakdown.
    """
    cache = {}

    def breakdown(off):
        if off not in cache:
            fresh = OffloadContext(
                grid=ctx.grid, dest=ctx.dest, radio=ctx.radio, placements=dict(ctx.placements)
            )
            cache[off] = offload_breakdown(fresh, replace(state, offload=off))
        return cache[off]

    def d_mno(chi, off):
        b = breakdown(off)
        return econ.mno_revenue * (b.bs_after - b.bs_before) + (econ.mno_revenue - chi) * b.offload_after

    def d_sso(chi, off):
        b = breakdown(off)
        return econ.sso_revenue * (b.wlan_after - b.wlan_before) + chi * b.offload_after

    candidates = tuple(sorted(state.bs_users - state.bs_departures)) if mode == "price-and-set" else ()
    result = negotiate_price(d_mno, d_sso, econ, offload=state.offload, candidates=candidates)
    return result, cache


def _assert_negotiations_match_fresh_contexts(ctx, steps, econ, mode):
    for state in steps:
        result = negotiate(ctx, state, econ, mode=mode)
        expected, breakdowns = _fresh_negotiate(ctx, state, econ, mode)
        assert result.trace == expected.trace
        assert (result.price, result.crossing, result.verdict, result.iterations) == (
            expected.price,
            expected.crossing,
            expected.verdict,
            expected.iterations,
        )
        for off, b in breakdowns.items():
            assert offload_breakdown(ctx, replace(state, offload=off)) == b


@pytest.mark.parametrize("mode", ["price", "price-and-set"])
def test_memoized_negotiation_matches_fresh_contexts(mode):
    scn = load_scenario(bundled_scenario("offload"))
    ctx = OffloadContext(grid=scn.grid, dest=scn.dest, radio=scn.radio, placements=scn.users)
    _assert_negotiations_match_fresh_contexts(ctx, scn.steps, scn.econ, mode)


@st.composite
def offload_studies(draw):
    """Random access points, placements and two traffic steps on the H=4 grid."""
    # an access point on ring 1 would cover the base station
    aps = draw(st.lists(st.sampled_from(GRID4.cells[7:]), min_size=1, max_size=2, unique=True))
    dest = make_destinations(GRID4, [(a.h, a.theta) for a in aps])
    free = [c.i for c in GRID4.cells if c.h > 0 and c.i not in dest.indices()]
    cells = draw(st.lists(st.sampled_from(free), min_size=3, max_size=7, unique=True))
    placements = {f"u{k}": c for k, c in enumerate(cells)}
    steps = []
    for _ in range(2):
        users = draw(st.permutations(sorted(placements)))
        n_bs = draw(st.integers(2, len(users)))
        bs, wlan = frozenset(users[:n_bs]), frozenset(users[n_bs:])
        offload = draw(st.sets(st.sampled_from(sorted(bs)), min_size=1, max_size=n_bs - 1))
        steps.append(TrafficState(bs_users=bs, wlan_users=wlan, offload=frozenset(offload)))
    radio = RadioParams(power=0.15, alpha=2.0, noise=1e-6)
    ctx = OffloadContext(grid=GRID4, dest=dest, radio=radio, placements=placements)
    return ctx, steps


@settings(max_examples=40, deadline=None, derandomize=True)
@given(offload_studies())
def test_memoized_negotiation_matches_fresh_contexts_on_random_placements(study):
    ctx, steps = study
    econ = EconParams(mno_revenue=2.0, sso_revenue=1.0, price_step=0.02, price_bounds=(0.05, 2.0))
    _assert_negotiations_match_fresh_contexts(ctx, steps, econ, "price-and-set")


@settings(max_examples=40, deadline=None, derandomize=True)
@given(offload_studies())
def test_memoized_link_capacities_match_memo_free_calls(study):
    ctx, steps = study
    econ = EconParams(mno_revenue=2.0, sso_revenue=1.0, price_step=0.02, price_bounds=(0.05, 2.0))
    real = economics.link_capacities
    checked = []

    def compared(slots, radio, grid, memo=None):
        assert memo is ctx._link_caps
        caps = real(slots, radio, grid, memo)
        assert caps == real(slots, radio, grid)
        checked.append(caps)
        return caps

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(economics, "link_capacities", compared)
        for state in steps:
            negotiate(ctx, state, econ, mode="price-and-set")
    assert len(checked) == len(ctx._instants)


@settings(max_examples=40, deadline=None, derandomize=True)
@given(offload_studies())
def test_memoized_negotiation_evaluates_each_link_once_per_slot_transmitter_set(study):
    ctx, steps = study
    econ = EconParams(mno_revenue=2.0, sso_revenue=1.0, price_step=0.02, price_bounds=(0.05, 2.0))
    evaluated = []
    scheduled = set()
    real_sinr, real_slot, real_caps = economics.link_sinr, economics.slot_sinrs, economics.link_capacities

    def counted_sinr(tx, rx, interferers, radio, grid):
        evaluated.append((tx, rx))
        return real_sinr(tx, rx, interferers, radio, grid)

    def counted_slot(table, radio, grid):
        evaluated.extend(link for links, _ in table for link in links)
        return real_slot(table, radio, grid)

    def recorded(slots, radio, grid, memo=None):
        assert memo is ctx._link_caps
        for links in slots.values():
            transmitters = tuple(sorted({tx for tx, _ in links}))
            scheduled.update((tx, rx, transmitters) for tx, rx in links)
        return real_caps(slots, radio, grid, memo)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(economics, "link_sinr", counted_sinr)
        mp.setattr(economics, "slot_sinrs", counted_slot)
        mp.setattr(economics, "link_capacities", recorded)
        for state in steps:
            negotiate(ctx, state, econ, mode="price-and-set")
    assert len(evaluated) == len(scheduled)
    assert sum(map(len, ctx._link_caps.values())) == len(scheduled)
    # no receiver transmits in its own slot, so a link's interferers name
    # its slot's transmitter set: the per-slot memo misses no more often
    assert not any(rx in transmitters for _, rx, transmitters in scheduled)


def _oracle_instant(ctx, bs_users, wlan_users):
    """Reference: one traffic instant's ``RouteMetrics`` by user, from fresh
    routes, an ``on_wlan`` test per link and memo-free link capacities.

    Routes list the base-station users first, each group in name order.  A
    link whose endpoints both sit in the WLAN domain gets a slot of its own
    past the color round robin, numbered by its place among the instant's
    distinct links; every other link sits in its transmitter's color slot.
    """
    domain = ctx.wlan_domain
    to_bs = Destinations(bs=ctx.dest.bs)
    to_ap = Destinations(bs=None, aps=ctx.dest.aps, coverage=ctx.dest.coverage)
    routes = {}
    for users, dest in ((sorted(bs_users), to_bs), (sorted(wlan_users), to_ap)):
        if users:
            overlay = ScenarioOverlay(sources=tuple(sorted({ctx.placements[u] for u in users})))
            extracted = extract_routes(ctx.grid, dest, overlay, ProtocolConfig(kind=MDR)).routes
            by_cell = {r.source: r for r in extracted}
            routes.update((u, by_cell[ctx.placements[u]]) for u in users)

    def on_wlan(link):
        return link[0] in domain and link[1] in domain

    wlan_hops = {user: sum(map(on_wlan, route.links)) for user, route in routes.items()}
    wlan_wait = max(sum(wlan_hops.values()), 1)
    slots = {}
    instances = (link for route in routes.values() for link in route.links)
    for n, link in enumerate(dict.fromkeys(instances)):
        slot = NUM_COLORS + n if on_wlan(link) else ctx.grid.colors[link[0]]
        slots.setdefault(slot, []).append(link)
    caps = link_capacities(slots, ctx.radio, ctx.grid)

    metrics = {}
    for user, route in routes.items():
        hops = len(route.links)
        if not route.complete or not hops:
            metrics[user] = RouteMetrics(user, 0.0, math.inf, ctx.radio.power, routed=False)
            continue
        on = wlan_hops[user]
        metrics[user] = RouteMetrics(
            user=user,
            capacity=route_capacity(route, caps),
            delay=float(on * wlan_wait + (hops - on) * NUM_COLORS),
            cost=ctx.radio.power * hops,
        )
    return metrics


def _oracle_breakdown(ctx, state):
    """Reference: the five rate sums of one offload step, each in name order."""

    def rates(users, metrics):
        return sum(metrics[u].rate for u in sorted(users))

    before = _oracle_instant(ctx, state.bs_users, state.wlan_users)
    bs_next, wlan_next = apply_traffic_step(state)
    after = _oracle_instant(ctx, bs_next, wlan_next)
    return (
        rates(state.bs_users, before),
        rates(state.wlan_users, before),
        rates(bs_next, after),
        rates(wlan_next - state.offload, after),
        rates(state.offload, after),
    )


def _assert_instants_match_the_oracle(ctx, steps, econ):
    """Negotiate every step in both modes, each on a new context, and compare
    every memoized instant and every probed breakdown with the oracle."""
    for mode in ("price", "price-and-set"):
        fresh = replace(ctx)
        states = []
        real = economics.offload_breakdown

        def recorded(ctx, state):
            states.append(state)
            return real(ctx, state)

        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(economics, "offload_breakdown", recorded)
            for state in steps:
                negotiate(fresh, state, econ, mode=mode)
        assert states
        for state in states:
            b = offload_breakdown(fresh, state)
            sums = (b.bs_before, b.wlan_before, b.bs_after, b.wlan_after, b.offload_after)
            assert sums == _oracle_breakdown(fresh, state)
        for (bs_users, wlan_users), instant in fresh._instants.items():
            expected = _oracle_instant(fresh, bs_users, wlan_users)
            assert instant.keys() == expected.keys()
            for user, m in expected.items():
                assert instant[user] == m.rate, user


@settings(max_examples=40, deadline=None, derandomize=True)
@given(offload_studies())
def test_memoized_instants_equal_the_oracle_on_random_placements(study):
    ctx, steps = study
    econ = EconParams(mno_revenue=2.0, sso_revenue=1.0, price_step=0.02, price_bounds=(0.05, 2.0))
    _assert_instants_match_the_oracle(ctx, steps, econ)


def test_memoized_instants_equal_the_oracle_on_the_bundled_scenario():
    scn = load_scenario(bundled_scenario("offload"))
    ctx = OffloadContext(grid=scn.grid, dest=scn.dest, radio=scn.radio, placements=scn.users)
    _assert_instants_match_the_oracle(ctx, scn.steps, scn.econ)


def test_negotiate_extracts_each_direction_and_each_instant_once(monkeypatch):
    scn = load_scenario(bundled_scenario("offload"))
    ctx = OffloadContext(grid=scn.grid, dest=scn.dest, radio=scn.radio, placements=scn.users)
    calls = {"extract_routes": 0, "link_capacities": 0}
    states = []
    sinr_keys = []
    real_sinr = economics.link_sinr

    def keyed_sinr(tx, rx, interferers, radio, grid):
        sinr_keys.append((tx, rx, tuple(interferers)))
        return real_sinr(tx, rx, interferers, radio, grid)

    scheduled = set()
    real_caps = economics.link_capacities

    def keyed_caps(slots, radio, grid, memo=None):
        calls["link_capacities"] += 1
        for links in slots.values():
            transmitters = {tx for tx, _ in links}
            scheduled.update((tx, rx, tuple(sorted(transmitters - {tx, rx}))) for tx, rx in links)
        return real_caps(slots, radio, grid, memo)

    def counted(name):
        real = getattr(economics, name)

        def wrapper(*args):
            calls[name] += 1
            return real(*args)

        monkeypatch.setattr(economics, name, wrapper)

    counted("extract_routes")
    monkeypatch.setattr(economics, "link_sinr", keyed_sinr)
    monkeypatch.setattr(economics, "link_capacities", keyed_caps)
    real_breakdown = economics.offload_breakdown

    def recorded(ctx, state):
        states.append(state)
        return real_breakdown(ctx, state)

    monkeypatch.setattr(economics, "offload_breakdown", recorded)
    for state in scn.steps:
        negotiate(ctx, state, scn.econ, mode="price-and-set")
    instants = {(s.bs_users, s.wlan_users) for s in states} | {apply_traffic_step(s) for s in states}
    assert len(states) > len(scn.steps)
    assert calls["extract_routes"] <= 2
    # each memo miss schedules its instant's links once
    assert calls["link_capacities"] == len(ctx._instants) == len(instants)
    # one SINR per link and set of co-slot transmitters, however many
    # instants schedule it that way
    assert len(sinr_keys) == len(set(sinr_keys))
    assert set(sinr_keys) == scheduled
    assert any(others for _, _, others in sinr_keys)
    evaluated = len(sinr_keys)
    for state in scn.steps:
        negotiate(ctx, state, scn.econ, mode="price-and-set")
    assert len(sinr_keys) == evaluated
    assert calls["link_capacities"] == len(instants)


def test_signature_defaults_come_from_the_dataclasses():
    def default(cls, name):
        return next(f.default for f in fields(cls) if f.name == name)

    expected = {
        (macrocell_utility, "macro_radius"): default(GridParams, "R"),
        (macrocell_utility, "alpha"): default(RadioParams, "alpha"),
        (macrocell_utility, "noise"): default(RadioParams, "noise"),
        (macrocell_utility, "revenue"): default(EconParams, "mno_revenue"),
        (full_vector, "alpha"): default(RadioParams, "alpha"),
    }
    for (fn, name), value in expected.items():
        assert inspect.signature(fn).parameters[name].default == value, (fn.__name__, name)
