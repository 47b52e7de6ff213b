"""Route discovery: transition laws, chain builders, extraction, scheduling."""

import math
import random
from collections import Counter
from dataclasses import replace

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from m3sim import routing
from m3sim.chains import NO_ROUTE, absorption_statistics
from m3sim.grid import NUM_COLORS, Destinations, GridParams, SubcellGrid, make_destinations
from m3sim.routing import (
    COORD,
    FALLBACK,
    LAR,
    LIR,
    MDR,
    MLIR,
    MMDR,
    ProtocolConfig,
    Route,
    RouteSet,
    RoutingError,
    ScenarioOverlay,
    build_lir_chain,
    build_mdr_chain,
    coordinated_color_population,
    coordination_probability,
    extract_routes,
    rank_probabilities,
    schedule,
    start_state,
)

GRID4 = SubcellGrid(GridParams(H=4))
DEST4 = make_destinations(GRID4)


def slot_of(route_set):
    """Slot of every scheduled link."""
    return {link: s for s, links in route_set.slots.items() for link in links}

# deterministic overlay reused across scheduling tests: six active sources,
# six unavailable relays, coordinated relays pinned to color 1
OVERLAY = ScenarioOverlay(
    sources=(25, 39, 41, 43, 44, 45),
    unavailable=frozenset({4, 7, 9, 11, 12, 17}),
    k0=1,
)


def test_rank_probabilities_geometric_law():
    probs, residual = rank_probabilities(0.8, 6)
    assert probs == pytest.approx([0.8, 0.16, 0.032, 0.0064, 0.00128, 0.000256])
    assert residual == pytest.approx(0.2**6)
    assert sum(probs) + residual == pytest.approx(1.0)
    with pytest.raises(RoutingError):
        rank_probabilities(1.2, 6)


def test_coordination_probability():
    assert coordination_probability(0.9, 9) == pytest.approx(0.9**9)
    assert coordination_probability(0.5, 0) == 1.0
    with pytest.raises(RoutingError):
        coordination_probability(0.5, -1)


def test_coordinated_color_population():
    # 60 ring subcells split 6/9/9/9/9/9/9 over the colors; the center's
    # class is the small one and it is color 0
    assert coordinated_color_population(GRID4, DEST4) == 9
    assert coordinated_color_population(GRID4, DEST4, relay_color=0) == 6


def test_mdr_chain_certain_relay_walks_straight_in():
    grid = SubcellGrid(GridParams(H=2))
    dest = make_destinations(grid)
    chain = build_mdr_chain(grid, dest, p=1.0)
    stats = absorption_statistics(chain)
    for cell in grid.cells[1:]:
        k = chain.transient_index(cell.i)
        assert stats.tau[k] == pytest.approx(cell.h)
        assert stats.absorb_probs[k, 0] == pytest.approx(1.0)
    assert chain.absorbing == (0, NO_ROUTE)


def test_mdr_chain_dwell_and_no_route_mass():
    grid = SubcellGrid(GridParams(H=2))
    dest = make_destinations(grid)
    unit = absorption_statistics(build_mdr_chain(grid, dest, p=0.7))
    slot = absorption_statistics(build_mdr_chain(grid, dest, p=0.7, dwell=7.0))
    assert slot.tau == pytest.approx(7.0 * unit.tau)
    # some probability always leaks to the no-route absorber when p < 1
    assert float(unit.absorb_dist[-1]) > 0.0
    assert float(unit.absorb_dist.sum()) == pytest.approx(1.0)


def test_lir_chain_doubles_states():
    grid = SubcellGrid(GridParams(H=2))
    dest = make_destinations(grid)
    config = ProtocolConfig(kind=LIR, p=0.9)
    chain = build_lir_chain(grid, dest, p=0.9, config=config)
    assert len(chain.transient) == 2 * 18
    assert (5, COORD) in chain.transient and (5, FALLBACK) in chain.transient
    k_coord = chain.transient_index((5, COORD))
    k_fall = chain.transient_index((5, FALLBACK))
    assert chain.dwell[k_coord] == 1.0
    assert chain.dwell[k_fall] == 7.0
    stats = absorption_statistics(chain)
    assert float(stats.absorb_dist.sum()) == pytest.approx(1.0)


def test_lir_coordination_beats_mdr_when_reliable():
    # with availability this high the coordinated single-slot hops dominate
    grid = SubcellGrid(GridParams(H=2))
    dest = make_destinations(grid)
    mdr = absorption_statistics(build_mdr_chain(grid, dest, p=0.999, dwell=7.0))
    lir = absorption_statistics(
        build_lir_chain(grid, dest, p=0.999, config=ProtocolConfig(kind=LIR, p=0.999))
    )
    k = build_mdr_chain(grid, dest, p=0.999).transient_index(7)
    k2 = build_lir_chain(
        grid, dest, p=0.999, config=ProtocolConfig(kind=LIR, p=0.999)
    ).transient_index((7, COORD))
    assert lir.tau[k2] < mdr.tau[k]


def test_start_state_dispatch():
    assert start_state(ProtocolConfig(kind=MDR), 9) == 9
    assert start_state(ProtocolConfig(kind=MMDR), 9) == 9
    assert start_state(ProtocolConfig(kind=MLIR), 9) == (9, COORD)


def test_greedy_route_descends_to_base_station():
    rs = extract_routes(GRID4, DEST4, ScenarioOverlay(sources=(39,)), ProtocolConfig(kind=MDR))
    route = rs.routes[0]
    assert route.cells == (39, 20, 8, 1, 0)
    assert route.complete and route.reached == 0
    rings = [GRID4.cell(i).h for i in route.cells]
    assert rings == [4, 3, 2, 1, 0]


def test_route_links_are_kept_outside_equality_and_hashing():
    rs = extract_routes(GRID4, DEST4, ScenarioOverlay(sources=(39,)), ProtocolConfig(kind=MDR))
    read = rs.routes[0]
    unread = Route(read.source, read.cells, read.reached, read.link_modes)
    before = (hash(read), repr(read))
    assert read.links == tuple(zip(read.cells, read.cells[1:])) == ((39, 20), (20, 8), (8, 1), (1, 0))
    assert read.links is read.links  # built once, then kept
    assert (hash(read), repr(read)) == before == (hash(unread), repr(unread))
    assert hash(read) == hash((read.source, read.cells, read.reached, read.link_modes))
    assert "links" not in repr(read)
    assert read == unread and unread == read
    assert {read: 1}[unread] == 1
    moved = replace(read, cells=(39, 20, 9))
    assert moved.links == ((39, 20), (20, 9)) and moved != read
    assert Route(9, (9,), None).links == ()


def test_greedy_route_avoids_unavailable_cells():
    blocked = ScenarioOverlay(sources=(39,), unavailable=frozenset({20}))
    route = extract_routes(GRID4, DEST4, blocked, ProtocolConfig(kind=MMDR)).routes[0]
    assert route.complete
    assert 20 not in route.cells


def test_color_route_alternates_and_targets_k0():
    rs = extract_routes(GRID4, DEST4, ScenarioOverlay(sources=(25,), k0=1), ProtocolConfig(kind=MLIR))
    route = rs.routes[0]
    assert route.cells == (25, 12, 3, 0)
    assert route.link_modes == (COORD, FALLBACK, FALLBACK)
    for (tx, rx), mode in zip(route.links, route.link_modes):
        if mode == COORD:
            assert GRID4.cluster_color(GRID4.cell(rx)) == 1
    assert rs.k0 == 1


def test_color_route_auto_k0_completes_sources():
    rs = extract_routes(GRID4, DEST4, ScenarioOverlay(sources=(25, 41)), ProtocolConfig(kind=MLIR))
    assert rs.k0 is not None
    assert all(r.complete for r in rs.routes)


@settings(max_examples=60, deadline=None, derandomize=True)
@given(st.integers(1, 16), st.data())
def test_unpinned_routes_take_the_color_whose_class_the_lir_chain_sizes(h, data):
    grid = SubcellGrid(GridParams(H=h))
    aps = data.draw(st.lists(st.integers(1, len(grid.cells) - 1), max_size=2, unique=True))
    bs = grid.cell(0) if not aps or data.draw(st.booleans()) else None
    dest = Destinations(bs=bs, aps=tuple(grid.cell(a) for a in aps))
    pops = grid.color_populations(exclude=dest.indices())
    overlay = ScenarioOverlay(sources=tuple(c for c in range(len(grid.cells)) if c not in dest.indices()))
    for kind in (LIR, MLIR):
        k0 = extract_routes(grid, dest, overlay, ProtocolConfig(kind=kind)).k0
        assert pops[k0] == coordinated_color_population(grid, dest)
        assert pops.index(pops[k0]) == k0
    # without fallback, the unpinned color's routes are the pinned ones, or a stranding error naming it
    strict = ProtocolConfig(kind=MLIR, allow_fallback=False)
    routes = extract_routes(grid, dest, replace(overlay, k0=k0), strict).routes
    if all(r.complete for r in routes):
        assert extract_routes(grid, dest, overlay, strict).routes == routes
    else:
        with pytest.raises(RoutingError, match=rf"relay color {k0} \(reuse type {k0 + 1}\) .*fallback is disabled"):
            extract_routes(grid, dest, overlay, strict)


def test_fallback_disabled_strands_boxed_source():
    grid = SubcellGrid(GridParams(H=2))
    dest = make_destinations(grid)
    walls = frozenset(n.i for n in grid.neighbors(grid.cell(7)))
    boxed = ScenarioOverlay(sources=(7,), unavailable=walls)
    with pytest.raises(RoutingError, match="fallback"):
        extract_routes(grid, dest, boxed, ProtocolConfig(kind=MLIR, allow_fallback=False))
    rs = extract_routes(grid, dest, boxed, ProtocolConfig(kind=MLIR))
    assert not rs.routes[0].complete and rs.routes[0].reached is None


def test_lar_diverts_around_loaded_relay():
    pair = ScenarioOverlay(sources=(21, 40))
    mdr = extract_routes(GRID4, DEST4, pair, ProtocolConfig(kind=MDR))
    lar = extract_routes(GRID4, DEST4, pair, ProtocolConfig(kind=LAR))
    assert lar.routes[0].cells == mdr.routes[0].cells
    assert mdr.routes[1].cells == (40, 21, 9, 1, 0)
    assert lar.routes[1].cells == (40, 21, 8, 1, 0)  # 9 already carries traffic


def test_overlay_validation():
    with pytest.raises(RoutingError):
        ScenarioOverlay(sources=(5,), unavailable=frozenset({5}))
    with pytest.raises(RoutingError):
        ScenarioOverlay(sources=(5, 5))
    with pytest.raises(RoutingError):
        ScenarioOverlay(sources=(5,), k0=9)
    with pytest.raises(RoutingError):
        extract_routes(GRID4, DEST4, ScenarioOverlay(sources=(0,)), ProtocolConfig(kind=MDR))
    with pytest.raises(RoutingError):
        extract_routes(GRID4, DEST4, ScenarioOverlay(sources=(99,)), ProtocolConfig(kind=MDR))


def test_protocol_config_validation():
    with pytest.raises(RoutingError):
        ProtocolConfig(kind="DSR")
    with pytest.raises(RoutingError):
        ProtocolConfig(p=1.5)
    with pytest.raises(RoutingError):
        ProtocolConfig(relay_color=7)
    # NaN would pass a plain < 0 guard and silently turn off distance conflicts
    for threshold in (-0.5, math.nan):
        with pytest.raises(RoutingError, match="threshold"):
            ProtocolConfig(interference_threshold=threshold)


def test_round_robin_schedule_keys_slots_by_transmitter_color():
    config = ProtocolConfig(kind=MDR)
    rs = schedule(extract_routes(GRID4, DEST4, OVERLAY, config), config, GRID4)
    assert rs.cycle_length == 7
    for slot, links in rs.slots.items():
        for tx, _ in links:
            assert GRID4.cluster_color(GRID4.cell(tx)) == slot


def test_mmdr_schedule_is_conflict_free_and_compact():
    config = ProtocolConfig(kind=MMDR)
    rs = schedule(extract_routes(GRID4, DEST4, OVERLAY, config), config, GRID4)
    assert 0 < rs.cycle_length <= 7
    for links in rs.slots.values():
        for a in links:
            for b in links:
                if a >= b:
                    continue
                assert not set(a) & set(b)
                assert math.sqrt(GRID4.squared_step_distance(GRID4.cell(a[0]), GRID4.cell(b[1]))) > 1.0
                assert math.sqrt(GRID4.squared_step_distance(GRID4.cell(b[0]), GRID4.cell(a[1]))) > 1.0


def test_mlir_schedule_coordinated_slots_then_round_robin():
    config = ProtocolConfig(kind=MLIR)
    rs = schedule(extract_routes(GRID4, DEST4, OVERLAY, config), config, GRID4)
    coord_slots = rs.cycle_length - 7
    assert coord_slots >= 1
    slots = slot_of(rs)
    for route in rs.routes:
        for link, mode in zip(route.links, route.link_modes):
            if mode == COORD:
                assert slots[link] < coord_slots
    # links sharing a coordinated slot never touch a common subcell
    for s in range(coord_slots):
        links = rs.slots[s]
        for a in links:
            for b in links:
                if a < b:
                    assert not set(a) & set(b)


def test_single_route_needs_one_coordinated_slot():
    config = ProtocolConfig(kind=MLIR)
    rs = schedule(
        extract_routes(GRID4, DEST4, ScenarioOverlay(sources=(25,), k0=1), config), config, GRID4
    )
    assert rs.cycle_length == 8
    assert rs.slots[0] == [(25, 12)]


# -- schedule properties over generated overlays ------------------------------

GRIDS = {h: SubcellGrid(GridParams(H=h)) for h in range(1, 9)}


@st.composite
def scheduled(draw, kinds):
    """A random H in 2..6 with random sources and unavailable relays, scheduled."""
    grid = GRIDS[draw(st.integers(2, 6))]
    cells = range(1, len(grid.cells))
    sources = draw(st.lists(st.sampled_from(cells), min_size=1, max_size=12, unique=True))
    free = sorted(set(cells) - set(sources))
    unavailable = draw(st.frozensets(st.sampled_from(free), max_size=len(free) // 3))
    config = ProtocolConfig(
        kind=draw(st.sampled_from(kinds)),
        interference_threshold=draw(st.sampled_from((1.0, 1.5, 2.0))),
    )
    overlay = ScenarioOverlay(sources=tuple(sources), unavailable=unavailable)
    dest = make_destinations(grid)
    return grid, config, schedule(extract_routes(grid, dest, overlay, config), config, grid)


@settings(max_examples=25, deadline=None)
@given(scheduled((MDR, MMDR, LIR, MLIR, LAR)))
def test_every_route_link_sits_in_exactly_one_slot(case):
    _, _, rs = case
    placed = Counter(link for links in rs.slots.values() for link in links)
    assert set(placed) == {link for route in rs.routes for link in route.links}
    assert set(placed.values()) <= {1}


def _conflicts(grid, a, b, threshold):
    """Two links may not share a slot when they touch or sit too close."""
    (t1, r1), (t2, r2) = a, b
    if len({t1, r1, t2, r2}) < 4:
        return True
    z1 = math.sqrt(grid.squared_step_distance(grid.cell(t1), grid.cell(r2)))
    z2 = math.sqrt(grid.squared_step_distance(grid.cell(t2), grid.cell(r1)))
    return z1 <= threshold or z2 <= threshold


def _ref_mmdr_first_fit(grid, routes, threshold):
    """mMDR slots by testing each link against every link already assigned."""
    links = list(dict.fromkeys(link for route in routes for link in route.links))
    assigned, slots = {}, {}
    for link in links:
        used = {assigned[other] for other in assigned if _conflicts(grid, link, other, threshold)}
        slot = next(s for s in range(len(links) + 1) if s not in used)
        assigned[link] = slot
        slots.setdefault(slot, []).append(link)
    return slots, max(slots) + 1 if slots else 0


THRESHOLDS = (0.0, 1.0, 1.5, math.sqrt(3.0), 2.0, 2.5, 7.3, 1e6, math.inf)


@st.composite
def mmdr_case(draw):
    """Random H in 1..8, sources, unavailable relays and interference threshold."""
    grid = GRIDS[draw(st.integers(1, 8))]
    cells = range(1, len(grid.cells))
    sources = draw(st.lists(st.sampled_from(cells), min_size=1, max_size=16, unique=True))
    free = sorted(set(cells) - set(sources))
    unavailable = frozenset(draw(st.lists(st.sampled_from(free), max_size=len(free) // 3))) if free else frozenset()
    config = ProtocolConfig(kind=MMDR, interference_threshold=draw(st.sampled_from(THRESHOLDS)))
    return grid, ScenarioOverlay(sources=tuple(sources), unavailable=unavailable), config


@settings(max_examples=150, deadline=None, derandomize=True)
@given(mmdr_case())
def test_mmdr_schedule_matches_pairwise_first_fit(case):
    grid, overlay, config = case
    rs = schedule(extract_routes(grid, make_destinations(grid), overlay, config), config, grid)
    expected = _ref_mmdr_first_fit(grid, rs.routes, config.interference_threshold)
    assert (rs.slots, rs.cycle_length) == expected


@settings(max_examples=25, deadline=None)
@given(scheduled((MMDR,)))
def test_mmdr_slots_hold_no_conflicting_links(case):
    grid, config, rs = case
    for links in rs.slots.values():
        for i, a in enumerate(links):
            for b in links[i + 1 :]:
                assert not _conflicts(grid, a, b, config.interference_threshold)


@settings(max_examples=25, deadline=None)
@given(scheduled((MDR, LAR)))
def test_round_robin_slot_is_the_transmitter_color(case):
    grid, _, rs = case
    for slot, links in rs.slots.items():
        for tx, _ in links:
            assert slot == grid.cluster_color(grid.cell(tx))


@settings(max_examples=25, deadline=None)
@given(scheduled((LIR, MLIR)))
def test_coordinated_slots_share_no_subcell(case):
    _, _, rs = case
    slots = slot_of(rs)
    coordinated = {
        slots[link]
        for route in rs.routes
        for link, mode in zip(route.links, route.link_modes)
        if mode == COORD
    }
    for slot in coordinated:
        cells = [cell for link in rs.slots[slot] for cell in link]
        assert len(cells) == len(set(cells))



def _ref_lir_slots(grid, routes):
    """LIR/mLIR slots by testing each coordinated link against every member of each group."""
    links = list(dict.fromkeys(link for route in routes for link in route.links))
    coord_links = {
        link for route in routes for link, mode in zip(route.links, route.link_modes) if mode == COORD
    }
    groups = []
    for link in sorted(coord_links):
        for group in groups:
            if all(not set(link) & set(other) for other in group):
                group.append(link)
                break
        else:
            groups.append([link])
    slots = {s: list(group) for s, group in enumerate(groups)}
    fallback_links = [link for link in links if link not in coord_links]
    for link in fallback_links:
        slots.setdefault(len(groups) + grid.colors[link[0]], []).append(link)
    return slots, len(groups) + (NUM_COLORS if fallback_links else 0)


@st.composite
def hop_routes(draw):
    """Random walks over adjacent cells of an H = 1..4 grid, each hop coordinated or not.

    Walks cross and turn back, so coordinated links share receivers and
    cells both send and receive.
    """
    grid = GRIDS[draw(st.integers(1, 4))]
    routes = []
    for _ in range(draw(st.integers(1, 12))):
        cells = [draw(st.integers(0, len(grid.cells) - 1))]
        for _ in range(draw(st.integers(1, 5))):
            cells.append(draw(st.sampled_from(grid.adjacent[cells[-1]])))
        modes = tuple(draw(st.sampled_from((COORD, FALLBACK))) for _ in cells[1:])
        routes.append(Route(source=cells[0], cells=tuple(cells), reached=cells[-1], link_modes=modes))
    return grid, routes, draw(st.sampled_from((LIR, MLIR)))


def _coord_route(*cells):
    return Route(source=cells[0], cells=cells, reached=cells[-1], link_modes=(COORD,) * (len(cells) - 1))


# cell 1 receives from 2 and sends to 0, and receives again from 6
@example((GRIDS[2], [_coord_route(2, 1, 0), _coord_route(6, 1)], MLIR))
@settings(max_examples=200, deadline=None, derandomize=True)
@given(hop_routes())
def test_coordinated_slots_match_pairwise_grouping(case):
    grid, routes, kind = case
    rs = schedule(RouteSet(routes=routes, kind=kind), ProtocolConfig(kind=kind), grid)
    expected = _ref_lir_slots(grid, routes)
    assert (rs.slots, rs.cycle_length) == expected
    assert list(rs.slots) == list(expected[0])


def test_coordinated_links_on_a_shared_cell_spill_into_new_slots():
    routes = [_coord_route(2, 1, 0), _coord_route(6, 1)]
    rs = schedule(RouteSet(routes=routes, kind=MLIR), ProtocolConfig(kind=MLIR), GRIDS[2])
    assert rs.slots == {0: [(1, 0)], 1: [(2, 1)], 2: [(6, 1)]}
    assert rs.cycle_length == 3


# -- route extraction against the per-protocol loops it replaced --------------


def _ref_admissible(grid, overlay, visited, cell):
    return [n for n in grid.neighbors(cell) if n.i not in overlay.unavailable and n.i not in visited]


def _ref_ranked(grid, dest, cell):
    return [grid.cell(n) for n in grid.rank_table(dest)[cell.i]]


def _ref_greedy_route(grid, dest, overlay, source_idx, load=None):
    dest_idx = dest.indices()
    cells, modes, visited = [source_idx], [], {source_idx}
    current = grid.cell(source_idx)
    for _ in range(len(grid.cells)):
        candidates = _ref_admissible(grid, overlay, visited, current)
        hits = [n for n in candidates if n.i in dest_idx]
        if hits:
            nxt = min(hits, key=lambda n: n.i)
        elif not candidates:
            return Route(source_idx, tuple(cells), None, tuple(modes))
        else:
            ranked = [n for n in _ref_ranked(grid, dest, current) if n in candidates]
            if load is None:
                nxt = ranked[0]
            else:
                nxt = min(ranked, key=lambda n: ((1 + load.get(n.i, 0)) * (ranked.index(n) + 1), n.i))
        cells.append(nxt.i)
        modes.append(FALLBACK)
        if nxt.i in dest_idx:
            return Route(source_idx, tuple(cells), nxt.i, tuple(modes))
        visited.add(nxt.i)
        current = nxt
    return Route(source_idx, tuple(cells), None, tuple(modes))


def _ref_color_route(grid, dest, overlay, source_idx, k0, allow_fallback):
    dest_idx = dest.indices()
    cells, modes, visited = [source_idx], [], {source_idx}
    current = grid.cell(source_idx)
    for _ in range(len(grid.cells)):
        candidates = _ref_admissible(grid, overlay, visited, current)
        hits = [n for n in candidates if n.i in dest_idx]
        if hits:
            nxt, mode = min(hits, key=lambda n: n.i), FALLBACK
        elif not candidates:
            return Route(source_idx, tuple(cells), None, tuple(modes))
        else:
            typed = [n for n in candidates if grid.cluster_color(n) == k0]
            if grid.cluster_color(current) != k0 and typed:
                nxt, mode = typed[0], COORD
            elif grid.cluster_color(current) == k0 or allow_fallback:
                ranked = [n for n in _ref_ranked(grid, dest, current) if n in candidates]
                nxt, mode = ranked[0], FALLBACK
            else:
                return Route(source_idx, tuple(cells), None, tuple(modes))
        cells.append(nxt.i)
        modes.append(mode)
        if nxt.i in dest_idx:
            return Route(source_idx, tuple(cells), nxt.i, tuple(modes))
        visited.add(nxt.i)
        current = nxt
    return Route(source_idx, tuple(cells), None, tuple(modes))


def _ref_unpinned_color(grid, dest):
    """The largest color class of non-destination ring cells, ties to the smaller color."""
    counts = Counter(grid.cluster_color(c) for c in grid.cells[1:] if c.i not in dest.indices())
    return max(range(NUM_COLORS), key=lambda k: (counts[k], -k))


def _ref_extract_routes(grid, dest, overlay, config):
    """Route extraction as three separate loops: greedy, load-aware, color."""
    if config.kind in (MDR, MMDR):
        return [_ref_greedy_route(grid, dest, overlay, s) for s in overlay.sources], None
    if config.kind == LAR:
        load, routes = {}, []
        for src in overlay.sources:
            route = _ref_greedy_route(grid, dest, overlay, src, load=load)
            routes.append(route)
            if route.complete:
                for idx in route.cells[1:-1]:
                    load[idx] = load.get(idx, 0) + 1
        return routes, None
    pinned = overlay.k0 if overlay.k0 is not None else config.relay_color
    k0 = _ref_unpinned_color(grid, dest) if pinned is None else pinned
    routes = [_ref_color_route(grid, dest, overlay, s, k0, config.allow_fallback) for s in overlay.sources]
    if pinned is None and not config.allow_fallback and not all(r.complete for r in routes):
        raise RoutingError("stranded")
    return routes, k0


COLORS = st.one_of(st.none(), st.integers(0, 6))


@st.composite
def extraction_case(draw):
    """Random H in 1..8, destinations, sources, unavailable relays and protocol."""
    grid = GRIDS[draw(st.integers(1, 8))]
    cells = range(1, len(grid.cells))
    aps = draw(st.lists(st.sampled_from(cells), max_size=2, unique=True))
    bs = grid.cell(0) if not aps or draw(st.booleans()) else None
    dest = Destinations(bs=bs, aps=tuple(grid.cell(a) for a in aps))
    free = [c for c in cells if c not in dest.indices()]
    sources = draw(st.lists(st.sampled_from(free), min_size=1, max_size=10, unique=True))
    rest = sorted(set(range(len(grid.cells))) - dest.indices() - set(sources))
    unavailable = frozenset(draw(st.lists(st.sampled_from(rest), max_size=len(rest) // 2))) if rest else frozenset()
    overlay = ScenarioOverlay(sources=tuple(sources), unavailable=unavailable, k0=draw(COLORS))
    config = ProtocolConfig(
        kind=draw(st.sampled_from((MDR, MMDR, LAR, LIR, MLIR))),
        relay_color=draw(COLORS),
        allow_fallback=draw(st.booleans()),
    )
    return grid, dest, overlay, config


@settings(max_examples=150, deadline=None, derandomize=True)
@given(extraction_case())
def test_extract_routes_matches_per_protocol_loops(case):
    grid, dest, overlay, config = case
    try:
        expected = _ref_extract_routes(grid, dest, overlay, config)
    except RoutingError:
        with pytest.raises(RoutingError, match="fallback is disabled"):
            extract_routes(grid, dest, overlay, config)
        return
    rs = extract_routes(grid, dest, overlay, config)
    assert (rs.routes, rs.k0, rs.kind) == (*expected, config.kind)


# -- successor-table extraction against one walk per source -------------------


def _walked(grid, dest, overlay, config):
    """extract_routes by one ``_walk`` per source; an unpinned color is the largest class."""
    dest_idx = dest.indices()

    def walk_all(choose):
        hop = routing._hopper(grid, dest, overlay, choose)
        walks = (routing._walk(hop, dest_idx, s) for s in overlay.sources)
        return [Route(s, cells, reached, modes) for s, (cells, modes, reached) in zip(overlay.sources, walks)]

    if config.kind in (MDR, MMDR):
        return walk_all(routing._nearest), None
    pinned = overlay.k0 if overlay.k0 is not None else config.relay_color
    k0 = _ref_unpinned_color(grid, dest) if pinned is None else pinned
    routes = walk_all(routing._color_hop(grid.colors, k0, config.allow_fallback))
    if pinned is None and not config.allow_fallback and not all(r.complete for r in routes):
        raise RoutingError("fallback is disabled")
    return routes, k0


GRID16 = SubcellGrid(GridParams(H=16))
H16_CONFIGS = [ProtocolConfig(kind=MDR), ProtocolConfig(kind=MMDR)] + [
    ProtocolConfig(kind=kind, relay_color=color, allow_fallback=fallback)
    for kind in (LIR, MLIR)
    for color in (None, 3)
    for fallback in (True, False)
]


def _h16_overlay(share, dest, near_only=False):
    """All sources of GRID16 around a seeded share of unavailable relays.

    ``near_only`` keeps the sources next to a destination, so that
    fallback-free routes complete under every relay color.
    """
    rng = random.Random(f"h16:{share}:{len(dest.aps)}")
    free = [c for c in range(len(GRID16.cells)) if c not in dest.indices()]
    down = frozenset(rng.sample(free, round(share * len(free))))
    sources = [c for c in free if c not in down]
    if near_only:
        targets = dest.absorbing_cells()
        sources = [c for c in sources if min(GRID16.hop_distance(GRID16.cell(c), t) for t in targets) == 1]
    return ScenarioOverlay(sources=tuple(sources), unavailable=down)


@pytest.mark.parametrize(
    "share, aps, near_only",
    [(0.1, [], False), (0.3, [], False), (0.3, [(8, 30.0), (8, 210.0)], False), (0.1, [(8, 30.0), (8, 210.0)], True)],
)
def test_successor_table_routes_equal_one_walk_per_source_at_h16(share, aps, near_only):
    dest = make_destinations(GRID16, aps)
    overlay = _h16_overlay(share, dest, near_only)
    for config in H16_CONFIGS:
        try:
            expected = _walked(GRID16, dest, overlay, config)
        except RoutingError:
            with pytest.raises(RoutingError, match="fallback is disabled"):
                extract_routes(GRID16, dest, overlay, config)
            continue
        rs = extract_routes(GRID16, dest, overlay, config)
        assert (rs.routes, rs.k0) == expected, config
        assert all(r.links == tuple(zip(r.cells, r.cells[1:])) for r in rs.routes)
    lar = ProtocolConfig(kind=LAR)
    assert extract_routes(GRID16, dest, overlay, lar).routes == _ref_extract_routes(GRID16, dest, overlay, lar)[0]


def _table_path(successor, dest_idx, source):
    """Cells of the successor path from ``source``, up to a destination, a dead end or a repeat."""
    cells, prev = [source], None
    while cells[-1] not in dest_idx and cells.count(cells[-1]) == 1:
        step = successor(cells[-1], prev)[1]
        if step is None:
            break
        prev = cells[-1]
        cells.append(step[0])
    return cells


def test_a_successor_path_that_repeats_a_cell_is_walked_at_the_repeat():
    grid = GRIDS[3]
    dest = make_destinations(grid)
    overlay = ScenarioOverlay(sources=(10,), unavailable=frozenset({1, 2, 8}))
    successor = routing._successors(routing._hopper(grid, dest, overlay, routing._nearest))
    # with only the previous cell excluded, 22 would hop back to 9
    assert _table_path(successor, dest.indices(), 10) == [10, 9, 21, 22, 9]
    rs = extract_routes(grid, dest, overlay, ProtocolConfig(kind=MMDR))
    assert rs.routes == [Route(10, (10, 9, 21, 22, 23, 24, 11, 3, 0), 0, (FALLBACK,) * 8)]
    assert rs.routes == _walked(grid, dest, overlay, ProtocolConfig(kind=MMDR))[0]


def test_a_shared_tail_that_comes_back_to_the_route_is_not_copied():
    # 26 -> 25 -> 11 meets the recorded route of 11, whose tail 24, 25, 26, ... holds 25 and 26
    grid = GRIDS[3]
    dest = make_destinations(grid)
    down = frozenset({2, 3, 5, 7, 8, 9, 10, 12, 18, 19, 20, 23, 28, 32})
    overlay = ScenarioOverlay(sources=(11, 26), unavailable=down, k0=5)
    rs = extract_routes(grid, dest, overlay, ProtocolConfig(kind=MLIR))
    assert [r.cells for r in rs.routes] == [(11, 24, 25, 26, 27, 13, 14, 4, 0), (26, 25, 11, 24)]
    assert rs.routes == _walked(grid, dest, overlay, ProtocolConfig(kind=MLIR))[0]
