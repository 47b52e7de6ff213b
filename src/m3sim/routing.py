"""Route discovery protocols over the subcell lattice.

Two probabilistic protocols are modeled as absorbing chains:

* MDR (minimum-distance routing): every hop tries the neighbours in order
  of distance to the nearest destination; the n-th ranked neighbour relays
  with probability p(1-p)**(n-1), where p is the availability of a single
  terminal.  Transmissions ride a K-slot round-robin schedule, so each hop
  dwells K slots.
* LIR (low-interference routing): relaying prefers a coordinated mode in
  which every active transmitter hands over to a relay of one reuse color
  simultaneously, which costs a single slot but requires the whole color
  class to be available at once (probability q = p**N_color).  When
  coordination fails the protocol falls back to a plain minimum-distance
  hop for one round.  The chain doubles every subcell state into
  (coordinated, fallback) copies with dwell times 1 and K.

Their deterministic counterparts mMDR and mLIR route around an explicit
set of unavailable subcells, and LAR (load-aware routing) additionally
spreads routes by penalizing already-loaded relays.
"""

from __future__ import annotations

import math
from collections import defaultdict
from dataclasses import dataclass, field
from typing import Hashable

from .chains import NO_ROUTE, AbsorbingChain, build_chain
from .grid import NUM_COLORS, Destinations, SubcellGrid, SubcellId

MDR = "MDR"
LIR = "LIR"
MMDR = "mMDR"
MLIR = "mLIR"
LAR = "LAR"

KINDS = (MDR, LIR, MMDR, MLIR, LAR)

# LIR state tags: coordinated same-color relaying vs minimum-distance fallback.
COORD = "coord"
FALLBACK = "fallback"


class RoutingError(ValueError):
    """Invalid protocol configuration or unroutable request."""


@dataclass(frozen=True)
class ProtocolConfig:
    """Protocol selection and its knobs.

    ``interference_threshold`` is the center-distance ratio below which two
    links may not share a slot; ``relay_color`` pins the coordinated relay
    color (otherwise the most populated color class is assumed when sizing
    availability, and route extraction searches all colors);
    ``allow_fallback`` lets deterministic mLIR routes fall back to
    minimum-distance hops when no relay of the chosen color is reachable.
    """

    kind: str = MDR
    p: float = 1.0
    interference_threshold: float = 1.0
    relay_color: int | None = None
    allow_fallback: bool = True

    def __post_init__(self):
        if self.kind not in KINDS:
            raise RoutingError(f"unknown protocol kind {self.kind!r}, expected one of {KINDS}")
        if not 0.0 <= self.p <= 1.0:
            raise RoutingError(f"availability p must lie in [0, 1], got {self.p!r}")
        if self.relay_color is not None and not 0 <= self.relay_color < 7:
            raise RoutingError(f"relay color must lie in 0..6, got {self.relay_color!r}")
        if not self.interference_threshold >= 0:
            raise RoutingError(f"interference threshold must be >= 0, got {self.interference_threshold!r}")


@dataclass(frozen=True)
class ScenarioOverlay:
    """Deterministic availability: sources and unavailable subcells by index.

    ``k0`` optionally pins the mLIR relay color.
    """

    sources: tuple[int, ...]
    unavailable: frozenset[int] = frozenset()
    k0: int | None = None
    name: str = ""

    def __post_init__(self):
        if set(self.sources) & self.unavailable:
            raise RoutingError("a source subcell cannot be unavailable")
        if len(set(self.sources)) != len(self.sources):
            raise RoutingError("duplicate source subcells")
        if self.k0 is not None and not 0 <= self.k0 < 7:
            raise RoutingError(f"k0 must lie in 0..6, got {self.k0!r}")


# --------------------------------------------------------------------------
# probabilistic transition models


def rank_probabilities(p: float, count: int) -> tuple[list[float], float]:
    """Geometric try-in-order law: n-th ranked candidate gets p(1-p)**(n-1).

    Returns the per-rank probabilities and the residual mass (no candidate
    available) that flows to the no-route state.
    """
    if not 0.0 <= p <= 1.0:
        raise RoutingError(f"availability p must lie in [0, 1], got {p!r}")
    probs = [p * (1.0 - p) ** n for n in range(count)]
    return probs, (1.0 - p) ** count


def mdr_transition_row(
    grid: SubcellGrid,
    dest: Destinations,
    cell: SubcellId,
    p: float,
) -> list[tuple[Hashable, float]]:
    """Outgoing MDR transitions of one subcell: ranked neighbours plus no-route."""
    if cell.i in dest.indices():
        raise RoutingError(f"subcell {cell.i} is a destination, not a relay source")
    ranked = grid.rank_table(dest)[cell.i]
    probs, residual = rank_probabilities(p, len(ranked))
    row: list[tuple[Hashable, float]] = list(zip(ranked, probs))
    row.append((NO_ROUTE, residual))
    return row


def coordination_probability(p: float, n_color: int) -> float:
    """Probability that a whole color class of n_color relays is available at once."""
    if n_color < 0:
        raise RoutingError(f"color population cannot be negative, got {n_color}")
    return p**n_color


def coordinated_color_population(
    grid: SubcellGrid, dest: Destinations, relay_color: int | None = None
) -> int:
    """Size of the color class that must be simultaneously available.

    Counted over ring subcells that are not destinations.  When no color is
    pinned the largest class is used, ties resolving to the smaller color.
    """
    pops = grid.color_populations(exclude=dest.indices())
    if relay_color is not None:
        return pops[relay_color]
    return max(pops)


def lir_transition_rows(
    grid: SubcellGrid,
    dest: Destinations,
    cell: SubcellId,
    p: float,
    n_color: int,
) -> dict[str, list[tuple[Hashable, float]]]:
    """Outgoing LIR transitions for both copies of one subcell state.

    From the coordinated copy, the n-th ranked neighbour receives
    q(1-q)**(n-1), split between staying coordinated (weight 1 - q0) and
    dropping to fallback (weight q0), where q = p**n_color and q0 is the
    residual of the coordinated law; the residual itself is lost to
    no-route.  The fallback copy relays by the plain availability law and
    returns to the coordinated copy with weight 1 - q0.  Destination
    neighbours absorb regardless of mode.
    """
    dest_idx = dest.indices()
    if cell.i in dest_idx:
        raise RoutingError(f"subcell {cell.i} is a destination, not a relay source")
    ranked = grid.rank_table(dest)[cell.i]
    q = coordination_probability(p, n_color)
    coord_probs, coord_residual = rank_probabilities(q, len(ranked))
    fall_probs, fall_residual = rank_probabilities(p, len(ranked))

    def target(neighbor: int, mode: str) -> Hashable:
        return neighbor if neighbor in dest_idx else (neighbor, mode)

    coord_row: list[tuple[Hashable, float]] = []
    fall_row: list[tuple[Hashable, float]] = []
    for n, cp, fp in zip(ranked, coord_probs, fall_probs):
        coord_row.append((target(n, COORD), cp * (1.0 - coord_residual)))
        coord_row.append((target(n, FALLBACK), cp * coord_residual))
        fall_row.append((target(n, FALLBACK), fp * coord_residual))
        fall_row.append((target(n, COORD), fp * (1.0 - coord_residual)))
    coord_row.append((NO_ROUTE, coord_residual))
    fall_row.append((NO_ROUTE, fall_residual))
    return {COORD: coord_row, FALLBACK: fall_row}


def build_mdr_chain(
    grid: SubcellGrid,
    dest: Destinations,
    p: float,
    dwell: float = 1.0,
) -> AbsorbingChain:
    """MDR absorbing chain over all non-destination subcells.

    Absorbing states are the access points (in placement order), the base
    station, then no-route; state labels are linear subcell indices.
    """
    dest_idx = dest.indices()
    rows = {}
    for cell in grid.cells:
        if cell.i in dest_idx:
            continue
        rows[cell.i] = mdr_transition_row(grid, dest, cell, p)
    absorbing = [c.i for c in dest.absorbing_cells()] + [NO_ROUTE]
    return build_chain(rows, absorbing, dwell)


def build_lir_chain(
    grid: SubcellGrid,
    dest: Destinations,
    p: float,
    config: ProtocolConfig,
) -> AbsorbingChain:
    """LIR absorbing chain with doubled (coordinated, fallback) subcell states.

    Walks start in the coordinated copy; a coordinated state dwells one slot
    and a fallback state the round-robin cycle.
    """
    dest_idx = dest.indices()
    n_color = coordinated_color_population(grid, dest, config.relay_color)
    rows = {}
    dwell = {}
    for cell in grid.cells:
        if cell.i in dest_idx:
            continue
        pair = lir_transition_rows(grid, dest, cell, p, n_color)
        rows[(cell.i, COORD)] = pair[COORD]
        dwell[(cell.i, COORD)] = 1.0
        rows[(cell.i, FALLBACK)] = pair[FALLBACK]
        dwell[(cell.i, FALLBACK)] = float(NUM_COLORS)
    absorbing = [c.i for c in dest.absorbing_cells()] + [NO_ROUTE]
    return build_chain(rows, absorbing, dwell)


def start_state(config: ProtocolConfig, cell_index: int) -> Hashable:
    """Chain state in which a walk from the given subcell begins."""
    return (cell_index, COORD) if config.kind in (LIR, MLIR) else cell_index


# --------------------------------------------------------------------------
# deterministic route extraction


@dataclass(frozen=True)
class Route:
    """One extracted route: subcell index sequence from source to destination.

    ``reached`` is the destination index (None when the route dead-ends) and
    ``link_modes`` tags each hop with its scheduling mode (COORD hops ride
    the single coordinated slot, FALLBACK hops the round-robin cycle).
    ``links`` pairs consecutive cells; it is built once, at construction,
    and takes no part in equality, hashing or the repr.
    """

    source: int
    cells: tuple[int, ...]
    reached: int | None
    link_modes: tuple[str, ...] = ()
    links: tuple[tuple[int, int], ...] = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        object.__setattr__(self, "links", tuple(zip(self.cells, self.cells[1:])))

    @property
    def complete(self) -> bool:
        return self.reached is not None


@dataclass
class RouteSet:
    """Routes of one scenario plus their slot schedule once assigned."""

    routes: list[Route]
    kind: str
    k0: int | None = None
    slots: dict[int, list[tuple[int, int]]] = field(default_factory=dict)
    cycle_length: int = 0

    @property
    def complete_routes(self) -> list[Route]:
        return [r for r in self.routes if r.complete]


def _walk(grid, dest, overlay, source, choose):
    """One deterministic route from ``source``; ``choose`` picks each relay hop.

    A hop considers the available, unvisited neighbours of the current cell.
    A destination among them ends the route there (the lowest index wins);
    no candidate, or ``choose(current, candidates)`` returning None, strands
    the route.  Otherwise ``choose`` returns the next cell and the hop mode.
    Cells are linear indices.  Every hop visits a new cell, so the walk
    always ends.
    """
    dest_idx = dest.indices()
    adjacent, unavailable = grid.adjacent, overlay.unavailable
    cells = [source]
    modes = []
    visited = {source}
    current = source
    while True:
        candidates = [n for n in adjacent[current] if n not in unavailable and n not in visited]
        hits = [n for n in candidates if n in dest_idx]
        if hits:
            reached = min(hits)
            return Route(source, (*cells, reached), reached, (*modes, FALLBACK))
        hop = choose(current, candidates) if candidates else None
        if hop is None:
            return Route(source, tuple(cells), None, tuple(modes))
        current, mode = hop
        cells.append(current)
        modes.append(mode)
        visited.add(current)


def _lar_route(grid, dest, overlay):
    """Load-aware routes: sources routed in order, relay loads updated between.

    The hop cost is (1 + load(target)) * distance rank, so later sources
    divert around relays already carrying traffic.  A single source sees
    zero loads and reproduces the plain minimum-distance route.
    """
    ranks = grid.rank_table(dest)
    load: dict[int, int] = {}

    def least_loaded(current, candidates):
        ranked = enumerate((n for n in ranks[current] if n in candidates), 1)
        _, nxt = min(ranked, key=lambda rn: ((1 + load.get(rn[1], 0)) * rn[0], rn[1]))
        return nxt, FALLBACK

    routes = []
    for src in overlay.sources:
        route = _walk(grid, dest, overlay, src, least_loaded)
        routes.append(route)
        if route.complete:
            for idx in route.cells[1:-1]:
                load[idx] = load.get(idx, 0) + 1
    return RouteSet(routes=routes, kind=LAR)


def _color_routes(grid, dest, overlay, k0, allow_fallback):
    """Alternating color-relay routes: hop to the unique k0 neighbour, then re-aim.

    Every cell has exactly one neighbour of each other reuse color, so a
    coordinated hop is unambiguous; from a k0 cell (or when the k0 relay is
    unavailable and fallback is on) the hop follows the minimum-distance
    rule.  Without fallback such a hop strands the route.
    """
    ranks, colors = grid.rank_table(dest), grid.colors

    def color_hop(current, candidates):
        at_k0 = colors[current] == k0
        typed = [n for n in candidates if colors[n] == k0]
        if not at_k0 and typed:
            return typed[0], COORD
        if at_k0 or allow_fallback:
            return next(n for n in ranks[current] if n in candidates), FALLBACK
        return None

    return [_walk(grid, dest, overlay, s, color_hop) for s in overlay.sources]


def _check_overlay(grid, dest, overlay):
    dest_idx = dest.indices()
    for idx in (*overlay.sources, *overlay.unavailable):
        if not 0 <= idx < len(grid.cells):
            raise RoutingError(f"overlay references unknown subcell {idx}")
    if dest_idx & overlay.unavailable:
        raise RoutingError("destinations cannot be marked unavailable")
    for src in overlay.sources:
        if src in dest_idx:
            raise RoutingError(f"source {src} is already a destination")


def extract_routes(
    grid: SubcellGrid,
    dest: Destinations,
    overlay: ScenarioOverlay,
    config: ProtocolConfig,
) -> RouteSet:
    """Deterministic routes for every overlay source under one protocol.

    MDR/mMDR take the minimum-distance hop among available neighbours; LAR
    additionally weighs relay load; LIR/mLIR alternate hops through relays
    of color k0.  When k0 is not pinned, the color completing the most
    routes wins (ties to the smallest color, evaluated without fallback
    first).  Routes never revisit a subcell; dead ends are returned as
    incomplete routes.
    """
    _check_overlay(grid, dest, overlay)
    if config.kind in (MDR, MMDR):
        ranks = grid.rank_table(dest)

        def nearest(current, candidates):
            return next(n for n in ranks[current] if n in candidates), FALLBACK

        return RouteSet([_walk(grid, dest, overlay, s, nearest) for s in overlay.sources], config.kind)
    if config.kind == LAR:
        return _lar_route(grid, dest, overlay)
    if config.kind not in (LIR, MLIR):
        raise RoutingError(f"no deterministic extraction for protocol {config.kind!r}")

    k0 = overlay.k0 if overlay.k0 is not None else config.relay_color
    if k0 is None:
        # pick the color whose strict (fallback-free) routes complete most sources
        best_color, best_complete = 0, -1
        for color in range(7):
            complete = sum(r.complete for r in _color_routes(grid, dest, overlay, color, False))
            if complete > best_complete:
                best_color, best_complete = color, complete
        if best_complete < len(overlay.sources) and not config.allow_fallback:
            raise RoutingError(
                "every relay color strands at least one source and fallback is disabled"
            )
        k0 = best_color
    routes = _color_routes(grid, dest, overlay, k0, config.allow_fallback)
    return RouteSet(routes=routes, kind=config.kind, k0=k0)


# --------------------------------------------------------------------------
# slot scheduling


def _conflict_offsets(grid, threshold):
    """Axial offsets (dq, dr) != (0, 0) whose center distance is within ``threshold``.

    The distance of an offset h hops long is at least h*sqrt(3)/2, so no
    offset beyond 2*threshold hops qualifies, and none beyond the grid
    diameter 2H separates two cells of the grid.
    """
    H = grid.params.H
    reach = 2 * H if threshold >= H else int(2 * threshold)
    return [
        (dq, dr)
        for dq in range(-reach, reach + 1)
        for dr in range(max(-reach, -dq - reach), min(reach, -dq + reach) + 1)
        if (dq, dr) != (0, 0) and math.sqrt(dq * dq + dr * dr + dq * dr) <= threshold
    ]


def schedule(route_set: RouteSet, config: ProtocolConfig, grid: SubcellGrid) -> RouteSet:
    """Assign every route link to a slot; fills ``slots`` and ``cycle_length``.

    MDR/LAR use the fixed K-slot round robin keyed by transmitter color.
    mMDR greedily colors the link conflict graph (two links conflict when
    they share a subcell or a transmitter sits within the interference
    threshold of the other receiver), giving a cycle of T_min <= K slots.
    LIR/mLIR put all coordinated hops in one slot and round-robin the rest.
    """
    links: list[tuple[int, int]] = []
    coord_links: set[tuple[int, int]] = set()
    seen = set()
    for route in route_set.routes:
        for link, mode in zip(route.links, route.link_modes):
            if link not in seen:
                seen.add(link)
                links.append(link)
            if mode == COORD:
                coord_links.add(link)

    slots: dict[int, list[tuple[int, int]]] = {}

    def put(slot, link):
        slots.setdefault(slot, []).append(link)

    if config.kind in (MDR, LAR):
        for link in links:
            put(grid.colors[link[0]], link)
        cycle = NUM_COLORS
    elif config.kind == MMDR:
        # First fit over the slots each cell already sends and hears in.  A
        # link conflicts with every assigned link that touches its endpoints,
        # whose receiver lies near its transmitter, or whose transmitter lies
        # near its receiver.
        offsets = _conflict_offsets(grid, config.interference_threshold)
        sent: defaultdict[int, set[int]] = defaultdict(set)
        heard: defaultdict[int, set[int]] = defaultdict(set)

        def near(i):
            c = grid.cells[i]
            return [grid.index[a] for a in ((c.q + dq, c.r + dr) for dq, dr in offsets) if a in grid.index]

        for tx, rx in links:
            used = sent[tx].union(
                heard[tx], sent[rx], heard[rx], *(heard[c] for c in near(tx)), *(sent[c] for c in near(rx))
            )
            slot = next(s for s in range(len(links) + 1) if s not in used)
            sent[tx].add(slot)
            heard[rx].add(slot)
            put(slot, (tx, rx))
        cycle = max(slots) + 1 if slots else 0
    elif config.kind in (LIR, MLIR):
        fallback_links = [l for l in links if l not in coord_links]
        # Coordinated handovers share one slot, except that links touching a
        # common subcell (same relay receiving twice, or a cell asked to
        # transmit and receive at once) cannot physically coexist and spill
        # into further coordinated slots: first fit against the cells each
        # coordinated slot already touches.
        touched: list[set[int]] = []
        for tx, rx in sorted(coord_links):
            s = next(
                (s for s, cells in enumerate(touched) if tx not in cells and rx not in cells),
                len(touched),
            )
            if s == len(touched):
                touched.append(set())
            touched[s].update((tx, rx))
            put(s, (tx, rx))
        offset = len(touched)
        for link in fallback_links:
            put(offset + grid.colors[link[0]], link)
        cycle = offset + (NUM_COLORS if fallback_links else 0)
    else:
        raise RoutingError(f"no schedule rule for protocol {config.kind!r}")

    route_set.slots = slots
    route_set.cycle_length = cycle
    return route_set
