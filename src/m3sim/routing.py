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
from dataclasses import InitVar, dataclass, field
from itertools import chain
from typing import Hashable

import numpy as np

from .chains import NO_ROUTE, AbsorbingChain, _pack
# perfbench/spans.py TARGETS times ``build_chain`` at this module attribute,
# though nothing here calls it any more
from .chains import build_chain  # noqa: F401
from .grid import NUM_COLORS, Destinations, SubcellGrid

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
    color (otherwise ``coordinated_color`` picks it, for the LIR chain and
    for route extraction alike); ``allow_fallback`` lets deterministic mLIR
    routes fall back to minimum-distance hops when no relay of the chosen
    color is reachable.
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
        if self.relay_color is not None and not 0 <= self.relay_color < NUM_COLORS:
            raise RoutingError(f"relay color must lie in 0..{NUM_COLORS - 1}, got {self.relay_color!r}")
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
        if self.k0 is not None and not 0 <= self.k0 < NUM_COLORS:
            raise RoutingError(f"k0 must lie in 0..{NUM_COLORS - 1}, got {self.k0!r}")


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


def coordination_probability(p: float, n_color: int) -> float:
    """Probability that a whole color class of n_color relays is available at once."""
    if n_color < 0:
        raise RoutingError(f"color population cannot be negative, got {n_color}")
    return p**n_color


def coordinated_color(grid: SubcellGrid, dest: Destinations, relay_color: int | None = None) -> int:
    """The coordinated relay color: ``relay_color`` when pinned, otherwise the largest class.

    Classes count the ring subcells that are not destinations, and ties
    resolve to the smaller color.  The LIR chain sizes its coordination
    probability with this color's class, and mLIR/LIR routes relay through
    it when neither the overlay nor the protocol pins one.
    """
    if relay_color is not None:
        return relay_color
    pops = grid.color_populations(exclude=dest.indices())
    return pops.index(max(pops))


def coordinated_color_population(
    grid: SubcellGrid, dest: Destinations, relay_color: int | None = None
) -> int:
    """Size of the ``coordinated_color`` class, which must be simultaneously available.

    Counted over ring subcells that are not destinations.
    """
    return grid.color_populations(exclude=dest.indices())[coordinated_color(grid, dest, relay_color)]


def build_mdr_chain(
    grid: SubcellGrid,
    dest: Destinations,
    p: float,
    dwell: float = 1.0,
) -> AbsorbingChain:
    """MDR absorbing chain over all non-destination subcells.

    Absorbing states are the access points (in placement order), the base
    station, then no-route; state labels are linear subcell indices.  A
    subcell's row lists its ranked neighbours, the n-th with p(1-p)**(n-1),
    then no-route with the residual.
    """
    relays, counts, (near,), no_route = _ranked_columns(grid, dest, 1)
    probs, residual = _rank_law(p, counts)
    cols = _then(near, no_route)
    vals = _then(probs, residual)
    live = _then(_RANKS < counts[:, None], True)
    return _grid_chain(tuple(relays.tolist()), dest, cols, vals, live, np.full(relays.size, float(dwell)))


def build_lir_chain(
    grid: SubcellGrid,
    dest: Destinations,
    p: float,
    config: ProtocolConfig,
) -> AbsorbingChain:
    """LIR absorbing chain with doubled (coordinated, fallback) subcell states.

    Walks start in the coordinated copy; a coordinated state dwells one slot
    and a fallback state the round-robin cycle.  From the coordinated copy,
    the n-th ranked neighbour receives q(1-q)**(n-1), split between staying
    coordinated (weight 1 - q0) and dropping to fallback (weight q0), where
    q = p**n_color and q0 is the residual of the coordinated law; the
    residual itself is lost to no-route.  The fallback copy relays by the
    plain availability law and returns to the coordinated copy with weight
    1 - q0.  Destination neighbours absorb regardless of mode, so their two
    entries add up in the order listed: coordinated row (n, coord) then
    (n, fallback), fallback row (n, fallback) then (n, coord).
    """
    n_color = coordinated_color_population(grid, dest, config.relay_color)
    relays, counts, (coord, fall), no_route = _ranked_columns(grid, dest, 2)
    coord_probs, coord_residual = _rank_law(coordination_probability(p, n_color), counts)
    fall_probs, fall_residual = _rank_law(p, counts)
    stay, drop = (1.0 - coord_residual)[:, None], coord_residual[:, None]
    m = relays.size

    def pairs(first: np.ndarray, second: np.ndarray) -> np.ndarray:
        # each rank's two entries, one after the other
        return np.stack((first, second), axis=2).reshape(m, 2 * _RANKS.size)

    # (relay, copy, entry) arrays: the coordinated row, then the fallback row
    cols = np.stack((_then(pairs(coord, fall), no_route), _then(pairs(fall, coord), no_route)), axis=1)
    vals = np.stack(
        (
            _then(pairs(coord_probs * stay, coord_probs * drop), coord_residual),
            _then(pairs(fall_probs * drop, fall_probs * stay), fall_residual),
        ),
        axis=1,
    )
    live = _then(np.repeat(_RANKS < counts[:, None], 2, axis=1), True)
    labels = tuple(state for i in relays.tolist() for state in ((i, COORD), (i, FALLBACK)))
    return _grid_chain(
        labels,
        dest,
        cols.reshape(2 * m, -1),
        vals.reshape(2 * m, -1),
        np.repeat(live, 2, axis=0),
        np.tile([1.0, float(NUM_COLORS)], m),
    )


# rank positions of a padded rank-table row: a cell has at most six neighbours
_RANKS = np.arange(6)


def _ranked_columns(
    grid: SubcellGrid, dest: Destinations, copies: int
) -> tuple[np.ndarray, np.ndarray, np.ndarray, int]:
    """The relays, their neighbour counts and ranked neighbour columns, and the no-route column.

    Relays are the non-destination cells in grid order.  Relay r owns the
    transient columns copies * r + mode for mode < copies; the k-th cell of
    ``dest.absorbing_cells()`` has the k-th column after the transient ones,
    and no-route the last column.  The ranked columns have shape (copies,
    relays, 6): entry [mode, r, n] is the column of relay r's n-th ranked
    neighbour in copy ``mode``, and padding past the count.
    """
    table = grid.rank_table(dest)
    counts = np.fromiter(map(len, table), dtype=np.intp, count=len(table))
    ranked = np.zeros((len(table), _RANKS.size), dtype=np.intp)
    ranked[_RANKS < counts[:, None]] = np.fromiter(chain.from_iterable(table), dtype=np.intp)
    targets = [c.i for c in dest.absorbing_cells()]
    relay = np.ones(len(table), dtype=bool)
    relay[targets] = False
    relays = np.flatnonzero(relay)
    column = np.empty((copies, len(table)), dtype=np.intp)
    column[:, relays] = copies * np.arange(relays.size) + np.arange(copies)[:, None]
    column[:, targets] = copies * relays.size + np.arange(len(targets))
    return relays, counts[relays], column[:, ranked[relays]], copies * relays.size + len(targets)


def _rank_law(p: float, counts: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``rank_probabilities(p, count)`` of each count, padded to six ranks, and its residuals.

    Only the counts that occur are evaluated, so a chain without relays
    checks no availability, as it lists no row.
    """
    probs, residual = np.zeros((_RANKS.size + 1, _RANKS.size)), np.zeros(_RANKS.size + 1)
    # the distinct counts, in order; np.unique would load numpy.ma for them
    for count in np.flatnonzero(np.bincount(counts)).tolist():
        row, residual[count] = rank_probabilities(p, count)
        probs[count, :count] = row
    return probs[counts], residual[counts]


def _then(entries: np.ndarray, last) -> np.ndarray:
    """``entries`` with one more column, holding ``last`` (a scalar or one value per row)."""
    tail = np.empty((entries.shape[0], 1), dtype=entries.dtype)
    tail[:, 0] = last
    return np.concatenate((entries, tail), axis=1)


def _grid_chain(
    transient: tuple[Hashable, ...],
    dest: Destinations,
    cols: np.ndarray,
    vals: np.ndarray,
    live: np.ndarray,
    dwell: np.ndarray,
) -> AbsorbingChain:
    """The chain whose row k lists the live (column, probability) entries of ``cols[k]`` and ``vals[k]``.

    Its absorbing states are ``dest.absorbing_cells()`` then no-route, and
    the entries are normalised by ``build_chain``'s rules.
    """
    absorbing = (*(c.i for c in dest.absorbing_cells()), NO_ROUTE)
    size = len(transient) + len(absorbing)
    key = (np.arange(len(transient))[:, None] * size + cols)[live]
    return AbsorbingChain(transient, absorbing, *_pack(transient, size, key, vals[live]), dwell)


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
    and takes no part in equality, hashing or the repr.  An extraction whose
    routes share tails hands in those pairs as ``shared_links``.
    """

    source: int
    cells: tuple[int, ...]
    reached: int | None
    link_modes: tuple[str, ...] = ()
    links: tuple[tuple[int, int], ...] = field(init=False, repr=False, compare=False)
    shared_links: InitVar[tuple[tuple[int, int], ...] | None] = None

    def __post_init__(self, shared_links):
        if shared_links is None:
            shared_links = tuple(zip(self.cells, self.cells[1:]))
        object.__setattr__(self, "links", shared_links)

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


def _hopper(grid, dest, overlay, choose):
    """The hop rule of one overlay: ``hop(current, excluded)`` -> (next cell, mode) or None.

    A destination neighbour ends the route there; ``rank_table`` lists the
    destinations first, lowest index leading, and none is ever unavailable
    or visited, so it is the head of the ranked row.  Otherwise the
    candidates are the available neighbours not in ``excluded``, in rank
    order: none, or ``choose(current, candidates)`` returning None, strands
    the route, and otherwise ``choose`` names the relay and the hop mode.
    """
    ranks, dest_idx, unavailable = grid.rank_table(dest), dest.indices(), overlay.unavailable

    def hop(current, excluded):
        ranked = ranks[current]
        if ranked[0] in dest_idx:
            return ranked[0], FALLBACK
        candidates = [n for n in ranked if n not in unavailable and n not in excluded]
        return choose(current, candidates) if candidates else None

    return hop


def _walk(hop, dest_idx, source):
    """(cells, modes, reached) of the route from ``source``, hop by hop, never revisiting a cell.

    ``reached`` is None for a route that strands.  Every hop visits a new
    cell, so the walk ends.
    """
    cells, modes, visited = [source], [], {source}
    current = source
    while True:
        step = hop(current, visited)
        if step is None:
            return tuple(cells), tuple(modes), None
        current, mode = step
        cells.append(current)
        modes.append(mode)
        if current in dest_idx:
            return tuple(cells), tuple(modes), current
        visited.add(current)


def _successors(hop):
    """The successor table of one hop rule: ``successor(cell, previous)`` -> (state key, hop).

    A state is a cell and the cell before it.  Its successor is the hop a
    walk would take with only the previous cell visited: the cell's own
    first hop, ``hop(cell, ())``, unless that goes back to the previous
    cell.  So the table holds one first hop per cell, and a state is keyed
    by its cell alone unless it turns back that way; such a turned state is
    keyed by (cell, previous) and has a hop of its own.  Each hop is
    computed once.
    """
    table: dict[Hashable, tuple[int, str] | None] = {}

    def successor(current, prev):
        step = table.get(current, table)
        if step is table:
            step = table[current] = hop(current, ())
        if step is None or step[0] != prev:
            return current, step
        key = (current, prev)
        step = table.get(key, table)
        if step is table:
            step = table[key] = hop(current, (prev,))
        return key, step

    return successor


def _follow(hop, dest_idx, sources):
    """The route of every source, read off the successor table of ``hop``.

    Each finished route records, for every state whose successor path it
    follows, itself and the state's position, so a later route that
    reaches the state copies the rest and shares its link pairs.  Where the
    table would lead a route back onto one of its own cells, the route
    takes the next hop with everything it visited excluded, as ``_walk``
    does, and the states before that hop are not recorded.
    """
    successor = _successors(hop)
    known: dict[Hashable, tuple[Route, int]] = {}
    out = []
    for src in sources:
        cells, modes, keys, visited = [src], [], [], {src}
        start = 0  # position of keys[0] on the route
        prev, current = None, src
        while True:
            key, step = successor(current, prev)
            entry = known.get(key)
            if entry is None:
                off_table = step is not None and step[0] in visited
            else:
                shared, k = entry
                tail = shared.cells[k + 1 :]
                # A route holds no cell twice, so a recorded tail holds neither
                # its state's cell nor, for a turned state, the previous one.
                # Nor does it hold a source whose first hop led here: leaving
                # the source, it would come back by that same first hop.
                if len(cells) <= 2 or visited.isdisjoint(tail):
                    route = Route(
                        src,
                        tuple(cells) + tail,
                        shared.reached,
                        tuple(modes) + shared.link_modes[k:],
                        tuple(zip(cells, cells[1:])) + shared.links[k:],
                    )
                    break
                off_table = True
            if off_table:
                step = hop(current, visited)
                keys, start = [], len(cells)
            else:
                keys.append(key)
            if step is None:
                route = Route(src, tuple(cells), None, tuple(modes))
                break
            nxt, mode = step
            cells.append(nxt)
            modes.append(mode)
            if nxt in dest_idx:
                route = Route(src, tuple(cells), nxt, tuple(modes))
                break
            visited.add(nxt)
            prev, current = current, nxt
        for k, key in enumerate(keys, start):
            known[key] = route, k
        out.append(route)
    return out


def _lar_route(grid, dest, overlay):
    """Load-aware routes: sources routed in order, relay loads updated between.

    The hop cost is (1 + load(target)) * distance rank, so later sources
    divert around relays already carrying traffic.  A single source sees
    zero loads and reproduces the plain minimum-distance route.  A cost is
    never below its rank, so the scan over the ranked candidates stops at
    the first rank above the best cost so far.
    """
    load: dict[int, int] = {}

    def least_loaded(current, candidates):
        best = (1 + load.get(candidates[0], 0), candidates[0])
        for rank, n in enumerate(candidates[1:], 2):
            if rank > best[0]:
                break
            best = min(best, ((1 + load.get(n, 0)) * rank, n))
        return best[1], FALLBACK

    hop = _hopper(grid, dest, overlay, least_loaded)
    dest_idx = dest.indices()
    routes = []
    for src in overlay.sources:
        cells, modes, reached = _walk(hop, dest_idx, src)
        routes.append(Route(src, cells, reached, modes))
        if reached is not None:
            for idx in cells[1:-1]:
                load[idx] = load.get(idx, 0) + 1
    return RouteSet(routes=routes, kind=LAR)


def _nearest(current, candidates):
    """Minimum-distance relay choice: the first ranked candidate."""
    return candidates[0], FALLBACK


def _color_hop(colors, k0, allow_fallback):
    """Alternating color-relay choice: hop to the unique k0 neighbour, then re-aim.

    Every cell has exactly one neighbour of each other reuse color, so a
    coordinated hop is unambiguous; from a k0 cell (or when the k0 relay is
    unavailable and fallback is on) the hop follows the minimum-distance
    rule.  Without fallback such a hop strands the route.
    """

    def color_hop(current, candidates):
        if colors[current] != k0:
            for n in candidates:
                if colors[n] == k0:
                    return n, COORD
            if not allow_fallback:
                return None
        return candidates[0], FALLBACK

    return color_hop


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
    of color k0.  When neither the overlay nor the protocol pins k0, it is
    ``coordinated_color``, the class the LIR chain sizes, and without
    fallback a route of that color that strands raises ``RoutingError``.
    Routes never revisit a subcell; otherwise dead ends are returned as
    incomplete routes.

    Every rule but LAR's is read off a successor table over the states
    (cell, previous cell): a state's successor is the hop a walk would take
    with only the previous cell visited, and routes that meet in a state
    share the rest.  The table is exact: a walk's candidates are a subset
    of the state's, destinations are never unavailable or visited, and
    the state's choice is the first ranked candidate or the unique k0
    neighbour, so whenever that cell is not already on the route the walk
    chooses it too, and whenever the state strands the walk does.  A
    successor path that never repeats a cell is therefore the walked
    route; one that would repeat a cell is walked hop by hop from the last
    cell before the repeat.  LAR's loads change between sources, so it is
    walked hop by hop throughout.
    """
    _check_overlay(grid, dest, overlay)
    if config.kind == LAR:
        return _lar_route(grid, dest, overlay)
    dest_idx, sources = dest.indices(), overlay.sources
    if config.kind in (MDR, MMDR):
        return RouteSet(_follow(_hopper(grid, dest, overlay, _nearest), dest_idx, sources), config.kind)

    pinned = overlay.k0 if overlay.k0 is not None else config.relay_color
    k0 = coordinated_color(grid, dest, pinned)
    hop = _hopper(grid, dest, overlay, _color_hop(grid.colors, k0, config.allow_fallback))
    routes = _follow(hop, dest_idx, sources)
    if pinned is None and not config.allow_fallback and not all(r.complete for r in routes):
        raise RoutingError(
            f"relay color {k0} (reuse type {k0 + 1}) strands at least one source and fallback is disabled"
        )
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
        around: dict[int, list[int]] = {}

        def near(i):
            if i not in around:
                c = grid.cells[i]
                axial = ((c.q + dq, c.r + dr) for dq, dr in offsets)
                around[i] = [grid.index[a] for a in axial if a in grid.index]
            return around[i]

        for tx, rx in links:
            used = sent[tx].union(
                heard[tx], sent[rx], heard[rx], *(heard[c] for c in near(tx)), *(sent[c] for c in near(rx))
            )
            slot = next(s for s in range(len(links) + 1) if s not in used)
            sent[tx].add(slot)
            heard[rx].add(slot)
            put(slot, (tx, rx))
        cycle = max(slots) + 1 if slots else 0
    else:  # LIR, MLIR
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

    route_set.slots = slots
    route_set.cycle_length = cycle
    return route_set
