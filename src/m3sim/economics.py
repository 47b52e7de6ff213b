"""Operator economics: utilities, tessellation search, offload negotiation.

The macrocell operator (MNO) earns revenue on users relayed to the base
station; a small-scale operator (SSO) serves users around its access
point.  Offloading hands selected macrocell users to the access point
for a negotiated per-utility price, which both operators walk in fixed
increments until their utility offsets balance.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property
from types import MappingProxyType
from typing import Callable, Iterable, Mapping, Sequence

import numpy as np

from .chains import ChainStatistics, absorption_statistics
from .compression import (
    CompressedStateVector,
    FullStateVector,
    aggregate_availability,
    climb_topology,
)
from .grid import NUM_COLORS, Destinations, GridParams, SubcellGrid, _unit_position, check_finite_positive
from .radio import RadioParams, link_capacity, link_sinr, slot_sinrs
from .routing import (
    MDR,
    ProtocolConfig,
    Route,
    RouteSet,
    ScenarioOverlay,
    build_mdr_chain,
    extract_routes,
    schedule,
)


class EconError(ValueError):
    pass


class NegotiationError(EconError):
    """Raised when the price walk exhausts its iteration budget."""

    def __init__(self, message: str, trace: Sequence[tuple[float, float, float]]):
        super().__init__(message)
        self.trace = tuple(trace)


@dataclass(frozen=True)
class EconParams:
    """Revenue rates and the knobs of the price negotiation.

    ``price_bounds`` defaults to [sso_revenue, mno_revenue]; scenarios may
    widen it when the two revenues coincide.
    """

    mno_revenue: float = 2.0
    sso_revenue: float = 2.0
    price_step: float = 0.01
    tol: float = 1e-9
    max_iter: int = 100_000
    price_bounds: tuple[float, float] | None = None

    def __post_init__(self):
        for name, value in (("MNO revenue", self.mno_revenue), ("SSO revenue", self.sso_revenue)):
            if not math.isfinite(value):
                raise EconError(f"{name} must be finite, got {value!r}")
        if not self.mno_revenue >= self.sso_revenue > 0:
            raise EconError(
                "revenues must satisfy mno_revenue >= sso_revenue > 0, got "
                f"{self.mno_revenue!r} / {self.sso_revenue!r}"
            )
        check_finite_positive(EconError, "price step", self.price_step, joint=True)
        check_finite_positive(EconError, "tolerance", self.tol, joint=True)
        if not isinstance(self.max_iter, int) or isinstance(self.max_iter, bool):
            raise EconError(f"iteration budget max_iter must be a whole number, got {self.max_iter!r}")
        if self.max_iter < 1:
            raise EconError(f"iteration budget max_iter must be at least 1, got {self.max_iter!r}")
        lo, hi = self.bounds
        if not (math.isfinite(lo) and math.isfinite(hi)):
            raise EconError(f"price bounds must be finite, got {(lo, hi)!r}")
        if not 0 < lo <= hi:
            raise EconError(f"price bounds must satisfy 0 < lo <= hi, got {(lo, hi)!r}")

    @property
    def bounds(self) -> tuple[float, float]:
        return self.price_bounds or (self.sso_revenue, self.mno_revenue)


# --------------------------------------------------------------------------
# traffic bookkeeping


@dataclass(frozen=True)
class TrafficState:
    """User sets of one traffic instant plus the step deltas.

    ``offload`` names the macrocell users the operators negotiate over; it
    must be drawn from the current (non-departing) base-station users.
    """

    bs_users: frozenset[str] = frozenset()
    wlan_users: frozenset[str] = frozenset()
    bs_arrivals: frozenset[str] = frozenset()
    wlan_arrivals: frozenset[str] = frozenset()
    bs_departures: frozenset[str] = frozenset()
    wlan_departures: frozenset[str] = frozenset()
    offload: frozenset[str] = frozenset()

    def __post_init__(self):
        if self.bs_users & self.wlan_users:
            raise EconError("a user cannot sit in both networks at once")
        if self.bs_arrivals & (self.bs_users | self.wlan_users):
            raise EconError("base-station arrivals must be new users")
        if self.wlan_arrivals & (self.bs_users | self.wlan_users | self.bs_arrivals):
            raise EconError("WLAN arrivals must be new users")
        if not self.bs_departures <= self.bs_users:
            raise EconError("base-station departures must be current users")
        if not self.wlan_departures <= self.wlan_users:
            raise EconError("WLAN departures must be current users")
        if not self.offload <= self.bs_users - self.bs_departures:
            raise EconError("offload candidates must be staying base-station users")


def apply_traffic_step(state: TrafficState) -> tuple[frozenset[str], frozenset[str]]:
    """Next (base-station, WLAN) user sets after arrivals, departures, offload."""
    bs_next = (state.bs_users | state.bs_arrivals) - state.bs_departures - state.offload
    wlan_next = (
        (state.wlan_users | state.wlan_arrivals) - state.wlan_departures
    ) | state.offload
    return bs_next, wlan_next


# --------------------------------------------------------------------------
# per-route performance


def user_utility(capacity: float, delay: float, cost: float, revenue: float) -> float:
    """Revenue-weighted rate of one user: revenue * C / (D * cost)."""
    if capacity == 0.0 or math.isinf(delay):
        return 0.0
    if delay <= 0 or cost <= 0:
        raise EconError(f"delay and cost must be positive, got {delay!r}, {cost!r}")
    return revenue * capacity / (delay * cost)


# A slot with at least this many transmitters has its SINRs evaluated by
# slot_sinrs, in one numpy pass per slot table; a narrower slot runs
# link_sinr per link, which costs less there.  One slot at H=10 on a
# 2-core x86-64 host, loop against a slot_sinrs call of its own: 4
# transmitters 9 against 57 us, 8 26 against 60 us, 12 50 against 61 us,
# 16 80 against 59 us, 48 527 against 71 us.  As one more slot of an
# 8-slot table it adds 20 to 40 us at any of these widths, too noisy a
# margin to move the cut by.  The cut applies to link_capacities' slot
# tables only: an offload instant evaluates each memo miss on its own,
# through link_sinr, whatever its slot's width.  Both give the same floats.
WIDE_SLOT = 12


def _slot_link_capacity(
    link: tuple[int, int], order: tuple[int, ...], radio: RadioParams, grid: SubcellGrid
) -> float:
    """Capacity of one link through ``link_sinr``, hearing every other transmitter of its slot.

    ``order`` holds the slot's transmitters in ascending order; the link's
    own endpoints are left out of its interferers.
    """
    tx, rx = link
    return link_capacity(link_sinr(tx, rx, tuple(cell for cell in order if cell != tx and cell != rx), radio, grid))


def link_capacities(
    slots: Mapping[int, Sequence[tuple[int, int]]],
    radio: RadioParams,
    grid: SubcellGrid,
) -> dict[tuple[int, int], float]:
    """Capacity of every scheduled link, keyed by link.

    A link's SINR counts every other transmitter sharing its slot (the
    link's own endpoints excluded).  Each link must sit in exactly one slot,
    else ``EconError`` names it.

    A slot of fewer than ``WIDE_SLOT`` transmitters, where the array set-up
    costs more than it saves, runs ``link_sinr`` per link as it comes.  The
    links of every wider slot go to ``slot_sinrs`` together, in one numpy
    pass after the narrow ones, so a bad link of a narrow slot is named
    before one of a wide slot.  The two give equal floats, so the cut moves
    no capacity.
    """
    caps = {}
    wide = []  # (links, transmitters) of each wide slot
    for links in slots.values():
        order = tuple(sorted({tx for tx, _ in links}))
        if len(order) < WIDE_SLOT:
            for link in links:
                caps[link] = _slot_link_capacity(link, order, radio, grid)
        else:
            wide.append((links, order))
    if wide:
        sinrs = iter(slot_sinrs(wide, radio, grid))
        for links, _ in wide:
            caps.update(zip(links, map(link_capacity, sinrs)))
    if len(caps) != sum(map(len, slots.values())):
        seen = set()
        for link in (link for links in slots.values() for link in links):
            if link in seen:
                raise EconError(f"link {link[0]}->{link[1]} is scheduled more than once")
            seen.add(link)
    return caps


def route_capacity(route: Route, caps: Mapping[tuple[int, int], float]) -> float:
    """Bottleneck link capacity of a scheduled route; an incomplete route or one without a link carries none."""
    cells = route.cells
    return min(map(caps.__getitem__, zip(cells, cells[1:]))) if route.complete and len(cells) > 1 else 0.0


def network_capacity_throughput(
    route_set: RouteSet, radio: RadioParams, grid: SubcellGrid
) -> tuple[float, float]:
    """Total capacity of the scheduled routes and its per-slot throughput."""
    caps = link_capacities(route_set.slots, radio, grid)
    total = sum(route_capacity(r, caps) for r in route_set.complete_routes)
    if route_set.cycle_length <= 0:
        return total, 0.0
    return total, total / route_set.cycle_length


# --------------------------------------------------------------------------
# tessellation search

# Fixed population of twelve terminals as (radius fraction, bearing degrees)
# around the base station; the same physical constellation re-snaps onto
# whatever subcell grid is being evaluated.
DEFAULT_USER_SITES: tuple[tuple[float, float], ...] = (
    (0.6227, 236.69),
    (0.7532, 51.34),
    (0.3074, 134.91),
    (0.4864, 291.73),
    (0.7696, 216.52),
    (0.6796, 238.08),
    (0.3988, 158.42),
    (0.4103, 326.15),
    (0.3400, 294.78),
    (0.3507, 247.30),
    (0.5292, 145.66),
    (0.8728, 6.70),
)


def snap_sites(
    grid: SubcellGrid, sites: Sequence[tuple[float, float]]
) -> list[int]:
    """Nearest subcell index for each physical (radius fraction, bearing) site.

    Each site compares every ring subcell's centre in one array pass and
    takes the first nearest, so the center subcell is never chosen and ties
    go to the lower index.  A site whose smallest squared distance is not
    finite (a NaN site, an infinite radius fraction, or one so far out that
    the square overflows, or a non-finite bearing) raises ``EconError``
    naming it.
    """
    size, radius = grid.params.subcell_radius, grid.params.R
    cx, cy = (u * size for u in _unit_position(*grid.axial_coords[:, 1:]))
    out = []
    for k, (frac, bearing) in enumerate(sites):
        # math.cos raises on an infinite angle; NaN carries the site to the check below
        angle = math.radians(bearing) if math.isfinite(bearing) else math.nan
        x, y = frac * radius * math.cos(angle), frac * radius * math.sin(angle)
        with np.errstate(over="ignore", invalid="ignore"):
            gap = (cx - x) ** 2 + (cy - y) ** 2
        i = int(np.argmin(gap))
        if not math.isfinite(gap[i]):
            raise EconError(f"site {k} at {(frac, bearing)!r} has no finite squared distance, got {float(gap[i])!r}")
        out.append(1 + i)
    return out


def _mdr_layers(
    grid: SubcellGrid, dest: Destinations, sources: Sequence[int], availability: float
) -> tuple[RouteSet, ChainStatistics, list[int]]:
    """The power-free layers of an MDR study.

    Returns each source's scheduled route, the discovery-chain statistics
    and each route source's transient index in that chain.
    """
    config = ProtocolConfig(kind=MDR, p=availability)
    overlay = ScenarioOverlay(sources=tuple(sources))
    route_set = schedule(extract_routes(grid, dest, overlay, config), config, grid)
    chain = build_mdr_chain(grid, dest, availability)
    stats = absorption_statistics(chain)
    return route_set, stats, [chain.transient_index(r.source) for r in route_set.routes]


def macrocell_utility(
    h: int,
    power: float,
    *,
    sites: Sequence[tuple[float, float]] = DEFAULT_USER_SITES,
    availability: float = 1.0,
    macro_radius: float = GridParams.R,
    alpha: float = RadioParams.alpha,
    noise: float = RadioParams.noise,
    revenue: float = EconParams.mno_revenue,
) -> float:
    """Total uplink utility of the fixed user population on an H-ring grid.

    Users snap to their nearest subcell and relay to the base station over
    minimum-distance routes sharing the round-robin schedule; utility is
    revenue * C / (K*tau * P*tau) per occupied subcell, with tau the mean
    discovery time at the given availability.  Co-located users share their
    subcell's route, so each occupied subcell contributes once: a coarser
    grid merges users rather than multiplying demand.
    """
    return optimize_tessellation(
        (h,), (power,), sites=sites, availability=availability,
        macro_radius=macro_radius, alpha=alpha, noise=noise, revenue=revenue,
    ).surface[(h, power)]


@dataclass(frozen=True)
class TessellationResult:
    """Exhaustive utility surface over (H, P) plus both search answers."""

    surface: Mapping[tuple[int, float], float]
    best: tuple[int, float]
    argmax_h: Mapping[float, int]
    climb_h: Mapping[float, int]


def optimize_tessellation(
    h_values: Sequence[int],
    powers: Sequence[float],
    *,
    sites: Sequence[tuple[float, float]] = DEFAULT_USER_SITES,
    availability: float = 1.0,
    macro_radius: float = GridParams.R,
    alpha: float = RadioParams.alpha,
    noise: float = RadioParams.noise,
    revenue: float = EconParams.mno_revenue,
) -> TessellationResult:
    """Evaluate the utility surface and locate the best ring count per power.

    Alongside the exhaustive argmax, a local hill climb over H (started from
    the middle of the range) is reported for comparison.  The keywords are
    those of ``macrocell_utility``, which is this search at one point.  Only
    link capacities depend on the power, so each ring count's grid, routes,
    schedule and discovery chain are built once per call, for the sweep and
    the climb alike.
    """
    if not h_values or not powers:
        raise EconError("tessellation search needs at least one H and one power")
    hs = sorted(set(h_values))
    radios = {p: RadioParams(power=p, alpha=alpha, noise=noise) for p in powers}
    layers: dict[int, tuple[SubcellGrid, RouteSet, list[float]]] = {}
    utilities: dict[tuple[int, float], float] = {}

    def utility_at(h: int, power: float) -> float:
        if (h, power) not in utilities:
            if h not in layers:
                grid = SubcellGrid(GridParams(H=h, R=macro_radius))
                occupied = sorted(set(snap_sites(grid, sites)))
                dest = Destinations(bs=grid.cell(0))
                route_set, stats, index = _mdr_layers(grid, dest, occupied, availability)
                layers[h] = grid, route_set, [float(stats.tau[k]) for k in index]
            grid, route_set, taus = layers[h]
            caps = link_capacities(route_set.slots, radios[power], grid)
            total = 0.0
            for route, tau in zip(route_set.routes, taus):
                total += user_utility(route_capacity(route, caps), NUM_COLORS * tau, power * tau, revenue)
            utilities[(h, power)] = total
        return utilities[(h, power)]

    surface = {(h, p): utility_at(h, p) for h in hs for p in powers}
    argmax_h = {}
    climb_h = {}
    for p in powers:
        argmax_h[p] = max(hs, key=lambda h: (surface[(h, p)], -h))
        climb_h[p] = climb_topology(
            hs[len(hs) // 2], lambda h: utility_at(h, p), h_min=min(hs), h_max=max(hs)
        )

    best = max(surface, key=lambda hp: (surface[hp], -hp[0], -hp[1]))
    return TessellationResult(
        surface=surface, best=best, argmax_h=argmax_h, climb_h=climb_h
    )


def state_utility(vector: FullStateVector | CompressedStateVector, power: float) -> float:
    """Utility of the grid described by a full or compressed state vector.

    The full vector's availability is re-aggregated from its constituent
    probabilities; the compressed vector carries it directly.  Both forms
    must therefore score identically.
    """
    if isinstance(vector, FullStateVector):
        p = aggregate_availability(vector.p_a, vector.p_phi, vector.p_o)
    else:
        p = vector.p
    return macrocell_utility(vector.H, power, availability=p)


# --------------------------------------------------------------------------
# availability sweeps


def expected_network_capacity(
    grid: SubcellGrid,
    dest: Destinations,
    radio: RadioParams,
    availability: float,
) -> float:
    """Capacity deliverable from every subcell, weighted by discovery success.

    Each non-destination subcell contributes its scheduled route's bottleneck
    capacity times the probability that a discovery walk from it ends at a
    destination rather than the no-route state.
    """
    sources = [c.i for c in grid.cells if c.h > 0 and c.i not in dest.indices()]
    route_set, stats, index = _mdr_layers(grid, dest, sources, availability)
    caps = link_capacities(route_set.slots, radio, grid)
    return sum(
        float(stats.absorb_probs[k, :-1].sum()) * route_capacity(route, caps)
        for route, k in zip(route_set.routes, index)
    )


def cooperation_capacity_ratio(
    grid: SubcellGrid,
    dest: Destinations,
    radio: RadioParams,
    *,
    idle: float = 0.6,
    visibility: float = 1.0,
    presence: float = 0.5,
) -> tuple[float, float, float]:
    """Capacity gain from pooling two operators' subscribers.

    Returns (capacity ratio, single-operator availability, two-operator
    availability); the ratio compares expected network capacity at the two
    aggregated availabilities.
    """
    single = aggregate_availability(idle, visibility, [presence])
    double = aggregate_availability(idle, visibility, [presence, presence])
    c_single = expected_network_capacity(grid, dest, radio, single)
    c_double = expected_network_capacity(grid, dest, radio, double)
    if c_single <= 0.0:
        raise EconError("single-operator capacity vanished; cannot form a ratio")
    return c_double / c_single, single, double


# --------------------------------------------------------------------------
# offloading


@dataclass(frozen=True)
class OffloadContext:
    """Static side of an offload study: geometry, radio and user placement.

    ``placements`` is copied, read-only, when the context is built.  The
    context memoizes the work that repeats across the offload sets of a
    negotiation, in three tables:

    * ``_legs``: the leg table of each direction (toward the access points
      or not), every placed cell's ``_Leg`` by cell (see ``_leg_table``);
    * ``_instants``: each traffic instant's users' rates, one float by
      user, keyed by its base-station and WLAN user sets (see
      ``_instant_rates``);
    * ``_link_caps``: link capacities by slot, one dict of capacities by
      link (tx, rx) per sorted tuple of slot transmitters, filled as the
      instants miss (see ``_instant_rates``).
    """

    grid: SubcellGrid
    dest: Destinations
    radio: RadioParams
    placements: Mapping[str, int]
    _legs: dict = field(default_factory=dict, init=False, repr=False, compare=False)
    _instants: dict = field(default_factory=dict, init=False, repr=False, compare=False)
    _link_caps: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    def __post_init__(self):
        if not self.dest.aps:
            raise EconError("offloading needs at least one access point")
        object.__setattr__(self, "placements", MappingProxyType(dict(self.placements)))
        blocked = self.dest.indices()
        for user, cell in self.placements.items():
            if not 0 <= cell < len(self.grid.cells):
                raise EconError(f"user {user!r} placed on unknown subcell {cell!r}")
            if cell in blocked:
                raise EconError(f"user {user!r} sits on a destination subcell")

    @cached_property
    def wlan_domain(self) -> frozenset[int]:
        """Subcells on WLAN spectrum: the access points and their coverage."""
        cells = {a.i for a in self.dest.aps}
        for cluster in self.dest.coverage:
            cells.update(c.i for c in cluster)
        return frozenset(cells)


@dataclass(frozen=True)
class _Leg:
    """One placed cell's route in one direction, with the slot class of each link.

    ``slot_classes`` pairs each link with its slot class: the color of its
    transmitter, or None for a WLAN hop (both endpoints in the WLAN
    domain), of which there are ``wlan_hops``.  The route's hops are its
    links, so ``len(slot_classes)`` counts them.
    """

    route: Route
    slot_classes: tuple[tuple[tuple[int, int], int | None], ...]
    wlan_hops: int


def _leg_table(ctx: OffloadContext, to_ap: bool) -> dict[int, _Leg]:
    """``_Leg`` of every placed cell toward the access points or the base station, by cell.

    At p=1 with every relay up a route depends only on its cell and its
    direction, so the first use extracts every placed cell at once: one
    extraction and one table per direction and context.
    """
    table = ctx._legs.get(to_ap)
    if table is None:
        if to_ap:
            dest = Destinations(bs=None, aps=ctx.dest.aps, coverage=ctx.dest.coverage)
        else:
            dest = Destinations(bs=ctx.dest.bs)
        config = ProtocolConfig(kind=MDR, p=1.0)
        overlay = ScenarioOverlay(sources=tuple(sorted(set(ctx.placements.values()))))
        domain, colors = ctx.wlan_domain, ctx.grid.colors
        table = ctx._legs[to_ap] = {}
        for route in extract_routes(ctx.grid, dest, overlay, config).routes:
            classes = tuple(
                (link, None if link[0] in domain and link[1] in domain else colors[link[0]])
                for link in route.links
            )
            table[route.source] = _Leg(route, classes, sum(color is None for _, color in classes))
    return table


def _instant_rates(
    ctx: OffloadContext, bs_users: frozenset[str], wlan_users: frozenset[str]
) -> dict[str, float]:
    """Rate of every user of one traffic instant, by user, computed once per context.

    Links whose endpoints both sit in the WLAN domain run on the access
    point's sequential schedule: every user's hop gets its own slot (a
    shared relay transmits once per user), so the cycle counts link
    instances and a WLAN hop's slot holds its transmitter alone.  All other
    links share the macrocell's color round robin: a color's slot holds
    the transmitters of every link of that color in the instant.

    Each hop reads its capacity from ``ctx._link_caps`` under its slot's
    sorted transmitters; a miss is evaluated there, through ``link_sinr``,
    and kept.  A user's rate is ``user_utility`` at unit revenue: its
    route's capacity, the least of its hops', over its delay, the WLAN
    cycle per WLAN hop and the round robin's NUM_COLORS slots per other
    hop, times its cost, the power per hop times the hops.  An incomplete
    route has no capacity, so its rate is 0.0.

    No capacity depends on the users' order, and every rate sum is added
    in name order, so the memo is keyed by the two user sets alone.
    """
    key = (bs_users, wlan_users)
    rates = ctx._instants.get(key)
    if rates is None:
        # users in name order, so every process evaluates the misses, and
        # names a bad link, in the same order
        legs: list[tuple[str, _Leg]] = []
        for users, to_ap in ((bs_users, False), (wlan_users, True)):
            if users:
                table = _leg_table(ctx, to_ap)
                legs += ((u, table[ctx.placements[u]]) for u in sorted(users))
        transmitters: dict[int, set[int]] = {}
        for _, leg in legs:
            for (tx, _), color in leg.slot_classes:
                if color is not None:
                    transmitters.setdefault(color, set()).add(tx)
        orders = {color: tuple(sorted(cells)) for color, cells in transmitters.items()}

        memo, radio, grid = ctx._link_caps, ctx.radio, ctx.grid
        wlan_wait = max(sum(leg.wlan_hops for _, leg in legs), 1)
        rates = {}
        for user, leg in legs:
            caps = []
            for link, color in leg.slot_classes:
                order = link[:1] if color is None else orders[color]
                try:
                    cap = memo[order][link]
                except KeyError:
                    cap = memo.setdefault(order, {})[link] = _slot_link_capacity(link, order, radio, grid)
                caps.append(cap)
            hops, wlan = len(caps), leg.wlan_hops
            capacity = min(caps) if leg.route.complete and caps else 0.0
            delay = float(wlan * wlan_wait + (hops - wlan) * NUM_COLORS)
            rates[user] = user_utility(capacity, delay, radio.power * hops, 1.0)
        ctx._instants[key] = rates
    return rates


def _rate_sum(users: Iterable[str], instant: Mapping[str, float]) -> float:
    """Sum of the users' rates in one instant, added in name order."""
    return sum(map(instant.__getitem__, sorted(users)))


def _after_sums(
    ctx: OffloadContext, bs_users: frozenset[str], wlan_users: frozenset[str], offload: frozenset[str]
) -> tuple[float, float, float]:
    """Rate sums of the base-station, WLAN and offloaded users after a step.

    ``bs_users`` and ``wlan_users`` are the step's user sets after it, the
    offloaded users left out of both; the instant puts them on the WLAN.
    """
    after = _instant_rates(ctx, bs_users, wlan_users | offload)
    return _rate_sum(bs_users, after), _rate_sum(wlan_users, after), _rate_sum(offload, after)


@dataclass(frozen=True)
class OffloadBreakdown:
    """Price-independent rate sums of one offload step (before and after)."""

    bs_before: float
    wlan_before: float
    bs_after: float
    wlan_after: float
    offload_after: float


def offload_breakdown(ctx: OffloadContext, state: TrafficState) -> OffloadBreakdown:
    """Evaluate both traffic instants of one offload step.

    The price and revenues enter the offsets linearly, so everything
    price-dependent reduces to these per-group rate sums, each added in
    user-name order.
    """
    missing = (
        state.bs_users | state.wlan_users | state.bs_arrivals | state.wlan_arrivals
    ) - ctx.placements.keys()
    if missing:
        raise EconError(f"users without placements: {sorted(missing)}")

    before = _instant_rates(ctx, state.bs_users, state.wlan_users)
    bs_next, wlan_next = apply_traffic_step(state)
    bs_after, wlan_after, offload_after = _after_sums(ctx, bs_next, wlan_next - state.offload, state.offload)
    return OffloadBreakdown(
        bs_before=_rate_sum(state.bs_users, before),
        wlan_before=_rate_sum(state.wlan_users, before),
        bs_after=bs_after,
        wlan_after=wlan_after,
        offload_after=offload_after,
    )


# --------------------------------------------------------------------------
# negotiation

# Probes in the first array of a fixed-set run; each further array doubles.
_FIRST_RUN = 128


@dataclass(frozen=True)
class NegotiationResult:
    """Outcome of the price walk.

    ``price`` is the best in-bounds offer; ``crossing`` is where the offsets
    of the final set meet (it may fall outside the bounds, in which case the
    verdict is "no-offload" whenever it exceeds the MNO revenue).
    """

    price: float
    crossing: float | None
    verdict: str
    offload: frozenset[str]
    iterations: int
    converged: bool
    trace: tuple[tuple[float, float, float], ...]


def negotiate_price(
    terms: Callable[[frozenset[str]], tuple[float, float, float]],
    econ: EconParams,
    *,
    offload: frozenset[str] = frozenset(),
    candidates: Sequence[str] = (),
    chi0: float | None = None,
) -> NegotiationResult:
    """Walk the price in fixed steps until the two offsets balance.

    ``terms(s)`` gives the price-free terms ``(m, w, o)`` of the offload set
    ``s``: at the price chi the MNO's offset is ``m + (rho - chi) * o`` and
    the SSO's ``w + chi * o``, with ``rho`` the MNO revenue.
    The offer moves down when the SSO's offset leads and up when it trails;
    with a non-empty ``candidates`` pool each iteration additionally grows or
    shrinks the offload set by the user with the largest/smallest marginal
    MNO offset.
    The walk ends at equilibrium (within tolerance), when it starts cycling
    (the best probed point wins), or pinned at a bound.  For a fixed set both
    offsets are affine in the price, so the crossing of a pinned walk, or of
    a cycle whose last two probes straddle it, is exact.

    Where the set cannot change in the walk's direction -- always in price
    mode, when growing once every candidate is in the set, when shrinking
    once one user is left -- the walk probes the next prices of the run as
    one array and keeps the probes that would each have stepped on; the
    first that would stop is probed again on its own.  The result is the one
    of a walk that probes one price at a time.
    """
    lo, hi = econ.bounds
    step = econ.price_step
    if chi0 is None:
        chi0 = (lo + hi) / 2.0
    elif math.isnan(chi0):
        raise EconError(f"chi0 must be a number, got {chi0!r}")
    chi0 = min(max(chi0, lo), hi)
    current = frozenset(offload)
    pool = tuple(sorted(set(candidates) | current))
    rho = econ.mno_revenue

    def chi_at(k: int) -> float:
        return min(max(chi0 + k * step, lo), hi)

    def offsets(chi: float | np.ndarray, s: frozenset[str]) -> tuple[float | np.ndarray, float | np.ndarray]:
        # (MNO offset, SSO offset) at one price, or elementwise at an array of prices
        m, w, o = terms(s)
        return m + (rho - chi) * o, w + chi * o

    def crossing_of(s: frozenset[str]) -> float | None:
        # gap(chi) = g0 + (g1 - g0) * chi for a fixed set
        g0, g1 = (d_mno - d_sso for d_mno, d_sso in (offsets(0.0, s), offsets(1.0, s)))
        return None if g0 == g1 else g0 / (g0 - g1)

    k, chi = 0, chi_at(0)
    visited: dict[frozenset[str], set[float]] = {}  # probed prices per offload set
    trace: list[tuple[float, float, float]] = []
    best: tuple[float, float, frozenset[str]] | None = None
    prev: tuple[float, frozenset[str]] | None = None
    heading = 0  # the last step's sign: -1 down (the set grows), +1 up (it shrinks)
    run = _FIRST_RUN

    while len(trace) < econ.max_iter:
        # ``current`` holds only pool members, so it holds the whole pool
        # exactly when their counts agree.
        if heading and (
            not candidates
            or (heading < 0 and len(current) == len(pool))
            or (heading > 0 and len(current) <= 1)
        ):
            n = min(run, econ.max_iter - len(trace))
            chis = np.minimum(np.maximum(chi0 + (k + heading * np.arange(n + 1)) * step, lo), hi)
            probes = chis[:-1]
            d_mno, d_sso = offsets(probes, current)
            gap = d_mno - d_sso
            # a probe steps on when its gap is finite and out of tolerance, it
            # points the run's way, its price is new and the next one differs
            onward = np.isfinite(gap) & (np.abs(gap) > econ.tol) & (chis[1:] != probes)
            onward &= (d_sso > d_mno) if heading < 0 else (d_sso <= d_mno)
            taken = n if onward.all() else int(onward.argmin())
            prices = probes[:taken].tolist()
            seen = visited.setdefault(current, set())
            if not seen.isdisjoint(prices):
                taken = next(j for j, price in enumerate(prices) if price in seen)
                del prices[taken:]
            if taken:
                trace.extend(zip(prices, d_mno[:taken].tolist(), d_sso[:taken].tolist()))
                seen.update(prices)
                j = int(np.abs(gap[:taken]).argmin())
                if abs(gap[j]) < abs(best[1]):
                    best = (prices[j], float(gap[j]), current)
                prev = (float(gap[taken - 1]), current)
                k += heading * taken
                chi = chi_at(k)
            if taken == n:
                run *= 2
                continue

        run = _FIRST_RUN
        d_mno, d_sso = offsets(chi, current)
        gap = d_mno - d_sso
        trace.append((chi, d_mno, d_sso))
        if best is None or abs(gap) < abs(best[1]):
            best = (chi, gap, current)

        converged = True
        seen = visited.setdefault(current, set())
        if abs(gap) <= econ.tol:
            price, crossing = chi, chi
        elif chi in seen:
            # The walk is cycling, so it has stepped before; settle on the best
            # point probed so far.
            price, _, offered = best
            crossing = price
            if prev[1] == current and (prev[0] > 0) != (gap > 0):
                crossing = crossing_of(current)
            current = offered
        else:
            seen.add(chi)
            k_next = k - 1 if d_sso > d_mno else k + 1
            next_set = current
            if candidates:
                next_set = _adjust_offload(offsets, chi, current, pool, d_mno, d_sso)
            chi_next = chi_at(k_next)
            if chi_next != chi or next_set != current:
                prev = (gap, current)
                heading = k_next - k
                k, chi, current = k_next, chi_next, next_set
                continue
            # Pinned at a bound; the crossing may lie outside it.
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

    raise NegotiationError(
        f"no equilibrium after {econ.max_iter} iterations", trace
    )


def _adjust_offload(
    offsets: Callable[[float, frozenset[str]], tuple[float, float]],
    chi: float,
    current: frozenset[str],
    pool: Sequence[str],
    d_mno: float,
    d_sso: float,
) -> frozenset[str]:
    """One set move of the joint walk: grow when trailing, shrink when leading.

    Each candidate set is ranked by its MNO offset at ``chi``, ``offsets(chi, s)[0]``.
    """
    if d_sso > d_mno:
        additions = [u for u in pool if u not in current]
        if not additions:
            return current
        pick = max(additions, key=lambda u: (offsets(chi, current | {u})[0] - d_mno, u))
        return current | {pick}
    if len(current) > 1:
        # ``pool`` is sorted and holds ``current``: its members in name order
        members = [u for u in pool if u in current]
        pick = min(members, key=lambda u: (d_mno - offsets(chi, current - {u})[0], u))
        return current - {pick}
    return current


def negotiate(
    ctx: OffloadContext,
    state: TrafficState,
    econ: EconParams,
    mode: str = "price",
    chi0: float | None = None,
) -> NegotiationResult:
    """Negotiate the offload price (and optionally the set) for one step.

    One ``offload_breakdown`` of the step checks its placements and gives
    the sums before it, which no offload set changes.  Each probed set then
    costs only its instant after the step and that instant's three rate
    sums (see ``_after_sums``).
    """
    if mode not in ("price", "price-and-set"):
        raise EconError(f"unknown negotiation mode {mode!r}")
    if not state.offload:
        raise EconError("negotiation needs a non-empty starting offload set")

    rho, rho1 = econ.mno_revenue, econ.sso_revenue
    b = offload_breakdown(ctx, state)
    bs_next, wlan_next = apply_traffic_step(state)
    # the step's user sets after it, before any user is offloaded
    bs_stay, wlan_stay = bs_next | state.offload, wlan_next - state.offload
    # Per offload set, the price-free terms of both offsets:
    # (rho * MNO rate change, rho1 * SSO rate change, offloaded rate).
    terms: dict[frozenset[str], tuple[float, float, float]] = {}

    def term(off: frozenset[str]) -> tuple[float, float, float]:
        if off not in terms:
            bs_after, wlan_after, offload_after = _after_sums(ctx, bs_stay - off, wlan_stay, off)
            terms[off] = (rho * (bs_after - b.bs_before), rho1 * (wlan_after - b.wlan_before), offload_after)
        return terms[off]

    candidates: tuple[str, ...] = ()
    if mode == "price-and-set":
        candidates = tuple(sorted(state.bs_users - state.bs_departures))
    return negotiate_price(
        term,
        econ,
        offload=state.offload,
        candidates=candidates,
        chi0=chi0,
    )
