"""Scenario files, experiment commands, and CSV/plot-data output.

A scenario is a YAML document with up to nine sections (``name``, ``grid``,
``radio``, ``compression``, ``protocol``, ``destinations``, ``overlay``,
``traffic``, ``econ``, ``experiment``).  Every section is optional; omitted
values fall back to the baseline constants (R = 1000 m, K = 7, alpha = 2,
noise = 1e-4, per-user revenues rho = rho1 = 2).  Unknown keys anywhere are
hard errors -- scenario files double as test fixtures, so a silent typo is
worse than a crash.

Users and unavailable relays may be written either as ``[h, theta]`` pairs
or in the compact ``u^k(h,theta)`` form, where k is the 1-based reuse type
whose color the subcell is expected to carry.  Placements snap to the
nearest subcell on the requested ring; a declared type whose color does not
match the snapped subcell is reported as a warning, never an error, and the
duplicates that occasionally show up in published overlay tables are
dropped with a warning as well.

``run_experiment`` maps a command name to one figure-style study:

* ``tessellate`` -- utility surface over (H, P) with argmax/hill-climb flags
* ``routes``     -- per-subcell discovery delay, variance and absorption split
* ``capacity``   -- total capacity/throughput of each overlay under
  ideal/mMDR/mLIR/LAR scheduling (macro network only; access points are
  ignored here, they only matter to ``negotiate``)
* ``negotiate``  -- offload price walk per traffic step, full probe trace
* ``verify``     -- analytic chain statistics against the Monte Carlo oracle

All commands are deterministic for a fixed seed, and ``emit_csv`` writes
with a pinned column order and float repr so re-runs are byte-identical.
"""

from __future__ import annotations

import csv
import math
import re
import warnings
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Mapping, Sequence

import yaml

from .chains import absorption_statistics, simulate_walks
from .compression import CompressedStateVector, absorb, full_vector
from .economics import (
    DEFAULT_USER_SITES,
    EconParams,
    OffloadContext,
    TrafficState,
    apply_traffic_step,
    negotiate,
    network_capacity_throughput,
    optimize_tessellation,
)
from .grid import Destinations, GridParams, SubcellGrid, make_destinations
from .radio import RadioParams, min_power
from .routing import (
    LAR,
    LIR,
    MDR,
    MLIR,
    MMDR,
    ProtocolConfig,
    ScenarioOverlay,
    build_lir_chain,
    build_mdr_chain,
    extract_routes,
    schedule,
    start_state,
)

COMMANDS = ("tessellate", "routes", "capacity", "negotiate", "verify")

_KIND_ALIASES = {k.lower(): k for k in (MDR, LIR, MMDR, MLIR, LAR)}

# u^k(h, theta): 1-based reuse type k, ring h, angle theta in degrees.
_USER_SPEC = re.compile(r"^\s*u\^(\d+)\(\s*(\d+)\s*,\s*(-?\d+(?:\.\d+)?)\s*\)\s*$")

_TRAFFIC_KEYS = (
    "bs",
    "wlan",
    "bs_arrivals",
    "wlan_arrivals",
    "bs_departures",
    "wlan_departures",
    "offload",
)


class ScenarioError(ValueError):
    """Malformed or inconsistent scenario file, or an unknown command."""


class ScenarioWarning(UserWarning):
    """Recoverable scenario oddity: color mismatch or duplicate entry."""


# --------------------------------------------------------------------------
# schema plumbing


def _check_keys(section: str, mapping: Any, allowed: Sequence[str]) -> dict:
    if mapping is None:
        return {}
    if not isinstance(mapping, Mapping):
        raise ScenarioError(f"section {section!r} must be a mapping, got {type(mapping).__name__}")
    for key in mapping:
        if key not in allowed:
            raise ScenarioError(f"unknown key {section}.{key} (allowed: {', '.join(sorted(allowed))})")
    return dict(mapping)


def _number(section: str, key: str, value: Any, cast=float):
    try:
        return cast(value)
    except (TypeError, ValueError):
        raise ScenarioError(f"{section}.{key} must be a number, got {value!r}") from None


def _parse_user_spec(value: Any, where: str) -> tuple[int | None, int, float]:
    """One placement: 'u^k(h,theta)' or a plain [h, theta] pair."""
    if isinstance(value, str):
        m = _USER_SPEC.match(value)
        if not m:
            raise ScenarioError(f"{where}: cannot parse user spec {value!r} (expected u^k(h,theta))")
        k, h, theta = int(m.group(1)), int(m.group(2)), float(m.group(3))
        if not 1 <= k <= 7:
            raise ScenarioError(f"{where}: user type k must lie in 1..7, got {k}")
        return k, h, theta
    if isinstance(value, Sequence) and len(value) == 2:
        return None, _number(where, "h", value[0], int), _number(where, "theta", value[1])
    raise ScenarioError(f"{where}: expected u^k(h,theta) or [h, theta], got {value!r}")


@dataclass(frozen=True)
class ExperimentSpec:
    """Sweep axes and sampling knobs shared by the commands."""

    h_values: tuple[int, ...] = (2, 3, 4, 5, 6, 7)
    powers: tuple[float, ...] = (0.1, 0.2, 0.35)
    availabilities: tuple[float, ...] = (0.3, 0.5, 0.7, 0.9)
    seed: int = 20260825
    n_walks: int = 20000
    sites: tuple[tuple[float, float], ...] | None = None


@dataclass
class ScenarioFile:
    """A fully validated scenario: every cross-reference already resolved."""

    name: str
    grid: SubcellGrid
    radio: RadioParams
    protocol: ProtocolConfig
    dest: Destinations
    compressed: CompressedStateVector | None
    overlays: tuple[ScenarioOverlay, ...]
    users: dict[str, int]
    steps: tuple[TrafficState, ...]
    econ: EconParams
    mode: str
    chi0: float | None
    experiment: ExperimentSpec
    notes: list[str]

    @property
    def availability(self) -> float:
        return self.protocol.p


# --------------------------------------------------------------------------
# loading


def load_scenario(path: str | Path) -> ScenarioFile:
    """Parse and validate one scenario file, applying the default constants."""
    path = Path(path)
    try:
        text = path.read_text()
    except OSError as exc:
        raise ScenarioError(f"cannot read scenario file {path}: {exc}") from exc
    try:
        raw = yaml.safe_load(text)
    except yaml.YAMLError as exc:
        mark = getattr(exc, "problem_mark", None)
        at = f" at line {mark.line + 1}" if mark is not None else ""
        raise ScenarioError(f"{path}: parse error{at}: {exc}") from exc
    if raw is None:
        raw = {}
    raw = _check_keys(
        str(path),
        raw,
        (
            "name",
            "grid",
            "radio",
            "compression",
            "protocol",
            "destinations",
            "overlay",
            "traffic",
            "econ",
            "experiment",
        ),
    )
    notes: list[str] = []

    def warn(message: str) -> None:
        notes.append(message)
        warnings.warn(message, ScenarioWarning, stacklevel=3)

    # -- grid
    g = _check_keys("grid", raw.get("grid"), ("H", "R", "K"))
    try:
        params = GridParams(
            H=_number("grid", "H", g.get("H", 4), int),
            R=_number("grid", "R", g.get("R", 1000.0)),
            K=_number("grid", "K", g.get("K", 7), int),
        )
        grid = SubcellGrid(params)
    except ValueError as exc:
        raise ScenarioError(f"grid: {exc}") from exc

    # -- radio
    r = _check_keys("radio", raw.get("radio"), ("P", "P_range", "alpha", "noise", "sensitivity"))
    alpha = _number("radio", "alpha", r.get("alpha", 2.0))
    noise = _number("radio", "noise", r.get("noise", 1e-4))
    sensitivity = _number("radio", "sensitivity", r.get("sensitivity", 1e-6))
    p_range = tuple(_number("radio", "P_range", v) for v in r.get("P_range", ()))
    power = r.get("P")
    if power == "min":
        power = min_power(params, sensitivity, alpha)
    elif power is None:
        power = p_range[0] if p_range else 0.15
    try:
        radio = RadioParams(
            power=_number("radio", "P", power),
            alpha=alpha,
            noise=noise,
            sensitivity=sensitivity,
        )
    except ValueError as exc:
        raise ScenarioError(f"radio: {exc}") from exc

    # -- compression (optional availability source)
    compressed = None
    c = _check_keys("compression", raw.get("compression"), ("n_o", "zeta", "phi", "gamma", "p"))
    if c:
        try:
            if "p" in c:
                extra = sorted(set(c) - {"p"})
                if extra:
                    raise ScenarioError(
                        f"compression: direct p excludes {', '.join(extra)}"
                    )
                compressed = CompressedStateVector(
                    H=params.H, n_o=(), p=_number("compression", "p", c["p"]), zeta=0.0, phi=360.0
                )
            else:
                vec = full_vector(
                    params.H,
                    tuple(_number("compression", "n_o", v, int) for v in c.get("n_o", ())),
                    _number("compression", "zeta", c.get("zeta", 0.0)),
                    _number("compression", "phi", c.get("phi", 360.0)),
                    alpha=alpha,
                    gamma=_number("compression", "gamma", c.get("gamma", 1.0)),
                )
                compressed = absorb(vec)
        except ValueError as exc:
            raise ScenarioError(f"compression: {exc}") from exc

    # -- protocol
    pr = _check_keys(
        "protocol", raw.get("protocol"), ("kind", "p", "interference_threshold", "k0", "fallback")
    )
    kind_raw = str(pr.get("kind", "MDR"))
    kind = _KIND_ALIASES.get(kind_raw.lower())
    if kind is None:
        raise ScenarioError(f"protocol.kind: unknown protocol {kind_raw!r}")
    if "p" in pr:
        availability = _number("protocol", "p", pr["p"])
    elif compressed is not None:
        availability = compressed.p
    else:
        availability = 1.0
    relay_color = None
    if "k0" in pr:
        relay_color = _number("protocol", "k0", pr["k0"], int) - 1
    try:
        protocol = ProtocolConfig(
            kind=kind,
            p=availability,
            interference_threshold=_number(
                "protocol", "interference_threshold", pr.get("interference_threshold", 1.0)
            ),
            relay_color=relay_color,
            allow_fallback=bool(pr.get("fallback", True)),
        )
    except ValueError as exc:
        raise ScenarioError(f"protocol: {exc}") from exc

    # -- destinations
    d = _check_keys("destinations", raw.get("destinations"), ("bs", "aps", "coverage"))
    ap_polars = []
    for i, spec in enumerate(d.get("aps", ()) or ()):
        _, h, theta = _parse_user_spec(spec, f"destinations.aps[{i}]")
        ap_polars.append((h, theta))
    coverage = None
    if d.get("coverage"):
        coverage = [
            [(_parse_user_spec(s, f"destinations.coverage[{i}]")[1:]) for s in cluster]
            for i, cluster in enumerate(d["coverage"])
        ]
    try:
        dest = make_destinations(grid, ap_polars or None, coverage)
    except ValueError as exc:
        raise ScenarioError(f"destinations: {exc}") from exc
    if not d.get("bs", True):
        dest = Destinations(bs=None, aps=dest.aps, coverage=dest.coverage)

    def resolve(spec: Any, where: str) -> int:
        """Snap one placement to its subcell index, warning on a color mismatch."""
        k, h, theta = _parse_user_spec(spec, where)
        try:
            cell, gap = grid.nearest_in_ring(h, theta)
        except ValueError as exc:
            raise ScenarioError(f"{where}: {exc}") from exc
        if k is not None:
            actual = grid.cluster_color(cell)
            if actual != k - 1:
                warn(
                    f"{where}: u^{k}({h},{theta:g}) declares color {k - 1} but "
                    f"subcell {cell.i} has color {actual}"
                )
        return cell.i

    # -- overlay scenarios
    o = _check_keys("overlay", raw.get("overlay"), ("sources", "scenarios"))
    sources: list[int] = []
    for i, spec in enumerate(o.get("sources", ()) or ()):
        idx = resolve(spec, f"overlay.sources[{i}]")
        if idx in sources:
            warn(f"overlay.sources[{i}]: duplicate source subcell {idx} dropped")
            continue
        sources.append(idx)
    overlays = []
    for i, entry in enumerate(o.get("scenarios", ()) or ()):
        where = f"overlay.scenarios[{i}]"
        entry = _check_keys(where, entry, ("name", "k0", "unavailable", "unavailable_types"))
        name = str(entry.get("name", f"scenario-{i + 1}"))
        unavailable: list[int] = []
        for j, spec in enumerate(entry.get("unavailable", ()) or ()):
            idx = resolve(spec, f"{where}.unavailable[{j}]")
            if idx in unavailable:
                warn(f"{where}.unavailable[{j}]: duplicate subcell {idx} dropped ({spec!r})")
                continue
            unavailable.append(idx)
        for k in entry.get("unavailable_types", ()) or ():
            k = _number(where, "unavailable_types", k, int)
            if not 1 <= k <= 7:
                raise ScenarioError(f"{where}.unavailable_types: type {k} outside 1..7")
            unavailable.extend(
                c.i for c in grid.cells[1:] if grid.cluster_color(c) == k - 1
            )
        k0 = entry.get("k0")
        try:
            overlays.append(
                ScenarioOverlay(
                    sources=tuple(sources),
                    unavailable=frozenset(unavailable),
                    k0=None if k0 is None else _number(where, "k0", k0, int) - 1,
                    name=name,
                )
            )
        except ValueError as exc:
            raise ScenarioError(f"{where}: {exc}") from exc

    # -- traffic
    t = _check_keys("traffic", raw.get("traffic"), ("users", "steps"))
    users: dict[str, int] = {}
    for uname, spec in (t.get("users") or {}).items():
        users[str(uname)] = resolve(spec, f"traffic.users.{uname}")

    def user_set(step: int, entry: Mapping, key: str) -> frozenset[str]:
        members = entry.get(key, ()) or ()
        unknown = [str(u) for u in members if str(u) not in users]
        if unknown:
            raise ScenarioError(
                f"traffic.steps[{step}].{key}: unplaced users {', '.join(unknown)}"
            )
        return frozenset(str(u) for u in members)

    steps: list[TrafficState] = []
    bs_now: frozenset[str] = frozenset()
    wlan_now: frozenset[str] = frozenset()
    for i, entry in enumerate(t.get("steps", ()) or ()):
        entry = _check_keys(f"traffic.steps[{i}]", entry, _TRAFFIC_KEYS)
        if "bs" in entry:
            bs_now = user_set(i, entry, "bs")
        if "wlan" in entry:
            wlan_now = user_set(i, entry, "wlan")
        try:
            state = TrafficState(
                bs_users=bs_now,
                wlan_users=wlan_now,
                bs_arrivals=user_set(i, entry, "bs_arrivals"),
                wlan_arrivals=user_set(i, entry, "wlan_arrivals"),
                bs_departures=user_set(i, entry, "bs_departures"),
                wlan_departures=user_set(i, entry, "wlan_departures"),
                offload=user_set(i, entry, "offload"),
            )
        except ValueError as exc:
            raise ScenarioError(f"traffic.steps[{i}]: {exc}") from exc
        steps.append(state)
        bs_now, wlan_now = apply_traffic_step(state)

    # -- economics
    e = _check_keys(
        "econ",
        raw.get("econ"),
        ("rho", "rho1", "step", "chi0", "tol", "bounds", "max_iter", "mode"),
    )
    bounds = None
    if e.get("bounds") is not None:
        bounds = tuple(_number("econ", "bounds", v) for v in e["bounds"])
        if len(bounds) != 2:
            raise ScenarioError(f"econ.bounds: expected [low, high], got {e['bounds']!r}")
    try:
        econ = EconParams(
            mno_revenue=_number("econ", "rho", e.get("rho", 2.0)),
            sso_revenue=_number("econ", "rho1", e.get("rho1", 2.0)),
            price_step=_number("econ", "step", e.get("step", 0.01)),
            tol=_number("econ", "tol", e.get("tol", 1e-9)),
            max_iter=_number("econ", "max_iter", e.get("max_iter", 100_000), int),
            price_bounds=bounds,
        )
    except ValueError as exc:
        raise ScenarioError(f"econ: {exc}") from exc
    mode = str(e.get("mode", "price"))
    if mode not in ("price", "price-and-set"):
        raise ScenarioError(f"econ.mode: expected 'price' or 'price-and-set', got {mode!r}")
    chi0 = None if e.get("chi0") is None else _number("econ", "chi0", e["chi0"])

    # -- experiment
    x = _check_keys(
        "experiment",
        raw.get("experiment"),
        ("h_values", "powers", "availabilities", "seed", "n_walks", "sites"),
    )
    defaults = ExperimentSpec()
    sites = None
    if x.get("sites"):
        sites = tuple(
            (_number("experiment", "sites", a), _number("experiment", "sites", b))
            for a, b in x["sites"]
        )
    experiment = ExperimentSpec(
        h_values=tuple(_number("experiment", "h_values", v, int) for v in x["h_values"])
        if x.get("h_values")
        else defaults.h_values,
        powers=tuple(_number("experiment", "powers", v) for v in x["powers"])
        if x.get("powers")
        else (p_range or defaults.powers),
        availabilities=tuple(
            _number("experiment", "availabilities", v) for v in x["availabilities"]
        )
        if x.get("availabilities")
        else defaults.availabilities,
        seed=_number("experiment", "seed", x.get("seed", defaults.seed), int),
        n_walks=_number("experiment", "n_walks", x.get("n_walks", defaults.n_walks), int),
        sites=sites,
    )

    return ScenarioFile(
        name=str(raw.get("name", path.stem)),
        grid=grid,
        radio=radio,
        protocol=protocol,
        dest=dest,
        compressed=compressed,
        overlays=tuple(overlays),
        users=users,
        steps=tuple(steps),
        econ=econ,
        mode=mode,
        chi0=chi0,
        experiment=experiment,
        notes=notes,
    )


# --------------------------------------------------------------------------
# result tables


@dataclass
class ResultTable:
    """Rows of one command run; ``sweep`` names the series-grouping column."""

    columns: tuple[str, ...]
    rows: list[tuple]
    sweep: str | None = None

    def __post_init__(self):
        for row in self.rows:
            if len(row) != len(self.columns):
                raise ScenarioError(
                    f"row width {len(row)} does not match {len(self.columns)} columns"
                )


def _fmt(value: Any) -> str:
    if value is None:
        return ""
    if isinstance(value, bool):
        return str(int(value))
    if isinstance(value, float):
        return repr(float(value))
    if hasattr(value, "item"):  # numpy scalars
        return _fmt(value.item())
    return str(value)


def emit_csv(table: ResultTable, path: str | Path) -> None:
    """Write the table; fixed column order, repr floats, newline-terminated."""
    if not table.rows:
        raise ScenarioError("refusing to emit an empty table")
    path = Path(path)
    with path.open("w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(table.columns)
        for row in table.rows:
            writer.writerow([_fmt(v) for v in row])


def emit_plotdata(table: ResultTable, path: str | Path) -> None:
    """Gnuplot-style blocks: one block per value of the sweep column."""
    if not table.rows:
        raise ScenarioError("refusing to emit an empty table")
    sweep = table.sweep or table.columns[0]
    key = table.columns.index(sweep)
    rest = [j for j in range(len(table.columns)) if j != key]
    groups: dict[Any, list[tuple]] = {}
    for row in table.rows:
        groups.setdefault(row[key], []).append(row)
    lines = [f"# columns: {' '.join(table.columns[j] for j in rest)}"]
    for value, rows in groups.items():
        lines.append(f"# {sweep} = {_fmt(value)}")
        for row in rows:
            lines.append(" ".join(_fmt(row[j]) or "nan" for j in rest))
        lines.append("")
    Path(path).write_text("\n".join(lines))


# --------------------------------------------------------------------------
# commands


def _cmd_tessellate(scn: ScenarioFile, seed: int, walks: int) -> ResultTable:
    exp = scn.experiment
    result = optimize_tessellation(
        exp.h_values,
        exp.powers,
        sites=exp.sites or DEFAULT_USER_SITES,
        availability=scn.availability,
        macro_radius=scn.grid.params.R,
        alpha=scn.radio.alpha,
        noise=scn.radio.noise,
        revenue=scn.econ.mno_revenue,
    )
    rows = []
    for power in exp.powers:
        for h in sorted(set(exp.h_values)):
            rows.append(
                (
                    power,
                    h,
                    result.surface[(h, power)],
                    int(result.argmax_h[power] == h),
                    int(result.climb_h[power] == h),
                )
            )
    return ResultTable(("power", "h", "utility", "is_argmax", "is_climb"), rows, sweep="power")


def _cmd_routes(scn: ScenarioFile, seed: int, walks: int) -> ResultTable:
    grid, dest, cfg = scn.grid, scn.dest, scn.protocol
    if cfg.kind in (LIR, MLIR):
        chain = build_lir_chain(grid, dest, cfg.p, cfg)
    else:
        chain = build_mdr_chain(grid, dest, cfg.p, dwell=cfg.mdr_dwell)
    stats = absorption_statistics(chain)
    absorbing = [getattr(c, "i", c) for c in dest.absorbing_cells()]
    columns = ["subcell", "ring", "theta", "tau", "var_tau"]
    columns += [f"b_ap{j + 1}" for j in range(len(dest.aps))]
    if dest.bs is not None:
        columns.append("b_bs")
    columns.append("b_nr")
    rows = []
    for cell in grid.cells[1:]:
        if cell.i in dest.indices():
            split = [0.0] * (len(absorbing) + 1)
            split[absorbing.index(cell.i)] = 1.0
            rows.append((cell.i, cell.h, cell.theta, 0.0, 0.0, *split))
            continue
        k = chain.transient_index(start_state(cfg, cell.i))
        rows.append(
            (
                cell.i,
                cell.h,
                cell.theta,
                float(stats.tau[k]),
                float(stats.var_tau[k]),
                *(float(b) for b in stats.absorb_probs[k]),
            )
        )
    return ResultTable(tuple(columns), rows, sweep="ring")


def _cmd_capacity(scn: ScenarioFile, seed: int, walks: int) -> ResultTable:
    grid, cfg = scn.grid, scn.protocol
    if scn.dest.bs is None:
        raise ScenarioError("capacity study needs the base station as a destination")
    if not scn.overlays:
        raise ScenarioError("capacity study needs at least one overlay scenario")
    dest = Destinations(bs=scn.dest.bs, aps=(), coverage=())
    rows = []
    for overlay in scn.overlays:
        for label, kind in (("ideal", MDR), ("mMDR", MMDR), ("mLIR", MLIR), ("LAR", LAR)):
            run_cfg = ProtocolConfig(
                kind=kind,
                p=1.0,
                interference_threshold=cfg.interference_threshold,
                relay_color=cfg.relay_color,
                allow_fallback=cfg.allow_fallback,
            )
            # "ideal" is plain minimum-distance routing with every relay up.
            run_overlay = (
                ScenarioOverlay(sources=overlay.sources, name=overlay.name)
                if label == "ideal"
                else overlay
            )
            route_set = schedule(extract_routes(grid, dest, run_overlay, run_cfg), run_cfg, grid)
            capacity, throughput = network_capacity_throughput(route_set, scn.radio, grid)
            rows.append(
                (
                    overlay.name,
                    label,
                    capacity,
                    throughput,
                    route_set.cycle_length,
                    len(route_set.complete_routes),
                )
            )
    return ResultTable(
        ("scenario", "protocol", "capacity", "throughput", "cycle", "routed"),
        rows,
        sweep="protocol",
    )


def _cmd_negotiate(scn: ScenarioFile, seed: int, walks: int) -> ResultTable:
    if not scn.steps:
        raise ScenarioError("negotiation needs a traffic section with steps")
    ctx = OffloadContext(grid=scn.grid, dest=scn.dest, radio=scn.radio, placements=scn.users)
    rows = []
    for s, state in enumerate(scn.steps, start=1):
        if not state.offload:
            continue
        result = negotiate(ctx, state, scn.econ, mode=scn.mode, chi0=scn.chi0)
        for j, (chi, d_mno, d_sso) in enumerate(result.trace):
            rows.append(
                (
                    s,
                    j,
                    chi,
                    d_mno,
                    d_sso,
                    result.price,
                    result.crossing,
                    result.verdict,
                    result.iterations,
                )
            )
    if not rows:
        raise ScenarioError("no traffic step names an offload set to negotiate over")
    return ResultTable(
        (
            "step",
            "probe",
            "chi",
            "delta_mno",
            "delta_sso",
            "price",
            "crossing",
            "verdict",
            "iterations",
        ),
        rows,
        sweep="step",
    )


def _cmd_verify(scn: ScenarioFile, seed: int, walks: int) -> ResultTable:
    grid, dest = scn.grid, scn.dest
    rows = []
    for p in scn.experiment.availabilities:
        chain = build_mdr_chain(grid, dest, p)
        analytic = absorption_statistics(chain)
        empirical = simulate_walks(chain, walks, seed)
        for k, state in enumerate(chain.transient):
            count = int(empirical.counts[k])
            var = float(analytic.var_tau[k])
            z = 0.0
            if count and var > 0.0:
                z = (float(empirical.tau[k]) - float(analytic.tau[k])) / math.sqrt(var / count)
            b_gap = float(
                max(abs(empirical.absorb_probs[k] - analytic.absorb_probs[k]))
            )
            rows.append(
                (
                    p,
                    state,
                    float(analytic.tau[k]),
                    float(empirical.tau[k]),
                    z,
                    b_gap,
                    count,
                )
            )
    return ResultTable(
        ("availability", "subcell", "tau", "tau_mc", "z_tau", "b_gap", "walks"),
        rows,
        sweep="availability",
    )


_RUNNERS = {
    "tessellate": _cmd_tessellate,
    "routes": _cmd_routes,
    "capacity": _cmd_capacity,
    "negotiate": _cmd_negotiate,
    "verify": _cmd_verify,
}


def run_experiment(
    scenario: ScenarioFile,
    command: str,
    seed: int | None = None,
    walks: int | None = None,
) -> ResultTable:
    """Run one named command; ``seed``/``walks`` override the experiment section."""
    if command not in _RUNNERS:
        raise ScenarioError(f"unknown command {command!r} (expected one of {', '.join(COMMANDS)})")
    runner = _RUNNERS[command]
    try:
        return runner(
            scenario,
            scenario.experiment.seed if seed is None else int(seed),
            scenario.experiment.n_walks if walks is None else int(walks),
        )
    except ScenarioError:
        raise
    except ValueError as exc:
        raise ScenarioError(f"{command} on scenario {scenario.name!r}: {exc}") from exc
