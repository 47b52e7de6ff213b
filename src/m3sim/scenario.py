"""Scenario files, experiment commands, and CSV/plot-data output.

A scenario is a YAML document whose top-level keys are ``name`` and the
sections ``grid``, ``radio``, ``compression``, ``protocol``,
``destinations``, ``overlay``, ``traffic``, ``econ`` and ``experiment``.
Every key is optional; the README's key reference table gives each key's
type, default and meaning.  A key that maps one-to-one onto a constructor
field is listed in ``_SCHEMA`` with that field, and a file that leaves it
out gets the dataclass default.  Unknown keys anywhere are hard errors --
scenario files double as test fixtures, so a silent typo is worse than a
crash.

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
from contextlib import contextmanager
from dataclasses import dataclass, replace
from functools import cached_property
from pathlib import Path
from typing import Any, Mapping, Sequence

import numpy as np
import yaml

from .chains import absorption_statistics, simulate_walks
from .compression import compressed_vector
from .economics import (
    DEFAULT_USER_SITES,
    EconParams,
    NegotiationError,
    OffloadContext,
    TrafficState,
    apply_traffic_step,
    negotiate,
    network_capacity_throughput,
    optimize_tessellation,
)
from .grid import NUM_COLORS, Destinations, GridParams, SubcellGrid, SubcellId, make_destinations
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

_KIND_ALIASES = {k.lower(): k for k in (MDR, LIR, MMDR, MLIR, LAR)}

# u^k(h, theta): 1-based reuse type k, ring h, angle theta in degrees.
_USER_SPEC = re.compile(r"^\s*u\^(\d+)\(\s*(\d+)\s*,\s*(-?\d+(?:\.\d+)?)\s*\)\s*$")

# Every section's keys.  A key that maps one-to-one onto a constructor
# field carries (field, type); the loader resolves the keys marked None.
_SCHEMA: dict[str, dict[str, tuple[str, type] | None]] = {
    "grid": {"H": ("H", int), "R": ("R", float), "K": ("K", int)},
    "radio": {
        "P": None,
        "P_range": None,
        "alpha": ("alpha", float),
        "noise": ("noise", float),
        "sensitivity": ("sensitivity", float),
    },
    "compression": {"n_o": None, "zeta": None, "phi": None, "p": None},
    "protocol": {
        "kind": None,
        "p": ("p", float),
        "interference_threshold": ("interference_threshold", float),
        "k0": None,
        "fallback": ("allow_fallback", bool),
    },
    "destinations": {"bs": None, "aps": None, "coverage": None},
    "overlay": {"sources": None, "scenarios": None},
    "traffic": {"users": None, "steps": None},
    "econ": {
        "rho": ("mno_revenue", float),
        "rho1": ("sso_revenue", float),
        "step": ("price_step", float),
        "chi0": None,
        "tol": ("tol", float),
        "bounds": None,
        "max_iter": ("max_iter", int),
        "mode": None,
    },
    "experiment": {
        "h_values": None,
        "powers": None,
        "availabilities": None,
        "seed": ("seed", int),
        "n_walks": ("n_walks", int),
        "sites": None,
    },
}

# least seed and walk count: the walker draws from a non-negative seed, and a study needs a walk
_LEAST = {"seed": 0, "n_walks": 1}

_OVERLAY_KEYS = ("name", "k0", "unavailable", "unavailable_types")

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


@contextmanager
def _named(where: str):
    """Re-raise a ``ValueError`` from the block as a ``ScenarioError`` led by ``where``."""
    try:
        yield
    except ValueError as exc:
        raise ScenarioError(f"{where}: {exc}") from exc


def _mapping(where: str, value: Any) -> dict:
    if value is None:
        return {}
    if not isinstance(value, Mapping):
        raise ScenarioError(f"{where} must be a mapping, got {type(value).__name__}")
    return dict(value)


def _check_keys(where: str, mapping: Any, allowed: Sequence[str]) -> dict:
    mapping = _mapping(where, mapping)
    for key in mapping:
        if key not in allowed:
            raise ScenarioError(f"unknown key {where}.{key} (allowed: {', '.join(sorted(allowed))})")
    return mapping


def _list(where: str, value: Any) -> list:
    if value is None:
        return []
    if not isinstance(value, (list, tuple)):
        raise ScenarioError(f"{where} must be a list, got {value!r}")
    return list(value)


def _number(where: str, value: Any, cast=float):
    """``cast(value)``; an int key takes only whole numbers, a bool key only
    true/false, and no other key a bool."""
    if (cast is bool) != isinstance(value, bool):
        kind = "true or false" if cast is bool else "a number, not a boolean"
        raise ScenarioError(f"{where} must be {kind}, got {value!r}")
    if cast is bool:
        return value
    try:
        if cast is int and isinstance(value, float) and not value.is_integer():
            raise ValueError
        return cast(value)
    except (TypeError, ValueError, OverflowError):
        kind = "a whole number" if cast is int else "a number"
        raise ScenarioError(f"{where} must be {kind}, got {value!r}") from None


def _at_least(where: str, value: Any, least: int) -> int:
    """``value`` as a whole number, refused by name below ``least``."""
    number = _number(where, value, int)
    if number < least:
        raise ScenarioError(f"{where} must be a whole number >= {least}, got {number!r}")
    return number


def _real(value: Any) -> float:
    """``float`` for the keys no constructor checks: NaN is not a number here."""
    number = float(value)
    if math.isnan(number):
        raise ValueError
    return number


def _numbers(where: str, value: Any, cast=float) -> tuple:
    return tuple(_number(f"{where}[{i}]", v, cast) for i, v in enumerate(_list(where, value)))


def _powers(where: str, value: Any) -> tuple[float, ...]:
    """A power axis: a list of transmit powers, each a positive number."""
    powers = _numbers(where, value, _real)
    for i, power in enumerate(powers):
        if not power > 0:
            raise ScenarioError(f"{where}[{i}] must be a positive transmit power, got {power!r}")
    return powers


def _fields(section: str, mapping: Mapping) -> dict[str, Any]:
    """Constructor keywords for the one-to-one keys the file sets."""
    out = {}
    for key, value in mapping.items():
        spec = _SCHEMA[section][key]
        if spec is not None:
            out[spec[0]] = _number(f"{section}.{key}", value, spec[1])
    return out


def _reuse_color(where: str, value: Any) -> int:
    """The 0-based reuse color of the 1-based type ``value`` that the file writes at ``where``;
    a type out of range is named as written, before any cast to ``int``."""
    if not 1 <= _number(where, value) <= NUM_COLORS:
        raise ScenarioError(f"{where}: reuse type {value} outside 1..{NUM_COLORS}")
    return _number(where, value, int) - 1


def _parse_user_spec(value: Any, where: str) -> tuple[int | None, int, float]:
    """One placement: 'u^k(h,theta)' as (color k-1, h, theta), or a plain [h, theta] pair."""
    if isinstance(value, str):
        m = _USER_SPEC.match(value)
        if not m:
            raise ScenarioError(f"{where}: cannot parse user spec {value!r} (expected u^k(h,theta))")
        return _reuse_color(where, m.group(1)), int(m.group(2)), float(m.group(3))
    if isinstance(value, Sequence) and len(value) == 2:
        return None, _number(f"{where}.h", value[0], int), _number(f"{where}.theta", value[1])
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


def _quote_mark(text: str, exc: yaml.YAMLError) -> str:
    """' at line N' and the offending source line, which libyaml's message leaves out."""
    mark = getattr(exc, "problem_mark", None)
    if mark is None:
        return ""
    lines = text.splitlines()
    if mark.line >= len(lines):
        return f" at line {mark.line + 1} (end of file)"
    return f" at line {mark.line + 1}, {lines[mark.line]!r}"


def load_scenario(path: str | Path) -> ScenarioFile:
    """Parse and validate one scenario file; omitted keys take their defaults."""
    path = Path(path)
    try:
        text = path.read_text(encoding="utf-8")
    except OSError as exc:
        raise ScenarioError(f"cannot read scenario file {path}: {exc}") from exc
    except UnicodeDecodeError as exc:
        raise ScenarioError(f"{path}: not UTF-8 text: {exc}") from exc
    try:
        raw = yaml.load(text, Loader=yaml.CSafeLoader)
    except yaml.YAMLError as exc:
        raise ScenarioError(f"{path}: parse error{_quote_mark(text, exc)}: {exc}") from exc
    raw = _check_keys(str(path), raw, ("name", *_SCHEMA))
    notes: list[str] = []

    def warn(message: str) -> None:
        notes.append(message)
        warnings.warn(message, ScenarioWarning, stacklevel=3)

    def section(name: str) -> dict:
        return _check_keys(name, raw.get(name), _SCHEMA[name])

    # -- grid (four rings unless the file says otherwise)
    grid_fields = {"H": 4, **_fields("grid", section("grid"))}
    with _named("grid"):
        params = GridParams(**grid_fields)
        grid = SubcellGrid(params)

    # -- radio
    r = section("radio")
    radio_fields = _fields("radio", r)
    p_range = _powers("radio.P_range", r.get("P_range"))
    power = r.get("P")
    if power is None and p_range:
        power = p_range[0]
    if power is not None and power != "min":
        radio_fields["power"] = _number("radio.P", power)
    with _named("radio"):
        radio = RadioParams(**radio_fields)
        if power == "min":
            radio = replace(radio, power=min_power(params, radio.sensitivity, radio.alpha))

    # -- compression (optional availability source)
    c = section("compression")
    compressed_p = None
    if "p" in c:
        extra = sorted(set(c) - {"p"})
        if extra:
            raise ScenarioError(f"compression: direct p excludes {', '.join(extra)}")
        compressed_p = _number("compression.p", c["p"])
        if not 0 <= compressed_p <= 1:
            raise ScenarioError(f"compression.p must lie in [0, 1], got {compressed_p!r}")
    elif c:
        with _named("compression"):
            compressed_p = compressed_vector(
                params.H,
                _numbers("compression.n_o", c.get("n_o"), int),
                _number("compression.zeta", c.get("zeta", 0.0)),
                _number("compression.phi", c.get("phi", 360.0)),
            ).p

    # -- protocol
    pr = section("protocol")
    kind_raw = str(pr.get("kind", "MDR"))
    kind = _KIND_ALIASES.get(kind_raw.lower())
    if kind is None:
        raise ScenarioError(f"protocol.kind: unknown protocol {kind_raw!r}")
    protocol_fields = _fields("protocol", pr)
    if compressed_p is not None:
        protocol_fields.setdefault("p", compressed_p)
    if "k0" in pr:
        protocol_fields["relay_color"] = _reuse_color("protocol.k0", pr["k0"])
    with _named("protocol"):
        protocol = ProtocolConfig(kind=kind, **protocol_fields)

    def resolve(spec: Any, where: str) -> SubcellId:
        """Snap one placement to its subcell, warning on a color mismatch."""
        color, h, theta = _parse_user_spec(spec, where)
        with _named(where):
            cell, gap = grid.nearest_in_ring(h, theta)
        if color is not None:
            actual = grid.cluster_color(cell)
            if actual != color:
                warn(
                    f"{where}: u^{color + 1}({h},{theta:g}) declares color {color} but "
                    f"subcell {cell.i} has color {actual}"
                )
        return cell

    def polars(where: str, specs: Any) -> list[tuple[int, float]]:
        """Each placement of a list as its snapped subcell's exact (h, theta)."""
        cells = (resolve(spec, f"{where}[{i}]") for i, spec in enumerate(_list(where, specs)))
        return [(cell.h, cell.theta) for cell in cells]

    # -- destinations
    d = section("destinations")
    ap_polars = polars("destinations.aps", d.get("aps"))
    coverage = None
    if d.get("coverage"):
        coverage = [
            polars(f"destinations.coverage[{i}]", cluster)
            for i, cluster in enumerate(_list("destinations.coverage", d["coverage"]))
        ]
    with _named("destinations"):
        dest = make_destinations(grid, ap_polars, coverage)
    if not _number("destinations.bs", d.get("bs", True), bool):
        dest = Destinations(bs=None, aps=dest.aps, coverage=dest.coverage)

    # -- overlay scenarios
    o = section("overlay")
    sources: dict[int, None] = {}  # in file order
    for i, spec in enumerate(_list("overlay.sources", o.get("sources"))):
        idx = resolve(spec, f"overlay.sources[{i}]").i
        if idx in sources:
            warn(f"overlay.sources[{i}]: duplicate source subcell {idx} dropped")
            continue
        sources[idx] = None
    overlays = []
    for i, entry in enumerate(_list("overlay.scenarios", o.get("scenarios"))):
        where = f"overlay.scenarios[{i}]"
        entry = _check_keys(where, entry, _OVERLAY_KEYS)
        name = str(entry.get("name", f"scenario-{i + 1}"))
        if "\r" in name:
            # csv.writer leaves a lone CR unquoted, so the row would not read back
            raise ScenarioError(
                f"{where}.name: a carriage return cannot be written to a CSV cell, got {name!r}"
            )
        if any(overlay.name == name for overlay in overlays):
            raise ScenarioError(f"{where}.name: two overlays are named {name!r}")
        unavailable: set[int] = set()
        for j, spec in enumerate(_list(f"{where}.unavailable", entry.get("unavailable"))):
            idx = resolve(spec, f"{where}.unavailable[{j}]").i
            if idx in unavailable:
                warn(f"{where}.unavailable[{j}]: duplicate subcell {idx} dropped ({spec!r})")
                continue
            unavailable.add(idx)
        for j, k in enumerate(_list(f"{where}.unavailable_types", entry.get("unavailable_types"))):
            color = _reuse_color(f"{where}.unavailable_types[{j}]", k)
            unavailable.update(
                c.i for c in grid.cells[1:] if grid.cluster_color(c) == color
            )
        k0 = None if entry.get("k0") is None else _reuse_color(f"{where}.k0", entry["k0"])
        with _named(where):
            overlays.append(
                ScenarioOverlay(
                    sources=tuple(sources),
                    unavailable=frozenset(unavailable),
                    k0=k0,
                    name=name,
                )
            )

    # -- traffic
    t = section("traffic")
    users: dict[str, int] = {}
    for uname, spec in _mapping("traffic.users", t.get("users")).items():
        # YAML keys 1 and "1" differ, but both would name user '1'
        if str(uname) in users:
            raise ScenarioError(f"traffic.users: two users are named {str(uname)!r}")
        users[str(uname)] = resolve(spec, f"traffic.users.{uname}").i

    def user_set(step: int, entry: Mapping, key: str) -> frozenset[str]:
        where = f"traffic.steps[{step}].{key}"
        members = [str(u) for u in _list(where, entry.get(key))]
        unknown = [u for u in members if u not in users]
        if unknown:
            raise ScenarioError(f"{where}: unplaced users {', '.join(unknown)}")
        return frozenset(members)

    steps: list[TrafficState] = []
    bs_now: frozenset[str] = frozenset()
    wlan_now: frozenset[str] = frozenset()
    for i, entry in enumerate(_list("traffic.steps", t.get("steps"))):
        entry = _check_keys(f"traffic.steps[{i}]", entry, _TRAFFIC_KEYS)
        if "bs" in entry:
            bs_now = user_set(i, entry, "bs")
        if "wlan" in entry:
            wlan_now = user_set(i, entry, "wlan")
        with _named(f"traffic.steps[{i}]"):
            state = TrafficState(
                bs_users=bs_now,
                wlan_users=wlan_now,
                bs_arrivals=user_set(i, entry, "bs_arrivals"),
                wlan_arrivals=user_set(i, entry, "wlan_arrivals"),
                bs_departures=user_set(i, entry, "bs_departures"),
                wlan_departures=user_set(i, entry, "wlan_departures"),
                offload=user_set(i, entry, "offload"),
            )
        # a user inherited from an earlier step was refused there
        if dest.bs is None:
            for key, named in (("bs", state.bs_users), ("bs_arrivals", state.bs_arrivals)):
                if named:
                    raise ScenarioError(
                        f"traffic.steps[{i}].{key}: base-station users {', '.join(sorted(named))} "
                        "need the base station, but destinations.bs is false"
                    )
        steps.append(state)
        bs_now, wlan_now = apply_traffic_step(state)

    # -- economics
    e = section("econ")
    econ_fields = _fields("econ", e)
    if e.get("bounds") is not None:
        bounds = _numbers("econ.bounds", e["bounds"])
        if len(bounds) != 2:
            raise ScenarioError(f"econ.bounds: expected [low, high], got {e['bounds']!r}")
        econ_fields["price_bounds"] = bounds
    with _named("econ"):
        econ = EconParams(**econ_fields)
    mode = str(e.get("mode", "price"))
    if mode not in ("price", "price-and-set"):
        raise ScenarioError(f"econ.mode: expected 'price' or 'price-and-set', got {mode!r}")
    chi0 = None if e.get("chi0") is None else _number("econ.chi0", e["chi0"], _real)

    # -- experiment (an empty or omitted sweep keeps the default axis)
    x = section("experiment")
    experiment_fields = _fields("experiment", x)
    for key, least in _LEAST.items():
        if key in x:
            experiment_fields[key] = _at_least(f"experiment.{key}", x[key], least)
    h_values = _numbers("experiment.h_values", x.get("h_values"), int)
    for i, h in enumerate(h_values):
        if h < 1:
            raise ScenarioError(f"experiment.h_values[{i}] must be a ring count >= 1, got {h!r}")
    sweeps = {
        "h_values": h_values,
        "powers": _powers("experiment.powers", x.get("powers")) or p_range,
        "availabilities": _numbers("experiment.availabilities", x.get("availabilities"), _real),
        "sites": tuple(
            _numbers(f"experiment.sites[{i}]", site, _real)
            for i, site in enumerate(_list("experiment.sites", x.get("sites")))
        ),
    }
    for i, a in enumerate(sweeps["availabilities"]):
        if not 0 <= a <= 1:
            raise ScenarioError(f"experiment.availabilities[{i}] must lie in [0, 1], got {a!r}")
    for i, site in enumerate(sweeps["sites"]):
        if len(site) != 2:
            raise ScenarioError("experiment.sites: expected [radius fraction, bearing] pairs")
        if not all(map(math.isfinite, site)):
            raise ScenarioError(f"experiment.sites[{i}] must be finite, got {list(site)!r}")
        # snapping squares the distance from the site to a subcell centre, at most this far
        reach = (1.0 + abs(site[0])) * params.R
        if reach * reach == math.inf:
            raise ScenarioError(
                f"experiment.sites[{i}] lies too far out to snap: its distance to a subcell, up to "
                f"(1 + |radius fraction|) * grid.R = {reach!r} m, overflows when squared"
            )
    experiment = ExperimentSpec(
        **experiment_fields, **{key: value for key, value in sweeps.items() if value}
    )

    # -- a hop's SINR, P / (interference + noise term), must be a finite
    # number at every depth a command builds a grid for
    power = max(radio.power, *experiment.powers)
    for h in sorted({params.H, *experiment.h_values}):
        try:
            term = radio.noise_term(replace(params, H=h).relay_distance)
        except OverflowError:
            term = math.inf
        if not 0 < term < math.inf:
            raise ScenarioError(
                f"radio.noise * relay_distance**alpha is {term!r} at H={h}, so a link's "
                "SINR is undefined: it must be finite and positive; change grid.R, radio.alpha or radio.noise"
            )
        if power / term == math.inf:
            raise ScenarioError(
                f"a link's SINR overflows at H={h}: transmit power {power!r} over the noise "
                f"term {term!r}; change radio.P, experiment.powers, grid.R or radio.noise"
            )

    return ScenarioFile(
        name=str(raw.get("name", path.stem)),
        grid=grid,
        radio=radio,
        protocol=protocol,
        dest=dest,
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

    @cached_property
    def text(self) -> list[list[str]]:
        """Each column's cells as text, formatted on first use and read by both emitters.

        The text is kept, so ``rows`` must not change once the table is emitted.
        """
        if not self.rows:
            raise ScenarioError("refusing to emit an empty table")
        return list(map(_column_text, zip(*self.rows)))


def _column_text(values: Sequence) -> list[str]:
    """``_fmt`` of each value; a run of one object (a per-step column) is formatted once."""
    out = []
    last, text = object(), ""
    for value in values:
        if value is not last:
            # most cells are floats: their text is ``_fmt``'s, without the call
            last, text = value, repr(value) if type(value) is float else _fmt(value)
        out.append(text)
    return out


def _fmt(value: Any) -> str:
    kind = type(value)
    if kind is int or kind is str:
        return str(value)
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
    """Write the table; fixed column order, repr floats, newline-terminated.

    Each line is its cells joined by commas.  A table whose text ``csv``
    would quote somewhere -- a quote, CR, comma or newline inside a cell, or
    an empty cell as a row's only one -- is written by ``csv`` instead, so
    the bytes are always those of ``csv.writer``.
    """
    lines = [",".join(table.columns), *map(",".join, zip(*table.text))]
    text = "\n".join(lines)
    width = len(table.columns)
    plain = (
        '"' not in text
        and "\r" not in text
        and text.count(",") == (width - 1) * len(lines)
        and text.count("\n") == len(lines) - 1
        and not (width == 1 and "" in lines)
    )
    del lines  # gone before the write encodes a copy of the text
    with Path(path).open("w", newline="", encoding="utf-8") as fh:
        if plain:
            fh.write(text)
            fh.write("\n")
            return
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(table.columns)
        writer.writerows(zip(*table.text))


def emit_plotdata(table: ResultTable, path: str | Path) -> None:
    """Gnuplot-style blocks: one block per value of the sweep column."""
    text = table.text
    sweep = table.sweep or table.columns[0]
    key = table.columns.index(sweep)
    rest = [j for j in range(len(table.columns)) if j != key]
    # an empty cell (None or an empty string) is written as nan
    other = [[t or "nan" for t in text[j]] if "" in text[j] else text[j] for j in rest]
    lines = list(map(" ".join, zip(*other))) if other else [""] * len(table.rows)
    blocks: dict[Any, list[int]] = {}
    for i, row in enumerate(table.rows):
        blocks.setdefault(row[key], []).append(i)
    with Path(path).open("w", encoding="utf-8") as fh:
        fh.write(f"# columns: {' '.join(table.columns[j] for j in rest)}\n")
        blank = ""  # a blank line between blocks, none after the last
        for rows in blocks.values():
            fh.write(f"{blank}# {sweep} = {text[key][rows[0]]}\n")
            fh.write("\n".join(map(lines.__getitem__, rows)))
            fh.write("\n")
            blank = "\n"


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
        chain = build_mdr_chain(grid, dest, cfg.p, dwell=float(NUM_COLORS))
    stats = absorption_statistics(chain)
    absorbing = [c.i for c in dest.absorbing_cells()]
    dest_idx = dest.indices()
    columns = ["subcell", "ring", "theta", "tau", "var_tau"]
    columns += [f"b_ap{j + 1}" for j in range(len(dest.aps))]
    if dest.bs is not None:
        columns.append("b_bs")
    columns.append("b_nr")
    rows = []
    for cell in grid.cells[1:]:
        if cell.i in dest_idx:
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
            run_cfg = replace(cfg, kind=kind, p=1.0)
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
    # the context owns both rules; checking the access points before any
    # user is placed tells which key to name
    with _named("destinations.aps"):
        ctx = OffloadContext(grid=scn.grid, dest=scn.dest, radio=scn.radio, placements={})
    with _named("traffic.users"):
        ctx = replace(ctx, placements=scn.users)
    rows = []
    for s, state in enumerate(scn.steps, start=1):
        if not state.offload:
            continue
        try:
            result = negotiate(ctx, state, scn.econ, mode=scn.mode, chi0=scn.chi0)
        except NegotiationError as exc:
            raise NegotiationError(
                f"traffic.steps[{s - 1}] (step {s}): {exc}; "
                "raise econ.max_iter or econ.step, or narrow econ.bounds",
                exc.trace,
            ) from exc
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
        counts, var = empirical.counts, analytic.var_tau
        z = np.zeros(len(counts))
        scored = (counts > 0) & (var > 0.0)
        gap = empirical.tau[scored] - analytic.tau[scored]
        z[scored] = gap / np.sqrt(var[scored] / counts[scored])
        b_gap = np.abs(empirical.absorb_probs - analytic.absorb_probs).max(axis=1)
        rows.extend(
            zip(
                [p] * len(counts),
                chain.transient,
                analytic.tau.tolist(),
                empirical.tau.tolist(),
                z.tolist(),
                b_gap.tolist(),
                counts.tolist(),
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

COMMANDS = tuple(_RUNNERS)


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
    seed = scenario.experiment.seed if seed is None else _at_least("seed override", seed, _LEAST["seed"])
    walks = scenario.experiment.n_walks if walks is None else _at_least("walks override", walks, _LEAST["n_walks"])
    try:
        return runner(scenario, seed, walks)
    except ScenarioError:
        raise
    except ValueError as exc:
        raise ScenarioError(f"{command} on scenario {scenario.name!r}: {exc}") from exc
