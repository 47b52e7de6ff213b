"""Seeded scenario generators and the studies each workload repeats.

Every generated scenario uses only the public YAML schema.  Placements are
written as ``[ring, theta]`` with the exact angle of the chosen subcell, so
loading snaps each one onto that subcell.  Each placement is drawn only
from the cells still free, so no draw can break a rule of the schema (a
source on an unavailable cell, a user or an unavailable cell on a
destination, two placements on one cell) and none is ever rejected.

Sizes, and the number of placements on each ring, are fixed per workload;
only positions within a ring depend on the seed, so the amount of work a
study does varies little from seed to seed.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from m3sim.cli import bundled_scenario
from m3sim.grid import GridParams, SubcellGrid


@dataclass(frozen=True)
class Sizes:
    """Problem sizes of every workload at one scale; ``TINY`` is the smoke-test scale."""

    discovery_h: int
    discovery_walks: int
    capacity_h: int
    negotiation_h: int
    negotiation_files: int
    negotiation_users: int
    negotiation_steps: int
    negotiation_bs: int
    negotiation_wlan: int


FULL = Sizes(
    discovery_h=10,
    discovery_walks=20000,
    capacity_h=10,
    negotiation_h=6,
    negotiation_files=24,
    negotiation_users=12,
    negotiation_steps=2,
    negotiation_bs=5,
    negotiation_wlan=2,
)
TINY = Sizes(
    discovery_h=4,
    discovery_walks=2000,
    capacity_h=4,
    negotiation_h=4,
    negotiation_files=1,
    negotiation_users=8,
    negotiation_steps=2,
    negotiation_bs=4,
    negotiation_wlan=2,
)


@dataclass(frozen=True)
class Workload:
    """Scenario files to write and the (scenario, command) studies of one repetition."""

    files: dict[str, str]
    studies: tuple[tuple[str, str], ...]
    sizes: dict[str, int]


class _Draw:
    """Seeded cell picker over one grid that never picks a cell twice."""

    def __init__(self, rng: random.Random, grid: SubcellGrid):
        self.rng = rng
        self.grid = grid
        self.taken: set[int] = {0}  # the base station

    def per_ring(self, share: float) -> list[int]:
        """``share`` of each ring's free cells.

        Drawing ring by ring fixes how many placements sit at each distance
        from the base station, which sets how long routes and walks are.
        """
        picked = []
        for h in range(1, self.grid.params.H + 1):
            free = [c.i for c in self.grid.ring(h) if c.i not in self.taken]
            picked += self.rng.sample(free, round(share * len(free)))
        self.taken.update(picked)
        return picked

    def place(self, i: int) -> str:
        cell = self.grid.cells[i]
        return f"[{cell.h}, {cell.theta!r}]"


def _ap_pair(draw: _Draw, h: int) -> list[int]:
    """Two access points on the middle ring, at a seeded bearing and opposite it.

    Fixing the ring and the separation keeps the walk lengths, and so the
    work, comparable from seed to seed; the seed turns the pair.
    """
    ring = draw.grid.ring(max(1, h // 2))
    first = draw.rng.choice(ring)
    second, _ = draw.grid.nearest_in_ring(first.h, first.theta + 180.0)
    draw.taken |= {first.i, second.i}
    return [first.i, second.i]


def discovery(seed: int, sizes: Sizes) -> Workload:
    """LIR route statistics plus the Monte Carlo check at three availabilities."""
    h = sizes.discovery_h
    rng = random.Random(f"discovery:{seed}")
    grid = SubcellGrid(GridParams(H=h))
    draw = _Draw(rng, grid)
    aps = _ap_pair(draw, h)
    text = "\n".join(
        [
            f"name: discovery-{seed}",
            f"grid: {{H: {h}}}",
            "protocol: {kind: LIR, p: 0.9}",
            f"destinations: {{aps: [{', '.join(draw.place(a) for a in aps)}]}}",
            "experiment:",
            "  availabilities: [0.5, 0.7, 0.9]",
            f"  n_walks: {sizes.discovery_walks}",
            "",
        ]
    )
    transient = len(grid.cells) - 3  # two access points and the base station absorb
    return Workload(
        files={"discovery.yaml": text},
        studies=(("discovery.yaml", "routes"), ("discovery.yaml", "verify")),
        sizes={
            "cells": len(grid.cells),
            "lir_transient_states": 2 * transient,
            "mdr_transient_states": transient,
            "walks": sizes.discovery_walks,
        },
    )


def outage_capacity(seed: int, sizes: Sizes) -> Workload:
    """Capacity of four outage overlays, each over its own source set.

    Four independent source sets, rather than four overlays over one, keep
    the number of links, and so the O(L²) scheduling work, close to the
    same from seed to seed.
    """
    h = sizes.capacity_h
    rng = random.Random(f"outage-capacity:{seed}")
    grid = SubcellGrid(GridParams(H=h))
    files = {}
    for k in range(4):
        draw = _Draw(rng, grid)
        sources = draw.per_ring(0.3)
        down = draw.per_ring(0.1)
        files[f"capacity-{k + 1}.yaml"] = "\n".join(
            [
                f"name: outage-capacity-{seed}-{k + 1}",
                f"grid: {{H: {h}}}",
                "radio: {noise: 1.0e-6}",
                "overlay:",
                f"  sources: [{', '.join(draw.place(c) for c in sources)}]",
                "  scenarios:",
                f"    - name: outage-{k + 1}",
                f"      k0: {rng.randint(1, 7)}",
                f"      unavailable: [{', '.join(draw.place(c) for c in down)}]",
                "",
            ]
        )
    return Workload(
        files=files,
        studies=tuple((name, "capacity") for name in files),
        sizes={
            "cells": len(grid.cells),
            "overlays": len(files),
            "sources_per_overlay": len(sources),
            "unavailable_per_overlay": len(down),
        },
    )


def set_negotiation(seed: int, sizes: Sizes) -> Workload:
    """Joint price-and-set negotiation over several traffic steps, two access points.

    One repetition negotiates over several independent placements.  How far
    a set-adapting walk wanders depends strongly on where the users sit, so
    a single placement would make the cost of a study swing from seed to
    seed; the sum over several placements does not.
    """
    h = sizes.negotiation_h
    rng = random.Random(f"set-negotiation:{seed}")
    grid = SubcellGrid(GridParams(H=h))
    files = {}
    for f in range(sizes.negotiation_files):
        draw = _Draw(rng, grid)
        aps = _ap_pair(draw, h)
        cells = draw.per_ring(sizes.negotiation_users / len(grid.cells))
        users = [f"u{k + 1}" for k in range(len(cells))]
        hops = {
            u: min(grid.hop_distance(grid.cells[c], grid.cells[a]) for a in aps)
            for u, c in zip(users, cells)
        }
        lines = [
            f"name: set-negotiation-{seed}-{f + 1}",
            f"grid: {{H: {h}}}",
            "radio: {noise: 1.0e-6}",
            f"destinations: {{aps: [{', '.join(draw.place(a) for a in aps)}]}}",
            "traffic:",
            "  users:",
            *(f"    {u}: {draw.place(c)}" for u, c in zip(users, cells)),
            "  steps:",
        ]
        for _ in range(sizes.negotiation_steps):
            present = rng.sample(users, sizes.negotiation_bs + sizes.negotiation_wlan)
            wlan = sorted(present[: sizes.negotiation_wlan])
            bs = sorted(present[sizes.negotiation_wlan :])
            # offer the two base-station users nearest an access point
            near = sorted(bs, key=lambda u: (hops[u], u))
            offload = sorted(near[:2])
            lines.append(
                f"    - {{bs: [{', '.join(bs)}], wlan: [{', '.join(wlan)}], "
                f"offload: [{', '.join(offload)}]}}"
            )
        lines += [
            "econ: {rho: 2, rho1: 1, step: 0.002, bounds: [0.05, 2.0], mode: price-and-set}",
            "",
        ]
        files[f"negotiation-{f + 1}.yaml"] = "\n".join(lines)
    return Workload(
        files=files,
        studies=tuple((name, "negotiate") for name in files),
        sizes={
            "cells": len(grid.cells),
            "placements": sizes.negotiation_files,
            "users": len(users),
            "steps": sizes.negotiation_steps,
            "access_points": 2,
        },
    )


def bundled(seed: int, sizes: Sizes) -> Workload:
    """Every command on both bundled scenarios, as users run them today."""
    files = {}
    for name in ("default", "offload"):
        files[f"{name}.yaml"] = bundled_scenario(name).read_text()
    commands = ("tessellate", "routes", "capacity", "negotiate", "verify")
    return Workload(
        files=files,
        studies=tuple((f, c) for c in commands for f in ("default.yaml", "offload.yaml")),
        sizes={"scenarios": 2, "commands": len(commands)},
    )


GENERATORS = {
    "discovery": discovery,
    "outage-capacity": outage_capacity,
    "set-negotiation": set_negotiation,
    "bundled": bundled,
}
