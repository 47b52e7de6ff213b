"""Network state vectors and their compressed form.

The full description of one macrocell keeps entries that are redundant
given the tessellation geometry and traffic intensity, so the compressed
form keeps only (H, terminal counts, aggregate availability, traffic load,
beamwidth).  The dropped entries are recomputed on demand:

* relay availability      p_a   = 1 - zeta        (idle fraction of a terminal)
* visibility              p_phi = phi / 360       (beamwidth fraction)
* operator presence       p_o,i = n_o,i / N       (terminals per subcell count)
* channel gain            G     = (2H / (sqrt(3) R))**alpha

and the per-subcell availability aggregates across operators as the
probability that at least one operator provides a visible, idle terminal.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Sequence

from .grid import SQRT3, GridParams
from .radio import RadioParams


class CompressionError(ValueError):
    """Inconsistent or out-of-range state-vector entries."""


@dataclass(frozen=True)
class FullStateVector:
    """Uncompressed network state; redundant entries are kept explicitly."""

    H: int
    N: int
    n_o: tuple[int, ...]
    p_o: tuple[float, ...]
    p_a: float
    gain: float
    zeta: float
    phi: float
    p_phi: float


@dataclass(frozen=True)
class CompressedStateVector:
    """Compressed network state: tessellation depth, demand and availability."""

    H: int
    n_o: tuple[int, ...]
    p: float
    zeta: float
    phi: float


def aggregate_availability(p_a: float, p_phi: float, p_o: Sequence[float]) -> float:
    """Probability that at least one operator offers an idle, visible relay.

    Independent operators each miss with probability 1 - p_a * p_phi * p_o,i.
    """
    for name, value in (("p_a", p_a), ("p_phi", p_phi)):
        if not 0.0 <= value <= 1.0:
            raise CompressionError(f"{name} must lie in [0, 1], got {value!r}")
    if not p_o:
        raise CompressionError("need at least one operator presence probability")
    miss = 1.0
    for k, po in enumerate(p_o):
        if not 0.0 <= po <= 1.0:
            raise CompressionError(f"p_o[{k}] must lie in [0, 1], got {po!r}")
        miss *= 1.0 - p_a * p_phi * po
    return 1.0 - miss


def reconstruct_gain(H: int, R: float, alpha: float) -> float:
    """Adjacent-hop channel gain implied by the tessellation, (2H/(sqrt(3)R))**alpha."""
    if H < 1 or not 0 < R < math.inf or not 0 < alpha < math.inf:
        raise CompressionError(f"invalid gain parameters H={H!r}, R={R!r}, alpha={alpha!r}")
    try:
        return (2.0 * H / (SQRT3 * R)) ** alpha
    except OverflowError:
        raise CompressionError(f"gain overflows a float at H={H!r}, R={R!r}, alpha={alpha!r}") from None


def full_vector(
    H: int,
    n_o: Sequence[int],
    zeta: float,
    phi: float,
    grid_like: GridParams | None = None,
    alpha: float = RadioParams.alpha,
) -> FullStateVector:
    """Build a self-consistent full vector from the independent parameters."""
    params = grid_like if grid_like is not None else GridParams(H=H)
    if params.H != H:
        raise CompressionError(f"vector H={H} disagrees with grid H={params.H}")
    _check_vector(H, n_o, zeta, phi)
    N = params.subcell_count
    return FullStateVector(
        H=H,
        N=N,
        n_o=tuple(int(n) for n in n_o),
        p_o=tuple(n / N for n in n_o),
        p_a=1.0 - zeta,
        gain=reconstruct_gain(H, params.R, alpha),
        zeta=zeta,
        phi=phi,
        p_phi=phi / 360.0,
    )


def _check_vector(H, n_o, zeta, phi):
    if H < 1:
        raise CompressionError(f"H must be >= 1, got {H!r}")
    if not n_o:
        raise CompressionError("need at least one operator terminal count")
    if any(n < 0 for n in n_o):
        raise CompressionError(f"terminal counts cannot be negative, got {tuple(n_o)!r}")
    if not 0.0 <= zeta <= 1.0:
        raise CompressionError(f"traffic load zeta must lie in [0, 1], got {zeta!r}")
    if not 0.0 <= phi <= 360.0:
        raise CompressionError(f"beamwidth must lie in [0, 360] degrees, got {phi!r}")


def absorb(full: FullStateVector) -> CompressedStateVector:
    """Compress a full vector, dropping everything recomputable.

    The kept availability p aggregates p_a = 1 - zeta, p_phi = phi/360 and
    p_o,i = n_o,i / (3H(H+1)); the gain is dropped.
    """
    _check_vector(full.H, full.n_o, full.zeta, full.phi)
    N = 3 * full.H * (full.H + 1)
    if full.N != N:
        raise CompressionError(f"subcell count {full.N} inconsistent with H={full.H} (expected {N})")
    p = aggregate_availability(1.0 - full.zeta, full.phi / 360.0, [n / N for n in full.n_o])
    return CompressedStateVector(H=full.H, n_o=full.n_o, p=p, zeta=full.zeta, phi=full.phi)


def topology_step(current_h: int, utility: Callable[[int], float], h_min: int = 1, h_max: int | None = None) -> int:
    """One hill-climb step of the tessellation depth.

    Evaluates the utility at H-1, H and H+1 (within bounds) and moves to the
    neighbour with the larger improvement; ties prefer H+1 and no
    improvement keeps H.
    """
    if current_h < h_min:
        raise CompressionError(f"H={current_h} below minimum {h_min}")
    here = utility(current_h)
    up = utility(current_h + 1) - here if h_max is None or current_h + 1 <= h_max else -math.inf
    down = utility(current_h - 1) - here if current_h - 1 >= h_min else -math.inf
    if up > 0 and up >= down:
        return current_h + 1
    if down > 0:
        return current_h - 1
    return current_h


def climb_topology(start_h: int, utility: Callable[[int], float], h_min: int = 1, h_max: int = 12, max_steps: int = 64) -> int:
    """Iterate topology_step until it stops moving; returns the resting depth."""
    h = start_h
    for _ in range(max_steps):
        nxt = topology_step(h, utility, h_min=h_min, h_max=h_max)
        if nxt == h:
            return h
        h = nxt
    return h
