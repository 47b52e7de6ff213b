"""Single-hop link physics: SINR, Shannon capacity, minimum transmit power.

Every hop spans adjacent subcells, so the useful path length is always the
relay distance d_r.  Interferer distances are expressed as multiples Z of
d_r, which turns the SINR into

    sinr = P / (sum_k P / Z_k**alpha  +  noise * d_r**alpha)

after normalizing by the direct-path gain 1/d_r**alpha.  No fading model is
applied; the geometry is the channel.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .grid import GridParams, SubcellGrid, SubcellId


class RadioError(ValueError):
    """Invalid radio parameters or link geometry."""


@dataclass(frozen=True)
class RadioParams:
    """Transmit power (W), path-loss exponent, noise power (W) and sensitivity."""

    power: float = 0.15
    alpha: float = 2.0
    noise: float = 1e-4
    sensitivity: float = 1e-6

    def __post_init__(self):
        if not self.power > 0:
            raise RadioError(f"transmit power must be positive, got {self.power!r}")
        if not self.alpha > 0:
            raise RadioError(f"path-loss exponent must be positive, got {self.alpha!r}")
        if not 0 < self.noise < math.inf:
            raise RadioError(f"noise power must be finite and positive, got {self.noise!r}")
        if not self.sensitivity > 0:
            raise RadioError(f"sensitivity must be positive, got {self.sensitivity!r}")

    def noise_term(self, relay_distance: float) -> float:
        """Noise power over the direct-path gain of one hop: noise * d_r**alpha."""
        return self.noise * relay_distance**self.alpha


@dataclass(frozen=True)
class LinkContext:
    """One transmission: transmitter, its adjacent receiver, co-slot interferers."""

    tx: SubcellId
    rx: SubcellId
    interferers: tuple[SubcellId, ...] = ()


def link_sinr(ctx: LinkContext, radio: RadioParams, grid: SubcellGrid) -> float:
    """SINR at the receiver of a single relay hop.

    Interference is summed over the co-slot transmitters in ``ctx``; each
    must occupy a subcell distinct from the receiver.
    """
    rx = ctx.rx
    if grid.squared_step_distance(ctx.tx, rx) != 1:
        raise RadioError(f"link {ctx.tx.i}->{rx.i} does not span adjacent subcells")
    power, alpha = radio.power, radio.alpha
    interference = 0.0
    for cell in ctx.interferers:
        if cell.i == rx.i:
            raise RadioError(f"interferer co-located with receiver {rx.i}")
        dq, dr = cell.q - rx.q, cell.r - rx.r
        interference += power / math.sqrt(dq * dq + dr * dr + dq * dr) ** alpha
    return radio.power / (interference + radio.noise_term(grid.params.relay_distance))


def link_capacity(sinr: float) -> float:
    """Shannon capacity of a unit-bandwidth link, log2(1 + sinr)."""
    if sinr < 0:
        raise RadioError(f"SINR cannot be negative, got {sinr!r}")
    return math.log1p(sinr) / math.log(2.0)


def min_power(params: GridParams, sensitivity: float, alpha: float) -> float:
    """Smallest transmit power that still reaches an adjacent subcell.

    With received power P/d_r**alpha and a receiver sensitivity floor, the
    minimum is sensitivity * d_r**alpha.
    """
    if not sensitivity > 0:
        raise RadioError(f"sensitivity must be positive, got {sensitivity!r}")
    if not alpha > 0:
        raise RadioError(f"path-loss exponent must be positive, got {alpha!r}")
    return sensitivity * params.relay_distance**alpha
