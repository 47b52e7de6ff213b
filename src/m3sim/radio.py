"""Single-hop link physics: SINR, Shannon capacity, minimum transmit power.

Every hop spans adjacent subcells, so the useful path length is always the
relay distance d_r.  Interferer distances are expressed as multiples Z of
d_r, which turns the SINR into

    sinr = P / (sum_k P / Z_k**alpha  +  noise * d_r**alpha)

after normalizing by the direct-path gain 1/d_r**alpha.  No fading model is
applied; the geometry is the channel.

Links are linear subcell indices.  Z_k**2 is an integer, the squared axial
distance, and no two subcells of an H-ring grid lie more than 2H relay
steps apart, so every interference term P / Z**alpha is read from one
table over Z**2 = 0 .. 4H**2, built once per (power, alpha, grid size).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

from .grid import GridParams, SubcellGrid, check_finite_positive


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
        check_finite_positive(RadioError, "transmit power", self.power)
        check_finite_positive(RadioError, "path-loss exponent", self.alpha)
        check_finite_positive(RadioError, "noise power", self.noise, joint=True)
        check_finite_positive(RadioError, "sensitivity", self.sensitivity)

    def noise_term(self, relay_distance: float) -> float:
        """Noise power over the direct-path gain of one hop: noise * d_r**alpha."""
        return self.noise * relay_distance**self.alpha


@lru_cache(maxsize=32)
def _interference_terms(power: float, alpha: float, size: int) -> tuple[float, ...]:
    """P / sqrt(d2)**alpha for each squared axial distance d2 < size (d2 = 0 unused).

    Where sqrt(d2)**alpha overflows a float, the term is P * sqrt(d2)**-alpha,
    which underflows instead.
    """
    terms = [math.inf]
    for d2 in range(1, size):
        try:
            terms.append(power / math.sqrt(d2) ** alpha)
        except OverflowError:
            terms.append(power * math.sqrt(d2) ** -alpha)
    return tuple(terms)


def link_sinr(
    tx: int, rx: int, interferers: tuple[int, ...], radio: RadioParams, grid: SubcellGrid
) -> float:
    """SINR at the receiver ``rx`` of the relay hop tx -> rx (linear indices).

    Interference is summed over the co-slot transmitters ``interferers``, in
    the given order; each must occupy a subcell distinct from the receiver.
    """
    if rx not in grid.adjacent[tx]:
        raise RadioError(f"link {tx}->{rx} does not span adjacent subcells")
    terms = _interference_terms(radio.power, radio.alpha, 4 * grid.params.H**2 + 1)
    q, r = grid.axial_q, grid.axial_r
    rq, rr = q[rx], r[rx]
    interference = 0.0
    for cell in interferers:
        if cell == rx:
            raise RadioError(f"interferer co-located with receiver {rx}")
        dq, dr = q[cell] - rq, r[cell] - rr
        d2 = dq * dq + dr * dr + dq * dr
        interference += terms[d2]
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
    check_finite_positive(RadioError, "sensitivity", sensitivity)
    check_finite_positive(RadioError, "path-loss exponent", alpha)
    try:
        return sensitivity * params.relay_distance**alpha
    except OverflowError:
        raise RadioError(f"minimum power sensitivity * d_r**alpha overflows at alpha={alpha!r}") from None
