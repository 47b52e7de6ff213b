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

``link_sinr`` sums one link's terms in a Python loop.  ``slot_sinrs``
evaluates every link of one slot in numpy: it gathers the same terms, laid
out by axial offset, over a (links x slot transmitters) array and adds each
row in transmitter order with ``np.cumsum``, so its floats equal
``link_sinr``'s with ``==``.  Either raises ``RadioError`` naming the link
when P / (I + N) is not finite.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Sequence

import numpy as np

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
    A SINR that is not finite (no interference and a noise term too small
    for the power) raises ``RadioError`` naming the link.
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
    denominator = interference + radio.noise_term(grid.params.relay_distance)
    try:
        sinr = radio.power / denominator
    except ZeroDivisionError:
        sinr = math.inf
    if not math.isfinite(sinr):
        raise _non_finite_sinr(tx, rx, radio, denominator)
    return sinr


@lru_cache(maxsize=32)
def _offset_terms(power: float, alpha: float, H: int) -> np.ndarray:
    """The term table laid out by axial offset, read-only.

    Entry (dq + 2H) * (4H + 1) + dr + 2H holds the term of a transmitter at
    offset (dq, dr) from the receiver: 0.0 at (0, 0), the receiver itself,
    and NaN past the squared distance 4H**2, which no two cells of the grid
    reach.
    """
    size = 4 * H * H + 1
    terms = np.array(_interference_terms(power, alpha, size))
    terms[0] = 0.0
    d = np.arange(-2 * H, 2 * H + 1)
    d2 = d[:, None] ** 2 + d[None, :] ** 2 + d[:, None] * d[None, :]
    table = np.where(d2 < size, terms[np.minimum(d2, size - 1)], np.nan).ravel()
    table.flags.writeable = False
    return table


# links per block of slot_sinrs; a block holds two (links x transmitters)
# arrays, 4 MB each for the widest H=64 slot
_BLOCK = 256


def slot_sinrs(
    links: Sequence[tuple[int, int]], transmitters: Sequence[int], radio: RadioParams, grid: SubcellGrid
) -> list[float]:
    """SINR of each link (tx, rx) hearing every one of the ascending, distinct
    (and at least one) ``transmitters`` except its own tx and rx.

    Each value equals ``link_sinr(tx, rx, others, radio, grid)`` with
    ``others`` the transmitters in the same order without tx and rx: a
    link's terms are added one transmitter after the other (``np.cumsum``
    along its row), and its own tx and rx add an exact 0.0.
    """
    pairs = np.array(links, dtype=np.intp).reshape(-1, 2)
    tx, rx = pairs[:, 0], pairs[:, 1]
    q, r = grid.axial_coords
    dq, dr = q[tx] - q[rx], r[tx] - r[rx]
    far = np.flatnonzero(dq * dq + dr * dr + dq * dr != 1)
    if far.size:
        i = far[0]
        raise RadioError(f"link {tx[i]}->{rx[i]} does not span adjacent subcells")
    order = np.array(transmitters, dtype=np.intp)
    H = grid.params.H
    table = _offset_terms(radio.power, radio.alpha, H)
    # with a cell's key q * (4H + 1) + r, a transmitter's offset index at a
    # receiver is its key minus the receiver's plus the table's centre
    # 2H * (4H + 2)
    width = 4 * H + 1
    sent = q[order] * width + r[order] + 2 * H * (width + 1)
    heard_at = q[rx] * width + r[rx]
    # the column of each link's own tx, where it is one of the transmitters
    own = np.minimum(np.searchsorted(order, tx), order.size - 1)
    hit = order[own] == tx
    interference = np.empty(len(pairs))
    for start in range(0, len(pairs), _BLOCK):
        block = slice(start, start + _BLOCK)
        heard = table.take(sent[None, :] - heard_at[block, None])
        rows = np.flatnonzero(hit[block])
        heard[rows, own[block][rows]] = 0.0
        interference[block] = np.cumsum(heard, axis=1, out=heard)[:, -1]
    denominators = interference + radio.noise_term(grid.params.relay_distance)
    with np.errstate(divide="ignore", over="ignore"):
        sinrs = radio.power / denominators
    bad = np.flatnonzero(~np.isfinite(sinrs))
    if bad.size:
        i = bad[0]
        raise _non_finite_sinr(tx[i], rx[i], radio, denominators[i])
    return sinrs.tolist()


def _non_finite_sinr(tx: int, rx: int, radio: RadioParams, denominator: float) -> RadioError:
    return RadioError(
        f"SINR of link {tx}->{rx} is not finite: power {radio.power!r} over"
        f" interference plus noise {float(denominator)!r}"
    )


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
