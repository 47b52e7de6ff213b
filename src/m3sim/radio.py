"""Single-hop link physics: SINR, Shannon capacity, minimum transmit power.

Every hop spans adjacent subcells, so the useful path length is always the
relay distance d_r.  Interferer distances are expressed as multiples Z of
d_r, which turns the SINR into

    sinr = P / (sum_k P / Z_k**alpha  +  noise * d_r**alpha)

after normalizing by the direct-path gain 1/d_r**alpha.  No fading model is
applied; the geometry is the channel.

Links are linear subcell indices.  No two subcells of an H-ring grid lie
more than 2H relay steps apart, so a transmitter's axial offset (dq, dr)
from the receiver has both parts in [-2H, 2H], and Z**2 = dq**2 + dr**2 +
dq*dr, the squared axial distance, is an integer.  Every interference term
P / Z**alpha is read from one table laid out by that offset, built once per
(power, alpha, H).

``link_sinr`` sums one link's terms in a Python loop.  ``slot_sinrs``
evaluates every link of a sequence of slots in numpy: it gathers the same
terms over (links x slot transmitters) arrays and adds each row in
transmitter order with ``np.cumsum``, so its floats equal ``link_sinr``'s
with ``==``.
Either raises ``RadioError`` naming a cell index outside the grid, a link
that is not one step long, or a link whose P / (I + N) is not finite.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from itertools import accumulate, chain
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
def _offset_terms(power: float, alpha: float, H: int) -> np.ndarray:
    """The interference terms laid out by axial offset, read-only.

    Entry (dq + 2H) * (4H + 1) + dr + 2H holds P / sqrt(d2)**alpha for a
    transmitter at offset (dq, dr) from the receiver, d2 = dq**2 + dr**2 +
    dq*dr: 0.0 at (0, 0), the receiver itself, and NaN past d2 = 4H**2,
    which no two cells of the grid reach.  Where sqrt(d2)**alpha overflows
    a float, the term is P * sqrt(d2)**-alpha, which underflows instead.

    With a cell's key q * (4H + 1) + r, the entry of a transmitter heard at
    a receiver is the table's centre 2H * (4H + 2) plus the transmitter's
    key minus the receiver's.
    """
    size = 4 * H * H + 1
    terms = [0.0]
    for d2 in range(1, size):
        try:
            terms.append(power / math.sqrt(d2) ** alpha)
        except OverflowError:
            terms.append(power * math.sqrt(d2) ** -alpha)
    d = np.arange(-2 * H, 2 * H + 1)
    d2 = d[:, None] ** 2 + d[None, :] ** 2 + d[:, None] * d[None, :]
    table = np.where(d2 < size, np.array(terms)[np.minimum(d2, size - 1)], np.nan).ravel()
    table.flags.writeable = False
    return table


def link_sinr(
    tx: int, rx: int, interferers: tuple[int, ...], radio: RadioParams, grid: SubcellGrid
) -> float:
    """SINR at the receiver ``rx`` of the relay hop tx -> rx (linear indices).

    Interference is summed over the co-slot transmitters ``interferers``, in
    the given order; each must occupy a subcell distinct from the receiver.
    ``RadioError`` names the first of tx, rx and the interferers outside
    0..len(grid.cells) - 1, or the link when its SINR is not finite (no
    interference and a noise term too small for the power).
    """
    cells, n = grid.cells, len(grid.cells)
    for cell in (tx, rx, *interferers):
        if not 0 <= cell < n:
            raise _unknown_cell(cell, n)
    if grid.squared_step_distance(cells[tx], cells[rx]) != 1:
        raise RadioError(f"link {tx}->{rx} does not span adjacent subcells")
    H = grid.params.H
    table = _offset_terms(radio.power, radio.alpha, H)
    width = 4 * H + 1
    # a transmitter's entry is this origin plus its key
    origin = 2 * H * (width + 1) - cells[rx].q * width - cells[rx].r
    interference = 0.0
    for cell in interferers:
        if cell == rx:
            raise RadioError(f"interferer co-located with receiver {rx}")
        at = cells[cell]
        interference += table.item(origin + at.q * width + at.r)
    denominator = interference + radio.noise_term(grid.params.relay_distance)
    sinr = radio.power / denominator if denominator else math.inf
    if not math.isfinite(sinr):
        raise _non_finite_sinr(tx, rx, radio, denominator)
    return sinr


# links per block of slot_sinrs; a block holds two (links x transmitters)
# arrays, 4 MB each for the widest H=64 slot
_BLOCK = 256


def slot_sinrs(
    slots: Sequence[tuple[Sequence[tuple[int, int]], Sequence[int]]], radio: RadioParams, grid: SubcellGrid
) -> list[float]:
    """SINRs of the links of every slot, in slot order and then link order.

    A slot is (links, transmitters): each link (tx, rx) hears every one of
    the slot's ascending, distinct (and at least one) ``transmitters``
    except its own tx and rx.  Each value equals ``link_sinr(tx, rx,
    others, radio, grid)`` with ``others`` the transmitters in the same
    order without tx and rx: a link's terms are added one transmitter after
    the other (``np.cumsum`` along its row), and its own tx and rx, and the
    padding past its slot's last transmitter, add an exact 0.0.

    The links are evaluated in the caller's slot order, in blocks of
    ``_BLOCK``, each padded to the widest slot it touches.  Before any SINR
    is evaluated, the first cell index outside the grid fails, a slot's
    links before its transmitters, then the first non-adjacent link, both
    in slot and then link order; then the first SINR that is not finite.
    """
    counts = [len(links) for links, _ in slots]
    widths = [len(sent) for _, sent in slots]
    # slot k owns links link_start[k]:link_start[k + 1] and transmitters
    # sent_start[k]:sent_start[k + 1]
    link_start, sent_start = [0, *accumulate(counts)], [0, *accumulate(widths)]
    links = chain.from_iterable(chain.from_iterable(links for links, _ in slots))
    tx, rx = np.fromiter(links, dtype=np.intp, count=2 * link_start[-1]).reshape(-1, 2).T
    order = np.fromiter(chain.from_iterable(sent for _, sent in slots), dtype=np.intp, count=sent_start[-1])
    every = np.concatenate((tx, rx, order))
    if every.size and not 0 <= every.min() <= every.max() < len(grid.cells):
        indices = chain.from_iterable(chain(*links, sent) for links, sent in slots)
        raise _unknown_cell(next(i for i in indices if not 0 <= i < len(grid.cells)), len(grid.cells))
    link_slot = np.repeat(np.arange(len(slots)), counts)
    q, r = grid.axial_coords
    dq, dr = q[tx] - q[rx], r[tx] - r[rx]
    far = np.flatnonzero(dq * dq + dr * dr + dq * dr != 1)
    if far.size:
        i = far[0]
        raise RadioError(f"link {tx[i]}->{rx[i]} does not span adjacent subcells")
    H = grid.params.H
    table = _offset_terms(radio.power, radio.alpha, H)
    width = 4 * H + 1
    # the table's entry for offset (0, 0), which holds 0.0
    centre = 2 * H * (width + 1)
    sent = q[order] * width + r[order] + centre
    heard_at = q[rx] * width + r[rx]
    # the column of each link's own tx in its slot, where it is one of the transmitters
    keys = np.repeat(np.arange(len(slots)), widths) * len(grid.cells) + order
    own_key = link_slot * len(grid.cells) + tx
    own = np.searchsorted(keys, own_key)
    hit = keys.take(own, mode="clip") == own_key
    own -= np.array(sent_start)[link_slot]
    interference = np.empty(tx.size)
    for start in range(0, tx.size, _BLOCK):
        stop = min(start + _BLOCK, tx.size)
        low, high = link_slot[start], link_slot[stop - 1]
        index = np.empty((stop - start, max(widths[low : high + 1])), dtype=np.intp)
        for k in range(low, high + 1):
            a, b = max(link_start[k], start), min(link_start[k + 1], stop)
            part = index[a - start : b - start]
            np.subtract(sent[sent_start[k] : sent_start[k + 1]], heard_at[a:b, None], out=part[:, : widths[k]])
            part[:, widths[k] :] = centre
        owned = np.flatnonzero(hit[start:stop])
        index[owned, own[start:stop][owned]] = centre
        heard = table.take(index)
        interference[start:stop] = np.cumsum(heard, axis=1, out=heard)[:, -1]
    denominators = interference + radio.noise_term(grid.params.relay_distance)
    with np.errstate(divide="ignore", over="ignore"):
        sinrs = radio.power / denominators
    bad = np.flatnonzero(~np.isfinite(sinrs))
    if bad.size:
        i = bad[0]
        raise _non_finite_sinr(tx[i], rx[i], radio, denominators[i])
    return sinrs.tolist()


def _unknown_cell(index: int, count: int) -> RadioError:
    return RadioError(f"cell index {index} outside the grid's 0..{count - 1}")


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
