"""Entanglement-based key exchange per spectral channel (BBM92 flavor).

Both parties measure each incoming photon in a randomly chosen basis,
rectilinear (analyzer at RECTILINEAR_DEG = 0 deg) or diagonal
(DIAGONAL_DEG = 45 deg); the two angles are fixed.  Transmission maps to
bit 0 and reflection to bit 1.  Pairs measured in different bases are
discarded.  In each basis a channel's matched-basis outcomes correlate or
anti-correlate, as the sign of its correlation there says (Bennett, Brassard
& Mermin 1992); one party inverts its bits in a basis exactly where that
channel's outcomes disagree more often than they agree, so every channel is
keyed with the flips of its own state.  The asymptotic secret fraction uses
the usual two-basis entropy bound, and per-channel reports add up across a
wavelength-multiplexed link.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .biphoton import PairState, outcome_probabilities
from .detection import checked_int, derive_stream

__all__ = [
    "ProtocolConfig",
    "ChannelKeyReport",
    "WdmSummary",
    "binary_entropy",
    "secret_fraction",
    "derive_flips",
    "run_bbm92",
    "wdm_aggregate",
]

RECTILINEAR_DEG = 0.0
DIAGONAL_DEG = 45.0
_BASES = np.array([RECTILINEAR_DEG, DIAGONAL_DEG])

# Largest pair count the multinomial draw accepts (a signed 64-bit integer).
MAX_PAIRS = 2**63 - 1


@dataclass(frozen=True)
class ProtocolConfig:
    """Protocol parameters of one key-exchange run.

    There is no flip parameter: each channel's state sets its flips.

    Attributes:
        n_pairs: Number of distributed pairs, in [1, MAX_PAIRS].
        seed: Master seed; each channel derives its stream from
            (seed, channel_id).
    """

    n_pairs: int = 100_000
    seed: int = 0

    def __post_init__(self) -> None:
        object.__setattr__(self, "n_pairs", checked_int(self.n_pairs, "n_pairs", 1, MAX_PAIRS))
        object.__setattr__(self, "seed", checked_int(self.seed, "seed"))


@dataclass(frozen=True)
class ChannelKeyReport:
    """Key-rate figures of one spectral channel.

    qber values are NaN when no pair was sifted into that basis; the secret
    fraction is zero in that case.
    """

    lambda_signal: float
    sifted_bits: int
    qber_rect: float
    qber_diag: float
    secret_fraction: float
    secret_bits_estimate: float


@dataclass(frozen=True)
class WdmSummary:
    """Aggregate over the channels of a wavelength-multiplexed link."""

    channels: tuple[ChannelKeyReport, ...]
    total_sifted_bits: int
    total_secret_bits: float


def binary_entropy(x: float) -> float:
    """Shannon entropy of a bit with bias x, in bits; h(0) = h(1) = 0."""
    if not 0.0 <= x <= 1.0:
        raise ValueError(f"binary_entropy argument must be in [0, 1], got {x}")
    if x == 0.0 or x == 1.0:
        return 0.0
    return -x * math.log2(x) - (1.0 - x) * math.log2(1.0 - x)


def secret_fraction(qber_rect: float, qber_diag: float) -> float:
    """Asymptotic secret fraction 1 - h(q_rect) - h(q_diag), floored at 0."""
    return max(0.0, 1.0 - binary_entropy(qber_rect) - binary_entropy(qber_diag))


def _flips(p: np.ndarray) -> tuple[bool, bool]:
    """Per basis, whether the cells p of matched bases disagree (tr, rt) more often than they agree (tt, rr)."""
    return tuple(tr + rt > tt + rr for tt, tr, rt, rr in p.diagonal().T.tolist())


def derive_flips(state: PairState) -> tuple[bool, bool]:
    """The (rectilinear, diagonal) flips run_bbm92 applies to a channel in this state.

    A basis is flipped exactly where matched-basis outcomes disagree more
    often than they agree, that is where the correlation E is negative.
    """
    return _flips(outcome_probabilities(state, _BASES[:, None], _BASES))


def run_bbm92(
    state: PairState,
    config: ProtocolConfig,
    channel_id: int = 0,
    lambda_signal: float = math.nan,
) -> ChannelKeyReport:
    """Simulate one channel's key exchange and report its rates.

    Each pair falls into one of 16 cells (signal basis, idler basis, joint
    analyzer outcome): both bases are uniform bits and the outcome follows
    the four-outcome distribution at the chosen angles.  The report depends
    only on the cell counts, so they are drawn as one multinomial over the
    16 cells, which has the same distribution as sampling every pair and
    costs the same for any n_pairs.  The bit flips are read from the same
    cell weights (derive_flips).  The random stream is derived from
    (config.seed, channel_id), so reruns with the same arguments reproduce
    the report exactly.

    Args:
        state: Channel state the outcomes are sampled from.
        config: Protocol parameters.
        channel_id: Channel index mixed into the stream derivation.
        lambda_signal: Channel wavelength carried into the report, nm.

    Returns:
        ChannelKeyReport with sifted size, per-basis error rates, and the
        secret-bit estimate sifted_bits * secret_fraction.
    """
    rng = derive_stream(config.seed, channel_id)
    # Cell weights p[basis_s, basis_i, outcome], outcome 0 = tt, 1 = tr, 2 = rt, 3 = rr.
    p = outcome_probabilities(state, _BASES[:, None], _BASES)
    counts = rng.multinomial(config.n_pairs, (p / p.sum()).ravel()).reshape(2, 2, 4).tolist()

    def qber(basis: int, flip: bool) -> float:
        tt, tr, rt, rr = counts[basis][basis]
        n = tt + tr + rt + rr
        return math.nan if n == 0 else ((tt + rr) if flip else (tr + rt)) / n

    qber_rect, qber_diag = map(qber, (0, 1), _flips(p))
    sifted_bits = sum(counts[0][0]) + sum(counts[1][1])
    if math.isnan(qber_rect) or math.isnan(qber_diag):
        fraction = 0.0
    else:
        fraction = secret_fraction(qber_rect, qber_diag)
    return ChannelKeyReport(
        lambda_signal=float(lambda_signal),
        sifted_bits=sifted_bits,
        qber_rect=qber_rect,
        qber_diag=qber_diag,
        secret_fraction=fraction,
        secret_bits_estimate=sifted_bits * fraction,
    )


def wdm_aggregate(reports) -> WdmSummary:
    """Sum per-channel key figures over a multiplexed link.

    The per-channel table is preserved; totals are plain sums, so identical
    channels contribute identical shares.
    """
    channels = tuple(reports)
    return WdmSummary(
        channels=channels,
        total_sifted_bits=sum(r.sifted_bits for r in channels),
        total_secret_bits=sum(r.secret_bits_estimate for r in channels),
    )

