"""Polarization-entangled pair-source model for wavelength-multiplexed QKD.

The package models a down-conversion source whose two-photon polarization
state varies across its emission spectrum, and provides the analysis chain
used to characterize such a source: analytic coincidence statistics and
fringe peaks, Monte Carlo polarizer scans with Poisson counting noise,
weighted sinusoid fits, CHSH optimization, and per-channel BBM92 key rates
with multiplexed totals.
"""

from .biphoton import *
from .config import *
from .correlation import *
from .detection import *
from .qkd import *
from .scanfit import *
from .spectral import *

__version__ = "0.1.0"
