"""Velocity estimation bounds for large-aperture array radar.

Each core module's public names are re-exported here; the experiment sweeps
live in :mod:`nfvel.experiments` and the command-line front end in
:mod:`nfvel.cli`.
"""

from . import bounds, estimator, geometry, waveform
from .bounds import *  # noqa: F403
from .constants import BOLTZMANN_CONSTANT, REFERENCE_TEMPERATURE, SPEED_OF_LIGHT
from .estimator import *  # noqa: F403
from .geometry import *  # noqa: F403
from .waveform import *  # noqa: F403

__version__ = "0.1.0"

__all__ = [
    *bounds.__all__,
    *estimator.__all__,
    *geometry.__all__,
    *waveform.__all__,
    "BOLTZMANN_CONSTANT",
    "REFERENCE_TEMPERATURE",
    "SPEED_OF_LIGHT",
    "__version__",
]
