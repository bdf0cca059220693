"""Energy-aware cluster activation for randomized average consensus.

Pipeline: place nodes, enumerate candidate clusters around each head,
price each activation with a squared-distance energy model, optimize the
cluster activation probabilities to trade mixing speed against expected
energy, and verify the trade-off with Monte-Carlo simulation.
"""

from . import candidates, energy, errors, optimizer, simulator, topology
from .candidates import *
from .energy import *
from .errors import *
from .optimizer import *
from .simulator import *
from .topology import *

__version__ = "0.1.0"

# Each module's __all__ is the one list of its public names.
__all__ = sorted(
    name
    for module in (candidates, energy, errors, optimizer, simulator, topology)
    for name in module.__all__
)
