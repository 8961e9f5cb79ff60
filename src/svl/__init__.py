"""Genuine tripartite nonlocality of three-qubit reductions.

Quantifies Svetlichny values of three-qubit states, spectral upper
bounds from Pauli correlation tensors, and closed-form trade-off
relations over all three-qubit reductions of four- and n-qubit states,
with a numerical-maximization harness to check them.
"""

from .correlations import *
from .errors import *
from .qstate import *
from .svetlichny import *
from .tradeoff import *

__version__ = "0.1.0"
