"""repro.system — whole-system assembly (paper Fig. 1 / Fig. 2).

Builds the complete simulated installation: host port(s) ↔ full-duplex link ↔
receiver/transmitter ↔ Register Transfer Machine with its functional
units, and wraps it in a :class:`Simulator`.
"""

from ..config import DEFAULT_CONFIG, FrameworkConfig
from .builder import SystemBuilder, build_system
from .soc import CoprocessorSystem

__all__ = [
    "DEFAULT_CONFIG",
    "FrameworkConfig",
    "SystemBuilder",
    "build_system",
    "CoprocessorSystem",
]
