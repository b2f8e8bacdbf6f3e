"""Discrete-event simulation substrate: event loop, WAN model, fault injection."""

from .simulator import Simulator, Timer, SimulationError
from .latency import LatencyModel, DATACENTER_NAMES
from .network import Network, NetworkStats, wire_size
from .faults import FaultInjector

__all__ = [
    "Simulator",
    "Timer",
    "SimulationError",
    "LatencyModel",
    "DATACENTER_NAMES",
    "Network",
    "NetworkStats",
    "wire_size",
    "FaultInjector",
]
