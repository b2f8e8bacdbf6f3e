"""Experiment harness: deployments and per-figure scenarios."""

from .runner import Deployment, DeploymentResult
from . import invariants
from . import scenarios

__all__ = [
    "Deployment",
    "DeploymentResult",
    "invariants",
    "scenarios",
]
