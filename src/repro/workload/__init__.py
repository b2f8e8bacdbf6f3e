"""Workload generation and fault schedules for experiments."""

from .generator import WorkloadGenerator
from .faults import epoch_start_crashes, epoch_end_crashes, stragglers

__all__ = [
    "WorkloadGenerator",
    "epoch_start_crashes",
    "epoch_end_crashes",
    "stragglers",
]
