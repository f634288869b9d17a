"""Simulated UPMEM PIM system: DPUs, MRAM/WRAM, transfers, kernels, energy.

Functional execution with analytic timing — see DESIGN.md Sec. 2 for the
substitution rationale and ``config.CostModel`` for calibration constants.
"""

from .config import (
    DEVKIT_SYSTEM,
    EXECUTOR_NAMES,
    PAPER_SYSTEM,
    CostModel,
    DpuConfig,
    PimSystemConfig,
)
from .dpu import Dpu, DpuRunStats
from .energy import EnergyModel, EnergyReport
from .executor import (
    Executor,
    ProcessExecutor,
    SerialExecutor,
    ThreadExecutor,
    make_executor,
)
from .kernel import Kernel, SimClock
from .mram import Mram
from .system import DpuSet, PimSystem
from .transfer import TransferModel, TransferStats
from .wram import Wram, WramPlan

__all__ = [
    "PimSystemConfig",
    "DpuConfig",
    "CostModel",
    "PAPER_SYSTEM",
    "DEVKIT_SYSTEM",
    "Dpu",
    "DpuRunStats",
    "Mram",
    "Wram",
    "WramPlan",
    "Kernel",
    "SimClock",
    "PimSystem",
    "Executor",
    "SerialExecutor",
    "ThreadExecutor",
    "ProcessExecutor",
    "make_executor",
    "EXECUTOR_NAMES",
    "DpuSet",
    "TransferModel",
    "TransferStats",
    "EnergyModel",
    "EnergyReport",
]
