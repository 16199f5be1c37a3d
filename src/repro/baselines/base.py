"""Common interfaces for the hardware timing models.

Every system (sequential CPU, Ideal/Real 32-core, Ideal/Real GPU, IR, Booster)
implements :class:`HardwareModel`: it converts a :class:`WorkProfile` into
per-step times (Table I steps), and an :class:`InferenceWork` into a batch-
inference time.  All systems share the same DRAM (Table IV) through a
:class:`BandwidthProfile` and the same cost constants, so comparisons isolate
architecture, exactly as in the paper's methodology (Sec. IV).
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from dataclasses import dataclass

from ..gbdt.workprofile import InferenceWork, WorkProfile
from ..memory.profile import BandwidthProfile, bandwidth_profile
from ..sim.calibrate import DEFAULT_COSTS, CostModel

__all__ = ["StepTimes", "HardwareModel", "host_step2_seconds"]


@dataclass
class StepTimes:
    """Seconds spent in each training step (the Fig. 8 decomposition).

    ``other`` covers non-step work: host<->accelerator transfers, per-vertex
    dispatch overheads, on-chip reductions.
    """

    step1: float = 0.0
    step2: float = 0.0
    step3: float = 0.0
    step5: float = 0.0
    other: float = 0.0

    @property
    def total(self) -> float:
        return self.step1 + self.step2 + self.step3 + self.step5 + self.other

    def as_dict(self) -> dict[str, float]:
        return {
            "step1": self.step1,
            "step2": self.step2,
            "step3": self.step3,
            "step5": self.step5,
            "other": self.other,
            "total": self.total,
        }

    @classmethod
    def from_dict(cls, d: dict) -> "StepTimes":
        """Inverse of :meth:`as_dict` (the derived ``total`` is ignored)."""
        return cls(
            **{
                k: float(d.get(k, 0.0))
                for k in ("step1", "step2", "step3", "step5", "other")
            }
        )

    def scaled(self, k: float) -> "StepTimes":
        return StepTimes(
            step1=self.step1 * k,
            step2=self.step2 * k,
            step3=self.step3 * k,
            step5=self.step5 * k,
            other=self.other * k,
        )


def _log2ceil(x: int) -> int:
    """ceil(log2(x)) for ``x >= 1``: the passes of a pairwise reduction tree."""
    return (x - 1).bit_length()


class HardwareModel(ABC):
    """Converts work profiles into time on one simulated system."""

    name: str = "hardware"

    def __init__(
        self,
        costs: CostModel | None = None,
        bandwidth: BandwidthProfile | None = None,
    ) -> None:
        self.costs = costs or DEFAULT_COSTS
        self.bandwidth = bandwidth or bandwidth_profile()

    # -- helpers shared by all models ------------------------------------------------

    def mem_seconds(self, nbytes: float) -> float:
        """Seconds to move ``nbytes`` at the measured sustained bandwidth."""
        return self.bandwidth.seconds_for_bytes(nbytes)

    # -- interface ----------------------------------------------------------------------

    @abstractmethod
    def training_times(self, profile: WorkProfile) -> StepTimes:
        """Per-step training time for the given work."""

    @abstractmethod
    def inference_seconds(self, work: InferenceWork) -> float:
        """Batch-inference time for the given work."""

    def training_seconds(self, profile: WorkProfile) -> float:
        return self.training_times(profile).total


def host_step2_seconds(
    profile: WorkProfile,
    costs: CostModel,
    reduce_copies: int,
    parallel: bool = True,
) -> float:
    """Step 2 on the host: histogram reduction + split scan.

    The scan cost is proportional to total bins per evaluated vertex (Fig. 3's
    left-to-right cumulative walk with the gain formula); the reduction cost
    covers merging ``reduce_copies`` replicated histograms (32 thread-private
    copies on the multicore, 64 on the Ideal GPU, cluster replicas reduced
    on-chip for Booster so its ``reduce_copies == 0``).
    """
    evals = profile.step2_evaluations()
    bins = profile.n_total_bins
    cycles = evals * bins * (
        costs.step2_scan_cycles_per_bin
        + reduce_copies * costs.step2_reduce_cycles_per_bin
    )
    seconds = cycles / (costs.cpu_clock_ghz * 1e9)
    if parallel:
        seconds /= costs.step2_parallel
    return seconds
