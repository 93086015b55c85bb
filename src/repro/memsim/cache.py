"""Last-level-cache working-set model.

The Fig. 10 input-size sweep turns on cache behaviour: as the KV cache
per sequence grows, per-token reads stop hitting the LLC and the decode
step becomes memory-bound again (with matching TLB pressure).  We model
the LLC as a bandwidth filter: traffic whose working set fits (a share
of) the LLC is served at cache bandwidth and does not count as DRAM
traffic.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class CacheModel:
    """LLC hit modelling for one traffic stream.

    Attributes:
        llc_bytes: Usable LLC capacity for this stream.
        residency_share: Fraction of the LLC this stream can realistically
            occupy given competing streams (weights always stream through,
            so KV/activations only get a share).
    """

    llc_bytes: float
    residency_share: float = 0.6

    def __post_init__(self) -> None:
        if self.llc_bytes < 0:
            raise ValueError("llc_bytes must be >= 0")
        if not 0.0 < self.residency_share <= 1.0:
            raise ValueError("residency_share must be in (0, 1]")

    @property
    def effective_capacity(self) -> float:
        return self.llc_bytes * self.residency_share

    def dram_fraction(self, working_set_bytes: float) -> float:
        """Fraction of stream traffic that reaches DRAM.

        Cyclic-scan LRU model: working sets within the effective capacity
        hit fully; beyond it, the excess fraction misses.
        """
        if working_set_bytes < 0:
            raise ValueError("working_set_bytes must be >= 0")
        if working_set_bytes <= self.effective_capacity:
            return 0.0
        return 1.0 - self.effective_capacity / working_set_bytes

    def dram_bytes(self, traffic_bytes: float, working_set_bytes: float) -> float:
        """DRAM-visible portion of ``traffic_bytes``."""
        if traffic_bytes < 0:
            raise ValueError("traffic_bytes must be >= 0")
        return traffic_bytes * self.dram_fraction(working_set_bytes)

    def dram_fraction_vec(self, working_set_bytes: np.ndarray) -> np.ndarray:
        """Array twin of :meth:`dram_fraction` (column costing)."""
        ws = np.asarray(working_set_bytes, dtype=float)
        if np.any(ws < 0):
            raise ValueError("working_set_bytes must be >= 0")
        capacity = self.effective_capacity
        safe = np.where(ws > 0.0, ws, 1.0)
        return np.where(ws <= capacity, 0.0, 1.0 - capacity / safe)
