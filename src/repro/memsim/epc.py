"""SGX Enclave Page Cache (EPC) pager.

SGX keeps enclave pages in a limited, hardware-protected region; pages
evicted to regular DRAM must be re-verified on the way back in, which is
the dominant SGX cost once the working set exceeds the EPC (paper §IV-A:
"we used the largest possible EPC, which significantly influences
overheads").  Two layers are provided:

* :class:`EpcPager` — a functional LRU pager counting faults/evictions;
* :func:`paging_overhead_s` — the closed-form per-step cost the engine
  uses for cyclically streamed working sets.
"""

from __future__ import annotations

from collections import OrderedDict

import numpy as np

from .pages import PAGE_4K

#: Cost of one EPC page fault: eviction + reload + MAC verification of a
#: 4 KiB page plus the AEX/resume round trip (order of ~10 us measured in
#: SGX literature; we keep an effective value).
EPC_FAULT_S = 8.0e-6


class EpcPager:
    """LRU pager over a fixed-size EPC.

    Pages are identified by index; the pager tracks residency, faults and
    evictions.  Invariant: resident pages never exceed capacity.
    """

    def __init__(self, epc_bytes: float, page_bytes: int = PAGE_4K) -> None:
        if epc_bytes <= 0 or page_bytes <= 0:
            raise ValueError("epc_bytes and page_bytes must be positive")
        self.page_bytes = page_bytes
        self.capacity_pages = max(1, int(epc_bytes // page_bytes))
        self._resident: OrderedDict[int, None] = OrderedDict()
        self.faults = 0
        self.evictions = 0
        self.accesses = 0

    @property
    def resident_pages(self) -> int:
        return len(self._resident)

    def touch(self, page_index: int) -> bool:
        """Access one page; returns True if it faulted."""
        self.accesses += 1
        if page_index in self._resident:
            self._resident.move_to_end(page_index)
            return False
        self.faults += 1
        if len(self._resident) >= self.capacity_pages:
            self._resident.popitem(last=False)
            self.evictions += 1
        self._resident[page_index] = None
        return True

    def touch_range(self, start_byte: int, length: int) -> int:
        """Touch a byte range; returns the number of faults incurred."""
        if length < 0:
            raise ValueError("length must be >= 0")
        before = self.faults
        first = start_byte // self.page_bytes
        last = (start_byte + max(length - 1, 0)) // self.page_bytes
        for page in range(first, last + 1):
            self.touch(page)
        return self.faults - before

    @property
    def fault_rate(self) -> float:
        return self.faults / self.accesses if self.accesses else 0.0


def paging_fraction(working_set_bytes: float, epc_bytes: float) -> float:
    """Fraction of streamed bytes that fault under cyclic LRU streaming.

    Identical structure to the TLB streaming model: a cyclic scan larger
    than the cache defeats LRU entirely for the excess fraction.
    """
    if working_set_bytes < 0 or epc_bytes <= 0:
        raise ValueError("working set must be >= 0 and EPC positive")
    if working_set_bytes <= epc_bytes:
        return 0.0
    return 1.0 - epc_bytes / working_set_bytes


def paging_fraction_vec(working_set_bytes, epc_bytes: float):
    """Array twin of :func:`paging_fraction` (column costing)."""
    ws = np.asarray(working_set_bytes, dtype=float)
    if np.any(ws < 0) or epc_bytes <= 0:
        raise ValueError("working set must be >= 0 and EPC positive")
    safe = np.where(ws > 0.0, ws, 1.0)
    return np.where(ws <= epc_bytes, 0.0, 1.0 - epc_bytes / safe)


def paging_overhead_s(bytes_streamed: float, working_set_bytes: float,
                      epc_bytes: float, page_bytes: int = PAGE_4K,
                      fault_s: float = EPC_FAULT_S) -> float:
    """Seconds of EPC paging while streaming ``bytes_streamed``."""
    if bytes_streamed < 0:
        raise ValueError("bytes_streamed must be >= 0")
    fraction = paging_fraction(working_set_bytes, epc_bytes)
    faults = (bytes_streamed / page_bytes) * fraction
    return faults * fault_s
