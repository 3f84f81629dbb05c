"""On-device hot/cold separation: the best an FTL can do without the DBMS.

The paper cites [3, 4] for the importance of hot/cold separation and argues
the FTL's *limited on-device resources rarely allow for maintaining
comprehensive statistics*.  This module implements that constrained
device-side approach so the claim can be measured rather than asserted:

:class:`HotColdFTL` keeps a small, decaying update-frequency sketch over
LBAs (a count-min-style table of bounded size — the "limited resources")
and routes each write to one of two frontier sets, hot or cold.  Compared
to :class:`~repro.ftl.page_mapping.PageMappingFTL` it separates *observed*
update behaviour; compared to NoFTL regions it lacks the DBMS's object
knowledge: new pages start unknown, shifting workloads mistrain it, and
the sketch aliases unrelated LBAs.

``benchmarks/bench_ftl_vs_noftl.py`` places it between the plain FTL and
NoFTL regions — exactly the paper's hierarchy of knowledge.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from repro.flash.device import FlashDevice
from repro.flash.payload import Payload
from repro.ftl.page_mapping import PageMappingFTL

if TYPE_CHECKING:  # pragma: no cover - annotation only
    from repro.policies import GCPolicy, WLPolicy


#: Placement-group ids used for the two on-device write frontiers.
_COLD_GROUP = 0
_HOT_GROUP = 1


class UpdateFrequencySketch:
    """Bounded-memory update-frequency estimator over a logical space.

    A fixed array of counters indexed by ``lba % slots`` (single-hash
    count-min).  Counters decay by halving every ``decay_interval``
    recorded updates, so the sketch tracks *recent* heat.  Collisions make
    unrelated LBAs share heat — deliberately so: that is the cost of
    "limited on-device resources" the paper talks about.
    """

    def __init__(self, slots: int = 1024, decay_interval: int = 8192) -> None:
        if slots < 1:
            raise ValueError("sketch needs at least one slot")
        if decay_interval < 1:
            raise ValueError("decay_interval must be positive")
        self.slots = slots
        self.decay_interval = decay_interval
        self._counters = [0] * slots
        self._recorded = 0

    def record(self, lba: int) -> None:
        """Note one update to ``lba`` (with periodic decay)."""
        self._counters[lba % self.slots] += 1
        self._recorded += 1
        if self._recorded % self.decay_interval == 0:
            self._counters = [c >> 1 for c in self._counters]

    def estimate(self, lba: int) -> int:
        """Estimated recent update count of ``lba`` (never underestimates
        relative to its alias set)."""
        return self._counters[lba % self.slots]

    def mean(self) -> float:
        """Mean counter value (the hot/cold decision threshold)."""
        return sum(self._counters) / self.slots


class HotColdFTL(PageMappingFTL):
    """Page-mapping FTL with two update-frequency write frontiers.

    Args:
        device: underlying native flash device.
        sketch_slots: counters available to the heat sketch (the on-device
            RAM budget).
        hot_factor: an LBA is routed to the hot frontier when its estimated
            heat exceeds ``hot_factor`` times the sketch mean.
        (remaining args as in :class:`PageMappingFTL`)
    """

    def __init__(
        self,
        device: FlashDevice,
        sketch_slots: int = 1024,
        hot_factor: float = 2.0,
        decay_interval: int = 8192,
        overprovision: float = 0.1,
        gc_policy: "str | GCPolicy" = "greedy",
        gc_trigger_free_blocks: int = 2,
        gc_target_free_blocks: int = 3,
        wear_level_threshold: int | None = None,
        wl_check_interval_erases: int = 64,
        wl_policy: "str | WLPolicy" = "coldest_first",
    ) -> None:
        if hot_factor <= 0:
            raise ValueError("hot_factor must be positive")
        super().__init__(
            device,
            overprovision=overprovision,
            gc_policy=gc_policy,
            gc_trigger_free_blocks=gc_trigger_free_blocks,
            gc_target_free_blocks=gc_target_free_blocks,
            wear_level_threshold=wear_level_threshold,
            wl_check_interval_erases=wl_check_interval_erases,
            wl_policy=wl_policy,
        )
        self.sketch = UpdateFrequencySketch(slots=sketch_slots, decay_interval=decay_interval)
        self.hot_factor = hot_factor
        self.hot_writes = 0
        self.cold_writes = 0

    def classify(self, lba: int) -> bool:
        """Whether the FTL currently believes ``lba`` is hot."""
        return self.sketch.estimate(lba) > self.hot_factor * max(0.25, self.sketch.mean())

    def _write_internal(self, lpn: int, data: Payload, at: float) -> float:
        """Route by estimated heat: hot and cold fill separate blocks."""
        is_user = lpn < self.num_lbas
        if is_user:
            hot = self.classify(lpn)
            self.sketch.record(lpn)
        else:
            hot = True  # translation/metadata pages are update-hot by nature
        if hot:
            self.hot_writes += 1
        else:
            self.cold_writes += 1
        group = _HOT_GROUP if hot else _COLD_GROUP
        from repro.ftl.blockdevice import DeviceFullError
        from repro.mapping.engine import SpaceFullError

        try:
            return self.engine.write(lpn, data, at, group=group)
        except SpaceFullError as exc:
            raise DeviceFullError(str(exc)) from exc
