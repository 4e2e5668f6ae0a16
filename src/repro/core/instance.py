"""The problem instance every algorithm consumes.

A :class:`ProblemInstance` ties together the MEC network, its path
table, the latency model, and the slot geometry, so algorithms receive
one coherent object instead of five loosely related ones.  The workload
(list of :class:`~repro.requests.request.ARRequest`) stays separate
because the same instance is reused across workload sweeps.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import List, Optional

from ..config import SimulationConfig
from ..exceptions import ConfigurationError
from ..network.capacity import CapacityLedger, ResourceSlots
from ..network.paths import PathTable
from ..network.topology import MECNetwork, generate_topology
from ..requests.generator import RequestGenerator
from ..requests.request import ARRequest
from ..rng import RngForks
from .latency import LatencyModel


@dataclass
class ProblemInstance:
    """An MEC network plus the models the algorithms query.

    Attributes:
        network: the MEC network ``G = (BS, E)``.
        paths: shortest-path table over the backhaul.
        latency: the Eq. (2) latency model.
        config: the full simulation configuration this instance was
            built from.
    """

    network: MECNetwork
    paths: PathTable
    latency: LatencyModel
    config: SimulationConfig

    @classmethod
    def build(cls, config: Optional[SimulationConfig] = None,
              seed: Optional[int] = None) -> "ProblemInstance":
        """Construct a seeded instance from a configuration.

        Args:
            config: simulation parameters; paper defaults when None.
            seed: overrides ``config.seed`` when given.
        """
        if config is None:
            config = SimulationConfig()
        config.validate()
        root_seed = config.seed if seed is None else seed
        forks = RngForks(root_seed)
        network = generate_topology(config.network, forks.child("topology"))
        paths = PathTable(network)
        latency = LatencyModel(
            network, paths,
            proc_delay_range_ms=config.requests.proc_delay_range_ms,
            rng=forks.child("latency"))
        return cls(network=network, paths=paths, latency=latency,
                   config=config)

    # ------------------------------------------------------------------
    # Convenience accessors
    # ------------------------------------------------------------------
    @property
    def slot_size_mhz(self) -> float:
        """Resource slot capacity ``C_l``."""
        return self.network.slot_size_mhz

    @property
    def c_unit(self) -> float:
        """``C_unit`` (MHz per MB/s)."""
        return self.config.requests.c_unit_mhz_per_mbps

    def slots_of(self, station_id: int) -> ResourceSlots:
        """Slot geometry of one station."""
        return ResourceSlots(
            capacity_mhz=self.network.station(station_id).capacity_mhz,
            slot_size_mhz=self.slot_size_mhz)

    def max_num_slots(self) -> int:
        """Largest slot count across stations (the ``L`` loop bound)."""
        return self._max_num_slots

    @cached_property
    def _max_num_slots(self) -> int:
        # Computed once: station capacities are frozen
        # (:class:`~repro.network.topology.BaseStation`) and nothing
        # reassigns the network or its slot size after construction.
        return max(self.network.num_slots(sid)
                   for sid in self.network.station_ids)

    def new_ledger(self) -> CapacityLedger:
        """A fresh, empty capacity ledger for this network."""
        return CapacityLedger(self.network)

    def new_workload(self, num_requests: Optional[int] = None,
                     seed: Optional[int] = None,
                     horizon_slots: Optional[int] = None
                     ) -> List[ARRequest]:
        """Draw a workload consistent with this instance's config.

        Args:
            num_requests: overrides ``config.requests.num_requests``.
            seed: workload seed; derived from the instance seed when
                None.
            horizon_slots: when given, arrivals spread uniformly over
                the horizon (online workload); otherwise a batch at
                slot 0 (offline workload).
        """
        root = self.config.seed if seed is None else seed
        forks = RngForks(root)
        generator = RequestGenerator(self.config.requests, self.network,
                                     rng=forks.child("workload"))
        if horizon_slots is None:
            return generator.generate_batch(num_requests)
        return generator.generate_arrivals(num_requests, horizon_slots)

    def validate_workload(self, requests: List[ARRequest]) -> None:
        """Sanity-check a workload against this instance.

        Raises:
            ConfigurationError: when a request references an unknown
                serving station.
        """
        known = set(self.network.station_ids)
        for request in requests:
            if request.serving_station not in known:
                raise ConfigurationError(
                    f"request {request.request_id} attaches to unknown "
                    f"station {request.serving_station}")
