"""Network arena: one pooled columnar plane for every router's banks.

When the columnar engine is on, each link scheduler keeps its per-VC
columns in a :class:`~repro.core.columnar.ColumnarState`.  The arena
re-homes all of them into one
:class:`~repro.core.columnar.ColumnarPool` — contiguous network-global
arrays with a router-id axis — so round folds and priority updates run
over shared storage and the whole network's columns live in a handful of
allocations (DESIGN.md §7f).

That is all ``network_arena`` means.  Stepping only the routers that have
work is the kernel's job (:mod:`repro.sim.engine`) and the link plane is
the network's (:class:`~repro.network.network.Network`), arena or not.
The object graph stays authoritative: pooling can be flipped mid-run and
checkpoints never pickle the NumPy chunks.

The arena requires NumPy; constructing one without it raises the typed
:class:`~repro.core.columnar.ColumnarUnavailableError`.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from .columnar import ColumnarPool, ColumnarState, require_numpy

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..network.network import Network


class NetworkArena:
    """The pooled columnar plane of one :class:`Network`.

    Construct via :meth:`Network.set_network_arena`.
    """

    def __init__(self, network: "Network") -> None:
        """Re-home every scheduler bank of ``network`` into one pool.

        Reservation must cover *every* bank before the first adoption:
        with the columnar engine already enabled, ``adopt_columnar_pool``
        rebuilds the bank immediately, and the first ``take`` freezes
        each dtype chunk at whatever capacity has been reserved so far —
        a later bank would then need the chunk to grow, which the pool
        refuses (it would detach live views).
        """
        require_numpy()
        self.pool = ColumnarPool()
        config = network.config
        requirements = ColumnarState.pool_requirements(
            config.vcs_per_port, config.num_ports
        )
        routers = network.routers
        num_banks = sum(len(router.link_schedulers) for router in routers)
        self.pool.reserve(
            {name: rows * num_banks for name, rows in requirements.items()}
        )
        for node, router in enumerate(routers):
            for port, scheduler in enumerate(router.link_schedulers):
                scheduler.adopt_columnar_pool(self.pool, (node, port))
