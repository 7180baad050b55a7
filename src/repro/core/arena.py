"""Network arena: a per-router wake mask and a pooled columnar plane.

At 256+ routers the kernel polls every router's activity predicate
every cycle even when most of the grid is idle.  The arena removes that
cost (DESIGN.md §7f); the link plane is not its business — flits and
credits cross links in the network's own lanes
(:class:`~repro.network.network.Network`, DESIGN.md §7) whether the
arena is on or off, and the network lands them before calling
:meth:`NetworkArena.tick`.

Per-router wake mask
    Every router ticker is suspended
    (:meth:`repro.sim.engine.Simulator.suspend_tickers`); the arena
    keeps a sorted awake list and steps only those routers, in router-id
    order (the original ticker order).  A sleeping router costs zero
    Python dispatch — not even a predicate poll.  Waking is push, not
    poll: :class:`~repro.core.status_vectors.ActivitySet.on_wake` fires
    on the idle→busy transition and enqueues the router; its skipped
    idle span is replayed through ``account_idle_cycles`` at wake (the
    hook is span-pure, so deferred replay is bit-identical).

Pooled columnar plane
    When the columnar engine is on, every router's per-link
    :class:`~repro.core.columnar.ColumnarState` is re-homed into one
    :class:`~repro.core.columnar.ColumnarPool` — contiguous
    network-global arrays with a router-id axis — so round folds and
    priority updates run over shared storage and the whole network's
    columns live in a handful of allocations.

The object graph stays authoritative throughout: the arena can be
flipped on or off mid-run, checkpoints never pickle the NumPy chunks,
and the perf gate proves bit-identical delivered-flit streams and stats
against the per-router-ticker baseline.

The arena requires NumPy (the pooled plane is its point); constructing
one without it raises the typed
:class:`~repro.core.columnar.ColumnarUnavailableError`.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Dict, List

from .columnar import ColumnarPool, ColumnarState, require_numpy

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..network.network import Network


class _WakeHook:
    """Per-router ``ActivitySet.on_wake`` callback (picklable)."""

    __slots__ = ("arena", "node")

    def __init__(self, arena: "NetworkArena", node: int) -> None:
        self.arena = arena
        self.node = node

    def __call__(self) -> None:
        self.arena._woken.append(self.node)


class NetworkArena:
    """Wake-masked router stepping for one :class:`Network`.

    Construct via :meth:`Network.set_network_arena`, which owns the
    ticker suspension handshake with the simulator.
    """

    def __init__(self, network: "Network") -> None:
        require_numpy()
        self.network = network
        # Wake mask: sorted ids of routers being stepped, their set for
        # O(1) membership, ids woken since the last merge, and the cycle
        # each sleeping router stopped being stepped (for exact idle
        # accounting replay at wake).
        num_nodes = network.topology.num_nodes
        self._awake: List[int] = list(range(num_nodes))
        self._awake_set = set(self._awake)
        self._woken: List[int] = []
        self._asleep_since: Dict[int, int] = {}
        # Pooled columnar plane (shared by every scheduler bank).
        self.pool = ColumnarPool()

    # ----- install / uninstall --------------------------------------------

    def install(self) -> None:
        """Attach wake hooks and re-home columnar banks into the pool.

        Reservation must cover *every* bank before the first adoption:
        with the columnar engine already enabled, ``adopt_columnar_pool``
        rebuilds the bank immediately, and the first ``take`` freezes
        each dtype chunk at whatever capacity has been reserved so far —
        a later bank would then need the chunk to grow, which the pool
        refuses (it would detach live views).
        """
        config = self.network.config
        requirements = ColumnarState.pool_requirements(
            config.vcs_per_port, config.num_ports
        )
        routers = self.network.routers
        num_banks = sum(len(router.link_schedulers) for router in routers)
        self.pool.reserve(
            {name: rows * num_banks for name, rows in requirements.items()}
        )
        for node, router in enumerate(routers):
            router.activity.on_wake = _WakeHook(self, node)
            for port, scheduler in enumerate(router.link_schedulers):
                scheduler.adopt_columnar_pool(self.pool, (node, port))

    def uninstall(self) -> None:
        """Detach the wake hooks.

        Bank pooling is left in place — pool views are plain arrays and
        a later re-enable reuses the same rows.
        """
        for router in self.network.routers:
            router.activity.on_wake = None

    # ----- kernel hooks -----------------------------------------------------

    def active(self) -> bool:
        """Arena activity predicate: any stepped or woken router."""
        return bool(self._awake) or bool(self._woken)

    def tick(self, cycle: int) -> None:
        """One arena cycle: step the awake routers.

        Runs after the network has landed the cycle's arrivals and
        credits, so routers they woke are already queued in ``_woken``.
        """
        network = self.network
        routers = network.routers
        if not network.sim.allow_fast_forward:
            # Legacy kernel contract: every router ticks every cycle.
            # The wake hooks still fire on every idle->busy transition;
            # drop their queue so it cannot grow (and get pickled into
            # checkpoints) unboundedly — nothing here sleeps, so there
            # is never deferred idle accounting to replay.
            if self._woken:
                self._woken.clear()
            for router in routers:
                router.tick(cycle)
            return
        if self._woken:
            self._merge_woken(cycle)
        awake = self._awake
        if not awake:
            return
        asleep_since = self._asleep_since
        still_awake: List[int] = []
        for node in awake:
            router = routers[node]
            if router.activity.active():
                router.tick(cycle)
                still_awake.append(node)
            else:
                # Stop stepping it; idle cycles from here accrue lazily
                # and are replayed in one span at wake (or flush).
                self._awake_set.discard(node)
                asleep_since[node] = cycle
        if len(still_awake) != len(awake):
            self._awake = still_awake

    def _merge_woken(self, cycle: int) -> None:
        """Fold woken routers into the awake list (ascending id order)."""
        woken = self._woken
        self._woken = []
        awake_set = self._awake_set
        merged = False
        for node in woken:
            if node in awake_set:
                continue  # woke while still being stepped: nothing to do
            since = self._asleep_since.pop(node, None)
            if since is not None and cycle > since:
                self.network.routers[node].account_idle_cycles(
                    since, cycle - since
                )
            awake_set.add(node)
            merged = True
        if merged:
            self._awake = sorted(awake_set)

    def flush(self, now: int) -> None:
        """Bring every sleeping router's idle accounting up to ``now``.

        Idle spans are accounted lazily at wake; anything that reads
        cycle counters or round statistics mid-sleep (results, stats
        comparisons, the arena being disabled) must flush first.
        Span-splitting is exact, so flushing never changes totals.
        """
        routers = self.network.routers
        asleep_since = self._asleep_since
        for node, since in asleep_since.items():
            if now > since:
                routers[node].account_idle_cycles(since, now - since)
                asleep_since[node] = now
