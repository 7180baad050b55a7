"""Priority schemes for link/switch scheduling (paper §4.4, §5.1).

The MMR arbitrates switch output conflicts with *dynamic priority biasing*:
the priority of the flit at the head of each input virtual channel is
recomputed every flit cycle, growing at a rate that depends on the QoS
metric of its connection.  The paper's studied scheme biases by the ratio
of the delay a flit has experienced at the switch to the inter-arrival
time of its connection, so faster connections gain priority more quickly.

The *fixed* scheme (the paper's comparison point) is the same arbitration
with the growth switched off: a flit's draws carry no memory of how long
it has waited.  Stickier non-aging variants (frozen per-flit draws,
static per-connection priorities) are provided as ablations.
"""

from __future__ import annotations

import abc

from .flit import Flit
from .virtual_channel import CLASS_OFFSETS, VirtualChannel


class PriorityScheme(abc.ABC):
    """Computes the scheduling priority of a head flit each flit cycle."""

    name: str = "abstract"

    #: How the priority of a fixed head flit varies with ``now``.  The
    #: candidate scan reads the flit-constant terms (:meth:`cache_terms`,
    #: kept on the VC by their writers) and derives only the time-varying
    #: part each cycle, bit-identically to :meth:`priority`:
    #:
    #: * ``"static"``  — ``base`` (constant while the flit heads the VC);
    #: * ``"aging"``   — ``base + (now - flit.created) / div``;
    #: * ``"hashed"``  — ``base + hash(key * 31 + now)`` with the Knuth
    #:   multiplicative hash of :func:`_hash_priority`;
    #: * ``"percycle"``— no cacheable structure; call :meth:`priority`.
    time_dependence: str = "percycle"

    #: Whether :meth:`cache_terms` reads the head flit.  When it does, the
    #: terms are written where each flit becomes head (``Router.inject``,
    #: ``Router._transmit``).  When they follow the connection alone, the
    #: flit path writes nothing: the control plane's refresh after every
    #: write of a priority input keeps them current, with or without a
    #: flit parked, and :meth:`cache_terms` is then called with
    #: ``flit=None`` on an empty VC.
    terms_per_flit: bool = True

    @abc.abstractmethod
    def priority(self, vc: VirtualChannel, flit: Flit, now: int) -> float:
        """Priority of ``flit`` (head of ``vc``) at cycle ``now``.

        Larger values win arbitration.  Implementations must not mutate
        the VC or the flit.
        """

    def cache_terms(self, vc: VirtualChannel, flit: Flit):
        """``(base, div, key)``: the priority terms of ``flit`` heading ``vc``.

        The VC stores them (``prio_base``, ``prio_div``, ``prio_key``) and
        their writers keep them current — see :attr:`terms_per_flit` for
        where — so the candidate scan evaluates each eligible VC with
        arithmetic alone; ``Router.check_invariants`` holds every VC
        holding a flit to this method.  Only meaningful when
        :attr:`time_dependence` is not ``"percycle"``.  The terms must
        reproduce :meth:`priority` exactly — same floating point
        operations in the same order — so the scan's candidate ordering
        stays bit-identical to the reference path.
        """
        return (0.0, 1.0, 0)

    def with_class_offset(self, vc: VirtualChannel, base: float) -> float:
        """Apply the absolute traffic-class ordering on top of ``base``."""
        return CLASS_OFFSETS[vc.service_class] + base

    def __repr__(self) -> str:
        return f"{type(self).__name__}()"


def _hash_priority(key: int) -> float:
    """Deterministic pseudo-random priority in [0, 1) from an integer key.

    Knuth multiplicative hashing: reproducible without threading an RNG
    through the data path.
    """
    return ((key * 2654435761) & 0xFFFFFFFF) / 2**32


def _flit_key(flit: Flit) -> int:
    """A run-stable identity for a flit.

    Built from (connection, sequence) rather than the global flit id so
    two simulations constructed identically draw identical priorities —
    the global id counter keeps advancing across runs in one process.
    """
    return (flit.connection_id * 1000003) ^ (flit.sequence * 7919)


class FixedPriority(PriorityScheme):
    """Un-biased priority: waiting earns a flit nothing.

    This is the paper's comparison baseline.  §4.4's taxonomy is about
    *growth*: under biasing a head flit's priority is "updated
    periodically as often as every flit cycle" at a QoS-dependent rate;
    the fixed scheme is the same arbitration with the growth switched
    off, so conflicts are settled by draws that carry no memory of how
    long a flit has waited.  Each (flit, cycle) pair hashes to a fresh
    uniform draw — starvation-free, but heavy connections receive no
    systematic preference, which is what produces the worse delay and
    jitter of Figures 3-5.
    """

    name = "fixed"
    time_dependence = "hashed"

    def priority(self, vc: VirtualChannel, flit: Flit, now: int) -> float:
        return self.with_class_offset(
            vc, _hash_priority(_flit_key(flit) * 31 + now)
        )

    def cache_terms(self, vc: VirtualChannel, flit: Flit):
        return (vc.class_offset, 1.0, _flit_key(flit))


class FrozenFlitPriority(PriorityScheme):
    """Per-flit priority drawn once at arrival, frozen thereafter.

    An ablation between :class:`FixedPriority` and
    :class:`StaticConnectionPriority`: arbitration outcomes are sticky
    for a flit's whole wait, so an unlucky draw can hold a flit (and its
    FIFO successors) back indefinitely — measurably unstable at loads the
    per-cycle draw sustains.
    """

    name = "frozen"
    time_dependence = "static"

    def priority(self, vc: VirtualChannel, flit: Flit, now: int) -> float:
        return self.with_class_offset(vc, _hash_priority(_flit_key(flit)))

    def cache_terms(self, vc: VirtualChannel, flit: Flit):
        base = vc.class_offset + _hash_priority(_flit_key(flit))
        return (base, 1.0, 0)


class StaticConnectionPriority(PriorityScheme):
    """Per-connection static priority (an ablation, not in the paper).

    The harshest possible fixed scheme: one global order over connections.
    Low-priority connections sharing a loaded output can starve outright,
    which is why router designers avoid pure static priority.
    """

    name = "static"
    time_dependence = "static"
    terms_per_flit = False

    def priority(self, vc: VirtualChannel, flit: Flit, now: int) -> float:
        return self.with_class_offset(vc, vc.static_priority)

    def cache_terms(self, vc: VirtualChannel, flit: Flit):
        return (vc.class_offset + vc.static_priority, 1.0, 0)


class BiasedPriority(PriorityScheme):
    """Delay / inter-arrival biased priority (the paper's scheme).

    priority = (cycles the head flit has waited) / (connection flit
    inter-arrival period).  A 120 Mbps connection's priority grows ~2000x
    faster than a 64 Kbps connection's, so each connection tends to be
    served within a small multiple of its own period — equalising delay
    *relative to connection rate*, which is what bounds jitter.
    """

    name = "biased"
    time_dependence = "aging"
    terms_per_flit = False

    def priority(self, vc: VirtualChannel, flit: Flit, now: int) -> float:
        waited = now - flit.created
        return self.with_class_offset(vc, waited / vc.interarrival_cycles)

    def cache_terms(self, vc: VirtualChannel, flit: Flit):
        return (vc.class_offset, vc.interarrival_cycles, 0)


class AgePriority(PriorityScheme):
    """Pure age-based priority (time spent waiting, rate-blind).

    Not in the paper's evaluation; included as an ablation between fixed
    and biased: it is dynamic but ignores the QoS metric, so slow and fast
    connections age at the same rate.
    """

    name = "age"
    time_dependence = "aging"
    terms_per_flit = False

    def priority(self, vc: VirtualChannel, flit: Flit, now: int) -> float:
        return self.with_class_offset(vc, float(now - flit.created))

    def cache_terms(self, vc: VirtualChannel, flit: Flit):
        # waited / 1.0 == float(waited) exactly, so the aging fast path
        # reproduces priority() bit for bit.
        return (vc.class_offset, 1.0, 0)


class RatePriority(PriorityScheme):
    """Static priority proportional to connection rate (rate-monotonic).

    Another ablation: like fixed, it never ages, but the static ordering
    follows connection speed rather than an arbitrary assignment.
    """

    name = "rate"
    time_dependence = "static"
    terms_per_flit = False

    def priority(self, vc: VirtualChannel, flit: Flit, now: int) -> float:
        return self.with_class_offset(vc, 1.0 / vc.interarrival_cycles)

    def cache_terms(self, vc: VirtualChannel, flit: Flit):
        base = vc.class_offset + 1.0 / vc.interarrival_cycles
        return (base, 1.0, 0)


SCHEMES = {
    scheme.name: scheme
    for scheme in (
        FixedPriority,
        FrozenFlitPriority,
        BiasedPriority,
        AgePriority,
        RatePriority,
        StaticConnectionPriority,
    )
}


def make_priority_scheme(name: str) -> PriorityScheme:
    """Instantiate a priority scheme by name ('fixed', 'biased', ...)."""
    try:
        return SCHEMES[name]()
    except KeyError:
        raise ValueError(
            f"unknown priority scheme {name!r}; known: {sorted(SCHEMES)}"
        ) from None
