"""Calls per flit hop, by layer: the per-hop budget measured without a clock.

cProfile counts every Python and builtin call while a seeded experiment
runs — a mesh4x4 ``NetworkExperiment`` (:func:`budget_spec`) or the
paper's single router at 90 % load (:func:`paper_spec`); dividing by the
switch grants gives calls per flit hop, which repeats exactly for a given
tree (DESIGN.md §7h).  Each call is attributed to the layer whose entry
point it was made under, by following the profile's caller edges up to the
nearest layer root.  Test-side only; ``python tests/hop_budget.py`` prints
both tables.
"""

import cProfile

from repro.harness.network_experiment import NetworkExperiment, NetworkExperimentSpec
from repro.harness.single_router import ExperimentSpec, SingleRouterExperiment

#: (layer, file suffix, function names): the entry point(s) of each layer.
LAYER_ROOTS = (
    ("inject", "core/router.py", ("inject",)),
    ("candidates", "core/link_scheduler.py", ("candidates",)),
    ("schedule", "core/switch_scheduler.py", ("schedule",)),
    ("tick self", "core/router.py", ("tick",)),
    ("_transmit+_deliver", "core/router.py", ("_transmit",)),
    ("link handlers", "network/network.py", ("send", "credit", "__call__")),
    ("Network._tick", "network/network.py", ("_tick",)),
    ("sources", "sim/events.py", ("fire",)),
)
OTHER = "kernel+report"
#: (label, function name, file suffix) of the per-flit bookkeeping the
#: budget keeps off the flit path: statistics fold in batches, arrivals
#: re-file one event, and a heap entry is made per lane, not per event.
BOOKKEEPING = (
    ("RunningStats.add", "add", "sim/stats.py"),
    ("RunningStats.extend", "extend", "sim/stats.py"),
    ("Event()", "__init__", "sim/events.py"),
    ("heappush", "heappush", ""),
)


def budget_spec() -> NetworkExperimentSpec:
    return NetworkExperimentSpec(
        topology="mesh4x4",
        routing="dimension_order",
        target_link_load=0.6,
        warmup_cycles=300,
        measure_cycles=900,
        seed=11,
    )


def paper_spec() -> ExperimentSpec:
    """The Fig. 3/4 point (8x8 router, 90 % load, biased priority,
    ``per_output`` candidates, greedy arbitration), shortened."""
    return ExperimentSpec(
        target_load=0.9, warmup_cycles=500, measure_cycles=2500, seed=11
    )


def _where(code):
    """(file, function name) of a profiler entry's code; builtins arrive
    as their description string and have no file."""
    if isinstance(code, str):
        return "", code
    return code.co_filename.replace("\\", "/"), code.co_name


def _layer_of(code) -> str:
    filename, name = _where(code)
    for layer, suffix, names in LAYER_ROOTS:
        if filename.endswith(suffix) and name in names:
            return layer
    return ""


class HopBudget:
    """Call counts of one profiled ``experiment.result()``, per hop and
    per layer.  Hops are the grants the router(s) counted since the last
    statistics reset; calls cover the whole run, warm-up included.

    Read from ``Profile.getstats()``, keyed by code object: ``pstats``
    keys by (file, line, name), under which the generated ``__new__`` of
    two namedtuples (or two dataclass ``__init__``) overwrite each other
    and the total depends on memory layout.
    """

    def __init__(self, experiment) -> None:
        profile = cProfile.Profile()
        profile.enable()
        experiment.result()
        profile.disable()
        network = getattr(experiment, "network", None)
        routers = [experiment.router] if network is None else network.routers
        self.hops = sum(r.switch_scheduler.grants_issued for r in routers)
        if network is not None:
            self.host_deliveries = int(network.stats.get_counter("host_deliveries"))
            #: Still on the lanes when the run ended: queued, not yet landed.
            self.flits_in_flight = network.flits_in_flight()
            self.credits_in_flight = network.credits_in_flight()
        entries = profile.getstats()
        #: code -> total calls, and callee -> {caller: calls on that edge}.
        self.counts = {entry.code: entry.callcount for entry in entries}
        self.callers = {}
        for entry in entries:
            for edge in entry.calls or ():
                self.callers.setdefault(edge.code, {})[entry.code] = edge.callcount
        self.total_calls = sum(self.counts.values())
        self.calls_per_hop = self.total_calls / self.hops
        self._shares = {}
        self.layers = {layer: 0.0 for layer, _, _ in LAYER_ROOTS}
        self.layers[OTHER] = 0.0
        for code, count in self.counts.items():
            own = _layer_of(code)
            callers = self.callers.get(code)
            if own or not callers:
                self.layers[own or OTHER] += count
                continue
            for caller, calls in callers.items():
                for layer, share in self._share(caller).items():
                    self.layers[layer] += calls * share

    def _share(self, code, seen=()):
        """Fractions of ``code``'s invocations made under each layer."""
        own = _layer_of(code)
        if own:
            return {own: 1.0}
        if code in self._shares:
            return self._shares[code]
        edges = [
            (caller, calls)
            for caller, calls in self.callers.get(code, {}).items()
            if caller not in seen and caller is not code
        ]
        total = sum(calls for _, calls in edges)
        share = {}
        for caller, calls in edges:
            for layer, part in self._share(caller, seen + (code,)).items():
                share[layer] = share.get(layer, 0.0) + part * calls / total
        share = share or {OTHER: 1.0}
        if not seen:
            self._shares[code] = share
        return share

    def calls(self, name: str, suffix: str = "", caller: str = "") -> int:
        """Calls of the function called ``name`` (a builtin: whose
        description contains it) in a file ending ``suffix``; with
        ``caller``, only those made directly from a function of that name."""
        total = 0
        for code, count in self.counts.items():
            filename, func = _where(code)
            if not (func == name or isinstance(code, str) and name in code):
                continue
            if not filename.endswith(suffix):
                continue
            if caller:
                total += sum(
                    calls
                    for site, calls in self.callers.get(code, {}).items()
                    if _where(site)[1] == caller
                )
            else:
                total += count
        return total

    def table(self) -> str:
        lines = [f"{'layer':<22}{'calls/hop':>10}"]
        for layer, calls in self.layers.items():
            lines.append(f"{layer:<22}{calls / self.hops:>10.2f}")
        lines.append(f"{'total':<22}{self.calls_per_hop:>10.2f}")
        lines.append(f"({self.total_calls} calls, {self.hops} flit hops)")
        lines.append("bookkeeping calls/hop (counted in the layers above)")
        for label, name, suffix in BOOKKEEPING:
            lines.append(f"  {label:<20}{self.calls(name, suffix) / self.hops:>10.2f}")
        return "\n".join(lines)


if __name__ == "__main__":
    print("mesh4x4, 60 % link load")
    print(HopBudget(NetworkExperiment(budget_spec())).table())
    print("\nsingle router, 90 % load")
    print(HopBudget(SingleRouterExperiment(paper_spec())).table())
