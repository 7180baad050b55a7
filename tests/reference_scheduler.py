"""The per-VC predicate walk ``LinkScheduler.candidates`` must equal.

One VC at a time: every VC flagged ``flits_available`` is tested for a
route, downstream credit and round budget by calling the predicates, and
its priority comes from ``scheme.priority`` — no fused mask, no cached
terms, no cached round offset.  Test-side only; install it on a whole run
with ``monkeypatch.setattr(LinkScheduler, "candidates",
reference_candidates)``.
"""

from repro.core.link_scheduler import Candidate


def reference_candidates(scheduler, now, limit=None):
    """The offer list of ``scheduler`` at ``now``; bumps the scheduler's
    three scan counters exactly as ``candidates`` does."""
    if limit is None:
        limit = scheduler.config.candidates
    pool = []
    for vc_index in scheduler.status.vector("flits_available").indices():
        vc = scheduler.vcs[vc_index]
        flit = vc.head()
        if flit is None:
            raise RuntimeError(
                f"status vector out of sync: vc {scheduler.port}.{vc_index} "
                "flagged available but empty"
            )
        if vc.output_port < 0:
            # Not yet routed (a blocked best-effort packet waiting for
            # a downstream VC, §3.4): not schedulable.
            continue
        if not scheduler.credit_check(vc.output_port, vc.output_vc):
            continue
        offset = scheduler._round_gate(vc)
        if offset is None:
            continue
        priority = scheduler.scheme.priority(vc, flit, now) + offset
        pool.append(Candidate(priority, scheduler.port, vc_index, vc.output_port))
    if not pool:
        return []
    if scheduler.selection != "per_output":
        return scheduler._select(pool, limit)
    chosen = per_output_select(pool, limit)
    scheduler.eligible_vcs_total += len(pool)
    scheduler.candidates_offered += len(chosen)
    scheduler.cycles_with_candidates += 1
    return chosen


def per_output_select(pool, limit):
    """Best flit per requested output, then the top ``limit`` of those."""
    best_per_output = {}
    for candidate in pool:
        incumbent = best_per_output.get(candidate.output_port)
        if incumbent is None or candidate.sort_key() < incumbent.sort_key():
            best_per_output[candidate.output_port] = candidate
    chosen = sorted(best_per_output.values(), key=Candidate.sort_key)
    return chosen[:limit]
