"""The per-VC predicate walk ``LinkScheduler.candidates`` must equal.

One VC at a time: every VC flagged ``flits_available`` is tested for a
route, downstream credit and round budget by calling the predicates, and
its priority comes from ``scheme.priority`` — no fused mask, no cached
terms, no cached round offset, and none of the scan's selection code: the
four modes are written out below from their definitions.  It emits the
scan's tuple shape, ``(-priority, input_port, vc_index, output_port)``.
Test-side only; install it on a whole run with
``monkeypatch.setattr(LinkScheduler, "candidates", reference_candidates)``.
"""


def reference_candidates(scheduler, now, limit=None):
    """The offer list of ``scheduler`` at ``now``; bumps the scheduler's
    three scan counters exactly as ``candidates`` does."""
    if limit is None:
        limit = scheduler.config.candidates
    elif limit <= 0:
        raise ValueError(f"candidate limit must be positive, got {limit}")
    pool = []  # (priority, vc_index, output_port), ascending vc_index
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
        pool.append((priority, vc_index, vc.output_port))
    if not pool:
        return []
    selection = scheduler.selection
    if selection == "per_output":
        chosen = by_priority(per_output_best(pool))[:limit]
    elif selection == "priority":
        chosen = by_priority(pool)[:limit]
    elif selection == "random":
        drawn = scheduler.rng.sample(pool, limit) if len(pool) > limit else pool
        chosen = by_priority(drawn)
    else:
        chosen = by_priority(rotating_draw(scheduler, pool, limit))
    scheduler.eligible_vcs_total += len(pool)
    scheduler.candidates_offered += len(chosen)
    scheduler.cycles_with_candidates += 1
    port = scheduler.port
    return [(-priority, port, vc_index, output) for priority, vc_index, output in chosen]


def beats(a, b):
    """True when entry ``a`` wins arbitration over ``b`` on one port:
    the higher priority, and on equal priority the lower VC index."""
    if a[0] != b[0]:
        return a[0] > b[0]
    return a[1] < b[1]


def by_priority(entries):
    """``entries`` from winner to loser (an insertion sort on ``beats``)."""
    ordered = []
    for entry in entries:
        at = 0
        while at < len(ordered) and beats(ordered[at], entry):
            at += 1
        ordered.insert(at, entry)
    return ordered


def per_output_best(pool):
    """The winner among the entries requesting each output."""
    best = {}
    for entry in pool:
        output = entry[2]
        if output not in best or beats(entry, best[output]):
            best[output] = entry
    return list(best.values())


def rotating_draw(scheduler, pool, limit):
    """Up to ``limit`` entries in VC order starting at the rotating
    pointer (wrapping); the pointer moves past the last one taken."""
    vcs = scheduler.config.vcs_per_port
    pointer = scheduler._scan_pointer
    order = sorted(pool, key=lambda entry: (entry[1] - pointer) % vcs)
    taken = order[:limit]
    scheduler._scan_pointer = (taken[-1][1] + 1) % vcs
    return taken
