"""Naive specs of the three switch schedulers, test-side only.

Each takes ``port_lists`` indexed by input port, empty lists included —
the form ``schedule`` was handed before offer lists were filtered to the
ports that offer something — and reads offers and grants by position:
an offer is ``(rank, input_port, vc_index, output_port)``, a grant
``(input_port, vc_index, output_port)``.
"""


def greedy_spec(port_lists):
    """Sort every offer; grant one when its input and output are both
    still free."""
    offers = sorted(offer for offers in port_lists for offer in offers)
    inputs, outputs, grants = set(), set(), []
    for rank, input_port, vc_index, output_port in offers:
        if input_port in inputs or output_port in outputs:
            continue
        inputs.add(input_port)
        outputs.add(output_port)
        grants.append((input_port, vc_index, output_port))
    return grants


def dec_spec(rng, iterations, port_lists):
    """Parallel iterative matching as it read over port-indexed lists:
    request every free output, each output grants one random request,
    each input accepts one random grant, ``iterations`` times."""
    remaining = {port: offers for port, offers in enumerate(port_lists) if offers}
    grants, outputs_used = [], set()
    for _ in range(iterations):
        if not remaining:
            break
        requests = {}
        for offers in remaining.values():
            for offer in offers:
                if offer[3] not in outputs_used:
                    requests.setdefault(offer[3], []).append(offer)
        if not requests:
            break
        granted = {}
        for output_port, reqs in requests.items():
            choice = rng.choice(reqs)
            granted.setdefault(choice[1], []).append(choice)
        for input_port, offers in granted.items():
            if input_port not in remaining:
                continue
            accepted = rng.choice(offers)
            grants.append(accepted[1:])
            outputs_used.add(accepted[3])
            del remaining[input_port]
    return grants


def perfect_spec(port_lists):
    """Every input with an offer sends its first one."""
    return [offers[0][1:] for offers in port_lists if offers]
