#!/usr/bin/env python
"""One-command re-run of the paper's evaluation (§5, Figures 3-5).

Runs the single-router CBR experiment grid — jitter and delay vs offered
load for fixed and biased priorities at several candidate-set sizes, plus
the four-way comparison against the DEC/Autonet scheduler and the perfect
switch — and prints the figure tables.  This is ``repro figures`` with
the paper's expected shape appended: every argument is passed through,
so ``--full`` selects the paper-scale windows, ``--loads 0.5,0.9``
reshapes the grid, ``fig5`` runs one figure and ``--out DIR`` writes the
artefacts.

Run:  python examples/paper_experiment.py [--full]
"""

import sys

from repro.cli import main


def run(argv) -> int:
    status = main(["figures", *argv])
    print()
    print("Expected shape (paper §5.2): biased < fixed on both metrics at")
    print("every load below saturation; more candidates help; the biased")
    print("curve closely tracks the perfect switch; DEC sits between.")
    return status


if __name__ == "__main__":
    sys.exit(run(sys.argv[1:]))
