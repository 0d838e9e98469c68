"""Two-party fair-division districting with exact rational arithmetic.

The library models a state as nested population splits, computes each
party's optimal-play win counts, runs the split-and-choose protocol, scores
outcomes against geometric fairness targets, and reproduces a grid-
constrained construction where the protocol misses those targets by an
arbitrary margin.  The modules are the API: ``from lry import model, protocol``.
"""

__version__ = "0.1.0"
