"""Exact census of Morse equivalence classes on the two-sphere.

The package computes the class counts g(n) through an exact-rational
two-parameter recurrence, cross-checks them against brute-force labeled
tree enumeration, and verifies the analytic scaffolding around the counts:
the tangent/ODE lower bound, the Catalan upper bound, the generating
function PDE, the elliptic-integral inversion, and the refined Stirling
asymptotics.
"""

__version__ = "0.1.0"
