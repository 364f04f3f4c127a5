"""Exact census of Morse equivalence classes on the two-sphere.

The package computes the class counts g(n) on integers by inverting the
elliptic integral behind their generating series, holds them to an
exact-rational two-parameter recurrence and to brute-force labeled tree
enumeration, and verifies the analytic scaffolding around the counts:
the tangent/ODE lower bound, the Catalan upper bound, the generating
function PDE, the elliptic-integral inversion, and the refined Stirling
asymptotics.
"""

__version__ = "0.1.0"


class ConsistencyError(RuntimeError):
    """An exact division left a remainder, or a count g(n) is below 1: a bug
    in the counting code, which the command line reports with exit code 4."""
