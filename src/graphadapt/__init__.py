"""Adaptive reconstruction of bandlimited graph signals.

Online LMS and RLS estimators that track a bandlimited signal on a graph
from randomly sampled noisy vertex observations, closed-form steady-state
and convergence theory for both, solvers that design the per-vertex
sampling probabilities against rate and accuracy targets, and a simulated
fully distributed RLS based on consensus ADMM.
"""

__version__ = "0.1.0"
