"""Reversible-circuit oracle and exact Grover-adaptive-search simulation for
capacitated vehicle routing with delivery windows, with classical references
for every quantum component."""

__version__ = "0.1.0"
