"""Numerics for noncontextuality-inequality violations of a relativistic
spin-1/2 particle: Dirac observable families, exact Coulomb bound states,
free-electron states, and the inequality evaluation machinery."""

__version__ = "0.1.0"
