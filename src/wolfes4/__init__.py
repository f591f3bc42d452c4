"""Solvable four-particle chain with an inverse-square three-body barrier.

The package computes the spectrum three independent ways (closed-form
separated levels, a chained spherical-coordinate eigensolve, and direct 3D
grid diagonalization), cross-checks the routes against each other, and
resolves two misprinted constants in the published level formulas.
"""
