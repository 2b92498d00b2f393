"""Fiber entropy experiments for random dynamical systems over amenable groups.

The package verifies, numerically and at desk scale, that the empirical
fiber information rate of a symbolic random dynamical system converges
along tempered Folner sequences to the closed-form fiber entropy, and it
implements the supporting machinery end to end: exact group and Folner
set algebra, lazy symbolic configurations, fiber measures with exact cell
probabilities, information functions and chain-rule identities,
quasi-tiling cover constructions, and a reproducible CLI runner.  Each
name is imported from the module that defines it (`fiberent.rds`, ...);
the package itself loads no module.
"""

__version__ = "0.1.0"
