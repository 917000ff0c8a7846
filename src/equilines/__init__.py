"""Exact analysis of two-colored point configurations in the projective
plane over quadratic number fields: bichromatic line profiles, counting
identities, incidence inequalities, equichromatic lower bounds,
coefficient certificates, and coloring search.

The interface is the ``equilines`` command (``cli``); the modules are
internal.  Importing the package loads none of them.  numpy loads only
with the array code (``sort`` and the exhaustive scan), which an
analysis or local search of at most ``geometry.PENCIL_MAX_PAIRS`` point
pairs never reaches.
"""

__version__ = "0.1.0"
