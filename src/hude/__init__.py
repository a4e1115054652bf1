"""Half-uniform density estimation at desk scale.

A library and CLI for the identification problem "which of k uniform-on-a-
random-support distributions produced these samples": seeded instance
generators (including the Poissonization reduction from correlated subset
search), the probe-subset index with an elimination baseline, an operation-
counted benchmark harness, and numerical machinery for the statistical-
computational trade-off curves. Import names from their modules
(``hude.instances``, ``hude.subset_index``, ...); importing ``hude`` itself
loads none of them.
"""

__version__ = "0.1.0"
