"""Light-spanner construction toolkit.

Builds low-lightness t-spanners for general weighted graphs, Euclidean
point sets, unit-disk graphs and minor-free graphs by running a pluggable
sparse-spanner subroutine inside a hierarchical clustering of the input.
Exact verification oracles and a benchmark CLI are included.
"""

__version__ = "0.1.0"
