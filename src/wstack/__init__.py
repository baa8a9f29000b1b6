"""Desk-scale w-stacking imaging with message accounting and energy reports.

The package grids interferometric visibility samples onto an N_u x N_v x N_w
mesh, Fourier-transforms each w plane over a slab decomposition, and stacks
the planes into a sky image, their w phases applied by Horner's rule. A virtual
node x rank topology runs in-process; every inter-rank transfer is logged
with byte counts so reduction strategies can be compared. Each run meters
its own energy as CPU-seconds times a per-core wattage, and the metrics
layer computes green productivity and the frequency/scaling reports from
(seconds, joules) traces, written by live runs or shipped with the paper's
published-scale figures.
"""

__version__ = "0.1.0"
