"""The difference stencils of the period quadrature and the sample counts they bound.

The quadrature of ``periods`` differentiates a cycle's coordinates in the
sample index by periodic central differences, so a cycle needs at least as
many samples as the stencil is wide, MIN_SAMPLES; a command line may ask a
traced cycle for at most MAX_SAMPLES.  They live apart from ``periods`` in a
module that loads no numpy, so the command line states the bounds of
``--samples`` without loading the float layer.
"""

# Weights of the sample offsets 1, 2, ... in periodic central differences of
# orders 8 and 6; the offset -k carries minus the weight of k.
STENCIL = (4 / 5, -1 / 5, 4 / 105, -1 / 280)
STENCIL_COARSE = (45 / 60, -9 / 60, 1 / 60)
MIN_SAMPLES = 2 * len(STENCIL) + 1  # the width of the stencil
MAX_SAMPLES = 1 << 16  # the most samples a command line may ask a traced cycle for
