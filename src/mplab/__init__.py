"""mplab: a numerical laboratory for Marchenko-Pastur spectral statistics.

The package bundles exact reference curves for the Marchenko-Pastur law,
a collection of random-vector models with and without the concentration
properties that drive the law, spectral-distribution comparison helpers,
and paired-resolvent experiments that measure how far a given model sits
from its Gaussian twin.
"""

__version__ = "0.1.0"
