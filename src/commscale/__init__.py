"""Scaling analysis of functional communities.

Four coordinated pieces: a closed-form mean-field model of community
scaling (meanfield), a promise-graph calculus for the microscopic
picture (promisegraph, graphio), a one-dimensional scalability and
queueing kit (uslkit), and deterministic synthetic ensembles with
power-law fitting (ensemble). The cli module exposes all of it on the
command line.
"""

from .ensemble import *
from .errors import *
from .graphio import *
from .meanfield import *
from .promisegraph import *
from .uslkit import *

__version__ = "0.1.0"
