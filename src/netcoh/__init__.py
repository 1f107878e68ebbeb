"""netcoh: frequency-domain coherence analysis of heterogeneous LTI networks.

Computes, bounds and simulates the rank-one coherent behavior of networks
of SISO transfer functions coupled through a weighted graph Laplacian:
exact rational-function algebra, incoherence measurement and bounds,
time-domain deviation experiments, dynamics-concentration Monte Carlo,
and power-grid aggregation.
"""

__version__ = "0.1.0"

from .ratfun import (  # noqa: F401
    Polynomial,
    RationalFunction,
    StateSpaceModel,
    harmonic_mean,
)
from .graph import LaplacianMatrix, builder, from_edge_list  # noqa: F401
from .netfreq import (  # noqa: F401
    FrequencyRegion,
    IncoherenceReport,
    NetworkModel,
    aggregate_dynamics,
    connectivity_sweep,
    eval_T,
    incoherence,
    lemma_bound,
)
from .timedomain import InputSignal, SimulationResult, simulate  # noqa: F401
from .ensemble import EnsembleSpec, concentration_experiment  # noqa: F401
