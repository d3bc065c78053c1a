"""Scaling analysis of functional communities.

Four coordinated pieces: a closed-form mean-field model of community
scaling (meanfield), a promise-graph calculus for the microscopic
picture (promisegraph, graphio), a one-dimensional scalability and
queueing kit (uslkit), and deterministic synthetic ensembles with
power-law fitting (ensemble). The cli module exposes all of it on the
command line.
"""

from .ensemble import (
    CompareReport,
    EnsembleSpec,
    PowerLawFit,
    compare,
    fit_power_law,
    generate,
    ingest_csv,
    model_value,
)
from .errors import (
    CsvFormatError,
    DomainError,
    GraphFormatError,
    QueueInstabilityError,
    UnboundedPeakError,
    UnknownAgentError,
    UnsupportedConfigError,
)
from .graphio import emit_graph, parse_graph
from .meanfield import (
    Channel,
    ConsumptionCoeffs,
    ImpulseParams,
    Population,
    ScalingClass,
    ScalingParams,
    city_idea_rate,
    correction_factor,
    delta_exponent,
    equilibrium_volume,
    impulse_rate,
    infra_agent_count,
    infrastructure_volume,
    linear_consumption,
    node_degree,
    predicted_exponent,
    serialized_client_count,
    yield_output,
)
from .promisegraph import (
    Agent,
    Binding,
    Polarity,
    Promise,
    PromiseGraph,
    adjacency,
    aggregate,
    classify_pattern,
    community_members,
    degree,
    find_bindings,
    largest_binding_component,
    mesh_density,
    reduce_conditionals,
    reputation,
    total_value,
    valuation,
)
from .uslkit import (
    QueueParams,
    SerialModel,
    UslFit,
    UslParams,
    effective_exponent,
    response_time,
    serial_time,
    usl_fit,
    usl_peak,
    usl_speedup,
)

__version__ = "0.1.0"
