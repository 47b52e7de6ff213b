"""Multi-hop, multi-operator, multi-technology cellular network studies.

The package splits into the geometry/physics layer (grid, radio), the
route-discovery analysis layer (routing, chains), the control layer
(compression, economics) and the orchestration layer (scenario, cli).
"""

from .chains import (
    AbsorbingChain,
    ChainError,
    ChainStatistics,
    absorption_statistics,
    build_chain,
    simulate_walks,
)
from .compression import (
    CompressedStateVector,
    CompressionError,
    FullStateVector,
    absorb,
    aggregate_availability,
    climb_topology,
    compressed_vector,
    full_vector,
)
from .economics import (
    EconError,
    EconParams,
    NegotiationError,
    NegotiationResult,
    OffloadContext,
    TrafficState,
    cooperation_capacity_ratio,
    expected_network_capacity,
    macrocell_utility,
    negotiate,
    optimize_tessellation,
    state_utility,
)
from .grid import (
    Destinations,
    GridError,
    GridParams,
    SubcellGrid,
    SubcellId,
    make_destinations,
    ring_index_range,
)
from .radio import RadioError, RadioParams, link_capacity, link_sinr, min_power
from .routing import (
    LAR,
    LIR,
    MDR,
    MLIR,
    MMDR,
    ProtocolConfig,
    Route,
    RouteSet,
    RoutingError,
    ScenarioOverlay,
    build_lir_chain,
    build_mdr_chain,
    extract_routes,
    schedule,
)
from .scenario import (
    ResultTable,
    ScenarioError,
    ScenarioFile,
    ScenarioWarning,
    emit_csv,
    emit_plotdata,
    load_scenario,
    run_experiment,
)

__version__ = "0.1.0"
