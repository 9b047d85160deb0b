"""Recognition and exact embedding of two-clique-against-clique graphs in
the plane under the max metric with unit threshold."""

from .chords import (
    ChordGraph,
    RigidPair,
    audit_assumption1,
    build_chord_graph,
    compute_ab_sets,
    enumerate_rigid_pairs,
)
from .embedding import brute_force_orders
from .errors import (
    GenerationError,
    InputError,
    OrderConstructionError,
    ParseError,
    ScopeError,
    StructuralError,
)
from .graph import (
    BabPartition,
    Graph,
    build_graph,
    is_unit_interval_order,
    validate_bab,
)
from .instances import (
    emit_certificate,
    emit_instance,
    generate_bab,
    parse_certificate,
    parse_instance,
)
from .necessary import NecessaryStatus, check_necessary, check_rigid_free, color_constrained
from .orders import check_sufficient
from .pipeline import NO, UNDECIDED, YES, Certificate, recognize, verify_certificate

__version__ = "0.1.0"

__all__ = [
    "BabPartition",
    "Certificate",
    "ChordGraph",
    "GenerationError",
    "Graph",
    "InputError",
    "NO",
    "NecessaryStatus",
    "OrderConstructionError",
    "ParseError",
    "RigidPair",
    "ScopeError",
    "StructuralError",
    "UNDECIDED",
    "YES",
    "audit_assumption1",
    "brute_force_orders",
    "build_chord_graph",
    "build_graph",
    "check_necessary",
    "check_rigid_free",
    "check_sufficient",
    "color_constrained",
    "compute_ab_sets",
    "emit_certificate",
    "emit_instance",
    "enumerate_rigid_pairs",
    "generate_bab",
    "is_unit_interval_order",
    "parse_certificate",
    "parse_instance",
    "recognize",
    "validate_bab",
    "verify_certificate",
]
