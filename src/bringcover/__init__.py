"""Dessins d'enfants of the orientation cover of the 5-pointed real moduli
space, checked against the 4-icosahedron and the Bring-curve Belyi map."""

__version__ = "0.1.0"

from .cells import build_complex5, canonical_class, enumerate_cells, refinements, twist
from .cover import (
    cover_to_dessin,
    euler_characteristic,
    is_orientable,
    orientation_cover,
    surface_from_cells,
)
from .dessins import (
    Dessin,
    automorphism_group,
    build_i4,
    build_icosahedron,
    isomorphic,
)
from .monodromy import MonodromyTriple, monodromy_triple, sheet_constellation
from .perms import closure, identify_closure, regular_representation
from .quintic import b_from_t, f_value, roots5, verify_identities
from .tracking import LoopSpec, TrackingConfig, TrackingError, TrackResult, track_loop
from .verify import run_checks

__all__ = [
    "Dessin",
    "LoopSpec",
    "MonodromyTriple",
    "TrackResult",
    "TrackingConfig",
    "TrackingError",
    "automorphism_group",
    "b_from_t",
    "build_complex5",
    "build_i4",
    "build_icosahedron",
    "canonical_class",
    "closure",
    "cover_to_dessin",
    "enumerate_cells",
    "euler_characteristic",
    "f_value",
    "identify_closure",
    "is_orientable",
    "isomorphic",
    "monodromy_triple",
    "orientation_cover",
    "refinements",
    "regular_representation",
    "roots5",
    "run_checks",
    "sheet_constellation",
    "surface_from_cells",
    "track_loop",
    "twist",
    "verify_identities",
]
