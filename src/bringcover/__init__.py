"""Dessins d'enfants of the orientation cover of the 5-pointed real moduli
space, checked against the 4-icosahedron and the Bring-curve Belyi map.

The layers load on first use: ``import bringcover`` imports none of them,
and a public name or layer module is imported when it is first looked up
(PEP 562), so a process pays only for the layers it touches.
"""

__version__ = "0.1.0"

# public name -> the layer module that defines it
_HOMES = {
    "build_complex5": "cells",
    "canonical_class": "cells",
    "enumerate_cells": "cells",
    "refinements": "cells",
    "cover_to_dessin": "cover",
    "euler_characteristic": "cover",
    "is_orientable": "cover",
    "orientation_cover": "cover",
    "surface_from_cells": "cover",
    "Dessin": "dessins",
    "automorphism_group": "dessins",
    "build_i4": "dessins",
    "build_icosahedron": "dessins",
    "isomorphic": "dessins",
    "MonodromyTriple": "monodromy",
    "monodromy_triple": "monodromy",
    "sheet_constellation": "monodromy",
    "closure": "perms",
    "identify_closure": "perms",
    "regular_representation": "perms",
    "b_from_t": "quintic",
    "roots5": "quintic",
    "verify_identities": "quintic",
    "LoopSpec": "tracking",
    "TrackingConfig": "tracking",
    "TrackingError": "tracking",
    "TrackResult": "tracking",
    "track_loop": "tracking",
    "run_checks": "verify",
}
_LAYERS = frozenset(_HOMES.values())

__all__ = sorted(_HOMES)


def __getattr__(name):
    from importlib import import_module

    if name in _HOMES:
        value = getattr(import_module(f".{_HOMES[name]}", __name__), name)
    elif name in _LAYERS:
        value = import_module(f".{name}", __name__)
    else:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    globals()[name] = value  # later lookups skip this hook
    return value


def __dir__():
    return sorted({*globals(), *_HOMES, *_LAYERS})
