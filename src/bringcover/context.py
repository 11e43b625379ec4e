"""The shared objects of one run, each built once and on first use.

A :class:`Context` holds the configuration of a run and builds the
objects that the checks, the ``--json`` payloads and ``export`` read:
the n=5 complex, its surface and orientation cover, the cover dessin D,
the icosahedron, I4, the union with its dual, the recoloured dual J, the
tracked monodromy triple and its 120-sheet dessin, the certificate and
the exact identities.  Each build imports its layer when it first
runs, so a process that builds I4 alone loads none of cells, cover,
monodromy or the check registry, and one that builds the sheet loads
monodromy alone.
"""

from __future__ import annotations

import sys

from .tracking import TrackingConfig


class Context:
    """Lazily built shared objects for the checks."""

    def __init__(self, config: TrackingConfig | None = None):
        self.config = config or TrackingConfig()
        self._cache = {}
        self._raised = {}

    def _get(self, key, build):
        # a build that raised raises the same exception for every later
        # reader, so a failing triple is tracked once per Context
        if key in self._raised:
            raise self._raised[key]
        if key not in self._cache:
            try:
                self._cache[key] = build()
            except Exception as exc:
                self._raised[key] = exc
                raise
        return self._cache[key]

    @property
    def complex5(self):
        from . import cells
        return self._get("complex5", cells.build_complex5)

    @property
    def surface(self):
        from . import cover
        return self._get(
            "surface", lambda: cover.surface_from_cells(self.complex5))

    @property
    def cover(self):
        from . import cover
        return self._get(
            "cover", lambda: cover.orientation_cover(self.surface))

    @property
    def dessin_d(self):
        from . import cover
        return self._get("d", lambda: cover.cover_to_dessin(self.cover))

    @property
    def icosahedron(self):
        from . import dessins
        return self._get("icosa", dessins.build_icosahedron)

    @property
    def i4(self):
        from . import dessins
        return self._get("i4", dessins.build_i4)

    @property
    def union(self):
        return self._get("union", self.i4.union_with_dual)

    @property
    def dessin_j(self):
        return self._get("j", lambda: self.union.dual().recolor())

    @property
    def triple(self):
        # tracked through the registry's binding once the registry is
        # loaded, looked up at the build: the benchmark's probe imports
        # verify and rebinds verify.monodromy_triple alone to record every
        # triple.  A process that never loads verify (the sheet export)
        # tracks through monodromy's own.
        layer = sys.modules.get(f"{__package__}.verify")
        if layer is None:
            from . import monodromy as layer
        return self._get(
            "triple", lambda: layer.monodromy_triple(self.config))

    @property
    def certificate(self):
        from . import certify
        return self._get("certificate", lambda: certify.certify(self.config))

    @property
    def sheet(self):
        from . import monodromy
        return self._get(
            "sheet", lambda: monodromy.sheet_constellation(self.triple))

    @property
    def identities(self):
        from . import quintic
        return self._get("identities", lambda: quintic.verify_identities(
            samples=100, seed=self.config.seed))
