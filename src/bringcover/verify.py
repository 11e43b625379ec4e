"""Named verification checks and the machine-readable report.

Every check verifies one mathematical claim; its ``anchor`` is that claim
in one sentence.  A check is pass/fail except for the two info-level
findings (the mirror flag of the main isomorphism and the weight defect
of the quartic-power expression), which document conventions rather than
gate correctness.  The global status is pass iff all non-info checks pass.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass
from math import factorial

from . import __version__, cells, cover, dessins, quintic
from .monodromy import monodromy_triple, sheet_constellation
from .perms import (
    closure,
    cycle_type,
    identify_closure,
    order,
    regular_representation,
    symmetric_group,
)
from .tracking import TrackingConfig


class Context:
    """Lazily built shared objects for the checks."""

    def __init__(self, config: TrackingConfig | None = None):
        self.config = config or TrackingConfig()
        self._cache = {}

    def _get(self, key, build):
        if key not in self._cache:
            self._cache[key] = build()
        return self._cache[key]

    @property
    def complex5(self):
        return self._get("complex5", cells.build_complex5)

    @property
    def surface(self):
        return self._get(
            "surface", lambda: cover.surface_from_cells(self.complex5))

    @property
    def cover(self):
        return self._get(
            "cover", lambda: cover.orientation_cover(self.surface))

    @property
    def dessin_d(self):
        return self._get("d", lambda: cover.cover_to_dessin(self.cover))

    @property
    def icosahedron(self):
        return self._get("icosa", dessins.build_icosahedron)

    @property
    def i4(self):
        return self._get("i4", dessins.build_i4)

    @property
    def union(self):
        return self._get("union", self.i4.union_with_dual)

    @property
    def dessin_j(self):
        return self._get("j", lambda: self.union.dual().recolor())

    @property
    def triple(self):
        return self._get("triple", lambda: monodromy_triple(self.config))

    @property
    def sheet(self):
        return self._get("sheet", lambda: sheet_constellation(self.triple))

    @property
    def identities(self):
        return self._get("identities", lambda: quintic.verify_identities(
            samples=100, seed=self.config.seed))


@dataclass(frozen=True)
class CheckDef:
    name: str
    module: str
    anchor: str
    fn: object


def _type_counts(t):
    """Compact cycle-type form like '4^30'."""
    out = []
    for length in sorted(set(t), reverse=True):
        out.append(f"{length}^{t.count(length)}")
    return " ".join(out)


def _passport_str(d):
    p = d.passport()
    return (f"black {_type_counts(p.black)}, white {_type_counts(p.white)}, "
            f"face {_type_counts(p.face)}")


# ---------------------------------------------------------------- cells

def check_cells_n5(ctx):
    counts = tuple(len(cells.enumerate_cells(5, k)) for k in range(3))
    return counts == (12, 30, 15), list(counts), [12, 30, 15]


def check_cells_n4(ctx):
    counts = tuple(len(cells.enumerate_cells(4, k)) for k in range(2))
    return counts == (3, 3), list(counts), [3, 3]


def check_cells_n6(ctx):
    n = len(cells.enumerate_cells(6, 0))
    return n == 60, n, factorial(5) // 2


def check_cells_top_formula(ctx):
    got = {n: len(cells.enumerate_cells(n, 0)) for n in (4, 5, 6)}
    want = {n: factorial(n - 1) // 2 for n in (4, 5, 6)}
    return got == want, got, want


def check_refinements(ctx):
    faces = cells.enumerate_cells(5, 0)
    edges = cells.enumerate_cells(5, 1)
    refs = {c: cells.refinements(c) for c in faces + edges}
    face_refs = {len(refs[c]) for c in faces}
    edge_refs = {len(refs[c]) for c in edges}
    dims_ok = all(r.dimension == c.dimension - 1
                  for c, rs in refs.items() for r in rs)
    observed = {"per_face": sorted(face_refs), "per_edge": sorted(edge_refs),
                "dimension_drops_by_one": dims_ok}
    ok = face_refs == {5} and edge_refs == {2} and dims_ok
    return ok, observed, {"per_face": [5], "per_edge": [2],
                          "dimension_drops_by_one": True}


# ---------------------------------------------------------------- cover

def check_base_surface(ctx):
    chi = cover.euler_characteristic(ctx.surface)
    orientable = cover.is_orientable(ctx.surface)
    return ((chi, orientable) == (-3, False),
            {"euler_characteristic": chi, "orientable": orientable},
            {"euler_characteristic": -3, "orientable": False})


def check_orientation_cover(ctx):
    got = ctx.cover.summary()
    want = {"faces": 24, "edges": 60, "vertices": 30, "components": 1,
            "orientable": True, "genus": 4}
    return got == want, got, want


def check_cover_degree(ctx):
    c = ctx.cover
    ok = (c.n_faces == 2 * c.base.n_faces
          and c.n_edges == 2 * c.base.n_edges
          and c.n_vertices == 2 * c.base.n_vertices
          and c.euler_characteristic()
          == 2 * cover.euler_characteristic(c.base))
    return ok, {"euler_cover": c.euler_characteristic()}, \
        {"euler_cover": 2 * cover.euler_characteristic(c.base)}


def check_cover_mirror_convention(ctx):
    d_plus = cover.cover_to_dessin(ctx.cover, orientation=1)
    d_minus = cover.cover_to_dessin(ctx.cover, orientation=-1)
    ok = d_minus == d_plus.mirror()
    return ok, {"opposite_orientation_is_mirror": ok}, \
        {"opposite_orientation_is_mirror": True}


# --------------------------------------------------------------- dessins

def check_d_passport(ctx):
    d = ctx.dessin_d
    p = d.passport()
    got = {"darts": d.n_darts, "passport": _passport_str(d),
           "connected": d.is_connected, "genus": d.genus()}
    want = {"darts": 120, "passport": "black 4^30, white 2^60, face 5^24",
            "connected": True, "genus": 4}
    return got == want, got, want


def check_icosahedron(ctx):
    d = ctx.icosahedron
    got = {"passport": _passport_str(d), "genus": d.genus(),
           "aut_order": dessins.automorphism_group(d).order}
    want = {"passport": "black 5^12, white 2^30, face 3^20", "genus": 0,
            "aut_order": 60}
    return got == want, got, want


def check_i4_census(ctx):
    d = ctx.i4
    got = {"passport": _passport_str(d), "genus": d.genus(),
           "darts": d.n_darts}
    want = {"passport": "black 5^12, white 2^30, face 5^12", "genus": 4,
            "darts": 60}
    return got == want, got, want


def check_i4_automorphisms(ctx):
    grp = dessins.automorphism_group(ctx.i4)
    got = {"order": grp.order, "group": identify_closure(grp)}
    return got == {"order": 60, "group": "A5"}, got, \
        {"order": 60, "group": "A5"}


def check_i4_self_dual(ctx):
    m = dessins.isomorphic(ctx.i4.dual(), ctx.i4)
    return m is not None, {"isomorphism_found": m is not None}, \
        {"isomorphism_found": True}


def check_union_census(ctx):
    d = ctx.union
    got = {"passport": _passport_str(d), "genus": d.genus(),
           "darts": d.n_darts}
    want = {"passport": "black 5^24, white 4^30, face 2^60", "genus": 4,
            "darts": 120}
    return got == want, got, want


def check_union_automorphisms(ctx):
    grp = dessins.automorphism_group(ctx.union)
    got = {"order": grp.order, "group": identify_closure(grp)}
    return got == {"order": 120, "group": "S5"}, got, \
        {"order": 120, "group": "S5"}


def _main_isomorphism(ctx):
    direct = dessins.isomorphic(ctx.dessin_d, ctx.dessin_j)
    if direct is not None:
        return {"found": True, "mirrored": False}
    mirrored = dessins.isomorphic(ctx.dessin_d.mirror(), ctx.dessin_j)
    return {"found": mirrored is not None, "mirrored": mirrored is not None}


def check_main_isomorphism(ctx):
    got = ctx._get("main_iso", lambda: _main_isomorphism(ctx))
    return got["found"], got, {"found": True}


def check_main_mirror_flag(ctx):
    got = ctx._get("main_iso", lambda: _main_isomorphism(ctx))
    return "info", {"mirror_needed": got.get("mirrored")}, \
        {"mirror_needed": "either (reported, not gated)"}


def check_d_regular(ctx):
    grp = dessins.automorphism_group(ctx.dessin_d)
    got = {"order": grp.order,
           "acts_freely": dessins.acts_freely(ctx.dessin_d, grp),
           "group": identify_closure(grp)}
    want = {"order": 120, "acts_freely": True, "group": "S5"}
    return got == want, got, want


def check_involutions(ctx):
    built = {"icosahedron": ctx.icosahedron, "i4": ctx.i4,
             "union": ctx.union, "j": ctx.dessin_j, "d": ctx.dessin_d}
    bad = []
    for name, d in built.items():
        if d.dual().dual() != d:
            bad.append(f"dual({name})")
        if d.recolor().recolor() != d:
            bad.append(f"recolor({name})")
        if d.mirror().mirror() != d:
            bad.append(f"mirror({name})")
        if d.genus() < 0:  # genus() itself checks Euler parity
            bad.append(f"euler({name})")
        if d.subdivide().genus() != d.genus():
            bad.append(f"subdivide({name})")
    return not bad, {"violations": bad}, {"violations": []}


def check_passport_laws(ctx):
    """Union and dual passports follow the black/white/face exchange laws."""
    bad = []
    for name, d in (("i4", ctx.i4), ("icosahedron", ctx.icosahedron)):
        u = d.union_with_dual()
        p, q = d.passport(), u.passport()
        if q.black != tuple(sorted(p.black + p.face, reverse=True)):
            bad.append(f"union black law ({name})")
        if q.white != tuple(sorted((2 * k for k in p.white), reverse=True)):
            bad.append(f"union white law ({name})")
        dd = d.dual().passport()
        if (dd.black, dd.face) != (p.face, p.black) or dd.white != p.white:
            bad.append(f"dual exchange law ({name})")
    return not bad, {"violations": bad}, {"violations": []}


# -------------------------------------------------------------- perms

def check_regular_representation_law(ctx):
    s5 = symmetric_group(5)
    bad = []
    for g in s5.elements:
        k = order(g)
        if cycle_type(regular_representation(g, s5)) \
                != tuple([k] * (120 // k)):
            bad.append(f"{g}")
    return not bad, {"violations": bad, "elements_checked": s5.order}, \
        {"violations": [], "elements_checked": 120}


# ------------------------------------------------------------ monodromy

def check_monodromy_types(ctx):
    got = [list(t) for t in ctx.triple.cycle_types()]
    want = [[5], [4, 1], [2, 1, 1, 1]]
    return got == want, got, want


def check_monodromy_group(ctx):
    grp = closure([ctx.triple.pi0, ctx.triple.pi1])
    got = {"order": grp.order, "group": identify_closure(grp)}
    return got == {"order": 120, "group": "S5"}, got, \
        {"order": 120, "group": "S5"}


def check_monodromy_quality(ctx):
    t = ctx.triple
    worst_residual = max(r.max_residual for r in t.loops.values())
    worst_lambda = max(abs(r.lam**4 - 1) for r in t.loops.values())
    got = {"max_residual": worst_residual, "max_lambda4_error": worst_lambda,
           "product_is_identity": t.product_is_identity(),
           "inf_direct_equals_composite": t.inf_exact}
    ok = (worst_residual < 1e-9 and worst_lambda < 1e-8
          and t.product_is_identity()
          and cycle_type(t.loops["inf"].pi) == cycle_type(t.pi_inf))
    return ok, got, {"max_residual": "< 1e-9", "max_lambda4_error": "< 1e-8",
                     "product_is_identity": True,
                     "inf_direct_equals_composite": "cross-check"}


def check_monodromy_doubling(ctx):
    fine = monodromy_triple(ctx.config.with_steps(2 * ctx.config.steps))
    t = ctx.triple
    same = (fine.pi0, fine.pi1, fine.pi_inf) == (t.pi0, t.pi1, t.pi_inf)
    return same, {"invariant_under_doubling": same}, \
        {"invariant_under_doubling": True}


def check_sheet_isomorphism(ctx):
    sheet = ctx.sheet
    got = {"passport": _passport_str(sheet), "genus": sheet.genus()}
    m = dessins.isomorphic(sheet, ctx.union)
    got["isomorphic_to_union"] = m is not None
    want = {"passport": "black 5^24, white 4^30, face 2^60", "genus": 4,
            "isomorphic_to_union": True}
    return got == want, got, want


def check_identities(ctx):
    rep = ctx.identities
    got = {"samples": rep.samples, "max_power_sum": rep.max_power_sum,
           "max_identity_error": rep.max_identity_error,
           "max_symmetric_error": rep.max_symmetric_error}
    return rep.passes(1e-9), got, {"all": "< 1e-9 relative"}


def check_printed_expression(ctx):
    rep = ctx.identities
    got = {"deviation_from_belyi_value": rep.printed_expression_deviation,
           "weight_under_root_rescaling": rep.printed_expression_exponent}
    return "info", got, {"weight_under_root_rescaling": -9,
                         "note": "not constant on projective root points; "
                                 "the fifth-power form is"}


CHECKS = [
    CheckDef("cells.counts_n4", "cells",
             "the 4-point space is a circle of 3 segments and 3 points",
             check_cells_n4),
    CheckDef("cells.counts_n5", "cells",
             "the 5-point space has 12 pentagons, 30 edges, 15 vertices",
             check_cells_n5),
    CheckDef("cells.counts_n6", "cells",
             "the 6-point space has 60 top-dimensional cells",
             check_cells_n6),
    CheckDef("cells.top_cell_formula", "cells",
             "there are (n-1)!/2 top-dimensional cells",
             check_cells_top_formula),
    CheckDef("cells.refinement_laws", "cells",
             "each pentagon bounds 5 edges, each edge bounds 2 vertices, "
             "refinement drops dimension by one",
             check_refinements),
    CheckDef("cover.base_surface", "cover",
             "the glued 5-point complex has Euler characteristic -3 and is "
             "non-orientable",
             check_base_surface),
    CheckDef("cover.orientation_cover", "cover",
             "the orientation cover is a connected orientable genus-4 "
             "surface with 24 faces, 60 edges, 30 vertices",
             check_orientation_cover),
    CheckDef("cover.double_counts", "cover",
             "the cover is 2-to-1 on every cell",
             check_cover_degree),
    CheckDef("cover.mirror_convention", "cover",
             "flipping the global orientation mirrors the extracted dessin",
             check_cover_mirror_convention),
    CheckDef("dessins.cover_passport", "dessins",
             "the cover dessin has 120 darts, 30 black vertices of valency "
             "4, 60 white of valency 2, 24 ten-gon faces, genus 4",
             check_d_passport),
    CheckDef("dessins.icosahedron", "dessins",
             "the icosahedron dessin is spherical with automorphism "
             "group of order 60",
             check_icosahedron),
    CheckDef("dessins.i4_census", "dessins",
             "the 4-icosahedron has 12 black vertices of valency 5, 30 "
             "white of valency 2, 60 edges, 12 pentagonal faces, genus 4",
             check_i4_census),
    CheckDef("dessins.i4_automorphisms", "dessins",
             "the automorphism group of the 4-icosahedron is A5",
             check_i4_automorphisms),
    CheckDef("dessins.i4_self_dual", "dessins",
             "the 4-icosahedron is isomorphic to its dual",
             check_i4_self_dual),
    CheckDef("dessins.union_census", "dessins",
             "the union with the dual has 24 black vertices of valency 5, "
             "30 white of valency 4, 60 quadrilateral faces, genus 4",
             check_union_census),
    CheckDef("dessins.union_automorphisms", "dessins",
             "the automorphism group of the union is the symmetric group "
             "on 5 points",
             check_union_automorphisms),
    CheckDef("dessins.main_isomorphism", "dessins",
             "the cover dessin is isomorphic to the re-colored dual of "
             "the union of the 4-icosahedron with its dual",
             check_main_isomorphism),
    CheckDef("dessins.main_isomorphism_mirror_flag", "dessins",
             "whether the main isomorphism needed a global mirror",
             check_main_mirror_flag),
    CheckDef("dessins.cover_regular", "dessins",
             "the cover dessin is regular: its automorphism group has "
             "order 120 and acts freely on darts",
             check_d_regular),
    CheckDef("dessins.involutions", "dessins",
             "dual, recolor and mirror are exact involutions; genus and "
             "Euler parity are consistent on all built dessins",
             check_involutions),
    CheckDef("dessins.passport_laws", "dessins",
             "union and dual passports obey the exchange and doubling laws",
             check_passport_laws),
    CheckDef("perms.regular_representation_law", "perms",
             "left translation by g splits the group into |G|/ord(g) "
             "cycles of length ord(g)",
             check_regular_representation_law),
    CheckDef("monodromy.cycle_types", "monodromy",
             "the loops around 0, 1, infinity permute the roots with "
             "cycle types (5), (4,1), (2,1,1,1)",
             check_monodromy_types),
    CheckDef("monodromy.group", "monodromy",
             "the monodromy group is the full symmetric group on the "
             "5 roots",
             check_monodromy_group),
    CheckDef("monodromy.quality", "monodromy",
             "tracking residuals, branch drift and the product identity "
             "meet their tolerances",
             check_monodromy_quality),
    CheckDef("monodromy.doubling_invariance", "monodromy",
             "doubling the step count leaves all three permutations "
             "unchanged",
             check_monodromy_doubling),
    CheckDef("monodromy.sheet_isomorphism", "monodromy",
             "the 120-sheet dessin of the tracked monodromy is isomorphic "
             "to the union of the 4-icosahedron with its dual",
             check_sheet_isomorphism),
    CheckDef("monodromy.identities", "monodromy",
             "power sums 1..3 of the roots vanish and 1 - 1/f equals "
             "-3125 b^4 / (256 a^5) on random samples",
             check_identities),
    CheckDef("monodromy.printed_expression_weight", "monodromy",
             "the quartic-power symmetric expression is not projectively "
             "invariant: it carries weight -9 under root rescaling",
             check_printed_expression),
]

MODULES = tuple(sorted({c.module for c in CHECKS}))


def run_checks(config: TrackingConfig | Context | None = None,
               only: str | None = None):
    """Run the registry and return the report dict (checks sorted by name).

    ``config`` may be a :class:`Context` whose built objects are reused
    (and kept for the caller), or the configuration of a fresh one.
    """
    if only is not None and only not in MODULES:
        raise ValueError(f"unknown module {only!r}; choose from {MODULES}")
    ctx = config if isinstance(config, Context) else Context(config)
    results = []
    for check in sorted(CHECKS, key=lambda c: c.name):
        if only is not None and check.module != only:
            continue
        try:
            ok, observed, expected = check.fn(ctx)
            status = ok if ok == "info" else ("pass" if ok else "fail")
        except Exception as exc:  # surface, never crash the report
            status = "fail"
            observed = f"{type(exc).__name__}: {exc}"
            expected = "no error"
        results.append({
            "name": check.name,
            "status": status,
            "observed": observed,
            "expected": expected,
            "anchor": check.anchor,
        })
    status = "pass" if all(
        r["status"] in ("pass", "info") for r in results) else "fail"
    return {
        "version": __version__,
        "config": asdict(ctx.config),
        "checks": results,
        "status": status,
    }
