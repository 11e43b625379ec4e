"""Named verification checks and the machine-readable report.

Every check verifies one mathematical claim and is declared once, by
:func:`check` on the function that observes it::

    @check("cells.counts_n4",
           "the 4-point space is a circle of 3 segments and 3 points",
           expected=[3, 3])
    def check_cells_n4(ctx): ...

The name's prefix before the dot is the check's module, the ``anchor`` is
the claim in one sentence, and the function returns only what it
observed.  A check passes iff the observed value equals ``expected``.  The
checks whose claim is not an equality declare a ``verdict`` instead, a
function of the observed value: ``monodromy.quality`` gates on
tolerances and on the Rouché certificate of :mod:`certify`,
``monodromy.identities`` on exact zeros, ``dessins.main_isomorphism`` on
whether an isomorphism was found up to mirroring.  Two checks are
info-level findings (the mirror flag of the main isomorphism and the
weight defect of the quartic-power expression), whose verdict is "info":
they document conventions rather than gate correctness.  A check that
raises fails, with the error as its observed value.  The global status is
pass iff all non-info checks pass.

The checks read the objects they share from a :class:`context.Context`,
which this module re-exports as ``verify.Context``.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import factorial

from . import __version__, cells, cover, dessins
from .context import Context
from .monodromy import monodromy_triple
from .perms import (
    cycle_type,
    identify_closure,
    order,
    regular_representation,
    symmetric_group,
)
from .tracking import BUDGET_FACTOR, DEFAULT_STEPS, MAX_DEPTH, TrackingConfig


@dataclass(frozen=True)
class CheckDef:
    name: str
    anchor: str
    expected: object
    fn: object
    verdict: object = None  # observed -> bool or "info"; None: == expected

    @property
    def module(self) -> str:
        return self.name.split(".", 1)[0]


CHECKS = []


def check(name: str, anchor: str, expected, verdict=None):
    """Register the decorated function as the check ``name``."""
    def register(fn):
        CHECKS.append(CheckDef(name, anchor, expected, fn, verdict))
        return fn
    return register


def _info(observed):
    return "info"


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

@check("cells.counts_n5",
       "the 5-point space has 12 pentagons, 30 edges, 15 vertices",
       expected=[12, 30, 15])
def check_cells_n5(ctx):
    return [len(cells.enumerate_cells(5, k)) for k in range(3)]


@check("cells.counts_n4",
       "the 4-point space is a circle of 3 segments and 3 points",
       expected=[3, 3])
def check_cells_n4(ctx):
    return [len(cells.enumerate_cells(4, k)) for k in range(2)]


@check("cells.counts_n6",
       "the 6-point space has 60 top-dimensional cells",
       expected=factorial(5) // 2)
def check_cells_n6(ctx):
    return len(cells.enumerate_cells(6, 0))


@check("cells.top_cell_formula",
       "there are (n-1)!/2 top-dimensional cells",
       expected={n: factorial(n - 1) // 2 for n in (4, 5, 6)})
def check_cells_top_formula(ctx):
    return {n: len(cells.enumerate_cells(n, 0)) for n in (4, 5, 6)}


@check("cells.refinement_laws",
       "each pentagon bounds 5 edges, each edge bounds 2 vertices, "
       "refinement drops dimension by one",
       expected={"per_face": [5], "per_edge": [2],
                 "dimension_drops_by_one": True})
def check_refinements(ctx):
    faces = cells.enumerate_cells(5, 0)
    edges = cells.enumerate_cells(5, 1)
    refs = {c: cells.refinements(c) for c in faces + edges}
    return {"per_face": sorted({len(refs[c]) for c in faces}),
            "per_edge": sorted({len(refs[c]) for c in edges}),
            "dimension_drops_by_one": all(
                r.dimension == c.dimension - 1
                for c, rs in refs.items() for r in rs)}


# ---------------------------------------------------------------- cover

@check("cover.base_surface",
       "the glued 5-point complex has Euler characteristic -3 and is "
       "non-orientable",
       expected={"euler_characteristic": -3, "orientable": False})
def check_base_surface(ctx):
    return {"euler_characteristic": cover.euler_characteristic(ctx.surface),
            "orientable": cover.is_orientable(ctx.surface)}


@check("cover.orientation_cover",
       "the orientation cover is a connected orientable genus-4 "
       "surface with 24 faces, 60 edges, 30 vertices",
       expected={"faces": 24, "edges": 60, "vertices": 30, "components": 1,
                 "orientable": True, "genus": 4})
def check_orientation_cover(ctx):
    return ctx.cover.summary()


# The cover has twice the base's faces and edges by construction, so it is
# 2-to-1 on every cell iff its Euler characteristic is twice the base's -3.
@check("cover.double_counts",
       "the cover is 2-to-1 on every cell",
       expected={"euler_cover": -6})
def check_cover_degree(ctx):
    return {"euler_cover": ctx.cover.euler_characteristic()}


@check("cover.mirror_convention",
       "flipping the global orientation mirrors the extracted dessin",
       expected={"opposite_orientation_is_mirror": True})
def check_cover_mirror_convention(ctx):
    flipped = cover.cover_to_dessin(ctx.cover, orientation=-1)
    return {"opposite_orientation_is_mirror":
            flipped == ctx.dessin_d.mirror()}


# --------------------------------------------------------------- dessins

@check("dessins.cover_passport",
       "the cover dessin has 120 darts, 30 black vertices of valency "
       "4, 60 white of valency 2, 24 ten-gon faces, genus 4",
       expected={"darts": 120,
                 "passport": "black 4^30, white 2^60, face 5^24",
                 "connected": True, "genus": 4})
def check_d_passport(ctx):
    d = ctx.dessin_d
    return {"darts": d.n_darts, "passport": _passport_str(d),
            "connected": d.is_connected, "genus": d.genus()}


@check("dessins.icosahedron",
       "the icosahedron dessin is spherical with automorphism "
       "group of order 60",
       expected={"passport": "black 5^12, white 2^30, face 3^20",
                 "genus": 0, "aut_order": 60})
def check_icosahedron(ctx):
    d = ctx.icosahedron
    aut = dessins.presented_automorphisms(d, "A5", d.sigma0[0], d.sigma1[0])
    return {"passport": _passport_str(d), "genus": d.genus(),
            "aut_order": aut.order}


@check("dessins.i4_census",
       "the 4-icosahedron has 12 black vertices of valency 5, 30 "
       "white of valency 2, 60 edges, 12 pentagonal faces, genus 4",
       expected={"passport": "black 5^12, white 2^30, face 5^12",
                 "genus": 4, "darts": 60})
def check_i4_census(ctx):
    d = ctx.i4
    return {"passport": _passport_str(d), "genus": d.genus(),
            "darts": d.n_darts}


@check("dessins.i4_automorphisms",
       "the automorphism group of the 4-icosahedron is A5",
       expected={"order": 60, "group": "A5"})
def check_i4_automorphisms(ctx):
    d = ctx.i4
    aut = dessins.presented_automorphisms(d, "A5", d.sigma0[d.sigma0[0]],
                                          d.sigma1[0])
    return {"order": aut.order, "group": aut.group}


@check("dessins.i4_self_dual",
       "the 4-icosahedron is isomorphic to its dual",
       expected={"isomorphism_found": True})
def check_i4_self_dual(ctx):
    m = dessins.isomorphic(ctx.i4.dual(), ctx.i4)
    return {"isomorphism_found": m is not None}


@check("dessins.union_census",
       "the union with the dual has 24 black vertices of valency 5, "
       "30 white of valency 4, 60 quadrilateral faces, genus 4",
       expected={"passport": "black 5^24, white 4^30, face 2^60",
                 "genus": 4, "darts": 120})
def check_union_census(ctx):
    d = ctx.union
    return {"passport": _passport_str(d), "genus": d.genus(),
            "darts": d.n_darts}


@check("dessins.union_automorphisms",
       "the automorphism group of the union is the symmetric group "
       "on 5 points",
       expected={"order": 120, "group": "S5"})
def check_union_automorphisms(ctx):
    d = ctx.union
    aut = dessins.presented_automorphisms(d, "S5", d.sigma_inf[0],
                                          d.sigma0[0])
    return {"order": aut.order, "group": aut.group}


def _main_isomorphism(ctx):
    direct = dessins.isomorphic(ctx.dessin_d, ctx.dessin_j)
    if direct is not None:
        return {"found": True, "mirrored": False}
    mirrored = dessins.isomorphic(ctx.dessin_d.mirror(), ctx.dessin_j)
    return {"found": mirrored is not None, "mirrored": mirrored is not None}


@check("dessins.main_isomorphism",
       "the cover dessin is isomorphic to the re-colored dual of "
       "the union of the 4-icosahedron with its dual",
       expected={"found": True}, verdict=lambda got: got["found"])
def check_main_isomorphism(ctx):
    return ctx._get("main_iso", lambda: _main_isomorphism(ctx))


@check("dessins.main_isomorphism_mirror_flag",
       "whether the main isomorphism needed a global mirror",
       expected={"mirror_needed": "either (reported, not gated)"},
       verdict=_info)
def check_main_mirror_flag(ctx):
    got = ctx._get("main_iso", lambda: _main_isomorphism(ctx))
    return {"mirror_needed": got.get("mirrored")}


@check("dessins.cover_regular",
       "the cover dessin is regular: its automorphism group has "
       "order 120 and acts freely on darts",
       expected={"order": 120, "acts_freely": True, "group": "S5"})
def check_d_regular(ctx):
    d = ctx.dessin_d
    aut = dessins.presented_automorphisms(d, "S5", d.sigma1[0],
                                          d.sigma_inf[0])
    return {"order": aut.order, "acts_freely": aut.acts_freely,
            "group": aut.group}


@check("dessins.involutions",
       "dual, recolor and mirror are exact involutions; genus and "
       "Euler parity are consistent on all built dessins",
       expected={"violations": []})
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
    return {"violations": bad}


@check("dessins.passport_laws",
       "union and dual passports obey the exchange and doubling laws",
       expected={"violations": []})
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
    return {"violations": bad}


# -------------------------------------------------------------- perms

@check("perms.regular_representation_law",
       "left translation by g splits the group into |G|/ord(g) "
       "cycles of length ord(g)",
       expected={"violations": [], "elements_checked": 120})
def check_regular_representation_law(ctx):
    s5 = symmetric_group(5)
    bad = []
    for g in s5.elements:
        k = order(g)
        if cycle_type(regular_representation(g, s5)) \
                != tuple([k] * (120 // k)):
            bad.append(f"{g}")
    return {"violations": bad, "elements_checked": s5.order}


# ------------------------------------------------------------ monodromy

@check("monodromy.cycle_types",
       "the loops around 0, 1, infinity permute the roots with "
       "cycle types (5), (4,1), (2,1,1,1)",
       expected=[[5], [4, 1], [2, 1, 1, 1]])
def check_monodromy_types(ctx):
    return [list(t) for t in ctx.triple.cycle_types()]


@check("monodromy.group",
       "the monodromy group is the full symmetric group on the "
       "5 roots",
       expected={"order": 120, "group": "S5"})
def check_monodromy_group(ctx):
    grp = ctx.triple.group
    return {"order": grp.order, "group": identify_closure(grp)}


# monodromy_triple raises unless the direct infinity track equals the
# composite inverse, so the verdict need not repeat that condition; the
# certificate raises unless it proves every loop
@check("monodromy.quality",
       "tracking residuals, branch drift and the product identity "
       "meet their tolerances, and a Rouché certificate proves the "
       "tracked permutations",
       expected={"max_residual": "< 1e-9", "max_lambda4_error": "< 1e-8",
                 "product_is_identity": True,
                 "inf_direct_equals_composite": "cross-check",
                 "certified_steps": "tracking.DEFAULT_STEPS, whatever --steps",
                 "tracked_equals_certified": True},
       verdict=lambda got: (got["max_residual"] < 1e-9
                            and got["max_lambda4_error"] < 1e-8
                            and got["product_is_identity"]
                            and got["tracked_equals_certified"]))
def check_monodromy_quality(ctx):
    t = ctx.triple
    cert = ctx.certificate
    return {"max_residual": max(r.max_residual for r in t.loops.values()),
            "max_lambda4_error": max(abs(r.lam**4 - 1)
                                     for r in t.loops.values()),
            "product_is_identity": t.product_is_identity(),
            # guaranteed by monodromy_triple, which raises otherwise
            "inf_direct_equals_composite": True,
            "certified_steps": DEFAULT_STEPS,
            "rouche_margin": {str(p): c.margin for p, c in cert.items()},
            "bisections": {str(p): c.bisections for p, c in cert.items()},
            "tracked_equals_certified": all(
                t.loops[p].pi == c.pi for p, c in cert.items())}


@check("monodromy.doubling_invariance",
       "doubling the step count leaves all three permutations "
       "unchanged",
       expected={"invariant_under_doubling": True})
def check_monodromy_doubling(ctx):
    fine = monodromy_triple(ctx.config.with_steps(2 * ctx.config.steps))
    t = ctx.triple
    return {"invariant_under_doubling":
            (fine.pi0, fine.pi1, fine.pi_inf) == (t.pi0, t.pi1, t.pi_inf)}


@check("monodromy.sheet_isomorphism",
       "the 120-sheet dessin of the tracked monodromy is isomorphic "
       "to the union of the 4-icosahedron with its dual",
       expected={"passport": "black 5^24, white 4^30, face 2^60",
                 "genus": 4, "isomorphic_to_union": True})
def check_sheet_isomorphism(ctx):
    sheet = ctx.sheet
    return {"passport": _passport_str(sheet), "genus": sheet.genus(),
            "isomorphic_to_union":
            dessins.isomorphic(sheet, ctx.union) is not None}


@check("monodromy.identities",
       "power sums 1..3 of the roots vanish and 1 - 1/f equals "
       "-3125 b^4 / (256 a^5) identically",
       expected={"all": "0 exactly, in Z[a, b]"},
       verdict=lambda got: all(
           got[k] == 0 for k in ("max_power_sum", "max_identity_error",
                                 "max_symmetric_error")))
def check_identities(ctx):
    rep = ctx.identities
    return {"samples": rep.samples, "max_power_sum": rep.max_power_sum,
            "max_identity_error": rep.max_identity_error,
            "max_symmetric_error": rep.max_symmetric_error}


@check("monodromy.printed_expression_weight",
       "the quartic-power symmetric expression is not projectively "
       "invariant: it carries weight -9 under root rescaling",
       expected={"weight_under_root_rescaling": -9,
                 "note": "not constant on projective root points; "
                         "the fifth-power form is"},
       verdict=_info)
def check_printed_expression(ctx):
    rep = ctx.identities
    return {"deviation_from_belyi_value": rep.printed_expression_deviation,
            "weight_under_root_rescaling": rep.printed_expression_exponent}


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
    for c in sorted(CHECKS, key=lambda c: c.name):
        if only is not None and c.module != only:
            continue
        expected = c.expected
        try:
            observed = c.fn(ctx)
            ok = (observed == expected if c.verdict is None
                  else c.verdict(observed))
            status = ok if ok == "info" else ("pass" if ok else "fail")
        except Exception as exc:  # surface, never crash the report
            status = "fail"
            observed = f"{type(exc).__name__}: {exc}"
            expected = "no error"
        results.append({
            "name": c.name,
            "status": status,
            "observed": observed,
            "expected": expected,
            "anchor": c.anchor,
        })
    status = "pass" if all(
        r["status"] in ("pass", "info") for r in results) else "fail"
    return {
        "version": __version__,
        # the two tracking limits are constants, echoed with the config
        "config": {**ctx.config._asdict(), "max_depth": MAX_DEPTH,
                   "budget_factor": BUDGET_FACTOR},
        "checks": results,
        "status": status,
    }
