"""Monodromy of the degree-120 Belyi map and its 120-sheet dessin.

A sheet over the base point is an ordering of the five base roots, so the
sheets form a copy of the symmetric group on 5 points and each loop acts
on them by left multiplication with its root permutation: the regular
representation.  The three loop permutations must have cycle types
(5), (4) and (2,1,1,1) and generate the full symmetric group.
"""

from __future__ import annotations

from collections import namedtuple
from functools import cached_property

from .dessins import Dessin
from .perms import (
    closure,
    compose,
    cycle_string,
    cycle_type,
    identity,
    inverse,
    regular_representation,
)
from .tracking import TrackingConfig, loop_spec, track_loop


class MonodromyTriple(namedtuple("MonodromyTriple", (
        "pi0",
        "pi1",
        "pi_inf",
        "loops",          # puncture -> TrackResult (pi_inf's is the direct track)
        "inf_exact",      # direct infinity track equals the composite inverse
        "order_flipped",  # composite taken as (pi1 . pi0)^-1 instead of (pi0 . pi1)^-1
))):
    # no __slots__: ``group`` is cached in the instance __dict__, outside
    # the field tuple that equality and hashing see

    def product_is_identity(self) -> bool:
        if self.order_flipped:
            prod = compose(compose(self.pi_inf, self.pi1), self.pi0)
        else:
            prod = compose(compose(self.pi0, self.pi1), self.pi_inf)
        return prod == identity(5)

    def cycle_types(self) -> tuple:
        return (cycle_type(self.pi0), cycle_type(self.pi1),
                cycle_type(self.pi_inf))

    @cached_property
    def group(self):
        """The monodromy group <pi0, pi1>, closed once per triple."""
        return closure([self.pi0, self.pi1])

    def report(self) -> dict:
        return {
            "pi0": cycle_string(self.pi0),
            "pi1": cycle_string(self.pi1),
            "pi_inf": cycle_string(self.pi_inf),
            "cycle_types": [list(t) for t in self.cycle_types()],
            "group_order": self.group.order,
            "product_is_identity": self.product_is_identity(),
            "inf_direct_equals_composite": self.inf_exact,
            "composition_order_flipped": self.order_flipped,
            "loops": {str(k): v.diagnostics() for k, v in self.loops.items()},
        }


def monodromy_triple(cfg: TrackingConfig | None = None) -> MonodromyTriple:
    """Track the three standard loops and normalize their product.

    pi_inf is the composite inverse, so the product identity holds
    exactly; the directly tracked infinity loop is kept as a cross-check
    (it must at least share pi_inf's cycle type, and for these contours
    it comes out equal on the nose, fixing the composition order).
    """
    cfg = cfg or TrackingConfig()
    res0 = track_loop(loop_spec(cfg, 0), cfg)
    res1 = track_loop(loop_spec(cfg, 1), cfg)
    res_inf = track_loop(loop_spec(cfg, "inf"), cfg)

    pi0, pi1 = res0.pi, res1.pi
    direct = res_inf.pi
    candidates = (
        (inverse(compose(pi0, pi1)), False),
        (inverse(compose(pi1, pi0)), True),
    )
    for pi_inf, flipped in candidates:
        if pi_inf == direct:
            return MonodromyTriple(
                pi0=pi0, pi1=pi1, pi_inf=pi_inf,
                loops={0: res0, 1: res1, "inf": res_inf},
                inf_exact=True, order_flipped=flipped)
    pi_inf, flipped = candidates[0]
    if cycle_type(pi_inf) != cycle_type(direct):
        raise ArithmeticError(
            "direct infinity track is not conjugate to the composite "
            f"inverse: {cycle_string(direct)} vs {cycle_string(pi_inf)}")
    return MonodromyTriple(
        pi0=pi0, pi1=pi1, pi_inf=pi_inf,
        loops={0: res0, 1: res1, "inf": res_inf},
        inf_exact=False, order_flipped=flipped)


def sheet_constellation(triple: MonodromyTriple) -> Dessin:
    """The 120-dart dessin of the covering: sheets are the canonically
    enumerated elements of the monodromy group, which must be the full
    symmetric group, and rotations are the left regular representations
    of the loop permutations."""
    grp = triple.group
    if grp.order != 120:
        raise ValueError(
            f"loop permutations generate a group of order {grp.order}, "
            "not the full symmetric group")
    return Dessin(regular_representation(triple.pi0, grp),
                  regular_representation(triple.pi1, grp))
