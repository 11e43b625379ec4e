"""Monodromy of the degree-120 Belyi map and its 120-sheet dessin.

A sheet over the base point is an ordering of the five base roots, so the
sheets form a copy of the symmetric group on 5 points and each loop acts
on them by left multiplication with its root permutation: the regular
representation.  The three loop permutations must have cycle types
(5), (4) and (2,1,1,1) and generate the full symmetric group.

The contours fix one relation.  Every loop is based at t0 in (0, 1) and
every circle runs counter-clockwise.  Cut along Re t = t0, which its tail
climbs and which misses both punctures, the infinity loop is the loop
around 0 followed by the loop around 1, so its direct track is
compose(pi1, pi0) at every valid geometry and branch (a branch conjugates
all three by one relabeling of the roots).  That track is a transposition,
its own inverse, so it is also the pi_inf of the constellation's product
relation pi_inf . pi1 . pi0 = 1 (Lando and Zvonkin 2004), and
:func:`monodromy_triple` requires exactly that.
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
        "loops",          # puncture -> TrackResult
))):
    # no __slots__: ``group`` is cached in the instance __dict__, outside
    # the field tuple that equality and hashing see

    def product_is_identity(self) -> bool:
        return compose(compose(self.pi_inf, self.pi1), self.pi0) == identity(5)

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
            # construction guarantees both: monodromy_triple raises otherwise
            "inf_direct_equals_composite": True,
            "composition_order_flipped": True,
            "loops": {str(k): v.diagnostics() for k, v in self.loops.items()},
        }


def monodromy_triple(cfg: TrackingConfig | None = None) -> MonodromyTriple:
    """Track the three standard loops; raises ArithmeticError unless the
    direct infinity track is inverse(compose(pi1, pi0)), as the contours
    fix (see the module docstring)."""
    cfg = cfg or TrackingConfig()
    loops = {p: track_loop(loop_spec(cfg, p), cfg) for p in (0, 1, "inf")}
    pi0, pi1, pi_inf = (loops[p].pi for p in (0, 1, "inf"))
    composite = inverse(compose(pi1, pi0))
    if pi_inf != composite:
        raise ArithmeticError(
            "direct infinity track is not the composite inverse: "
            f"{cycle_string(pi_inf)} vs {cycle_string(composite)}")
    return MonodromyTriple(pi0=pi0, pi1=pi1, pi_inf=pi_inf, loops=loops)


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
