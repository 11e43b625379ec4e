"""Monodromy of the degree-120 Belyi map and its 120-sheet dessin.

A sheet over the base point is an ordering of the five base roots, so the
sheets form a copy of the symmetric group on 5 points and each loop acts
on them by left multiplication with its root permutation: the regular
representation.  The three loop permutations must have cycle types
(5), (4) and (2,1,1,1) and generate the full symmetric group.

The contours fix one relation.  Every loop is based at t0 in (0, 1) and
every circle runs counter-clockwise.  No loop is tracked whole: each walk
runs from the base point to a real point and is closed exactly by complex
conjugation (:mod:`tracking` has the proof).  A finite loop walks out to
its circle's real antipode.  Cut along Re t = t0, which the infinity
loop's tail climbs and which misses both punctures, the infinity loop is
the loop around 0 followed by the loop around 1.  Its first walk runs the
tail and the upper arc counter-clockwise to -R and closes as the loop
around 0; its second, from the entry, runs the upper arc clockwise to +R
and closes as the inverse of the loop around 1.  So its direct track is
compose(pi1, pi0) at every valid geometry and branch (a branch conjugates
all three by one relabeling of the roots).  That track is a
transposition, its own inverse, so it is also the pi_inf of the
constellation's product relation pi_inf . pi1 . pi0 = 1 (Lando and
Zvonkin 2004), and :func:`monodromy_triple` requires exactly that of the
three loops tracked on their own.  The certificate (:mod:`certify`)
walks every full lasso, the infinity loop's too, so
``tracked_equals_certified`` tests the closures against independent
full loops.

The three loops are independent continuations.  From ``FORK_STEPS``
steps per circle on, where a loop takes longer than a fork and join, and
when ``os.fork`` exists and the process may run on at least two CPUs,
:func:`monodromy_triple` tracks the loops around 0 and 1 in two forked
children while its own process tracks the loop around infinity.  The
default resolution and its doubling, and :mod:`certify`'s walk, stay
serial.  Each child calls the same :func:`track_loop`, writes its
``TrackResult`` fields to a pipe with :mod:`marshal`, and leaves by
``os._exit``, so it runs no exit handler and flushes no buffer it
inherited; it writes nothing when the loop raises.  The parent reaps
both children before it returns or raises, tracks again any loop whose
child sent nothing, and resolves errors in the serial order 0, 1,
infinity, so a caller sees the results and the first exception of the
serial path.
"""

from __future__ import annotations

import marshal
import os
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
from .tracking import TrackResult, TrackingConfig, loop_spec, track_loop

# the resolution from which the loops around 0 and 1 are tracked in
# forked children.  Each loop, both finite ones walked to the antipode
# and the infinity loop walked to -R and +R, costs about the same.
# In-process triples, forked against serial (medians of two sets of 41
# alternating runs, 2 vCPUs, shared machine): at 256 steps 5.2-5.8 vs
# 4.1-4.4 ms wall, forked faster in 5/41 and 1/41; at 512 7.3-7.6 vs
# 6.9-7.3 ms wall (8/41, 12/41) for 11.4-12.5 vs 6.9-7.3 ms CPU; at 1024
# 12.5-13.0 vs 14.6-18.0 ms wall (39/41, 38/41) for 21.1-21.3 vs
# 14.6-18.0 ms CPU.  1024 is the least power of two at which the fork
# mostly wins on wall time
FORK_STEPS = 1024


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
    specs = {p: loop_spec(cfg, p) for p in (0, 1, "inf")}
    if _forks(cfg):
        loops = _track_forked(specs, cfg)
    else:
        loops = {p: track_loop(spec, cfg) for p, spec in specs.items()}
    pi0, pi1, pi_inf = (loops[p].pi for p in (0, 1, "inf"))
    composite = inverse(compose(pi1, pi0))
    if pi_inf != composite:
        raise ArithmeticError(
            "direct infinity track is not the composite inverse: "
            f"{cycle_string(pi_inf)} vs {cycle_string(composite)}")
    return MonodromyTriple(pi0=pi0, pi1=pi1, pi_inf=pi_inf, loops=loops)


def _forks(cfg: TrackingConfig) -> bool:
    """Whether the loops around 0 and 1 go to forked children (see the
    module docstring)."""
    return (cfg.steps >= FORK_STEPS and hasattr(os, "fork")
            and hasattr(os, "sched_getaffinity")
            and len(os.sched_getaffinity(0)) >= 2)


def _fork_loop(spec, cfg: TrackingConfig):
    """Fork a child that tracks ``spec`` and writes the marshalled
    TrackResult fields to a pipe; returns (pid, read end of the pipe), or
    None when no child could be started.  The child runs only the kernel
    and marshal, which take no lock a thread of this process could hold."""
    try:
        r, w = os.pipe()
    except OSError:     # out of descriptors, say: track the loop here
        return None
    try:
        pid = os.fork()
    except OSError:
        os.close(r)
        os.close(w)
        return None
    if pid == 0:
        try:
            data = marshal.dumps(tuple(track_loop(spec, cfg)))
            while data:
                data = data[os.write(w, data):]
        finally:
            os._exit(0)
    os.close(w)
    return pid, r


def _read_to_eof(fd: int) -> bytes:
    chunks = []
    while chunk := os.read(fd, 4096):
        chunks.append(chunk)
    return b"".join(chunks)


def _track_forked(specs: dict, cfg: TrackingConfig) -> dict:
    """The serial path's loops, with those around 0 and 1 tracked in
    forked children while this process tracks the loop around infinity."""
    children, sent = {}, {}
    try:
        for p in (0, 1):
            child = _fork_loop(specs[p], cfg)
            if child is not None:
                children[p] = child
        try:
            inf = track_loop(specs["inf"], cfg)
        except Exception as exc:    # raised after the loops around 0 and 1
            inf = exc
        for p, (_, fd) in children.items():
            sent[p] = _read_to_eof(fd)
    finally:
        for pid, fd in children.values():
            os.close(fd)
            os.waitpid(pid, 0)
    # a child that raised, or never started, sent nothing: track its loop
    # here, so the first error is the serial path's.  A message is far
    # shorter than PIPE_BUF, so a pipe holds all of it or none.
    loops = {p: TrackResult(*marshal.loads(sent[p])) if sent.get(p)
             else track_loop(specs[p], cfg) for p in (0, 1)}
    if isinstance(inf, Exception):
        raise inf
    loops["inf"] = inf
    return loops


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
