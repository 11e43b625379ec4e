"""Readers and transforms that the tests apply to the package's output and
check it against; no check or command of the package calls them."""

from bringcover.cells import _twist_key, polygon
from bringcover.dessins import Dessin
from bringcover.perms import from_cycles, identity

INF = complex("inf")


def parse_cycle_string(s: str, degree: int):
    """Inverse of :func:`bringcover.perms.cycle_string` for a known
    degree."""
    s = s.strip()
    if s == "()":
        return identity(degree)
    if not (s.startswith("(") and s.endswith(")")):
        raise ValueError(f"not a cycle string: {s!r}")
    cycs = []
    for chunk in s[1:-1].split(")("):
        pts = tuple(int(tok) for tok in chunk.split())
        if len(pts) < 2:
            raise ValueError(f"degenerate cycle in {s!r}")
        cycs.append(pts)
    return from_cycles(degree, cycs)


def dessin_from_text(text: str) -> Dessin:
    """Inverse of :meth:`Dessin.to_text`, the format of the dessins in the
    CLI's ``--json`` payloads."""
    lines = [ln.strip() for ln in text.strip().splitlines()]
    if len(lines) != 3:
        raise ValueError("dessin text needs exactly 3 lines")
    fields = {}
    for ln, key in zip(lines, ("darts", "sigma0", "sigma1")):
        prefix = key + ":"
        if not ln.startswith(prefix):
            raise ValueError(f"expected {prefix!r} line, got {ln!r}")
        fields[key] = ln[len(prefix):].strip()
    d = int(fields["darts"])
    return Dessin(parse_cycle_string(fields["sigma0"], d),
                  parse_cycle_string(fields["sigma1"], d))


def twist(p, diag):
    """Cut along ``diag``, flip one part, reglue: with the chord rotated
    to (0, k), the sides k..n-1 read backwards afterwards, so label order
    (z1,...,zk, z_{k+1},...,zn) becomes (z1,...,zk, zn,...,z_{k+1}).

    Chords riding inside the flipped part are reflected along; the flip
    is an exact involution on the polygon data.
    """
    diag = tuple(sorted(diag))
    if diag not in p.diags:
        raise ValueError(f"{diag} is not a diagonal of the polygon")
    return polygon(p.n, *_twist_key(p.labels, p.diags, diag))


def f_value(a: complex, b: complex) -> complex:
    """The Belyi value 256 a^5 / (256 a^5 + 3125 b^4); infinity on the
    discriminant locus."""
    if a == 0 and b == 0:
        raise ValueError("f is indeterminate at a = b = 0")
    num = 256 * a**5
    den = num + 3125 * b**4
    return INF if den == 0 else num / den
