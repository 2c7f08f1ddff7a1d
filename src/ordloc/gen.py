"""Deterministic instance generators: discrete causal grids and the
counterexample menagerie, at desk scale.

A Minkowski grid carries one of three topologies: `discrete` (every set
of points open, served by `lattice.powerset_frame` without listing a
mask), `codiscrete` (only the empty set and the whole grid), or
`diamond_basis`, the Alexandrov topology generated by the causal
diamonds.  On a grid the last is the discrete topology (the lemma is in
`minkowski_grid`), so it is built as such.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache

from . import lattice as lat
from . import olocale as ol
from . import ospace as osp
from .errors import SlopesUnequal, ValidationError
from .lattice import mask_of_iter
from .olocale import OrderedLocale
from .ospace import OrderedSpace


class GridSpec(lat.Value):
    __slots__ = ("t_size", "x_size", "up_slope", "down_slope", "topology", "defects")

    def __init__(self, t_size: int, x_size: int, up_slope: Fraction = Fraction(1),
                 down_slope: Fraction = Fraction(1), topology: str = "discrete",
                 defects: tuple[tuple[int, int], ...] = ()):
        if t_size < 1 or x_size < 1:
            raise ValidationError("grid must be at least 1x1")
        if up_slope <= 0 or down_slope <= 0:
            raise ValidationError("slopes must be positive")
        if topology not in ("discrete", "diamond_basis", "codiscrete"):
            raise ValidationError(f"unknown topology {topology!r}")
        for (t, x) in defects:
            if not (0 <= t < t_size and 0 <= x < x_size):
                raise ValidationError(f"defect {(t, x)} out of bounds")
        self.t_size = t_size
        self.x_size = x_size
        self.up_slope = up_slope
        self.down_slope = down_slope
        self.topology = topology
        self.defects = defects


def _grid_rows(spec: GridSpec, slope: Fraction, steps) -> tuple[list[int], list[str]]:
    """Band rows of the grid's alive points, and their labels.

    Row (t, x) holds (t + d, x') for each d in `steps` with |x' - x| q <= p d,
    (p, q) the slope's `as_integer_ratio()`, i.e. |x' - x| <= floor(p d / q).
    Point (t, x) sits at bit t X + x of the full T x X grid, so row (0, x) is
    the OR over d of one interval mask per time row, the 2r + 1 bits of the
    band shifted up by x and down by r (r = floor(p d / q), capped at X) and
    cut to the row, and row (t, x) is row (0, x) shifted by t X and cut at
    the grid's end.  Each dead position is then squeezed out of every row
    (the bits above it move down by one), and its own row dropped: the rows
    restricted to the alive points.
    """
    t_size, x_size = spec.t_size, spec.x_size
    p, q = slope.as_integer_ratio()
    line = (1 << x_size) - 1
    first = [0] * x_size
    for d in steps:
        r = min(p * d // q, x_size)
        band, at = (2 << 2 * r) - 1, d * x_size
        first = [row | (band << x >> r & line) << at for x, row in enumerate(first)]
    full = (1 << t_size * x_size) - 1
    rows = [r << t * x_size & full for t in range(t_size) for r in first]
    labels = [f"({t},{x})" for t in range(t_size) for x in range(x_size)]
    if spec.defects:
        dead = sorted({t * x_size + x for t, x in spec.defects}, reverse=True)
        for i in dead:
            del rows[i], labels[i]
        for i in dead:
            low = (1 << i) - 1
            rows = [r & low | r >> 1 & ~low for r in rows]
    return rows, labels


def minkowski_grid(spec: GridSpec) -> OrderedSpace:
    """Discrete Minkowski: (t,x) <= (t',x') iff t'>=t and |x'-x| <= slope*(t'-t).

    Removed points recompute the order as reachability through survivors
    along single-step moves (the covering relation), so defects genuinely
    break causal chains instead of keeping long-range shortcuts.

    Lemma: the rows are band masks (`_grid_rows`).  (t, x) <= (t', x')
    depends only on (t' - t, x' - x), so row (t, x) is row (0, x) shifted by
    t X and cut at the grid's end.  Without defects the cone relation is
    reflexive (d = 0) and transitive (|dx| q <= p d and |dx'| q <= p e give
    |dx + dx'| q <= p (d + e)), so the band rows are closed.  With defects
    the rows are the single steps (d = 1, reach floor(p / q)); squeezing
    the dead positions out removes every step into or out of a dead point,
    and `lattice.transitive_closure_rows` closes the steps between alive
    points.

    Lemma: `diamond_basis` is the discrete topology.  A diamond
    up(a) & down(b) holds p iff a <= p <= b, and then it contains
    up(p) & down(p); so the least open holding p is N(p) = up(p) & down(p),
    the class of p.  The grid order is antisymmetric, defects or not:
    (t, x) <= (t', x') for distinct points needs t' > t, as equal t forces
    equal x.  So every N(p) is {p}, and every set of points is open.
    """
    if spec.up_slope != spec.down_slope:
        raise SlopesUnequal("minkowski_grid needs equal slopes; use two_speed_grid")
    rows, labels = _grid_rows(spec, spec.up_slope, (1,) if spec.defects else range(spec.t_size))
    if spec.defects:
        rows = lat.transitive_closure_rows(rows)
    n = len(rows)
    name = f"M{spec.t_size}{spec.x_size}" + ("-defects" if spec.defects else "")
    opens = "codiscrete" if spec.topology == "codiscrete" else "discrete"
    return OrderedSpace(n, rows, osp.topology(n, opens, labels), labels=labels, name=name)


def two_speed_grid(spec: GridSpec) -> OrderedLocale:
    """Grid whose future and past cones use independent slopes.

    Returns the ordered locale from the two cone monads on the discrete
    topology; parallel orderedness is expected to fail iff the slopes
    differ.  The future rows are the band rows at the up slope, the past
    rows the transpose of the band rows at the down slope (`_grid_rows`).
    """
    if spec.topology != "discrete":
        raise ValidationError("two_speed_grid wants the discrete topology")
    up_rows, labels = _grid_rows(spec, spec.up_slope, range(spec.t_size))
    down_rows = lat.transpose_rows(_grid_rows(spec, spec.down_slope, range(spec.t_size))[0])
    n = len(up_rows)
    space = OrderedSpace.build(n, [], opens="discrete", labels=labels,
                               name=f"two_speed_{spec.t_size}x{spec.x_size}")
    pair = ol.ConePair(space.frame, lat.SubsetCone(n, 0, up_rows),
                       lat.SubsetCone(n, 0, down_rows))
    return ol.ordered_locale_from_monads(
        pair, meta={"name": f"two_speed(up={spec.up_slope},down={spec.down_slope})"})


def vertical_grid(t_size: int, x_size: int) -> OrderedSpace:
    """Columns are chains: (x,y) <= (a,b) iff x == a and y <= b.  Point
    (x, y) sits at bit x T + y, so its row is bits y..T-1 of column x,
    written down closed."""
    t = t_size
    rows = [((1 << t) - (1 << y)) << x * t for x in range(x_size) for y in range(t)]
    labels = [f"({x},{y})" for x in range(x_size) for y in range(t)]
    n = len(rows)
    return OrderedSpace(n, rows, osp.topology(n, "discrete", labels), labels=labels,
                        name=f"vertical{x_size}x{t_size}")


def non_OC_example() -> OrderedSpace:
    """Finite stand-in for the line-with-hanging-point space without open cones.

    Base {*, a, 0, b}; only opens are {}, {*}, {a,0,b} and everything;
    order generated by * <= 0.  The up cone of {*} is {*, 0}, not open.
    """
    def m(*p):
        return mask_of_iter(p)
    return OrderedSpace.build(
        4, [(0, 2)],
        opens=[0, m(0), m(1, 2, 3), m(0, 1, 2, 3)],
        labels=["*", "a", "0", "b"], name="non_OC")


def bowtie() -> OrderedSpace:
    """Four points z <= x,y <= t with the seven 'bowtie' opens.

    Finite analogue of removing a point from Minkowski space: x and y are
    order-incomparable yet no open cone separates them, so the space has
    open cones and is sober but is not T0-ordered.
    """
    def m(*p):
        return mask_of_iter(p)
    return OrderedSpace.build(
        4, [(0, 1), (0, 2), (1, 3), (2, 3)],
        opens=[0, m(0), m(3), m(0, 3), m(0, 1, 3), m(0, 2, 3), m(0, 1, 2, 3)],
        labels=["z", "x", "y", "t"], name="bowtie")


def codiscrete_pair() -> OrderedSpace:
    return OrderedSpace.build(2, [], opens="codiscrete",
                              labels=["0", "1"], name="codiscrete2")


def discrete_pair() -> OrderedSpace:
    return OrderedSpace.build(2, [], opens="discrete",
                              labels=["0", "1"], name="discrete2")


def total_order_triple() -> OrderedSpace:
    return OrderedSpace.build(3, [(0, 1), (1, 2)], opens="discrete",
                              labels=["0", "1", "2"], name="total3")


def chain_topology_triple() -> OrderedSpace:
    """3 points with the chain topology and equality order."""
    return OrderedSpace.build(3, [], opens=[0, 1, 3, 7],
                              labels=["0", "1", "2"], name="chain3")


def punctured_lightcone() -> OrderedSpace:
    """3x3 grid minus its centre, order rebuilt from single-step moves."""
    return minkowski_grid(GridSpec(3, 3, defects=((1, 1),)))


@lru_cache(maxsize=None)
def standard_suite() -> tuple[tuple[str, object], ...]:
    """The deterministic catalogue of named instances (12 entries)."""
    return (
        ("m22", minkowski_grid(GridSpec(2, 2))),
        ("m33", minkowski_grid(GridSpec(3, 3))),
        ("m44", minkowski_grid(GridSpec(4, 4))),
        ("vertical33", vertical_grid(3, 3)),
        ("two_speed_2x3", two_speed_grid(GridSpec(2, 3, Fraction(1), Fraction(2)))),
        ("non_oc", non_OC_example()),
        ("bowtie", bowtie()),
        ("codiscrete2", codiscrete_pair()),
        ("discrete2", discrete_pair()),
        ("total3", total_order_triple()),
        ("chain3", chain_topology_triple()),
        ("punctured_lightcone", punctured_lightcone()),
    )


@lru_cache(maxsize=None)
def suite_instance(name: str):
    for k, v in standard_suite():
        if k == name:
            return v
    raise KeyError(name)


@lru_cache(maxsize=None)
def em_locale(name: str) -> OrderedLocale:
    """Cached Egli-Milner locale of a suite space."""
    inst = suite_instance(name)
    if isinstance(inst, OrderedLocale):
        return inst
    return osp.induced_locale(inst, "em")
