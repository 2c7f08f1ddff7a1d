"""Deterministic instance generators: discrete causal grids and the
counterexample menagerie, at desk scale.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from typing import Sequence

from . import lattice as lat
from . import olocale as ol
from . import ospace as osp
from .errors import SlopesUnequal, ValidationError
from .lattice import bits, mask_of_iter
from .olocale import OrderedLocale
from .ospace import OrderedSpace


@dataclass(frozen=True)
class GridSpec:
    t_size: int
    x_size: int
    up_slope: Fraction = Fraction(1)
    down_slope: Fraction = Fraction(1)
    topology: str = "discrete"            # discrete | diamond_basis | codiscrete
    defects: tuple[tuple[int, int], ...] = ()

    def __post_init__(self):
        if self.t_size < 1 or self.x_size < 1:
            raise ValidationError("grid must be at least 1x1")
        if self.up_slope <= 0 or self.down_slope <= 0:
            raise ValidationError("slopes must be positive")
        for (t, x) in self.defects:
            if not (0 <= t < self.t_size and 0 <= x < self.x_size):
                raise ValidationError(f"defect {(t, x)} out of bounds")


def _grid_labels(spec: GridSpec, alive) -> list[str]:
    return [f"({t},{x})" for t in range(spec.t_size) for x in range(spec.x_size)
            if (t, x) in alive]


def _grid_points(spec: GridSpec):
    dead = set(spec.defects)
    alive = [(t, x) for t in range(spec.t_size) for x in range(spec.x_size)
             if (t, x) not in dead]
    index = {p: i for i, p in enumerate(alive)}
    return alive, index


def _cone_reaches(slope: Fraction, dt: int, dx: int) -> bool:
    return dt >= 0 and abs(dx) <= slope * dt


def minkowski_grid(spec: GridSpec) -> OrderedSpace:
    """Discrete Minkowski: (t,x) <= (t',x') iff t'>=t and |x'-x| <= slope*(t'-t).

    Removed points recompute the order as reachability through survivors
    along single-step moves (the covering relation), so defects genuinely
    break causal chains instead of keeping long-range shortcuts.
    """
    if spec.up_slope != spec.down_slope:
        raise SlopesUnequal("minkowski_grid needs equal slopes; use two_speed_grid")
    alive, index = _grid_points(spec)
    n = len(alive)
    rows = [0] * n
    if spec.defects:
        for i, (t, x) in enumerate(alive):
            for x2 in range(spec.x_size):
                if _cone_reaches(spec.up_slope, 1, x2 - x) and (t + 1, x2) in index:
                    rows[i] |= 1 << index[(t + 1, x2)]
    else:
        for i, (t, x) in enumerate(alive):
            for j, (t2, x2) in enumerate(alive):
                if _cone_reaches(spec.up_slope, t2 - t, x2 - x):
                    rows[i] |= 1 << j
    opens = _topology_for(spec, n, rows)
    name = f"M{spec.t_size}{spec.x_size}" + ("-defects" if spec.defects else "")
    return OrderedSpace.build(n, [(i, j) for i in range(n) for j in bits(rows[i])],
                              opens=opens, labels=_grid_labels(spec, set(alive)),
                              name=name)


def _topology_for(spec: GridSpec, n: int, rows) -> object:
    if spec.topology == "discrete":
        return "discrete"
    if spec.topology == "codiscrete":
        return "codiscrete"
    if spec.topology == "diamond_basis":
        closed = lat.transitive_closure_rows(list(rows))
        down = lat.transpose_rows(closed)
        gens = []
        for p in range(n):
            for q in range(n):
                gens.append(closed[p] & down[q])
        # diamond basis generates by unions only; close under both for a frame
        return lat.close_family_under_union_intersection(n, gens)
    raise ValidationError(f"unknown topology {spec.topology!r}")


def two_speed_grid(spec: GridSpec) -> OrderedLocale:
    """Grid whose future and past cones use independent slopes.

    Returns the ordered locale from the two cone monads on the discrete
    topology; parallel orderedness is expected to fail iff the slopes
    differ.
    """
    if spec.topology != "discrete":
        raise ValidationError("two_speed_grid wants the discrete topology")
    alive, _ = _grid_points(spec)
    n = len(alive)
    up_rows = [0] * n
    down_rows = [0] * n
    for i, (t, x) in enumerate(alive):
        for j, (t2, x2) in enumerate(alive):
            if _cone_reaches(spec.up_slope, t2 - t, x2 - x):
                up_rows[i] |= 1 << j
            if _cone_reaches(spec.down_slope, t - t2, x - x2):
                down_rows[i] |= 1 << j
    space = OrderedSpace.build(n, [], opens="discrete",
                               labels=_grid_labels(spec, set(alive)),
                               name=f"two_speed_{spec.t_size}x{spec.x_size}")
    pair = ol.ConePair(space.frame, lat.SubsetCone(n, 0, up_rows),
                       lat.SubsetCone(n, 0, down_rows))
    return ol.ordered_locale_from_monads(
        pair, meta={"name": f"two_speed(up={spec.up_slope},down={spec.down_slope})"})


def vertical_grid(t_size: int, x_size: int) -> OrderedSpace:
    """Columns are chains: (x,y) <= (a,b) iff x == a and y <= b."""
    pts = [(x, y) for x in range(x_size) for y in range(t_size)]
    idx = {p: i for i, p in enumerate(pts)}
    pairs = []
    for (x, y) in pts:
        if (x, y + 1) in idx:
            pairs.append((idx[(x, y)], idx[(x, y + 1)]))
    return OrderedSpace.build(len(pts), pairs, opens="discrete",
                              labels=[f"({x},{y})" for x, y in pts],
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


def grid_open(space: OrderedSpace, pts: Sequence[tuple[int, int]]) -> int:
    """Frame element for a set of (t,x) grid labels; convenience for tests."""
    wanted = {f"({t},{x})" for (t, x) in pts}
    mask = mask_of_iter(i for i, lbl in enumerate(space.labels) if lbl in wanted)
    if len(wanted) != lat.popcount(mask):
        raise ValidationError(f"unknown grid points in {pts}")
    return space.frame.id_of_mask(mask)
