"""Definitional oracles the tests compare the library against.

Each one scans the definition directly (all subsets, or all pairs or
triples of elements), so it is slow and only used on small frames.
"""

from ordloc.errors import ValidationError
from ordloc.lattice import FiniteFrame, bits


def all_ideals_bruteforce(frame: FiniteFrame) -> list[int]:
    """All ideals by scanning every subset; test oracle for small frames."""
    if frame.m > 20:
        raise ValidationError("brute force ideal scan capped at 20 elements")
    out = []
    for s in range(1, 1 << frame.m):
        members = list(bits(s))
        if frame.bottom not in members:
            continue
        ok = all(s >> frame.join(a, b) & 1 for a in members for b in members)
        if ok:
            ok = all(frame.down_row(x) & ~s == 0 for x in members)
        if ok:
            out.append(s)
    return out


def primes_by_definition(frame: FiniteFrame) -> list[int]:
    """Primes via the defining quantifier; oracle, O(m^3)."""
    out = []
    for p in frame.elements():
        if p == frame.top:
            continue
        if all(not frame.leq(frame.meet(a, b), p) or frame.leq(a, p) or frame.leq(b, p)
               for a in frame.elements() for b in frame.elements()):
            out.append(p)
    return out


def coprimes_by_definition(frame: FiniteFrame) -> list[int]:
    out = []
    for d in frame.elements():
        if d == frame.bottom:
            continue
        if all(not frame.leq(d, frame.join(a, b)) or frame.leq(d, a) or frame.leq(d, b)
               for a in frame.elements() for b in frame.elements()):
            out.append(d)
    return out


def is_completely_prime_filter(frame: FiniteFrame, filt: int) -> bool:
    """Filter axioms (F0)-(F4), checked directly; test oracle."""
    members = [u for u in frame.elements() if filt >> u & 1]
    if frame.top not in members or frame.bottom in members:
        return False
    mem = set(members)
    for u in members:
        for v in members:
            if frame.meet(u, v) not in mem:
                return False
        for v in frame.elements():
            if frame.leq(u, v) and v not in mem:
                return False
    # inaccessibility by joins on the binary level (finite: sufficient)
    for u in frame.elements():
        for v in frame.elements():
            if frame.join(u, v) in mem and u not in mem and v not in mem:
                return False
    return True
