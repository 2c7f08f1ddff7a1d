import pytest

from ordloc import gen, olocale as O
from ordloc.errors import OrdlocError


@pytest.fixture(scope="session")
def m22():
    return gen.suite_instance("m22")


@pytest.fixture(scope="session")
def m33():
    return gen.suite_instance("m33")


@pytest.fixture(scope="session")
def bowtie():
    return gen.suite_instance("bowtie")


@pytest.fixture(scope="session")
def non_oc():
    return gen.suite_instance("non_oc")


@pytest.fixture(scope="session")
def loc22():
    return gen.em_locale("m22")


@pytest.fixture(scope="session")
def loc33():
    return gen.em_locale("m33")


def grid(space, *pts):
    """Frame element for grid points given as (t, x) tuples."""
    return gen.grid_open(space, list(pts))


def rows_locale(frame, rows):
    """An ordered locale on explicit relation rows, taken as they are."""
    up, down = O.cones_from_rows(frame, rows)
    return O.OrderedLocale(frame, up_map=up, down_map=down, rel_rows=rows)


def count_calls(monkeypatch, targets) -> dict:
    """Patch each (module, name) in targets to count its calls by name."""
    calls = dict.fromkeys((name for _, name in targets), 0)

    def counted(name, fn):
        def call(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)
        return call

    for module, name in targets:
        monkeypatch.setattr(module, name, counted(name, getattr(module, name)))
    return calls


def report_outcome(fn, olx):
    """A check's report as (verdict, witness, note, details), or its
    refusal as (type, message)."""
    try:
        rep = fn(olx)
    except OrdlocError as e:
        return type(e).__name__, str(e)
    return rep.verdict, rep.witness, rep.note, getattr(rep, "details", None)
