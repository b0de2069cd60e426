import importlib.util
from pathlib import Path

import pytest

import dynca
from dynca import (AckermannTable, AdaptiveLinkForest, Forest, IncrementalTree,
                   LinkForest, StaticCa, edmonds_tree, linear_tree, oracle_ca)


def test_public_names_resolve():
    for name in dynca.__all__:
        assert hasattr(dynca, name), name
    ns = {}
    exec("from dynca import *", ns)
    assert set(dynca.__all__) <= set(ns)


def test_tracer_wraps_resolve():
    """Every name the benchmark's tracer wraps is bound where it looks.

    The tracer replaces module and class attributes in place, so a name
    that moves or goes unbound breaks the traced run, not the engines.
    """
    path = Path(__file__).resolve().parents[1] / "bench" / "tracing.py"
    if not path.is_file():
        pytest.skip("no bench/tracing.py beside the tests")
    spec = importlib.util.spec_from_file_location("bench_tracing", path)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    tracer = tracing.Tracer()
    try:
        tracer.install(dynca)  # reads owner.__dict__[name] for each wrap
        wrapped = {(owner.__name__, name) for owner, name, _ in tracer._undo}
    finally:
        tracer.uninstall()
    assert ("dynca.incremental", "assign_numbers") in wrapped
    assert ("dynca.incremental", "combine_rerooted") in wrapped
    assert dynca.incremental.assign_numbers is dynca.fat_preorder.assign_numbers


def _forest():
    f = Forest()
    f.make_node()
    f.add_leaf(0, f.make_node())
    return f


def _oracle():
    f = _forest()
    return lambda x, y: oracle_ca(f, x, y)


def _grown(make):
    t = make(8)
    t.add_leaf(0)
    return t.ca


def _linked(t):
    t.make_node()
    t.make_node()
    t.link(0, 1)
    return t.ca


ENGINES = {
    "oracle": _oracle,
    "static": lambda: StaticCa(_forest()).ca,
    "inc": lambda: _grown(IncrementalTree),
    "inc-log2": lambda: _grown(edmonds_tree),
    "inc-linear": lambda: _grown(linear_tree),
    "link-fixed": lambda: _linked(LinkForest(1, AckermannTable(8), 8)),
    "link": lambda: _linked(AdaptiveLinkForest(8)),
}


class Id(int):
    pass


@pytest.mark.parametrize("engine", sorted(ENGINES))
def test_bool_ids_rejected(engine):
    ca = ENGINES[engine]()
    with pytest.raises(ValueError):
        ca(True, 1)
    with pytest.raises(ValueError):
        ca(0, False)
    # other int subclasses stay valid ids
    assert ca(Id(1), Id(0)) == ca(1, 0) == (0, 1, 0)
