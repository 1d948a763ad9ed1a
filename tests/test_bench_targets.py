"""The benchmark's tracer wraps package callables by name; each must still exist.

``bench/tracing.py`` patches the functions and methods listed in its
``_targets``.  Renaming or deleting one breaks ``bench/run.py --trace 1``,
so this guard loads the tracer by path and resolves every target.  Its
``solve`` wrapper also passes the ``on_commit`` and ``on_mutation`` hooks,
and its replica-mutation wrappers count ``len()`` of what the model returns.
"""

import importlib.util
import inspect
import sys
from pathlib import Path

import numpy as np

from replicaplan import cli, costs, heuristics, model, topology, workload

TRACING = Path(__file__).resolve().parents[1] / "bench" / "tracing.py"


def test_every_traced_callable_resolves(monkeypatch):
    monkeypatch.setattr(sys, "dont_write_bytecode", True)  # leave bench/ untouched
    spec = importlib.util.spec_from_file_location("bench_tracing", TRACING)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    mods = {"topology": topology, "workload": workload, "model": model, "costs": costs,
            "heuristics": heuristics, "cli": cli}
    targets = tracing._targets(mods)
    assert targets
    for owner, attr, name in targets:
        found = owner.__dict__.get(attr) if isinstance(owner, type) else getattr(owner, attr, None)
        assert found is not None, f"{name}: {owner.__name__}.{attr} is gone"
        assert name in tracing.LAYER or name == "heuristics.solve", name


def test_solve_takes_the_traced_hooks():
    params = inspect.signature(heuristics.solve).parameters
    for hook in ("on_commit", "on_mutation"):
        assert hook in params, f"solve lost its {hook} keyword"
        assert params[hook].kind in (params[hook].POSITIONAL_OR_KEYWORD, params[hook].KEYWORD_ONLY)


def test_replica_mutations_return_the_changed_rows(micro):
    """``add_replica`` and ``remove_replica`` return the index array of rows whose nearest moved.

    The tracer adds its ``len()`` to ``model.nearest_rows_changed``.
    """
    state = micro.state()
    for mutate in (state.add_replica, state.remove_replica):
        before = state.n[:, 0].copy()
        changed = mutate(1, 0)
        assert isinstance(changed, np.ndarray) and changed.dtype.kind == "i"
        assert changed.tolist() == np.flatnonzero(state.n[:, 0] != before).tolist() == [1, 2]
