"""The benchmark under `perfbench/` reaches into edslab by name: its worker
imports functions from edslab modules and its tracer wraps module
attributes at their lookup sites.  A rename or removal of any of them must
fail this suite, not only the traced benchmark run."""
import ast
import importlib
import sys
from pathlib import Path

import pytest

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def worker_imports():
    """(module, name) for every `from edslab... import name` in the worker;
    name is None for a plain `import edslab...`."""
    tree = ast.parse((PERFBENCH / "worker.py").read_text())
    out = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "edslab":
            out.update((node.module, alias.name) for alias in node.names)
        elif isinstance(node, ast.Import):
            out.update((a.name, None) for a in node.names if a.name.split(".")[0] == "edslab")
    return sorted(out, key=lambda mn: (mn[0], mn[1] or ""))


def test_worker_imports_resolve():
    imports = worker_imports()
    assert ("edslab.kkt", "solve_equality_nlp") in imports  # the parse found them
    for module, name in imports:
        mod = importlib.import_module(module)
        if name is not None and not hasattr(mod, name):
            importlib.import_module(f"{module}.{name}")  # a submodule, as `import` would


@pytest.fixture
def tracer_module(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    yield importlib.import_module("tracer")
    sys.modules.pop("tracer", None)


def test_tracer_installs_and_uninstalls(tracer_module):
    import edslab.cli

    sites = {site: importlib.import_module(f"edslab.{site}") for site, _ in tracer_module.WRAP_SITES}
    wrapped = [(sites[site], attr) for site, attrs in tracer_module.WRAP_SITES for attr in attrs]
    wrapped.append((edslab.cli, "build_model"))
    before = [getattr(owner, attr) for owner, attr in wrapped]
    tracer = tracer_module.Tracer()
    try:
        tracer.install()
        for (owner, attr), original in zip(wrapped, before):
            assert getattr(owner, attr) is not original, f"{owner.__name__}.{attr} not wrapped"
    finally:
        tracer.uninstall()
    for (owner, attr), original in zip(wrapped, before):
        assert getattr(owner, attr) is original


def test_counting_oracles_wrap_every_field(tracer_module):
    # the tracer replaces every registered oracle field with a counting
    # function: each field, the stage-batched ones included, must be a plain
    # callable for a traced run to solve at all
    from edslab.kkt import solve_equality_nlp
    from edslab.models import build_model

    tracer = tracer_module.Tracer()
    bundle = tracer._counting_oracles(build_model)("lq_chain", {"n_x": 3, "n_u": 2, "N": 8})
    res = solve_equality_nlp(bundle.problem, bundle.base_data, w0=bundle.warm_start)
    assert res.converged
    counts = dict(tracer.counts)
    assert counts["problem.dynamics_jac_batch_calls"] > 0
    assert counts["problem.dynamics_batch_calls"] > 0
    # the batched forms replace the per-stage ones on the LQ chain
    assert "problem.dynamics_jac_calls" not in counts
