import inspect
import sys
import time

import pytest

from qkbench import tracing


def _bindings():
    """Every attribute of every loaded qkoopman module, plus the patched __init__."""
    import qkoopman.cli  # noqa: F401
    from qkoopman import rkha

    found = {
        (name, attr): value
        for name, module in sys.modules.items()
        if name == "qkoopman" or name.startswith("qkoopman.")
        for attr, value in vars(module).items()
    }
    found[("TruncatedLattice", "__init__")] = rkha.TruncatedLattice.__init__
    return found


def test_wrappers_restored_when_unit_raises():
    before = _bindings()
    originals = {id(fn) for fn in tracing.traced_functions().values()}
    with pytest.raises(RuntimeError, match="unit failed"):
        with tracing.patched(tracing.Tracer()):
            from qkoopman import cli, dynamics

            assert cli.koopman_exact is dynamics.koopman_exact
            assert not any(id(value) in originals for value in _bindings().values())
            raise RuntimeError("unit failed")
    after = _bindings()
    assert after.keys() == before.keys()
    assert all(after[key] is before[key] for key in before)


def test_every_layer_has_traced_functions():
    layers = {key.split(".", 1)[0] for key in tracing.traced_functions()}
    assert layers == set(tracing.LAYERS)
    assert all(inspect.isfunction(fn) for fn in tracing.traced_functions().values())


def test_self_time_excludes_children():
    tracer = tracing.Tracer()

    def child():
        time.sleep(0.02)

    wrapped_child = tracer.wrap("layer.child", child)

    def parent():
        time.sleep(0.01)
        wrapped_child()
        wrapped_child()

    tracer.wrap("layer.parent", parent)()
    agg = tracer.aggregate()
    assert agg["layer.child"]["calls"] == 2
    assert agg["layer.parent"]["total"] == pytest.approx(
        agg["layer.parent"]["self"] + agg["layer.child"]["total"], abs=1e-12)
    assert 0.01 <= agg["layer.parent"]["self"] < 0.02
    assert tracer.parents[1] == 0 and tracer.parents[0] == -1


def test_counts_repeat_across_traced_runs():
    first = tracing.traced_run("koopman-forecast", 1)
    second = tracing.traced_run("koopman-forecast", 1)
    assert first["failed"] == second["failed"] == 0
    counted = [name for name in first["layer_metrics"]
               if name.endswith((".calls", ".rows", ".occupations", ".modules", ".spans"))]
    assert {"cli.import.modules", "fock.kernel_section_fock_image.occupations"} <= set(counted)
    for name in counted:
        assert first["layer_metrics"][name] == second["layer_metrics"][name], name
    assert first["layer_metrics"]["fock.kernel_section_fock_image.occupations"] > 0
