"""The benchmark tracer wraps library functions by name; every name it
looks up must exist and be put back afterwards. This fails in tier-1 when a
refactor removes or renames a traced function."""

import os
import sys

sys.path.insert(0, os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                                "perfbench"))

import probe  # noqa: E402


def test_every_patch_point_resolves_and_is_restored():
    points = probe.patch_points()  # a missing name raises KeyError here
    assert points
    originals = {(owner, name): owner.__dict__[name] for owner, name in points}

    patcher = probe.Patcher()
    probe.Clock().install(patcher)
    probe.Tracer().install(patcher)
    try:
        wrapped = [key for key, fn in originals.items() if key[0].__dict__[key[1]] is not fn]
        assert wrapped, "installing the hooks replaced nothing"
    finally:
        patcher.restore()
    leaked = [name for (owner, name), fn in originals.items() if owner.__dict__[name] is not fn]
    assert not leaked
