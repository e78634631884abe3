"""Every name a module exports in __all__ resolves on that module."""

import importlib

import pytest


@pytest.mark.parametrize(
    "module",
    [
        "gravlink",
        "gravlink.scenario",
        "gravlink.spacetime",
        "gravlink.entangleswap",
        "gravlink.cvhomodyne",
        "gravlink.fidelity",
    ],
)
def test_all_names_resolve(module):
    mod = importlib.import_module(module)
    assert [name for name in mod.__all__ if not hasattr(mod, name)] == []
    assert len(set(mod.__all__)) == len(mod.__all__)
