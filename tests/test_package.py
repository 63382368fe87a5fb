"""The public surface: every exported name exists."""

import importlib

import pytest

MODULES = ["nsgl", "nsgl.grid", "nsgl.operators", "nsgl.noise", "nsgl.stepper",
           "nsgl.diagnostics", "nsgl.experiments", "nsgl.checks", "nsgl.io_cli"]


@pytest.mark.parametrize("name", MODULES)
def test_every_exported_name_resolves(name):
    module = importlib.import_module(name)
    assert len(set(module.__all__)) == len(module.__all__)
    missing = [attr for attr in module.__all__ if not hasattr(module, attr)]
    assert missing == []
