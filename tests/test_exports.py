import importlib

import pytest

import kunits

LAYERS = ["arith", "unitgroup", "solver", "classify", "bfile", "cli"]


def test_package_names_resolve():
    for name in kunits.__all__:
        assert hasattr(kunits, name), name


@pytest.mark.parametrize("layer", LAYERS)
def test_layer_names_resolve_and_are_reexported(layer):
    module = importlib.import_module(f"kunits.{layer}")
    for name in module.__all__:
        obj = getattr(module, name)
        if layer == "cli" and name == "main":
            continue  # the console entry point, not library API
        assert name in kunits.__all__, f"kunits.{layer}.{name} is not re-exported"
        assert getattr(kunits, name) is obj, name
