"""The package namespace: every public name of the library modules."""

import importlib

import pytest

import flipreset

# every module but the CLI; each one's __all__ lists its public names
LIBRARY_MODULES = ["config", "flip_signal", "harness", "learner", "policy", "stream"]


@pytest.mark.parametrize("module", LIBRARY_MODULES)
def test_every_public_name_of_a_library_module_is_a_package_name(module):
    mod = importlib.import_module(f"flipreset.{module}")
    missing = [name for name in mod.__all__ if getattr(flipreset, name, None) is not getattr(mod, name)]
    assert missing == []
