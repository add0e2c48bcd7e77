"""Every name that a module exports must exist, so a rename cannot leave a
stale entry in ``__all__`` behind."""

import importlib

import pytest

MODULES = ["cli", "forward", "kernels", "lifting", "recovery", "signals",
           "synthesis"]


@pytest.mark.parametrize("name", MODULES)
def test_every_exported_name_resolves(name):
    module = importlib.import_module(f"liftphase.{name}")
    missing = [attr for attr in module.__all__ if not hasattr(module, attr)]
    assert missing == []
