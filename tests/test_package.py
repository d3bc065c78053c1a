import importlib

import pytest

import commscale

# The modules whose public names the package root re-exports.
MODULES = ("ensemble", "errors", "graphio", "meanfield", "promisegraph", "uslkit")


@pytest.mark.parametrize("name", MODULES)
def test_root_binds_each_public_name_to_the_modules_own_object(name):
    module = importlib.import_module(f"commscale.{name}")
    assert module.__all__
    for public in module.__all__:
        assert getattr(commscale, public) is getattr(module, public), f"commscale.{public}"


def test_star_import_binds_every_public_name():
    namespace: dict = {}
    exec("from commscale import *", namespace)
    wanted = {public for name in MODULES for public in importlib.import_module(f"commscale.{name}").__all__}
    assert wanted - namespace.keys() == set()
