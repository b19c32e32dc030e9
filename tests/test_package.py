"""The package namespace: public names resolve from their home modules."""

import importlib
import types

import pytest

import swdesign


@pytest.mark.parametrize("name", swdesign.__all__)
def test_public_name_is_its_home_modules_object(name):
    obj = getattr(swdesign, name)
    home = importlib.import_module(obj.__module__)
    assert home.__name__.startswith("swdesign.")
    assert getattr(home, name) is obj
    assert name in dir(swdesign)


def test_unknown_name_is_an_attribute_error():
    with pytest.raises(AttributeError, match="no attribute 'no_such_name'"):
        swdesign.no_such_name  # noqa: B018
    assert not hasattr(swdesign, "build_model_matrices")


def test_submodules_still_import_from_the_package():
    from swdesign import search

    assert isinstance(search, types.ModuleType)
    assert search is importlib.import_module("swdesign.search")
