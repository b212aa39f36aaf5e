"""The package root: each public name has one import path, its module."""

import types

import svcache


def test_root_binds_only_version_and_submodules():
    assert isinstance(svcache.__version__, str)
    for name, value in vars(svcache).items():
        if not name.startswith("_"):
            assert isinstance(value, types.ModuleType), name
            assert value.__name__ == f"svcache.{name}"
