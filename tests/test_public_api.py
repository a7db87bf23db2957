"""Every name a ``repro`` package lists in ``__all__`` must resolve.

A deleted function whose re-export stays behind breaks
``from repro.<package> import *`` and every caller of the stale name, and
no other test imports each exported name.
"""

import importlib
import pkgutil

import pytest

import repro


def _packages():
    names = ["repro"]
    for info in pkgutil.walk_packages(repro.__path__, "repro."):
        if info.ispkg:
            names.append(info.name)
    return names


@pytest.mark.parametrize("package", _packages())
def test_all_names_resolve(package):
    module = importlib.import_module(package)
    exported = list(getattr(module, "__all__", ()))
    assert len(set(exported)) == len(exported), "duplicate __all__ entry"
    missing = [name for name in exported if not hasattr(module, name)]
    assert missing == []
