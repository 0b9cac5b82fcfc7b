from __future__ import annotations

import lemgap
from lemgap import engine, formula, gap, oracle

_MODULES = (formula, oracle, engine, gap)


def test_package_exports_each_modules_public_names():
    names = [name for module in _MODULES for name in module.__all__]
    assert lemgap.__all__ == names
    assert len(set(names)) == len(names)
    for module in _MODULES:
        for name in module.__all__:
            assert getattr(lemgap, name) is getattr(module, name)
