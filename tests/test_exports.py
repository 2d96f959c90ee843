"""The package's public names are declared once, in their modules' ``__all__``.

``oscbath`` star-imports each module, so a name in two modules' lists would
be silently shadowed by the later import.
"""

import importlib

import oscbath

MODULES = [importlib.import_module(f"oscbath.{name}")
           for name in ("errors", "model", "dynamics", "measures", "sweep")]


def test_no_name_in_two_modules():
    owner = {}
    for module in MODULES:
        for name in module.__all__:
            assert name not in owner, f"{name} in {owner[name]} and {module.__name__}"
            owner[name] = module.__name__


def test_package_exports_every_module_name_once():
    assert len(oscbath.__all__) == len(set(oscbath.__all__))
    assert oscbath.__all__ == ["__version__"] + [
        name for module in MODULES for name in module.__all__]


def test_each_export_is_its_modules_object():
    for module in MODULES:
        for name in module.__all__:
            assert getattr(oscbath, name) is getattr(module, name), name
