"""Each public name has one import path: the packages export modules."""

import importlib

import pencilpow

LIBRARY = ("conditioning", "expm", "harness", "kernels", "qrperturb", "squaring")
HARNESS = ("cli", "emit", "experiments", "generators")


def test_packages_export_modules_and_every_name_resolves():
    assert sorted(pencilpow.__all__) == sorted(("__version__",) + LIBRARY)
    assert sorted(pencilpow.harness.__all__) == sorted(HARNESS)
    for name in ("irs", "matrix_exponential"):
        assert not hasattr(pencilpow, name)
    modules = [pencilpow, pencilpow.harness]
    modules += [importlib.import_module(f"pencilpow.{name}") for name in LIBRARY]
    modules += [importlib.import_module(f"pencilpow.harness.{name}") for name in HARNESS]
    for module in modules:
        for name in getattr(module, "__all__", ()):  # cli, a script, declares none
            assert hasattr(module, name), f"{module.__name__}.{name}"
