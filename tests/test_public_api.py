"""Public API hygiene: exports resolve, everything public is documented."""

import importlib
import inspect

import pytest

PACKAGES = [
    "repro",
    "repro.sim",
    "repro.cluster",
    "repro.mpisim",
    "repro.graph",
    "repro.nanos",
    "repro.dlb",
    "repro.balance",
    "repro.apps",
    "repro.apps.micropp",
    "repro.apps.nbody",
    "repro.metrics",
    "repro.experiments",
    "repro.policies",
    "repro.validate",
    "repro.campaign",
    "repro.jobs",
]


@pytest.mark.parametrize("name", PACKAGES)
class TestExports:
    def test_all_entries_resolve(self, name):
        module = importlib.import_module(name)
        for entry in getattr(module, "__all__", []):
            assert hasattr(module, entry), f"{name}.__all__ lists {entry}"

    def test_module_documented(self, name):
        module = importlib.import_module(name)
        assert module.__doc__, f"{name} lacks a module docstring"

    def test_public_classes_and_functions_documented(self, name):
        module = importlib.import_module(name)
        for entry in getattr(module, "__all__", []):
            obj = getattr(module, entry)
            if inspect.isclass(obj) or inspect.isfunction(obj):
                assert obj.__doc__, f"{name}.{entry} lacks a docstring"

    def test_public_methods_documented(self, name):
        module = importlib.import_module(name)
        for entry in getattr(module, "__all__", []):
            obj = getattr(module, entry)
            if not inspect.isclass(obj):
                continue
            for method_name, method in vars(obj).items():
                if method_name.startswith("_"):
                    continue
                if inspect.isfunction(method):
                    assert method.__doc__, \
                        f"{name}.{entry}.{method_name} lacks a docstring"


class TestTopLevel:
    def test_version(self):
        import repro
        assert repro.__version__

    def test_headline_objects_importable_from_root(self):
        from repro import (AccessType, ClusterRuntime, ClusterSpec,
                           DataAccess, MARENOSTRUM4, RuntimeConfig)
        assert ClusterRuntime and RuntimeConfig and ClusterSpec
        assert MARENOSTRUM4.cores_per_node == 48
        assert AccessType("inout").reads and DataAccess

    def test_validation_error_importable_from_root(self):
        import repro
        from repro.validate import ValidationError
        assert repro.ValidationError is ValidationError
        assert "ValidationError" in repro.__all__
        assert issubclass(ValidationError, repro.ReproError)
