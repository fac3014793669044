"""Every name the benchmark's span recorder wraps must exist in the package.

perfbench/spans.py rebinds module attributes by name; a refactor that drops
or renames one of them would otherwise surface only in a traced benchmark run.
"""

import importlib
import importlib.util
import pathlib

SPANS = pathlib.Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"


def _load_spans():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_wrapped_names_resolve():
    for _name, module_name, attr, _hooks in _load_spans().WRAPPED:
        owner = importlib.import_module(f"movability.{module_name}")
        for part in attr.split("."):
            owner = getattr(owner, part)
        assert callable(owner), (module_name, attr)


def test_catalog_cache_is_readable():
    decide = importlib.import_module("movability.decide")
    assert isinstance(decide._CATALOG_CERT_CACHE, dict)
