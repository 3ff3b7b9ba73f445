"""The stream codec module and its legacy iterator operators are gone."""

import importlib

import pytest

LEGACY_OPERATORS = ("map_records", "filter_stream", "set_protocol_stream",
                    "set_do_stream", "unique_names_stream")


def test_legacy_stream_operators_removed():
    """The deprecated iterator operators (warned in 1.4) are gone with
    their module; the pipeline ops are the one definition of each
    rewrite, and no trace module re-exports the old names."""
    with pytest.raises(ImportError):
        importlib.import_module("repro.trace.stream")
    for module in ("repro.trace", "repro.trace.pipeline"):
        mod = importlib.import_module(module)
        for name in LEGACY_OPERATORS:
            assert not hasattr(mod, name), (module, name)
