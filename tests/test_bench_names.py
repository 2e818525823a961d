"""The benchmark's per-function metric names resolve to package functions.

``bench/run.py`` (its ``NAMED_LAYER_METRICS``) and ``BENCHMARK.json`` (its
``per_layer`` list) name metrics ``<module>.<function>.<kind>``.  The bench
tracer wraps only the functions exported by ``cebound`` and ``cebound.cli.main``,
so a named function that leaves the exports or moves to another module stops
being traced.  The names are read from the files as text: nothing under
``bench/`` is imported.
"""

import ast
import json
import types
from pathlib import Path

import cebound
from cebound import cli

ROOT = Path(__file__).resolve().parent.parent


def _named_layer_metrics() -> list:
    """The string literals of the NAMED_LAYER_METRICS tuple in bench/run.py."""
    tree = ast.parse((ROOT / "bench" / "run.py").read_text())
    for node in ast.walk(tree):
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "NAMED_LAYER_METRICS" for t in node.targets
        ):
            return [e.value for e in node.value.elts if isinstance(e, ast.Constant)]
    raise AssertionError("bench/run.py defines no NAMED_LAYER_METRICS")


def _traced_functions() -> list:
    """Every <module>.<function> a metric names; the lapack.* and trace.* names
    and the <layer>.self_ms totals name no package function."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = _named_layer_metrics() + [m["name"] for m in spec["per_layer"]]
    spans = {name.rsplit(".", 1)[0] for name in names}
    return sorted(
        span for span in spans if "." in span and span.split(".")[0] not in ("lapack", "trace")
    )


def test_bench_metric_names_are_exported_functions():
    spans = _traced_functions()
    assert len(spans) >= 10, spans
    for span in spans:
        module, function = span.split(".")
        target = cli.main if span == "cli.main" else getattr(cebound, function, None)
        assert isinstance(target, types.FunctionType), f"{span} is not exported by cebound"
        assert target.__module__ == f"cebound.{module}", span
