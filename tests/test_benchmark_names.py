"""The benchmark's per-function metric names must name functions that exist.

``loopbench --trace 1`` reports a ``<module>.<function>.calls`` or
``.self_s`` figure only for functions it finds, so renaming or deleting a
function named in ``BENCHMARK.json`` silently drops that metric from the
benchmark's output.
"""

import importlib
import inspect
import json
from pathlib import Path

BENCHMARK = Path(__file__).resolve().parents[1] / "BENCHMARK.json"
SUFFIXES = (".calls", ".self_s")


def traced_names() -> list[str]:
    per_layer = json.loads(BENCHMARK.read_text())["per_layer"]
    return [m["name"] for m in per_layer if m["name"].endswith(SUFFIXES)]


def resolves(name: str) -> bool:
    module_name, function_name, _ = name.split(".")
    if (module_name, function_name) == ("network", "transmission"):
        from vortexao.network import DiffractiveLayer

        return inspect.isfunction(DiffractiveLayer.__dict__.get("transmission"))
    try:
        module = importlib.import_module(f"vortexao.{module_name}")
    except ImportError:
        return False
    fn = vars(module).get(function_name)
    return (
        not function_name.startswith("_")
        and inspect.isfunction(fn)
        and fn.__module__ == module.__name__
    )


def test_every_traced_name_resolves():
    names = traced_names()
    assert len(names) >= 80
    assert [name for name in names if not resolves(name)] == []
