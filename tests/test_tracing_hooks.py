import importlib
from pathlib import Path

BENCH = Path(__file__).resolve().parents[1] / "bench"


def test_every_bench_tracing_hook_resolves(monkeypatch):
    # bench/tracing.py times each layer by swapping wrappers in for these
    # module attributes; a name dropped from the program leaves its span
    # empty and marks every traced run incorrect
    monkeypatch.syspath_prepend(str(BENCH))
    tracing = importlib.import_module("tracing")
    missing = [
        f"{module.__name__}.{attr}"
        for module, attr, _ in tracing.HOOKS
        if not callable(getattr(module, attr, None))
    ]
    assert tracing.HOOKS and missing == []
