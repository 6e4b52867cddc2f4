import importlib
import importlib.util
from pathlib import Path

import boolinv

SPANS = Path(__file__).resolve().parent.parent / "perfbench" / "spans.py"


def test_every_tracer_target_resolves():
    # a span on a function that is gone breaks `perfbench/run.py --trace 1`
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    for name, module, attr, scope in spans.TARGETS:
        target = importlib.import_module(module)
        for part in attr.split("."):
            target = getattr(target, part)
        assert callable(target), name
        # a "package" span fires only where the `boolinv` namespace binds it
        assert scope == "all" or getattr(boolinv, attr) is target, name
