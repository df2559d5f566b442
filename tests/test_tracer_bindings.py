"""The benchmark's span tracer (perfbench/spans.py) wraps modop functions
by module and name.  Untraced runs never read those names, so a rename
or deletion in modop would only show in a traced run; this checks every
binding here instead."""

import importlib
import importlib.util
import os

_SPANS = os.path.join(
    os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "perfbench", "spans.py"
)


def test_tracer_layers_resolve():
    spec = importlib.util.spec_from_file_location("modop_tracer_spans", _SPANS)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    bindings = [(module, attr) for entries in spans.LAYERS.values() for module, attr, _ in entries]
    bindings.append(("modop.experiments", "_run_tasks"))
    missing = [
        (module, attr)
        for module, attr in bindings
        if not callable(getattr(importlib.import_module(module), attr, None))
    ]
    assert missing == []
