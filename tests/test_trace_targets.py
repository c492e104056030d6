"""The benchmark's span tracer names functions of ``bandlim`` by attribute.

``bench/spans.py`` wraps each entry of its ``TARGETS`` list with ``getattr``;
a renamed or deleted function would only fail a traced benchmark run.  This
test resolves every entry against the package instead.
"""

import importlib
import importlib.util
from pathlib import Path

SPANS = Path(__file__).resolve().parent.parent / "bench" / "spans.py"


def load_spans():
    spec = importlib.util.spec_from_file_location("bench_spans", SPANS)
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod


def test_every_traced_name_resolves():
    missing = []
    for layer, attr, *_ in load_spans().TARGETS:
        mod = importlib.import_module(f"bandlim.{layer}")
        if "." in attr:
            # wrapped at the class, from the class's own namespace
            cls_name, meth = attr.split(".")
            cls = getattr(mod, cls_name, None)
            found = cls is not None and callable(vars(cls).get(meth))
        else:
            found = callable(getattr(mod, attr, None))
        if not found:
            missing.append(f"{layer}.{attr}")
    assert not missing
