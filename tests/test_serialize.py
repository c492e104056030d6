"""``report_dumps`` against the reference body of ``conftest.reference_dumps``.

The reference cleans the report into plain JSON types, rounding every number
with ``round15``, and hands it to ``json.dumps(sort_keys=True, indent=2)``.
``report_dumps`` must give the same bytes for every structure, and for the
report of every query of the three benchmark workloads.
"""

import importlib.util
import math
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra import numpy as hnp

from bandlim import limits, lowernorm, operators, partition, serialize, space
from bandlim.serialize import report_dumps

from conftest import reference_dumps

WORKLOADS = Path(__file__).resolve().parent.parent / "bench" / "workloads.py"

SPECIAL = [math.nan, -math.nan, math.inf, -math.inf, 0.0, -0.0, 5e-324,
           -1e-300, 1.7976931348623157e308, 0.1 + 0.2, 1e16, 123456789012345.67,
           0.931614220994691]
floats = st.one_of(st.floats(), st.sampled_from(SPECIAL))
ints = st.one_of(st.integers(-3, 3), st.integers())
texts = st.text(max_size=6)

numpy_scalars = st.one_of(
    floats.map(np.float64),
    st.floats(width=32).map(np.float32),
    st.floats(width=16).map(np.float16),
    st.integers(-2 ** 63, 2 ** 63 - 1).map(np.int64),
    st.integers(-2 ** 31, 2 ** 31 - 1).map(np.int32),
    st.integers(0, 255).map(np.uint8),
    st.booleans().map(np.bool_),
    st.complex_numbers().map(np.complex128),
    st.complex_numbers(width=64).map(np.complex64),
)
arrays = hnp.arrays(
    st.sampled_from([np.int64, np.int32, np.uint8, np.float16, np.float32,
                     np.float64, np.complex64, np.complex128, np.bool_]),
    hnp.array_shapes(min_dims=0, max_dims=2, min_side=0, max_side=4))
# the emitter's one-join paths: plain numbers, and lists of float lists
number_lists = st.one_of(
    st.lists(ints, max_size=6), st.lists(floats, max_size=6),
    st.lists(st.one_of(ints, floats), max_size=6),
    st.lists(st.lists(floats, max_size=3), max_size=4))
leaves = st.one_of(st.none(), st.booleans(), ints, floats, texts,
                   st.complex_numbers(), numpy_scalars, arrays, number_lists)
# keys that collide after str(): 1 and "1", None and "None", 1.5 and "1.5"
keys = st.one_of(texts, st.integers(-2, 2), st.none(), st.just(1.5),
                 st.sampled_from(["1", "-1", "None", "1.5", "True", "é"]))
reports = st.recursive(
    leaves,
    lambda inner: st.one_of(st.lists(inner, max_size=4),
                            st.lists(inner, max_size=4).map(tuple),
                            st.dictionaries(keys, inner, max_size=4)),
    max_leaves=25)


class TestReportDumps:
    @settings(max_examples=400, deadline=None)
    @given(reports)
    def test_matches_reference(self, obj):
        assert report_dumps(obj) == reference_dumps(obj)

    def test_fixed_cases(self):
        cases = [
            {"nan": math.nan, "inf": [math.inf, -math.inf], "zero": -0.0},
            {1: "a", "1": "b", 2: [], "2": {}},
            {"text": "ü\x00\"\\\n", "ñ": None, "t": (True, False)},
            np.array([1 + 2j, -0.0 - 0.0j, complex(math.nan, math.inf)]),
            np.array([[1.5, -0.0], [math.nan, 2.0]]),
            np.zeros((0, 3)), np.zeros((3, 0)), np.float64(0.1 + 0.2),
            np.array(7), [np.int64(3), np.bool_(True), np.float32(0.1)],
            [], {}, "", 0, None,
        ]
        for obj in cases:
            assert report_dumps(obj) == reference_dumps(obj)

    def test_last_colliding_key_wins(self):
        assert report_dumps({1: 1, "1": 2}) == '{\n  "1": 2\n}\n'
        assert report_dumps({"1": 2, 1: 1}) == '{\n  "1": 1\n}\n'

    def test_unknown_type_raises_type_error(self):
        for obj in ({1, 2}, {"a": [object()]}, np.array([{1}], dtype=object)):
            with pytest.raises(TypeError):
                reference_dumps(obj)
            with pytest.raises(TypeError):
                report_dumps(obj)


class TestFloatTexts:
    def test_equal_values_of_other_types_share_a_text(self):
        # these meet as equal keys of the per-body text cache
        x32 = np.float32(0.1)
        obj = [x32, float(x32), 0.1, -0.0, 0.0, np.float64(-0.0), math.nan,
               np.float64(math.nan), complex(0.0, -0.0), np.array([-0.0, 0.0])]
        assert report_dumps(obj) == reference_dumps(obj)

    def test_cache_lasts_one_body(self):
        report_dumps([0.5, 0.25, 0.5])
        assert serialize._float_text.cache_info().currsize == 0
        with pytest.raises(TypeError):
            report_dumps([0.5, {1}])
        assert serialize._float_text.cache_info().currsize == 0


def load_workloads():
    spec = importlib.util.spec_from_file_location("bench_workloads", WORKLOADS)
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod


@pytest.mark.parametrize("name", ["spectrum", "localize", "partition"])
def test_workload_report_bodies_match_reference(name):
    """One pass of a benchmark workload at its tiny size, seed 7."""
    wl = load_workloads()
    bl = SimpleNamespace(space=space, operators=operators, limits=limits,
                         lowernorm=lowernorm, partition=partition,
                         serialize=serialize)
    inputs, setup, make_queries = wl.WORKLOADS[name]
    inp = inputs(np.random.default_rng(7), wl.SIZES["tiny"][name])
    state = {}
    for q in make_queries(bl, setup(bl, inp), inp):
        if q.expect is None:
            state[q.name] = q.call(state)
        else:
            with pytest.raises(q.expect) as raised:
                q.call(state)
            state[q.name] = raised.value
        report = q.report(state[q.name])
        assert report_dumps(report) == reference_dumps(report), q.name
