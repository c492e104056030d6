"""``report_dumps`` against the reference body of ``conftest.reference_dumps``.

The reference cleans the report into plain JSON types, rounding every number
with ``round15``, and hands it to ``json.dumps(sort_keys=True, indent=2)``.
``report_dumps`` must give the same bytes for every structure, and for the
report of every query of the three benchmark workloads.  The ``to_json``
methods hand raw values to ``report_dumps``; ``conftest.REFERENCE_JSON``
keeps the structures they built when they rounded every number themselves,
and both must give the same body.
"""

import importlib.util
import math
import sys
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra import numpy as hnp

from bandlim import limits, lowernorm, operators, partition, serialize, space
from bandlim.serialize import KeyedRows, report_dumps

from conftest import REFERENCE_JSON, reference_dumps

WORKLOADS = Path(__file__).resolve().parent.parent / "bench" / "workloads.py"
# the result types with a to_json in one pass of each workload
WORKLOAD_RESULTS = {
    "spectrum": {"LimitWindow", "NuReport"},
    "localize": {"NuReport"},
    "partition": {"PPartition", "Sparsification"},
}

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


# keys of one to three digits and negative ones, so that string order is not
# numeric order: "10" < "100" < "9"
row_keys = st.lists(st.one_of(st.integers(0, 9), st.integers(10, 99),
                              st.integers(100, 999), st.integers(-99, -1)),
                    unique=True, max_size=12)
row_floats = st.one_of(floats, st.floats(1e15, 1e16, exclude_max=True),
                       st.floats(-1e-308, 1e-308))
row_dtypes = {
    np.float64: row_floats,
    np.complex128: st.builds(complex, row_floats, row_floats),
    np.int64: st.integers(-2 ** 63, 2 ** 63 - 1),
}


class TestKeyedRows:
    """A KeyedRows block against its dict form {int(key): row}."""

    @settings(max_examples=300, deadline=None)
    @given(st.data())
    def test_matches_dict_form(self, data):
        keys = data.draw(row_keys)
        dtype = data.draw(st.sampled_from(list(row_dtypes)))
        shape = (len(keys), data.draw(st.integers(1, 3)))
        values = data.draw(hnp.arrays(dtype, shape, elements=row_dtypes[dtype]))
        block = {"w": KeyedRows(np.array(keys, dtype=np.int64), values)}
        as_dict = {"w": {int(k): values[i] for i, k in enumerate(keys)}}
        text = report_dumps(block)
        assert text == report_dumps(as_dict)
        assert text == reference_dumps(as_dict) == reference_dumps(block)

    def test_empty_and_zero_width_rows(self):
        assert report_dumps(KeyedRows([], np.zeros((0, 2)))) == "{}\n"
        assert report_dumps({"w": KeyedRows([], np.zeros((0, 1), complex))}) \
            == '{\n  "w": {}\n}\n'
        block = KeyedRows([10, 9], np.zeros((2, 0)))
        assert report_dumps(block) == report_dumps({10: np.zeros(0), 9: np.zeros(0)})

    @pytest.mark.parametrize("keys, values", [
        ([3, 1, 3], np.zeros((3, 1))),       # duplicate keys
        ([1.0, 2.0], np.zeros((2, 1))),      # keys that are not ints
        ([1, 2], np.zeros(2)),               # rows that are not an array's
        ([1, 2], np.zeros((3, 1))),          # more rows than keys
        ([1, 2], np.array([["a"], ["b"]])),  # rows that are not numbers
    ])
    def test_malformed_blocks_raise(self, keys, values):
        with pytest.raises(ValueError):
            KeyedRows(keys, values)


class TestFloatTexts:
    def test_equal_values_of_other_types_share_a_text(self):
        # these meet as equal keys of the per-body text cache
        x32 = np.float32(0.1)
        obj = [x32, float(x32), 0.1, -0.0, 0.0, np.float64(-0.0), math.nan,
               np.float64(math.nan), complex(0.0, -0.0), np.array([-0.0, 0.0])]
        assert report_dumps(obj) == reference_dumps(obj)

    @staticmethod
    def round_trip_text(x):
        """The text of every float before the one-format path: repr of round15."""
        x = serialize.round15(x)
        if math.isnan(x):
            return "NaN"
        if math.isinf(x):
            return "Infinity" if x > 0 else "-Infinity"
        return float.__repr__(x)

    # where %.15g and repr part ways (exponent at 1e15, fewer digits in
    # subnormals, the sign of zero) and the edges of the one-format range
    BOUNDARY = [999999999999999.9, 99999999999999.99, 99999999999999.95,
                1e14, math.nextafter(1e14, 0.0), -math.nextafter(1e14, 0.0),
                99999999999999.0, 1e15, 0.0, -0.0, 5e-324, 1e-310,
                sys.float_info.min, math.nextafter(sys.float_info.min, 0.0),
                math.nextafter(sys.float_info.min, 1.0), -sys.float_info.min,
                1e-4, 9.999999999999999e-05, 9.9999999999999995e-05, 1e-5,
                0.1 + 0.2, 123.0, -7.0, 1.7976931348623157e308]

    @pytest.mark.parametrize("x", BOUNDARY)
    def test_boundary_texts(self, x):
        serialize._float_text.cache_clear()
        assert serialize._float_text(x) == self.round_trip_text(x)

    @settings(max_examples=2000, deadline=None)
    @given(x=st.one_of(st.floats(), st.floats(allow_subnormal=True,
                                              min_value=-1e-300, max_value=1e-300),
                       st.floats(min_value=-1e16, max_value=1e16),
                       st.sampled_from(SPECIAL)))
    def test_text_is_repr_of_round15(self, x):
        serialize._float_text.cache_clear()
        assert serialize._float_text(x) == self.round_trip_text(x)
        assert serialize._float_text(np.float64(x)) == self.round_trip_text(x)

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


def results_with_to_json(obj):
    """The NuReport, LimitWindow, Sparsification and PPartition in a result."""
    if isinstance(obj, tuple(REFERENCE_JSON)):
        yield obj
    elif isinstance(obj, dict):
        for v in obj.values():
            yield from results_with_to_json(v)
    elif isinstance(obj, (list, tuple)):
        for v in obj:
            yield from results_with_to_json(v)


@pytest.mark.parametrize("name", WORKLOAD_RESULTS)
def test_workload_report_bodies_match_reference(name):
    """One pass of a benchmark workload at its tiny size, seed 7.

    Each to_json body is also checked against the structure that to_json
    built when it rounded every number itself.
    """
    wl = load_workloads()
    bl = SimpleNamespace(space=space, operators=operators, limits=limits,
                         lowernorm=lowernorm, partition=partition,
                         serialize=serialize)
    inputs, setup, make_queries = wl.WORKLOADS[name]
    inp = inputs(np.random.default_rng(7), wl.SIZES["tiny"][name])
    state, seen = {}, set()
    for q in make_queries(bl, setup(bl, inp), inp):
        if q.expect is None:
            state[q.name] = q.call(state)
        else:
            with pytest.raises(q.expect) as raised:
                q.call(state)
            state[q.name] = raised.value
        report = q.report(state[q.name])
        assert report_dumps(report) == reference_dumps(report), q.name
        for x in results_with_to_json(state[q.name]):
            seen.add(type(x).__name__)
            ref = REFERENCE_JSON[type(x)](x)
            assert report_dumps(x.to_json()) == reference_dumps(ref), q.name
    assert seen == WORKLOAD_RESULTS[name]

