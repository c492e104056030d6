"""Outside-in span tracer for the six ``bandlim`` layers.

The tracer wraps public functions of ``space``, ``operators``, ``limits``,
``lowernorm``, ``partition`` and ``serialize`` from the benchmark's side; the
package itself is not modified.  A function is wrapped in every module that
holds it under its own name, because callers look names up there (``limits``
imports ``nu``, ``schur_bound``, ``ball_template``, ``match_ball_exact``,
``pointed_isometric`` and ``build_space`` by name).  Methods of ``Space``,
``PPartition`` and the result classes are wrapped at the class.

Each span has a name, a start, an end and a parent.  Spans are folded into
per-name totals as they close, instead of being stored one by one: a
partition pass opens over a hundred thousand ``Space.dist`` and
``Space.pairwise`` spans.  A span's
self time is its duration minus the part of it that its children cover; the
children of a span opened on a pool thread's empty stack are parented to the
innermost open span of the main thread, which waits for the pool, and their
overlapping intervals are merged before they are subtracted.
"""

import functools
import threading
import time
from collections import Counter, defaultdict


class _Frame:
    __slots__ = ("name", "start", "parent", "thread", "child_time", "foreign")

    def __init__(self, name, start, parent, thread):
        self.name = name
        self.start = start
        self.parent = parent
        self.thread = thread
        self.child_time = 0.0        # children closed on the same thread
        self.foreign = []            # (start, end) of children on other threads


def _union_length(intervals, lo, hi):
    total, cur_lo, cur_hi = 0.0, None, None
    for a, b in sorted(intervals):
        a, b = max(a, lo), min(b, hi)
        if b <= a:
            continue
        if cur_hi is None or a > cur_hi:
            if cur_hi is not None:
                total += cur_hi - cur_lo
            cur_lo, cur_hi = a, b
        else:
            cur_hi = max(cur_hi, b)
    if cur_hi is not None:
        total += cur_hi - cur_lo
    return total


class Tracer:
    """In-memory span recorder with per-name call, inclusive and self totals."""

    def __init__(self):
        self._local = threading.local()
        self._lock = threading.Lock()
        self._main_stack = []
        self.reset()

    def reset(self):
        self.calls = Counter()
        self.total = defaultdict(float)
        self.self_time = defaultdict(float)
        self.counts = Counter()

    def _stack(self):
        stack = getattr(self._local, "stack", None)
        if stack is None:
            if threading.current_thread() is threading.main_thread():
                stack = self._main_stack
            else:
                stack = []
            self._local.stack = stack
        return stack

    def open(self, name):
        stack = self._stack()
        if stack:
            parent = stack[-1]
        elif stack is not self._main_stack and self._main_stack:
            parent = self._main_stack[-1]
        else:
            parent = None
        frame = _Frame(name, 0.0, parent, threading.get_ident())
        stack.append(frame)
        frame.start = time.perf_counter()
        return frame

    def close(self, frame):
        end = time.perf_counter()
        self._stack().pop()
        dur = end - frame.start
        covered = frame.child_time
        if frame.foreign:
            covered += _union_length(frame.foreign, frame.start, end)
        name = frame.name
        with self._lock:
            self.calls[name] += 1
            self.total[name] += dur
            self.self_time[name] += dur - covered
            parent = frame.parent
            if parent is not None:
                if parent.thread == frame.thread:
                    parent.child_time += dur
                else:
                    parent.foreign.append((frame.start, end))

    def count(self, key, amount=1):
        with self._lock:
            self.counts[key] += amount

    def parent_name(self):
        """Name of the span enclosing the one now open on this thread."""
        stack = self._stack()
        frame = stack[-1] if stack else None
        parent = frame.parent if frame is not None else None
        return None if parent is None else parent.name


def _wrap(tracer, name, fn, on_call, on_result):
    @functools.wraps(fn)
    def traced(*args, **kwargs):
        frame = tracer.open(name)
        try:
            if on_call is not None:
                on_call(tracer)
            out = fn(*args, **kwargs)
        except Exception as exc:
            if on_result is not None:
                on_result(tracer, args, None, exc)
            raise
        finally:
            tracer.close(frame)
        if on_result is not None:
            on_result(tracer, args, out, None)
        return out
    return traced


# -- counters recorded at the layer boundaries ---------------------------------


def _nu_result(tracer, args, out, exc):
    method = getattr(out, "method", None)
    if method is not None:
        tracer.count("lowernorm.nu.cols", len(args[1]))
        tracer.count(f"lowernorm.nu.{method.replace('-', '_')}.calls")


def _nu_call(tracer):
    # runs inside the nu span, so the enclosing span is the caller of nu
    if tracer.parent_name() == "lowernorm.nu_s":
        tracer.count("lowernorm.nu_s.restriction_sets")


def _windows_result(tracer, args, out, exc):
    tracer.count("limits.extract.attempts")
    if exc is None:
        tracer.count("limits.extract.ok")
        tracer.count("limits.windows.count", len(out.deviation_profile))
    elif hasattr(exc, "profile"):
        tracer.count("limits.windows.count", len(exc.profile))


def _match_result(tracer, args, out, exc):
    tracer.count("space.match.attempts")
    if out is not None and out is not False:
        tracer.count("space.match.found")


def _dumps_result(tracer, args, out, exc):
    if out is not None:
        tracer.count("serialize.report.bytes", len(out.encode()))


# (layer, attribute, span name, on_call, on_result); an attribute written
# "Class.method" is wrapped at the class.
TARGETS = [
    ("space", "build_space", "space.build_space", None, None),
    ("space", "Space.ball", "space.ball", None, None),
    ("space", "Space.pairwise", "space.pairwise", None, None),
    ("space", "Space.dist", "space.dist", None, None),
    ("space", "ball_template", "space.ball_template", None, None),
    ("space", "match_ball_exact", "space.match_ball_exact", None, _match_result),
    ("space", "pointed_isometric", "space.pointed_isometric", None, _match_result),
    ("operators", "from_triplets", "operators.from_triplets", None, None),
    ("operators", "schur_bound", "operators.schur_bound", None, None),
    ("operators", "norm2", "operators.norm2", None, None),
    ("limits", "limit_space", "limits.limit_space", None, None),
    ("limits", "limit_operator", "limits.limit_operator", None, _windows_result),
    ("limits", "shift_limit", "limits.shift_limit", None, _windows_result),
    ("limits", "interior_nu", "limits.interior_nu", None, None),
    ("limits", "sample_spectrum", "limits.sample_spectrum", None, None),
    ("lowernorm", "nu", "lowernorm.nu", _nu_call, _nu_result),
    ("lowernorm", "nu_s", "lowernorm.nu_s", None, None),
    ("lowernorm", "essential_nu", "lowernorm.essential_nu", None, None),
    ("lowernorm", "localization_check", "lowernorm.localization_check", None, None),
    ("lowernorm", "witness_cascade", "lowernorm.witness_cascade", None, None),
    ("partition", "sparsify", "partition.sparsify", None, None),
    ("partition", "make_partition", "partition.make_partition", None, None),
    ("partition", "PPartition.variation", "partition.variation", None, None),
    ("partition", "average", "partition.average", None, None),
    ("partition", "weighted_sum", "partition.weighted_sum", None, None),
    ("serialize", "report_dumps", "serialize.report_dumps", None, _dumps_result),
    # report structures built by the result classes, before report_dumps
    ("limits", "LimitWindow.to_json", "limits.to_json", None, None),
    ("lowernorm", "NuReport.to_json", "lowernorm.to_json", None, None),
    ("partition", "Sparsification.to_json", "partition.to_json", None, None),
    ("partition", "PPartition.to_json", "partition.to_json", None, None),
]


class installed:
    """Context manager that wraps every target in ``TARGETS`` and restores them.

    ``modules`` maps a layer name to its imported module.
    """

    def __init__(self, tracer, modules):
        self.tracer = tracer
        self.modules = modules
        self._undo = []

    def __enter__(self):
        for layer, attr, name, on_call, on_result in TARGETS:
            mod = self.modules[layer]
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(mod, cls_name)
                orig = cls.__dict__[meth]
                self._undo.append((cls, meth, orig))
                setattr(cls, meth, _wrap(self.tracer, name, orig, on_call, on_result))
                continue
            orig = getattr(mod, attr)
            traced = _wrap(self.tracer, name, orig, on_call, on_result)
            for holder in self.modules.values():
                if getattr(holder, attr, None) is orig:
                    self._undo.append((holder, attr, orig))
                    setattr(holder, attr, traced)
        return self.tracer

    def __exit__(self, *exc):
        for holder, attr, orig in reversed(self._undo):
            setattr(holder, attr, orig)
        self._undo.clear()
        return False
