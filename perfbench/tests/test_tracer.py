"""The tracer: self time of nested calls, generators timed by iteration,
every from-import binding patched, and a clean uninstall."""

import sys
import types

import pytest

from perfbench.tracer import Tracer, load_spans

CORE = '''
now = [0.0]

def clock():
    return now[0]

def inner():
    now[0] += 5.0
    return 1

def outer():
    now[0] += 1.0
    inner()
    now[0] += 2.0
    return None

def numbers():
    for i in range(3):
        now[0] += 4.0
        yield i
'''

USER = '''
from fakepkg.core import inner, numbers

def call_inner_twice():
    inner()
    inner()

def total():
    return sum(numbers())
'''


@pytest.fixture
def fakepkg():
    modules = {}
    for name, source in (("fakepkg", ""), ("fakepkg.core", CORE), ("fakepkg.user", USER)):
        mod = types.ModuleType(name)
        sys.modules[name] = mod
        exec(source, mod.__dict__)
        modules[name] = mod
    yield modules["fakepkg.core"], modules["fakepkg.user"]
    for name in modules:
        del sys.modules[name]


def installed(core, *targets):
    tracer = Tracer(clock=core.clock)
    tracer.install([("fakepkg.core", t) for t in targets], package="fakepkg")
    return tracer


def test_self_time_of_a_nested_call(fakepkg):
    core, _ = fakepkg
    tracer = installed(core, "inner", "outer")
    core.outer()
    assert tracer.self_times() == {"core.inner": 5.0, "core.outer": 3.0}
    assert tracer.summary()["calls"] == {"core.inner": 1, "core.outer": 1}
    assert tracer.summary()["returned"] == {"core.inner": 1, "core.outer": 0}


def test_from_import_bindings_are_patched_and_restored(fakepkg):
    core, user = fakepkg
    original = core.inner
    tracer = installed(core, "inner")
    assert user.inner is core.inner is not original
    user.call_inner_twice()
    assert tracer.summary()["calls"]["core.inner"] == 2
    tracer.uninstall()
    assert user.inner is original and core.inner is original


def test_generators_are_timed_while_iterated(fakepkg):
    core, user = fakepkg
    tracer = installed(core, "numbers")
    assert user.total() == 3
    summary = tracer.summary()
    assert summary["calls"]["core.numbers"] == 1
    assert summary["items"]["core.numbers"] == 3
    assert summary["self_s"]["core.numbers"] == 12.0


def test_switched_off_records_nothing(fakepkg):
    core, user = fakepkg
    tracer = installed(core, "inner", "numbers")
    tracer.on = False
    user.call_inner_twice()
    user.total()
    assert tracer.summary()["spans"] == 0
    assert tracer.summary()["calls"] == {"core.inner": 0, "core.numbers": 0}


def test_count_only_wrappers(fakepkg):
    core, user = fakepkg
    tracer = Tracer(clock=core.clock)
    tracer.install([("fakepkg.core", "inner")], package="fakepkg", count_only=True)
    user.call_inner_twice()
    assert tracer.summary()["counts"] == {"core.inner": 2}
    assert tracer.summary()["spans"] == 0


def test_spans_round_trip_through_a_file(fakepkg, tmp_path):
    core, _ = fakepkg
    tracer = installed(core, "inner", "outer")
    core.outer()
    path = tmp_path / "spans"
    tracer.dump(path)
    names, spans = load_spans(path)
    assert names == ["core.inner", "core.outer"]
    # outer opens first, inner is its child
    assert spans == [(1, -1, 0.0, 8.0), (0, 0, 1.0, 6.0)]
