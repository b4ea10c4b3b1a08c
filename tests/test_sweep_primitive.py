"""One two-core sweep primitive: the split is read once per pass.

``fields._on_both_cores(half, count, make)`` reads ``_SPLIT_MIN_N`` and
``_usable_cpus()`` once, makes each half's buffers on the caller with
``make(lo, hi)`` from that reading, and only then starts the helper.  A CPU
count that changes between passes, or between two reads of one pass, must
not change a byte of any blocked kernel's output, and no half may make a
buffer of its own.
"""

import itertools
import threading

import numpy as np
import pytest

from photonloc import Grid, fields

from test_cache_blocked_kernels import _cases, _special_data  # noqa: E402
from test_transforms import _split_every_pass  # noqa: E402


def _counted_sweeps(monkeypatch, cpus):
    """Stub _usable_cpus to return ``cpus`` in turn, cycling, and wrap
    _on_both_cores; return the list of CPU reads made by each call."""
    reads = [0]
    cycle = itertools.cycle(cpus)

    def usable_cpus():
        reads[0] += 1
        return next(cycle)

    per_call, sweep = [], fields._on_both_cores

    def counted(*args):
        before = reads[0]
        sweep(*args)
        per_call.append(reads[0] - before)

    monkeypatch.setattr(fields, "_SPLIT_MIN_N", 1)
    monkeypatch.setattr(fields, "_usable_cpus", usable_cpus)
    monkeypatch.setattr(fields, "_on_both_cores", counted)
    return per_call


# The special values overflow on purpose, on both threads.
@pytest.mark.filterwarnings("ignore::RuntimeWarning")
@pytest.mark.parametrize("cpus", [(1, 2), (2, 1)], ids=["1-then-2", "2-then-1"])
def test_a_cpu_count_that_changes_between_reads_keeps_every_byte(monkeypatch, cpus):
    g = Grid(3, 8.0, 32)
    v = _special_data(g, np.random.default_rng(31))
    expected = {name: formula().tobytes() for name, _, formula in _cases(g, v)}
    per_call = _counted_sweeps(monkeypatch, cpus)
    got = {name: call().tobytes() for name, call, _ in _cases(g, v)}
    assert [name for name in expected if got[name] != expected[name]] == []
    assert per_call and set(per_call) == {1}      # one read per pass


def test_each_halfs_buffers_are_made_on_the_caller_before_the_helper_starts(monkeypatch):
    _split_every_pass(monkeypatch)
    caller, events = threading.get_ident(), []
    start = threading.Thread.start
    monkeypatch.setattr(threading.Thread, "start",
                        lambda t: (events.append(("start", None, threading.get_ident())), start(t)))

    def make(lo, hi):
        events.append(("make", lo, threading.get_ident()))
        return [lo], [hi]

    def half(lo, hi, first, last):
        assert (first, last) == ([lo], [hi])      # the buffers made for this half
        events.append(("half", lo, threading.get_ident()))

    fields._on_both_cores(half, 6, make)
    assert events[:3] == [("make", 0, caller), ("make", 3, caller), ("start", None, caller)]
    runs = {lo: thread for _, lo, thread in events[3:]}
    assert sorted(e[0] for e in events[3:]) == ["half", "half"]
    assert runs[3] == caller and runs[0] != caller


def test_one_cpu_makes_one_whole_range_on_the_caller(monkeypatch):
    _split_every_pass(monkeypatch, cpus=1)
    caller, events = threading.get_ident(), []
    fields._on_both_cores(lambda lo, hi, tag: events.append((lo, hi, tag, threading.get_ident())),
                          6, lambda lo, hi: ((lo, hi),))
    assert events == [(0, 6, (0, 6), caller)]


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_every_blocked_kernel_makes_its_buffers_on_the_caller(monkeypatch):
    # Through the real kernels: every make runs on the calling thread, and
    # the helper runs halves only.
    g = Grid(3, 8.0, 16)
    v = _special_data(g, np.random.default_rng(16))
    _split_every_pass(monkeypatch)
    monkeypatch.setattr(fields, "_BLOCK_SAMPLES", 3 * g.n * g.n)
    caller, makes, halves = threading.get_ident(), [], []
    sweep = fields._on_both_cores

    def recorded(half, count, make=lambda lo, hi: ()):
        def made(lo, hi):
            makes.append(threading.get_ident())
            return make(lo, hi)

        def ran(lo, hi, *bufs):
            halves.append(threading.get_ident())
            half(lo, hi, *bufs)

        sweep(ran, count, made)

    monkeypatch.setattr(fields, "_on_both_cores", recorded)
    for _, call, _ in _cases(g, v):
        call()
    assert makes and set(makes) == {caller}
    assert len(set(halves)) > 1                    # the helper ran halves
