import dataclasses
import os
import random
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from wlansim import protocols
from wlansim.protocols import (BACKOFF, DEADLINE, HOLD, REDUCED, CW_MIN,
                               ECA_BACKOFF, MAX_RETRIES, ProtocolKind,
                               RandomSource, count_down, fail, initial_station,
                               probe_busy, succeed)
from wlansim.schedule import cycle_timer

CYCLE = cycle_timer(12, 6)
TOP = MAX_RETRIES - 1  # the top backoff stage: one more failure drops


def fresh(kind, seed=1):
    return initial_station(kind, RandomSource(seed))


def deterministic(seed=1, **overrides):
    st_ = fresh(ProtocolKind.CF_MAC, seed)
    succeed(st_, 10_000, CYCLE, RandomSource(seed))
    return dataclasses.replace(st_, **overrides) if overrides else st_


def test_random_source_repeats():
    a = RandomSource(42)
    b = RandomSource(42)
    assert [a.next_uniform(0, 1023) for _ in range(50)] == \
           [b.next_uniform(0, 1023) for _ in range(50)]


# window widths up to 2**10; a power of two rejects about half its words
WIDTHS = st.integers(1, 2 ** 10) | st.sampled_from([2 ** k for k in range(11)])


@settings(max_examples=300)
@given(seed=st.integers(0, 2 ** 64), script=st.lists(st.tuples(
    WIDTHS, st.integers(-1000, 1000) | st.just(0),
    st.floats(0.0, 1.0)), max_size=30))
def test_draws_are_the_stdlib_stream(seed, script):
    # next_uniform and chance, interleaved, draw exactly what randint and
    # random() draw from a random.Random of the same seed
    rng, ref = RandomSource(seed), random.Random(seed)
    for w, lo, p in script:
        assert rng.next_uniform(lo, lo + w - 1) == ref.randint(lo, lo + w - 1)
        assert rng.chance(p) is (ref.random() < p)


@settings(max_examples=300)
@given(seed=st.integers(0, 2 ** 64), script=st.lists(
    st.tuples(st.just("uniform"), WIDTHS)
    | st.tuples(st.just("chance"), st.floats(0.0, 1.0))
    | st.tuples(st.just("hand_back"), st.none()), max_size=40))
def test_handed_back_draws_keep_the_stdlib_stream(seed, script):
    # a `random` draw handed back is the next `chance`'s, as the engine's
    # round robin stepper leaves it: the stream stays random.Random's,
    # consumed once per draw however the hand-backs fall
    rng, ref = RandomSource(seed), random.Random(seed)
    held = None
    for op, arg in script:
        if op == "uniform":
            assert rng.next_uniform(0, arg - 1) == ref.randint(0, arg - 1)
        elif op == "chance":
            u, held = (ref.random() if held is None else held), None
            assert rng.chance(arg) is (u < arg)
        elif held is None:  # a draw looked at and returned unused
            held = rng.random()
            assert held == ref.random()
            rng.hand_back(held)
    if held is not None:
        assert rng.chance(0.5) is (held < 0.5)
    assert [rng.random() for _ in range(3)] == [ref.random() for _ in range(3)]


def test_second_hand_back_raises_under_python_O():
    # one draw is held at most; the check is explicit, so `python -O`
    # keeps it
    script = ("from wlansim.protocols import RandomSource\n"
              "rng = RandomSource(1)\n"
              "rng.hand_back(rng.random())\n"
              "try:\n"
              "    rng.hand_back(0.5)\n"
              "except RuntimeError as exc:\n"
              "    print(exc)\n")
    src = str(Path(protocols.__file__).resolve().parent.parent)
    run = subprocess.run([sys.executable, "-O", "-c", script],
                         env={**os.environ, "PYTHONPATH": src},
                         capture_output=True, text=True, timeout=60)
    assert run.returncode == 0, run.stderr
    assert run.stdout == "a handed-back draw is already held\n"


def test_empty_window_rejected():
    with pytest.raises(ValueError, match="empty range"):
        RandomSource(1).next_uniform(3, 2)


def test_draw_ranges():
    # a failure draws from its new stage's window: stage 0 after a dropped
    # packet, up to [0, 2^5 * CW_MIN - 1] at the top stage
    rng = RandomSource(7)
    draws0, draws_top = [], []
    for _ in range(200):
        dropped = dataclasses.replace(fresh(ProtocolKind.CSMA_CA), k=TOP)
        fail(dropped, 0, CYCLE, rng)
        assert dropped.k == 0
        draws0.append(dropped.b)
        top = dataclasses.replace(fresh(ProtocolKind.CSMA_CA), k=TOP - 1)
        fail(top, 0, CYCLE, rng)
        assert top.k == TOP == 5
        draws_top.append(top.b)
    assert all(0 <= b <= 15 for b in draws0)
    assert all(0 <= b <= 511 for b in draws_top)
    assert max(draws_top) > 255  # the window really is the top one


def test_initial_station():
    st_ = fresh(ProtocolKind.CSMA_CA)
    assert st_.phase == BACKOFF
    assert st_.k == 0
    assert 0 <= st_.b <= 15


def test_on_success_csma_ca():
    rng = RandomSource(3)
    st_ = dataclasses.replace(fresh(ProtocolKind.CSMA_CA), k=4, b=400)
    succeed(st_, 5000, CYCLE, rng)
    assert st_.k == 0 and 0 <= st_.b <= 15
    assert st_.phase == BACKOFF


def test_on_success_csma_eca():
    st_ = fresh(ProtocolKind.CSMA_ECA)
    succeed(st_, 5000, CYCLE, RandomSource(3))
    assert st_.k == 0 and st_.b == ECA_BACKOFF == 7


def test_on_success_cfmac():
    st_ = fresh(ProtocolKind.CF_MAC)
    succeed(st_, 10_000, CYCLE, RandomSource(3))
    assert st_.phase == DEADLINE
    assert st_.deadline == 10_000 + cycle_timer(12, 6) == 37_900
    assert st_.consec_failures == 0 and st_.busy_probes == 0


def test_success_clears_deterministic_counters():
    st_ = deterministic(consec_failures=1, busy_probes=1)
    succeed(st_, 50_000, CYCLE, RandomSource(9))
    assert st_.consec_failures == 0 and st_.busy_probes == 0
    assert st_.deadline == 50_000 + cycle_timer(12, 6)


def test_on_failure_legacy_backoff_growth():
    rng = RandomSource(5)
    st_ = fresh(ProtocolKind.CSMA_CA)
    for expected_k in (1, 2, 3, 4, 5):
        fail(st_, 0, CYCLE, rng)
        assert st_.k == expected_k
        assert 0 <= st_.b <= (CW_MIN << expected_k) - 1
    # the window stops at the top stage: the next failure drops the packet
    assert st_.k == TOP


def test_on_failure_discards_at_retry_limit():
    rng = RandomSource(5)
    st_ = fresh(ProtocolKind.CSMA_CA)
    for _ in range(5):
        fail(st_, 0, CYCLE, rng)
    assert st_.k == 5  # five retries
    fail(st_, 0, CYCLE, rng)  # sixth failed transmission: drop the packet
    assert st_.k == 0 and 0 <= st_.b <= 15


def test_on_failure_deterministic_stickiness():
    st_ = deterministic()
    fail(st_, 40_000, CYCLE, RandomSource(2))
    assert st_.phase == DEADLINE
    assert st_.consec_failures == 1
    assert st_.deadline == 40_000 + cycle_timer(12, 6)


def test_on_failure_second_collision_reverts():
    st_ = deterministic(consec_failures=1)
    fail(st_, 40_000, CYCLE, RandomSource(2))
    assert st_.phase == BACKOFF
    assert st_.k == 0 and 0 <= st_.b <= 15
    assert st_.deadline is None and st_.consec_failures == 0


class WindowLog(RandomSource):
    """Records the inclusive range each draw asks for; draws its low end."""

    def __init__(self):
        super().__init__(0)
        self.windows = []

    def next_uniform(self, lo, hi):
        self.windows.append((lo, hi))
        return lo


def test_transitions_draw_from_the_module_windows():
    rng = WindowLog()
    st_ = fresh(ProtocolKind.CSMA_CA)
    for _ in range(MAX_RETRIES):  # up to the top stage, then the drop
        fail(st_, 0, CYCLE, rng)
    assert st_.k == 0
    succeed(st_, 5000, CYCLE, rng)
    # deterministic records revert to legacy on a second collision and on
    # a second busy probe, with a fresh stage-0 draw
    fail(deterministic(consec_failures=1), 40_000, CYCLE, rng)
    det = deterministic(busy_probes=1)
    probe_busy(det, det.deadline + 100, rng)
    # the top window is CW_MIN << TOP; the drop draws from stage 0 again
    assert rng.windows == (
        [(0, (CW_MIN << k) - 1) for k in range(1, TOP + 1)]
        + [(0, CW_MIN - 1)] * 4)


def test_legacy_tick():
    st_ = dataclasses.replace(fresh(ProtocolKind.CSMA_CA),
                              k=0, b=3)
    count_down(st_, 1)
    assert st_.b == 2
    count_down(st_, 0)  # a busy slot freezes the counter
    assert st_.b == 2
    count_down(st_, 5)
    assert st_.b == 0  # floored at zero
    with pytest.raises(ValueError):
        count_down(deterministic(), 1)


def test_probe_actions():
    # the phase after each busy probe tells what happened
    det = deterministic()
    at = det.deadline
    rng = RandomSource(4)
    probe_busy(det, at, rng)  # busy deadline: hold
    assert det.phase == HOLD and det.b == 0
    probe_busy(det, at + 18, rng)  # busy hold end: reduced backoff
    assert det.phase == REDUCED
    assert 0 <= det.b <= 6
    assert det.busy_probes == 1
    probe_busy(det, at + 100, rng)  # second busy finding: revert
    assert det.phase == BACKOFF
    assert det.k == 0 and 0 <= det.b <= 15
    assert det.deadline is None


def test_probe_preconditions():
    rng = RandomSource(4)
    with pytest.raises(ValueError):
        probe_busy(fresh(ProtocolKind.CF_MAC), 100, rng)
    det = deterministic()
    with pytest.raises(ValueError):
        probe_busy(det, det.deadline - 1, rng)


def test_ca_and_eca_failures_agree():
    # the two protocols differ only in their success branch
    rng_a, rng_b = RandomSource(11), RandomSource(11)
    ca = fresh(ProtocolKind.CSMA_CA, seed=11)
    eca = fresh(ProtocolKind.CSMA_ECA, seed=11)
    for _ in range(10):
        fail(ca, 0, CYCLE, rng_a)
        fail(eca, 0, CYCLE, rng_b)
        assert (ca.k, ca.b) == (eca.k, eca.b)


def step(state, op, rng):
    """Apply the transition that op picks, where it is defined."""
    if op == 0 and state.phase == BACKOFF:
        count_down(state, rng.next_uniform(1, 3))
    elif op == 1:
        succeed(state, 1000, CYCLE, rng)
    elif op == 2:
        fail(state, 2000, CYCLE, rng)
    elif op == 3 and state.phase != BACKOFF:
        probe_busy(state, state.deadline + rng.next_uniform(0, 50), rng)


SEEDS = st.integers(min_value=0, max_value=2**32 - 1)
SCRIPTS = st.lists(st.integers(min_value=0, max_value=3), min_size=1,
                   max_size=60)


@settings(max_examples=200, deadline=None)
@given(SEEDS, SCRIPTS)
def test_transition_sequences_hold_invariants(seed, script):
    rng = RandomSource(seed)
    state = initial_station(ProtocolKind.CF_MAC, rng)
    for op in script:
        step(state, op, rng)
        assert 0 <= state.k < MAX_RETRIES
        assert 0 <= state.b <= (CW_MIN << state.k) - 1
        if state.phase != BACKOFF:
            assert state.consec_failures < 2 and state.busy_probes < 2
            assert state.deadline is not None
        else:
            assert state.deadline is None
