import copy
import dataclasses
import random

import pytest
from hypothesis import given, settings, strategies as st

from wlansim.protocols import (BACKOFF, BackoffState, CW_MIN, ECA_BACKOFF,
                               MAX_BACKOFF_STAGE, Mode, ProbeAction,
                               ProtocolKind, RandomSource, cfmac_probe,
                               draw_backoff, initial_station, legacy_tick,
                               on_failure, on_success)
from wlansim.schedule import cycle_timer


def fresh(kind, seed=1):
    return initial_station(0, kind, RandomSource(seed))


def deterministic(seed=1, **overrides):
    st_ = fresh(ProtocolKind.CF_MAC, seed)
    st_ = on_success(st_, 10_000, 12, 6, RandomSource(seed))
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


def test_empty_window_rejected():
    with pytest.raises(ValueError, match="empty range"):
        RandomSource(1).next_uniform(3, 2)


def test_draw_ranges():
    rng = RandomSource(7)
    draws0 = [draw_backoff(0, rng) for _ in range(200)]
    assert all(0 <= b <= 15 for b in draws0)
    draws6 = [draw_backoff(6, rng) for _ in range(200)]
    assert all(0 <= b <= 1023 for b in draws6)
    assert max(draws6) > 15  # the window really widened


def test_draw_stage_bounds():
    rng = RandomSource(7)
    with pytest.raises(ValueError):
        draw_backoff(-1, rng)
    with pytest.raises(ValueError):
        draw_backoff(7, rng)


def test_initial_station():
    st_ = fresh(ProtocolKind.CSMA_CA)
    assert st_.mode is Mode.LEGACY
    assert st_.backoff.k == 0
    assert 0 <= st_.backoff.b <= 15


def test_on_success_csma_ca():
    rng = RandomSource(3)
    st_ = dataclasses.replace(fresh(ProtocolKind.CSMA_CA),
                              backoff=BackoffState(k=6, b=900), ret=4)
    out = on_success(st_, 5000, 2, 6, rng)
    assert out.ret == 0
    assert out.backoff.k == 0 and 0 <= out.backoff.b <= 15
    assert out.mode is Mode.LEGACY


def test_on_success_csma_eca():
    out = on_success(fresh(ProtocolKind.CSMA_ECA), 5000, 2, 6, RandomSource(3))
    assert out.backoff.k == 0 and out.backoff.b == ECA_BACKOFF == 7


def test_on_success_cfmac():
    out = on_success(fresh(ProtocolKind.CF_MAC), 10_000, 12, 6, RandomSource(3))
    assert out.mode is Mode.DETERMINISTIC
    assert out.deadline == 10_000 + cycle_timer(12, 6) == 37_900
    assert out.consec_failures == 0 and out.busy_probes == 0


def test_success_clears_deterministic_counters():
    st_ = deterministic(consec_failures=1, busy_probes=1)
    out = on_success(st_, 50_000, 12, 6, RandomSource(9))
    assert out.consec_failures == 0 and out.busy_probes == 0
    assert out.deadline == 50_000 + cycle_timer(12, 6)


def test_on_failure_legacy_backoff_growth():
    rng = RandomSource(5)
    st_ = fresh(ProtocolKind.CSMA_CA)
    for expected_k in (1, 2, 3, 4, 5):
        st_ = on_failure(st_, rng)
        assert st_.backoff.k == expected_k
        assert 0 <= st_.backoff.b <= (CW_MIN << expected_k) - 1
    # stage clamps at m even as retries continue
    st_ = dataclasses.replace(st_, backoff=BackoffState(k=6, b=3), ret=2)
    out = on_failure(st_, rng)
    assert out.backoff.k == MAX_BACKOFF_STAGE == 6


def test_on_failure_discards_at_retry_limit():
    rng = RandomSource(5)
    st_ = fresh(ProtocolKind.CSMA_CA)
    for _ in range(5):
        st_ = on_failure(st_, rng)
    assert st_.ret == 5
    out = on_failure(st_, rng)  # sixth failed retransmission: drop the packet
    assert out.ret == 0
    assert out.backoff.k == 0 and 0 <= out.backoff.b <= 15


def test_on_failure_deterministic_stickiness():
    st_ = deterministic()
    out = on_failure(st_, RandomSource(2), tx_start_us=40_000, n=12, rate=6)
    assert out.mode is Mode.DETERMINISTIC
    assert out.consec_failures == 1
    assert out.deadline == 40_000 + cycle_timer(12, 6)


def test_on_failure_second_collision_reverts():
    st_ = deterministic(consec_failures=1)
    out = on_failure(st_, RandomSource(2), tx_start_us=40_000, n=12, rate=6)
    assert out.mode is Mode.LEGACY
    assert out.backoff.k == 0 and 0 <= out.backoff.b <= 15
    assert out.deadline is None and out.consec_failures == 0


class WindowLog(RandomSource):
    """Records the inclusive range each draw asks for; draws its low end."""

    def __init__(self):
        super().__init__(0)
        self.windows = []

    def next_uniform(self, lo, hi):
        self.windows.append((lo, hi))
        return lo


def test_transitions_draw_from_the_records_own_window():
    rng = WindowLog()
    wide = BackoffState(cw_min=64, m=8)
    st_ = dataclasses.replace(fresh(ProtocolKind.CSMA_CA), backoff=wide,
                              r_max=10)
    for _ in range(8):  # past the default top stage of 6, up to m = 8
        st_ = on_failure(st_, rng)
    assert st_.backoff.k == 8
    on_success(st_, 5000, 2, 6, rng)
    # deterministic records revert to legacy on a second collision and on
    # a second busy probe, with a fresh stage-0 draw
    on_failure(deterministic(consec_failures=1,
                             backoff=dataclasses.replace(wide)),
               rng, tx_start_us=40_000, n=12, rate=6)
    det = deterministic(busy_probes=1, backoff=dataclasses.replace(wide))
    cfmac_probe(det, False, det.deadline + 100, rng)
    assert rng.windows == ([(0, (64 << k) - 1) for k in range(1, 9)]
                           + [(0, 63)] * 3)


def test_deterministic_failure_needs_schedule_args():
    with pytest.raises(ValueError):
        on_failure(deterministic(), RandomSource(2))


def test_legacy_tick():
    st_ = dataclasses.replace(fresh(ProtocolKind.CSMA_CA),
                              backoff=BackoffState(k=0, b=3))
    assert legacy_tick(st_, slot_idle=True).backoff.b == 2
    assert legacy_tick(st_, slot_idle=False).backoff.b == 3
    floor = dataclasses.replace(st_, backoff=BackoffState(k=0, b=0))
    assert legacy_tick(floor, slot_idle=True).backoff.b == 0
    with pytest.raises(ValueError):
        legacy_tick(deterministic(), slot_idle=True)


def test_probe_actions():
    det = deterministic()
    at = det.deadline
    rng = RandomSource(4)
    assert cfmac_probe(det, True, at, rng).action is ProbeAction.TRANSMIT_NOW
    assert cfmac_probe(det, False, at, rng).action is ProbeAction.HOLD_PROBE
    reduced = cfmac_probe(det, False, at + 18, rng)
    assert reduced.action is ProbeAction.REDUCED_BACKOFF
    assert 0 <= reduced.slots <= 6
    assert reduced.slots == reduced.state.backoff.b
    assert reduced.state.busy_probes == 1
    reverted = cfmac_probe(reduced.state, False, at + 100, rng)
    assert reverted.action is ProbeAction.REVERT_LEGACY
    assert reverted.state.mode is Mode.LEGACY
    assert reverted.state.backoff.k == 0
    assert reverted.state.deadline is None


def test_probe_preconditions():
    rng = RandomSource(4)
    with pytest.raises(ValueError):
        cfmac_probe(fresh(ProtocolKind.CF_MAC), True, 100, rng)
    det = deterministic()
    with pytest.raises(ValueError):
        cfmac_probe(det, True, det.deadline - 1, rng)


def test_ca_and_eca_failures_agree():
    # the two protocols differ only in their success branch
    rng_a, rng_b = RandomSource(11), RandomSource(11)
    ca = fresh(ProtocolKind.CSMA_CA, seed=11)
    eca = dataclasses.replace(fresh(ProtocolKind.CSMA_ECA, seed=11), station=0)
    for _ in range(10):
        ca = on_failure(ca, rng_a)
        eca = on_failure(eca, rng_b)
        assert ca.backoff == eca.backoff
        assert ca.ret == eca.ret


def public_step(state, op, rng):
    """Apply the public transition that op picks, where it is defined."""
    if op == 0 and state.mode is Mode.LEGACY:
        return legacy_tick(state, rng.chance(0.5))
    if op == 1:
        return on_success(state, 1000, 12, 6, rng)
    if op == 2:
        return on_failure(state, rng, tx_start_us=2000, n=12, rate=6)
    if op == 3 and state.mode is Mode.DETERMINISTIC:
        return cfmac_probe(state, rng.chance(0.5),
                           state.deadline + rng.next_uniform(0, 50), rng).state
    return state


SEEDS = st.integers(min_value=0, max_value=2**32 - 1)
SCRIPTS = st.lists(st.integers(min_value=0, max_value=3), min_size=1,
                   max_size=60)


@settings(max_examples=200, deadline=None)
@given(SEEDS, SCRIPTS)
def test_transition_sequences_hold_invariants(seed, script):
    rng = RandomSource(seed)
    state = initial_station(0, ProtocolKind.CF_MAC, rng)
    for op in script:
        state = public_step(state, op, rng)
        assert 0 <= state.backoff.k <= MAX_BACKOFF_STAGE
        assert 0 <= state.backoff.b <= (CW_MIN << state.backoff.k) - 1
        assert 0 <= state.ret <= state.r_max
        assert (state.phase == BACKOFF) == (state.mode is Mode.LEGACY)
        if state.mode is Mode.DETERMINISTIC:
            assert state.consec_failures < 2 and state.busy_probes < 2
            assert state.deadline is not None
        else:
            assert state.deadline is None


@settings(max_examples=200, deadline=None)
@given(SEEDS, SCRIPTS, st.sampled_from(ProtocolKind))
def test_public_transitions_leave_their_input_unchanged(seed, script, kind):
    # the rules update a record in place; the public functions must apply
    # them to a copy that shares no mutable part with their input
    rng = RandomSource(seed)
    state = initial_station(0, kind, rng)
    for op in script:
        before = copy.deepcopy(state)
        after = public_step(state, op, rng)
        assert state == before
        if after is not state:
            assert after.backoff is not state.backoff
        state = after
