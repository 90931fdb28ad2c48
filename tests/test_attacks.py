"""Receiver strategies, storage statistics, view diagnostics, and the
information accounting engine.

The exact-enumeration reference values pinned here were cross-checked
against the Monte Carlo estimator when they were first computed; they are
regression anchors, not definitions.
"""

import hashlib
import json
import math
from dataclasses import replace
from functools import cache, reduce
from collections import Counter
from itertools import combinations, product

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qotsim import attacks, gf2, protocol, quantum
from qotsim.errors import DimensionError, DomainError, ResourceError
from qotsim.streams import stream

IDENTITY_CODE = gf2.LinearCode(f=gf2.bitmatrix(["10", "01"]), r=1, m=1)


def exact_params(**kw):
    base = dict(
        n=8, m=1, r=1, delta=0.125, N=2,
        mode=protocol.Mode.EXACT_QUANTUM, seed=0,
    )
    base.update(kw)
    return protocol.ProtocolParams(**base)


def completed_run(bob, seed0=0, **kw):
    run_kw = {k: kw.pop(k) for k in ("force_c", "announce_rest") if k in kw}
    for seed in range(seed0, seed0 + 200):
        tr = protocol.run_string_qot(exact_params(seed=seed, **kw), [1], bob=bob, **run_kw)
        if tr.abort_reason is None:
            return tr
    raise AssertionError("no completed run found")


# ---------------------------------------------------------------------------
# strategy construction and the photon phase

def test_strategy_constructors_validate():
    with pytest.raises(DomainError):
        attacks.store_subset()
    with pytest.raises(DomainError):
        attacks.store_subset(positions=[1], count=1)
    with pytest.raises(DomainError):
        attacks.store_subset(count=-1)
    st = attacks.store_subset(positions=[3, 1, 3])
    assert st.positions == (1, 3)
    assert attacks.fixed_basis(1).angle == 1.0
    for angle in (math.nan, math.inf, -math.inf):
        with pytest.raises(DomainError, match="finite"):
            attacks.fixed_basis(angle)
    desc = attacks.random_ok().describe()
    assert desc["kind"] == "RANDOM_OK" and desc["positions"] is None


@pytest.mark.parametrize("fields", [
    dict(kind=attacks.StrategyKind.HONEST, angle=0.3),
    dict(kind=attacks.StrategyKind.FIXED_BASIS),
    dict(kind=attacks.StrategyKind.STORE_SUBSET),
    dict(kind=attacks.StrategyKind.STORE_SUBSET, positions=(1,), count=1),
    dict(kind=attacks.StrategyKind.RANDOM_OK, count=2),
    dict(kind=attacks.StrategyKind.FIXED_BASIS, angle=0.3, positions=(1,)),
], ids=["honest-angle", "fixed-no-angle", "store-no-field", "store-both", "random-ok-count",
        "fixed-positions"])
def test_a_strategy_with_fields_its_kind_does_not_take_is_refused(fields):
    """A strategy record states what the receiver does, so a field that
    its kind would not use, or a missing one, raises DomainError."""
    with pytest.raises(DomainError, match="goes with"):
        attacks.AttackStrategy(**fields)


def test_a_strategy_kind_may_be_given_by_name():
    assert attacks.AttackStrategy("FIXED_BASIS", angle=1) == attacks.fixed_basis(1.0)
    assert attacks.AttackStrategy("STORE_SUBSET", count=np.int64(2)).count == 2
    with pytest.raises(ValueError):
        attacks.AttackStrategy("STORE_SOME")


KINDS = list(attacks.StrategyKind)


@settings(max_examples=300, deadline=None)
@given(
    kind=st.sampled_from(KINDS) | st.sampled_from([kind.value for kind in KINDS]),
    positions=st.none() | st.lists(st.integers(0, 11), max_size=6),
    count=st.none() | st.integers(-2, 12),
    angle=st.none() | st.floats() | st.integers(-3, 3),
    seed=st.integers(0, 2**32 - 1),
)
def test_an_accepted_strategy_describes_what_it_does(kind, positions, count, angle, seed):
    """Every combination of fields is either refused with DomainError or
    describes exactly what probe_angles and hold do."""
    kind = attacks.StrategyKind(kind)
    fixed, store = attacks.StrategyKind.FIXED_BASIS, attacks.StrategyKind.STORE_SUBSET
    consistent = (
        (angle is not None) == (kind is fixed) and (angle is None or math.isfinite(angle))
        and (positions is not None) + (count is not None) == (kind is store)
        and (count is None or count >= 0)
    )
    if not consistent:
        with pytest.raises(DomainError):
            attacks.AttackStrategy(kind, positions, count, angle)
        return
    strategy = attacks.AttackStrategy(kind.value, positions, count, angle)
    desc = json.loads(json.dumps(strategy.describe()))
    assert desc["kind"] == kind.value
    bases = protocol.basis_angle([quantum.PLUS, quantum.CROSS]).tolist()
    assert strategy.probe_angles() == (bases if desc["angle"] is None else [desc["angle"]] * 2)
    held, runtime = strategy.hold(12, np.random.default_rng(seed))
    if desc["positions"] is not None:
        assert held.tolist() == desc["positions"] == sorted(set(positions))
    elif desc["count"] is not None:
        assert held.size == desc["count"] == count
    elif kind is attacks.StrategyKind.RANDOM_OK:
        assert held.tolist() == ([] if runtime["coin_ok"] == 0 else list(range(12)))
    else:
        assert held.size == 0
    assert runtime.get("stored", []) == held.tolist()


@pytest.mark.parametrize(
    "positions", [{4, 1}, range(1, 5, 3), np.array([4, 1, 4])], ids=["set", "range", "array"]
)
def test_store_subset_accepts_any_iterable_of_positions(positions):
    st = attacks.store_subset(positions=positions)
    assert st.positions == (1, 4)
    assert all(type(i) is int for i in st.positions)
    assert st == attacks.store_subset(positions=[4, 1])
    held, runtime = st.hold(8, stream(0, "hold"))
    assert held.tolist() == [1, 4] and runtime == {"stored": [1, 4]}


def test_a_numpy_store_count_writes_its_transcript():
    """The count is kept as a Python int, so the strategy record of the
    transcript serialises and reads back."""
    st = attacks.store_subset(count=np.int64(3))
    assert type(st.count) is int and st == attacks.store_subset(count=3)
    for mode in protocol.Mode:
        tr = protocol.run_string_qot(exact_params(mode=mode), [1], bob=st)
        text = tr.to_json()
        assert json.loads(text)["strategy"]["count"] == 3
        assert protocol.Transcript.from_json(text).to_json() == text
    # range is checked where the photon count is known
    for bad in ({1, 8}, range(-1, 1)):
        with pytest.raises(DomainError):
            attacks.store_subset(positions=bad).hold(8, stream(0, "hold"))
        with pytest.raises(DomainError):
            attacks.store_subset(positions=bad).branches(8)


def fresh_reception(mode, n=6, seed=0):
    rng = stream(seed, "channel")
    w = gf2.random_bits(rng, n)
    theta = gf2.random_bits(rng, n)
    _, reception = protocol.transmit(
        w, theta, protocol.ChannelModel.noiseless(), mode, rng
    )
    return w, theta, reception


def test_apply_strategy_honest_measures_everything():
    w, theta, reception = fresh_reception(protocol.Mode.CLASSICAL_FAST)
    oracle = protocol.CommitmentOracle()
    record = attacks.apply_strategy(
        attacks.honest(), reception, oracle, stream(1, "bob")
    )
    assert record.measured.tolist() == list(range(6))
    assert record.held.size == 0
    assert np.array_equal(record.values, record.w_hat)  # nothing held, no filler
    assert np.array_equal(
        oracle.open(record.w_hat_commit, range(6)), record.w_hat
    )
    matched = record.theta_hat == theta
    assert np.array_equal(record.w_hat[matched], w[matched])


@pytest.mark.parametrize("noise_p", [0.0, 0.1])
def test_every_strategy_replays_run_for_run_in_both_modes(noise_p):
    """A held photon is a measurement made later, so storage needs no
    statevector: every receiver strategy, and qkd under either kind of
    Eve, gives the same transcript in both modes from the same seed."""
    receivers = [
        attacks.honest(), attacks.store_subset(positions=[1, 4, 7]),
        attacks.store_subset(positions=[]), attacks.store_subset(count=3),
        attacks.fixed_basis(0.3), attacks.random_ok(),
    ]
    eves = [attacks.honest(), attacks.fixed_basis(0.3)]

    def run(mode, seed, **kw):
        params = protocol.ProtocolParams(
            n=10, m=1, r=1, delta=0.3, N=2, noise_p=noise_p, mode=mode, seed=seed,
        )
        if "eve" in kw:
            tr = protocol.run_qkd(params, announce_rest=True, **kw)
        else:
            tr = protocol.run_string_qot(params, [1], announce_rest=True, **kw)
        d = json.loads(tr.to_json())
        assert d["params"].pop("mode") == mode.value
        return d

    deferred_runs = 0
    for seed in range(6):
        for kw in [{"bob": bob} for bob in receivers] + [{"eve": eve} for eve in eves]:
            fast = run(protocol.Mode.CLASSICAL_FAST, seed, **kw)
            assert fast == run(protocol.Mode.EXACT_QUANTUM, seed, **kw), (seed, kw)
            deferred_runs += bool(fast["deferred"])
    assert deferred_runs >= 6


def test_apply_strategy_store_subset_defers_and_recovers():
    w, theta, reception = fresh_reception(protocol.Mode.EXACT_QUANTUM, seed=4)
    oracle = protocol.CommitmentOracle()
    record = attacks.apply_strategy(
        attacks.store_subset(positions=[1, 4]), reception, oracle,
        stream(2, "bob"),
    )
    assert record.held.tolist() == [1, 4]
    assert record.measured.tolist() == [0, 2, 3, 5]
    assert record.runtime["stored"] == [1, 4]
    measured = record.values.copy()
    assert measured[[1, 4]].tolist() == [0, 0]
    assert attacks.finish_deferred(record, reception, theta, stream(3, "later")) is None
    # announced bases plus a noiseless channel recover the stored bits,
    # and the photon-phase outcomes stay as they were
    assert record.values[[1, 4]].tolist() == [w[1], w[4]]
    assert np.array_equal(record.values[record.measured], measured[record.measured])


def test_apply_strategy_store_count_draws_that_many():
    _, _, reception = fresh_reception(protocol.Mode.EXACT_QUANTUM, seed=5)
    record = attacks.apply_strategy(
        attacks.store_subset(count=3), reception,
        protocol.CommitmentOracle(), stream(4, "bob"),
    )
    assert record.held.size == 3
    assert np.array_equal(record.measured, gf2.complement_positions(record.held, 6))
    with pytest.raises(DomainError):
        attacks.apply_strategy(
            attacks.store_subset(count=7), fresh_reception(protocol.Mode.EXACT_QUANTUM)[2],
            protocol.CommitmentOracle(), stream(4, "bob"),
        )


# references for the photon phase: every block measured through
# _measure_many, its angles matched by value

def reference_apply_strategy(strategy, reception, oracle, rng):
    n = reception.n
    strategy.check_fits(n)
    theta_hat = gf2.random_bits(rng, n)
    held, runtime = strategy._hold(n, rng)
    measured = gf2.complement_positions(held, n)
    probes = strategy.probe_angles()
    angles = probes[0] if probes[0] == probes[1] else np.array(probes).take(theta_hat[measured])
    values = np.zeros(n, dtype=np.uint8)
    values[measured] = reception._measure_many(measured, angles, rng)
    w_hat = values.copy()
    w_hat[held] = gf2.random_bits(rng, held.size)
    return attacks.BobRecord(
        theta_hat=theta_hat, w_hat=w_hat, theta_hat_commit=oracle._commit(theta_hat),
        w_hat_commit=oracle._commit(w_hat), measured=measured, held=held, values=values,
        runtime=runtime,
    )


def reference_finish_deferred(record, reception, theta, rng):
    held = record.held
    record.values[held] = reception._measure_many(held, protocol._BASIS_ANGLES[theta[held]], rng)


def reference_eve_intercept(eve, reception, rng):
    if eve.kind is attacks.StrategyKind.HONEST:
        bases = gf2.random_bits(rng, reception.n)
        record = {"bases": quantum._basis_text(bases)}
        angles = protocol._BASIS_ANGLES[bases]
    else:
        record, angles = {"angle": eve.angle}, eve.angle
    outs = reception._measure_many(np.arange(reception.n), angles, rng)
    return {"kind": eve.kind.value, **record, "outcomes": protocol._bits_str(outs)}


def reception_tables(reception):
    """Everything a reception keeps, as comparable plain values."""
    tables = [reception._angles, reception._held.tolist(), reception._bits.tolist(),
              reception._born.tobytes()]
    if reception.mode is protocol.Mode.EXACT_QUANTUM:
        tables.append(reception._rotations.tobytes())
    return tables


@st.composite
def photon_phases(draw):
    """A photon count, a receiver plan for it, an optional Eve and a mode."""
    n = draw(st.integers(1, 12))
    bob = draw(st.one_of(
        st.just(attacks.honest()),
        st.just(attacks.random_ok()),
        st.floats(-4.0, 4.0).map(attacks.fixed_basis),
        st.lists(st.integers(0, n - 1), unique=True).map(
            lambda f: attacks.store_subset(positions=f)
        ),
        st.integers(0, n).map(lambda k: attacks.store_subset(count=k)),
    ))
    eve = draw(st.sampled_from([None, attacks.honest(), attacks.fixed_basis(0.3)]))
    return n, bob, eve, draw(st.sampled_from(protocol.Mode))


@settings(max_examples=200, deadline=None)
@given(photon_phases(), st.integers(0, 2**32))
def test_photon_phase_matches_the_angle_matching_reference(phase, seed):
    """Eve, the receiver's plan and the deferred measurements, with blocks
    probed at angle-table entries, give the records, outcomes, generator
    state and reception tables of the angle-matching reference."""
    n, bob, eve, mode = phase
    rng = np.random.default_rng(seed)
    encoded, theta = gf2.random_bits(rng, n), gf2.random_bits(rng, n)
    got_reception, want_reception = (protocol.Reception(mode, n, encoded, theta)
                                     for _ in range(2))
    got_rng, want_rng = (np.random.default_rng(seed + 1) for _ in range(2))
    if eve is not None:
        assert (attacks.eve_intercept(eve, got_reception, got_rng)
                == reference_eve_intercept(eve, want_reception, want_rng))
    got_oracle, want_oracle = protocol.CommitmentOracle(), protocol.CommitmentOracle()
    got = attacks.apply_strategy(bob, got_reception, got_oracle, got_rng)
    want = reference_apply_strategy(bob, want_reception, want_oracle, want_rng)
    for name in ("theta_hat", "w_hat", "measured", "held", "values"):
        assert getattr(got, name).tolist() == getattr(want, name).tolist(), name
        assert getattr(got, name).dtype == getattr(want, name).dtype, name
    assert got.runtime == want.runtime
    for cid in (got.theta_hat_commit, got.w_hat_commit):
        assert np.array_equal(got_oracle._open(cid, np.arange(n)),
                              want_oracle._open(cid, np.arange(n)))
    assert got_rng.bit_generator.state == want_rng.bit_generator.state
    assert reception_tables(got_reception) == reception_tables(want_reception)
    attacks._finish_deferred(got, got_reception, theta, got_rng)
    reference_finish_deferred(want, want_reception, theta, want_rng)
    assert got.values.tolist() == want.values.tolist()
    assert got_rng.bit_generator.state == want_rng.bit_generator.state
    assert reception_tables(got_reception) == reception_tables(want_reception)


@pytest.mark.parametrize("mode", list(protocol.Mode))
def test_a_plan_that_does_not_fit_raises_before_any_draw_on_every_call(mode):
    """A store set that fits 8 photons runs there, then raises DomainError
    at 6 on the first and every later call, as does a store count past n,
    with the generator and the reception untouched."""
    wide = attacks.store_subset(positions=[1, 6])
    attacks.apply_strategy(wide, fresh_reception(mode, n=8)[2], protocol.CommitmentOracle(),
                           stream(4, "bob"))
    for strategy in (wide, attacks.store_subset(count=7)):
        _, _, reception = fresh_reception(mode)
        tables = reception_tables(reception)
        rng = stream(4, "bob")
        state = rng.bit_generator.state
        for _ in range(3):
            with pytest.raises(DomainError):
                attacks.apply_strategy(strategy, reception, protocol.CommitmentOracle(), rng)
            assert rng.bit_generator.state == state
            assert reception_tables(reception) == tables


@pytest.mark.parametrize("mode", list(protocol.Mode))
def test_random_ok_holds_everything_or_nothing_by_its_coin(mode):
    """Both coins occur, and on a noiseless channel the deferred photons
    read back the encoded bits."""
    seen = set()
    for seed in range(20):
        w, theta, reception = fresh_reception(mode, seed=seed)
        record = attacks.apply_strategy(attacks.random_ok(), reception,
                                        protocol.CommitmentOracle(), stream(seed, "bob"))
        coin = record.runtime["coin_ok"]
        seen.add(coin)
        everything, nothing = list(range(6)), []
        assert record.held.tolist() == (everything if coin else nothing)
        assert record.measured.tolist() == (nothing if coin else everything)
        assert record.runtime == ({"coin_ok": 1, "stored": everything} if coin
                                  else {"coin_ok": 0})
        attacks.finish_deferred(record, reception, theta, stream(seed, "later"))
        if coin:
            assert np.array_equal(record.values, w)
    assert seen == {0, 1}


def test_fixed_basis_zero_equals_honest_in_all_plus():
    """Both strategies draw the same committed bases; wherever those are +,
    measuring at angle 0 is the honest measurement."""
    plus_positions = 0
    for seed in range(3):
        _, _, ra = fresh_reception(protocol.Mode.EXACT_QUANTUM, seed=seed)
        _, _, rb = fresh_reception(protocol.Mode.EXACT_QUANTUM, seed=seed)
        fixed = attacks.apply_strategy(
            attacks.fixed_basis(0.0), ra,
            protocol.CommitmentOracle(), stream(seed, "bob"),
        )
        honest = attacks.apply_strategy(
            attacks.honest(), rb,
            protocol.CommitmentOracle(), stream(seed, "bob"),
        )
        assert np.array_equal(fixed.theta_hat, honest.theta_hat)
        plus = np.nonzero(honest.theta_hat == quantum.PLUS)[0]
        assert np.array_equal(fixed.values[plus], honest.values[plus])
        plus_positions += plus.size
    assert plus_positions > 0


def test_random_ok_branches():
    stored = 0
    for seed in range(12):
        _, _, reception = fresh_reception(protocol.Mode.EXACT_QUANTUM, seed=seed)
        record = attacks.apply_strategy(
            attacks.random_ok(), reception,
            protocol.CommitmentOracle(), stream(seed, "bob"),
        )
        coin = record.runtime["coin_ok"]
        if coin == 1:
            assert record.held.tolist() == list(range(6))
            assert record.measured.size == 0
            stored += 1
        else:
            assert record.held.size == 0
            assert record.measured.tolist() == list(range(6))
    assert 0 < stored < 12


# ---------------------------------------------------------------------------
# channel interception

def test_eve_intercept_kinds():
    _, _, reception = fresh_reception(protocol.Mode.EXACT_QUANTUM, seed=8)
    rec = attacks.eve_intercept(attacks.honest(), reception, stream(8, "eve"))
    assert rec["kind"] == "HONEST" and len(rec["outcomes"]) == 6
    _, _, reception = fresh_reception(protocol.Mode.EXACT_QUANTUM, seed=9)
    rec = attacks.eve_intercept(attacks.fixed_basis(0.3), reception, stream(9, "eve"))
    assert rec["kind"] == "FIXED_BASIS" and rec["angle"] == 0.3
    with pytest.raises(DomainError):
        attacks.eve_intercept(attacks.store_subset(count=1), reception, stream(9, "eve"))


def test_qkd_records_the_interception():
    params = protocol.ProtocolParams(n=24, m=1, r=1, delta=0.25, N=4, seed=3)
    tr = protocol.run_qkd(params, eve=attacks.honest())
    assert tr.eve is not None and tr.eve["kind"] == "HONEST"


def test_intercept_resend_disturbs_matched_positions():
    """A quarter of matched-basis test positions flip under interception,
    so the error count over many runs sits near n_matched / 4."""
    errs, matched = 0, 0
    for seed in range(40):
        params = protocol.ProtocolParams(n=24, m=1, r=1, delta=1.0, N=4, seed=seed)
        tr = protocol.run_qkd(params, eve=attacks.honest())
        in_r = np.zeros(24, dtype=bool)
        in_r[tr.R] = True
        sel = (tr.theta == tr.theta_hat) & in_r
        errs += int(np.sum(tr.w[sel] != tr.w_hat[sel]))
        matched += int(sel.sum())
    rate = errs / matched
    sigma = math.sqrt(0.25 * 0.75 / matched)
    assert abs(rate - 0.25) < 4 * sigma


# ---------------------------------------------------------------------------
# storage test statistics

def test_store_statistics_expected_value_law():
    params = protocol.ProtocolParams(n=128, m=1, r=1, delta=0.0625)
    st = attacks.store_attack_test_statistics(params, 0.25, 4000, stream(0, "st"))
    assert st.expected == pytest.approx(4.0)
    assert abs(st.empirical_mean - st.expected) < 4 * st.std_error
    assert st.trials == 4000


def test_store_statistics_zero_fraction_is_silent():
    params = protocol.ProtocolParams(n=64, m=1, r=1, delta=0.1)
    st = attacks.store_attack_test_statistics(params, 0.0, 500, stream(1, "st"))
    assert st.expected == 0.0
    assert st.empirical_mean == 0.0


def test_store_statistics_noise_raises_the_floor():
    params = protocol.ProtocolParams(n=64, m=1, r=1, delta=0.1, noise_p=0.1)
    st = attacks.store_attack_test_statistics(params, 0.0, 500, stream(2, "st"))
    assert st.expected == pytest.approx(0.1 * 64 / 4)
    assert abs(st.empirical_mean - st.expected) < 4 * st.std_error


def test_store_statistics_validation():
    params = protocol.ProtocolParams(n=64, m=1, r=1, delta=0.1)
    with pytest.raises(DomainError):
        attacks.store_attack_test_statistics(params, 1.5, 10, stream(0, "x"))
    with pytest.raises(DomainError):
        attacks.store_attack_test_statistics(params, 0.5, 0, stream(0, "x"))


# ---------------------------------------------------------------------------
# view reconstruction and the distance defect

def test_view_defect_honest_is_zero():
    tr = completed_run(attacks.honest())
    got = attacks.view_small_distance_defect(tr, attacks.honest(), range(8), 0)
    assert got == pytest.approx(0.0, abs=1e-12)


def test_view_defect_is_mode_free_and_uncapped():
    """The defect reads only the transcript, so a CLASSICAL_FAST run and its
    EXACT_QUANTUM replay agree, and the Monte Carlo engine reports it at
    sizes no statevector could hold."""
    for k, strat in enumerate(
        [attacks.store_subset(positions=[0, 2, 5]), attacks.fixed_basis(0.3), attacks.random_ok()]
    ):
        fast = completed_run(strat, seed0=30 * k, mode=protocol.Mode.CLASSICAL_FAST)
        replay = protocol.run_string_qot(
            replace(fast.params, mode=protocol.Mode.EXACT_QUANTUM), [1], bob=strat
        )
        for e in (fast.E_c, range(8)):
            for t in range(4):
                got = attacks.view_small_distance_defect(fast, strat, e, t)
                want = attacks.view_small_distance_defect(replay, strat, e, t)
                assert abs(got - want) < 1e-12
    params = protocol.ProtocolParams(
        n=16, m=1, r=1, N=2, delta=0.25, epsilon=0.1, seed=3,
        mode=protocol.Mode.CLASSICAL_FAST,
    )
    rep = attacks.information_account(
        params, attacks.store_subset(positions=range(0, 16, 2)),
        method=attacks.InfoMethod.MONTE_CARLO, budget=40,
        rng=stream(4, "mc"), code=IDENTITY_CODE,
    )
    stats = rep.small_distance_defect_stats
    assert stats is not None
    assert 0.0 <= stats.mean <= stats.max <= 1.0


def test_view_defect_strategy_must_match_transcript():
    tr = completed_run(attacks.honest())
    with pytest.raises(DomainError):
        attacks.view_small_distance_defect(tr, attacks.fixed_basis(0.1), range(8), 0)


def test_view_defect_rejects_a_negative_radius():
    tr = completed_run(attacks.honest())
    with pytest.raises(DomainError):
        attacks.view_small_distance_defect(tr, attacks.honest(), range(8), -1)


def test_view_defect_rejects_positions_out_of_range():
    tr = completed_run(attacks.honest())
    with pytest.raises(DomainError):
        attacks.view_small_distance_defect(tr, attacks.honest(), [0, 8], 0)


def kron_view_defect(tr, strategy, e, t):
    """Reference defect: the view's 2^n photon vector, one np.kron factor
    per photon, weighed on the frame states outside the distance-t ball.

    Measured photons sit in their post-measurement states; held photons
    stay as Alice encoded them (the state as it stands when the
    commitment is tested)."""
    encoded = tr.w ^ tr.flips
    held = set(tr.strategy.get("stored") or ())
    rot = None if strategy.angle is None else quantum.angle_basis(strategy.angle)
    state = np.array([1.0], dtype=complex)
    for i in range(tr.params.n):
        if i in held:
            factor = quantum.photon(int(encoded[i]), int(tr.theta[i]))
        elif rot is None:
            factor = quantum.photon(int(tr.w_hat[i]), int(tr.theta_hat[i]))
        else:
            factor = rot[:, int(tr.w_hat[i])]
        state = np.kron(state, factor)
    outside = np.setdiff1d(np.arange(state.size), quantum.ball_projector(e, tr.w_hat, t))
    return quantum.small_distance_defect(state, tr.theta_hat, outside)


def test_view_defect_matches_the_kron_reference():
    rng = np.random.default_rng(2024)
    modes = (protocol.Mode.CLASSICAL_FAST, protocol.Mode.EXACT_QUANTUM)
    checked = 0
    for trial in range(40):
        n = int(rng.integers(5, 11))
        N = int(rng.integers(2, 4))
        strategies = [
            attacks.honest(),
            attacks.store_subset(positions=rng.choice(n, size=3, replace=False)),
            attacks.store_subset(count=int(rng.integers(1, n + 1))),
            attacks.fixed_basis(float(rng.uniform(0.0, math.pi))),
            attacks.random_ok(),
        ]
        strat = strategies[trial % len(strategies)]
        params = protocol.ProtocolParams(
            n=n, m=1, r=1, N=N, delta=0.3, noise_p=0.1 * (trial % 2),
            mode=modes[trial // 5 % 2], seed=trial,
        )
        for seed in range(200):
            tr = protocol.run_string_qot(replace(params, seed=seed), [1], bob=strat)
            if tr.abort_reason is None:
                break
        else:
            continue
        for e in (tr.E_c, range(n)):
            for t in range(N + 2):
                got = attacks.view_small_distance_defect(tr, strat, e, t)
                assert got == pytest.approx(kron_view_defect(tr, strat, e, t), abs=1e-12)
        checked += 1
    assert checked >= 35


def reference_tail_over_threshold(probs, t):
    """The tail DP run over every probability, whatever t."""
    if t < 0:
        return 1.0
    dist = np.zeros(t + 1)
    dist[0] = 1.0
    over = 0.0
    for q in probs:
        over += dist[t] * q
        dist[1:] = dist[1:] * (1.0 - q) + dist[:-1] * q
        dist[0] *= 1.0 - q
    return float(over)


def brute_tail(probs, t):
    """P(sum of independent Bernoullis > t) over all 2^len patterns."""
    return sum(
        math.prod(q if bit else 1.0 - q for bit, q in zip(pattern, probs))
        for pattern in product((0, 1), repeat=len(probs))
        if sum(pattern) > t
    )


@settings(max_examples=200, deadline=None)
@given(st.lists(st.floats(0.0, 1.0), max_size=10))
def test_tail_over_threshold_is_the_brute_enumeration(probs):
    """It is also the DP run in full, bit for bit: past t = len(probs) that
    DP reads exactly 0."""
    radii = range(-1, len(probs) + 2)
    tails = [attacks._tail_over_threshold(probs, t) for t in radii]
    for t, got in zip(radii, tails):
        assert got == pytest.approx(brute_tail(probs, t), abs=1e-12)
        assert type(got) is float and got.hex() == reference_tail_over_threshold(probs, t).hex()
    assert all(a >= b - 1e-15 for a, b in zip(tails, tails[1:]))
    assert tails[0] == 1.0 and tails[-2:] == [0.0, 0.0]


def store_defect_oracle(tr, t):
    """Out-of-ball mass of a storing view, computed combinatorially.

    A stored photon whose basis matches the committed one contributes a
    deterministic disagreement bit; a mismatched one splits its weight
    evenly. Everything else sits exactly at the committed outcome."""
    stored = tr.strategy["stored"]
    encoded = tr.w ^ tr.flips
    fixed = sum(
        1 for i in stored
        if tr.theta[i] == tr.theta_hat[i] and encoded[i] != tr.w_hat[i]
    )
    mixed = sum(1 for i in stored if tr.theta[i] != tr.theta_hat[i])
    return sum(
        math.comb(mixed, j) * 0.5 ** mixed
        for j in range(mixed + 1)
        if fixed + j > t
    )


@pytest.mark.parametrize("seed0", [0, 40, 80])
def test_view_defect_store_matches_the_combinatorial_oracle(seed0):
    strat = attacks.store_subset(positions=[0, 2, 5, 6])
    tr = completed_run(strat, seed0=seed0)
    for t in range(6):
        got = attacks.view_small_distance_defect(tr, strat, range(8), t)
        assert got == pytest.approx(store_defect_oracle(tr, t), abs=1e-12)


def test_view_defect_fixed_basis_matches_rotation_tails():
    """Every photon collapses along the measurement angle, so its mass off
    the committed frame coordinate is sin^2 of the angle gap, and the ball
    defect is the matching Poisson binomial tail."""
    strat = attacks.fixed_basis(0.2)
    tr = completed_run(strat, seed0=10)
    probs = [math.sin(int(b) * math.pi / 4 - 0.2) ** 2 for b in tr.theta_hat]
    dist = np.zeros(9)
    dist[0] = 1.0
    for p in probs:
        nxt = np.zeros_like(dist)
        nxt[1:] += dist[:-1] * p
        nxt += dist * (1 - p)
        dist = nxt
    for t in range(9):
        got = attacks.view_small_distance_defect(tr, strat, range(8), t)
        assert got == pytest.approx(float(dist[t + 1:].sum()), abs=1e-12)


def test_view_defect_never_grows_with_the_radius():
    strat = attacks.store_subset(positions=[1, 3, 4])
    tr = completed_run(strat, seed0=20)
    vals = [
        attacks.view_small_distance_defect(tr, strat, range(8), t)
        for t in range(9)
    ]
    assert all(a >= b - 1e-15 for a, b in zip(vals, vals[1:]))
    assert vals[-1] == pytest.approx(0.0, abs=1e-12)


def test_exact_honest_learns_nothing():
    rep = attacks.information_account(exact_params(), attacks.honest(), code=IDENTITY_CODE)
    assert rep.mutual_information == 0.0
    assert rep.pr_pass == pytest.approx(0.355682373046875, abs=1e-12)
    assert rep.product == 0.0
    assert rep.method is attacks.InfoMethod.EXACT_ENUMERATION
    assert rep.small_distance_defect_stats.max == 0.0


def test_exact_store_all_learns_the_whole_string():
    rep = attacks.information_account(
        exact_params(), attacks.store_subset(positions=range(8)), code=IDENTITY_CODE
    )
    assert rep.mutual_information == pytest.approx(1.0, abs=1e-12)
    assert rep.pr_pass == pytest.approx(0.3021430969238281, abs=1e-12)


def test_exact_partial_store_reference_value():
    rep = attacks.information_account(
        exact_params(), attacks.store_subset(positions=[0, 1, 2]), code=IDENTITY_CODE
    )
    assert rep.mutual_information == pytest.approx(0.10933566816241658, abs=1e-12)
    assert rep.pr_pass == pytest.approx(0.34854888916015614, abs=1e-12)
    # the default radius floor(epsilon n) = n swallows every view here
    assert rep.small_distance_defect_stats.max == 0.0


def test_exact_store_defect_positive_at_small_radius():
    rep = attacks.information_account(
        exact_params(epsilon=0.1), attacks.store_subset(positions=[0, 1, 2]),
        code=IDENTITY_CODE,
    )
    assert rep.small_distance_defect_stats.max > 0.0
    # the radius only enters the defect summary, never the accounting
    assert rep.mutual_information == pytest.approx(0.10933566816241658, abs=1e-12)


def test_exact_defect_is_the_tail_of_the_slot_chances():
    """At radius 0 a view class leaves the ball unless no slot of E_c
    disagrees: blind slots never do, held slots with chance 1/2, and a
    fixed-angle slot with the squared overlap of its post-measurement
    state with the flipped bit of the receiver's (mismatched) basis."""
    params = exact_params(epsilon=0.1)
    honest = attacks.information_account(params, attacks.honest(), code=IDENTITY_CODE)
    assert honest.small_distance_defect_stats == attacks.DefectStats(max=0.0, mean=0.0)
    store = attacks.information_account(
        params, attacks.store_subset(positions=[0, 1, 2]), code=IDENTITY_CODE
    ).small_distance_defect_stats
    assert store.max == 0.75  # both slots held
    assert store.mean == pytest.approx(0.3517839553463937, abs=1e-12)
    fixed = attacks.information_account(
        params, attacks.fixed_basis(0.3), code=IDENTITY_CODE
    ).small_distance_defect_stats
    on_plus, on_cross = (1 - math.sin(0.6)) / 2, math.sin(0.3) ** 2
    assert fixed.max == pytest.approx(1 - (1 - on_plus) ** 2, abs=1e-12)
    assert fixed.mean == pytest.approx(1 - (1 - (on_plus + on_cross) / 2) ** 2, abs=1e-12)


def test_exact_disjoint_store_learns_nothing():
    rep = attacks.information_account(
        exact_params(), attacks.store_subset(positions=[0, 1, 2]),
        code=IDENTITY_CODE, require_disjoint_store=True,
    )
    assert rep.mutual_information == 0.0
    # the conditioning changes the information, never the pass probability
    assert rep.pr_pass == pytest.approx(0.34854888916015614, abs=1e-12)


@pytest.mark.parametrize("noise_p", [0.0, 0.05])
def test_exact_zeros_stay_exact(noise_p):
    """Honest receivers and storers conditioned on E_c missing their store
    learn nothing at every shape within the caps, and the account reads
    exactly 0.0 there, not a rounding residue."""
    checked = 0
    for n, N, m, r in product((6, 8, 10), (2, 3), (1, 2), (0, 1)):
        if r + m > N:
            continue
        params = exact_params(n=n, N=N, m=m, r=r, delta=0.25, noise_p=noise_p, epsilon=0.1, seed=1)
        for strategy, disjoint in (
            (attacks.honest(), False),
            (attacks.store_subset(positions=[0]), True),
            (attacks.store_subset(positions=range(0, n, 2)), True),
        ):
            rep = attacks.information_account(params, strategy, require_disjoint_store=disjoint)
            assert (rep.mutual_information, rep.product) == (0.0, 0.0)
            checked += 1
    assert checked == 63


def test_exact_fixed_basis_zero_angle_halves_the_mask():
    """At angle 0 every photon collapses in +. On E_c the mask bit from a
    cross-encoded slot stays uniform while a plus-encoded slot is learned
    outright, and with the identity code the two slots are read off
    separately: exactly half of the one-bit string leaks per basis draw."""
    rep = attacks.information_account(
        exact_params(), attacks.fixed_basis(0.0), code=IDENTITY_CODE
    )
    assert rep.mutual_information == pytest.approx(0.5, abs=1e-12)
    assert rep.pr_pass == pytest.approx(0.34038662910461426, abs=1e-12)


def test_exact_fixed_basis_intermediate_angle_reference_value():
    rep = attacks.information_account(
        exact_params(), attacks.fixed_basis(math.pi / 8), code=IDENTITY_CODE
    )
    assert rep.mutual_information == pytest.approx(0.39912396330714384, abs=1e-12)


def test_exact_engine_noisy_reference_values():
    noisy = exact_params(delta=0.25, noise_p=0.1)
    rep = attacks.information_account(
        noisy, attacks.store_subset(positions=[0, 1, 2]), code=IDENTITY_CODE
    )
    assert rep.mutual_information == pytest.approx(0.05698399676042609, abs=1e-12)
    assert rep.pr_pass == pytest.approx(0.35491873168945337, abs=1e-12)
    honest = attacks.information_account(noisy, attacks.honest(), code=IDENTITY_CODE)
    assert honest.mutual_information == 0.0
    fixed = attacks.information_account(
        noisy, attacks.fixed_basis(math.pi / 8), code=IDENTITY_CODE
    )
    assert fixed.mutual_information == pytest.approx(0.2450572820572059, abs=1e-12)
    assert fixed.pr_pass == pytest.approx(0.35502509067339655, abs=1e-12)


def test_exact_random_ok_is_the_branch_mixture():
    params = exact_params()
    mix = attacks.information_account(params, attacks.random_ok(), code=IDENTITY_CODE)
    hon = attacks.information_account(params, attacks.honest(), code=IDENTITY_CODE)
    allin = attacks.information_account(
        params, attacks.store_subset(positions=range(8)), code=IDENTITY_CODE
    )
    assert mix.pr_pass == pytest.approx(0.5 * (hon.pr_pass + allin.pr_pass), abs=1e-12)
    # honest branch posterior stays flat, store branch resolves b, so
    # I = 1 - (1/2) Pr(pass | honest) / Pr(pass | mixed)
    expect = 1.0 - 0.5 * hon.pr_pass / mix.pr_pass
    assert mix.mutual_information == pytest.approx(expect, abs=1e-12)


def test_exact_engine_respects_priors():
    rep = attacks.information_account(
        exact_params(), attacks.store_subset(positions=range(8)),
        code=IDENTITY_CODE, prior=[1.0, 0.0],
    )
    assert rep.mutual_information == 0.0
    with pytest.raises(DimensionError):
        attacks.information_account(
            exact_params(), attacks.honest(), code=IDENTITY_CODE, prior=[1.0, 0.0, 0.0]
        )
    for prior in ([-1.0, 2.0], [math.nan, 1.0], [math.nan, math.nan], [math.inf, 0.0]):
        for method in attacks.InfoMethod:
            with pytest.raises(DomainError, match="prior"):
                attacks.information_account(
                    exact_params(), attacks.honest(), code=IDENTITY_CODE, prior=prior,
                    method=method,
                )


def test_exact_engine_caps_and_budget():
    with pytest.raises(ResourceError):
        attacks.information_account(exact_params(n=11, N=2), attacks.honest())
    with pytest.raises(ResourceError):
        attacks.information_account(exact_params(n=10, N=4, delta=0.1), attacks.honest())
    with pytest.raises(ResourceError):
        attacks.information_account(exact_params(m=3, r=0, N=3), attacks.honest())
    with pytest.raises(ResourceError) as exc_info:
        attacks.information_account(exact_params(), attacks.honest(), budget=5)
    assert exc_info.value.estimated_statespace > 5


@pytest.mark.parametrize("budget", [0, -2])
def test_non_positive_budgets_are_rejected(budget):
    for method in attacks.InfoMethod:
        with pytest.raises(DomainError):
            attacks.information_account(
                exact_params(), attacks.honest(), method=method, budget=budget,
                code=IDENTITY_CODE,
            )


def test_exact_engine_rejects_underspecified_stores():
    with pytest.raises(DomainError):
        attacks.information_account(exact_params(), attacks.store_subset(count=2))
    with pytest.raises(DomainError):
        attacks.information_account(
            exact_params(), attacks.honest(), require_disjoint_store=True
        )


def test_exact_engine_rejects_a_store_no_announced_set_can_miss():
    """Storing every photon leaves no E_c disjoint from the store, so the
    event the account conditions on has probability zero."""
    with pytest.raises(DomainError, match="conditioning event has probability zero"):
        attacks.information_account(
            exact_params(), attacks.store_subset(positions=range(8)), require_disjoint_store=True
        )


@pytest.mark.parametrize("strategy", [attacks.honest(), attacks.store_subset(positions=[0, 1])])
def test_monte_carlo_rejects_disjointness_conditioning(strategy):
    with pytest.raises(DomainError, match="exact method"):
        attacks.information_account(
            exact_params(), strategy, method=attacks.InfoMethod.MONTE_CARLO,
            budget=5, require_disjoint_store=True,
        )


@settings(max_examples=150, deadline=None)
@given(angle=st.floats(-7.0, 7.0), noise_p=st.sampled_from([0.0, 0.05, 0.1, 0.3]),
       seed=st.integers(0, 3))
def test_engine_slots_take_their_born_numbers_from_born_p1(angle, noise_p, seed):
    """Every table and chance a fixed-angle engine run uses, and its test
    error rate, is a plain two-product _born_p1 value: reading obs from
    the state bit at angle a is reading 1 from state bit ^ obs ^ 1."""
    born = protocol._born_p1.__wrapped__
    frame = (0.0, math.pi / 4)  # indexed by quantum.PLUS, quantum.CROSS

    def want(basis):
        def read(obs, bit):
            return born(frame[basis], bit ^ obs ^ 1, angle)
        table = [[(1 - noise_p) * read(obs, bit) + noise_p * read(obs, 1 - bit)
                  for bit in (0, 1)] for obs in (0, 1)]
        return table, born(angle, 0, frame[1 - basis])

    seen = {"tables": set(), "chances": set(), "p_rest": set()}
    joint, tail, weights = attacks._class_joint, attacks._tail_over_threshold, attacks._geometry_weights

    def spy_joint(tables, cols, width):
        seen["tables"].update(json.dumps(np.asarray(t).tolist()) for t in tables)
        return joint(tables, cols, width)

    def spy_tail(chances, t):
        seen["chances"].update(chances)
        return tail(chances, t)

    def spy_weights(n, N, held, thr, p_held, p_rest):
        seen["p_rest"].add(p_rest)
        return weights(n, N, held, thr, p_held, p_rest)

    params = exact_params(n=6, N=2, noise_p=noise_p, epsilon=0.2, seed=seed)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(attacks, "_class_joint", spy_joint)
        patch.setattr(attacks, "_tail_over_threshold", spy_tail)
        patch.setattr(attacks, "_geometry_weights", spy_weights)
        attacks.information_account(params, attacks.fixed_basis(angle))
    (plus, on_plus), (cross, on_cross) = want(quantum.PLUS), want(quantum.CROSS)
    assert seen["tables"] == {json.dumps(plus), json.dumps(cross)}
    assert seen["chances"] == {on_plus, on_cross}
    assert seen["p_rest"] == {0.5 * (plus[1][0] + cross[1][0])}


def test_information_account_validates_code_dimensions():
    bad = gf2.LinearCode(f=gf2.bitmatrix(["110", "011"]), r=1, m=1)
    with pytest.raises(DimensionError):
        attacks.information_account(exact_params(), attacks.honest(), code=bad)


def test_default_code_draw_is_full_rank_and_seeded():
    a = attacks.information_account(exact_params(seed=41), attacks.honest())
    b = attacks.information_account(exact_params(seed=41), attacks.honest())
    assert a == b
    assert a.mutual_information == 0.0


# ---------------------------------------------------------------------------
# exact engine building blocks against brute references

def ref_binom_pmf(size, p):
    return np.array([math.comb(size, j) * p**j * (1 - p) ** (size - j) for j in range(size + 1)])


@cache
def ref_pass_prob(x, y, p_f, p_rest, thr):
    """P(Bin(x, p_f) + Bin(y, p_rest) <= thr)."""
    if thr < 0:
        return 0.0
    a = ref_binom_pmf(x, p_f)
    b = ref_binom_pmf(y, p_rest)
    return sum(a[j] * float(np.sum(b[: max(0, thr - j + 1)])) for j in range(min(x, thr) + 1))


@cache
def ref_role_triples(size):
    """(tested, candidate, spare, weight) over `size` iid positions whose
    four roles are equally likely."""
    out = []
    for x in range(size + 1):
        for v in range(size - x + 1):
            for z in range(size - x - v + 1):
                w = size - x - v - z
                coef = math.factorial(size) // (
                    math.factorial(x) * math.factorial(v) * math.factorial(z) * math.factorial(w)
                )
                out.append((x, v, z, coef * 0.25**size))
    return out


def ref_geometry_weight(n, N, nf, thr, p_store, p_rest, j):
    """P(E_1 = e, pass, both sets exist) for a set e absorbing j of the nf
    held positions, summed over the multinomial role counts of the held
    and unheld positions outside e."""
    alpha = nf - j
    beta = (n - nf) - (N - j)
    if alpha < 0 or beta < 0:
        return 0.0
    total = 0.0
    for x1, v1, z1, w1 in ref_role_triples(alpha):
        for x2, v2, z2, w2 in ref_role_triples(beta):
            if z1 + z2 >= N:
                pw = ref_pass_prob(x1, x2, p_store, p_rest, thr)
                total += w1 * w2 * pw / math.comb(N + v1 + v2, N)
    return total * 0.25**N


def test_geometry_weights_match_the_role_triple_sum():
    checked = 0
    for n in range(2, 11):
        for N, delta, p in product(range(1, 4), (0.0, 0.1, 0.25, 0.5), (0.0, 0.1)):
            thr = math.floor(delta * n)
            for held, p_held in product(range(n + 1), {0.5, p}):
                got = attacks._geometry_weights(n, N, held, thr, p_held, p)
                want = [ref_geometry_weight(n, N, held, thr, p_held, p, j) for j in range(N + 1)]
                assert got.shape == (N + 1,)
                assert np.allclose(got, want, rtol=0.0, atol=1e-12 * max(max(want), 1e-300))
                checked += 1
    assert checked > 1500


def ref_class_entropy(code, prior, likelihood, syn, hmap):
    """E[H(B | view)] within one view class, by loops over true words,
    observations and strings."""
    size = 1 << code.N
    m2 = prior.size
    total = 0.0
    for u_true in range(size):
        s = syn[u_true]
        t_true = hmap[u_true]
        coset = np.nonzero(syn == s)[0]
        for o in range(likelihood.shape[0]):
            po = likelihood[o, u_true]
            if po == 0.0:
                continue
            weights = likelihood[o, coset]
            z = weights.sum()
            if z <= 0.0:
                continue
            pi = np.zeros(m2)
            np.add.at(pi, hmap[coset], weights / z)
            h_here = 0.0
            for b in range(m2):
                if prior[b] == 0.0:
                    continue
                a = t_true ^ b
                post = prior * pi[np.arange(m2) ^ a]
                zz = post.sum()
                if zz > 0:
                    h_here += prior[b] * attacks._entropy_bits(post / zz)
            total += po * h_here
    return float(total / size)


@st.composite
def entropy_classes(draw):
    """A code (rank-deficient f allowed), a likelihood table with some rows
    and columns zeroed, and a prior with zero entries allowed."""
    N = draw(st.integers(1, 3))
    m = draw(st.integers(1, min(2, N)))
    r = draw(st.integers(0, N - m))
    bits = draw(st.lists(st.integers(0, 1), min_size=(r + m) * N, max_size=(r + m) * N))
    code = gf2.LinearCode(f=np.array(bits, dtype=np.uint8).reshape(r + m, N), r=r, m=m)
    rows = draw(st.integers(1, 4))
    cells = st.lists(st.floats(0.0, 1.0), min_size=rows << N, max_size=rows << N)
    like = np.array(draw(cells)).reshape(rows, 1 << N)
    like[np.array(draw(st.lists(st.booleans(), min_size=rows, max_size=rows)))] = 0.0
    like[:, np.array(draw(st.lists(st.booleans(), min_size=1 << N, max_size=1 << N)))] = 0.0
    prior = np.array(draw(st.lists(
        st.sampled_from([0.0, 0.1, 0.5, 1.0]), min_size=1 << m, max_size=1 << m
    ).filter(any)))
    return code, prior / prior.sum(), like


def ref_word_syndromes(cols, N):
    """f u for every word u of N bits, slot 0 most significant in u: the
    xor of the columns of f that u picks."""
    words = np.arange(1 << N)
    fu = np.zeros(1 << N, dtype=np.int64)
    for i, c in enumerate(cols):
        fu[(words >> (N - 1 - i)) & 1 == 1] ^= c
    return fu


def ref_bin_words(likelihood, fu, width):
    """joint[o, y]: likelihood[o, u] summed over the words u with f u = y."""
    joint = np.zeros((likelihood.shape[0], 1 << width))
    np.add.at(joint, (slice(None), fu), likelihood)
    return joint


def ref_class_joint(tables, cols, width):
    """The kron-and-bin form of _class_joint: the likelihood of every
    observation and word as the Kronecker product of the slot tables,
    binned by the words' syndromes."""
    like = reduce(np.kron, tables, np.ones((1, 1)))
    return ref_bin_words(like, ref_word_syndromes(cols, len(cols)), width)


def code_columns(code):
    """Column i of f as an (r+m)-bit syndrome, g bits first."""
    return [gf2.pack_int(col) for col in code.f.T]


@settings(max_examples=300, deadline=None)
@given(entropy_classes())
def test_class_entropy_matches_the_loop_over_words(case):
    """_class_entropy on arbitrary (non-product) likelihood tables, binned
    by the reference, against the loop over true words."""
    code, prior, like = case
    fu = ref_word_syndromes(code_columns(code), code.N)
    syn, hmap = fu >> code.m, fu & ((1 << code.m) - 1)
    got = attacks._class_entropy(code, prior, ref_bin_words(like, fu, code.r + code.m))
    assert got == pytest.approx(ref_class_entropy(code, prior, like, syn, hmap), abs=1e-12)


def posterior_class_entropy(code, prior, joint):
    """The posterior form of _class_entropy: normalise prior[b] joint[o, s,
    a ^ b] over b for every (o, s, a), take its entropy, and average it
    over the true mask t and string b with a = t ^ b."""
    m2 = prior.size
    joint = joint.reshape(joint.shape[0], 1 << code.r, m2)  # joint[o, s, t]
    xor = np.arange(m2)[:, None] ^ np.arange(m2)
    post = prior * joint[:, :, xor]
    z = post.sum(axis=-1, keepdims=True)
    post = np.divide(post, z, out=np.zeros_like(post), where=z > 0)
    logs = np.log2(post, out=np.zeros_like(post), where=post > 0)
    ent = -np.sum(post * logs, axis=-1)
    return float(np.sum(joint * (ent[:, :, xor] @ prior)) / (1 << code.N))


@st.composite
def binned_classes(draw):
    """An entropy_classes case binned by its words' syndromes, at the mass
    it was drawn with (Z = sum joint / 2^N arbitrary), rescaled to Z = 1 as
    in every class of the engine, or zeroed outright (Z = 0)."""
    code, prior, like = draw(entropy_classes())
    joint = ref_bin_words(like, ref_word_syndromes(code_columns(code), code.N), code.r + code.m)
    mass = draw(st.sampled_from(["drawn", "normalised", "zero"]))
    if mass == "normalised" and joint.sum() > 0:
        joint = joint / joint.sum() * (1 << code.N)
    elif mass == "zero":
        joint[:] = 0.0
    return code, prior, joint


@settings(max_examples=300, deadline=None)
@given(binned_classes())
def test_class_entropy_matches_the_posterior_form(case):
    """Z H(B) + H(q) - H(q_A) is the posterior form's average entropy,
    whatever the mass, zero rows and columns, zero prior entries or rank
    of f."""
    code, prior, joint = case
    got = attacks._class_entropy(code, prior, joint)
    assert got == pytest.approx(posterior_class_entropy(code, prior, joint), abs=1e-12)
    if not joint.any():
        assert got == 0.0


@st.composite
def slot_classes(draw):
    """A code of up to ten columns (r = 0 allowed; zero rows make f
    rank-deficient, and some columns are zero) with one slot table per
    column: blind slots read one all-ones row, the rest one or two rows of
    entries that are 0 or at least 1e-3, so no product underflows."""
    N = draw(st.integers(1, 10))
    m = draw(st.integers(1, min(3, N)))
    r = draw(st.integers(0, min(2, N - m)))
    f = np.array(draw(st.lists(st.integers(0, 1), min_size=(r + m) * N, max_size=(r + m) * N)),
                 dtype=np.uint8).reshape(r + m, N)
    f[np.array(draw(st.lists(st.booleans(), min_size=r + m, max_size=r + m)))] = 0
    f[:, np.array(draw(st.lists(st.booleans(), min_size=N, max_size=N)))] = 0
    entry = st.one_of(st.just(0.0), st.floats(1e-3, 1.0))
    tables = []
    for _ in range(N):
        rows = draw(st.integers(0, 2))
        if rows == 0:
            tables.append(np.ones((1, 2)))
        else:
            tables.append(np.array(draw(st.lists(entry, min_size=2 * rows, max_size=2 * rows)))
                          .reshape(rows, 2))
    prior = np.array(draw(st.lists(
        st.sampled_from([0.0, 0.1, 0.5, 1.0]), min_size=1 << m, max_size=1 << m
    ).filter(any)))
    return gf2.LinearCode(f=f, r=r, m=m), tables, prior / prior.sum()


@settings(max_examples=150, deadline=None)
@given(slot_classes())
def test_class_joint_matches_kron_and_bin(case):
    code, tables, prior = case
    width = code.r + code.m
    cols = np.array(code_columns(code), dtype=np.int64)
    got = attacks._class_joint(tables, cols, width)
    want = ref_class_joint(tables, cols, width)
    assert got.shape == want.shape
    # every term is nonnegative, so a bin is zero exactly when all its terms are
    assert np.array_equal(got == 0.0, want == 0.0)
    assert np.allclose(got, want, rtol=1e-12, atol=0.0)
    assert attacks._class_entropy(code, prior, got) == pytest.approx(
        attacks._class_entropy(code, prior, want), rel=1e-12, abs=1e-14
    )


@pytest.mark.parametrize("strategy, disjoint", [
    (attacks.honest(), False),
    (attacks.store_subset(positions=[0, 3, 5, 8]), False),
    (attacks.store_subset(positions=[0, 3, 5, 8]), True),
    (attacks.fixed_basis(math.pi / 8), False),
    (attacks.random_ok(), False),
], ids=["honest", "store", "store-disjoint", "fixed", "random-ok"])
def test_engine_agrees_with_the_kron_and_bin_likelihoods(monkeypatch, strategy, disjoint):
    params = exact_params(n=10, N=3, r=1, m=2, delta=0.2, noise_p=0.05, epsilon=0.1, seed=3)
    code = gf2.LinearCode(f=gf2.bitmatrix(["101", "011", "111"]), r=1, m=2)
    kw = dict(code=code, require_disjoint_store=disjoint)
    want = attacks.information_account(params, strategy, **kw)
    code_cols = []

    def reference(tables, cols, width):
        code_cols.append(list(cols))
        return ref_class_joint(tables, cols, width)

    monkeypatch.setattr(attacks, "_class_joint", reference)
    got = attacks.information_account(params, strategy, **kw)
    assert code_cols[0] == [5, 3, 7]  # f's columns, g bit first
    for field in ("pr_pass", "mutual_information", "product"):
        assert getattr(got, field) == pytest.approx(getattr(want, field), rel=1e-12)
    assert got.small_distance_defect_stats == want.small_distance_defect_stats
    assert got.samples_or_statespace == want.samples_or_statespace


@settings(max_examples=200, deadline=None)
@given(st.lists(st.booleans(), max_size=10), st.integers(1, 4))
def test_pattern_counts_match_the_candidate_sets(held, N):
    want = Counter(
        tuple("held" if held[pos] else "blind" for pos in e)
        for e in combinations(range(len(held)), N)
    )
    assert attacks._pattern_counts(np.array(held, dtype=bool), N) == dict(want)


# ---------------------------------------------------------------------------
# information accounting, Monte Carlo

def dict_view_summary(tr, strategy):
    """The view digest read position by position through a dict of the
    deferred outcomes: the reference for the array form."""
    deferred = dict(zip(tr.deferred.positions.tolist(), tr.deferred.bits.tolist()))
    ec = [int(i) for i in tr.E_c]
    base = (tuple(int(b) for b in tr.s), tuple(int(b) for b in tr.a))
    known = tuple((k, deferred[i]) for k, i in enumerate(ec) if i in deferred)
    if strategy.angle is None:
        return base + (known,)
    return base + (
        known,
        tuple(int(tr.w_hat[i]) for i in ec),
        tuple(int(tr.theta[i]) for i in ec),
    )


@pytest.mark.parametrize("strategy", [
    attacks.honest(), attacks.store_subset(positions=[1, 4, 7]),
    attacks.store_subset(count=5), attacks.random_ok(), attacks.fixed_basis(0.3),
])
def test_view_summary_matches_the_dict_reference(strategy):
    held_slots = 0
    for seed in range(40):
        params = protocol.ProtocolParams(n=10, m=1, r=1, N=3, delta=0.3, seed=seed)
        tr = protocol.run_string_qot(params, [1], bob=strategy, force_c=1, announce_rest=True)
        if tr.abort_reason is not None:
            continue
        summary = attacks._view_summary(tr, strategy)
        assert summary == dict_view_summary(tr, strategy)
        held_slots += len(summary[2])
    if strategy.kind in (attacks.StrategyKind.STORE_SUBSET, attacks.StrategyKind.RANDOM_OK):
        assert held_slots > 0


def dict_plugin_mi(pairs):
    """The plug-in mutual information term by term over three dicts of
    counts: the reference for the entropy-difference form."""
    if not pairs:
        return math.nan
    total = len(pairs)
    joint, left, right = {}, {}, {}
    for v, b in pairs:
        joint[(v, b)] = joint.get((v, b), 0) + 1
        left[v] = left.get(v, 0) + 1
        right[b] = right.get(b, 0) + 1
    mi = 0.0
    for (v, b), c in joint.items():
        pj = c / total
        mi += pj * math.log2(pj * total * total / (left[v] * right[b]))
    return max(0.0, mi)


view_digests = st.tuples(st.integers(0, 3), st.integers(0, 1))
string_tuples = st.tuples(st.integers(0, 1), st.integers(0, 1))


@settings(max_examples=300, deadline=None)
@given(st.lists(st.tuples(view_digests, string_tuples), max_size=60))
def test_plugin_mi_matches_the_dict_reference(pairs):
    got = attacks._plugin_mi(pairs)
    if not pairs:
        assert math.isnan(got)
        return
    assert got == pytest.approx(dict_plugin_mi(pairs), abs=1e-12)
    assert got >= 0.0


@settings(max_examples=200, deadline=None)
@given(st.lists(view_digests, min_size=1, max_size=40),
       st.lists(string_tuples, min_size=1, max_size=40))
def test_plugin_mi_is_exactly_zero_on_a_constant_side(views, strings):
    """One string throughout, or one view throughout, carries no
    information, and the estimate says so exactly."""
    assert attacks._plugin_mi([(v, strings[0]) for v in views]) == 0.0
    assert attacks._plugin_mi([(views[0], b) for b in strings]) == 0.0


@pytest.mark.parametrize(
    "strategy, noise_p",
    [
        (attacks.store_subset(positions=range(8)), 0.0),
        (attacks.honest(), 0.0),
        (attacks.store_subset(positions=[0, 1, 2]), 0.0),
        (attacks.fixed_basis(0.3), 0.05),
        (attacks.random_ok(), 0.0),
    ],
    ids=["store-all", "honest", "store-part", "fixed-noisy", "random-ok"],
)
def test_monte_carlo_agrees_with_exact_enumeration(strategy, noise_p):
    # epsilon = 0 puts the defect at radius 0, where it is nonzero for every
    # strategy but honest; it enters neither pr_pass nor the information
    params = exact_params(seed=51, noise_p=noise_p, epsilon=0.0)
    exact = attacks.information_account(params, strategy, code=IDENTITY_CODE)
    mc = attacks.information_account(
        params, strategy,
        method=attacks.InfoMethod.MONTE_CARLO, budget=3000,
        rng=stream(7, "mc"), code=IDENTITY_CODE,
    )
    assert mc.method is attacks.InfoMethod.MONTE_CARLO
    assert mc.samples_or_statespace > 0
    sigma = math.sqrt(exact.pr_pass * (1 - exact.pr_pass) / 3000)
    assert abs(mc.pr_pass - exact.pr_pass) < 4 * sigma
    # the plug-in estimate is biased up, never far below the exact value;
    # keyed by slot of E_c, its alphabet is small enough to stay close above
    assert mc.mutual_information > exact.mutual_information - 0.1
    assert mc.mutual_information < exact.mutual_information + 0.1
    # a defect lies in [0, 1], so its sample mean has standard error <= 1/2 / sqrt(samples)
    d_exact, d_mc = exact.small_distance_defect_stats, mc.small_distance_defect_stats
    assert abs(d_mc.mean - d_exact.mean) < 4 * 0.5 / math.sqrt(mc.samples_or_statespace)
    assert d_mc.max <= d_exact.max + 1e-12


def test_monte_carlo_honest_excess_is_plugin_bias_sized():
    params = exact_params(seed=52)
    mc = attacks.information_account(
        params, attacks.honest(),
        method=attacks.InfoMethod.MONTE_CARLO, budget=8000,
        rng=stream(8, "mc"), code=IDENTITY_CODE,
    )
    assert mc.mutual_information < 0.08


@pytest.mark.parametrize("trials", [0, -2])
def test_random_ok_decomposition_needs_a_trial(trials):
    with pytest.raises(DomainError, match="trials"):
        attacks.random_ok_decomposition(exact_params(), trials)


def test_random_ok_decomposition_balances():
    params = exact_params(seed=53, delta=0.25)
    br = attacks.random_ok_decomposition(params, 300, rng=stream(9, "br"))
    assert br.trials == 300
    sigma = math.sqrt(0.25 / 300) * 1.5
    assert abs(br.residual) < 4 * sigma
    assert br.pass_mixed == pytest.approx(
        0.5 * (br.pass_honest + br.pass_store_all) + br.residual
    )


def test_monte_carlo_pass_rate_agrees_with_exact_at_a_fractional_threshold():
    """At delta n = 0.5 the test allows floor(0.5) = 0 disagreements. A
    store-all receiver passes with chance 0.175 by the exact engine and
    in a run; reading the threshold as ceil(0.5) = 1 would give 0.392,
    about 11 sigma away at 400 runs."""
    params = exact_params(n=10, N=2, delta=0.05, mode=protocol.Mode.CLASSICAL_FAST, seed=1)
    store_all = attacks.store_subset(positions=range(10))
    exact = attacks.information_account(params, store_all)
    mc = attacks.information_account(params, store_all, method=attacks.InfoMethod.MONTE_CARLO,
                                     budget=400)
    sigma = math.sqrt(exact.pr_pass * (1 - exact.pr_pass) / 400)
    assert abs(mc.pr_pass - exact.pr_pass) < 4 * sigma
    assert exact.pr_pass == pytest.approx(0.1751140952)


# sha256 of the sorted-key JSON of InfoReport.to_json() for 16-run Monte
# Carlo accounts: the attack bench's shapes under EXACT_QUANTUM (n = 12,
# N = 2, r = 1, m = 1, a store set and the coin) at three seeds, and one
# CLASSICAL_FAST fixed-angle receiver. They pin the re-seeded, force_c = 1,
# announce_rest, pinned-code runs the engine makes. The last four add an
# m = 2 prior with a zero entry (the string draw's CDF), a drawn store set,
# an honest receiver and a CLASSICAL_FAST coin
FROZEN_MONTE_CARLO = {
    "store seed=1": "92f22147a6ba87a5a405210e8f87a233881981e3055beff353df19ebb22a7939",
    "random_ok seed=1": "55796d167f2fa6f37f7044faf7a1d1e87f2e5146f45a13077a314f149d09ce5a",
    "store seed=2": "e77fc05c8673fc2cd5919155468d7cceed7557f9ce9e8b706a55f818fc0be065",
    "random_ok seed=2": "93dcbff670d0ec5cf027c427d920a5afe93c435c59bc9b27b00c07a045736db7",
    "store seed=3": "bac941f4df994c52954b73c7c4d4ce71371b78bf295d3119f4b75c883756e7da",
    "random_ok seed=3": "e86a710dc6fd2d456235c4ce5d3bbababfd3fd7bd1b6d4e2dcc19a719cb6ee58",
    "fixed_basis classical seed=4": "f51a67d8be804ac3b355a6ec71f41a5423afba0f34b54c280550acfb27bc88c1",
    "store prior m=2 seed=5": "424b3c1117ee15a0211b26c03e2223680c2e72f4afd1860ca2e13f043dd9996c",
    "store count seed=6": "478346969def8a628cd2ed45800bec28e8782a977a18f8b7b8581991eb001b71",
    "honest seed=7": "b9ff09f4804874fedd19d201e4d56e29ea4549d87a121ef6d580148d905756e8",
    "random_ok classical seed=8": "aba8384f8c3e9f02f54fb13e2defc3d4b843bd1a71ea17b751b50c391789958a",
}


def test_monte_carlo_reports_keep_their_frozen_digests():
    def params(seed, mode=protocol.Mode.EXACT_QUANTUM, **kw):
        return protocol.ProtocolParams(**{**dict(n=12, m=1, r=1, N=2, delta=0.5, epsilon=0.05,
                                                 noise_p=0.05, mode=mode, seed=seed), **kw})
    classical = protocol.Mode.CLASSICAL_FAST
    cases = {}
    for seed in (1, 2, 3):
        cases[f"store seed={seed}"] = (params(seed), attacks.store_subset(positions=[0, 3, 5, 7]),
                                       None)
        cases[f"random_ok seed={seed}"] = params(seed), attacks.random_ok(), None
    cases["fixed_basis classical seed=4"] = params(4, classical), attacks.fixed_basis(0.3), None
    cases["store prior m=2 seed=5"] = (params(5, n=16, m=2, N=3),
                                       attacks.store_subset(positions=[1, 4, 9]),
                                       [0.5, 0.0, 0.125, 0.375])
    cases["store count seed=6"] = params(6), attacks.store_subset(count=3), None
    cases["honest seed=7"] = params(7), attacks.honest(), None
    cases["random_ok classical seed=8"] = params(8, classical), attacks.random_ok(), None
    digests = {}
    for name, (p, strategy, prior) in cases.items():
        report = attacks.information_account(p, strategy, method=attacks.InfoMethod.MONTE_CARLO,
                                             budget=16, prior=prior)
        text = json.dumps(report.to_json(), sort_keys=True)
        digests[name] = hashlib.sha256(text.encode()).hexdigest()
    assert digests == FROZEN_MONTE_CARLO


def reference_monte_carlo_engine(params, strategy, code, prior, budget, rng):
    """The Monte Carlo engine as it drew each string: rng.choice over the
    prior, then unpack_int, once per trial."""
    m = params.m
    passes = 0
    pairs, defects = [], []
    t_defect = int(math.floor(params.epsilon * params.n))
    for trial in range(budget):
        b_idx = int(rng.choice(1 << m, p=prior))
        b = gf2.unpack_int(b_idx, m)
        run_params = params._reseeded(int(rng.integers(0, 2**62)))
        tr = protocol.run_string_qot(
            run_params, b, bob=strategy, force_c=1, announce_rest=True, code=code
        )
        if tr.abort_reason is not None:
            continue
        passes += 1
        pairs.append((attacks._view_summary(tr, strategy), tuple(int(x) for x in tr.b)))
        defects.append(attacks.view_small_distance_defect(tr, strategy, tr.E_c, t_defect))
    stats = None
    if defects:
        stats = attacks.DefectStats(max=float(np.max(defects)), mean=float(np.mean(defects)))
    return attacks.InfoReport(
        pr_pass=passes / budget, mutual_information=attacks._plugin_mi(pairs),
        method=attacks.InfoMethod.MONTE_CARLO, samples_or_statespace=len(pairs),
        small_distance_defect_stats=stats,
    )


@settings(max_examples=40, deadline=None)
@given(
    m=st.integers(1, 2),
    weights=st.lists(st.integers(0, 3), min_size=4, max_size=4).filter(any),
    strategy=st.sampled_from([attacks.honest(), attacks.random_ok(), attacks.fixed_basis(0.3),
                              attacks.store_subset(positions=[0, 5]),
                              attacks.store_subset(count=2)]),
    seed=st.integers(0, 2**32),
)
def test_monte_carlo_engine_matches_the_per_trial_draw_reference(m, weights, strategy, seed):
    """Priors with zero entries, m up to 2: the engine's one CDF per
    account draws the strings rng.choice drew, so the reports and the
    generator states are the reference's."""
    weights = weights[: 1 << m]
    if not any(weights):
        weights[-1] = 1
    prior = attacks._normalize_prior(np.array(weights) / sum(weights), m)
    params = protocol.ProtocolParams(n=10, m=m, r=1, N=m + 1, delta=0.3, epsilon=0.1,
                                     noise_p=0.05, mode=protocol.Mode.CLASSICAL_FAST, seed=seed)
    rng = np.random.default_rng(seed)
    code = gf2.LinearCode(f=gf2.random_bitmatrix(rng, m + 1, m + 1), r=1, m=m)
    got_rng, want_rng = (np.random.default_rng(seed + 1) for _ in range(2))
    got = attacks._monte_carlo_engine(params, strategy, code, prior, 6, got_rng)
    want = reference_monte_carlo_engine(params, strategy, code, prior, 6, want_rng)
    assert json.dumps(got.to_json()) == json.dumps(want.to_json())
    assert got_rng.bit_generator.state == want_rng.bit_generator.state


@settings(max_examples=200, deadline=None)
@given(weights=st.lists(st.integers(0, 5), min_size=1, max_size=8).filter(any),
       seed=st.integers(0, 2**32))
def test_a_cdf_draw_is_rng_choice_with_p(weights, seed):
    """What the engine relies on: rng.choice(k, p=prior) reads one double
    against the normalised cumulative sum, side right."""
    prior = np.array(weights) / sum(weights)
    cdf = prior.cumsum()
    cdf /= cdf[-1]
    choice, by_cdf = (np.random.default_rng(seed) for _ in range(2))
    for _ in range(4):
        assert int(choice.choice(prior.size, p=prior)) == int(
            cdf.searchsorted(by_cdf.random(), side="right"))
    assert choice.bit_generator.state == by_cdf.bit_generator.state
