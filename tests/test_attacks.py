"""Receiver strategies, storage statistics, view diagnostics, and the
information accounting engine.

The exact-enumeration reference values pinned here were cross-checked
against the Monte Carlo estimator when they were first computed; they are
regression anchors, not definitions.
"""

import json
import math
from dataclasses import replace
from functools import cache
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
    desc = attacks.random_ok().describe()
    assert desc["kind"] == "RANDOM_OK" and desc["positions"] is None


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
    assert sorted(record.outcomes) == list(range(6))
    assert record.pending == ()
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
    assert record.pending == (1, 4)
    assert sorted(record.outcomes) == [0, 2, 3, 5]
    assert record.runtime["stored"] == [1, 4]
    deferred = attacks.finish_deferred(record, reception, theta, stream(3, "later"))
    # announced bases plus a noiseless channel recover the stored bits
    assert deferred == {1: int(w[1]), 4: int(w[4])}


def test_apply_strategy_store_count_draws_that_many():
    _, _, reception = fresh_reception(protocol.Mode.EXACT_QUANTUM, seed=5)
    record = attacks.apply_strategy(
        attacks.store_subset(count=3), reception,
        protocol.CommitmentOracle(), stream(4, "bob"),
    )
    assert len(record.pending) == 3
    with pytest.raises(DomainError):
        attacks.apply_strategy(
            attacks.store_subset(count=7), fresh_reception(protocol.Mode.EXACT_QUANTUM)[2],
            protocol.CommitmentOracle(), stream(4, "bob"),
        )


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
        assert [fixed.outcomes[i] for i in plus] == [honest.outcomes[i] for i in plus]
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
            assert record.pending == tuple(range(6))
            stored += 1
        else:
            assert record.pending == ()
            assert len(record.outcomes) == 6
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
    per photon, weighed outside the distance-t ball by the projector.

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
    p0 = quantum.ball_projector(e, tr.w_hat, t, tr.theta_hat, quantum.HIGH)
    return quantum.small_distance_defect(state, p0)


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
    radii = range(-1, len(probs) + 2)
    tails = [attacks._tail_over_threshold(probs, t) for t in radii]
    for t, got in zip(radii, tails):
        assert got == pytest.approx(brute_tail(probs, t), abs=1e-12)
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


def test_j_indicator_and_statistics():
    assert attacks.j_indicator([0, 1], 0, "110", "100") == 1
    assert attacks.j_indicator([0, 1], 1, "110", "100") == 0
    params = protocol.ProtocolParams(n=16, m=1, r=1, delta=0.1, N=3, seed=6)
    a = attacks.j_statistics(params, 300)
    b = attacks.j_statistics(params, 300)
    assert a == b  # default stream is derived from the params seed
    assert 0 <= a.completed <= a.trials == 300
    if a.completed:
        assert 0.0 <= a.joint_probability <= 1.0


# ---------------------------------------------------------------------------
# information accounting, exact engine

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
    with pytest.raises(DomainError):
        attacks.information_account(
            exact_params(), attacks.honest(), code=IDENTITY_CODE, prior=[-1.0, 2.0]
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


@settings(max_examples=300, deadline=None)
@given(entropy_classes())
def test_class_entropy_matches_the_loop_over_words(case):
    code, prior, like = case
    syn, hmap = attacks._syndrome_tables(code)
    got = attacks._class_entropy(code, prior, like, syn, hmap)
    assert got == pytest.approx(ref_class_entropy(code, prior, like, syn, hmap), abs=1e-12)


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


def test_random_ok_decomposition_balances():
    params = exact_params(seed=53, delta=0.25)
    br = attacks.random_ok_decomposition(params, 300, rng=stream(9, "br"))
    assert br.trials == 300
    sigma = math.sqrt(0.25 / 300) * 1.5
    assert abs(br.residual) < 4 * sigma
    assert br.pass_mixed == pytest.approx(
        0.5 * (br.pass_honest + br.pass_store_all) + br.residual
    )
