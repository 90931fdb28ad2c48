"""Receiver and channel strategies, small-distance diagnostics, and the
information account against the transfer-security criterion.

The security quantity is I(B; V | Pass=1, C=1) * Pr(Pass=1): what the
receiver's whole view tells him about the string on the branch where the
protocol promises him nothing, discounted by the chance of surviving the
test. The exact engine enumerates that quantity in closed form instead of
sampling it, by two reductions:

* b enters the view only through a = b xor t with t = h w[E_c], so the
  conditional entropy of B given a view depends on the view only through
  the posterior it induces on t (and the announced a). Every view
  collapses to a small "class" determining that posterior.
* positions are exchangeable given their per-position roles, so the
  probability of (test outcome, set shortage, E_1 landing on a given
  position set) depends on the set only through the held positions it
  absorbs. One recursion over role counts gives that weight, and the
  candidate E_1 sets are counted per slot pattern, never enumerated.

Exactness requires the final announcement of w outside E_c to be on (the
generous-view convention), which only helps the receiver; the engine
therefore upper-bounds the plain protocol.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass, replace
from enum import Enum
from functools import cache, reduce
from itertools import product
from typing import Dict, List, Optional, Tuple

import numpy as np

from . import gf2, protocol, quantum
from .errors import DimensionError, DomainError, ResourceError
from .streams import stream

INFO_MAX_N = 10
INFO_MAX_SIDE = 3  # N
INFO_MAX_M = 2


class StrategyKind(Enum):
    HONEST = "HONEST"
    STORE_SUBSET = "STORE_SUBSET"
    FIXED_BASIS = "FIXED_BASIS"
    RANDOM_OK = "RANDOM_OK"


@dataclass(frozen=True)
class AttackStrategy:
    """Receiver behavior during the photon phase, as a per-photon plan.

    No step of the protocol entangles photons, so a plan says, photon by
    photon, whether the receiver holds it until the bases are announced
    (committing a uniformly random outcome bit for it) or measures it now,
    at `angle` or, when that is None, in his committed basis.

    HONEST holds nothing. STORE_SUBSET holds the photons in F. FIXED_BASIS
    holds nothing and measures at one fixed angle. RANDOM_OK tosses a
    single coin and holds every photon when it lands 1.
    """

    kind: StrategyKind
    positions: Optional[tuple] = None  # STORE_SUBSET explicit F
    count: Optional[int] = None        # STORE_SUBSET random-k variant
    angle: Optional[float] = None      # FIXED_BASIS

    def describe(self) -> dict:
        return {
            "kind": self.kind.value,
            "positions": None if self.positions is None else list(self.positions),
            "count": self.count,
            "angle": self.angle,
        }

    def hold(self, n: int, rng: np.random.Generator) -> Tuple[np.ndarray, dict]:
        """Draw the sorted positions held in one run, plus the runtime
        record (the chosen store set, the coin) that joins the transcript."""
        if self.kind is StrategyKind.STORE_SUBSET:
            if self.positions is not None:
                held = gf2.position_set(self.positions, n)
            elif self.count > n:
                raise DomainError("cannot store more photons than were sent")
            else:
                held = np.sort(rng.choice(n, size=self.count, replace=False))
            return held, {"stored": [int(i) for i in held]}
        if self.kind is StrategyKind.RANDOM_OK:
            coin = int(rng.integers(0, 2))
            if coin == 1:
                return np.arange(n), {"coin_ok": coin, "stored": list(range(n))}
            return np.arange(0), {"coin_ok": coin}
        return np.arange(0), {}

    def branches(self, n: int) -> List[Tuple[float, np.ndarray]]:
        """The plans this strategy mixes, as (weight, held mask) pairs."""
        none = np.zeros(n, dtype=bool)
        if self.kind is StrategyKind.STORE_SUBSET:
            if self.positions is None:
                raise DomainError("exact enumeration needs an explicit store set")
            mask = none.copy()
            mask[gf2.position_set(self.positions, n)] = True
            return [(1.0, mask)]
        if self.kind is StrategyKind.RANDOM_OK:
            return [(0.5, none), (0.5, np.ones(n, dtype=bool))]
        return [(1.0, none)]


def honest() -> AttackStrategy:
    return AttackStrategy(kind=StrategyKind.HONEST)


def store_subset(positions=None, count: Optional[int] = None) -> AttackStrategy:
    if (positions is None) == (count is None):
        raise DomainError("give exactly one of positions or count")
    if positions is not None:
        positions = tuple(sorted({int(i) for i in positions}))
    elif count < 0:
        raise DomainError("count may not be negative")
    return AttackStrategy(kind=StrategyKind.STORE_SUBSET, positions=positions, count=count)


def fixed_basis(angle: float) -> AttackStrategy:
    return AttackStrategy(kind=StrategyKind.FIXED_BASIS, angle=float(angle))


def random_ok() -> AttackStrategy:
    return AttackStrategy(kind=StrategyKind.RANDOM_OK)


@dataclass
class BobRecord:
    """Commitments plus the deferred-state handle for one run.

    pending lists the positions whose photons are still unmeasured; they
    are resolved by finish_deferred once the encoding bases are announced.
    runtime carries strategy data that only exists at run time (the chosen
    store set, the coin), merged into the transcript's strategy record.
    """

    theta_hat: np.ndarray
    w_hat: np.ndarray
    theta_hat_commit: int
    w_hat_commit: int
    outcomes: Dict[int, int]
    pending: tuple
    runtime: dict


def apply_strategy(
    strategy: AttackStrategy,
    reception: protocol.Reception,
    oracle: protocol.CommitmentOracle,
    rng: np.random.Generator,
) -> BobRecord:
    """Run the photon phase of the given strategy and register both
    commitments. Draw order is fixed: bases, then strategy choices, then
    measurements in position order, then filler outcome bits for the held
    photons.

    Held photons stay in the reception, in either mode, until
    finish_deferred measures them.
    """
    n = reception.n
    theta_hat = gf2.random_bits(rng, n)
    held, runtime = strategy.hold(n, rng)
    pending = tuple(int(i) for i in held)

    measured = gf2.complement_positions(held, n)
    if strategy.angle is None:
        angles = protocol.basis_angle(theta_hat[measured])
    else:
        angles = strategy.angle
    outs = reception.measure_many(measured, angles, rng)
    w_hat = np.zeros(n, dtype=np.uint8)
    w_hat[measured] = outs
    w_hat[held] = gf2.random_bits(rng, held.size)
    outcomes = dict(zip(measured.tolist(), outs.tolist()))

    tid = oracle.commit(theta_hat)
    wid = oracle.commit(w_hat)
    return BobRecord(
        theta_hat=theta_hat, w_hat=w_hat, theta_hat_commit=tid, w_hat_commit=wid,
        outcomes=outcomes, pending=pending, runtime=runtime,
    )


def finish_deferred(
    record: BobRecord, reception: protocol.Reception, theta: np.ndarray, rng
) -> Dict[int, int]:
    """Measure the stored photons in the now-announced encoding bases."""
    theta = quantum.basis_string(theta, length=reception.n)
    held = np.array(record.pending, dtype=np.int64)
    outs = reception.measure_many(held, protocol.basis_angle(theta[held]), rng)
    return dict(zip(record.pending, outs.tolist()))


def eve_intercept(
    eve: AttackStrategy, reception: protocol.Reception, rng: np.random.Generator
) -> dict:
    """Intercept-resend on the channel: measure each photon, pass the
    collapsed state on. HONEST intercepts in fresh random bases per
    photon; FIXED_BASIS at its angle. Storage strategies have no channel
    counterpart."""
    every = np.arange(reception.n)
    if eve.kind is StrategyKind.HONEST:
        bases = gf2.random_bits(rng, reception.n)
        outs = reception.measure_many(every, protocol.basis_angle(bases), rng)
        return {
            "kind": "HONEST",
            "bases": quantum.basis_text(bases),
            "outcomes": protocol._bits_str(outs),
        }
    if eve.kind is StrategyKind.FIXED_BASIS:
        outs = reception.measure_many(every, eve.angle, rng)
        return {
            "kind": "FIXED_BASIS",
            "angle": eve.angle,
            "outcomes": protocol._bits_str(outs),
        }
    raise DomainError("channel strategies are HONEST or FIXED_BASIS")


# ---------------------------------------------------------------------------
# storage-attack test statistics

@dataclass(frozen=True)
class StoreTestStats:
    expected: float
    empirical_mean: float
    std_error: float
    trials: int
    stored: int


def store_attack_test_statistics(
    params: protocol.ProtocolParams, fraction_f: float, trials: int, rng
) -> StoreTestStats:
    """Expected and empirical counts of test errors caused by storage.

    A stored photon trips the test only when it lands in R (coin 1/2), its
    bases match (1/2), and the committed filler bit disagrees with the
    encoded bit (1/2): one error per eight stored photons on average. The
    Monte Carlo draws those coins directly (the exact marginal of the full
    run), plus channel flips on the honestly measured positions.
    """
    if not 0.0 <= fraction_f <= 1.0:
        raise DomainError("fraction must lie in [0, 1]")
    if trials < 1:
        raise DomainError("trials must be positive")
    n, p = params.n, params.noise_p
    stored = round(fraction_f * n)
    rest = n - stored
    in_r = rng.random((trials, n)) < 0.5
    matched = rng.random((trials, n)) < 0.5
    pad_bad = rng.random((trials, stored)) < 0.5
    flipped = rng.random((trials, rest)) < p
    errs = np.sum(in_r[:, :stored] & matched[:, :stored] & pad_bad, axis=1)
    errs = errs + np.sum(in_r[:, stored:] & matched[:, stored:] & flipped, axis=1)
    expected = stored / 8.0 + p * rest / 4.0
    mean = float(np.mean(errs))
    se = float(np.std(errs, ddof=1) / math.sqrt(trials)) if trials > 1 else math.inf
    return StoreTestStats(
        expected=expected, empirical_mean=mean, std_error=se, trials=trials, stored=stored
    )


# ---------------------------------------------------------------------------
# small-distance diagnostics

def view_small_distance_defect(
    transcript: protocol.Transcript, strategy: AttackStrategy, e, t: int
) -> float:
    """Weight of the view outside the distance-t ball on E around the
    committed outcomes, ||P0 phi||^2, in either execution mode.

    The view is a product state, so this is the tail of independent
    per-photon disagreements: none for a photon measured in its committed
    basis; the squared overlap with the flipped outcome for one measured at
    a fixed angle (the same for either outcome, the rotation being real);
    for a held photon 0 or 1 when its basis matches the committed one,
    else 1/2.
    """
    if transcript.strategy["kind"] != strategy.kind.value:
        raise DomainError("strategy does not match the transcript")
    if t < 0:
        raise DomainError("ball radius must be nonnegative")
    theta, theta_hat = transcript.theta, transcript.theta_hat
    encoded = transcript.w ^ transcript.flips
    held = set(transcript.strategy.get("stored") or ())
    chances = []
    for i in gf2.position_set(e, transcript.params.n):
        if i in held:
            matched = theta[i] == theta_hat[i]
            chances.append(float(encoded[i] != transcript.w_hat[i]) if matched else 0.5)
        elif strategy.angle is not None:
            chances.append(_disagree_prob(strategy.angle, int(theta_hat[i])))
        else:
            chances.append(0.0)
    return _tail_over_threshold(chances, t)


def j_indicator(e, tau_count: int, alpha, w_hat) -> int:
    """1 iff alpha sits farther than tau_count from the committed word on E."""
    alpha, w_hat = gf2.bits(alpha), gf2.bits(w_hat)
    e = gf2.position_set(e, alpha.size)
    return int(gf2.hamming_distance_on(e, alpha, w_hat) > tau_count)


@dataclass(frozen=True)
class JStatistics:
    joint_probability: float
    completed: int
    trials: int


def j_statistics(params: protocol.ProtocolParams, trials: int, rng=None) -> JStatistics:
    """Empirical Pr(J[E_c, eps n] = 0 and J[T0 cap R, delta n] = 1) under
    the random-preparation sampling picture: a uniform word alpha stands
    for the state's expansion label, a uniform w_hat for the commitment,
    with the set geometry drawn as in a run. Reported as a diagnostic;
    nothing is asserted about it."""
    if rng is None:
        rng = stream(params.seed, "j-stats")
    n, N = params.n, params.N
    t_ec = math.floor(params.epsilon * n)
    t_test = math.floor(params.delta * n)
    hits = 0
    completed = 0
    for _ in range(trials):
        alpha = gf2.random_bits(rng, n)
        w_hat = gf2.random_bits(rng, n)
        theta = gf2.random_bits(rng, n)
        theta_hat = gf2.random_bits(rng, n)
        R = np.nonzero(rng.random(n) < 0.5)[0]
        part = protocol.partition_and_choose_sets(theta, theta_hat, R, N, rng)
        if part.shortage:
            continue
        completed += 1
        test_set = np.intersect1d(part.T0, R)
        ec = part.E0 if int(rng.integers(0, 2)) == 0 else part.E1
        if j_indicator(ec, t_ec, alpha, w_hat) == 0 and (
            test_set.size and j_indicator(test_set, t_test, alpha, w_hat) == 1
        ):
            hits += 1
    prob = hits / completed if completed else math.nan
    return JStatistics(joint_probability=prob, completed=completed, trials=trials)


# ---------------------------------------------------------------------------
# information accounting

class InfoMethod(Enum):
    EXACT_ENUMERATION = "EXACT_ENUMERATION"
    MONTE_CARLO = "MONTE_CARLO"


@dataclass(frozen=True)
class DefectStats:
    max: float
    mean: float


@dataclass(frozen=True)
class InfoReport:
    """I(B; V | Pass=1, C=1) and its companions.

    product = mutual_information * pr_pass, the security figure of merit.
    pr_pass counts runs that pass the test with both sets available.
    small_distance_defect_stats summarizes ||P0 phi_v||^2 / ||phi_v||^2
    over views against radius floor(epsilon n) on E_c, in either mode;
    None only when no Monte Carlo run passed.
    """

    pr_pass: float
    mutual_information: float
    product: float
    method: InfoMethod
    samples_or_statespace: int
    small_distance_defect_stats: Optional[DefectStats]

    def to_json(self) -> dict:
        return {**asdict(self), "method": self.method.value}


def _entropy_bits(dist: np.ndarray) -> float:
    dist = np.asarray(dist, dtype=float)
    nz = dist[dist > 0]
    return float(-np.sum(nz * np.log2(nz)))


def _normalize_prior(prior, m: int) -> np.ndarray:
    if prior is None:
        return np.full(1 << m, 2.0 ** -m)
    prior = np.asarray(prior, dtype=float).ravel()
    if prior.size != 1 << m:
        raise DimensionError(f"prior needs 2^{m} entries")
    if np.any(prior < 0) or abs(prior.sum() - 1.0) > 1e-9:
        raise DomainError("prior must be a probability vector")
    return prior / prior.sum()


def _geometry_weights(
    n: int, N: int, held: int, thr: int, p_held: float, p_rest: float
) -> np.ndarray:
    """w[j] = P(E_1 = e, pass, both sets exist) for a candidate set e that
    absorbs j of the `held` positions.

    Every position independently lands in one of four roles with equal
    probability: tested (R and matched), candidate (mismatched, untested),
    spare (matched, untested, hosting E_0), other. Conditioned on the role
    counts, E_1 is uniform among N-subsets of the candidate positions, so
    the weight depends on e only through j. Every position of e must be a
    candidate (0.25^N). Over the positions outside e, a recursion carries
    the joint law of three counts: test disagreements (chance p_held at a
    tested held position, p_rest elsewhere; mass past thr fails the test
    and is dropped), extra candidates v, and spares (capped at N, all E_0
    needs). E_1 then lands on e with chance 1 / C(N + v, N).
    """
    outside = n - N
    land = np.array([1.0 / math.comb(N + v, N) for v in range(outside + 1)])
    w = np.zeros(N + 1)
    for j in range(N + 1):
        if not 0 <= held - j <= outside:
            continue
        dist = np.zeros((thr + 1, outside + 1, N + 1))  # [disagreements, v, spares]
        dist[0, 0, 0] = 1.0
        for q in [p_held] * (held - j) + [p_rest] * (outside - held + j):
            step = dist * (2.0 - q)  # other, or tested and agreeing
            step[1:] += q * dist[:-1]  # tested and disagreeing
            step[:, 1:] += dist[:, :-1]  # candidate
            step[:, :, 1:] += dist[:, :, :-1]  # spare
            step[:, :, N] += dist[:, :, N]  # spares past N stay at N
            dist = 0.25 * step
        w[j] = 0.25**N * (dist[:, :, N].sum(axis=0) @ land)
    return w


def _pattern_counts(held: np.ndarray, N: int) -> Dict[tuple, int]:
    """How many N-subsets of the positions have each slot pattern: the
    sequence of "held" and "blind" kinds of their sorted positions."""
    counts: Dict[tuple, int] = {(): 1}
    for is_held in held:
        kind = "held" if is_held else "blind"
        for prefix, count in list(counts.items()):
            if len(prefix) < N:
                key = prefix + (kind,)
                counts[key] = counts.get(key, 0) + count
    return {pattern: count for pattern, count in counts.items() if len(pattern) == N}


def _syndrome_tables(code: gf2.LinearCode) -> Tuple[np.ndarray, np.ndarray]:
    """Packed g- and h-images of every word in 2^N: word u of the span of
    f's columns is f u."""
    images = np.concatenate(list(gf2.span_words(code.f.T)))
    fu = np.unpackbits(images, axis=1, count=code.r + code.m)
    syn = fu[:, : code.r] @ (1 << np.arange(code.r - 1, -1, -1))
    hmap = fu[:, code.r :] @ (1 << np.arange(code.m - 1, -1, -1))
    return syn, hmap


def _class_entropy(
    code: gf2.LinearCode,
    prior: np.ndarray,
    likelihood: np.ndarray,
    syn: np.ndarray,
    hmap: np.ndarray,
) -> float:
    """E[H(B | view)] within one view class.

    likelihood[o, u] is the probability of observation o at the E_c
    photons when the encoded substring is u, so likelihood[o, u_true] is
    also the chance of seeing o. Averages over the uniform true substring,
    the observations, and the announced mask a = b xor h u_true.
    """
    m2 = prior.size
    # joint[o, s, t]: chance of o summed over the words with syndrome s and
    # mask t, which is all the view class keeps of the true word
    joint = np.zeros((likelihood.shape[0], 1 << code.r, m2))
    np.add.at(joint, (slice(None), syn, hmap), likelihood)
    xor = np.arange(m2)[:, None] ^ np.arange(m2)
    # posterior of b given (o, s, a): prior[b] * joint[o, s, a ^ b], normalised
    post = prior * joint[:, :, xor]
    z = post.sum(axis=-1, keepdims=True)
    post = np.divide(post, z, out=np.zeros_like(post), where=z > 0)
    logs = np.log2(post, out=np.zeros_like(post), where=post > 0)
    ent = -np.sum(post * logs, axis=-1)
    # the announced mask is a = t ^ b for the true t and string b
    return float(np.sum(joint * (ent[:, :, xor] @ prior)) / (1 << code.N))


def _measurement_table(angle: float, basis: int, p: float) -> np.ndarray:
    """q[obs, bit]: probability of outcome obs when bit was encoded in the
    given basis, sent through flip noise p, and measured at angle."""
    rot = quantum.angle_basis(angle)
    q = np.zeros((2, 2))
    for bit in range(2):
        held = quantum.photon(bit, basis)
        flipped = quantum.photon(1 - bit, basis)
        for obs in range(2):
            probe = rot[:, obs]
            q[obs, bit] = (1 - p) * abs(np.vdot(probe, held)) ** 2 + p * abs(
                np.vdot(probe, flipped)
            ) ** 2
    return q


def _disagree_prob(angle: float, basis_hat: int) -> float:
    """Chance that a photon left in the post-measurement state at `angle`
    reads opposite to the recorded outcome in the basis_hat frame."""
    rot = quantum.angle_basis(angle)
    return float(abs(np.vdot(quantum.photon(1, basis_hat), rot[:, 0])) ** 2)


def _tail_over_threshold(probs: List[float], t: int) -> float:
    """P(sum of independent Bernoullis > t): a Poisson-binomial DP over the
    counts 0..t that carries the mass crossing t as it goes."""
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


def _exact_engine(
    params: protocol.ProtocolParams,
    strategy: AttackStrategy,
    code: gf2.LinearCode,
    prior: np.ndarray,
    require_disjoint_store: bool,
    budget: Optional[int],
) -> InfoReport:
    n, N, m = params.n, params.N, params.m
    p = params.noise_p
    thr = int(math.floor(params.delta * n))
    t_defect = int(math.floor(params.epsilon * n))
    syn, hmap = _syndrome_tables(code)
    size = 1 << N
    h_prior = _entropy_bits(prior)

    statespace = math.comb(n, N) + (1 << m) * size * size
    if budget is not None and statespace > budget:
        err = ResourceError(
            f"exact enumeration needs about {statespace} states, budget is {budget}"
        )
        err.estimated_statespace = statespace
        raise err

    # Each slot of E_c is an (observation table, disagreement chance) pair:
    # table[obs, bit] is the chance of reading obs when bit was encoded
    # there, and the chance that the slot leaves the distance-t ball feeds
    # the defect. A blind slot reads nothing about its bit and never
    # leaves the ball.
    slots = {
        "blind": (np.ones((1, 2)), 0.0),
        "held": (np.array([[1 - p, p], [p, 1 - p]]), 0.5),
    }
    if strategy.angle is not None:
        for ty, other in ((quantum.PLUS, quantum.CROSS), (quantum.CROSS, quantum.PLUS)):
            slots[ty] = (
                _measurement_table(strategy.angle, ty, p),
                _disagree_prob(strategy.angle, other),
            )

    @cache
    def pattern_stats(pattern: tuple) -> Tuple[float, float]:
        """(entropy, defect) of the view class with these slot kinds."""
        tables, chances = zip(*(slots[kind] for kind in pattern))
        like = reduce(np.kron, tables, np.ones((1, 1)))
        return (
            _class_entropy(code, prior, like, syn, hmap),
            _tail_over_threshold(chances, t_defect),
        )

    def plan_classes(held: np.ndarray):
        """(weight, slot pattern) of every view class of one plan."""
        if strategy.angle is None:
            # one class per slot pattern, weighted by its candidate sets; on
            # E_1 the committed bases mismatch, so a slot not held is blind
            weights = _geometry_weights(n, N, int(held.sum()), thr, 0.5, p)
            for pattern, count in _pattern_counts(held, N).items():
                yield count * weights[pattern.count("held")], pattern
        else:
            # one class per basis pattern on E_c
            err = 0.5 * (slots[quantum.PLUS][0][1, 0] + slots[quantum.CROSS][0][1, 0])
            base = math.comb(n, N) * _geometry_weights(n, N, 0, thr, err, err)[0]
            for types in product((quantum.PLUS, quantum.CROSS), repeat=N):
                yield base * 0.5**N, types

    # Pr(pass) itself never depends on the disjointness conditioning.
    pr_pass, w_tot, h_acc, d_acc, d_max = 0.0, 0.0, 0.0, 0.0, 0.0
    for branch_weight, held in strategy.branches(n):
        for w, pattern in plan_classes(held):
            weight = branch_weight * w
            pr_pass += weight
            if weight <= 0.0 or (require_disjoint_store and "held" in pattern):
                continue
            h, defect = pattern_stats(pattern)
            w_tot += weight
            h_acc += weight * h
            d_acc += weight * defect
            d_max = max(d_max, defect)

    if w_tot <= 0.0:
        raise DomainError("conditioning event has probability zero")
    info = float(max(0.0, h_prior - h_acc / w_tot))
    defect_stats = DefectStats(max=float(d_max), mean=float(d_acc / w_tot))

    return InfoReport(
        pr_pass=float(pr_pass),
        mutual_information=info,
        product=info * float(pr_pass),
        method=InfoMethod.EXACT_ENUMERATION,
        samples_or_statespace=statespace,
        small_distance_defect_stats=defect_stats,
    )


def _view_summary(tr: protocol.Transcript, strategy: AttackStrategy) -> tuple:
    """Hashable digest of everything in the view that can correlate with
    the masked string, for the plug-in estimator. It is keyed by slot of
    E_c, never by position: a view class depends on which slots are held,
    not on where E_c fell, and every extra key inflates the estimator's
    upward bias."""
    ec = [int(i) for i in tr.E_c]
    base = (tuple(int(b) for b in tr.s), tuple(int(b) for b in tr.a))
    known = tuple((k, tr.deferred[i]) for k, i in enumerate(ec) if i in tr.deferred)
    if strategy.angle is None:
        return base + (known,)
    return base + (
        known,
        tuple(int(tr.w_hat[i]) for i in ec),
        tuple(int(tr.theta[i]) for i in ec),
    )


def _plugin_mi(pairs: List[Tuple[tuple, tuple]]) -> float:
    """Plug-in mutual information over the empirical joint; biased up by
    O(alphabet/samples)."""
    if not pairs:
        return math.nan
    total = len(pairs)
    joint: Dict[tuple, int] = {}
    left: Dict[tuple, int] = {}
    right: Dict[tuple, int] = {}
    for v, b in pairs:
        joint[(v, b)] = joint.get((v, b), 0) + 1
        left[v] = left.get(v, 0) + 1
        right[b] = right.get(b, 0) + 1
    mi = 0.0
    for (v, b), c in joint.items():
        pj = c / total
        mi += pj * math.log2(pj * total * total / (left[v] * right[b]))
    return max(0.0, mi)


def _monte_carlo_engine(
    params: protocol.ProtocolParams,
    strategy: AttackStrategy,
    code: gf2.LinearCode,
    prior: np.ndarray,
    budget: int,
    rng: np.random.Generator,
) -> InfoReport:
    m = params.m
    passes = 0
    pairs: List[Tuple[tuple, tuple]] = []
    defects: List[float] = []
    t_defect = int(math.floor(params.epsilon * params.n))
    for trial in range(budget):
        b_idx = int(rng.choice(1 << m, p=prior))
        b = gf2.unpack_int(b_idx, m)
        run_params = replace(params, seed=int(rng.integers(0, 2**62)))
        tr = protocol.run_string_qot(
            run_params, b, bob=strategy, force_c=1, announce_rest=True, code=code
        )
        if tr.abort_reason is not None:
            continue
        passes += 1
        pairs.append((_view_summary(tr, strategy), tuple(int(x) for x in tr.b)))
        defects.append(view_small_distance_defect(tr, strategy, tr.E_c, t_defect))
    pr_pass = passes / budget
    mi = _plugin_mi(pairs)
    stats = None
    if defects:
        stats = DefectStats(max=float(np.max(defects)), mean=float(np.mean(defects)))
    return InfoReport(
        pr_pass=pr_pass,
        mutual_information=mi,
        product=mi * pr_pass,
        method=InfoMethod.MONTE_CARLO,
        samples_or_statespace=len(pairs),
        small_distance_defect_stats=stats,
    )


def information_account(
    params: protocol.ProtocolParams,
    strategy: AttackStrategy,
    method: InfoMethod = InfoMethod.EXACT_ENUMERATION,
    budget: Optional[int] = None,
    rng: Optional[np.random.Generator] = None,
    code: Optional[gf2.LinearCode] = None,
    prior=None,
    require_disjoint_store: bool = False,
) -> InfoReport:
    """Information the receiver's view carries about the string on the
    no-transfer branch, conditioned on passing the test.

    Both methods condition on one code (given, or drawn full-rank from
    rng). The exact method enumerates the full joint distribution; the
    Monte Carlo method runs the protocol with that code pinned, c forced
    to 1 and the rest of w announced, applying the plug-in estimator to
    the sufficient view digest. budget caps the exact method's state space
    and sets the Monte Carlo trial count (default 10,000); a given budget
    must be at least 1. Priors on the string are configurable; the default
    is uniform.

    require_disjoint_store further conditions a storing receiver on the
    event that E_c avoided the stored set entirely.
    """
    prior = _normalize_prior(prior, params.m)
    if budget is not None and budget < 1:
        raise DomainError(f"budget must be at least 1, got {budget}")
    if rng is None:
        rng = stream(params.seed, "info")
    if code is None:
        # a rank-deficient f genuinely leaks (some masks collapse), so the
        # default draw insists on full rank
        while True:
            code = gf2.LinearCode(
                f=gf2.random_bitmatrix(rng, params.r + params.m, params.N),
                r=params.r, m=params.m,
            )
            if gf2.rank(code.f) == params.r + params.m:
                break
    if code.N != params.N or code.r != params.r or code.m != params.m:
        raise DimensionError("code dimensions disagree with the parameters")

    if method is InfoMethod.MONTE_CARLO:
        return _monte_carlo_engine(params, strategy, code, prior, budget or 10_000, rng)

    if params.n > INFO_MAX_N or params.N > INFO_MAX_SIDE or params.m > INFO_MAX_M:
        raise ResourceError(
            f"exact enumeration caps at n={INFO_MAX_N}, N={INFO_MAX_SIDE}, m={INFO_MAX_M}"
        )
    if require_disjoint_store and strategy.kind is not StrategyKind.STORE_SUBSET:
        raise DomainError("disjointness conditioning applies to storing receivers")
    return _exact_engine(params, strategy, code, prior, require_disjoint_store, budget)


# ---------------------------------------------------------------------------
# coin-branch decomposition

@dataclass(frozen=True)
class BranchReport:
    pass_mixed: float
    pass_honest: float
    pass_store_all: float
    residual: float
    trials: int


def random_ok_decomposition(
    params: protocol.ProtocolParams, trials: int, rng=None
) -> BranchReport:
    """Empirical check that the single-coin strategy passes with the
    average of its two branch rates, in either mode."""
    if rng is None:
        rng = stream(params.seed, "branches")
    rates = []
    for strat in (random_ok(), honest(), store_subset(positions=range(params.n))):
        passed = 0
        for _ in range(trials):
            run_params = replace(params, seed=int(rng.integers(0, 2**62)))
            b = gf2.random_bits(rng, params.m)
            tr = protocol.run_string_qot(run_params, b, bob=strat)
            if tr.passed:
                passed += 1
        rates.append(passed / trials)
    mixed, honest_rate, store_rate = rates
    return BranchReport(
        pass_mixed=mixed,
        pass_honest=honest_rate,
        pass_store_all=store_rate,
        residual=mixed - 0.5 * (honest_rate + store_rate),
        trials=trials,
    )
