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
from collections import Counter
from dataclasses import asdict, dataclass
from enum import Enum
from itertools import product
from typing import Dict, Hashable, List, Optional, Tuple

import numpy as np

from . import gf2, protocol, quantum, transcript
from .errors import DimensionError, DomainError, ResourceError
from .streams import drawn_blocks, primed, stream

INFO_MAX_N = 10
INFO_MAX_SIDE = 3  # N
INFO_MAX_M = 2

_BASIS_ANGLES = protocol.basis_angle((quantum.PLUS, quantum.CROSS)).tolist()  # by basis


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
    at an angle that depends on the committed basis (probe_angles).

    HONEST holds nothing. STORE_SUBSET holds the photons in F. FIXED_BASIS
    holds nothing and measures at one fixed angle. RANDOM_OK tosses a
    single coin and holds every photon when it lands 1.

    A strategy takes exactly the fields of its kind, so its describe()
    record states what it does: a finite angle with FIXED_BASIS, and with
    STORE_SUBSET exactly one of positions (kept as a sorted tuple of
    distinct ints) and count (an int >= 0). Any other field, or a missing
    one, raises DomainError. The kind may be given by its name.
    """

    kind: StrategyKind
    positions: Optional[tuple] = None  # STORE_SUBSET explicit F
    count: Optional[int] = None        # STORE_SUBSET random-k variant
    angle: Optional[float] = None      # FIXED_BASIS

    def __post_init__(self):
        if not isinstance(self.kind, StrategyKind):
            object.__setattr__(self, "kind", StrategyKind(self.kind))
        name = self.kind.value
        fixed = self.kind is StrategyKind.FIXED_BASIS
        if (self.angle is not None) != fixed:
            raise DomainError(f"an angle goes with FIXED_BASIS, which needs one (strategy {name})")
        if fixed:
            angle = gf2.number(self.angle, "a fixed measurement angle")
            object.__setattr__(self, "angle", float(angle))
        store = self.kind is StrategyKind.STORE_SUBSET
        if (self.positions is not None) + (self.count is not None) != store:
            raise DomainError("one of positions and count goes with STORE_SUBSET, "
                              f"which needs exactly one (strategy {name})")
        if self.positions is not None:
            positions = set(gf2.position_array(list(self.positions)).tolist())
            object.__setattr__(self, "positions", tuple(sorted(positions)))
        if self.count is not None:
            object.__setattr__(self, "count", gf2.integer(self.count, "a store count", least=0))

    def describe(self) -> dict:
        return {
            "kind": self.kind.value,
            "positions": None if self.positions is None else list(self.positions),
            "count": self.count,
            "angle": self.angle,
        }

    def probe_angles(self) -> List[float]:
        """The angle at which the plan measures a photon, indexed by the
        committed basis: the basis's own angle, or the fixed `angle`."""
        return list(_BASIS_ANGLES) if self.angle is None else [self.angle] * 2

    def check_fits(self, n: int) -> None:
        """Raise DomainError unless the plan fits a run of n photons: a store
        set inside [0, n), a store count of at most n."""
        if self.positions is not None:
            gf2.position_set(self.positions, n)
        elif self.count is not None and self.count > n:
            raise DomainError("cannot store more photons than were sent")

    def hold(self, n: int, rng: np.random.Generator) -> Tuple[np.ndarray, dict]:
        """Draw the sorted positions held in one run, plus the runtime
        record (the chosen store set, the coin) that joins the transcript.
        A plan that does not fit n raises DomainError before any draw."""
        self.check_fits(n)
        return self._hold(n, rng)

    def _hold(self, n: int, rng: np.random.Generator) -> Tuple[np.ndarray, dict]:
        """hold of a plan that fits n."""
        if self.kind is StrategyKind.STORE_SUBSET:
            if self.positions is not None:
                held = np.array(self.positions, dtype=np.int64)
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
    return AttackStrategy(kind=StrategyKind.STORE_SUBSET, positions=positions, count=count)


def fixed_basis(angle: float) -> AttackStrategy:
    return AttackStrategy(kind=StrategyKind.FIXED_BASIS, angle=angle)


def random_ok() -> AttackStrategy:
    return AttackStrategy(kind=StrategyKind.RANDOM_OK)


@dataclass
class BobRecord:
    """Commitments plus Bob's outcomes for one run.

    measured and held are the sorted positions whose photons were measured
    in the photon phase and those held until the encoding bases are
    announced. values is the length-n uint8 array of his outcome at each
    position: 0 at the held positions until finish_deferred writes theirs.
    runtime carries strategy data that only exists at run time (the chosen
    store set, the coin), merged into the transcript's strategy record.
    """

    theta_hat: np.ndarray
    w_hat: np.ndarray
    theta_hat_commit: int
    w_hat_commit: int
    measured: np.ndarray
    held: np.ndarray
    values: np.ndarray
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
    finish_deferred measures them. A plan that does not fit the reception
    raises DomainError before any draw.
    """
    n = reception.n
    strategy.check_fits(n)
    theta_hat = gf2.random_bits(rng, n)
    held, runtime = strategy._hold(n, rng)

    measured = gf2.complement_positions(held, n)
    # one probe angle per committed basis, as angle-table entries. The +/x
    # angles are the table's first two entries, so a plan that probes in
    # the committed bases uses its basis bits: going through _index for
    # them too measurably slows the bench's transfer and attack ops
    probes = strategy.probe_angles()
    entries = theta_hat[measured]
    if probes != _BASIS_ANGLES:
        entries = reception._index(np.array(probes)).take(entries)
    values = np.zeros(n, dtype=np.uint8)
    values[measured] = reception._measure_at(measured, entries, rng)
    w_hat = values.copy()
    w_hat[held] = gf2.random_bits(rng, held.size)

    tid = oracle._commit(theta_hat)
    wid = oracle._commit(w_hat)
    return BobRecord(
        theta_hat=theta_hat, w_hat=w_hat, theta_hat_commit=tid, w_hat_commit=wid,
        measured=measured, held=held, values=values, runtime=runtime,
    )


def finish_deferred(
    record: BobRecord, reception: protocol.Reception, theta: np.ndarray, rng
) -> None:
    """Measure the held photons in the now-announced encoding bases and
    write their outcomes into record.values."""
    _finish_deferred(record, reception, quantum.basis_string(theta, length=reception.n), rng)


def _finish_deferred(record: BobRecord, reception, theta, rng) -> None:
    """finish_deferred of a checked basis string of the reception's size."""
    held = record.held
    record.values[held] = reception._measure_at(held, theta[held], rng)  # bases are entries


def eve_intercept(
    eve: AttackStrategy, reception: protocol.Reception, rng: np.random.Generator
) -> dict:
    """Intercept-resend on the channel: measure each photon, pass the
    collapsed state on. HONEST intercepts in fresh random bases per
    photon; FIXED_BASIS at its angle. Storage strategies have no channel
    counterpart, and raise DomainError before any draw."""
    if eve.kind not in (StrategyKind.HONEST, StrategyKind.FIXED_BASIS):
        raise DomainError("channel strategies are HONEST or FIXED_BASIS")
    if eve.kind is StrategyKind.HONEST:
        bases = gf2.random_bits(rng, reception.n)
        record = {"bases": quantum._basis_text(bases)}
        entries = bases  # the +/x angles are the angle table's first entries
    else:
        record, entries = {"angle": eve.angle}, reception._index(eve.angle)
    outs = reception._measure_at(np.arange(reception.n), entries, rng)
    return {"kind": eve.kind.value, **record, "outcomes": transcript._bits_str(outs)}


# ---------------------------------------------------------------------------
# storage-attack test statistics

@dataclass(frozen=True)
class StoreTestStats:
    expected: float
    empirical_mean: float
    std_error: float
    trials: int
    stored: int


def store_fraction(value) -> float:
    """value as a fraction of the photons stored: a number by gf2's rule
    (DomainError otherwise) in [0, 1]."""
    value = gf2.number(value, "fraction")
    if not 0 <= value <= 1:
        raise DomainError("fraction must lie in [0, 1]")
    return value


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
    fraction_f = store_fraction(fraction_f)
    trials = gf2.integer(trials, "trials", least=1)
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
    per-photon disagreements: for a measured photon the squared overlap of
    its post-measurement state with the flipped outcome in the committed
    frame (the same for either outcome, the rotation being real; exactly 0
    in the committed basis); for a held photon 0 or 1 when its basis
    matches the committed one, else 1/2.
    """
    if transcript.strategy["kind"] != strategy.kind.value:
        raise DomainError("strategy does not match the transcript")
    t = gf2.integer(t, "ball radius", least=0)
    theta, theta_hat = transcript.theta, transcript.theta_hat
    encoded = transcript.w ^ transcript.flips
    held = set(transcript.strategy.get("stored") or ())
    disagree = [protocol._born_p1(probe, 0, frame)  # by committed basis
                for probe, frame in zip(strategy.probe_angles(), _BASIS_ANGLES)]
    chances = []
    for i in gf2.position_set(e, transcript.params.n):
        if i in held:
            matched = theta[i] == theta_hat[i]
            chances.append(float(encoded[i] != transcript.w_hat[i]) if matched else 0.5)
        else:
            chances.append(disagree[theta_hat[i]])
    return _tail_over_threshold(chances, t)


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
    method: InfoMethod
    samples_or_statespace: int
    small_distance_defect_stats: Optional[DefectStats]

    @property
    def product(self) -> float:
        return self.mutual_information * self.pr_pass

    def to_json(self) -> dict:
        return {**asdict(self), "method": self.method.value, "product": self.product}


def _entropy_bits(dist: np.ndarray) -> float:
    dist = np.asarray(dist, dtype=float)
    nz = dist[dist > 0]
    return float(-np.sum(nz * np.log2(nz)))


def _normalize_prior(prior, m: int) -> np.ndarray:
    if prior is None:
        return np.full(1 << m, 2.0 ** -m)
    prior = gf2.numbers(prior, "prior").ravel()
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


def _class_joint(tables, cols: np.ndarray, width: int) -> np.ndarray:
    """joint[o, y]: the chance of observations o at the slots of E_c, summed
    over the encoded words u with f u = y.

    One trellis step per slot: slot i, with table q[obs, bit] and column
    c_i of f, sends joint[o, y] to joint[(o, obs), y] = joint[o, y] q[obs, 0]
    + joint[o, y ^ c_i] q[obs, 1]. Observations come out slot 0 most
    significant; y and c_i are width-bit syndromes in lane_prefix order,
    the g bits before the h bits.
    """
    joint = np.zeros((1, 1 << width))
    joint[0, 0] = 1.0
    ys = np.arange(1 << width)
    for q, c in zip(tables, cols):
        step = joint[:, None, :] * q[:, 0, None] + joint[:, None, ys ^ c] * q[:, 1, None]
        joint = step.reshape(-1, 1 << width)
    return joint


def _class_entropy(code: gf2.LinearCode, prior: np.ndarray, joint: np.ndarray) -> float:
    """E[H(B | view)] within one view class.

    joint[o, y] is the chance of observation o at the E_c photons summed
    over the encoded substrings u with f u = y (_class_joint), which is all
    the view class keeps of the true word: its syndrome s = g u and mask
    t = h u. Over the uniform true substring, q = joint / 2^N is the law of
    (o, s, t), of total mass Z. The view announces a = b xor t with B
    independent of (O, S, T), so H(B, O, S, A) = Z H(B) + H(q) and the
    answer is that less H(O, S, A), whose law is q_A[o, s, a] =
    sum_b prior[b] q[o, s, a ^ b].
    """
    m2 = prior.size
    q = joint.reshape(-1, m2) / (1 << code.N)  # rows (o, s), columns t
    xor = np.arange(m2)[:, None] ^ np.arange(m2)
    q_a = q[:, xor] @ prior
    return float(q.sum()) * _entropy_bits(prior) + _entropy_bits(q) - _entropy_bits(q_a)


def _measured_slot(angle: float, basis: int, p: float) -> Tuple[np.ndarray, float]:
    """(table[obs, bit], disagreement chance) of an E_1 slot encoded in
    `basis` through flip noise p and measured at `angle`; on E_1 the
    committed basis is the other one. Reading obs from state bit is reading
    1 from state bit ^ obs ^ 1, so every entry is a _born_p1 value."""
    p1 = [protocol._born_p1(_BASIS_ANGLES[basis], bit, angle) for bit in (0, 1)]
    table = np.array([[(1 - p) * p1[bit ^ obs ^ 1] + p * p1[bit ^ obs] for bit in (0, 1)]
                      for obs in (0, 1)])
    return table, protocol._born_p1(angle, 0, _BASIS_ANGLES[1 - basis])


def _tail_over_threshold(probs: List[float], t: int) -> float:
    """P(sum of independent Bernoullis > t): a Poisson-binomial DP over the
    counts 0..t that carries the mass crossing t as it goes; no mass crosses
    t in t steps or fewer."""
    if t < 0:
        return 1.0
    if t >= len(probs):
        return 0.0
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
    width = code.r + m
    cols = gf2.lane_prefix(gf2.pack_lanes(code.f.T), width)  # column i of f as a syndrome
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
    # Measured in the committed basis, a slot of E_1 is blind: there that
    # basis is never Alice's. Otherwise a measured slot takes one kind per
    # encoding basis, and a tested photon errs as its matched basis reads.
    bases = (quantum.PLUS, quantum.CROSS)
    probes = strategy.probe_angles()
    if probes == _BASIS_ANGLES:
        measured, p_rest = [(1.0, "blind")], p
    else:
        slots.update({ty: _measured_slot(probes[1 - ty], ty, p) for ty in bases})
        measured = [(0.5, ty) for ty in bases]
        p_rest = 0.5 * sum(_measured_slot(probes[ty], ty, p)[0][1, 0] for ty in bases)

    def pattern_stats(pattern: tuple) -> Tuple[float, float]:
        """(entropy, defect) of the view class with these slot kinds."""
        tables, chances = zip(*(slots[kind] for kind in pattern))
        return (
            _class_entropy(code, prior, _class_joint(tables, cols, width)),
            _tail_over_threshold(chances, t_defect),
        )

    def plan_classes(held: np.ndarray):
        """(weight, slot kinds) of every view class of one plan: each
        held-slot pattern, weighted by its candidate sets, with every
        measured slot expanded over the measured kinds."""
        weights = _geometry_weights(n, N, int(held.sum()), thr, 0.5, p_rest)
        for pattern, count in _pattern_counts(held, N).items():
            base = count * weights[pattern.count("held")]
            choices = ([(1.0, "held")] if kind == "held" else measured for kind in pattern)
            for choice in product(*choices):
                shares, kinds = zip(*choice)
                yield math.prod(shares, start=base), kinds

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
    ec = tr.E_c
    base = (tuple(tr.s.tolist()), tuple(tr.a.tolist()))
    held, bits = tr.deferred.positions.tolist(), tr.deferred.bits.tolist()
    known = tuple(
        (k, bits[held.index(i)]) for k, i in enumerate(ec.tolist()) if i in held
    )
    if strategy.angle is None:
        return base + (known,)
    return base + (known, tuple(tr.w_hat[ec].tolist()), tuple(tr.theta[ec].tolist()))


def _plugin_mi(pairs: List[Tuple[tuple, Hashable]]) -> float:
    """Plug-in mutual information H(V) + H(B) - H(V, B) over the empirical
    joint of (view, string label) pairs; biased up by O(alphabet/samples).
    Any one-to-one labelling of the strings gives the same counts."""
    if not pairs:
        return math.nan
    views, strings = zip(*pairs)
    h_view, h_string, h_pair = (
        _entropy_bits(np.array(list(Counter(values).values())) / len(pairs))
        for values in (views, strings, pairs)
    )
    return max(0.0, h_view + h_string - h_pair)


def _monte_carlo_engine(
    params: protocol.ProtocolParams,
    strategy: AttackStrategy,
    code: gf2.LinearCode,
    prior: np.ndarray,
    budget: int,
    rng: np.random.Generator,
) -> InfoReport:
    m = params.m
    pairs: List[Tuple[tuple, int]] = []
    defects: List[float] = []
    t_defect = int(math.floor(params.epsilon * params.n))
    # rng.choice(1 << m, p=prior) draws one double and reads it against this
    # CDF; b is that index as a bit string, position 0 most significant
    cdf = prior.cumsum()
    cdf /= cdf[-1]
    strings = gf2._rows_from_words(range(1 << m), m)
    strings.setflags(write=False)

    def draw():
        b_idx = int(cdf.searchsorted(rng.random(), side="right"))
        return int(rng.integers(0, 2**62)), b_idx

    for block in drawn_blocks(draw, budget):
        with primed([seed for seed, _ in block], protocol._RUN_STREAMS):
            for seed, b_idx in block:
                tr = protocol.run_string_qot(
                    params._reseeded(seed), strings[b_idx],
                    bob=strategy, force_c=1, announce_rest=True, code=code,
                )
                if tr.abort_reason is not None:
                    continue
                pairs.append((_view_summary(tr, strategy), b_idx))  # b by its index
                defects.append(view_small_distance_defect(tr, strategy, tr.E_c, t_defect))
    pr_pass = len(pairs) / budget  # one pair per passing run
    mi = _plugin_mi(pairs)
    stats = None
    if defects:
        stats = DefectStats(max=float(np.max(defects)), mean=float(np.mean(defects)))
    return InfoReport(
        pr_pass=pr_pass,
        mutual_information=mi,
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
    event that E_c avoided the stored set entirely; only the exact method
    conditions on it.
    """
    prior = _normalize_prior(prior, params.m)
    if budget is not None:
        budget = gf2.integer(budget, "budget", least=1)
    if require_disjoint_store and method is InfoMethod.MONTE_CARLO:
        raise DomainError("disjointness conditioning needs the exact method")
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
    trials = gf2.integer(trials, "trials", least=1)
    if rng is None:
        rng = stream(params.seed, "branches")
    def draw():  # the seed, then b
        return int(rng.integers(0, 2**62)), gf2.random_bits(rng, params.m)

    rates = []
    for strat in (random_ok(), honest(), store_subset(positions=range(params.n))):
        passed = 0
        for block in drawn_blocks(draw, trials):
            with primed([seed for seed, _ in block], protocol._RUN_STREAMS):
                for seed, b in block:
                    passed += protocol.run_string_qot(params._reseeded(seed), b, bob=strat).passed
        rates.append(passed / trials)
    mixed, honest_rate, store_rate = rates
    return BranchReport(
        pass_mixed=mixed,
        pass_honest=honest_rate,
        pass_store_all=store_rate,
        residual=mixed - 0.5 * (honest_rate + store_rate),
        trials=trials,
    )
