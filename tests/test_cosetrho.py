"""Coset density operators: brute force vs closed form, the mixing
recursion, low-ball certificates, and min-distance ratio statistics."""

import itertools
import math

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qotsim import cosetrho, gf2, quantum
from qotsim.errors import DomainError, ResourceError


def random_code(rng, n_cols, rows):
    f = gf2.random_bitmatrix(rng, rows, n_cols)
    r = int(rng.integers(0, rows + 1))
    return gf2.LinearCode(f=f, r=r, m=rows - r)


def reference_rho_closed_form(ens):
    """The closed form the long way: the xor table of every index pair,
    one sign per entry and np.where, in complex."""
    n = ens.code.N
    span = np.zeros(1 << n, dtype=bool)
    span[gf2.lane_prefix(ens.code.row_span, n)] = True
    idx = np.arange(1 << n, dtype=np.int64)
    delta = idx[:, None] ^ idx[None, :]
    b0 = gf2.pack_int(ens.beta0)
    sign = 1.0 - 2.0 * (np.bitwise_count(delta & b0) & 1)
    return (2.0 ** -n) * np.where(span[delta], sign, 0.0).astype(complex)


def reference_framed_amplitudes(words, theta, theta_hat, indices):
    """<alpha, theta_hat | psi_{w, theta}> as complex products of the
    conjugated single-photon overlaps."""
    n = theta.size
    alphas = (np.asarray(indices, dtype=np.int64)[:, None] >> np.arange(n - 1, -1, -1)) & 1
    photons = quantum._PHOTONS.astype(complex)
    overlap = np.einsum("iaj,ibj->iba", photons[theta_hat].conj(), photons[theta])
    per_photon = overlap[np.arange(n), words]  # (rows, n, 2)
    amps = np.ones((len(words), alphas.shape[0]), dtype=complex)
    for i in range(n):
        amps *= per_photon[:, i, alphas[:, i]]
    return amps


def framed_amplitudes(words, theta, theta_hat, indices):
    """<alpha, theta_hat | psi_{w, theta}> for each row w of words (axis 0)
    and each theta_hat basis index alpha of indices (axis 1), in float64:
    each entry is the product over photons of the single-photon overlaps,
    so only the listed columns of the frame change are formed."""
    n = theta.size
    alphas = (np.asarray(indices, dtype=np.int64)[:, None] >> np.arange(n - 1, -1, -1)) & 1
    # overlap[i, b, a] = <a, theta_hat_i | b, theta_i>
    overlap = np.einsum("iaj,ibj->iba", quantum._PHOTONS[theta_hat], quantum._PHOTONS[theta])
    per_photon = overlap[np.arange(n), words]  # (rows, n, 2)
    amps = np.ones((len(words), alphas.shape[0]))
    for i in range(n):
        amps *= per_photon[:, i, alphas[:, i]]
    return amps


def parity_signs(words, indices):
    """(-1)^popcount(w & alpha) as float64, for each packed word w of words
    (axis 0) and each basis index alpha of indices (axis 1)."""
    return 1.0 - 2.0 * (np.bitwise_count(words[:, None] & indices) & 1)


def gram(code, x, low):
    """S^T S for the coset of syndrome x over the basis states low, summed
    over every coset member: S[k, i] = (-1)^popcount(beta_k & low[i]) is
    2^(N/2) times member beta_k's overlap with state low[i] of the frame
    conjugate to its encoding, for every theta. Each entry is an integer
    of magnitude at most K = |ker f|, exact in any summation order."""
    members = gf2.lane_prefix(gf2.pack_lanes(code.kernel_span), code.N)
    signs = parity_signs(members ^ gf2.pack_int(code.particular(x)), low)
    return signs.T @ signs


@settings(max_examples=100, deadline=None)
@given(st.integers(1, 6), st.integers(0, 2**32 - 1))
def test_framed_amplitudes_are_columns_of_the_frame_change(n, seed):
    rng = np.random.default_rng(seed)
    words = gf2.random_bitmatrix(rng, int(rng.integers(1, 5)), n)
    theta, theta_hat = gf2.random_bits(rng, n), gf2.random_bits(rng, n)
    indices = rng.permutation(1 << n)[: int(rng.integers(0, (1 << n) + 1))]
    framed = np.array([quantum.to_frame(v, theta_hat) for v in quantum.bb84_states(words, theta)])
    got = framed_amplitudes(words, theta, theta_hat, indices)
    assert got.shape == (len(words), indices.size)
    assert np.max(np.abs(got - framed[:, indices]), initial=0.0) < 1e-14


@settings(max_examples=300, deadline=None)
@given(st.integers(1, 10), st.integers(0, 2**32 - 1))
def test_gram_signs_are_the_scaled_conjugate_frame_amplitudes(n, seed):
    """S[k, i] = (-1)^popcount(w_k & alpha_i) is 2^(N/2) times the overlap
    of w_k, encoded in any theta, with alpha_i of theta's conjugate frame:
    the float reference rounds to S and lies within 1e-12 of it."""
    rng = np.random.default_rng(seed)
    words = gf2.random_bitmatrix(rng, int(rng.integers(1, 9)), n)
    theta = gf2.random_bits(rng, n)
    indices = rng.permutation(1 << n)[: int(rng.integers(0, (1 << n) + 1))]
    packed = np.array([gf2.pack_int(w) for w in words], dtype=np.int64)
    signs = parity_signs(packed, indices)
    scaled = 2.0 ** (n / 2) * framed_amplitudes(words, theta, theta ^ 1, indices)
    assert signs.dtype == np.float64 and signs.shape == scaled.shape
    assert np.array_equal(np.rint(scaled), signs)
    assert np.max(np.abs(scaled - signs), initial=0.0) <= 1e-12


def low_ball_block(code, theta, x, x_prime, e, t, w_hat):
    """cosetrho._low_ball_block on operands checked as a certificate
    checks them (theta is checked, but the block does not take it)."""
    operands = cosetrho._certificate_operands(code, theta, x, x_prime, e, t, w_hat)
    return cosetrho._low_ball_block(code, *operands[1:])


def reference_float_block(code, theta, x, x_prime, e, t, w_hat):
    """The low-ball block in float arithmetic: (A^T A - A'^T A') / K over
    the framed amplitudes A of each coset, unscaled and unrounded."""
    theta = quantum.basis_string(theta)
    ens = cosetrho.coset_ensemble(code, x, theta)
    ens_prime = cosetrho.coset_ensemble(code, x_prime, theta)
    low = quantum.ball_projector(e, w_hat, t)
    k = len(code.kernel_span)
    amps = framed_amplitudes(
        np.vstack([ens.members, ens_prime.members]), theta, theta ^ 1, low
    )
    a, a_prime = amps[:k], amps[k:]
    return (a.T @ a - a_prime.T @ a_prime) / k, low


def reference_certificate(code, theta, x, x_prime, e, t, w_hat):
    """(the complex low-ball block, the certificate read from it): split
    with np.split, conjugated products, complex eigvalsh."""
    theta = quantum.basis_string(theta)
    ens = cosetrho.coset_ensemble(code, x, theta)
    ens_prime = cosetrho.coset_ensemble(code, x_prime, theta)
    low = quantum.ball_projector(e, w_hat, t)
    amps = reference_framed_amplitudes(
        np.vstack([ens.members, ens_prime.members]), theta, theta ^ 1, low
    )
    a, a_prime = np.split(amps, 2)
    block = (a.T @ a.conj() - a_prime.T @ a_prime.conj()) / len(a)
    if low.size:
        defect = max(float(np.max(np.abs(block.diagonal()))),
                     float(np.max(np.abs(np.linalg.eigvalsh(block)))))
    else:
        defect = 0.0
    e = gf2.position_set(e, code.N)
    d_eff = code.distance if e.size == code.N else cosetrho._min_weight_on(code, e)
    return block, cosetrho.Lemma1Certificate(
        max_defect=defect, dN=code.distance, condition_met=bool(2 * t < d_eff)
    )


def exact_norm(block):
    """The operator norm of a symmetric block whose float entries are exact,
    from mpmath eigenvalues at 40 digits. A permutation makes the block
    block-diagonal over the connected parts of its nonzero pattern, so each
    part's norm is taken alone (coset blocks split into parts of at most
    2^rank(f) states), and a part seen before is not solved again."""
    linked = block != 0
    unseen = linked.any(axis=0)
    norms = {}
    while unseen.any():
        part = np.zeros(len(block), dtype=bool)
        part[np.argmax(unseen)] = True
        while not np.array_equal(grown := part | linked[part].any(axis=0), part):
            part = grown
        unseen &= ~part
        sub = block[np.ix_(part, part)]
        if sub.tobytes() not in norms:
            with mpmath.workdps(40):
                eigs = mpmath.eigsy(mpmath.matrix(sub.tolist()), eigvals_only=True)
                norms[sub.tobytes()] = max(abs(v) for v in eigs)
    return max(norms.values(), default=mpmath.mpf(0))


def test_exact_norm_splits_a_block_into_its_parts():
    rng = np.random.default_rng(3)
    block = np.zeros((24, 24))
    order = rng.permutation(24)
    for lo, hi in ((0, 9), (9, 13), (13, 16)):  # three parts, eight zero rows
        part = rng.integers(-3, 4, (hi - lo, hi - lo)).astype(float)
        block[np.ix_(order[lo:hi], order[lo:hi])] = part + part.T
    with mpmath.workdps(40):
        whole = max(abs(v) for v in mpmath.eigsy(mpmath.matrix(block.tolist()), eigvals_only=True))
    assert abs(exact_norm(block) - whole) < mpmath.mpf(10) ** -35
    assert exact_norm(np.zeros((3, 3))) == 0


@st.composite
def small_codes(draw, max_n=8):
    """Random codes with N <= max_n, r = 0 allowed, rank-deficient f
    (a repeated or zero row) allowed; returns (code, rng)."""
    n_cols = draw(st.integers(1, max_n))
    rows = draw(st.integers(1, min(4, n_cols)))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    f = gf2.random_bitmatrix(rng, rows, n_cols)
    deficiency = draw(st.sampled_from(["none", "repeat", "zero"]))
    if deficiency == "repeat" and rows > 1:
        f[-1] = f[0]
    elif deficiency == "zero":
        f[-1] = 0
    r = draw(st.integers(0, rows))
    return gf2.LinearCode(f=f, r=r, m=rows - r), rng


def valid_syndromes(code):
    out = []
    for x_int in range(1 << code.f.shape[0]):
        x = gf2.unpack_int(x_int, code.f.shape[0])
        if gf2.solve_affine(code.f, x)[0] is not None:
            out.append(x)
    return out


def test_coset_ensemble_members():
    code = gf2.LinearCode(f=gf2.bitmatrix(["11"]), r=0, m=1)
    ens = cosetrho.coset_ensemble(code, [0], "00")
    got = {gf2.pack_int(v) for v in ens.members}
    assert got == {0b00, 0b11}
    ens = cosetrho.coset_ensemble(code, [1], "00")
    got = {gf2.pack_int(v) for v in ens.members}
    assert got == {0b01, 0b10}


def test_coset_ensemble_members_keep_span_words_order():
    """Row j of members is beta0 xor the j-th span_words word of the kernel."""
    rng = np.random.default_rng(1010)
    for rows, n_cols in ((1, 5), (2, 6), (3, 3), (3, 7)):
        f = gf2.random_bitmatrix(rng, rows, n_cols)
        if rows == 3:
            f[2] = f[0] ^ f[1]  # rank-deficient
        code = gf2.LinearCode(f=f, r=1, m=rows - 1)
        for x in valid_syndromes(code):
            beta0, kern = gf2.solve_affine(f, x)
            words = np.concatenate(list(gf2.span_words(kern))) ^ gf2.pack_lanes([beta0])
            ens = cosetrho.coset_ensemble(code, x, gf2.random_bits(rng, n_cols))
            assert np.array_equal(ens.beta0, beta0)
            assert np.array_equal(ens.members, gf2.unpack_lanes(words, n_cols))


def test_coset_ensemble_rejects_a_syndrome_outside_the_image():
    rng = np.random.default_rng(1020)
    for rows, n_cols in ((2, 2), (3, 3), (3, 6)):
        f = gf2.random_bitmatrix(rng, rows, n_cols)
        f[-1] = f[0]  # rank-deficient: some syndromes have no coset
        code = gf2.LinearCode(f=f, r=1, m=rows - 1)
        valid = {gf2.pack_int(x) for x in valid_syndromes(code)}
        assert len(valid) < 1 << rows
        for packed in set(range(1 << rows)) - valid:
            assert code.particular(gf2.unpack_int(packed, rows)) is None
            with pytest.raises(DomainError):
                cosetrho.coset_ensemble(code, gf2.unpack_int(packed, rows), "0" * n_cols)


def test_certificates_compute_the_min_distance_once_per_code(monkeypatch):
    """lemma1_certificate reads the code's cached distance, which computes
    through the module-level gf2.min_distance once."""
    calls = []
    real = gf2.min_distance
    monkeypatch.setattr(gf2, "min_distance", lambda f: calls.append(f) or real(f))
    code = gf2.LinearCode(f=gf2.bitmatrix(["11100", "00111"]), r=1, m=1)
    for x_prime in ([0, 1], [1, 0], [1, 1]):
        cert = cosetrho.lemma1_certificate(code, "0" * 5, [0, 0], x_prime, range(5), 1, "0" * 5)
        assert cert.dN == 3 and cert.condition_met
    assert len(calls) == 1 and calls[0] is code.f


def test_row_span_is_walked_once_per_code(monkeypatch):
    """rho_closed_form and the restricted certificate both read the code's
    cached row span instead of walking span_words(f) per coset."""
    walked = []
    real = gf2.span_words
    monkeypatch.setattr(gf2, "span_words", lambda m: walked.append(m) or real(m))
    code = gf2.LinearCode(f=gf2.bitmatrix(["11100", "00111"]), r=1, m=1)
    assert code.distance == 3  # min_distance walks f once more, for the distance cache
    walked.clear()
    for x in valid_syndromes(code):
        cosetrho.rho_closed_form(cosetrho.coset_ensemble(code, x, "01010"))
    for x_prime in ([0, 1], [1, 0], [1, 1]):
        cosetrho.lemma1_certificate(code, "0" * 5, [0, 0], x_prime, [0, 1, 3], 1, "0" * 5)
    assert sum(m is code.f for m in walked) == 1


@settings(max_examples=100, deadline=None)
@given(
    n_cols=st.integers(1, 8),
    rows=st.integers(1, 4),
    seed=st.integers(0, 2**32 - 1),
    data=st.data(),
)
def test_min_weight_on_is_the_least_restricted_weight(n_cols, rows, seed, data):
    rows = min(rows, n_cols)
    code = random_code(np.random.default_rng(seed), n_cols, rows)
    e = sorted(data.draw(st.sets(st.integers(0, n_cols - 1))))
    words = [
        np.bitwise_xor.reduce(code.f[list(pick)], axis=0)
        for k in range(1, rows + 1)
        for pick in itertools.combinations(range(rows), k)
    ]
    expected = min((int(w[e].sum()) for w in words if w.any()), default=math.inf)
    assert cosetrho._min_weight_on(code, np.array(e, dtype=np.int64)) == expected


def test_low_balls_are_computed_once_per_code_centre_and_radius(monkeypatch):
    balls = []
    real = quantum._ball_projector
    monkeypatch.setattr(quantum, "_ball_projector",
                        lambda e, center, t: balls.append(t) or real(e, center, t))
    code = gf2.LinearCode(f=gf2.bitmatrix(["11100", "00111"]), r=1, m=1)
    for x_prime in ([0, 1], [1, 0], [1, 1]):
        for t in (0, 1):
            cosetrho.lemma1_certificate(code, "01010", [0, 0], x_prime, range(5), t, "00000")
    assert balls == [0, 1]
    # another centre, subset or code is a ball of its own
    cosetrho.lemma1_certificate(code, "01010", [0, 0], [0, 1], range(5), 1, "10000")
    cosetrho.lemma1_certificate(code, "01010", [0, 0], [0, 1], [0, 1], 1, "00000")
    other = gf2.LinearCode(f=code.f, r=1, m=1)
    cosetrho.lemma1_certificate(other, "01010", [0, 0], [0, 1], range(5), 1, "00000")
    assert balls == [0, 1, 1, 1, 1]


def test_coset_densities_and_certificate_blocks_are_real():
    rng = np.random.default_rng(1060)
    code = random_code(rng, 5, 2)
    while gf2.rank(code.f) == 0:
        code = random_code(rng, 5, 2)
    theta = gf2.random_bits(rng, 5)
    x, x_prime = valid_syndromes(code)[:2]
    ens = cosetrho.coset_ensemble(code, x, theta)
    real = [cosetrho.rho_brute(ens), cosetrho.rho_closed_form(ens),
            cosetrho.induction_form(code.kernel, 5),
            *cosetrho.rho_zero_induction(code, theta),
            low_ball_block(code, theta, x, x_prime, range(5), 5, theta)[0],
            cosetrho.distinguishing_witness(code, theta, x, x_prime, range(5), 5, theta)[1]]
    assert [a.dtype for a in real] == [np.float64] * len(real)


def test_coset_ensemble_empty_coset():
    code = gf2.LinearCode(f=gf2.bitmatrix(["11", "11"]), r=1, m=1)
    with pytest.raises(DomainError):
        cosetrho.coset_ensemble(code, [0, 1], "00")


def test_coset_ensemble_dimension_cap():
    code = gf2.LinearCode(f=np.ones((1, 12), dtype=np.uint8), r=0, m=1)
    with pytest.raises(ResourceError):
        cosetrho.coset_ensemble(code, [0], "0" * 12)


@pytest.mark.parametrize("trial", range(25))
def test_brute_force_density_matches_closed_form(trial):
    rng = np.random.default_rng(1000 + trial)
    n_cols = int(rng.integers(2, 6))
    rows = int(rng.integers(1, min(3, n_cols) + 1))
    code = random_code(rng, n_cols, rows)
    theta = gf2.random_bits(rng, n_cols)
    for x in valid_syndromes(code):
        ens = cosetrho.coset_ensemble(code, x, theta)
        framed = quantum.density_in_frame(
            cosetrho.rho_brute(ens), quantum.conjugate_bases(theta)
        )
        assert np.max(np.abs(framed - cosetrho.rho_closed_form(ens))) < 1e-12


@settings(max_examples=150, deadline=None)
@given(small_codes())
def test_closed_form_equals_its_reference_bit_for_bit(drawn):
    code, rng = drawn
    theta = gf2.random_bits(rng, code.N)
    for x in valid_syndromes(code):
        ens = cosetrho.coset_ensemble(code, x, theta)
        closed = cosetrho.rho_closed_form(ens)
        reference = reference_rho_closed_form(ens)
        assert closed.dtype == np.float64 and not reference.imag.any()
        assert closed.tobytes() == reference.real.copy().tobytes()


@pytest.mark.parametrize("n_cols", [9, 10])
def test_closed_form_at_the_density_cap_equals_its_reference(n_cols):
    """Past 256 states the xor table needs more than 8 bits; uint16 holds
    every index up to the cap."""
    assert n_cols <= quantum.DENSITY_MAX_N
    rng = np.random.default_rng(1070 + n_cols)
    code = random_code(rng, n_cols, 3)
    ens = cosetrho.coset_ensemble(code, valid_syndromes(code)[-1], gf2.random_bits(rng, n_cols))
    assert cosetrho.rho_closed_form(ens).tobytes() == reference_rho_closed_form(ens).real.tobytes()


@settings(max_examples=150, deadline=None)
@given(small_codes(), st.data())
def test_real_certificate_block_matches_the_complex_reference(drawn, data):
    code, rng = drawn
    syndromes = valid_syndromes(code)
    if len(syndromes) < 2:  # a zero map has one coset, nothing to compare
        return
    i, j = data.draw(st.lists(st.integers(0, len(syndromes) - 1), min_size=2,
                              max_size=2, unique=True))
    e = data.draw(st.sampled_from([range(code.N), np.nonzero(rng.integers(0, 2, code.N))[0]]))
    t = data.draw(st.integers(0, code.N))
    args = (code, gf2.random_bits(rng, code.N), syndromes[i], syndromes[j], e, t,
            gf2.random_bits(rng, code.N))
    block, _ = low_ball_block(*args)
    reference_block, reference = reference_certificate(*args)
    assert block.dtype == np.float64
    assert np.max(np.abs(block - reference_block), initial=0.0) <= 1e-15
    cert = cosetrho.lemma1_certificate(*args)
    # the block's closed-form entries are exact, so its 40-digit norm is
    # the true one; the complex reference's own norm may be 9e-16 from it
    assert abs(cert.max_defect - exact_norm(block)) <= 1e-15
    assert (cert.dN, cert.condition_met) == (reference.dN, reference.condition_met)


def certificate_args(drawn, data):
    """A certificate's operands over two distinct valid syndromes of a drawn
    code, on every coordinate or a random subset, at any radius; None for a
    code with a single coset."""
    code, rng = drawn
    syndromes = valid_syndromes(code)
    if len(syndromes) < 2:
        return None
    i, j = data.draw(st.lists(st.integers(0, len(syndromes) - 1), min_size=2,
                              max_size=2, unique=True))
    e = data.draw(st.sampled_from([range(code.N), np.nonzero(rng.integers(0, 2, code.N))[0]]))
    t = data.draw(st.integers(0, code.N))
    return (code, gf2.random_bits(rng, code.N), syndromes[i], syndromes[j], e, t,
            gf2.random_bits(rng, code.N))


@settings(max_examples=150, deadline=None)
@given(small_codes(), st.data())
def test_exact_block_is_the_restricted_closed_form_difference(drawn, data):
    """The low-ball block equals rho_x - rho_x' of rho_closed_form on the
    ball's states, bit for bit, so a block inside the hypothesis is 0."""
    args = certificate_args(drawn, data)
    if args is None:
        return
    code, theta, x, x_prime = args[:4]
    block, low = low_ball_block(*args)
    closed = (cosetrho.rho_closed_form(cosetrho.coset_ensemble(code, x, theta))
              - cosetrho.rho_closed_form(cosetrho.coset_ensemble(code, x_prime, theta)))
    assert np.array_equal(block, closed[np.ix_(low, low)])
    cert = cosetrho.lemma1_certificate(*args)
    if cert.condition_met:
        assert not block.any() and cert.max_defect == 0.0


@settings(max_examples=150, deadline=None)
@given(small_codes(), st.data())
def test_exact_block_matches_the_float_gram_reference(drawn, data):
    args = certificate_args(drawn, data)
    if args is None:
        return
    block, low = low_ball_block(*args)
    reference_block, reference_low = reference_float_block(*args)
    assert np.array_equal(low, reference_low)
    assert np.max(np.abs(block - reference_block), initial=0.0) <= 1e-15
    cert = cosetrho.lemma1_certificate(*args)
    _, reference = reference_certificate(*args)
    assert (cert.dN, cert.condition_met) == (reference.dN, reference.condition_met)


@settings(max_examples=150, deadline=None)
@given(small_codes(), st.data())
def test_ball_block_is_the_scaled_member_gram_difference(drawn, data):
    """At every radius 0..N, on every coordinate and on a random subset,
    the low-ball block is (G_x - G_x') 2^-N / K of the member sums, bit for
    bit: G_x is K times the closed-form block at any rank of f."""
    args = certificate_args(drawn, data)
    if args is None:
        return
    code, theta, x, x_prime, _, _, w_hat = args
    k = len(code.kernel_span)
    subset = np.nonzero(drawn[1].integers(0, 2, code.N))[0]
    for e in (range(code.N), subset):
        for t in range(code.N + 1):
            block, low = low_ball_block(code, theta, x, x_prime, e, t, w_hat)
            expect = (gram(code, x, low) - gram(code, x_prime, low)) * (2.0 ** -code.N / k)
            assert block.dtype == np.float64 and np.array_equal(block, expect)


@pytest.mark.parametrize("e", [range(5), [0, 1, 3]])
def test_certificate_checks_each_operand_once(monkeypatch, e):
    """One bit check per bit-string operand (theta, x, x', w_hat) per
    certificate, whether its low ball and ball blocks are new or kept."""
    code = gf2.LinearCode(f=gf2.bitmatrix(["11100", "00111"]), r=1, m=1)
    code.distance, code.row_span  # per-code facts, cached
    checked = []
    real = gf2._bit_array
    monkeypatch.setattr(gf2, "_bit_array", lambda v, what: checked.append(v) or real(v, what))
    for t in (1, 1, 2):
        operands = [[0, 1, 0, 1, 0], [0, 0], [1, 1], e, t, [0, 0, 0, 0, 1]]
        cosetrho.lemma1_certificate(code, *operands)
        assert len(checked) == 4
        assert [sum(v is op for v in checked) for op in operands[:3] + operands[5:]] == [1] * 4
        checked.clear()
        cosetrho.distinguishing_witness(code, *operands)
        assert sum(v is op for v in checked for op in operands) == 4
        checked.clear()


def test_ball_blocks_are_built_once_per_code_syndrome_and_ball(monkeypatch):
    """Each (syndrome, ball) block is gathered from one closed-form column
    and kept under one memo key, however many pairs share it; another
    theta reuses it, since the block over theta's conjugate frame is the
    same for every theta."""
    built = []
    real = cosetrho._closed_form_column
    monkeypatch.setattr(cosetrho, "_closed_form_column",
                        lambda on, beta0: built.append(on) or real(on, beta0))
    f = gf2.bitmatrix(["1110000", "0011100", "0000111"])
    code = gf2.LinearCode(f=f, r=1, m=2)

    def block_keys(on):
        return [key for key in on.memo._kept if key[0] == "ball block"]

    syndromes = valid_syndromes(code)
    assert len(syndromes) == 8
    blocks = {}
    for x, x_prime in itertools.combinations(syndromes, 2):
        for t in (0, 1):
            args = (code, "0101010", x, x_prime, range(7), t, "0" * 7)
            cosetrho.lemma1_certificate(*args)
            blocks[x.tobytes(), x_prime.tobytes(), t] = low_ball_block(*args)[0]
    assert len(built) == 16 and all(on is code for on in built)
    assert len(block_keys(code)) == 16
    for theta in ("1101010", "xxxxxxx"):
        for (x, x_prime, t), block in blocks.items():
            args = (code, theta, np.frombuffer(x, dtype=np.uint8),
                    np.frombuffer(x_prime, dtype=np.uint8), range(7), t, "0" * 7)
            assert np.array_equal(low_ball_block(*args)[0], block)
    assert len(built) == 16
    # another centre, subset or code is a block of its own
    for e, w_hat, on in ((range(7), "1" + "0" * 6, code), ([0, 1], "0" * 7, code),
                         (range(7), "0" * 7, gf2.LinearCode(f=f, r=1, m=2))):
        cosetrho.lemma1_certificate(on, "0101010", syndromes[0], syndromes[1], e, 1, w_hat)
    assert len(built) == 22 and len(block_keys(code)) == 20


@pytest.mark.parametrize("check", [cosetrho.lemma1_certificate, cosetrho.distinguishing_witness])
def test_certificates_reject_a_syndrome_outside_the_image(check):
    """A rank-deficient f has syndromes with an empty coset; either one of
    the pair is refused before any low ball or ball block is built."""
    code = gf2.LinearCode(f=gf2.bitmatrix(["1100", "1100", "0011"]), r=1, m=2)
    inside, outside = [0, 0, 1], [1, 0, 0]
    assert code.particular(inside) is not None and code.particular(outside) is None
    for x, x_prime in ((inside, outside), (outside, inside)):
        with pytest.raises(DomainError, match="image of f"):
            check(code, "0000", x, x_prime, range(4), 1, "0000")
    assert not any(key[0] in ("ball block", "low ball") for key in code.memo._kept)


def test_nonzero_blocks_are_solved_one_row_span_coset_at_a_time(monkeypatch):
    """A full-radius block over all 2^N states is a direct sum of 2^(N-2)
    blocks of 4 states, one per coset of a rank-2 row span, and eigh sees
    only those; the norm and witness are the full block's."""
    sizes = []
    real = np.linalg.eigh
    monkeypatch.setattr(np.linalg, "eigh", lambda a: sizes.append(len(a)) or real(a))
    code = gf2.LinearCode(f=gf2.bitmatrix(["110100", "011010"]), r=1, m=1)
    args = (code, "010011", [0, 0], [0, 1], range(6), 6, "000000")
    cert = cosetrho.lemma1_certificate(*args)
    value, phi = cosetrho.distinguishing_witness(*args)
    assert sizes == [4] * 32
    block, _ = low_ball_block(*args)
    full = float(np.max(np.abs(np.linalg.eigvalsh(block))))
    assert abs(cert.max_defect - full) <= 1e-15 and value == cert.max_defect
    assert not cert.condition_met and value > 1e-3


@pytest.mark.parametrize("t", [-1, 1.5, "1", None])
def test_certificate_rejects_a_radius_that_is_not_a_nonnegative_integer(t):
    code = gf2.parity_code(4)
    with pytest.raises(DomainError, match="radius"):
        cosetrho.lemma1_certificate(code, "0000", [0], [1], range(4), t, "0000")


def test_wide_ball_blocks_stay_within_the_memo_byte_bound():
    """A full-radius ball block at N = 10 (1024 x 1024 floats) is larger
    than the memo's byte bound, so it is recomputed, not kept; a small
    block of the same code is kept."""
    code = gf2.LinearCode(f=gf2.random_bitmatrix(np.random.default_rng(1400), 3, 10), r=1, m=2)
    x, x_prime = valid_syndromes(code)[:2]
    wide = cosetrho.lemma1_certificate(code, "0" * 10, x, x_prime, range(10), 10, "0" * 10)
    assert not wide.condition_met and wide.max_defect > 0.0
    cosetrho.lemma1_certificate(code, "0" * 10, x, x_prime, range(10), 1, "0" * 10)
    blocks = [v for key, v in code.memo._kept.items() if key[0] == "ball block"]
    assert [b.shape for b in blocks] == [(11, 11)] * 2
    assert code.memo._bytes <= gf2.Memo.MEMO_MAX_BYTES


def test_rho_brute_matches_the_per_member_outer_product_loop():
    rng = np.random.default_rng(1050)
    code = random_code(rng, 8, 1)
    theta = gf2.random_bits(rng, 8)
    ens = cosetrho.coset_ensemble(code, valid_syndromes(code)[-1], theta)
    assert len(ens.members) == 128
    reference = np.zeros((256, 256), dtype=complex)
    for beta in ens.members:
        v = np.array([1.0], dtype=complex)
        for bit, basis in zip(beta, theta):
            v = np.kron(v, quantum.photon(int(bit), int(basis)))
        reference += np.outer(v, v.conj()) / 128
    assert np.max(np.abs(cosetrho.rho_brute(ens) - reference)) <= 1e-15


def test_rho_brute_density_cap():
    code = gf2.LinearCode(f=np.ones((1, 11), dtype=np.uint8), r=0, m=1)
    with pytest.raises(ResourceError):
        cosetrho.rho_brute(cosetrho.coset_ensemble(code, [0], "0" * 11))


def test_closed_form_on_a_duplicate_row_matrix():
    # rank-deficient presentation: both rows constrain the same parity
    code = gf2.LinearCode(f=gf2.bitmatrix(["11", "11"]), r=1, m=1)
    theta = gf2.bits("01")
    ens = cosetrho.coset_ensemble(code, [1, 1], theta)
    assert len(ens.members) == 2
    framed = quantum.density_in_frame(
        cosetrho.rho_brute(ens), quantum.conjugate_bases(theta)
    )
    assert np.max(np.abs(framed - cosetrho.rho_closed_form(ens))) < 1e-12


@pytest.mark.parametrize("trial", range(10))
def test_coset_density_is_a_scaled_projector(trial):
    rng = np.random.default_rng(1100 + trial)
    n_cols = int(rng.integers(2, 6))
    code = random_code(rng, n_cols, int(rng.integers(1, min(3, n_cols) + 1)))
    theta = gf2.random_bits(rng, n_cols)
    x = valid_syndromes(code)[0]
    ens = cosetrho.coset_ensemble(code, x, theta)
    rho = cosetrho.rho_brute(ens)
    assert abs(np.trace(rho).real - 1.0) < 1e-12
    # 2^dim equally weighted orthogonal states: rho^2 = rho / 2^dim
    assert np.max(np.abs(rho @ rho - rho / len(ens.members))) < 1e-12


def test_induction_form_base_and_one_step():
    base = cosetrho.induction_form(np.zeros((0, 2), dtype=np.uint8), 2)
    assert np.allclose(base, np.full((4, 4), 0.25))
    one = cosetrho.induction_form(gf2.bitmatrix(["11"]), 2)
    expect = np.zeros((4, 4))
    for i in range(4):
        for j in range(4):
            if (i ^ j) in (0b00, 0b11):
                expect[i, j] = 0.25
    assert np.allclose(one, expect)


@pytest.mark.parametrize("trial", range(10))
def test_mixing_recursion_matches_claimed_forms(trial):
    rng = np.random.default_rng(1200 + trial)
    n_cols = int(rng.integers(2, 6))
    code = random_code(rng, n_cols, int(rng.integers(1, min(3, n_cols) + 1)))
    theta = gf2.random_bits(rng, n_cols)
    kernel = gf2.kernel_basis(code.f)
    steps = cosetrho.rho_zero_induction(code, theta)
    assert len(steps) == kernel.shape[0] + 1
    frame = quantum.conjugate_bases(theta)
    for j, rho in enumerate(steps):
        claimed = cosetrho.induction_form(kernel[:j], n_cols)
        assert np.max(np.abs(quantum.density_in_frame(rho, frame) - claimed)) < 1e-12
    zero = gf2.bits([0] * code.f.shape[0])
    brute = cosetrho.rho_brute(cosetrho.coset_ensemble(code, zero, theta))
    assert np.max(np.abs(steps[-1] - brute)) < 1e-12


def test_mixing_recursion_rejects_bad_kernels():
    code = gf2.LinearCode(f=gf2.bitmatrix(["110", "011"]), r=1, m=1)
    with pytest.raises(DomainError):
        cosetrho.rho_zero_induction(code, "000", kernel=gf2.bitmatrix(["100"]))
    code2 = gf2.LinearCode(f=gf2.bitmatrix(["1100"]), r=0, m=1)
    with pytest.raises(DomainError):
        cosetrho.rho_zero_induction(
            code2, "0000", kernel=gf2.bitmatrix(["0011", "0011"])
        )


@pytest.mark.parametrize("trial", range(8))
def test_mixing_recursion_is_independent_of_the_kernel_basis(trial):
    """Two bases of ker f, the derived one and its rows reversed with the
    new first row added to the second, end on the same rho^(k): the zero
    syndrome's brute-force density."""
    rng = np.random.default_rng(1300 + trial)
    n_cols = int(rng.integers(3, 7))
    code = random_code(rng, n_cols, int(rng.integers(1, n_cols - 1)))
    while code.kernel.shape[0] < 2:
        code = random_code(rng, n_cols, int(rng.integers(1, n_cols - 1)))
    theta = gf2.random_bits(rng, n_cols)
    other = code.kernel[::-1].copy()
    other[1] ^= other[0]
    assert not np.array_equal(other, code.kernel)
    derived = cosetrho.rho_zero_induction(code, theta)[-1]
    mixed = cosetrho.rho_zero_induction(code, theta, kernel=other)[-1]
    assert np.array_equal(derived, mixed)
    zero = gf2.bits([0] * code.f.shape[0])
    brute = cosetrho.rho_brute(cosetrho.coset_ensemble(code, zero, theta))
    assert np.max(np.abs(mixed - brute)) < 1e-12


def test_mixing_recursion_cap_message_follows_the_caps(monkeypatch):
    code = gf2.LinearCode(f=gf2.bitmatrix(["11000"]), r=0, m=1)
    monkeypatch.setattr(quantum, "DENSITY_MAX_N", 4)
    with pytest.raises(ResourceError, match="^induction caps at N=4, kernel dimension 10$"):
        cosetrho.rho_zero_induction(code, "00000")
    monkeypatch.setattr(quantum, "DENSITY_MAX_N", 5)
    monkeypatch.setattr(cosetrho, "COSET_MAX_DIM", 3)
    with pytest.raises(ResourceError, match="^induction caps at N=5, kernel dimension 3$"):
        cosetrho.rho_zero_induction(code, "00000")


def full_density_block(code, theta, x, x_prime, e, t, w_hat):
    """The certificate's block the long way: both brute densities, their
    difference framed whole, then sliced to the low ball."""
    theta_hat = quantum.conjugate_bases(theta)
    diff = cosetrho.rho_brute(cosetrho.coset_ensemble(code, x, theta)) - cosetrho.rho_brute(
        cosetrho.coset_ensemble(code, x_prime, theta)
    )
    low = quantum.ball_projector(e, w_hat, t)
    return quantum.density_in_frame(diff, theta_hat)[np.ix_(low, low)], low


@pytest.mark.parametrize("trial", range(20))
def test_low_ball_block_matches_the_framed_full_density(trial):
    rng = np.random.default_rng(1300 + trial)
    n_cols = int(rng.integers(3, 9))
    code = random_code(rng, n_cols, int(rng.integers(1, 4)))
    while gf2.rank(code.f) == 0:  # a zero map has one coset, nothing to compare
        code = random_code(rng, n_cols, code.f.shape[0])
    syndromes = valid_syndromes(code)
    x, x_prime = syndromes[0], syndromes[-1]
    theta, w_hat = gf2.random_bits(rng, n_cols), gf2.random_bits(rng, n_cols)
    subset = np.nonzero(rng.integers(0, 2, n_cols))[0]
    for e in (range(n_cols), subset):
        # t = 0 lies inside the hypothesis (2t < dN) and t = N beyond it
        for t in range(n_cols + 1):
            args = (code, theta, x, x_prime, e, t, w_hat)
            expect, low = full_density_block(*args)
            block, got_low = low_ball_block(*args)
            assert np.array_equal(got_low, low)
            assert np.max(np.abs(block - expect), initial=0.0) <= 1e-14
            if low.size:
                value, _ = cosetrho.distinguishing_witness(*args)
                assert abs(value - np.max(np.abs(np.linalg.eigvalsh(expect)))) <= 1e-12


def test_certificate_keeps_the_density_cap():
    code = gf2.parity_code(11)
    with pytest.raises(ResourceError):
        cosetrho.lemma1_certificate(code, "0" * 11, [0], [1], range(11), 0, "0" * 11)


def test_certificate_under_hypothesis():
    code = gf2.parity_code(4)
    cert = cosetrho.lemma1_certificate(
        code, "0x0x", [0], [1], range(4), 1, "0000"
    )
    assert cert.dN == 4
    assert cert.condition_met
    assert cert.max_defect < 1e-12


def test_certificate_out_of_hypothesis_sees_a_difference():
    code = gf2.parity_code(4)
    cert = cosetrho.lemma1_certificate(
        code, "0000", [0], [1], range(4), 2, "0000"
    )
    assert not cert.condition_met
    assert cert.max_defect > 1e-3


def test_certificate_tightens_on_a_proper_subset():
    """A span word of weight 3 restricted to one coordinate has weight 1,
    so a radius-1 ball on that coordinate already resolves the cosets even
    though 2t < dN holds for the full support."""
    code = gf2.LinearCode(f=gf2.bitmatrix(["111"]), r=0, m=1)
    cert = cosetrho.lemma1_certificate(code, "000", [0], [1], [0], 1, "000")
    assert cert.dN == 3  # the unrestricted distance alone would pass 2t < dN
    assert not cert.condition_met
    assert cert.max_defect > 1e-3


def test_certificate_demands_distinct_syndromes():
    code = gf2.parity_code(3)
    with pytest.raises(DomainError):
        cosetrho.lemma1_certificate(code, "000", [1], [1], range(3), 0, "000")


def test_witness_value_matches_its_vector():
    code = gf2.parity_code(3)
    theta = gf2.bits("010")
    value, phi = cosetrho.distinguishing_witness(
        code, theta, [0], [1], range(3), 2, "000"
    )
    assert value > 1e-3
    diff = cosetrho.rho_brute(
        cosetrho.coset_ensemble(code, [0], theta)
    ) - cosetrho.rho_brute(cosetrho.coset_ensemble(code, [1], theta))
    assert abs(abs(np.vdot(phi, diff @ phi)) - value) < 1e-10
    assert abs(np.linalg.norm(phi) - 1.0) < 1e-10


def test_witness_in_hypothesis_is_negligible():
    code = gf2.parity_code(5)
    value, _ = cosetrho.distinguishing_witness(
        code, "xx0x0", [0], [1], range(5), 2, "00000"
    )
    assert value < 1e-12


def test_witness_support_stays_in_the_ball():
    code = gf2.parity_code(4)
    theta = gf2.bits("0110")
    w_hat = gf2.bits("0011")
    _, phi = cosetrho.distinguishing_witness(
        code, theta, [0], [1], range(4), 2, w_hat
    )
    coords = quantum.to_frame(phi, quantum.conjugate_bases(theta))
    for idx in np.nonzero(np.abs(coords) > 1e-10)[0]:
        alpha = gf2.unpack_int(int(idx), 4)
        assert np.count_nonzero(alpha != w_hat) <= 2


def test_gv_bound_trial_validation_and_determinism():
    rng = np.random.default_rng(5)
    with pytest.raises(DomainError):
        cosetrho.gv_bound_trial(4, 4, 0.1, 5, rng)
    with pytest.raises(DomainError):
        cosetrho.gv_bound_trial(4, 2, 0.1, 0, rng)
    with pytest.raises(ResourceError):
        cosetrho.gv_bound_trial(26, 25, 0.1, 5, rng)
    a = cosetrho.gv_bound_trial(10, 3, 0.1, 40, np.random.default_rng(17))
    b = cosetrho.gv_bound_trial(10, 3, 0.1, 40, np.random.default_rng(17))
    assert a == b
    assert 0.0 <= a <= 1.0


@pytest.mark.parametrize("eta", [math.nan, math.inf, -math.inf])
def test_gv_bound_trial_rejects_a_non_finite_eta(eta):
    with pytest.raises(DomainError, match="eta"):
        cosetrho.gv_bound_trial(10, 3, eta, 5, np.random.default_rng(5))


def test_gv_bound_trial_is_the_share_of_gv_trials_over_one_generator():
    rng = np.random.default_rng(17)
    threshold, draws = cosetrho.gv_trials(10, 3, 0.1, 40, lambda i: rng)
    assert threshold == gf2.binary_entropy_inverse(0.7) - 0.1
    assert all(ok == (ratio > threshold) and ratio == d / 10 for d, ratio, ok in draws)
    fraction = cosetrho.gv_bound_trial(10, 3, 0.1, 40, np.random.default_rng(17))
    assert fraction == sum(ok for _, _, ok in draws) / 40


@pytest.mark.parametrize("above", [False, True])
def test_gv_trials_counts_only_a_ratio_strictly_above_the_threshold(monkeypatch, above):
    """A draw whose d/N lands exactly on the threshold is not counted; one
    ulp lower, it is."""
    n_cols, rows = 10, 3
    d = gf2.min_distance(gf2.random_bitmatrix(np.random.default_rng(17), rows, n_cols))
    assert d != math.inf
    ratio = d / n_cols
    threshold = math.nextafter(ratio, 0.0) if above else ratio
    monkeypatch.setattr(gf2, "binary_entropy_inverse", lambda y: threshold)
    got, draws = cosetrho.gv_trials(n_cols, rows, 0.0, 1, lambda i: np.random.default_rng(17))
    assert got == threshold
    assert draws == [(d, ratio, above)]


def test_gv_bound_trial_zero_rows_always_satisfies():
    assert cosetrho.gv_bound_trial(8, 0, 0.1, 10, np.random.default_rng(1)) == 1.0
