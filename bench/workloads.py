"""The four benchmark workloads: seeded op lists, op calls and output checks.

Each workload turns a seed into a fixed list of op specs (plain JSON data)
and binds each spec to one public qotsim call. The inputs come from the
harness's own generator, never from the program's random streams, so the
program receives only the generated inputs. Every op has an output check
and a canonical byte form that feeds the workload's sha256 digest.

Why these four: each heavily used layer does most of the work in one
workload and little in another.

* transfer: protocol runs at n=1024 under CLASSICAL_FAST. The per-photon
  Reception.measure loop and quantum.angle_basis do almost all the work;
  the 2^8-word decode coset is too small to show a decode change.
* certify: closed form against brute force and Lemma 1 certificates on
  small codes, the shape of acceptance criteria 01 and 03. rho_brute and
  density_in_frame dominate, and brute densities repeat across the
  syndrome pairs of a code.
* attack: exact and Monte Carlo information accounts. The exact engine
  and the statevector Reception (EXACT_QUANTUM) do the work.
* codes: min_distance plus one ML decode per code: the Gray-code span
  walks and nothing else.
"""

from __future__ import annotations

import itertools
import json
import math
import zlib
from typing import Callable, Dict, List, Optional

import numpy as np

from qotsim import attacks, cosetrho, gf2, protocol, quantum

TOL = 1e-10  # the criterion 01 and 03 tolerance


def _rng(seed: int, name: str, *extra: int) -> np.random.Generator:
    return np.random.default_rng([seed, zlib.crc32(name.encode()), *extra])


def _bits(rng: np.random.Generator, size) -> list:
    return rng.integers(0, 2, size=size).tolist()


def _u8(values) -> np.ndarray:
    return np.asarray(values, dtype=np.uint8)


def _mod2(f: np.ndarray, v: np.ndarray) -> np.ndarray:
    """f v over GF(2), computed here rather than by the program under test."""
    return (f.astype(np.int64) @ v.astype(np.int64) & 1).astype(np.uint8)


def _rank(rows: list) -> int:
    """GF(2) rank of a list of 0/1 rows."""
    pivots: Dict[int, int] = {}
    for row in rows:
        word = int("".join(map(str, row)), 2)
        while word:
            top = word.bit_length() - 1
            if top not in pivots:
                pivots[top] = word
                break
            word ^= pivots[top]
    return len(pivots)


def _span_min_weight(rows: list) -> int:
    words = [int("".join(map(str, row)), 2) for row in rows]
    best = math.inf
    for combo in range(1, 1 << len(words)):
        acc = 0
        for i, word in enumerate(words):
            if combo >> i & 1:
                acc ^= word
        if acc:
            best = min(best, bin(acc).count("1"))
    return best


def _bitstr(v) -> str:
    return "".join(str(int(b)) for b in np.asarray(v).ravel())


class Workload:
    """A seeded op list and how to run and check each op.

    nominal_ops_per_s sets the op count for a given run length: it is a
    constant, so one (seed, seconds) pair always gives the same list.
    block_ops is the length of the blocks between which the end-to-end
    pass times its calibration kernel: whole cycles of the op shapes,
    about one second of ops.
    """

    name = ""
    shapes: tuple = ()  # every op shape the stream yields
    nominal_ops_per_s = 1.0
    block_ops = 1
    min_ops = 100  # op_p90_ms then has ten samples beyond it

    def op_count(self, seconds: float) -> int:
        """A whole number of blocks, at least min_ops ops."""
        blocks = max(-(-self.min_ops // self.block_ops),
                     round(seconds * self.nominal_ops_per_s / self.block_ops))
        return blocks * self.block_ops

    def specs(self, seed: int, count: int) -> List[dict]:
        """The first `count` ops of the seeded stream."""
        return list(itertools.islice(self._stream(_rng(seed, self.name)), count))

    def warmup_specs(self, seed: int) -> List[dict]:
        """One op of every shape, drawn from a stream the timed ops never use."""
        seen: Dict[str, dict] = {}
        for spec in self._stream(_rng(seed, self.name, 1)):
            seen.setdefault(spec["shape"], spec)
            if len(seen) == len(self.shapes):
                return list(seen.values())
        raise AssertionError("unreachable: the stream is endless")

    def _stream(self, rng):
        """Endless op specs drawn from rng."""
        raise NotImplementedError

    def prepare(self, spec: dict) -> Callable[[], object]:
        """Bind the spec's inputs; the returned call runs the op."""
        raise NotImplementedError

    def check(self, spec: dict, out) -> Optional[str]:
        """None when the output holds its invariants, else the reason."""
        raise NotImplementedError

    def canonical(self, spec: dict, out) -> bytes:
        raise NotImplementedError

    def cli_args(self, seed: int, out_dir: str) -> List[str]:
        """One small cli.main invocation of this workload's command."""
        raise NotImplementedError


# ---------------------------------------------------------------------------

class Transfer(Workload):
    name = "transfer"
    nominal_ops_per_s = 60.0  # 3-op cycle
    block_ops = 45
    shapes = ("honest", "fixed_basis", "qkd_eve")
    N, R, M, DELTA, NOISE = 16, 8, 2, 0.05, 0.02

    def _stream(self, rng):
        for i in itertools.count():
            yield {
                "shape": self.shapes[i % 3],
                "seed": int(rng.integers(0, 2**62)),
                "b": _bits(rng, self.M),
            }

    def _params(self, spec) -> protocol.ProtocolParams:
        return protocol.ProtocolParams(
            n=1024, m=self.M, r=self.R, N=self.N, delta=self.DELTA,
            noise_p=self.NOISE, mode=protocol.Mode.CLASSICAL_FAST, seed=spec["seed"],
        )

    def prepare(self, spec):
        params, b = self._params(spec), _u8(spec["b"])
        if spec["shape"] == "honest":
            run = lambda: protocol.run_string_qot(params, b)  # noqa: E731
        elif spec["shape"] == "fixed_basis":
            bob = attacks.fixed_basis(0.3)
            run = lambda: protocol.run_string_qot(params, b, bob=bob)  # noqa: E731
        else:
            eve = attacks.honest()
            run = lambda: protocol.run_qkd(params, eve=eve)  # noqa: E731

        def op():
            tr = run()
            return tr, tr.to_json()

        return op

    def check(self, spec, out):
        tr, text = out
        if protocol.Transcript.from_json(text).to_json() != text:
            return "transcript does not round-trip through from_json"
        if tr.decoded is not None:
            g = tr.f[: tr.params.r]
            if not np.array_equal(_mod2(g, tr.decoded), tr.s):
                return "decoded word violates g v = s"
        return None

    def canonical(self, spec, out):
        return out[1].encode()

    def cli_args(self, seed, out_dir):
        return ["simulate", "--n", "256", "--N", "16", "--r", "8", "--m", "2",
                "--noise", "0.02", "--trials", "2", "--seed", str(seed), "--out", out_dir]


# ---------------------------------------------------------------------------

class Certify(Workload):
    """Per code: one closed-form-against-brute comparison per syndrome, then
    one certificate per syndrome pair and radius.

    Codes are full rank and have span min distance at least 3, so both
    radii 0 and 1 lie inside the hypothesis 2t < dN and every code of one
    shape yields the same ops. The shapes cycle over N = 5..8 and 1..3
    rows (a [5, 3] code cannot reach distance 3), so every seed runs the
    same mix of op sizes.
    """

    name = "certify"
    nominal_ops_per_s = 18.2  # one cycle of the code shapes (272 ops) in 15 s
    block_ops = 34  # a cycle is eight blocks
    CYCLE_OPS = 272
    RADII = (0, 1)
    CODE_SHAPES = tuple(
        (n_cols, rows) for rows in (1, 2, 3) for n_cols in (5, 6, 7, 8)
        if (n_cols, rows) != (5, 3)
    )
    shapes = tuple(
        f"{kind}-N{n_cols}-rows{rows}" for n_cols, rows in CODE_SHAPES
        for kind in ("compare", "cert")
    )

    def op_count(self, seconds):
        """Whole cycles of the code shapes. Each shape's share of the ops,
        and so the cluster of op times that p50 and p90 fall in, is then
        the same at every run length. A cycle and a half would put p50 on
        the gap between the N6 and the N7 certificates."""
        cycles = max(1, round(seconds * self.nominal_ops_per_s / self.CYCLE_OPS))
        return cycles * self.CYCLE_OPS

    def specs(self, seed, count):
        """The ops of the first codes, dealt into blocks of block_ops ops.

        A code's ops would otherwise run back to back, and a shape's median
        would see the machine only during that code's short stretch of the
        run. The ops, sorted by shape, are dealt to the blocks in turn, one
        round forward and the next backward, and each block is shuffled.
        Every block then holds each shape's ops to within one, and the
        shapes of each block are the same for every seed, because every
        code of one shape yields the same ops.
        """
        ops = super().specs(seed, count)
        rng = _rng(seed, self.name, 2)
        order = sorted(range(len(ops)), key=lambda i: ops[i]["shape"])
        n_blocks = len(ops) // self.block_ops
        blocks: List[List[dict]] = [[] for _ in range(n_blocks)]
        for k, i in enumerate(order):
            lap, j = divmod(k, n_blocks)
            blocks[j if lap % 2 == 0 else n_blocks - 1 - j].append(ops[i])
        return [block[i] for block in blocks for i in rng.permutation(len(block))]

    def __init__(self):
        self._codes: Dict[str, gf2.LinearCode] = {}

    def _stream(self, rng):
        for j in itertools.count():
            n_cols, rows = self.CODE_SHAPES[j % len(self.CODE_SHAPES)]
            while True:
                f = _bits(rng, (rows, n_cols))
                if _rank(f) == rows and _span_min_weight(f) >= 3:
                    break
            code = {"f": f, "r": rows // 2, "m": rows - rows // 2,
                    "theta": _bits(rng, n_cols), "w_hat": _bits(rng, n_cols)}
            syndromes = [[int(c) for c in format(x, f"0{rows}b")] for x in range(1 << rows)]
            for x in syndromes:
                yield {"shape": f"compare-N{n_cols}-rows{rows}", **code, "x": x}
            for x, x_prime in itertools.combinations(syndromes, 2):
                for t in self.RADII:
                    yield {"shape": f"cert-N{n_cols}-rows{rows}", **code, "x": x,
                           "x_prime": x_prime, "t": t}

    def _code(self, spec) -> gf2.LinearCode:
        """One LinearCode object per code, shared by all of its ops."""
        key = json.dumps(spec["f"])
        if key not in self._codes:
            self._codes[key] = gf2.LinearCode(f=_u8(spec["f"]), r=spec["r"], m=spec["m"])
        return self._codes[key]

    def prepare(self, spec):
        code, theta, x = self._code(spec), _u8(spec["theta"]), _u8(spec["x"])
        if spec["shape"].startswith("compare"):
            frame = quantum.conjugate_bases(theta)

            def compare():
                ens = cosetrho.coset_ensemble(code, x, theta)
                brute = quantum.density_in_frame(cosetrho.rho_brute(ens), frame)
                return float(np.max(np.abs(brute - cosetrho.rho_closed_form(ens))))

            return compare
        x_prime, w_hat, t = _u8(spec["x_prime"]), _u8(spec["w_hat"]), spec["t"]
        everywhere = range(code.N)
        return lambda: cosetrho.lemma1_certificate(  # noqa: E731
            code, theta, x, x_prime, everywhere, t, w_hat
        )

    def check(self, spec, out):
        if spec["shape"].startswith("compare"):
            return None if out <= TOL else f"closed form differs from brute by {out!r}"
        if not out.condition_met:
            return "an in-hypothesis radius was reported outside the hypothesis"
        return None if out.max_defect <= TOL else f"certificate defect {out.max_defect!r}"

    def canonical(self, spec, out):
        if spec["shape"].startswith("compare"):
            return repr(out).encode()
        return f"{out.dN}|{out.condition_met}|{out.max_defect!r}".encode()

    def cli_args(self, seed, out_dir):
        return ["density-check", "--N", "6", "--r", "1", "--m", "1",
                "--trials", "4", "--seed", str(seed), "--out", out_dir]


# ---------------------------------------------------------------------------

class Attack(Workload):
    """Alternates exact reports at the engine caps (n=10, N=3, m=2) with
    small Monte Carlo reports under EXACT_QUANTUM at n=12.

    About 30% of Monte Carlo runs abort on a set shortage (N=2 of n=12);
    a budget of 16 keeps the chance that all of them abort, which leaves no
    information estimate, near 3e-9 per op.
    """

    name = "attack"
    nominal_ops_per_s = 20.8  # 312 ops in 15 s: 26 cycles of 12
    block_ops = 24
    EXACT = ("exact-STORE_SUBSET", "exact-FIXED_BASIS", "exact-RANDOM_OK")
    MONTE_CARLO = ("mc-STORE_SUBSET", "mc-RANDOM_OK")
    shapes = EXACT + MONTE_CARLO
    MC_BUDGET = 16

    def _stream(self, rng):
        for i in itertools.count():
            kinds = self.EXACT if i % 2 == 0 else self.MONTE_CARLO
            shape = kinds[i // 2 % len(kinds)]
            spec = {"shape": shape, "seed": int(rng.integers(0, 2**62))}
            n = 10 if shape.startswith("exact") else 12
            if shape.endswith("STORE_SUBSET"):
                spec["positions"] = sorted(rng.choice(n, size=4, replace=False).tolist())
            elif shape.endswith("FIXED_BASIS"):
                spec["angle"] = float(rng.uniform(0.0, math.pi / 4))
            yield spec

    def prepare(self, spec):
        kind = spec["shape"].split("-", 1)[1]
        if kind == "STORE_SUBSET":
            strategy = attacks.store_subset(positions=spec["positions"])
        elif kind == "FIXED_BASIS":
            strategy = attacks.fixed_basis(spec["angle"])
        else:
            strategy = attacks.random_ok()
        if spec["shape"].startswith("exact"):
            params = protocol.ProtocolParams(
                n=10, m=2, r=1, N=3, delta=0.2, epsilon=0.1, noise_p=0.05,
                mode=protocol.Mode.EXACT_QUANTUM, seed=spec["seed"],
            )
            return lambda: attacks.information_account(params, strategy)  # noqa: E731
        params = protocol.ProtocolParams(
            n=12, m=1, r=1, N=2, delta=0.5, epsilon=0.05, noise_p=0.05,
            mode=protocol.Mode.EXACT_QUANTUM, seed=spec["seed"],
        )
        method, budget = attacks.InfoMethod.MONTE_CARLO, self.MC_BUDGET
        return lambda: attacks.information_account(  # noqa: E731
            params, strategy, method=method, budget=budget
        )

    def check(self, spec, out):
        h_prior = 2.0 if spec["shape"].startswith("exact") else 1.0  # uniform over m bits
        if not 0.0 <= out.pr_pass <= 1.0:
            return f"pr_pass {out.pr_pass!r} outside [0, 1]"
        if not 0.0 <= out.mutual_information <= h_prior + 1e-12:
            return f"mutual information {out.mutual_information!r} outside [0, H(prior)]"
        return None

    def canonical(self, spec, out):
        return json.dumps(out.to_json(), sort_keys=True).encode()

    def cli_args(self, seed, out_dir):
        return ["attack", "--n", "10", "--N", "3", "--r", "1", "--m", "2",
                "--delta", "0.2", "--noise", "0.05", "--mode", "EXACT_QUANTUM",
                "--strategy", "STORE_SUBSET", "--store-positions", "0,1,2,3",
                "--seed", str(seed), "--out", out_dir]


# ---------------------------------------------------------------------------

class Codes(Workload):
    """Per op, min_distance of a random full-rank f and one ML decode against
    its first r rows. The span walk (2^rows words, rows = r + 2) and the
    decode coset (2^dim words, dim = N - r) each take every size from 2^10
    to 2^15 words, in all 36 pairings in turn. Op times then cover a wide,
    even range, so p50 and p90 move smoothly when a shared host changes
    speed instead of jumping between two speeds."""

    name = "codes"
    SIZES = tuple((rows, dim) for rows in range(10, 16) for dim in range(10, 16))
    shapes = tuple(f"rows{rows}-coset{dim}" for rows, dim in SIZES)
    nominal_ops_per_s = 72.0  # 1080 ops in 15 s: 30 cycles of the 36 sizes
    block_ops = 72
    M, FLIP = 2, 0.05

    def _stream(self, rng):
        for i in itertools.count():
            rows, dim = self.SIZES[i % len(self.SIZES)]
            r = rows - self.M
            n_cols = r + dim
            while True:
                f = _bits(rng, (rows, n_cols))
                if _rank(f) == rows:
                    break
            yield {
                "shape": self.shapes[i % len(self.SIZES)], "f": f, "r": r,
                "u": _bits(rng, n_cols),
                "flips": (rng.random(n_cols) < self.FLIP).astype(int).tolist(),
                "b": _bits(rng, self.M),
            }

    def prepare(self, spec):
        f, u = _u8(spec["f"]), _u8(spec["u"])
        g, h = f[: spec["r"]], f[spec["r"]:]
        noisy = u ^ _u8(spec["flips"])
        s, a = _mod2(g, u), _u8(spec["b"]) ^ _mod2(h, u)

        def op():
            d = gf2.min_distance(f)
            b_hat, corrected = protocol.bob_decode(noisy, s, g, a, h)
            return d, b_hat, corrected

        return op

    def check(self, spec, out):
        d, b_hat, corrected = out
        f = _u8(spec["f"])
        g, h = f[: spec["r"]], f[spec["r"]:]
        if not 1 <= d <= int(f.sum(axis=1).min()):
            return f"min distance {d} outside [1, lightest row weight]"
        if corrected is None:
            return "decode found no coset for an honest syndrome"
        u = _u8(spec["u"])
        noisy = u ^ _u8(spec["flips"])
        if not np.array_equal(_mod2(g, corrected), _mod2(g, u)):
            return "decoded word violates g v = s"
        if int((corrected ^ noisy).sum()) > int((u ^ noisy).sum()):
            return "decoded word is farther than the sent word"
        if not np.array_equal(b_hat, _u8(spec["b"]) ^ _mod2(h, u) ^ _mod2(h, corrected)):
            return "unmasked string disagrees with the decoded word"
        return None

    def canonical(self, spec, out):
        d, b_hat, corrected = out
        return f"{d}|{_bitstr(corrected)}|{_bitstr(b_hat)}".encode()

    def cli_args(self, seed, out_dir):
        return ["code-stats", "--n-cols", "16", "--rows", "8", "--trials", "4",
                "--seed", str(seed), "--out", out_dir]


WORKLOADS = {w.name: w for w in (Transfer, Certify, Attack, Codes)}
