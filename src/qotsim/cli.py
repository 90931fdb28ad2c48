"""Command line front end.

Subcommands:
  simulate       run transfer or key-distribution trials, writing one JSON
                 transcript per run plus a CSV summary
  density-check  regenerate coset-density certificates for random codes and
                 fail loudly if any in-hypothesis certificate has weight in
                 the forbidden block
  attack         information accounting for a receiver strategy
  code-stats     min-distance ratios of random binary matrices against the
                 entropy-threshold bound

Exit codes: 0 success, 1 usage error, 2 resource cap exceeded, 3 a
certificate that should have passed did not.

Every trial draws from its own counter-derived stream of the root seed, so
reruns with the same flags produce byte-identical artifacts and a worker
pool cannot change the output. A JSON config file may supply any flag
defaults by dest name; explicit flags override it. The default output
directory comes from QOTSIM_OUT, falling back to the working directory.
"""

from __future__ import annotations

import argparse
import csv
import json
import math
import os
import sys
from concurrent.futures import ProcessPoolExecutor
from dataclasses import replace
from functools import partial
from pathlib import Path

import numpy as np

from . import attacks, cosetrho, gf2, protocol
from .errors import (
    DimensionError,
    DomainError,
    ModeError,
    ProtocolViolation,
    ResourceError,
)
from .streams import stream

OUTPUT_DIR_ENV = "QOTSIM_OUT"
DENSITY_DEFECT_TOL = 1e-10

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_RESOURCE = 2
EXIT_CERTIFICATE = 3


class _Parser(argparse.ArgumentParser):
    """argparse exits with 2 on bad usage; the contract here is 1."""

    def error(self, message):
        self.print_usage(sys.stderr)
        sys.stderr.write(f"{self.prog}: error: {message}\n")
        sys.exit(EXIT_USAGE)


def _add_common(p: argparse.ArgumentParser, with_params: bool = True):
    p.add_argument("--config", help="JSON file of flag defaults (dest names)")
    p.add_argument("--out", default=None, help=f"output directory (default ${OUTPUT_DIR_ENV} or .)")
    p.add_argument("--seed", type=int, default=0)
    if with_params:
        p.add_argument("--n", type=int, default=64)
        p.add_argument("--m", type=int, default=1)
        p.add_argument("--r", type=int, default=1)
        p.add_argument("--delta", type=float, default=0.05)
        p.add_argument("--epsilon", type=float, default=None)
        p.add_argument("--N", type=int, default=None)
        p.add_argument("--noise", "--noise-p", type=float, default=0.0, dest="noise_p")
        p.add_argument(
            "--mode",
            choices=[m.value for m in protocol.Mode],
            default=protocol.Mode.CLASSICAL_FAST.value,
        )


def _add_strategy(p: argparse.ArgumentParser):
    p.add_argument(
        "--strategy",
        choices=[k.value for k in attacks.StrategyKind],
        default=attacks.StrategyKind.HONEST.value,
    )
    p.add_argument("--store-positions", default=None,
                   help="comma separated positions for STORE_SUBSET")
    p.add_argument("--store-count", type=int, default=None)
    p.add_argument("--angle", type=float, default=None, help="FIXED_BASIS angle, radians")


def build_parser():
    parser = _Parser(prog="qotsim", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)
    by_name = {}

    p = sub.add_parser("simulate", help="run protocol trials")
    _add_common(p)
    p.set_defaults(r=None)  # resolved by _params_from_args
    _add_strategy(p)
    p.add_argument("--trials", type=int, default=10)
    p.add_argument("--protocol", choices=["qot", "qkd"], default="qot")
    p.add_argument("--b", default=None, help="string bits for every qot trial (random per trial if omitted)")
    p.add_argument("--force-c", type=int, choices=[0, 1], default=None, dest="force_c")
    p.add_argument("--announce-rest", action="store_true", dest="announce_rest")
    p.add_argument("--eve", choices=["HONEST", "FIXED_BASIS"], default=None)
    p.add_argument("--eve-angle", type=float, default=None, dest="eve_angle")
    p.add_argument("--workers", type=int, default=1)
    by_name["simulate"] = p

    p = sub.add_parser("density-check", help="coset density certificates")
    _add_common(p, with_params=False)
    p.add_argument("--N", type=int, default=4, help="code length")
    p.add_argument("--r", type=int, default=1)
    p.add_argument("--m", type=int, default=1)
    p.add_argument("--t", type=int, default=None,
                   help="ball radius (random per trial if omitted)")
    p.add_argument("--trials", type=int, default=50)
    by_name["density-check"] = p

    p = sub.add_parser("attack", help="information accounting")
    _add_common(p)
    _add_strategy(p)
    p.add_argument(
        "--method",
        choices=[m.value for m in attacks.InfoMethod],
        default=attacks.InfoMethod.EXACT_ENUMERATION.value,
    )
    p.add_argument("--budget", type=int, default=None)
    p.add_argument("--require-disjoint-store", action="store_true",
                   dest="require_disjoint_store")
    p.add_argument("--branch-trials", type=int, default=0, dest="branch_trials",
                   help="extra coin-branch decomposition runs (RANDOM_OK)")
    p.add_argument("--store-sweep", default=None, dest="store_sweep",
                   help="comma separated stored fractions; runs the "
                        "expected-vs-empirical test-error sweep instead of "
                        "information accounting")
    p.add_argument("--sweep-trials", type=int, default=10000, dest="sweep_trials")
    by_name["attack"] = p

    p = sub.add_parser("code-stats", help="min-distance ratio statistics")
    _add_common(p, with_params=False)
    p.add_argument("--n-cols", type=int, default=16, dest="n_cols")
    p.add_argument("--rows", type=int, default=8)
    p.add_argument("--eta", type=float, default=0.1)
    p.add_argument("--trials", type=int, default=200)
    by_name["code-stats"] = p

    return parser, by_name


def _out_dir(args) -> Path:
    root = args.out or os.environ.get(OUTPUT_DIR_ENV) or "."
    path = Path(root)
    path.mkdir(parents=True, exist_ok=True)
    return path


def _params_from_args(args, seed: int) -> protocol.ProtocolParams:
    """Run parameters from the flags. Without --r (simulate's default) r is
    the fewest syndrome bits, at least 1, whose decode coset fits the cap."""
    params = protocol.ProtocolParams(
        n=args.n, m=args.m, r=1 if args.r is None else args.r, delta=args.delta,
        epsilon=args.epsilon, N=args.N, noise_p=args.noise_p,
        mode=protocol.Mode(args.mode), seed=seed,
    )
    if args.r is None:
        coset_bits = protocol.DECODE_MAX_COSET.bit_length() - 1
        params = replace(params, r=max(1, params.N - coset_bits))
    return params


def _build_strategy(name, store_positions, store_count, angle) -> attacks.AttackStrategy:
    kind = attacks.StrategyKind(name)
    if kind is attacks.StrategyKind.HONEST:
        return attacks.honest()
    if kind is attacks.StrategyKind.STORE_SUBSET:
        if store_positions is not None:
            positions = [int(x) for x in store_positions.split(",") if x.strip() != ""]
            return attacks.store_subset(positions=positions)
        if store_count is None:
            raise DomainError("STORE_SUBSET needs --store-positions or --store-count")
        return attacks.store_subset(count=store_count)
    if kind is attacks.StrategyKind.FIXED_BASIS:
        if angle is None:
            raise DomainError("FIXED_BASIS needs --angle")
        return attacks.fixed_basis(angle)
    return attacks.random_ok()


def _trial_seed(root_seed: int, idx: int) -> int:
    return int(stream(root_seed, "trial", idx).integers(0, 2**62))


def _csv_writer(fh):
    return csv.writer(fh, lineterminator="\n")


# ---------------------------------------------------------------------------
# simulate

def _simulate_trial(args, idx: int):
    """One run; top level so a process pool can ship it."""
    params = _params_from_args(args, seed=_trial_seed(args.seed, idx))
    bob = _build_strategy(args.strategy, args.store_positions, args.store_count, args.angle)
    if args.protocol == "qkd":
        eve = None if args.eve is None else _build_strategy(args.eve, None, None, args.eve_angle)
        tr = protocol.run_qkd(params, eve=eve, announce_rest=args.announce_rest)
    else:
        if args.b is not None:
            b = gf2.bits(args.b, length=args.m)
        else:
            b = gf2.random_bits(stream(args.seed, "b", idx), args.m)
        tr = protocol.run_string_qot(
            params, b, bob=bob, force_c=args.force_c, announce_rest=args.announce_rest,
        )
    delivered = ""
    if tr.b_hat is not None:
        delivered = int(np.array_equal(tr.b_hat, tr.b))
    row = [
        idx, params.seed, int(tr.passed), tr.test_errors,
        tr.abort_reason or "", "" if tr.c is None else tr.c, delivered,
    ]
    return idx, tr.to_json(), row


def _cmd_simulate(args) -> int:
    if args.eve is not None and args.protocol != "qkd":
        raise DomainError("--eve applies to the qkd protocol")
    if args.eve == "FIXED_BASIS" and args.eve_angle is None:
        raise DomainError("--eve FIXED_BASIS needs --eve-angle")
    if args.protocol == "qkd" and args.force_c is not None:
        raise DomainError("qkd fixes c = 0; --force-c applies to qot")
    if args.trials < 1:
        raise DomainError("need at least one trial")
    # fail fast on bad strategy flags before spawning workers
    _build_strategy(args.strategy, args.store_positions, args.store_count, args.angle)
    _params_from_args(args, seed=0)

    out = _out_dir(args)
    trial = partial(_simulate_trial, args)
    if args.workers > 1:
        with ProcessPoolExecutor(max_workers=args.workers) as pool:
            results = list(pool.map(trial, range(args.trials)))
    else:
        results = list(map(trial, range(args.trials)))
    results.sort(key=lambda item: item[0])

    transcripts = out / "transcripts.jsonl"
    summary = out / "summary.csv"
    with open(transcripts, "w") as fh:
        for _, line, _ in results:
            fh.write(line + "\n")
    with open(summary, "w", newline="") as fh:
        writer = _csv_writer(fh)
        writer.writerow(
            ["trial", "seed", "passed", "test_errors", "abort_reason", "c",
             "b_hat_equals_b"]
        )
        for _, _, row in results:
            writer.writerow(row)
    passed = sum(row[2] for _, _, row in results)
    aborted = sum(1 for _, _, row in results if row[4] != "")
    print(f"{args.trials} runs: {passed} passed the test, {aborted} aborted")
    print(f"wrote {transcripts} and {summary}")
    return EXIT_OK


# ---------------------------------------------------------------------------
# density-check

def _cmd_density_check(args) -> int:
    if args.r < 0 or args.m < 0 or args.r + args.m < 1:
        raise DomainError("need at least one code row")
    if args.r + args.m > args.N:
        raise DomainError("r + m may not exceed N")
    if args.trials < 1:
        raise DomainError("need at least one trial")
    out = _out_dir(args)
    rows_out = []
    violations = 0
    met = 0
    worst_met = 0.0
    for idx in range(args.trials):
        rng = stream(args.seed, "trial", idx)
        while True:  # a zero map has a single coset, nothing to compare
            f = gf2.random_bitmatrix(rng, args.r + args.m, args.N)
            if gf2.rank(f) >= 1:
                break
        code = gf2.LinearCode(f=f, r=args.r, m=args.m)
        theta = gf2.random_bits(rng, args.N)
        w_hat = gf2.random_bits(rng, args.N)
        x = gf2.matvec(f, gf2.random_bits(rng, args.N))
        while True:
            x_prime = gf2.matvec(f, gf2.random_bits(rng, args.N))
            if not np.array_equal(x, x_prime):
                break
        t = args.t if args.t is not None else int(rng.integers(0, args.N + 1))
        cert = cosetrho.lemma1_certificate(
            code, theta, x, x_prime, range(args.N), t, w_hat
        )
        if cert.condition_met:
            met += 1
            worst_met = max(worst_met, cert.max_defect)
            if cert.max_defect > DENSITY_DEFECT_TOL:
                violations += 1
        rows_out.append(
            [idx, cert.dN, t, int(cert.condition_met), repr(cert.max_defect)]
        )
    path = out / "density_certificates.csv"
    with open(path, "w", newline="") as fh:
        writer = _csv_writer(fh)
        writer.writerow(["trial", "dN", "t", "condition_met", "max_defect"])
        writer.writerows(rows_out)
    agg = {
        "trials": args.trials,
        "condition_met": met,
        "max_defect_over_met": worst_met,
        "violations": violations,
        "tolerance": DENSITY_DEFECT_TOL,
    }
    agg_path = out / "density_summary.json"
    with open(agg_path, "w") as fh:
        fh.write(json.dumps(agg, sort_keys=True, separators=(",", ":")) + "\n")
    print(
        f"{args.trials} certificates, {met} under hypothesis, "
        f"max defect among those {worst_met!r}"
    )
    print(f"wrote {path} and {agg_path}")
    if violations:
        print(f"{violations} certificate(s) violated the hypothesis", file=sys.stderr)
        return EXIT_CERTIFICATE
    return EXIT_OK


# ---------------------------------------------------------------------------
# attack

def _cmd_attack(args) -> int:
    params = _params_from_args(args, seed=args.seed)
    if args.store_sweep is not None:
        return _attack_store_sweep(args, params)
    strategy = _build_strategy(
        args.strategy, args.store_positions, args.store_count, args.angle
    )
    report = attacks.information_account(
        params, strategy,
        method=attacks.InfoMethod(args.method),
        budget=args.budget,
        require_disjoint_store=args.require_disjoint_store,
    )
    branches = None
    if args.branch_trials > 0:
        if strategy.kind is not attacks.StrategyKind.RANDOM_OK:
            raise DomainError("--branch-trials decomposes the RANDOM_OK coin")
        br = attacks.random_ok_decomposition(params, args.branch_trials)
        branches = {
            "pass_mixed": br.pass_mixed, "pass_honest": br.pass_honest,
            "pass_store_all": br.pass_store_all, "residual": br.residual,
            "trials": br.trials,
        }
    out = _out_dir(args)
    doc = {
        "params": params.to_json(),
        "strategy": strategy.describe(),
        "report": report.to_json(),
        "branches": branches,
    }
    path = out / "attack_report.json"
    with open(path, "w") as fh:
        fh.write(json.dumps(doc, sort_keys=True, separators=(",", ":")) + "\n")
    defect_path = out / "defect_stats.csv"
    with open(defect_path, "w", newline="") as fh:
        writer = _csv_writer(fh)
        writer.writerow(["max_defect", "mean_defect"])
        stats = report.small_distance_defect_stats
        if stats is not None:
            writer.writerow([repr(stats.max), repr(stats.mean)])
    print(f"pr_pass              {report.pr_pass!r}")
    print(f"mutual information   {report.mutual_information!r} bits")
    print(f"product              {report.product!r}")
    if branches is not None:
        print(
            "branch pass rates    mixed {pass_mixed!r}, honest {pass_honest!r}, "
            "store-all {pass_store_all!r}, residual {residual!r}".format(**branches)
        )
    print(f"wrote {path} and {defect_path}")
    return EXIT_OK


def _attack_store_sweep(args, params) -> int:
    try:
        fractions = [float(x) for x in args.store_sweep.split(",") if x.strip()]
    except ValueError as exc:
        raise DomainError(f"bad --store-sweep value: {exc}")
    if not fractions:
        raise DomainError("--store-sweep needs at least one fraction")
    if args.sweep_trials < 1:
        raise DomainError("need at least one sweep trial")
    out = _out_dir(args)
    rows_out = []
    print("fraction  expected  empirical  std_error")
    for i, frac in enumerate(fractions):
        rng = stream(args.seed, "sweep", i)
        st = attacks.store_attack_test_statistics(
            params, frac, args.sweep_trials, rng
        )
        rows_out.append(
            [repr(frac), repr(st.expected), repr(st.empirical_mean),
             repr(st.std_error), st.trials]
        )
        print(f"{frac:<9g} {st.expected:<9.4f} {st.empirical_mean:<10.4f} "
              f"{st.std_error:.5f}")
    path = out / "store_sweep.csv"
    with open(path, "w", newline="") as fh:
        writer = _csv_writer(fh)
        writer.writerow(
            ["fraction", "expected", "empirical_mean", "std_error", "trials"]
        )
        writer.writerows(rows_out)
    print(f"wrote {path}")
    return EXIT_OK


# ---------------------------------------------------------------------------
# code-stats

def _cmd_code_stats(args) -> int:
    if args.rows >= args.n_cols:
        raise DomainError("rows must be below the column count")
    if args.rows > gf2.MIN_DISTANCE_MAX_ROWS:
        raise ResourceError("row count exceeds the min-distance cap")
    if args.trials < 1:
        raise DomainError("need at least one trial")
    threshold = gf2.binary_entropy_inverse(1.0 - args.rows / args.n_cols) - args.eta
    out = _out_dir(args)
    rows_out = []
    hits = 0
    for idx in range(args.trials):
        rng = stream(args.seed, "trial", idx)
        f = gf2.random_bitmatrix(rng, args.rows, args.n_cols)
        d = gf2.min_distance(f)
        ratio = math.inf if d == math.inf else d / args.n_cols
        satisfied = ratio > threshold
        hits += satisfied
        rows_out.append([idx, d, repr(ratio), int(satisfied)])
    path = out / "code_stats.csv"
    with open(path, "w", newline="") as fh:
        writer = _csv_writer(fh)
        writer.writerow(["trial", "dN", "ratio", "bound_satisfied"])
        writer.writerows(rows_out)
    agg = {
        "trials": args.trials,
        "threshold": threshold,
        "fraction_satisfied": hits / args.trials,
    }
    agg_path = out / "code_stats_summary.json"
    with open(agg_path, "w") as fh:
        fh.write(json.dumps(agg, sort_keys=True, separators=(",", ":")) + "\n")
    print(
        f"{hits}/{args.trials} codes beat ratio threshold {threshold!r}"
    )
    print(f"wrote {path} and {agg_path}")
    return EXIT_OK


# ---------------------------------------------------------------------------

_COMMANDS = {
    "simulate": _cmd_simulate,
    "density-check": _cmd_density_check,
    "attack": _cmd_attack,
    "code-stats": _cmd_code_stats,
}


def main(argv=None) -> int:
    argv = list(sys.argv[1:]) if argv is None else list(argv)
    parser, by_name = build_parser()
    args = parser.parse_args(argv)
    if getattr(args, "config", None):
        try:
            with open(args.config) as fh:
                overrides = json.load(fh)
        except (OSError, json.JSONDecodeError) as exc:
            parser.error(f"cannot read config: {exc}")
        subparser = by_name[args.command]
        known = {a.dest for a in subparser._actions}
        unknown = sorted(set(overrides) - known)
        if unknown:
            parser.error(f"config keys not recognized: {', '.join(unknown)}")
        subparser.set_defaults(**overrides)
        args = parser.parse_args(argv)  # explicit flags still win
    try:
        return _COMMANDS[args.command](args)
    except ResourceError as exc:
        print(f"resource cap: {exc}", file=sys.stderr)
        return EXIT_RESOURCE
    except (DomainError, DimensionError, ModeError, ProtocolViolation) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
