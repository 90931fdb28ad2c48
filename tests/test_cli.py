"""Command line surface: artifacts, exit codes, config handling."""

import dataclasses
import hashlib
import json
import os
import subprocess
import sys

import numpy as np
import pytest

from qotsim import cli, cosetrho, protocol, quantum

QOT_ARGS = [
    "simulate", "--protocol", "qot", "--n", "16", "--N", "4", "--m", "1",
    "--r", "1", "--delta", "0.25", "--trials", "5", "--seed", "3",
]


def run(argv):
    return cli.main(list(argv))


# ---------------------------------------------------------------------------
# exit codes

def test_bad_subcommand_exits_one():
    with pytest.raises(SystemExit) as exc:
        run(["frobnicate"])
    assert exc.value.code == 1


def test_unknown_flag_exits_one():
    with pytest.raises(SystemExit) as exc:
        run(["simulate", "--does-not-exist", "1"])
    assert exc.value.code == 1


def test_domain_errors_map_to_exit_one(tmp_path, capsys):
    assert run(QOT_ARGS + ["--trials", "0", "--out", str(tmp_path)]) == 1
    assert "error:" in capsys.readouterr().err


def test_eve_flag_combinations(tmp_path):
    out = ["--out", str(tmp_path)]
    assert run(QOT_ARGS + out + ["--eve", "HONEST"]) == 1
    assert run(["simulate", "--protocol", "qkd", "--eve", "FIXED_BASIS"] + out) == 1
    assert run(["simulate", "--protocol", "qkd", "--force-c", "0"] + out) == 1


def test_resource_cap_maps_to_exit_two(tmp_path, capsys):
    code = run(["attack", "--n", "50", "--out", str(tmp_path)])
    assert code == 2
    assert "resource cap" in capsys.readouterr().err


def test_exact_quantum_past_the_statevector_cap_exits_zero(tmp_path):
    """EXACT_QUANTUM has no photon cap: past STATEVECTOR_MAX_N it writes the
    artifacts CLASSICAL_FAST writes, apart from the mode field."""
    n = str(quantum.STATEVECTOR_MAX_N + 1)
    written = {}
    for mode in ("EXACT_QUANTUM", "CLASSICAL_FAST"):
        out = tmp_path / mode
        assert run(["simulate", "--mode", mode, "--n", n, "--out", str(out)]) == 0
        transcripts = [json.loads(line) for line in
                       (out / "transcripts.jsonl").read_text().splitlines()]
        assert [d["params"].pop("mode") for d in transcripts] == [mode] * 10
        written[mode] = transcripts, (out / "summary.csv").read_bytes()
    assert written["EXACT_QUANTUM"] == written["CLASSICAL_FAST"]


# ---------------------------------------------------------------------------
# simulate

def test_simulate_writes_both_artifacts(tmp_path, capsys):
    assert run(QOT_ARGS + ["--out", str(tmp_path)]) == 0
    assert "5 runs:" in capsys.readouterr().out
    summary = (tmp_path / "summary.csv").read_text().splitlines()
    assert summary[0] == "trial,seed,passed,test_errors,abort_reason,c,b_hat_equals_b"
    assert len(summary) == 6
    lines = (tmp_path / "transcripts.jsonl").read_text().splitlines()
    assert len(lines) == 5
    for line in lines:
        tr = protocol.Transcript.from_json(line)
        assert tr.params.n == 16


def test_simulate_is_deterministic(tmp_path):
    a, b = tmp_path / "a", tmp_path / "b"
    assert run(QOT_ARGS + ["--out", str(a)]) == 0
    assert run(QOT_ARGS + ["--out", str(b)]) == 0
    assert (a / "summary.csv").read_bytes() == (b / "summary.csv").read_bytes()
    assert (a / "transcripts.jsonl").read_bytes() == (b / "transcripts.jsonl").read_bytes()


def test_simulate_workers_do_not_change_the_output(tmp_path):
    a, b = tmp_path / "a", tmp_path / "b"
    assert run(QOT_ARGS + ["--out", str(a), "--workers", "1"]) == 0
    assert run(QOT_ARGS + ["--out", str(b), "--workers", "2"]) == 0
    for name in ("transcripts.jsonl", "summary.csv"):
        assert (a / name).read_bytes() == (b / name).read_bytes()


@pytest.mark.parametrize("trials, workers, pools", [("2", "64", [2]), ("1", "8", []),
                                                    ("5", "3", [3])])
def test_simulate_starts_no_more_workers_than_trials(tmp_path, monkeypatch, trials, workers,
                                                     pools):
    """The pool is capped at one worker per trial, and a single trial runs
    in process; the pool here records its size and maps in process."""
    started = []

    class InProcessPool:
        def __init__(self, max_workers):
            started.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, items):
            return map(fn, items)

    monkeypatch.setattr(cli, "ProcessPoolExecutor", InProcessPool)
    a, b = tmp_path / "a", tmp_path / "b"
    assert run(QOT_ARGS + ["--trials", trials, "--workers", workers, "--out", str(a)]) == 0
    assert started == pools
    assert run(QOT_ARGS + ["--trials", trials, "--out", str(b)]) == 0
    for name in ("transcripts.jsonl", "summary.csv"):
        assert (a / name).read_bytes() == (b / name).read_bytes()


@pytest.mark.parametrize("workers", ["0", "-2"])
def test_simulate_rejects_fewer_than_one_worker(tmp_path, capsys, workers):
    assert run(QOT_ARGS + ["--out", str(tmp_path), "--workers", workers]) == 1
    assert "worker" in capsys.readouterr().err
    assert not any(tmp_path.iterdir())


def test_simulate_default_r_fits_the_decode_cap(tmp_path, capsys):
    """n=92 makes N=22: r=1 would leave a 2^21-word decode coset, so the
    default r is 2. An explicit --r is taken as given."""
    args = ["simulate", "--n", "92", "--trials", "20"]
    assert run(args + ["--out", str(tmp_path / "a")]) == 0
    lines = (tmp_path / "a" / "transcripts.jsonl").read_text().splitlines()
    runs = [protocol.Transcript.from_json(line) for line in lines]
    assert {tr.params.r for tr in runs} == {2}
    assert any(tr.abort_reason is None for tr in runs)  # some runs decode
    assert run(args + ["--r", "1", "--out", str(tmp_path / "b")]) == 2
    assert "decode coset of 2^21 words" in capsys.readouterr().err
    assert run(["simulate", "--n", "64", "--trials", "1", "--out", str(tmp_path / "c")]) == 0
    tr = protocol.Transcript.from_json((tmp_path / "c" / "transcripts.jsonl").read_text())
    assert (tr.params.N, tr.params.r) == (15, 1)


def test_simulate_fixed_string_and_noise_alias(tmp_path):
    assert run(QOT_ARGS + ["--out", str(tmp_path), "--b", "1", "--noise", "0.1"]) == 0
    for line in (tmp_path / "transcripts.jsonl").read_text().splitlines():
        tr = protocol.Transcript.from_json(line)
        assert np.array_equal(tr.b, [1])
        assert tr.channel.p == 0.1


def test_simulate_qkd_announces_one_set(tmp_path):
    args = ["simulate", "--protocol", "qkd", "--n", "24", "--N", "4", "--m", "1",
            "--r", "1", "--delta", "0.25", "--trials", "6", "--seed", "2",
            "--out", str(tmp_path)]
    assert run(args) == 0
    saw_completed = False
    for line in (tmp_path / "transcripts.jsonl").read_text().splitlines():
        tr = protocol.Transcript.from_json(line)
        assert tr.E1 is None
        if tr.abort_reason is None:
            saw_completed = True
            assert tr.c == 0
            assert len(tr.announced_sets) == 1
    assert saw_completed


FROZEN_BASE = ["simulate", "--n", "40", "--N", "4", "--m", "2", "--r", "1",
               "--delta", "0.3", "--trials", "6", "--seed", "5"]

# sha256 of every file simulate writes, recorded before the position maps
# became arrays (the --announce-rest entry before each transcript field
# wrote its own JSON text); a later flag wins over FROZEN_BASE's
FROZEN_ARTIFACTS = [
    ([], {
        "summary.csv": "4180c1b3a98c96fe3d1ca50a06726478293a5a2be094b2dae069b4f5205d02aa",
        "transcripts.jsonl": "e92e9d36d86a09a8e2196d7cf9c5148778ebb6c845e9da47b50768d5a493e01c",
    }),
    (["--strategy", "STORE_SUBSET", "--store-count", "14", "--delta", "0.08"], {
        "summary.csv": "c72a280a9a1c2f9a6c042d5bba4333fdd3744d33ed634fa09eb2cf53270afb82",
        "transcripts.jsonl": "758f7c04c2e988d021808b3caf94e4e306c3e1f24afa39157980f054054e4f11",
    }),
    (["--strategy", "FIXED_BASIS", "--angle", "0.3"], {
        "summary.csv": "b182d16e063d53deba610fa31248319698b8aa655801651d2c946b09ce292475",
        "transcripts.jsonl": "5583f150b74b5bf80a87bd80868d207ea82f9f40fb4f17da6bbfe0f0199b1105",
    }),
    (["--protocol", "qkd", "--eve", "HONEST", "--delta", "0.05"], {
        "summary.csv": "eeaa9114bf06c1f154e8e1441bae62faeb76df3c7c21f260254528eecd95a4e3",
        "transcripts.jsonl": "4877034f7c87ad22362fca40c183855412dd9a810915e7f3f204885abdcea791",
    }),
    (["--protocol", "qkd", "--eve", "FIXED_BASIS", "--eve-angle", "0.5", "--delta", "0.08"], {
        "summary.csv": "3628bfd92078c54806f5ab4d6d2d305d69aff264c39f1daaaac94956fb879355",
        "transcripts.jsonl": "a0f955598869fa72922fb93f8741fb53378ae84ccdee85947b3c64a038772cb5",
    }),
    (["--announce-rest"], {
        "summary.csv": "4180c1b3a98c96fe3d1ca50a06726478293a5a2be094b2dae069b4f5205d02aa",
        "transcripts.jsonl": "6643510eda822a420b598ded7f02198f9f3780a28e981947aeab4535d8736bb5",
    }),
]


@pytest.mark.parametrize("flags, digests", FROZEN_ARTIFACTS)
def test_simulate_artifacts_are_frozen(tmp_path, flags, digests):
    assert run(FROZEN_BASE + flags + ["--out", str(tmp_path)]) == 0
    written = {
        path.name: hashlib.sha256(path.read_bytes()).hexdigest()
        for path in tmp_path.iterdir()
    }
    assert written == digests


def test_simulate_qkd_with_eve(tmp_path):
    args = ["simulate", "--protocol", "qkd", "--n", "16", "--N", "4",
            "--delta", "0.5", "--trials", "3", "--eve", "FIXED_BASIS",
            "--eve-angle", "0.3", "--out", str(tmp_path)]
    assert run(args) == 0
    tr = protocol.Transcript.from_json(
        (tmp_path / "transcripts.jsonl").read_text().splitlines()[0]
    )
    assert tr.eve["kind"] == "FIXED_BASIS" and tr.eve["angle"] == 0.3


# ---------------------------------------------------------------------------
# config files

def test_config_supplies_defaults_and_flags_win(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"trials": 3, "n": 16, "N": 4, "delta": 0.25}))
    a = tmp_path / "a"
    assert run(["simulate", "--config", str(cfg), "--out", str(a)]) == 0
    assert len((a / "summary.csv").read_text().splitlines()) == 4
    b = tmp_path / "b"
    assert run(["simulate", "--config", str(cfg), "--trials", "2", "--out", str(b)]) == 0
    assert len((b / "summary.csv").read_text().splitlines()) == 3


def test_config_rejects_unknown_keys(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"bogus": 1}))
    with pytest.raises(SystemExit) as exc:
        run(["simulate", "--config", str(cfg)])
    assert exc.value.code == 1


@pytest.mark.parametrize("command, key, value", [
    ("simulate", "protocol", "qxx"), ("simulate", "mode", "FAST"),
    ("simulate", "strategy", "STORE_SOME"), ("attack", "mode", "FAST"),
    ("attack", "strategy", "STORE_SOME"),
])
def test_config_values_outside_their_flags_choices_exit_one(tmp_path, capsys, command, key, value):
    """A config value goes through the same choices as its flag: it neither
    runs as some other choice nor ends in a traceback."""
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({key: value}))
    out = tmp_path / "out"
    argv = [command, "--n", "8", "--N", "2", "--r", "1", "--delta", "0.25", "--trials", "1"]
    if command == "attack":
        argv = argv[:-2]
    with pytest.raises(SystemExit) as exc:
        run(argv + ["--config", str(cfg), "--out", str(out)])
    assert exc.value.code == 1
    assert f"config {key}: {value!r} is not one of" in capsys.readouterr().err
    assert not out.exists()


def test_config_rejects_unreadable_files(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text("{not json")
    with pytest.raises(SystemExit):
        run(["simulate", "--config", str(cfg)])


# ---------------------------------------------------------------------------
# attack

ATTACK_ARGS = [
    "attack", "--n", "8", "--N", "2", "--m", "1", "--r", "1",
    "--delta", "0.125", "--mode", "EXACT_QUANTUM", "--seed", "4",
]


def test_attack_report_and_defect_artifacts(tmp_path, capsys):
    assert run(ATTACK_ARGS + ["--out", str(tmp_path)]) == 0
    assert "mutual information" in capsys.readouterr().out
    doc = json.loads((tmp_path / "attack_report.json").read_text())
    assert doc["strategy"]["kind"] == "HONEST"
    assert doc["report"]["method"] == "EXACT_ENUMERATION"
    assert doc["report"]["mutual_information"] == 0.0
    assert doc["report"]["pr_pass"] == pytest.approx(0.355682373046875, abs=1e-9)
    assert doc["branches"] is None
    defect = (tmp_path / "defect_stats.csv").read_text().splitlines()
    assert defect[0] == "max_defect,mean_defect"
    assert len(defect) == 2


# One exact report per strategy on a drawn code (n = 10, N = 3, r = 1,
# m = 2, seed 7): (pr_pass, mutual_information, product, defect max,
# defect mean). Compared to 1e-12 relative, not by digest, because the last
# bits of floating-point sums may move between hosts.
PINNED_ATTACKS = {
    "HONEST": ([], (0.168291882276535, 0.0, 0.0, 0.0, 0.0)),
    "STORE_SUBSET": (["--store-positions", "0,1,2,3"], (
        0.16796951830387116, 0.8387641643651669, 0.1408868126589661,
        0.5, 0.09179871997017067)),
    "FIXED_BASIS": (["--angle", "0.39269908169872414"], (
        0.1680692581861636, 0.8262037876217923, 0.1388594576961933,
        0.058058261758407795, 0.0580582617584078)),
    "RANDOM_OK": ([], (
        0.16616646230220794, 0.7866830726800389, 0.13072034314027278,
        0.5, 0.24680227293630774)),
}


@pytest.mark.parametrize("strategy", sorted(PINNED_ATTACKS))
def test_attack_reports_are_pinned(tmp_path, strategy):
    flags, want = PINNED_ATTACKS[strategy]
    args = ["attack", "--n", "10", "--N", "3", "--r", "1", "--m", "2", "--delta", "0.2",
            "--noise", "0.05", "--epsilon", "0.1", "--seed", "7", "--strategy", strategy]
    assert run(args + flags + ["--out", str(tmp_path)]) == 0
    report = json.loads((tmp_path / "attack_report.json").read_text())["report"]
    stats = report["small_distance_defect_stats"]
    got = (report["pr_pass"], report["mutual_information"], report["product"],
           stats["max"], stats["mean"])
    assert got == pytest.approx(want, rel=1e-12)
    assert report["samples_or_statespace"] == 376


def test_attack_branch_decomposition(tmp_path):
    args = ATTACK_ARGS + ["--strategy", "RANDOM_OK", "--branch-trials", "20",
                          "--out", str(tmp_path)]
    assert run(args) == 0
    doc = json.loads((tmp_path / "attack_report.json").read_text())
    assert doc["branches"]["trials"] == 20
    assert 0.0 <= doc["branches"]["pass_mixed"] <= 1.0


def test_attack_rejects_a_zero_monte_carlo_budget(tmp_path, capsys):
    args = ATTACK_ARGS + ["--method", "MONTE_CARLO", "--budget", "0", "--out", str(tmp_path)]
    assert run(args) == 1
    assert "budget" in capsys.readouterr().err
    assert not (tmp_path / "attack_report.json").exists()


def test_attack_rejects_a_negative_epsilon(tmp_path, capsys):
    assert run(ATTACK_ARGS + ["--epsilon", "-0.1", "--out", str(tmp_path)]) == 1
    assert "epsilon" in capsys.readouterr().err
    assert not (tmp_path / "attack_report.json").exists()


@pytest.mark.parametrize("flags", [["--epsilon", "inf"], ["--delta", "inf"], ["--delta", "nan"],
                                   ["--epsilon", "1e400"]])
def test_non_finite_delta_and_epsilon_exit_one(tmp_path, capsys, flags):
    """attack ended in a traceback from math.floor(inf), and simulate
    exited 0 writing "delta":Infinity, which is not JSON."""
    simulate = QOT_ARGS + flags + ["--out", str(tmp_path / "sim")]
    assert run(simulate) == 1
    assert run(ATTACK_ARGS + flags + ["--out", str(tmp_path / "attack")]) == 1
    assert capsys.readouterr().err.count(f"{flags[0][2:]} must be finite, not ") == 2
    assert not any(tmp_path.iterdir())


def test_a_bit_string_that_is_not_bits_exits_one(tmp_path, capsys):
    """--b is read once, before the output directory is made."""
    out = tmp_path / "out"
    for b, message in (("0a", "bit vector entries must be 0 or 1"),
                       ("101", "expected length 2, got 3")):
        argv = ["simulate", "--n", "16", "--N", "4", "--m", "2", "--b", b, "--out", str(out)]
        assert run(argv) == 1
        assert f"error: {message}" in capsys.readouterr().err
        assert not out.exists()


SWEEP_ARGS = ["attack", "--n", "8", "--N", "2", "--m", "1", "--r", "1", "--delta", "0.125"]
STORE_ARGS = ["simulate", "--n", "16", "--N", "4", "--m", "2", "--strategy", "STORE_SUBSET"]


@pytest.mark.parametrize("argv, code, message", [
    (SWEEP_ARGS + ["--store-sweep", "nan"], 1, "error: fraction must be finite, not nan"),
    (SWEEP_ARGS + ["--store-sweep", "1.5"], 1, "error: fraction must lie in [0, 1]"),
    (["density-check", "--t", "-1"], 1, "error: ball radius must be at least 0, got -1"),
    (["density-check", "--N", "11"], 2, "resource cap: density matrices cap at N=10"),
    (STORE_ARGS + ["--store-count", "100"], 1, "error: cannot store more photons than were sent"),
    (STORE_ARGS + ["--store-positions", "99"], 1, "error: positions must lie in [0, 16)"),
], ids=["sweep-nan", "sweep-past-one", "density-negative-t", "density-past-cap",
        "store-count-past-n", "store-position-past-n"])
def test_a_check_failing_mid_command_makes_no_output_directory(tmp_path, capsys, argv, code,
                                                                message):
    """A check inside a command's work (a sweep fraction, a certificate's
    radius or size, a trial's store plan) fails before the output
    directory is made."""
    out = tmp_path / "out"
    assert run(argv + ["--out", str(out)]) == code
    assert message in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("angle", ["nan", "inf", "-inf"])
def test_non_finite_angles_exit_one(tmp_path, capsys, angle):
    bob = ATTACK_ARGS + ["--strategy", "FIXED_BASIS", f"--angle={angle}", "--out", str(tmp_path)]
    assert run(bob) == 1
    eve = ["simulate", "--protocol", "qkd", "--n", "16", "--N", "4", "--trials", "2",
           "--eve", "FIXED_BASIS", f"--eve-angle={angle}", "--out", str(tmp_path)]
    assert run(eve) == 1
    assert capsys.readouterr().err.count("finite") == 2
    assert not any(tmp_path.iterdir())


def test_attack_monte_carlo_rejects_disjointness_conditioning(tmp_path, capsys):
    args = ATTACK_ARGS + ["--strategy", "STORE_SUBSET", "--store-positions", "0,1",
                          "--method", "MONTE_CARLO", "--budget", "5",
                          "--require-disjoint-store", "--out", str(tmp_path)]
    assert run(args) == 1
    assert "exact method" in capsys.readouterr().err
    assert not any(tmp_path.iterdir())


QKD_ARGS = ["simulate", "--protocol", "qkd", "--n", "16", "--N", "4", "--trials", "2"]
SWEEP_ARGS = ["attack", "--n", "16", "--delta", "0.25", "--store-sweep", "0.5",
              "--sweep-trials", "50"]
SWEEP_IGNORES = [
    ["--strategy", "RANDOM_OK"], ["--angle", "0.3"], ["--store-positions", "0,1"],
    ["--store-count", "2"], ["--method", "MONTE_CARLO"], ["--budget", "3"],
    ["--require-disjoint-store"], ["--branch-trials", "5"],
]


# flags the chosen path would not use, or could not read
@pytest.mark.parametrize("argv", [
    QOT_ARGS + ["--angle", "0.3"],
    QOT_ARGS + ["--strategy", "RANDOM_OK", "--angle", "0.3"],
    ATTACK_ARGS + ["--strategy", "STORE_SUBSET", "--store-positions", "0", "--angle", "0.3"],
    QOT_ARGS + ["--strategy", "FIXED_BASIS", "--angle", "0.3", "--store-count", "2"],
    ATTACK_ARGS + ["--strategy", "RANDOM_OK", "--store-positions", "0,1"],
    ATTACK_ARGS + ["--store-count", "2"],
    ATTACK_ARGS + ["--strategy", "STORE_SUBSET", "--store-positions", "0", "--store-count", "2"],
    QKD_ARGS + ["--eve", "HONEST", "--eve-angle", "0.3"],
    QKD_ARGS + ["--eve-angle", "0.3"],
    QKD_ARGS + ["--strategy", "STORE_SUBSET", "--store-count", "2"],
    QKD_ARGS + ["--strategy", "FIXED_BASIS", "--angle", "0.3"],
    QKD_ARGS + ["--strategy", "RANDOM_OK"],
    QKD_ARGS + ["--b", "1"],
    ATTACK_ARGS + ["--strategy", "STORE_SUBSET", "--store-positions", "0,a"],
    ATTACK_ARGS + ["--sweep-trials", "50"],
    ATTACK_ARGS + ["--branch-trials", "-3"],
    ATTACK_ARGS + ["--strategy", "RANDOM_OK", "--branch-trials", "-3"],
    *(SWEEP_ARGS + flags for flags in SWEEP_IGNORES),
], ids=[
    "angle-honest", "angle-random-ok", "angle-store", "store-fixed", "store-random-ok",
    "store-honest", "store-both", "eve-angle-honest", "eve-angle-alone", "qkd-store", "qkd-fixed",
    "qkd-random-ok", "qkd-b", "store-not-an-integer", "sweep-trials-alone",
    "branch-trials-negative", "branch-trials-negative-random-ok",
    *(f"sweep{flags[0]}" for flags in SWEEP_IGNORES),
])
def test_unused_strategy_flags_exit_one(tmp_path, capsys, argv):
    assert run(argv + ["--out", str(tmp_path)]) == 1
    assert "error:" in capsys.readouterr().err
    assert not any(tmp_path.iterdir())


DENSITY_ARGS = ["density-check", "--N", "4", "--trials", "2"]


@pytest.mark.parametrize("argv, flag, least", [
    (QOT_ARGS, "--trials", 1),
    (QOT_ARGS, "--workers", 1),
    (DENSITY_ARGS, "--trials", 1),
    (DENSITY_ARGS + ["--m", "1"], "--r", 0),
    (DENSITY_ARGS + ["--r", "1"], "--m", 0),
    (SWEEP_ARGS, "--sweep-trials", 1),
], ids=["simulate-trials", "simulate-workers", "density-trials", "density-r", "density-m",
        "sweep-trials"])
def test_counts_below_their_bound_exit_one_naming_the_flag(tmp_path, capsys, argv, flag, least):
    assert run(argv + [flag, str(least), "--out", str(tmp_path / "ok")]) == 0
    capsys.readouterr()
    assert run(argv + [flag, str(least - 1), "--out", str(tmp_path / "bad")]) == 1
    assert f"{flag} must be at least {least}, got {least - 1}" in capsys.readouterr().err
    assert not (tmp_path / "bad").exists()


@pytest.mark.parametrize("value", [True, 2.0], ids=["bool", "float"])
def test_a_config_count_that_is_not_an_integer_exits_one(tmp_path, capsys, value):
    """A config file can give any JSON value; a count must be an integer
    there too, not a bool read as 1 or a float."""
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"trials": value}))
    out = tmp_path / "out"
    argv = ["simulate", "--n", "16", "--N", "4", "--delta", "0.25", "--config", str(config)]
    assert run(argv + ["--out", str(out)]) == 1
    assert "--trials must be an integer" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("key, value", [("delta", True), ("delta", [1]), ("epsilon", False),
                                        ("noise_p", [0.1])])
def test_a_config_number_that_is_not_an_int_or_float_exits_one(tmp_path, capsys, key, value):
    """delta, epsilon and noise_p from a config file are held to the rule
    of ProtocolParams: a bool is not written into a transcript as true, a
    list does not end in a traceback, and no output directory is made."""
    config = tmp_path / "config.json"
    config.write_text(json.dumps({key: value}))
    out = tmp_path / "out"
    argv = ["simulate", "--n", "16", "--N", "4", "--config", str(config), "--out", str(out)]
    assert run(argv) == 1
    assert f"must be a number, not {value!r}" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("argv, config, message", [
    (ATTACK_ARGS, {"strategy": "FIXED_BASIS", "angle": True},
     "a fixed measurement angle must be a number, not True"),
    (["simulate", "--protocol", "qkd", "--n", "16", "--N", "4", "--trials", "2",
      "--eve", "FIXED_BASIS"], {"eve_angle": True},
     "a fixed measurement angle must be a number, not True"),
    (["code-stats", "--n-cols", "12", "--rows", "4", "--trials", "3"], {"eta": True},
     "eta must be a number, not True"),
], ids=["attack-angle", "qkd-eve-angle", "code-stats-eta"])
def test_a_config_angle_or_eta_that_is_a_bool_exits_one(tmp_path, capsys, argv, config, message):
    """An angle or eta from a config file is read by gf2.number: a bool is
    not recorded as the angle 1.0 or run as eta = 1."""
    path = tmp_path / "config.json"
    path.write_text(json.dumps(config))
    out = tmp_path / "out"
    assert run(argv + ["--config", str(path), "--out", str(out)]) == 1
    assert f"error: {message}" in capsys.readouterr().err
    assert not out.exists()


def test_simulate_builds_each_strategy_once(tmp_path, monkeypatch):
    """The receiver and Eve are built once per command and handed to every
    trial."""
    built = []
    real = cli._build_strategy
    monkeypatch.setattr(cli, "_build_strategy", lambda *a: built.append(a[0]) or real(*a))
    qkd = ["simulate", "--protocol", "qkd", "--n", "16", "--N", "4", "--trials", "3",
           "--eve", "FIXED_BASIS", "--eve-angle", "0.3", "--out", str(tmp_path)]
    assert run(qkd) == 0
    assert built == ["HONEST", "FIXED_BASIS"]


def test_attack_branch_flag_needs_the_coin_strategy(tmp_path):
    assert run(ATTACK_ARGS + ["--branch-trials", "5", "--out", str(tmp_path)]) == 1


def test_attack_store_sweep(tmp_path, capsys):
    args = ["attack", "--n", "64", "--delta", "0.0625", "--seed", "9",
            "--store-sweep", "0.25,0.5", "--sweep-trials", "400",
            "--out", str(tmp_path)]
    assert run(args) == 0
    assert "fraction" in capsys.readouterr().out
    lines = (tmp_path / "store_sweep.csv").read_text().splitlines()
    assert lines[0] == "fraction,expected,empirical_mean,std_error,trials"
    assert len(lines) == 3
    row = lines[1].split(",")
    assert float(row[1]) == pytest.approx(64 * 0.25 / 8)
    assert abs(float(row[2]) - float(row[1])) < 5 * float(row[3])


def test_attack_store_sweep_takes_the_protocol_parameters(tmp_path):
    args = SWEEP_ARGS + ["--N", "4", "--m", "1", "--r", "1", "--noise", "0.01",
                         "--epsilon", "0.2", "--mode", "EXACT_QUANTUM", "--seed", "2"]
    assert run(args + ["--out", str(tmp_path)]) == 0
    assert [p.name for p in tmp_path.iterdir()] == ["store_sweep.csv"]


@pytest.mark.parametrize("sweep, message", [
    ("0.5,nan", "fraction must be finite, not nan"),
    ("0.25,0.5,1.5", "fraction must lie in [0, 1]"),
])
def test_attack_store_sweep_refuses_a_bad_fraction_before_any_output(tmp_path, capsys, sweep,
                                                                      message):
    """Every fraction is read before the table's header: a bad one after
    good ones prints nothing and makes no output directory."""
    out = tmp_path / "out"
    argv = ["attack", "--n", "8", "--N", "2", "--m", "1", "--r", "1", "--delta", "0.125",
            "--store-sweep", sweep, "--out", str(out)]
    assert run(argv) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert f"error: {message}" in captured.err
    assert not out.exists()


def test_attack_store_sweep_rejects_bad_input(tmp_path):
    base = ["attack", "--out", str(tmp_path)]
    assert run(base + ["--store-sweep", "abc"]) == 1
    assert run(base + ["--store-sweep", ""]) == 1
    assert run(base + ["--store-sweep", "0.5", "--sweep-trials", "0"]) == 1


# ---------------------------------------------------------------------------
# density-check

def test_density_check_writes_certificates(tmp_path, capsys):
    args = ["density-check", "--trials", "10", "--seed", "2", "--out", str(tmp_path)]
    assert run(args) == 0
    assert "certificates" in capsys.readouterr().out
    lines = (tmp_path / "density_certificates.csv").read_text().splitlines()
    assert lines[0] == "trial,dN,t,condition_met,max_defect"
    assert len(lines) == 11
    agg = json.loads((tmp_path / "density_summary.json").read_text())
    assert agg["violations"] == 0
    assert agg["trials"] == 10
    # residue stays out of the summary; the max_defect column keeps it
    assert set(agg) == {"trials", "condition_met", "violations", "tolerance"}


def test_density_check_out_of_hypothesis_radii_are_informational(tmp_path):
    args = ["density-check", "--N", "3", "--t", "3", "--trials", "5",
            "--out", str(tmp_path)]
    assert run(args) == 0
    agg = json.loads((tmp_path / "density_summary.json").read_text())
    assert agg["condition_met"] == 0


def test_density_check_is_deterministic(tmp_path):
    a, b = tmp_path / "a", tmp_path / "b"
    args = ["density-check", "--trials", "8", "--seed", "5"]
    assert run(args + ["--out", str(a)]) == 0
    assert run(args + ["--out", str(b)]) == 0
    assert (a / "density_certificates.csv").read_bytes() == (
        b / "density_certificates.csv"
    ).read_bytes()


# Five density-check runs frozen when certificate blocks became real: the
# sha256 of density_summary.json, the sha256 of density_certificates.csv
# without its max_defect column, and that column's sum to 1e-12. Since the
# certificates count instead of calling an eigensolver, every max_defect is
# 2^(1-N) sqrt(a b) of integer counts, the same bytes on every host and
# BLAS thread count, so each run also freezes the whole csv's sha256
# (recorded when the counting form came in; the eigensolver's values
# differed from it by at most 2 ulps in these runs).
FROZEN_DENSITY_CHECKS = [
    (["--trials", "12", "--seed", "1"],
     "ee019eca9d8f87385420ba9f775292845e5fae27b436c233511941a38479482b",
     "0d1b8a29b7f657a0ff6393addb84b5d04841e0c81da06add8003be9e32221338",
     1.65533008588991,
     "492f7a0a4e0216843e7aacae4c905ecfc999fee63855f1e8dd0274e409f75f40"),
    (["--N", "6", "--r", "0", "--m", "1", "--t", "1", "--trials", "12", "--seed", "2"],
     "cf107030861f011c9f475d4810c57f1179f006653fe8b372bf431880943107c7",
     "535f5e4aa6d9cffe5c1a51d2554fcd5c3468537c4b1a047520db74c4f7a03d95",
     0.15624999999999997,
     "ef2af113db9b874a36156c8cb45f70cb522340787c3dd9735eece0fb4085e201"),
    (["--N", "8", "--r", "2", "--m", "1", "--t", "2", "--trials", "8", "--seed", "3"],
     "a9bd318c13298ab1e132fd5e5b88bb98e0de4523d3639e277bf43ece990d511c",
     "33806198866af93a8669c9f7bb2b20516524b8ded082c8830ddeece815cd79ae",
     0.08515230419227861,
     "5c0fcd8498454baa0ffa24aa8c8cec413b4700946f6c6c9b4916c9895e557425"),
    (["--N", "10", "--r", "1", "--m", "2", "--t", "1", "--trials", "6", "--seed", "4"],
     "1c28333fa3874067eb1c809395325f71f294eb16ccec2f3856c090313d149161",
     "00c0042f2b674804166efac8de5098a14b93e711859a120c13e02c82ee0c0a37",
     0.003906249999999999,
     "4c57899ddb0c83ade635223932b6e42eefc87273662068f2222d7fc5d422e0c2"),
    (["--N", "7", "--r", "0", "--m", "3", "--trials", "12", "--seed", "5"],
     "1543861fe936664388e1d0e97c083cbb956e65efe9a58078ffb600b243bfb846",
     "17470bd475a0745bb67a42789b4a9ed5bad381607710284fdd11328b69dd7836",
     0.283462815198213,
     "11db1091d56386f1c0a7566be3809e9916c419b032e46915a814b40c20fd648e"),
]


@pytest.mark.parametrize(
    "flags, summary_sha, exact_sha, defect_sum, certificates_sha", FROZEN_DENSITY_CHECKS,
    ids=[f"run{i}" for i in range(len(FROZEN_DENSITY_CHECKS))],
)
def test_density_check_artifacts_are_frozen(tmp_path, flags, summary_sha, exact_sha, defect_sum,
                                            certificates_sha):
    assert run(["density-check", *flags, "--out", str(tmp_path)]) == 0
    assert sorted(p.name for p in tmp_path.iterdir()) == [
        "density_certificates.csv", "density_summary.json"
    ]
    summary = (tmp_path / "density_summary.json").read_bytes()
    assert hashlib.sha256(summary).hexdigest() == summary_sha
    rows = [line.rsplit(",", 1) for line in
            (tmp_path / "density_certificates.csv").read_text().splitlines()]
    exact = "\n".join(row[0] for row in rows).encode()
    assert hashlib.sha256(exact).hexdigest() == exact_sha
    assert rows[0][1] == "max_defect"
    assert sum(float(row[1]) for row in rows[1:]) == pytest.approx(defect_sum, rel=0, abs=1e-12)
    certificates = (tmp_path / "density_certificates.csv").read_bytes()
    assert hashlib.sha256(certificates).hexdigest() == certificates_sha


def test_in_hypothesis_certificates_do_not_depend_on_blas_threads(tmp_path):
    """The same density-check under one and two OpenBLAS threads writes
    every row byte for byte the same, out-of-hypothesis rows included:
    each max_defect is counted, with no eigensolver, and each in-hypothesis
    one is 0.0."""
    src = os.path.dirname(os.path.dirname(os.path.abspath(cli.__file__)))
    rows = {}
    for threads in ("1", "2"):
        env = dict(os.environ, OPENBLAS_NUM_THREADS=threads,
                   PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
        out = tmp_path / threads
        subprocess.run(
            [sys.executable, "-m", "qotsim.cli", "density-check", "--N", "8", "--r", "2",
             "--m", "1", "--trials", "8", "--seed", "3", "--out", str(out)],
            env=env, check=True, capture_output=True,
        )
        rows[threads] = (out / "density_certificates.csv").read_text().splitlines()[1:]
    assert rows["1"] == rows["2"]
    met = [line for line in rows["1"] if line.split(",")[3] == "1"]
    assert met and all(line.endswith(",0.0") for line in met)
    assert any(line.split(",")[3] == "0" and not line.endswith(",0.0") for line in rows["1"])


def test_density_check_exits_three_on_a_violated_certificate(tmp_path, capsys, monkeypatch):
    """A certificate under its hypothesis with a defect above the tolerance
    is counted, reported on stderr and ends the command with exit 3."""
    real = cosetrho.lemma1_certificate
    monkeypatch.setattr(cosetrho, "lemma1_certificate", lambda *a: dataclasses.replace(
        real(*a), condition_met=True, max_defect=10 * cli.DENSITY_DEFECT_TOL))
    args = ["density-check", "--trials", "3", "--seed", "2", "--out", str(tmp_path)]
    assert run(args) == cli.EXIT_CERTIFICATE == 3
    assert "3 certificate(s) violated the hypothesis" in capsys.readouterr().err
    agg = json.loads((tmp_path / "density_summary.json").read_text())
    assert (agg["condition_met"], agg["violations"]) == (3, 3)


def test_density_check_past_the_density_cap_names_it(tmp_path, capsys):
    """Certificates check the density cap, not the coset dimension: at
    N = 12 with one row the kernel has dimension 11, and the run stops at
    the density cap with exit 2 before writing anything."""
    assert run(["density-check", "--N", "12", "--r", "0", "--m", "1",
                "--out", str(tmp_path)]) == 2
    err = capsys.readouterr().err
    assert "density matrices cap at N=10" in err and "coset" not in err
    assert not any(tmp_path.iterdir())


def test_density_check_validation(tmp_path):
    out = ["--out", str(tmp_path)]
    assert run(["density-check", "--r", "0", "--m", "0"] + out) == 1
    assert run(["density-check", "--N", "2", "--r", "2", "--m", "1"] + out) == 1


# ---------------------------------------------------------------------------
# code-stats

def test_code_stats_summary(tmp_path, capsys):
    args = ["code-stats", "--n-cols", "12", "--rows", "4", "--trials", "20",
            "--seed", "5", "--out", str(tmp_path)]
    assert run(args) == 0
    assert "codes beat ratio threshold" in capsys.readouterr().out
    lines = (tmp_path / "code_stats.csv").read_text().splitlines()
    assert lines[0] == "trial,dN,ratio,bound_satisfied"
    assert len(lines) == 21
    agg = json.loads((tmp_path / "code_stats_summary.json").read_text())
    assert 0.0 <= agg["fraction_satisfied"] <= 1.0


def test_code_stats_is_deterministic(tmp_path):
    a, b = tmp_path / "a", tmp_path / "b"
    args = ["code-stats", "--n-cols", "10", "--rows", "3", "--trials", "10"]
    assert run(args + ["--out", str(a)]) == 0
    assert run(args + ["--out", str(b)]) == 0
    assert (a / "code_stats.csv").read_bytes() == (b / "code_stats.csv").read_bytes()


def test_code_stats_validation(tmp_path):
    out = ["--out", str(tmp_path)]
    assert run(["code-stats", "--n-cols", "4", "--rows", "4"] + out) == 1
    assert run(["code-stats", "--n-cols", "30", "--rows", "25"] + out) == 2


@pytest.mark.parametrize("eta", ["nan", "inf", "-inf"])
def test_code_stats_rejects_a_non_finite_eta(tmp_path, capsys, eta):
    assert run(["code-stats", "--n-cols", "12", "--rows", "4", "--trials", "3",
                f"--eta={eta}", "--out", str(tmp_path)]) == 1
    assert "eta" in capsys.readouterr().err
    assert not any(tmp_path.iterdir())


# ---------------------------------------------------------------------------
# output directory resolution

def test_env_var_sets_the_output_directory(tmp_path, monkeypatch):
    monkeypatch.setenv(cli.OUTPUT_DIR_ENV, str(tmp_path))
    assert run(QOT_ARGS) == 0
    assert (tmp_path / "summary.csv").exists()


def test_out_flag_beats_the_env_var(tmp_path, monkeypatch):
    monkeypatch.setenv(cli.OUTPUT_DIR_ENV, str(tmp_path / "env"))
    explicit = tmp_path / "flag"
    assert run(QOT_ARGS + ["--out", str(explicit)]) == 0
    assert (explicit / "summary.csv").exists()
    assert not (tmp_path / "env").exists()


# ---------------------------------------------------------------------------
# entry point

@pytest.mark.parametrize("argv, code", [
    (["code-stats", "--n-cols", "8", "--rows", "2", "--trials", "2"], 0),
    (["code-stats", "--n-cols", "4", "--rows", "4"], 1),
    (["attack", "--n", "50"], 2),
], ids=["ok", "usage", "resource"])
def test_module_entry_point_exits_with_the_command_code(tmp_path, argv, code):
    """python -m qotsim.cli hands main's exit code to the process."""
    src = os.path.dirname(os.path.dirname(os.path.abspath(cli.__file__)))
    env = dict(os.environ, PYTHONPATH=src)
    done = subprocess.run([sys.executable, "-m", "qotsim.cli", *argv, "--out", str(tmp_path)],
                          env=env, capture_output=True, text=True)
    assert done.returncode == code, done.stderr
    assert ("error:" in done.stderr, "resource cap:" in done.stderr) == (code == 1, code == 2)
