"""Command line surface: artifacts, exit codes, config handling."""

import json
import os

import numpy as np
import pytest

from qotsim import cli, protocol

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
