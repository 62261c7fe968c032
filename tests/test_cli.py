import json

import numpy as np
import pytest

from qkr.analysis import p_corr
from qkr.cli import main


def _run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_run_noiseless_summary(tmp_path, capsys):
    out = tmp_path / "rounds.jsonl"
    code, stdout, _ = _run(
        capsys, "run", "--gamma", "0", "--rounds", "100", "--code", "oracle",
        "--seed", "3", "--out", str(out),
    )
    assert code == 0
    payload = json.loads(stdout)
    assert payload["summary"]["accept_rate"] == 1.0
    assert payload["summary"]["consumed_bits"] == 0
    assert payload["summary"]["mismatches"] == 0
    lines = out.read_text().splitlines()
    assert len(lines) == 100
    first = json.loads(lines[0])
    assert set(first) == {
        "omega", "mu_hat", "mu_hat_bits", "tau_fb", "consumed_bits", "errors_injected"
    }
    assert first["omega"] == 1


def test_run_is_byte_deterministic(tmp_path, capsys):
    outputs = []
    for name in ("a.jsonl", "b.jsonl"):
        out = tmp_path / name
        code, stdout, _ = _run(
            capsys, "run", "--seed", "7", "--rounds", "40", "--gamma", "0.1",
            "--n", "60", "--out", str(out),
        )
        assert code == 0
        # identical apart from the output path echoed in the config
        outputs.append((stdout.replace(str(out), "OUT"), out.read_bytes()))
    assert outputs[0][1] == outputs[1][1]
    assert outputs[0][0] == outputs[1][0]


def test_run_small_n_accept_rate_tracks_p_corr(tmp_path, capsys):
    code, stdout, stderr = _run(
        capsys, "run", "--gamma", "0.05", "--beta", "0.125", "--n", "64",
        "--rounds", "3000", "--seed", "11", "--out", str(tmp_path / "r.jsonl"),
    )
    assert code == 0
    assert "lambda lowered" in stderr
    rate = json.loads(stdout)["summary"]["accept_rate"]
    expected = p_corr(64, 0.125, 0.05)
    sigma = np.sqrt(expected * (1 - expected) / 3000)
    assert abs(rate - expected) <= 3 * sigma


def test_run_config_file_and_flag_override(tmp_path, capsys):
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"gamma": 0.0, "rounds": 25, "seed": 5, "n": 48}))
    code, stdout, _ = _run(
        capsys, "run", "--config", str(config), "--rounds", "30",
        "--out", str(tmp_path / "r.jsonl"),
    )
    assert code == 0
    payload = json.loads(stdout)
    assert payload["config"]["rounds"] == 30  # flag wins
    assert payload["config"]["n"] == 48


def test_run_unknown_config_field_is_usage_error(tmp_path, capsys):
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"qubits": 10}))
    code, _, stderr = _run(
        capsys, "run", "--config", str(config), "--out", str(tmp_path / "r.jsonl")
    )
    assert code == 2
    assert "qubits" in stderr


def test_run_infeasible_explicit_params_usage_error(tmp_path, capsys):
    code, _, stderr = _run(
        capsys, "run", "--n", "64", "--ell", "32", "--kappa", "64",
        "--out", str(tmp_path / "r.jsonl"),
    )
    assert code == 2
    assert "usage error" in stderr


def test_run_reservoir_exhaustion_exit_code(tmp_path, capsys):
    code, _, stderr = _run(
        capsys, "run", "--gamma", "0.45", "--n", "60", "--ell", "17", "--kappa", "3",
        "--lambda", "8", "--rounds", "100", "--reservoir-capacity", "300",
        "--out", str(tmp_path / "r.jsonl"),
    )
    assert code == 3
    assert "reservoir exhausted" in stderr


def test_sweep_gamma_header_and_monotone_rate(capsys):
    code, stdout, _ = _run(
        capsys, "sweep", "gamma", "--start", "0", "--stop", "0.12", "--steps", "13"
    )
    assert code == 0
    lines = stdout.strip().splitlines()
    assert lines[0] == (
        "gamma,rate,p_corr,log2_bound_total,log2_term_tag,log2_term_reject,log2_term_accept"
    )
    assert len(lines) == 14
    rows = [line.split(",") for line in lines[1:]]
    assert all(len(row) == 7 for row in rows)
    first = rows[0]
    assert float(first[0]) == 0.0
    assert float(first[1]) == 1.0
    assert float(first[2]) == 1.0
    rates = [float(row[1]) for row in rows]
    assert all(a > b for a, b in zip(rates, rates[1:]))


def test_sweep_q_bits_reject_term_slope(capsys):
    code, stdout, _ = _run(
        capsys, "sweep", "q_bits", "--start", "100", "--stop", "110", "--steps", "11"
    )
    assert code == 0
    lines = stdout.strip().splitlines()
    assert lines[0].startswith("q_bits,")
    rejects = [float(line.split(",")[5]) for line in lines[1:]]
    deltas = np.diff(rejects)
    assert np.allclose(deltas, -0.5, atol=1e-9)


def test_sweep_skips_out_of_domain_rows(capsys):
    code, stdout, stderr = _run(
        capsys, "sweep", "gamma", "--start", "0.4", "--stop", "0.6", "--steps", "3"
    )
    assert code == 0
    lines = stdout.strip().splitlines()
    assert len(lines) == 2  # header + the single in-domain row
    assert "skipping" in stderr


def test_sweep_output_matches_golden_file(tmp_path):
    import pathlib

    golden = pathlib.Path(__file__).parent / "data" / "sweep_golden.csv"
    out = tmp_path / "sweep.csv"
    code = main(
        ["sweep", "gamma", "--start", "0", "--stop", "0.1", "--steps", "6",
         "--n", "256", "--alpha", "32", "--lambda", "64", "--out", str(out)]
    )
    assert code == 0
    assert out.read_bytes() == golden.read_bytes()


def test_attack_intercept_resend_report(capsys):
    code, stdout, _ = _run(
        capsys, "attack", "intercept_resend", "--eta", "1", "--qubits", "30000",
        "--session-rounds", "0", "--seed", "2",
    )
    assert code == 0
    report = json.loads(stdout)
    assert report["kind"] == "intercept_resend"
    assert abs(report["induced_error_rate"] - 1 / 3) < 0.01
    assert report["expected_error_rate"] == pytest.approx(1 / 3)


def test_attack_intercept_with_session_reject_rate(capsys):
    code, stdout, _ = _run(
        capsys, "attack", "intercept_resend", "--eta", "1", "--qubits", "5000",
        "--session-rounds", "30", "--n", "63", "--beta", "0.125", "--seed", "4",
    )
    assert code == 0
    report = json.loads(stdout)
    assert report["session_rounds"] == 30
    # a full intercept attack on a 6-state link induces ~1/3 errors: hopeless
    assert report["session_reject_rate"] > 0.9


def test_attack_tamper_fuzz_report(capsys):
    code, stdout, _ = _run(
        capsys, "attack", "tamper_fuzz", "--rounds", "2000", "--seed", "5"
    )
    assert code == 0
    report = json.loads(stdout)
    assert report["rounds"] == 2000
    assert report["false_accepts"] == 0
    assert report["forgery_attempts"] > 1900


def test_bad_flags_exit_two(capsys):
    with pytest.raises(SystemExit) as err:
        main(["run", "--encoding", "8-state"])
    assert err.value.code == 2
    with pytest.raises(SystemExit) as err:
        main(["sweep", "gamma", "--start", "0"])
    assert err.value.code == 2


@pytest.mark.parametrize(
    "config,argv",
    [
        ([1, 2], ["run"]),
        ({"n": "abc"}, ["run"]),
        (None, ["run", "--gamma", "nan"]),
        (None, ["run", "--gamma", "inf"]),
        (None, ["attack", "tamper_fuzz", "--rounds", "0"]),
        (None, ["attack", "intercept_resend", "--qubits", "0", "--session-rounds", "0"]),
        (None, ["run", "--rounds", "1", "--out", "{missing}/r.jsonl"]),
        ({"n": None}, ["run"]),
        ({"encoding": "8-state"}, ["run"]),
        (None, ["run", "--lambda", "7", "--rounds", "1", "--out", "{missing}/r.jsonl"]),
        (None, ["run", "--eta", "2"]),
        (None, ["run", "--alpha", "-5", "--out", "{missing}/r.jsonl"]),
    ],
    ids=["config-list", "config-bad-int", "gamma-nan", "gamma-inf", "fuzz-zero-rounds",
         "intercept-zero-qubits", "unwritable-out", "config-null-n", "config-bad-encoding",
         "unsupported-lambda", "eta-above-one", "alpha-below-one"],
)
def test_bad_input_is_one_line_usage_error(tmp_path, capsys, config, argv):
    argv = [arg.replace("{missing}", str(tmp_path / "missing")) for arg in argv]
    if config is not None:
        path = tmp_path / "config.json"
        path.write_text(json.dumps(config))
        argv += ["--config", str(path), "--out", str(tmp_path / "r.jsonl")]
    try:
        code = main(argv)
    except SystemExit as exc:
        code = exc.code
    lines = capsys.readouterr().err.splitlines()
    assert code == 2
    assert len(lines) == 1 and lines[0].startswith("usage error:")
