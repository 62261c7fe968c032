import hashlib
import json
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import qkr
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


def test_run_stops_at_key_divergence(tmp_path, capsys):
    """Majority decoding can hand Bob a wrong padding r_hat under a tag that
    verifies; the parties' next keys then differ and the session ends there
    with the rounds it ran, not with a traceback."""
    out = tmp_path / "r.jsonl"
    code, stdout, stderr = _run(
        capsys, "run", "--code", "repetition3", "--n", "1023", "--gamma", "0.05",
        "--out", str(out),
    )
    assert code == 0
    assert "Traceback" not in stderr
    summary = json.loads(stdout)["summary"]
    assert summary["key_agreement"] is False
    assert 1 <= summary["rounds"] < 100
    assert len(out.read_text().splitlines()) == summary["rounds"]


@pytest.mark.parametrize(
    "argv,stdout_sha256,rounds_sha256",
    [
        (["--rounds", "3"],
         "11da4e12dc7e962f8831e1e890bfe8252929a4c44402c415d407c3fce9f4604a",
         "825a7930a93db6cb0524947e6a42b810adaf3a0da0e9e7b6ca58ec7bbf8d286f"),
        (["--n", "16384", "--rounds", "2"],
         "883e67e89ec1fada7313a4d787ac78e53ecd3081e9aa51cc3f53672a5c219f30",
         "7821667247481cd04630e391b3b0f828491ad5ff251d0da30f911d5639f538a5"),
    ],
    ids=["n1024", "n16384"],
)
def test_run_bytes_pinned_at_fft_sizes(tmp_path, monkeypatch, capsys, argv,
                                       stdout_sha256, rounds_sha256):
    """Every Toeplitz product here takes the FFT path; rounds after the
    first run on keys it produced. The digests were recorded with the exact
    int64 convolution at every size."""
    monkeypatch.chdir(tmp_path)
    code, stdout, _ = _run(
        capsys, "run", "--gamma", "0.05", "--seed", "0", "--out", "r.jsonl", *argv
    )
    assert code == 0
    assert hashlib.sha256(stdout.encode()).hexdigest() == stdout_sha256
    assert hashlib.sha256((tmp_path / "r.jsonl").read_bytes()).hexdigest() == rounds_sha256


@pytest.mark.parametrize(
    "argv,stdout_sha256,rounds_sha256",
    [
        (["run", "--lambda", "128", "--gamma", "0.05", "--rounds", "3", "--seed", "0",
          "--out", "r.jsonl"],
         "f50771218122a649e6bddf62178133c73ca62f24501ab2bc9fd74c01dafc0dfb",
         "3c368d3a43f21e3a19739e1e2662adbbb59ecf3acece9094ce6999c239536a17"),
        (["attack", "tamper_fuzz", "--rounds", "70000", "--seed", "3", "--flip-rate", "0.001"],
         "742865b10863a2bff63e38c2c61518996d2daece6f5b8ba6f53ca1f1cba9bc7e",
         None),
    ],
    ids=["run-lambda128", "tamper-fuzz-70000"],
)
def test_bytes_pinned_across_mac_paths(tmp_path, monkeypatch, capsys, argv,
                                       stdout_sha256, rounds_sha256):
    """The lambda=128 run tags and verifies with the scalar MAC; the fuzz
    crosses its 65536-row chunk boundary and accepts 60618 rounds. The
    digests were recorded with the bit-serial GF(2^lambda) multiply."""
    monkeypatch.chdir(tmp_path)
    code, stdout, _ = _run(capsys, *argv)
    assert code == 0
    assert hashlib.sha256(stdout.encode()).hexdigest() == stdout_sha256
    if rounds_sha256 is not None:
        assert hashlib.sha256((tmp_path / "r.jsonl").read_bytes()).hexdigest() == rounds_sha256


def test_cli_import_leaves_numpy_fft_unloaded():
    """numpy.fft loads on the first large Toeplitz product, not at start-up."""
    src = str(Path(qkr.__file__).resolve().parents[1])
    probe = "import sys, qkr.cli; print('numpy.fft' in sys.modules)"
    result = subprocess.run(
        [sys.executable, "-c", probe], env={"PYTHONPATH": src}, capture_output=True,
        text=True, check=True, timeout=60,
    )
    assert result.stdout.strip() == "False"


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
        (None, ["run", "--reservoir-capacity", "-5", "--out", "{missing}/r.jsonl"]),
        (None, ["attack", "intercept_resend", "--session-rounds", "-4", "--qubits", "10"]),
        (None, ["sweep", "gamma", "--start", "0", "--stop", "0.1", "--steps", "3",
                "--encoding", "bb84"]),
        ({"encoding": "bb84"}, ["sweep", "gamma", "--start", "0", "--stop", "0.1",
                                "--steps", "3"]),
        ({"n": 64.9}, ["run"]),
        ({"rounds": True}, ["run"]),
        ({"n": "64"}, ["run"]),
        ({"gamma": "0.05"}, ["run"]),
        (None, ["run", "--alpha", "1e308", "--out", "{missing}/r.jsonl"]),
        (None, ["sweep", "gamma", "--start", "0", "--stop", "0.1", "--steps", "2",
                "--alpha", "1e308"]),
        (None, ["attack", "intercept_resend", "--alpha", "1e308", "--qubits", "5"]),
    ],
    ids=["config-list", "config-bad-int", "gamma-nan", "gamma-inf", "fuzz-zero-rounds",
         "intercept-zero-qubits", "unwritable-out", "config-null-n", "config-bad-encoding",
         "unsupported-lambda", "eta-above-one", "alpha-below-one",
         "negative-reservoir-capacity", "negative-session-rounds", "sweep-bb84",
         "sweep-config-bb84", "config-fractional-n", "config-bool-rounds",
         "config-string-n", "config-string-gamma", "alpha-overflow-run",
         "alpha-overflow-sweep", "alpha-overflow-intercept"],
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
