import argparse
import contextlib
import hashlib
import io
import json
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
import qkr
from qkr import cli
from qkr.analysis import SecurityBudget, asymptotic_rate_6state, diamond_bound, p_corr
from qkr.cli import DEFAULTS, UsageError, build_parser, main, resolve_budget, resolve_params
from qkr.ecc import CodeKind
from qkr.primitives import BitString, Encoding, ProtocolParams
from qkr.protocol import RoundResult, run_session
from qkr.qsim import ChannelKind, ChannelModel


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
    """A capacity that runs out in the first Reject, between its feedback-key
    and basis-refresh draws, completes no round and leaves an empty file."""
    out = tmp_path / "r.jsonl"
    code, stdout, stderr = _run(
        capsys, "run", "--gamma", "0.45", "--n", "60", "--ell", "17", "--kappa", "3",
        "--lambda", "8", "--rounds", "100", "--reservoir-capacity", "300",
        "--out", str(out),
    )
    assert code == 3
    assert stdout == ""
    assert stderr == (
        "error: reservoir exhausted: 68 consumed, 304 requested, capacity 300; "
        "0 of 100 rounds completed\n"
    )
    assert out.read_bytes() == b""


def test_run_reservoir_exhaustion_keeps_completed_rounds(tmp_path, capsys):
    """Exit 3 leaves the rounds that finished, one line each, in place of a
    longer file that was there before; they are the first rounds of the same
    session run without a capacity."""
    out, full = tmp_path / "r.jsonl", tmp_path / "full.jsonl"
    out.write_text(json.dumps({"stale": True}) + "\n" + "x" * 100_000 + "\n")
    argv = ["run", "--gamma", "0.45", "--n", "60", "--ell", "17", "--kappa", "3",
            "--lambda", "8", "--rounds", "100", "--seed", "2"]
    code, stdout, stderr = _run(capsys, *argv, "--reservoir-capacity", "2000",
                                "--out", str(out))
    assert code == 3
    assert stdout == ""
    lines = stderr.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: reservoir exhausted")
    completed = int(lines[0].split("; ")[1].split(" of 100 rounds completed")[0])
    assert completed >= 1
    # The reservoir counted 1928 bits, the five rounds' 1860 and the sixth
    # round's z and k, drawn before its q ran out.
    assert lines[0] == (
        "error: reservoir exhausted: 1928 consumed, 304 requested, capacity 2000; "
        "5 of 100 rounds completed"
    )
    assert hashlib.sha256(out.read_bytes()).hexdigest() == (
        "552385c9bfd3f989c36939fc9a114576839bb45927251d37b59b251a2cc9b340"
    )
    assert _run(capsys, *argv, "--out", str(full))[0] == 0
    expected = full.read_text().splitlines(keepends=True)[:completed]
    assert out.read_text() == "".join(expected)


@given(
    rounds=st.lists(
        st.tuples(
            st.one_of(st.none(), st.integers(1, 200)),
            st.integers(1, 130),
            st.integers(0, 2**40),
            st.integers(0, 2**20),
        ),
        max_size=4,
    ),
    seed=st.integers(0, 2**32 - 1),
)
@settings(max_examples=60, deadline=None)
def test_rounds_text_matches_json_dumps(rounds, seed):
    """The directly formatted rounds file is the bytes of `json.dumps` with
    sorted keys, for a null mu_hat and for hex of any bit length (lengths
    that are not a multiple of 4 get a zero-padded leading digit)."""
    rng = np.random.default_rng(seed)
    results = [
        RoundResult(
            omega=int(mu_bits is not None),
            mu_hat=None if mu_bits is None else BitString(rng.integers(0, 2, mu_bits)),
            tau_fb=BitString(rng.integers(0, 2, tau_bits)),
            consumed_bits=consumed,
            errors_injected=errors,
        )
        for mu_bits, tau_bits, consumed, errors in rounds
    ]
    assert "".join(map(cli._round_line, results)) == oracles.rounds_text_json(results)


def test_rounds_text_matches_json_dumps_on_a_session():
    session = run_session(
        ProtocolParams(n=64, ell=37, kappa=20, tag_bits=8, beta=0.125, q_bits=32),
        ChannelModel(ChannelKind.INTERCEPT_RESEND, eta=0.3), CodeKind.ORACLE, 40, 3,
    )
    text = "".join(map(cli._round_line, session.results))
    assert {'"mu_hat": null', '"omega": 1'} <= {
        field for line in text.splitlines() for field in line[1:-1].split(", ")
    }
    assert text == oracles.rounds_text_json(session.results)


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
    "argv,stdout_sha256,rounds_sha256,rounds",
    [
        (["--code", "repetition3", "--n", "96", "--gamma", "0.05", "--rounds", "30",
          "--seed", "1"],
         "fc8b895a39fba5b71bff1e50da1afccbf1c926f512ac7b48f41392669beb49e2",
         "0fa75aa5a826910577f286697218e3d71ff294171246796721e2881c8951441e",
         6),
        (["--code", "identity", "--n", "64", "--gamma", "0.02", "--rounds", "20",
          "--seed", "2"],
         "a9ff63670ead1da7cb53dc73f41b7089b897374b0d02d81daf85064df7d3fde6",
         "39a44a7707e4017a21f175611fb0939127af26b4a18ccdb75781e4377c627ad3",
         2),
    ],
    ids=["repetition3-divergence", "identity-error-in-r"],
)
def test_run_bytes_pinned_where_bob_runs_his_own_update(tmp_path, monkeypatch, capsys, argv,
                                                        stdout_sha256, rounds_sha256, rounds):
    """Bob accepts a round whose x differs from Alice's, so his own Accept
    update runs and differs from hers: majority decoding hands him a wrong
    r under a tag that verifies, or the identity code passes an error in r
    straight through. The session ends after that round, with the keys no
    longer in agreement. The digests were recorded with the string-level
    protocol steps, before a session's rounds ran on arrays."""
    monkeypatch.chdir(tmp_path)
    code, stdout, _ = _run(capsys, "run", "--out", "r.jsonl", *argv)
    assert code == 0
    summary = json.loads(stdout)["summary"]
    assert (summary["rounds"], summary["key_agreement"]) == (rounds, False)
    assert hashlib.sha256(stdout.encode()).hexdigest() == stdout_sha256
    assert hashlib.sha256((tmp_path / "r.jsonl").read_bytes()).hexdigest() == rounds_sha256


@pytest.mark.parametrize(
    "argv,stdout_sha256,rounds_sha256",
    [
        (["--rounds", "3"],
         "11da4e12dc7e962f8831e1e890bfe8252929a4c44402c415d407c3fce9f4604a",
         "825a7930a93db6cb0524947e6a42b810adaf3a0da0e9e7b6ca58ec7bbf8d286f"),
        (["--n", "16384", "--rounds", "2"],
         "883e67e89ec1fada7313a4d787ac78e53ecd3081e9aa51cc3f53672a5c219f30",
         "7821667247481cd04630e391b3b0f828491ad5ff251d0da30f911d5639f538a5"),
        (["--rounds", "3", "--lambda", "64"],
         "11da4e12dc7e962f8831e1e890bfe8252929a4c44402c415d407c3fce9f4604a",
         "825a7930a93db6cb0524947e6a42b810adaf3a0da0e9e7b6ca58ec7bbf8d286f"),
    ],
    ids=["n1024", "n16384", "n1024-lambda64"],
)
def test_run_bytes_pinned_at_fft_sizes(tmp_path, monkeypatch, capsys, argv,
                                       stdout_sha256, rounds_sha256):
    """Every Toeplitz product here takes the FFT path; rounds after the
    first run on keys it produced. The digests were recorded with the exact
    int64 convolution at every size. A given lambda of 64 is the one an
    unset lambda derives at n = 1024, so it writes the same bytes."""
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
        (["attack", "tamper_fuzz", "--rounds", "5001", "--seed", "2", "--flip-rate", "0.001"],
         "01c5f9dbc7d8b32e6088086c29693655cb9d8b51c99f21c0112751ca7872f510",
         None),
        (["attack", "tamper_fuzz", "--rounds", "3000", "--flip-rate", "0"],
         "f443fcfd85f6a2970d74d22ec498aa9e6040d177dae8a07b8b55ade199f400a4",
         None),
        (["attack", "tamper_fuzz", "--rounds", "3000", "--flip-rate", "1"],
         "feade8aa1f558e53c41e6dd76c88197253c6a278e14bc04252ac5044e55bd3f1",
         None),
    ],
    ids=["run-lambda128", "tamper-fuzz-70000", "tamper-fuzz-5001", "tamper-fuzz-rate0",
         "tamper-fuzz-rate1"],
)
def test_bytes_pinned_across_mac_paths(tmp_path, monkeypatch, capsys, argv,
                                       stdout_sha256, rounds_sha256):
    """The lambda=128 run tags and verifies with the scalar MAC; the fuzz
    crosses its 65536-row chunk boundary and accepts 60618 rounds. The
    digests were recorded with the bit-serial GF(2^lambda) multiply.

    The 70000-round fuzz's last chunk (4464 rows) draws whole Philox words
    in every field. 5001 rows end the mu, r and z draws inside a word and
    the flips in a short slice of rows. Flip rates 0 and 1 take
    `bernoulli`'s constant branches, which still draw a word per bit.
    These three digests were recorded with the fuzz on unpacked bit rows,
    before its rows were packed into bytes."""
    monkeypatch.chdir(tmp_path)
    code, stdout, _ = _run(capsys, *argv)
    assert code == 0
    assert hashlib.sha256(stdout.encode()).hexdigest() == stdout_sha256
    if rounds_sha256 is not None:
        assert hashlib.sha256((tmp_path / "r.jsonl").read_bytes()).hexdigest() == rounds_sha256


@pytest.mark.parametrize(
    "argv,stdout_sha256,rounds_sha256",
    [
        (["--eta", "0.3", "--rounds", "100", "--seed", "0"],
         "d84de1b9a4e542c275266c1fe3f083fde1940286b8216ada5a11bdcbeae579cd",
         "be2767f3af95a4a37efb41211bb073230d683cc3cb25a9a3d3685b0bac4aedb0"),
        (["--encoding", "bb84", "--eta", "0.3", "--rounds", "50", "--seed", "1"],
         "3b29a4293cf67284eeea888185da3b39f494264cf5e5b1d5687841d28981b188",
         "0b9f5b91d22368dfea0b6ee2d3b81df1195c9774bd748124664d1a9088c2fb82"),
        (["--eta", "0.3", "--rounds", "100", "--seed", "0", "--lambda", "8"],
         "d84de1b9a4e542c275266c1fe3f083fde1940286b8216ada5a11bdcbeae579cd",
         "be2767f3af95a4a37efb41211bb073230d683cc3cb25a9a3d3685b0bac4aedb0"),
        (["--eta", "0.3", "--rounds", "100", "--seed", "0", "--config", "config.json"],
         "d84de1b9a4e542c275266c1fe3f083fde1940286b8216ada5a11bdcbeae579cd",
         "be2767f3af95a4a37efb41211bb073230d683cc3cb25a9a3d3685b0bac4aedb0"),
    ],
    ids=["n64-six-state", "n64-bb84", "n64-lambda8", "n64-config-null-lambda"],
)
def test_run_bytes_pinned_at_small_n(tmp_path, monkeypatch, capsys, argv,
                                     stdout_sha256, rounds_sha256):
    """At n = 64 (lambda lowered to 8) every Toeplitz product is below
    FFT_MIN_MUL_ADDS, and intercept-resend makes both the Accept and the
    Reject key update run. The digests were recorded with the int64
    convolution, the per-call MAC key table and the per-column candidate
    loop of `integers_below`. A given lambda of 8, and a config's
    `"lambda": null`, which leaves lambda unset, write the same bytes."""
    monkeypatch.chdir(tmp_path)
    (tmp_path / "config.json").write_text(json.dumps({"lambda": None}))
    code, stdout, _ = _run(capsys, "run", "--n", "64", "--out", "r.jsonl", *argv)
    assert code == 0
    assert hashlib.sha256(stdout.encode()).hexdigest() == stdout_sha256
    assert hashlib.sha256((tmp_path / "r.jsonl").read_bytes()).hexdigest() == rounds_sha256


@pytest.mark.parametrize(
    "argv,stdout_sha256,rounds_sha256,reject_rate",
    [
        (["--eta", "0.3", "--rounds", "20", "--n", "64", "--seed", "5"],
         "d59c4c1f4d93fd4c3689aca853a1eda5b7706505603ed72f955cfa6306e3bbea",
         "cb735b29d0a5103598030a9c6316dd9ade15d30668620fecda964f745ca65be2",
         0.19999999999999996),
        (["--encoding", "bb84", "--eta", "1", "--rounds", "10", "--n", "63", "--gamma", "0.05",
          "--seed", "2"],
         "74d4cea0178d5ac969528248507781c2269558e5d48252fd9ddff233a88f62f8",
         "685e18da2a8bbe5a8f8199575dd22af4510db4af93d3c261eec69b9d38429084",
         1.0),
    ],
    ids=["six-state-eta0.3", "bb84-eta1-gamma"],
)
def test_run_eta_bytes_pinned(tmp_path, monkeypatch, capsys, argv, stdout_sha256,
                              rounds_sha256, reject_rate):
    """`run --eta` is the session under intercept-resend alone (gamma only
    sizes the code), with lambda lowered to 8. The digests were recorded, and
    the reject rates (1 - accept_rate) equal those that
    `attack intercept_resend --session-rounds` reported for the same
    sessions, before that option went."""
    monkeypatch.chdir(tmp_path)
    code, stdout, _ = _run(capsys, "run", "--out", "r.jsonl", *argv)
    assert code == 0
    assert hashlib.sha256(stdout.encode()).hexdigest() == stdout_sha256
    assert hashlib.sha256((tmp_path / "r.jsonl").read_bytes()).hexdigest() == rounds_sha256
    assert 1.0 - json.loads(stdout)["summary"]["accept_rate"] == reject_rate


@pytest.mark.parametrize(
    "argv,stdout_sha256,rounds_sha256",
    [
        (["--n", "64", "--eta", "0.3", "--rounds", "600", "--seed", "7"],
         "9026b3a4325e9e9d49cb32fb280a4934c27e5efff2e1944160f0209f0cbab401",
         "a03db464d40ce9a0cfc0d01d609b359ea7be03c79baae0e52aa1173e81c78c81"),
        (["--gamma", "0.05", "--rounds", "40", "--seed", "4"],
         "634737de8df774797eba8b480548f8ff484c39615252fde93b94ea17b21af388",
         "a97bfef31e3c9d853211e4aa4c3516eb3059e5016e7e728f4cef44574eec7e1d"),
    ],
    ids=["n64-eta0.3-600", "n1024-gamma0.05-40"],
)
def test_run_bytes_pinned_across_blocks(tmp_path, monkeypatch, capsys, argv, stdout_sha256,
                                        rounds_sha256):
    """A session draws its plaintexts, pads, next feedback keys and channel
    a block of rounds at a time: 237 rounds at n = 64 under intercept-resend
    and 16 at n = 1024, so each of these runs three blocks, the last one
    short. The digests were recorded with every draw taken a round at a
    time."""
    monkeypatch.chdir(tmp_path)
    code, stdout, _ = _run(capsys, "run", "--out", "r.jsonl", *argv)
    assert code == 0
    assert hashlib.sha256(stdout.encode()).hexdigest() == stdout_sha256
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
    # An unset lambda is 64 in the bound: log2(2^(1 - 64)).
    assert {row[4] for row in rows} == {"-63"}


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


@pytest.mark.parametrize(
    "stop,steps,csv_sha256",
    [
        ("262144", "3", "c96444a26da34ffc312a15c9cd03d78d031606df2cd2da77be5247c29b8155f7"),
        ("16777216", "2", "7231f77e9197b69511cdfad98ad2c173f35e2ebc97c563da5f4aa1ee42fbef8a"),
    ],
    ids=["n2e18", "n2e24"],
)
def test_sweep_bytes_pinned_at_large_n(tmp_path, monkeypatch, stop, steps, csv_sha256):
    """p_corr sums only the terms that can be nonzero; the digests were
    recorded with the sum over all floor(n*beta) + 1 terms, 2.1 million of
    them per row at n = 2^24."""
    monkeypatch.chdir(tmp_path)
    code = main(["sweep", "n", "--start", "1024", "--stop", stop, "--steps", steps,
                 "--gamma", "0.05", "--out", "f.csv"])
    assert code == 0
    assert hashlib.sha256((tmp_path / "f.csv").read_bytes()).hexdigest() == csv_sha256


def test_sweep_q_bits_bytes_pinned(capsys):
    """q_bits sweeps, which sweep_golden.csv does not cover, keep their bytes."""
    code, stdout, _ = _run(capsys, "sweep", "q_bits", "--start", "100", "--stop", "400",
                           "--steps", "4", "--n", "256")
    assert code == 0
    assert (hashlib.sha256(stdout.encode()).hexdigest()
            == "b43ccc550e70ee1c7f20fd2ea5c1b5579acc31a9155744b3ce5b283c666403d7")


def test_sweep_n_bytes_pinned_with_a_skipped_row(capsys):
    """An n sweep from 0 skips n = 0 with one note and keeps its other rows."""
    code, stdout, stderr = _run(capsys, "sweep", "n", "--start", "0", "--stop", "64",
                                "--steps", "3")
    assert code == 0
    assert stderr == "note: skipping n=0: invalid budget sizes\n"
    assert (hashlib.sha256(stdout.encode()).hexdigest()
            == "60bbf1a8c8b681ec979078df6e72d79f98c43793a1c769e015374a147783f274")


def test_sweep_n_keeps_the_base_kappa_and_q_bits(capsys):
    """`sweep n` derives kappa and q_bits once, from the base n (429 and 427
    at the default n = 1024), and evaluates every swept n with them."""
    code, stdout, _ = _run(
        capsys, "sweep", "n", "--start", "10", "--stop", "1024", "--steps", "2", "--gamma", "0.05"
    )
    assert code == 0
    report = diamond_bound(SecurityBudget(
        tag_bits=64, n=10, kappa=429, gamma=0.05, beta=0.125, q_bits=427
    ))
    row = [10, asymptotic_rate_6state(0.05), report.p_corr, report.log2_total,
           report.log2_term_tag, report.log2_term_reject, report.log2_term_accept]
    assert stdout.splitlines()[1] == ",".join(f"{c:.10g}" for c in row)


def test_attack_intercept_resend_report(capsys):
    code, stdout, _ = _run(
        capsys, "attack", "intercept_resend", "--eta", "1", "--qubits", "30000", "--seed", "2"
    )
    assert code == 0
    report = json.loads(stdout)
    assert report["kind"] == "intercept_resend"
    assert abs(report["induced_error_rate"] - 1 / 3) < 0.01
    assert report["expected_error_rate"] == pytest.approx(1 / 3)


def test_attack_intercept_bytes_pinned(capsys):
    """The channel-only report. The digest was recorded with
    `--session-rounds 0`, when the command could also run a session."""
    code, stdout, _ = _run(
        capsys, "attack", "intercept_resend", "--eta", "1", "--qubits", "30000", "--seed", "2"
    )
    assert code == 0
    assert (hashlib.sha256(stdout.encode()).hexdigest()
            == "e59bec2bb4bb14684c623b4563c2d0b789c93e2603bb738258b13dd208d76333")


def test_attack_intercept_bb84_bytes_pinned(capsys):
    """The BB84 channel report, whose bases are drawn one bit each."""
    code, stdout, _ = _run(
        capsys, "attack", "intercept_resend", "--encoding", "bb84", "--eta", "0.7",
        "--qubits", "5000", "--seed", "2"
    )
    assert code == 0
    assert (hashlib.sha256(stdout.encode()).hexdigest()
            == "f9c7ca1db53fcd3f3c9c7b959260182df2d401855d0437ecc99cfbd6534d00ed")


@pytest.mark.parametrize(
    "flag,largest_sha256",
    [("--kappa", "74bb925a1a3f6e5b5154e3a6a26aafdcfb07cd79e39362454ff2f37534f987fc"),
     ("--q-bits", "1e62175192089332b9c21654aeae71de6c81f654135b494a1d3710831472401f")],
)
def test_sweep_sizes_up_to_what_a_float_holds(capsys, flag, largest_sha256):
    """The bound is evaluated in floats: the largest float, 2^1024 - 2^971,
    still prints its rows, and 2^1024 - 2^970, the least int that rounds
    past it, is one usage line."""
    argv = ["sweep", "gamma", "--start", "0", "--stop", "0.1", "--steps", "2", "--n", "64"]
    code, stdout, _ = _run(capsys, *argv, flag, str(2**1024 - 2**971))
    assert code == 0
    assert hashlib.sha256(stdout.encode()).hexdigest() == largest_sha256
    code, stdout, stderr = _run(capsys, *argv, flag, str(2**1024 - 2**970))
    key = flag[2:].replace("-", "_")
    assert (code, stdout) == (2, "")
    assert stderr == f"usage error: {key}: too large to evaluate, got a 1024-bit number\n"


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
        (None, ["attack", "intercept_resend", "--qubits", "0"]),
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
        ({"out": True}, ["run"]),
        ({"out": ["a"]}, ["run"]),
        (None, ["run", "--alpha", "1e308", "--out", "{missing}/r.jsonl"]),
        (None, ["sweep", "gamma", "--start", "0", "--stop", "0.1", "--steps", "2",
                "--alpha", "1e308"]),
        (None, ["attack", "intercept_resend", "--alpha", "1e308", "--qubits", "5"]),
        (None, ["run", "--alpha", "1e300", "--rounds", "1", "--out", "{missing}/r.jsonl"]),
        (None, ["attack", "intercept_resend", "--alpha", "1e300", "--qubits", "5"]),
        (None, ["run", "--q-bits", "10000000000000", "--rounds", "1",
                "--out", "{missing}/r.jsonl"]),
        (None, ["run", "--n", "64", "--ell", "10", "--out", "{missing}/r.jsonl"]),
        (None, ["run", "--n", "100", "--code", "repetition3", "--out", "{missing}/r.jsonl"]),
        (None, ["run", "--code", "identity", "--n", "64", "--ell", "40", "--kappa", "8",
                "--out", "{missing}/r.jsonl"]),
        (None, ["run", "--n", "4294967297", "--rounds", "1", "--out", "{missing}/r.jsonl"]),
        (None, ["sweep", "gamma", "--start", "0", "--stop", "0.1", "--steps", "1"]),
        (None, ["sweep", "gamma", "--start", "0", "--stop", "0.1", "--steps", "2",
                "--n", "1" + "0" * 400]),
        (None, ["sweep", "n", "--start", "1024", "--stop", "1e13", "--steps", "2"]),
        (None, ["sweep", "n", "--start", "1e13", "--stop", "1024", "--steps", "2"]),
        (None, ["sweep", "gamma", "--start", "0", "--stop", "0.1", "--steps", "2",
                "--seed", "4"]),
        (None, ["attack", "tamper_fuzz", "--rounds", "10", "--lambda", "8"]),
        (None, ["attack", "intercept_resend", "--qubits", "10", "--flip-rate", "0.5"]),
        (None, ["sweep", "gamma", "--start", "0", "--stop", "0.1", "--steps", "2",
                "--lambda", "7"]),
        (None, ["run", "--n", "64", "--lambda", "64", "--out", "{missing}/r.jsonl"]),
        (None, ["attack", "intercept_resend", "--qubits", "300", "--n", "64"]),
        (None, ["attack", "intercept_resend", "--qubits", "300", "--session-rounds", "5"]),
        (None, ["attack", "intercept_resend", "--qubits", "300", "--gamma", "0.1"]),
        (None, ["run", "--n", "0", "--out", "{missing}/r.jsonl"]),
        (None, ["sweep", "n", "--start", "100", "--stop", "200", "--steps", "2", "--n", "-3"]),
        ({"n": 0}, ["run"]),
        (None, ["sweep", "gamma", "--start", "0", "--stop", "0.1", "--steps", "2",
                "--gamma", "0.1"]),
        (None, ["sweep", "q_bits", "--start", "100", "--stop", "400", "--steps", "4",
                "--q-bits", "5"]),
        (None, ["run", "--alpha", "0.5", "--q-bits", "100", "--rounds", "1",
                "--out", "{missing}/r.jsonl"]),
        (None, ["run", "--alpha", "0.5", "--kappa", "100", "--q-bits", "100", "--rounds", "1",
                "--out", "{missing}/r.jsonl"]),
        ({"alpha": 0.5, "q_bits": 100}, ["run"]),
        (None, ["sweep", "gamma", "--start", "0", "--stop", "0.1", "--steps", "2",
                "--alpha", "0.5", "--kappa", "100", "--q-bits", "100"]),
        (None, ["sweep", "gamma", "--start", "0", "--stop", "0.1", "--steps", "2",
                "--n", "64", "--kappa", "1" + "0" * 400]),
        (None, ["sweep", "gamma", "--start", "0", "--stop", "0.1", "--steps", "2",
                "--n", "64", "--q-bits", "1" + "0" * 400]),
    ],
    ids=["config-list", "config-bad-int", "gamma-nan", "gamma-inf", "fuzz-zero-rounds",
         "intercept-zero-qubits", "unwritable-out", "config-null-n", "config-bad-encoding",
         "unsupported-lambda", "eta-above-one", "alpha-below-one",
         "negative-reservoir-capacity", "intercept-negative-session-rounds-unread",
         "sweep-bb84", "sweep-config-bb84", "config-fractional-n", "config-bool-rounds",
         "config-string-n", "config-string-gamma", "config-bool-out", "config-list-out",
         "alpha-overflow-run", "alpha-overflow-sweep", "intercept-alpha-overflow-unread",
         "alpha-huge-run", "intercept-alpha-huge-unread", "q-bits-huge",
         "lambda-lowered-then-ell-too-small",
         "repetition3-n-not-multiple-of-3", "identity-ell-kappa-not-n", "n-huge",
         "sweep-one-step", "sweep-n-huge", "sweep-swept-n-huge", "sweep-swept-n-huge-start",
         "sweep-seed-unread", "fuzz-lambda-unread", "intercept-flip-rate-unread",
         "sweep-unsupported-lambda", "given-lambda-never-lowered", "intercept-n-unread",
         "intercept-session-rounds-unread", "intercept-gamma-unread", "n-zero",
         "sweep-negative-n", "config-zero-n", "sweep-gamma-flag-unread",
         "sweep-q-bits-flag-unread", "alpha-below-one-sizes-kappa",
         "alpha-below-one-sizes-nothing", "config-alpha-below-one",
         "sweep-alpha-below-one-sizes-nothing", "sweep-kappa-huge", "sweep-q-bits-huge"],
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


@pytest.mark.parametrize(
    "argv,message",
    [
        (["--encoding", "8-state"],
         "argument --encoding: unknown encoding '8-state' (expected bb84 or six-state)"),
        (["--code", "bch"],
         "argument --code: unknown code 'bch' (expected identity, repetition3 or oracle)"),
        (["--gamma", "0.45"],
         "payload: the oracle code at n=1024 and gamma=0.45 leaves 7 bits; the smallest "
         "that hosts a tag is 17 bits, for lambda 8"),
        (["--n", "16", "--code", "identity"],
         "payload: the identity code at n=16 leaves 16 bits; the smallest that hosts a "
         "tag is 17 bits, for lambda 8"),
        (["--n", "48", "--code", "repetition3"],
         "payload: the repetition3 code at n=48 leaves 16 bits; the smallest that hosts "
         "a tag is 17 bits, for lambda 8"),
        (["--n", "64", "--ell", "10", "--kappa", "6"],
         "payload: ell + kappa leaves 16 bits; the smallest that hosts a tag is 17 bits, "
         "for lambda 8"),
        (["--n", "0"], "argument --n: must be at least 1, got '0'"),
        (["--beta", "abc"], "argument --beta: invalid float value: 'abc'"),
        (["--gamma", "abc"], "argument --gamma: invalid float value: 'abc'"),
        (["--alpha", "abc"], "argument --alpha: invalid float value: 'abc'"),
        (["--seed", "abc"], "argument --seed: invalid int value: 'abc'"),
        (["--n", "64", "--ell", "60", "--kappa", "4", "--code", "repetition3"],
         "repetition3 needs n = 3*k_in, got n=64, k_in=64"),
        (["--n", "64", "--ell", "40", "--kappa", "8", "--lambda", "8", "--code", "identity"],
         "identity needs n = k_in and t = 0, got n=64, k_in=48, t=0"),
    ],
    ids=["encoding", "code", "oracle-gamma", "identity-n", "repetition3-n", "ell-kappa",
         "n-zero", "beta-text", "gamma-text", "alpha-text", "seed-text",
         "repetition3-shape", "identity-shape"],
)
def test_usage_error_wording(tmp_path, capsys, argv, message):
    """An unknown name lists the names its field takes; a payload too narrow
    for any tag says how its width was derived and what width would do."""
    try:
        code = main(["run", *argv, "--out", str(tmp_path / "missing" / "r.jsonl")])
    except SystemExit as exc:
        code = exc.code
    assert code == 2
    assert capsys.readouterr().err == f"usage error: {message}\n"


@pytest.mark.parametrize(
    "argv,message",
    [
        (["sweep", "gamma", "--start", "abc", "--stop", "0.1", "--steps", "2"],
         "argument --start: invalid float value: 'abc'"),
        (["sweep", "gamma", "--start", "0", "--stop", "0.1", "--steps", "x"],
         "argument --steps: invalid int value: 'x'"),
        (["attack", "tamper_fuzz", "--flip-rate", "abc"],
         "argument --flip-rate: invalid float value: 'abc'"),
        (["attack", "intercept_resend", "--qubits", "x"],
         "argument --qubits: invalid int value: 'x'"),
    ],
    ids=["sweep-start", "sweep-steps", "fuzz-flip-rate", "intercept-qubits"],
)
def test_usage_error_wording_of_other_commands(capsys, argv, message):
    """A number that does not parse is named by the type it should have."""
    with pytest.raises(SystemExit) as err:
        main(argv)
    assert err.value.code == 2
    assert capsys.readouterr().err == f"usage error: {message}\n"


def test_every_converter_is_named_for_its_usage_errors():
    """argparse words a value its converter cannot read as `invalid <name>
    value`, naming the converter. Each converter is named int, float or str,
    or is a name converter, which words its own errors and sets a metavar."""
    leaks = [f"{command} {action.option_strings[0]}"
             for command, action in _actions(build_parser())
             if action.type is not None and action.metavar is None
             and action.type.__name__ not in ("int", "float", "str")]
    assert leaks == []


@pytest.mark.parametrize(
    "config,message",
    [
        ('{"gamma": 2}', "field 'gamma': must lie in [0, 1], got 2"),
        ('{"n": 64.9}', "field 'n': must be an integer, got 64.9"),
        ('{"n": 0}', "field 'n': must be at least 1, got 0"),
        ('{"alpha": 0.5}', "field 'alpha': must be at least 1, got 0.5"),
        ('{"beta": 1e400}', "field 'beta': must be a finite number, got inf"),
        ('{"beta": 1%s}' % ("0" * 400), "field 'beta': int too large to convert to float"),
    ],
    ids=["gamma-above-one", "fractional-n", "zero-n", "alpha-below-one", "beta-overflow",
         "beta-huge-int"],
)
def test_config_error_wording(tmp_path, capsys, config, message):
    """A config field is read by the same converter as its flag."""
    path = tmp_path / "config.json"
    path.write_text(config)
    assert main(["run", "--config", str(path), "--out", str(tmp_path / "r.jsonl")]) == 2
    assert capsys.readouterr().err == f"usage error: config: {message}\n"


def test_field_defaults_read_as_themselves():
    """Each default passes its own field's converter unchanged, so a
    command uses the merged values as they are."""
    assert DEFAULTS == {
        "n": 1024, "ell": None, "kappa": None, "lambda": None, "beta": 0.125, "gamma": 0.0,
        "eta": 0.0, "alpha": 64, "q_bits": None, "encoding": "six-state", "code": "oracle",
        "rounds": 100, "seed": 0, "out": None,
    }
    for key, (default, convert) in cli._FIELDS.items():
        if default is not None:
            assert convert(default) == default, key
    assert DEFAULTS["encoding"] in {encoding.value for encoding in Encoding}
    assert DEFAULTS["code"] in {kind.value for kind in CodeKind}


def test_out_of_memory_is_one_line_usage_error(tmp_path, monkeypatch, capsys):
    def no_memory(*args):
        raise MemoryError

    monkeypatch.setattr(qkr.protocol.KeyState, "random", no_memory)
    code, stdout, stderr = _run(
        capsys, "run", "--rounds", "1", "--out", str(tmp_path / "r.jsonl")
    )
    assert code == 2
    assert stdout == ""
    lines = stderr.splitlines()
    assert len(lines) == 1 and lines[0].startswith("usage error:")


def _resolved(resolve, *args):
    """`resolve(*args)`, or UsageError if it raised one, and its stderr lines."""
    err = io.StringIO()
    with contextlib.redirect_stderr(err):
        try:
            result = resolve(*args)
        except UsageError:
            result = UsageError
    return result, err.getvalue().splitlines()


@st.composite
def _run_values(draw):
    n = draw(st.integers(1, 5000))
    # Payload widths the codes need (identity n, repetition3 n/3) or any other.
    k_in = draw(st.sampled_from([n, n // 3]) | st.integers(0, n))
    kappa = draw(st.none() | st.integers(-1, k_in))
    ell = draw(st.none() | st.just(k_in - (kappa or 0)) | st.integers(-1, n))
    values = dict(
        DEFAULTS,
        n=n,
        ell=ell,
        kappa=kappa,
        q_bits=draw(st.none() | st.integers(0, 5000)),
        code=draw(st.sampled_from(["identity", "repetition3", "oracle"])),
        encoding=draw(st.sampled_from(["six-state", "bb84"])),
        gamma=draw(st.floats(0.0, 0.5)),
        alpha=draw(st.floats(1.0, 200.0)),
        beta=draw(st.sampled_from([0.0, 0.125, 0.5]) | st.floats(0.0, 0.5)),
    )
    values["lambda"] = draw(st.none() | st.sampled_from([7, 8, 64, 128]))
    return values


@settings(max_examples=500, deadline=None)
@given(_run_values())
def test_resolvers_match_ladder_oracle(values):
    """Each size rule stated once derives what the per-branch resolver did:
    the same parameters and notes, or a usage error with nothing else on
    stderr. The oracle takes an unset lambda as 64, not explicitly set."""
    given = values["lambda"] is not None
    ladder = dict(values, **{"lambda": values["lambda"] if given else 64})
    explicit = {"lambda"} if given else set()
    old, old_lines = _resolved(oracles.resolve_params, ladder, explicit)
    new, lines = _resolved(resolve_params, values)
    assert new == old
    assert lines == ([] if new is UsageError else old_lines)
    assert len(lines) <= 1
    old_budget, _ = _resolved(oracles.resolve_budget, ladder)
    new_budget, budget_lines = _resolved(resolve_budget, values)
    assert new_budget == old_budget
    assert budget_lines == []


def _actions(parser, command=()):
    """(command, action) for every action of the parser and its subcommands."""
    for action in parser._actions:
        if isinstance(action, argparse._SubParsersAction):
            for name, sub in action.choices.items():
                yield from _actions(sub, command + (name,))
        yield " ".join(command), action


def _declared_options(parser):
    """(command, option) for every option of every subcommand, help aside."""
    return [(command, option) for command, action in _actions(parser)
            for option in action.option_strings if option not in ("-h", "--help")]


_RUN = ["run", "--n", "64", "--rounds", "2", "--out", "r.jsonl"]
_SWEEP = ["sweep", "gamma", "--start", "0", "--stop", "0.1", "--steps", "2", "--n", "64"]
# A gamma sweep overrides the base gamma, so the --gamma case sweeps q_bits.
_SWEEP_Q = ["sweep", "q_bits", "--start", "100", "--stop", "200", "--steps", "2", "--n", "64"]
_INTERCEPT = ["attack", "intercept_resend", "--qubits", "200", "--eta", "0.3"]
_FUZZ = ["attack", "tamper_fuzz", "--rounds", "100"]

# (command, option) -> (base argv, the same argv with that option changed).
_FLAG_CASES = {
    ("run", "--config"): (_RUN, _RUN + ["--config", "config.json"]),
    ("run", "--reservoir-capacity"): (
        _RUN + ["--eta", "1"], _RUN + ["--eta", "1", "--reservoir-capacity", "0"]),
    ("run", "--n"): (_RUN, _RUN + ["--n", "48"]),
    ("run", "--ell"): (_RUN, _RUN + ["--ell", "20"]),
    ("run", "--kappa"): (_RUN, _RUN + ["--kappa", "10"]),
    ("run", "--lambda"): (_RUN, _RUN + ["--lambda", "64"]),
    ("run", "--beta"): (_RUN, _RUN + ["--beta", "0.25"]),
    ("run", "--gamma"): (_RUN, _RUN + ["--gamma", "0.05"]),
    ("run", "--eta"): (_RUN, _RUN + ["--eta", "0.5"]),
    ("run", "--alpha"): (_RUN, _RUN + ["--alpha", "32"]),
    ("run", "--q-bits"): (_RUN, _RUN + ["--q-bits", "100"]),
    ("run", "--encoding"): (_RUN, _RUN + ["--encoding", "bb84"]),
    ("run", "--code"): (_RUN, _RUN + ["--code", "identity"]),
    ("run", "--rounds"): (_RUN, _RUN + ["--rounds", "3"]),
    ("run", "--seed"): (_RUN, _RUN + ["--seed", "1"]),
    ("run", "--out"): (_RUN, _RUN + ["--out", "s.jsonl"]),
    ("sweep", "--start"): (_SWEEP, _SWEEP + ["--start", "0.01"]),
    ("sweep", "--stop"): (_SWEEP, _SWEEP + ["--stop", "0.2"]),
    ("sweep", "--steps"): (_SWEEP, _SWEEP + ["--steps", "3"]),
    ("sweep", "--n"): (_SWEEP, _SWEEP + ["--n", "256"]),
    ("sweep", "--kappa"): (_SWEEP, _SWEEP + ["--kappa", "10"]),
    ("sweep", "--lambda"): (_SWEEP, _SWEEP + ["--lambda", "8"]),
    ("sweep", "--beta"): (_SWEEP, _SWEEP + ["--beta", "0.25"]),
    ("sweep", "--gamma"): (_SWEEP_Q, _SWEEP_Q + ["--gamma", "0.05"]),
    ("sweep", "--alpha"): (_SWEEP, _SWEEP + ["--alpha", "32"]),
    ("sweep", "--q-bits"): (_SWEEP, _SWEEP + ["--q-bits", "100"]),
    ("sweep", "--out"): (_SWEEP, _SWEEP + ["--out", "f.csv"]),
    ("attack intercept_resend", "--qubits"): (_INTERCEPT, _INTERCEPT + ["--qubits", "300"]),
    ("attack intercept_resend", "--eta"): (_INTERCEPT, _INTERCEPT + ["--eta", "0.5"]),
    ("attack intercept_resend", "--encoding"): (
        _INTERCEPT, _INTERCEPT + ["--encoding", "bb84"]),
    ("attack intercept_resend", "--seed"): (_INTERCEPT, _INTERCEPT + ["--seed", "1"]),
    ("attack intercept_resend", "--out"): (_INTERCEPT, _INTERCEPT + ["--out", "f.json"]),
    ("attack tamper_fuzz", "--rounds"): (_FUZZ, _FUZZ + ["--rounds", "101"]),
    ("attack tamper_fuzz", "--seed"): (_FUZZ, _FUZZ + ["--seed", "1"]),
    ("attack tamper_fuzz", "--flip-rate"): (_FUZZ, _FUZZ + ["--flip-rate", "0.5"]),
    ("attack tamper_fuzz", "--out"): (_FUZZ, _FUZZ + ["--out", "f.json"]),
}


def _outcome(directory, monkeypatch, capsys, argv):
    """Exit code, stdout and the files written, for `argv` run in `directory`."""
    directory.mkdir()
    # The file the `run --config` case reads; every run directory holds it.
    (directory / "config.json").write_text(json.dumps({"seed": 1}))
    monkeypatch.chdir(directory)
    try:
        code = main(list(argv))
    except SystemExit as exc:
        code = exc.code
    files = {path.name: path.read_bytes() for path in sorted(directory.iterdir())}
    return code, capsys.readouterr().out, files


@pytest.mark.parametrize("command,option", sorted(_declared_options(build_parser())))
def test_every_declared_flag_is_read(tmp_path, monkeypatch, capsys, command, option):
    """Changing any flag a subcommand declares changes what it does: its
    stdout, its output file or its exit code. A flag without a case here
    fails, so a flag added without a reader fails too."""
    assert (command, option) in _FLAG_CASES, f"no case for {command} {option}"
    base, changed = _FLAG_CASES[command, option]
    assert base[: len(command.split())] == command.split()
    before = _outcome(tmp_path / "base", monkeypatch, capsys, base)
    after = _outcome(tmp_path / "changed", monkeypatch, capsys, changed)
    assert before[0] in (0, 3)
    assert after != before


def _readme_commands():
    """The argv of every `qkr ...` line of the README's command-line block,
    with `#` comments and `> file` redirects cut."""
    readme = (Path(__file__).parents[1] / "README.md").read_text()
    block = readme.split("## Command line", 1)[1].split("```sh", 1)[1].split("```", 1)[0]
    lines = [line.split("#", 1)[0].split(">", 1)[0].split() for line in block.splitlines()]
    commands = [words[1:] for words in lines if words[:1] == ["qkr"]]
    assert commands
    return commands


def test_readme_command_lines_parse():
    """Every `qkr ...` line of the README's command-line block parses."""
    for argv in _readme_commands():
        build_parser().parse_args(argv)


def test_readme_command_lines_run(tmp_path, monkeypatch, capsys):
    """Every `qkr ...` line of the README's command-line block runs and
    exits 0, and the n = 64 example says that lambda was lowered."""
    monkeypatch.chdir(tmp_path)
    small_n = 0
    for argv in _readme_commands():
        code, _, stderr = _run(capsys, *argv)
        assert code == 0, (argv, stderr)
        if "--n" in argv and argv[argv.index("--n") + 1] == "64":
            small_n += 1
            assert "note: lambda lowered" in stderr
    assert small_n == 1


# One process, one cached parser: the config sets what the earlier `run`
# set by flag, the usage error parses --rounds before it fails, and the
# fuzz without --rounds must still get its own default of 1,000,000.
_PARSER_SEQUENCE = [
    ["run", "--n", "64", "--rounds", "2", "--seed", "5", "--out", "r.jsonl"],
    ["attack", "tamper_fuzz", "--rounds", "7", "--flip-rate", "2", "--out", "f.json"],
    ["attack", "tamper_fuzz", "--out", "f.json"],
    ["sweep", "gamma", "--start", "0", "--stop", "0.1", "--steps", "2", "--n", "64",
     "--out", "f.csv"],
    ["run", "--config", "config.json", "--out", "r.jsonl"],
]


def test_cached_parser_parses_each_argv_afresh(tmp_path, monkeypatch, capsys):
    """`main` parses with one parser per process; every call in a sequence
    gives the stdout, exit code and files a freshly built parser gives, and
    the namespace of each parse equals a fresh parse's."""
    # The fuzz's report is its arguments, so the million rounds never run.
    monkeypatch.setattr(cli, "tamper_fuzz", lambda **kwargs: kwargs)
    assert cli._parser() is cli._parser()
    cached, fresh = [], []
    for i, argv in enumerate(_PARSER_SEQUENCE):
        cached.append(_outcome(tmp_path / f"cached{i}", monkeypatch, capsys, argv))
    with monkeypatch.context() as patch:
        patch.setattr(cli, "_parser", build_parser)
        for i, argv in enumerate(_PARSER_SEQUENCE):
            fresh.append(_outcome(tmp_path / f"fresh{i}", monkeypatch, capsys, argv))
    assert cached == fresh
    assert [outcome[0] for outcome in cached] == [0, 2, 0, 0, 0]
    assert json.loads(cached[2][2]["f.json"])["rounds"] == 1_000_000
    assert json.loads(cached[4][1])["config"]["seed"] == 1
    for argv in _PARSER_SEQUENCE[:1] + _PARSER_SEQUENCE[2:]:
        assert vars(cli._parser().parse_args(argv)) == vars(build_parser().parse_args(argv))


@pytest.mark.parametrize(
    "argv", [["run", "--n", "64", "--lambda", "8", "--rounds", "2"], _FUZZ],
    ids=["run", "tamper_fuzz"],
)
@pytest.mark.parametrize("target", ["directory", "missing-parent"])
def test_unwritable_out_is_one_line_usage_error(tmp_path, capsys, argv, target):
    path = tmp_path if target == "directory" else tmp_path / "missing" / "r.jsonl"
    code, stdout, stderr = _run(capsys, *argv, "--out", str(path))
    assert code == 2
    lines = stderr.splitlines()
    assert len(lines) == 1 and lines[0].startswith(f"usage error: out: cannot write {path}")
    assert "{" not in stdout
    assert not (tmp_path / "missing").exists()

