import numpy as np
import pytest

from qkr.primitives import BasisString, BitString, RandomSource
from qkr.qsim import ChannelKind, ChannelModel, QubitSequence, apply_error_pattern, transmit

from density import BELL_BASIS, DensityMatrix, pauli_twirl, trace_distance


def _random_qubits(seed, n, alphabet=3):
    src = RandomSource(seed).stream("qubits")
    qubits = QubitSequence.prepare(
        BasisString(src.integers_below(alphabet, n), alphabet), BitString(src.bit_array(n))
    )
    return qubits, src


# ---------------------------------------------------------------------------
# Channels


def test_gamma_zero_is_identity():
    qubits, src = _random_qubits(1, 500)
    out = transmit(ChannelModel(ChannelKind.IID_FLIP, gamma=0.0), qubits, src)
    assert np.array_equal(out.payloads, qubits.payloads)
    assert np.array_equal(out.bases, qubits.bases)


def test_gamma_one_flips_everything():
    qubits, src = _random_qubits(2, 500)
    out = transmit(ChannelModel(ChannelKind.IID_FLIP, gamma=1.0), qubits, src)
    assert np.array_equal(out.payloads, 1 - qubits.payloads)


@pytest.mark.parametrize("gamma", [0.01, 0.05, 0.11])
def test_iid_flip_rate_within_3_sigma(gamma):
    n = 100_000
    qubits, src = _random_qubits(3, n)
    out = transmit(ChannelModel(ChannelKind.IID_FLIP, gamma=gamma), qubits, src)
    flips = int(np.sum(out.payloads != qubits.payloads))
    sigma = np.sqrt(n * gamma * (1 - gamma))
    assert abs(flips - n * gamma) <= 3 * sigma


def test_transmit_preserves_length_and_bases():
    for kind, kwargs in [
        (ChannelKind.IID_FLIP, {"gamma": 0.3}),
        (ChannelKind.INTERCEPT_RESEND, {"eta": 0.7}),
    ]:
        qubits, src = _random_qubits(4, 1000)
        out = transmit(ChannelModel(kind, **kwargs), qubits, src)
        assert len(out) == len(qubits)
        assert np.array_equal(out.bases, qubits.bases)


@pytest.mark.parametrize(
    "alphabet,expected", [(2, 0.25), (3, 1.0 / 3.0)]
)
def test_intercept_resend_full_attack_error_rate(alphabet, expected):
    n = 100_000
    qubits, src = _random_qubits(5, n, alphabet)
    out = transmit(ChannelModel(ChannelKind.INTERCEPT_RESEND, eta=1.0), qubits, src)
    errors = int(np.sum(out.payloads != qubits.payloads))
    sigma = np.sqrt(n * expected * (1 - expected))
    assert abs(errors - n * expected) <= 3 * sigma


def test_eta_zero_attack_is_identity():
    qubits, src = _random_qubits(6, 400)
    out = transmit(ChannelModel(ChannelKind.INTERCEPT_RESEND, eta=0.0), qubits, src)
    assert np.array_equal(out.payloads, qubits.payloads)


def test_channel_model_validation():
    with pytest.raises(ValueError):
        ChannelModel(ChannelKind.IID_FLIP, gamma=1.5)
    with pytest.raises(ValueError):
        ChannelModel(ChannelKind.INTERCEPT_RESEND, eta=-0.1)


def test_apply_error_pattern_flips_exactly():
    qubits, _ = _random_qubits(7, 32)
    pattern = BitString([1 if i % 5 == 0 else 0 for i in range(32)])
    out = apply_error_pattern(qubits, pattern)
    assert np.array_equal(np.bitwise_xor(out.payloads, qubits.payloads), pattern.bits)


# ---------------------------------------------------------------------------
# Density matrices (the engine is tests/density.py)


def _ket(*amps):
    return np.array(amps, dtype=complex)


SINGLET = DensityMatrix.pure(_ket(0, 1, -1, 0))


def test_density_matrix_validation():
    with pytest.raises(ValueError):
        DensityMatrix(np.array([[1, 0.5], [0.1, 0]]))  # not Hermitian
    with pytest.raises(ValueError):
        DensityMatrix(np.eye(2))  # trace 2
    with pytest.raises(ValueError):
        DensityMatrix(np.diag([1.5, -0.5]))  # negative eigenvalue
    with pytest.raises(ValueError):
        DensityMatrix(np.eye(3) / 3)  # dimension


def test_trace_distance_examples():
    zero = DensityMatrix.pure(_ket(1, 0))
    one = DensityMatrix.pure(_ket(0, 1))
    mixed = DensityMatrix(np.eye(2) / 2)
    assert trace_distance(zero, zero) == pytest.approx(0.0, abs=1e-13)
    assert trace_distance(zero, one) == pytest.approx(1.0, abs=1e-12)
    assert trace_distance(zero, mixed) == pytest.approx(0.5, abs=1e-12)
    with pytest.raises(ValueError):
        trace_distance(zero, SINGLET)


def test_trace_distance_is_a_metric_on_samples():
    src = RandomSource(10).stream("metric")
    for _ in range(30):
        a = DensityMatrix.random(src, 4)
        b = DensityMatrix.random(src, 4)
        c = DensityMatrix.random(src, 4)
        dab = trace_distance(a, b)
        assert dab == pytest.approx(trace_distance(b, a), abs=1e-12)
        assert 0.0 <= dab <= 1.0
        assert dab <= trace_distance(a, c) + trace_distance(c, b) + 1e-12


def _bell_offdiagonal_mass(rho):
    in_bell = BELL_BASIS.conj().T @ rho.entries @ BELL_BASIS
    return np.max(np.abs(in_bell - np.diag(np.diag(in_bell))))


def test_twirl_fixed_points():
    mixed = DensityMatrix(np.eye(4) / 4)
    assert np.allclose(pauli_twirl(mixed).entries, mixed.entries, atol=1e-14)
    twirled_singlet = pauli_twirl(SINGLET)
    assert np.allclose(twirled_singlet.entries, SINGLET.entries, atol=1e-12)


def test_twirl_random_states_bell_diagonal_idempotent():
    src = RandomSource(11).stream("twirl")
    for _ in range(100):
        rho = DensityMatrix.random(src, 4)
        twirled = pauli_twirl(rho)
        assert _bell_offdiagonal_mass(twirled) < 1e-12
        assert abs(np.trace(twirled.entries).real - 1.0) < 1e-12
        again = pauli_twirl(twirled)
        assert np.max(np.abs(again.entries - twirled.entries)) < 1e-12
        # positivity is enforced by the DensityMatrix constructor itself
        assert np.linalg.eigvalsh(twirled.entries)[0] > -1e-10


def test_twirl_commutes_with_every_symmetric_pauli_pair():
    from density import PAULIS

    src = RandomSource(12).stream("comm")
    rho = pauli_twirl(DensityMatrix.random(src, 4))
    for sigma in PAULIS:
        op = np.kron(sigma, sigma)
        assert np.allclose(op @ rho.entries, rho.entries @ op, atol=1e-12)


def test_twirl_rejects_single_qubit_state():
    with pytest.raises(ValueError):
        pauli_twirl(DensityMatrix(np.eye(2) / 2))
