from itertools import product

import numpy as np
import pytest

from qkr.analysis import p_corr
from qkr.ecc import CodeKind, CodeSpec, DecodeOutcome, make_code
from qkr.primitives import BitString, ProtocolParams, RandomSource

PARAMS_IDENTITY = ProtocolParams(n=40, ell=32, kappa=8, tag_bits=8, beta=0.125, q_bits=16)
PARAMS_REP3 = ProtocolParams(n=120, ell=32, kappa=8, tag_bits=8, beta=0.125, q_bits=16)
PARAMS_ORACLE = ProtocolParams(n=64, ell=32, kappa=8, tag_bits=8, beta=0.125, q_bits=16)


def test_spec_validation():
    with pytest.raises(ValueError):
        CodeSpec(k_in=10, n_out=8, t=0, kind=CodeKind.IDENTITY)
    with pytest.raises(ValueError):
        CodeSpec(k_in=8, n_out=8, t=1, kind=CodeKind.IDENTITY)
    with pytest.raises(ValueError):
        CodeSpec(k_in=8, n_out=20, t=2, kind=CodeKind.REPETITION3)
    with pytest.raises(ValueError):
        CodeSpec(k_in=8, n_out=24, t=13, kind=CodeKind.REPETITION3)
    assert make_code(CodeKind.ORACLE, PARAMS_ORACLE).spec.t == 8


def test_identity_code_examples():
    code = make_code(CodeKind.IDENTITY, PARAMS_IDENTITY)
    payload = RandomSource(1).bits(40)
    assert code.encode(payload) == payload
    assert code.decode(payload) == DecodeOutcome(payload)

    from qkr.ecc import IdentityCode

    toy = IdentityCode(CodeSpec(k_in=4, n_out=4, t=0, kind=CodeKind.IDENTITY))
    assert toy.encode(BitString.from_text("1011")) == BitString.from_text("1011")


def test_repetition3_layout_three_copies():
    spec = CodeSpec(k_in=2, n_out=6, t=0, kind=CodeKind.REPETITION3)
    from qkr.ecc import Repetition3Code

    code = Repetition3Code(spec)
    # codeword = payload || payload || payload, keeping the systematic prefix
    assert code.encode(BitString.from_text("10")) == BitString.from_text("101010")


@pytest.mark.parametrize("k_in", [1, 2, 3, 4])
def test_repetition3_corrects_one_flip_per_triple_exhaustively(k_in):
    spec = CodeSpec(k_in=k_in, n_out=3 * k_in, t=0, kind=CodeKind.REPETITION3)
    from qkr.ecc import Repetition3Code

    code = Repetition3Code(spec)
    for bits in product((0, 1), repeat=k_in):
        payload = BitString(bits)
        word = code.encode(payload)
        # for each position, flip any one of its three copies (or none)
        for choice in product((-1, 0, 1, 2), repeat=k_in):
            pattern = np.zeros(3 * k_in, dtype=np.uint8)
            for pos, copy in enumerate(choice):
                if copy >= 0:
                    pattern[copy * k_in + pos] = 1
            received = word ^ BitString(pattern)
            assert code.decode(received) == DecodeOutcome(payload)


def test_oracle_threshold_behavior():
    code = make_code(CodeKind.ORACLE, PARAMS_ORACLE)
    payload = RandomSource(2).bits(40)
    word = code.encode(payload)
    code.note_transmitted(word)
    t = code.spec.t
    flips = np.zeros(64, dtype=np.uint8)
    flips[: t + 1] = 1
    assert code.decode(word ^ BitString(flips)) == DecodeOutcome(None)
    flips[t] = 0
    assert code.decode(word ^ BitString(flips)) == DecodeOutcome(payload)


def test_oracle_requires_registered_codeword():
    code = make_code(CodeKind.ORACLE, PARAMS_ORACLE)
    with pytest.raises(RuntimeError):
        code.decode(BitString.zeros(64))


def test_encode_linearity_all_kinds():
    src = RandomSource(3).stream("lin")
    for kind, params in [
        (CodeKind.IDENTITY, PARAMS_IDENTITY),
        (CodeKind.REPETITION3, PARAMS_REP3),
        (CodeKind.ORACLE, PARAMS_ORACLE),
    ]:
        code = make_code(kind, params)
        for _ in range(50):
            a = src.bits(code.spec.k_in)
            b = src.bits(code.spec.k_in)
            assert code.encode(a ^ b) == code.encode(a) ^ code.encode(b)


def test_systematic_prefix_and_roundtrip_all_kinds():
    src = RandomSource(4).stream("sys")
    for kind, params in [
        (CodeKind.IDENTITY, PARAMS_IDENTITY),
        (CodeKind.REPETITION3, PARAMS_REP3),
        (CodeKind.ORACLE, PARAMS_ORACLE),
    ]:
        code = make_code(kind, params)
        for _ in range(1000):
            payload = src.bits(code.spec.k_in)
            word = code.encode(payload)
            assert word[: code.spec.k_in] == payload
            if kind is CodeKind.ORACLE:
                code.note_transmitted(word)
            assert code.decode(word) == DecodeOutcome(payload)


def test_length_contracts():
    code = make_code(CodeKind.ORACLE, PARAMS_ORACLE)
    with pytest.raises(ValueError):
        code.encode(BitString.zeros(10))
    with pytest.raises(ValueError):
        code.decode(BitString.zeros(10))


def test_oracle_success_rate_matches_p_corr():
    """Empirical bounded-distance success frequency over an iid flip channel
    agrees with the closed-form accept probability within 3 binomial sigma."""
    n, beta, gamma, trials = 64, 0.125, 0.05, 10_000
    code = make_code(CodeKind.ORACLE, PARAMS_ORACLE)
    src = RandomSource(5).stream("pcorr")
    payload = src.bits(code.spec.k_in)
    word = code.encode(payload)
    code.note_transmitted(word)
    successes = 0
    for _ in range(trials):
        pattern = BitString(src.bernoulli(gamma, n).astype(np.uint8))
        if code.decode(word ^ pattern).ok:
            successes += 1
    expected = p_corr(n, beta, gamma)
    sigma = np.sqrt(expected * (1 - expected) / trials)
    assert abs(successes / trials - expected) <= 3 * sigma
