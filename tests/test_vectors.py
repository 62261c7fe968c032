"""Frozen regression vectors: hashing outputs and one recorded encryption
round. Any change to stream derivation, flattening, field arithmetic, or the
round pipeline shows up here as a byte-level mismatch."""

import json
import pathlib

import pytest

from qkr.ecc import CodeKind, make_code
from qkr.hashing import MacKey, ToeplitzSeed, hash_F, hash_G, mac_tag
from qkr.primitives import BasisString, BitString, Encoding, ProtocolParams, RandomSource
from qkr.protocol import KeyState, alice_encrypt

from oracles import polynomial_mac_bitserial

DATA = pathlib.Path(__file__).parent / "data"


def _vectors():
    with open(DATA / "hash_vectors.jsonl") as fh:
        return [json.loads(line) for line in fh]


def _hex_bits(text, length):
    return BitString.from_int(int(text, 16), length)


def _seed(data):
    """A vector's Toeplitz seed through the validating constructor: GF(2)
    parts are hex, GF(3) parts digits."""
    modulus, in_len, out_len = data["modulus"], data["in_len"], data["out_len"]

    def part(text, length):
        return _hex_bits(text, length).bits if modulus == 2 else [int(c) for c in text]

    diagonal = part(data["diagonal"], in_len + out_len - 1)
    seed = ToeplitzSeed(modulus, diagonal, part(data["offset"], out_len))
    assert (seed.in_len, seed.out_len) == (in_len, out_len)
    return seed


@pytest.mark.parametrize(
    "vector", _vectors(), ids=lambda v: f"{v['op']}-{v.get('n', v.get('tag_bits'))}"
)
def test_hash_vectors(vector):
    if vector["op"] == "hash_F":
        u = (_seed(vector["seed_mask"]), _seed(vector["seed_basis"]))
        x = _hex_bits(vector["x"], vector["n"])
        b = BasisString.from_text(vector["b"], vector["alphabet_size"])
        r = _hex_bits(vector["r"], vector["kappa"])
        new_z, new_b = hash_F(u, x, b, r)
        assert new_z.to_hex() == vector["expect_z"]
        assert new_b.to_text() == vector["expect_b"]
    elif vector["op"] == "hash_G":
        v = _seed(vector["seed"])
        b = BasisString.from_text(vector["b"], vector["alphabet_size"])
        q = _hex_bits(vector["q"], vector["q_bits"])
        assert hash_G(v, b, q).to_text() == vector["expect_b"]
    else:
        key = MacKey(_hex_bits(vector["key"], vector["tag_bits"]))
        msg = _hex_bits(vector["message"], vector["message_bits"])
        assert mac_tag(key, msg).to_hex() == vector["expect_tag"]


def test_bitserial_oracle_mac_reproduces_golden_tags():
    """The oracle the table multiply is checked against is itself pinned to
    the golden MAC entries."""
    macs = [v for v in _vectors() if v["op"] == "mac"]
    assert macs
    for vector in macs:
        bits = _hex_bits(vector["message"], vector["message_bits"]).bits
        key = int(vector["key"], 16)
        tag = polynomial_mac_bitserial(key, bits, vector["tag_bits"])
        assert BitString.from_int(tag, vector["tag_bits"]).to_hex() == vector["expect_tag"]


def test_golden_encryption_round():
    golden = json.loads((DATA / "round_golden.json").read_text())
    p = golden["params"]
    params = ProtocolParams(
        n=p["n"],
        ell=p["ell"],
        kappa=p["kappa"],
        tag_bits=p["tag_bits"],
        beta=p["beta"],
        encoding=Encoding(p["encoding"]),
        q_bits=p["q_bits"],
    )
    master = RandomSource(golden["seed"])
    keys = KeyState.random(params, master.stream("keys"))
    code = make_code(CodeKind.ORACLE, params)
    mu = master.stream("messages").bits(params.mu_bits)
    qubits, secrets = alice_encrypt(params, keys, mu, master.stream("alice"), code)

    assert mu.to_hex() == golden["mu"]
    assert qubits.basis.to_text() == golden["bases"]
    assert qubits.payload.to_hex() == golden["payloads"]
    assert secrets.c.to_hex() == golden["codeword"]
    assert secrets.tau.to_hex() == golden["tau"]
    assert secrets.r.to_hex() == golden["r"]
    assert secrets.k_prime.to_hex() == golden["k_prime"]
