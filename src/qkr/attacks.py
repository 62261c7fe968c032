"""Adversary experiments: intercept-resend statistics and tamper fuzzing.

The tamper fuzz measures MAC substitution resistance end to end: an
adversary flips wire bits, decoding hands the receiver a modified message,
and a false accept requires the modified message to carry a valid tag. Each
fuzz round uses fresh independent keys (the per-round forgery probability
does not depend on key evolution), which lets the whole batch run as
vectorized uint64 word arithmetic.

`mac64_words` is the polynomial MAC of `hashing` over GF(2^64), one key per
row, by the same method: the keys' 4-bit tables ``T[v] = key * v`` are built
once as a (16, rows) uint64 array (seven doublings and seven xors), and
each Horner step multiplies by the key in 16 nibble steps ``z = (z << 4) ^
R[z >> 60] ^ T[nibble]``, where R is `hashing.NIBBLE_REDUCTION[64]`. The
length block is one small constant for the whole batch, so its product with
the key starts at the table row of the length's top nibble and costs one
step per lower nibble: one step for the fuzz's 80-bit messages (0x50), not
16. The tables are 4-bit, not 8-bit: a row's table is 128 bytes against
2 KB, so a 12000-round fuzz holds 1.5 MB of tables against 24.6 MB, which
would dominate its peak memory: a 12000-round `qkr attack tamper_fuzz`
peaks at 53 MB RSS, of which 32 MB is the interpreter with numpy and qkr
imported and 19 MB the arrays the fuzz allocates (measured on x86-64 Linux,
Python 3.11, numpy 2.4). A full 65536-row chunk holds 8.4 MB of tables
against 134 MB. The bit-serial multiply and the shift-and-sum packer this
replaced are the references in ``tests/oracles.py``, and the test suite also
checks `mac64_words` against the scalar MAC.
"""

from __future__ import annotations

import numpy as np

from .ecc import CodeKind
from .hashing import NIBBLE_REDUCTION
from .primitives import BitString, Encoding, ProtocolParams, RandomSource
from .protocol import run_session
from .qsim import ChannelKind, ChannelModel, QubitSequence, transmit

__all__ = [
    "gf64_mul_words",
    "pack_bits_to_words",
    "mac64_words",
    "fuzz_batch",
    "tamper_fuzz",
    "intercept_resend_report",
    "expected_intercept_error_rate",
]

_FOLD64 = np.array(NIBBLE_REDUCTION[64], dtype=np.uint64)


def _key_tables(keys: np.ndarray) -> np.ndarray:
    """Row-wise tables key * v for v = 0..15, as a (16, rows) uint64 array:
    T[2i] = x * T[i] and T[2i+1] = T[2i] + key."""
    keys = keys.astype(np.uint64, copy=False)
    table = np.zeros((16, len(keys)), dtype=np.uint64)
    table[1] = keys
    for i in range(2, 16, 2):
        half = table[i // 2]
        # _FOLD64[1] is the low terms, which the bit shifted out reduces to.
        table[i] = (half << 1) ^ _FOLD64[half >> 63]
        table[i + 1] = table[i] ^ keys
    return table


def _table_mul_words(a: np.ndarray, table: np.ndarray) -> np.ndarray:
    """Row-wise a * key, given the keys' tables, one nibble of `a` per step
    from the top; uint64 shifts drop the bits that _FOLD64 folds back in."""
    rows = len(a)
    flat = table.ravel()
    cols = np.arange(rows, dtype=np.uint64)
    z = flat[(a >> 60) * rows + cols]
    for shift in range(56, -1, -4):
        z = (z << 4) ^ _FOLD64[z >> 60] ^ flat[((a >> shift) & 15) * rows + cols]
    return z


def gf64_mul_words(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Elementwise GF(2^64) product of two uint64 arrays."""
    return _table_mul_words(a.astype(np.uint64, copy=False), _key_tables(b))


def pack_bits_to_words(bits: np.ndarray) -> np.ndarray:
    """Pack rows of bits into 64-bit words, leftmost bit highest, last word
    zero-padded on the right."""
    rows, length = bits.shape
    words = (length + 63) // 64
    padded = np.zeros((rows, words * 64), dtype=np.uint8)
    padded[:, :length] = bits
    return np.packbits(padded, axis=1).view(">u8").astype(np.uint64)


def mac64_words(keys: np.ndarray, message_bits: np.ndarray) -> np.ndarray:
    """Row-wise polynomial MAC over GF(2^64): blocks plus a length block,
    evaluated by Horner's rule with each row's key table built once. Matches
    `hashing.mac_tag` bit for bit."""
    return _mac64_tables(_key_tables(keys), message_bits)


def _length_times_keys(length: int, table: np.ndarray) -> np.ndarray:
    """Row-wise length * key from the keys' tables: the row of the length's
    top nibble, then one nibble step per lower nibble, which xors in a table
    row only where the nibble is nonzero. A zero length is row 0, all zeros."""
    top = 4 * max(0, (length.bit_length() - 1) // 4)
    z = table[length >> top]
    for shift in range(top - 4, -1, -4):
        z = (z << 4) ^ _FOLD64[z >> 60]
        nibble = (length >> shift) & 15
        if nibble:
            z ^= table[nibble]
    return z


def _mac64_tables(table: np.ndarray, message_bits: np.ndarray) -> np.ndarray:
    """`mac64_words` for keys whose tables are already built."""
    length = message_bits.shape[1]
    blocks = pack_bits_to_words(message_bits)
    acc = _length_times_keys(length, table)
    for j in range(blocks.shape[1] - 1, -1, -1):
        acc = _table_mul_words(blocks[:, j] ^ acc, table)
    return acc


def _nonzero_words(src: RandomSource, count: int) -> np.ndarray:
    words = src.raw_words(count)
    return np.where(words == 0, np.uint64(0xFFFFFFFFFFFFFFFF), words)


def fuzz_batch(
    xi: np.ndarray,
    mu: np.ndarray,
    k_prime: np.ndarray,
    r: np.ndarray,
    z: np.ndarray,
    flips: np.ndarray,
) -> dict:
    """One vectorized batch of tamper rounds over the identity code.

    Rows of the inputs are independent rounds: tag key words `xi`, plaintext
    bits `mu`, next-feedback-key bits `k_prime` (64 columns), padding bits
    `r`, mask bits `z`, and the adversary's wire flips. Returns the per-row
    verdicts and change flags. Both parties' tags use the same keys, so their
    tables are built once.
    """
    batch, mu_bits = mu.shape
    tag_bits = 64
    ell = mu_bits + 2 * tag_bits
    table = _key_tables(xi)
    tagged = np.concatenate([mu, k_prime], axis=1)
    tau_words = _mac64_tables(table, tagged)
    tau = np.unpackbits(tau_words.astype(">u8").view(np.uint8)).reshape(batch, tag_bits)
    codeword = np.concatenate([tagged, tau, r], axis=1)

    wire = codeword ^ z
    unmasked = (wire ^ flips) ^ z

    mu_hat = unmasked[:, :mu_bits]
    k_hat = unmasked[:, mu_bits : mu_bits + tag_bits]
    tau_hat = unmasked[:, mu_bits + tag_bits : ell]
    check = _mac64_tables(table, unmasked[:, : mu_bits + tag_bits])
    omega = check == pack_bits_to_words(tau_hat)[:, 0]

    message_changed = np.any(np.concatenate([mu_hat, k_hat], axis=1) != tagged, axis=1)
    plaintext_changed = np.any(mu_hat != mu, axis=1)
    return {
        "omega": omega,
        "message_changed": message_changed,
        "plaintext_changed": plaintext_changed,
    }


# Plaintext and padding bits of a tamper round, and the most rounds drawn
# and checked as one batch.
_FUZZ_MU_BITS = 16
_FUZZ_KAPPA = 8
_FUZZ_CHUNK = 1 << 16


def tamper_fuzz(rounds: int, seed: int, flip_rate: float = 0.3) -> dict:
    """Run `rounds` independent tamper rounds and count false accepts (tag
    verifies but the recovered plaintext differs).

    A round sends a fixed-size plaintext and padding over the identity code,
    and the adversary flips each wire bit with probability `flip_rate`. Each
    round draws fresh keys, so the rounds run in vectorized batches; the
    per-round false-accept probability is key-evolution independent.
    """
    if rounds < 1:
        raise ValueError("rounds must be positive")
    tag_bits = 64
    mu_bits, kappa = _FUZZ_MU_BITS, _FUZZ_KAPPA
    n = mu_bits + 2 * tag_bits + kappa
    src = RandomSource(seed).stream("tamper_fuzz")

    false_accepts = 0
    forgeries = 0
    accepts = 0
    attempts = 0
    done = 0
    while done < rounds:
        batch = min(_FUZZ_CHUNK, rounds - done)
        xi = _nonzero_words(src, batch)
        mu = src.bit_array(batch * mu_bits).reshape(batch, mu_bits)
        k_prime = src.bit_array(batch * tag_bits).reshape(batch, tag_bits)
        r = src.bit_array(batch * kappa).reshape(batch, kappa)
        z = src.bit_array(batch * n).reshape(batch, n)
        flips = src.bernoulli(flip_rate, batch * n).reshape(batch, n).view(np.uint8)

        out = fuzz_batch(xi, mu, k_prime, r, z, flips)
        false_accepts += int(np.sum(out["omega"] & out["plaintext_changed"]))
        forgeries += int(np.sum(out["omega"] & out["message_changed"]))
        accepts += int(np.sum(out["omega"]))
        attempts += int(np.sum(out["message_changed"]))
        done += batch

    return {
        "kind": "tamper_fuzz",
        "rounds": rounds,
        "tag_bits": tag_bits,
        "mu_bits": mu_bits,
        "kappa": kappa,
        "codeword_bits": n,
        "flip_rate": flip_rate,
        "forgery_attempts": attempts,
        "accepts": accepts,
        "false_accepts": false_accepts,
        "successful_forgeries": forgeries,
        "seed": seed,
    }


def expected_intercept_error_rate(eta: float, encoding: Encoding) -> float:
    """Analytic payload error rate induced by measure-and-resend at rate eta:
    the attacked qubit errs only when the adversary's basis differs (prob
    1 - 1/|B|) and the receiver's coin then lands wrong (prob 1/2)."""
    return eta * (1.0 - 1.0 / encoding.alphabet_size) / 2.0


def intercept_resend_report(
    encoding: Encoding,
    eta: float,
    num_qubits: int,
    seed: int,
    params: ProtocolParams | None = None,
    code_kind: CodeKind = CodeKind.ORACLE,
    session_rounds: int = 0,
) -> dict:
    """Measure the induced payload error rate over `num_qubits` random
    qubits, and optionally the reject rate of a session run under the same
    attack."""
    src = RandomSource(seed).stream("intercept")
    bases = src.basis_string(encoding.alphabet_size, num_qubits)
    payloads = src.bits(num_qubits)
    qubits = QubitSequence.prepare(bases, payloads)
    channel = ChannelModel(ChannelKind.INTERCEPT_RESEND, eta=eta)
    received = transmit(channel, qubits, src.stream("channel"))
    errors = int(np.sum(received.payloads != qubits.payloads))

    report = {
        "kind": "intercept_resend",
        "encoding": encoding.value,
        "eta": eta,
        "qubits": num_qubits,
        "errors": errors,
        "induced_error_rate": errors / num_qubits,
        "expected_error_rate": expected_intercept_error_rate(eta, encoding),
        "seed": seed,
    }
    if session_rounds > 0:
        if params is None:
            raise ValueError("session_rounds > 0 requires protocol params")
        session = run_session(params, channel, code_kind, session_rounds, seed)
        report["session_rounds"] = session_rounds
        report["session_reject_rate"] = 1.0 - session.summary.accept_rate
    return report
