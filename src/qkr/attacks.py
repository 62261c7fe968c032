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
R[z >> 60] ^ T[nibble]``, where R is `hashing.NIBBLE_REDUCTION[64]`. Both
lookups gather with `take` on int64 views of the shifted words. The
length block is one small constant for the whole batch, so its product with
the key starts at the table row of the length's top nibble and costs one
step per lower nibble: one step for the fuzz's 80-bit messages (0x50), not
16.

The fuzz holds its rows packed, eight bits to a byte: a round's 152-bit
codeword (mu 16, k' 64, tau 64, r 8) is 19 bytes, every field whole bytes,
drawn by `RandomSource.packed_bits` from the words `bit_array` would use.
Both MACs run on word blocks built from those bytes. The flips cost one
Philox word per bit, so they are drawn a slice of rows at a time rather
than 80 MB of words for a whole 65536-row chunk.

The tables are 4-bit, not 8-bit: a row's table is 128 bytes against 2 KB,
so a 12000-round fuzz holds 1.5 MB of tables against 24.6 MB, which would
dominate its peak memory: a 12000-round `qkr attack tamper_fuzz` peaks at
39 MB RSS, of which 32.5 MB is the interpreter with numpy and qkr imported
and 6.5 MB the arrays the fuzz allocates; the default 1M rounds peak at
59 MB (measured on x86-64 Linux, Python 3.11, numpy 2.4). A full 65536-row
chunk holds 8.4 MB of tables against 134 MB. The bit-serial multiply and
the shift-and-sum packer this replaced are the references in
``tests/oracles.py``, and the test suite also checks `mac64_words` against
the scalar MAC.
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
        table[i] = (half << 1) ^ _FOLD64.take((half >> 63).view(np.int64))
        table[i + 1] = table[i] ^ keys
    return table


def _table_mul_words(a: np.ndarray, table: np.ndarray) -> np.ndarray:
    """Row-wise a * key, given the keys' tables, one nibble of `a` per step
    from the top; uint64 shifts drop the bits that _FOLD64 folds back in.

    Every gather index is below 16 * rows, so it is read as an int64 view
    of the uint64 shift, which `take` uses as is; indexing with the uint64
    array would convert it first, about doubling the cost of each gather."""
    rows = len(a)
    flat = table.ravel()
    cols = np.arange(rows, dtype=np.int64)
    z = flat.take((a >> 60).view(np.int64) * rows + cols)
    for shift in range(56, -1, -4):
        nibbles = ((a >> shift) & 15).view(np.int64)
        z = (z << 4) ^ _FOLD64.take((z >> 60).view(np.int64)) ^ flat.take(nibbles * rows + cols)
    return z


def gf64_mul_words(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Elementwise GF(2^64) product of two uint64 arrays."""
    return _table_mul_words(a.astype(np.uint64, copy=False), _key_tables(b))


def _bytes_to_words(packed: np.ndarray) -> np.ndarray:
    """Rows of bytes as 64-bit words, the first byte highest, the last word
    zero-padded on the right."""
    rows, length = packed.shape
    padded = np.zeros((rows, -(-length // 8) * 8), dtype=np.uint8)
    padded[:, :length] = packed
    return padded.view(">u8").astype(np.uint64)


def pack_bits_to_words(bits: np.ndarray) -> np.ndarray:
    """Pack rows of bits into 64-bit words, leftmost bit highest, last word
    zero-padded on the right."""
    return _bytes_to_words(np.packbits(bits, axis=1))


def mac64_words(keys: np.ndarray, message_bits: np.ndarray) -> np.ndarray:
    """Row-wise polynomial MAC over GF(2^64): blocks plus a length block,
    evaluated by Horner's rule with each row's key table built once. Matches
    `hashing.mac_tag` bit for bit."""
    blocks = pack_bits_to_words(message_bits)
    return _mac64_tables(_key_tables(keys), blocks, message_bits.shape[1])


def _length_times_keys(length: int, table: np.ndarray) -> np.ndarray:
    """Row-wise length * key from the keys' tables: the row of the length's
    top nibble, then one nibble step per lower nibble, which xors in a table
    row only where the nibble is nonzero. A zero length is row 0, all zeros."""
    top = 4 * max(0, (length.bit_length() - 1) // 4)
    z = table[length >> top]
    for shift in range(top - 4, -1, -4):
        z = (z << 4) ^ _FOLD64.take((z >> 60).view(np.int64))
        nibble = (length >> shift) & 15
        if nibble:
            z ^= table[nibble]
    return z


def _mac64_tables(table: np.ndarray, blocks: np.ndarray, length: int) -> np.ndarray:
    """`mac64_words` for keys whose tables are already built, on a message
    of `length` bits given as its zero-padded word blocks."""
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

    Rows of the inputs are independent rounds: tag key words `xi`, then
    bit rows packed into uint8 bytes, most significant bit first (as
    `np.packbits(axis=1)` packs them): plaintext `mu`, next feedback key
    `k_prime` (8 bytes), padding `r`, mask `z`, and the adversary's wire
    flips. Every field is whole bytes. Returns the per-row verdicts and
    change flags. Both parties' tags use the same keys, so their tables
    are built once.
    """
    batch, mu_bytes = mu.shape
    tag_bytes = 8
    message_bytes = mu_bytes + tag_bytes
    table = _key_tables(xi)
    tagged = np.concatenate([mu, k_prime], axis=1)
    tau_words = _mac64_tables(table, _bytes_to_words(tagged), 8 * message_bytes)
    tau = tau_words.astype(">u8").view(np.uint8).reshape(batch, tag_bytes)
    codeword = np.concatenate([tagged, tau, r], axis=1)

    wire = codeword ^ z
    unmasked = (wire ^ flips) ^ z

    message_hat = unmasked[:, :message_bytes]
    tau_hat = unmasked[:, message_bytes : message_bytes + tag_bytes]
    check = _mac64_tables(table, _bytes_to_words(message_hat), 8 * message_bytes)
    omega = check == _bytes_to_words(tau_hat)[:, 0]

    message_changed = np.any(message_hat != tagged, axis=1)
    plaintext_changed = np.any(message_hat[:, :mu_bytes] != mu, axis=1)
    return {
        "omega": omega,
        "message_changed": message_changed,
        "plaintext_changed": plaintext_changed,
    }


# Plaintext and padding bits of a tamper round, the most rounds drawn and
# checked as one batch, and the rows of flips drawn at a time within one:
# a flip costs a Philox word, so a whole chunk's would be 80 MB.
_FUZZ_MU_BITS = 16
_FUZZ_KAPPA = 8
_FUZZ_CHUNK = 1 << 16
_FLIP_ROWS = 2048


def _packed_flips(src: RandomSource, flip_rate: float, rows: int, n: int) -> np.ndarray:
    """`np.packbits(src.bernoulli(flip_rate, rows * n).reshape(rows, n),
    axis=1)`, drawn `_FLIP_ROWS` rows at a time."""
    flips = np.empty((rows, -(-n // 8)), dtype=np.uint8)
    for start in range(0, rows, _FLIP_ROWS):
        stop = min(start + _FLIP_ROWS, rows)
        drawn = src.bernoulli(flip_rate, (stop - start) * n).reshape(stop - start, n)
        flips[start:stop] = np.packbits(drawn, axis=1)
    return flips


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
        mu = src.packed_bits(batch * mu_bits).reshape(batch, mu_bits // 8)
        k_prime = src.packed_bits(batch * tag_bits).reshape(batch, tag_bits // 8)
        r = src.packed_bits(batch * kappa).reshape(batch, kappa // 8)
        z = src.packed_bits(batch * n).reshape(batch, n // 8)
        flips = _packed_flips(src, flip_rate, batch, n)

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
