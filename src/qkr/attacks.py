"""Adversary experiments: intercept-resend statistics and tamper fuzzing.

The tamper fuzz measures MAC substitution resistance end to end: an
adversary flips wire bits, decoding hands the receiver a modified message,
and a false accept requires the modified message to carry a valid tag. Each
fuzz round uses fresh independent keys (the per-round forgery probability
does not depend on key evolution), which lets the whole batch run as
vectorized uint64 word arithmetic.

A fuzz round is a protocol round over the identity code at `_FUZZ_PARAMS`,
a 152-bit codeword `mu || k' || tau || r`. Bob unmasks `codeword ^ z ^
flips ^ z`: the mask z cancels and the padding r is never read. The MAC
is a polynomial evaluation, so the tags of two messages of equal length
differ by the error polynomial E(xi) = sum e_i * xi^i over the blocks of
their xor, the length block cancelling. Bob therefore accepts exactly when
E(xi) of the message flips equals the tag's flips, and `fuzz_batch` reads
nothing but the keys and the flips: neither the message nor Alice's tag is
computed. Rows are packed eight bits to a byte, every field whole bytes,
and E runs on uint64 words through `hashing`'s row multiply. `tamper_fuzz`
skips the Philox words of mu, k', r and z without computing them, so that
the flips come from the same words as a full round's. It then splits each
batch's rows at the middle (see `RandomSource._split`): the calling thread
takes the first half and a worker thread the second, from a copy of the
stream set ahead by the first half's flips. Each half draws its rows'
flips about `_FILL_WORDS` words at a time, compares and packs each chunk
as soon as it is computed (a flip costs one word, so a whole 65536-row
batch's words would be 80 MB), and counts its rows' verdicts; the two
halves' counts are summed. The worker calls none of the public functions
of this module or of `RandomSource`: the benchmark's tracer wraps those,
and keeps one span stack per process. The one-thread driver that drew
2048-row `bernoulli` slices and checked each batch with one `fuzz_batch`,
and the kernel that computed Alice's tag and Bob's check, are references
in ``tests/oracles.py``.
"""

from __future__ import annotations

import numpy as np

from .hashing import bytes_to_words, gf64_key_tables, gf64_mul_rows, nonzero_key_words
from .primitives import _FILL_WORDS, Encoding, ProtocolParams, RandomSource, _below
from .qsim import ChannelKind, ChannelModel, _channel

__all__ = [
    "gf64_mul_words",
    "pack_bits_to_words",
    "fuzz_batch",
    "tamper_fuzz",
    "intercept_resend_report",
    "expected_intercept_error_rate",
]


def gf64_mul_words(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Elementwise GF(2^64) product of two uint64 arrays."""
    return gf64_mul_rows(a.astype(np.uint64, copy=False), gf64_key_tables(b))


def pack_bits_to_words(bits: np.ndarray) -> np.ndarray:
    """Pack rows of bits into 64-bit words, leftmost bit highest, last word
    zero-padded on the right."""
    return bytes_to_words(np.packbits(bits, axis=1))


# The sizes of a tamper round, and the most rounds drawn and checked as one
# batch.
_FUZZ_PARAMS = ProtocolParams(n=152, ell=144, kappa=8, tag_bits=64, beta=0.0)
_FUZZ_CHUNK = 1 << 16

# Byte offsets of a packed codeword row: mu, then k', then the tag.
_MU_BYTES = _FUZZ_PARAMS.mu_bits // 8
_MESSAGE_BYTES = _MU_BYTES + _FUZZ_PARAMS.tag_bits // 8
_TAG_END = _MESSAGE_BYTES + _FUZZ_PARAMS.tag_bits // 8


def _error_polynomial(table: np.ndarray, packed: np.ndarray) -> np.ndarray:
    """Row-wise E(key) = sum e_i * key^i over the 64-bit blocks of the
    packed message flips, given the keys' tables: the MAC's Horner rule
    without its length block, which cancels between messages of equal
    length. So ``mac_tag(m ^ e) == mac_tag(m) ^ E``."""
    acc = np.zeros(len(packed), dtype=np.uint64)
    for block in reversed(bytes_to_words(packed).T):
        acc = gf64_mul_rows(acc ^ block, table)
    return acc


def fuzz_batch(xi: np.ndarray, flips: np.ndarray) -> dict:
    """One vectorized batch of tamper rounds over the identity code.

    Rows are independent rounds: tag key words `xi`, and the adversary's
    wire flips over the whole codeword as uint8 rows packed most
    significant bit first (as `np.packbits(axis=1)` packs them). Bob
    accepts exactly when his tag of the flipped message equals the flipped
    tag, that is when the flips' error polynomial equals the tag's flips,
    so neither the message nor Alice's tag is an input. Returns the per-row
    verdicts and change flags.
    """
    omega, message_changed, plaintext_changed = _verdicts(xi, flips)
    return {
        "omega": omega,
        "message_changed": message_changed,
        "plaintext_changed": plaintext_changed,
    }


def _verdicts(xi: np.ndarray, flips: np.ndarray) -> tuple:
    """`fuzz_batch`'s kernel: the rows' verdicts, and whether their flips
    change the message and the plaintext."""
    message_flips = flips[:, :_MESSAGE_BYTES]
    error = _error_polynomial(gf64_key_tables(xi), message_flips)
    omega = error == bytes_to_words(flips[:, _MESSAGE_BYTES:_TAG_END])[:, 0]
    # One OR per byte column: numpy reduces a row of a few bytes slowly.
    changed = np.zeros(len(flips), dtype=np.uint8)
    for column in message_flips[:, :_MU_BYTES].T:
        changed |= column
    plaintext_changed = changed != 0
    for column in message_flips[:, _MU_BYTES:].T:
        changed |= column
    return omega, changed != 0, plaintext_changed


def _packed_flips(gen: np.random.Philox, p: float, rows: int, n: int) -> np.ndarray:
    """`np.packbits(bernoulli(p, rows * n).reshape(rows, n), axis=1)` for
    the `RandomSource` whose generator is `gen`, drawn and packed a chunk of
    whole rows at a time, about `_FILL_WORDS` words and at least one row:
    no more than one chunk's words and unpacked flips is held."""
    flips = np.empty((rows, -(-n // 8)), dtype=np.uint8)
    step = max(1, _FILL_WORDS // n)
    for start in range(0, rows, step):
        stop = min(start + step, rows)
        words = gen.random_raw((stop - start) * n).reshape(stop - start, n)
        flips[start:stop] = np.packbits(_below(words, p), axis=1)
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
    params = _FUZZ_PARAMS
    mu_bits, tag_bits, n = params.mu_bits, params.tag_bits, params.n
    field_bits = (mu_bits, tag_bits, params.kappa, n)
    src = RandomSource(seed).stream("tamper_fuzz")

    # False accepts, forgeries, accepts and attempts.
    counts = np.zeros(4, dtype=np.int64)
    done = 0
    while done < rounds:
        batch = min(_FUZZ_CHUNK, rounds - done)
        xi = nonzero_key_words(src.raw_words(batch))
        # The words of mu, k', r and z, which Bob's check never reads:
        # skipped so that the flips come from the same words as a full round's.
        src.skip(sum(-(-batch * bits // 64) for bits in field_bits))

        def rows_counts(gen, start, stop):
            flips = _packed_flips(gen, flip_rate, stop - start, n)
            omega, message_changed, plaintext_changed = _verdicts(xi[start:stop], flips)
            return np.count_nonzero(
                [omega & plaintext_changed, omega & message_changed, omega, message_changed],
                axis=1,
            )

        for half in src._split(batch, batch // 2, rows_counts, width=n):
            counts += half
        done += batch

    false_accepts, forgeries, accepts, attempts = counts.tolist()
    return {
        "kind": "tamper_fuzz",
        "rounds": rounds,
        "tag_bits": tag_bits,
        "mu_bits": mu_bits,
        "kappa": params.kappa,
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


def intercept_resend_report(encoding: Encoding, eta: float, num_qubits: int, seed: int) -> dict:
    """Measure the payload error rate that measure-and-resend at rate `eta`
    induces over `num_qubits` random qubits."""
    src = RandomSource(seed).stream("intercept")
    alphabet = encoding.alphabet_size
    bases = src.integers_below(alphabet, num_qubits)
    payloads = src.bit_array(num_qubits)
    channel = ChannelModel(ChannelKind.INTERCEPT_RESEND, eta=eta)
    received = _channel(channel, bases, alphabet, payloads, src.stream("channel"))
    errors = int(np.count_nonzero(received != payloads))
    return {
        "kind": "intercept_resend",
        "encoding": encoding.value,
        "eta": eta,
        "qubits": num_qubits,
        "errors": errors,
        "induced_error_rate": errors / num_qubits,
        "expected_error_rate": expected_intercept_error_rate(eta, encoding),
        "seed": seed,
    }
