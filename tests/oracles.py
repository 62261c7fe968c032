"""Independent oracles used by the test suite.

Deliberately separate implementations: exhaustive enumerations, literal
definitions, and high-precision arithmetic via mpmath. Tests compare the
production code against these, never the other way around.
"""

from __future__ import annotations

import math

import mpmath as mp
import numpy as np


def p_corr_enumeration(n: int, beta: float, gamma: float) -> float:
    """Decode-success probability by summing the weight of every one of the
    2^n error patterns whose Hamming weight is within the correction radius."""
    t = math.floor(n * beta)
    total = 0.0
    for pattern in range(1 << n):
        w = bin(pattern).count("1")
        if w <= t:
            total += gamma**w * (1.0 - gamma) ** (n - w)
    return total


def entropy_literal(probabilities) -> float:
    """Sum p_i log2(1/p_i) written out directly."""
    return math.fsum(p * math.log2(1.0 / p) for p in probabilities if p > 0.0)


def reject_expenditure_closed_form(n: int, tag_bits: int, alpha: float) -> float:
    """Closed-form expenditure n - 1 + 30*log2(n+1) + lambda + 2*alpha used
    for sizing comparisons."""
    return n - 1 + 30.0 * math.log2(n + 1) + tag_bits + 2.0 * alpha


def rate_zero_by_grid_scan(step: float = 1e-5) -> float:
    """Locate the rate's sign change by a dense scan; returns the midpoint of
    the bracketing interval."""
    from qkr.analysis import asymptotic_rate_6state

    g = 0.0
    prev = asymptotic_rate_6state(g)
    while g < 0.5:
        g_next = g + step
        value = asymptotic_rate_6state(g_next)
        if prev > 0.0 >= value:
            return g + 0.5 * step
        g, prev = g_next, value
    raise RuntimeError("no sign change found")


def _h_mp(p):
    if p == 0 or p == 1:
        return mp.mpf(0)
    p = mp.mpf(p)
    return -(p * mp.log(p, 2) + (1 - p) * mp.log(1 - p, 2))


def _h4_mp(gamma):
    g = mp.mpf(gamma)
    probs = [1 - 3 * g / 2, g / 2, g / 2, g / 2]
    return -mp.fsum(p * mp.log(p, 2) for p in probs if p > 0)


def _p_corr_mp(n, beta, gamma):
    t = math.floor(n * beta)
    if gamma == 0:
        return mp.mpf(1)
    g = mp.mpf(gamma)
    return mp.fsum(mp.binomial(n, c) * g**c * (1 - g) ** (n - c) for c in range(t + 1))


def diamond_bound_log2_mp(alpha, tag_bits, n, kappa, gamma, beta, q_bits, dps=60):
    """High-precision recomputation of the distinguishability bound, done in
    plain linear arithmetic; returns log2 of the total."""
    with mp.workdps(dps):
        tag = mp.mpf(2) ** (1 - tag_bits)
        post = mp.mpf(n + 1) ** 15
        reject = post / (2 * mp.sqrt(mp.mpf(2) ** q_bits))
        exponent = (-mp.mpf(kappa) + n * _h4_mp(gamma) - n * _h_mp(gamma)) / 2
        accept_asym = mp.mpf(1) / 2 * mp.mpf(2) ** exponent
        accept = post * min(_p_corr_mp(n, beta, gamma), accept_asym)
        total = tag + reject + accept
        return float(mp.log(total, 2))


def binary_entropy_mp(p, dps=60) -> float:
    with mp.workdps(dps):
        return float(_h_mp(p))


def toeplitz_outputs_all_seeds(
    modulus: int, in_len: int, out_len: int, inputs: np.ndarray
) -> np.ndarray:
    """Evaluate the affine Toeplitz family on every input for every seed.

    Seeds enumerate lexicographically as (diagonal digits, offset digits).
    The transform is recomputed here from the matrix definition
    T[i, j] = diagonal[in_len - 1 + i - j] rather than by convolution.
    Returns an array of shape (num_seeds, num_inputs) whose entries are the
    output tuples collapsed to a base-`modulus` integer.
    """
    diag_len = in_len + out_len - 1
    num_diag = modulus**diag_len
    num_off = modulus**out_len

    digits = np.arange(num_diag, dtype=np.int64)
    diagonals = np.empty((num_diag, diag_len), dtype=np.int64)
    for pos in range(diag_len - 1, -1, -1):
        diagonals[:, pos] = digits % modulus
        digits //= modulus

    raw = np.empty((num_diag, out_len, inputs.shape[0]), dtype=np.int64)
    for i in range(out_len):
        window = diagonals[:, i : in_len + i][:, ::-1]
        raw[:, i, :] = window @ inputs.T.astype(np.int64)

    off_digits = np.arange(num_off, dtype=np.int64)
    offsets = np.empty((num_off, out_len), dtype=np.int64)
    for pos in range(out_len - 1, -1, -1):
        offsets[:, pos] = off_digits % modulus
        off_digits //= modulus

    weights = modulus ** np.arange(out_len - 1, -1, -1, dtype=np.int64)
    outputs = np.empty((num_diag * num_off, inputs.shape[0]), dtype=np.int64)
    for k in range(num_off):
        shifted = (raw + offsets[k][None, :, None]) % modulus
        values = np.tensordot(weights, shifted, axes=([0], [1]))
        outputs[k::num_off, :] = values
    return outputs


def pairwise_counts_extrema(outputs: np.ndarray, range_size: int) -> tuple[int, int]:
    """Min and max joint-output count over all ordered input pairs and all
    output pairs; pairwise independence means both equal seeds/range^2."""
    num_seeds, num_in = outputs.shape
    lo, hi = None, None
    for i in range(num_in):
        for j in range(num_in):
            if i == j:
                continue
            combo = outputs[:, i] * range_size + outputs[:, j]
            counts = np.bincount(combo, minlength=range_size**2)
            cmin, cmax = int(counts.min()), int(counts.max())
            lo = cmin if lo is None else min(lo, cmin)
            hi = cmax if hi is None else max(hi, cmax)
    return lo, hi


def bits_to_int_loop(bits) -> int:
    """Most-significant-first bits to an integer, one bit at a time."""
    value = 0
    for b in bits:
        value = (value << 1) | int(b)
    return value


def int_to_bits_loop(value: int, length: int) -> list[int]:
    """The `length` low bits of `value`, most significant first."""
    return [(value >> (length - 1 - i)) & 1 for i in range(length)]


def message_blocks_loop(bits, tag_bits: int) -> list[int]:
    """MAC message blocks: tag_bits-sized chunks, the last zero-padded on the
    right, then the bit length as a final block."""
    blocks = []
    for start in range(0, len(bits), tag_bits):
        chunk = bits[start : start + tag_bits]
        blocks.append(bits_to_int_loop(chunk) << (tag_bits - len(chunk)))
    blocks.append(len(bits) & ((1 << tag_bits) - 1))
    return blocks


def run_session_two_party(
    params,
    channel,
    code_kind,
    rounds: int,
    seed: int,
    message_source=None,
    reservoir_capacity=None,
    keep_eve_views: bool = False,
):
    """A session with both parties' key states kept in full: two `KeyState`s,
    two reservoirs over the same seeded stream, both parties' `key_update`
    every round and a full state comparison. Stops after the first round
    whose states differ, because every later round would run on diverged
    basis sequences."""
    from qkr.ecc import OracleBddCode, make_code
    from qkr.primitives import RandomSource
    from qkr.protocol import (
        EveView,
        KeyState,
        Reservoir,
        RoundResult,
        SessionResult,
        SessionSummary,
        alice_check_feedback,
        alice_encrypt,
        bob_decrypt,
        feedback_tag,
        key_update,
    )
    from qkr.qsim import transmit

    master = RandomSource(seed)
    alice_keys = KeyState.random(params, master.stream("keys"))
    bob_keys = alice_keys
    alice_src = master.stream("alice")
    channel_src = master.stream("channel")
    msg_src = master.stream("messages")
    alice_reservoir = Reservoir(master.stream("reservoir"), reservoir_capacity)
    bob_reservoir = Reservoir(master.stream("reservoir"), reservoir_capacity)

    code = make_code(code_kind, params)
    results = []
    eve_views = [] if keep_eve_views else None
    accepts = mismatches = errors_total = 0
    key_agreement = True

    for i in range(rounds):
        mu = message_source(i) if message_source else msg_src.bits(params.mu_bits)
        qubits, secrets = alice_encrypt(params, alice_keys, mu, alice_src, code)
        if isinstance(code, OracleBddCode):
            code.note_transmitted(secrets.c)
        received = transmit(channel, qubits, channel_src)
        errors_injected = int(np.bitwise_xor(qubits.payloads, received.payloads).sum())

        dec = bob_decrypt(params, bob_keys, received, code)
        tau_fb = feedback_tag(bob_keys, dec.omega)
        assert alice_check_feedback(alice_keys, dec.omega, tau_fb)

        consumed_before = alice_reservoir.consumed_bits
        alice_keys = key_update(
            params, alice_keys, dec.omega, alice_reservoir,
            x=secrets.x, r=secrets.r, k_next=secrets.k_prime,
        )
        bob_keys = key_update(
            params, bob_keys, dec.omega, bob_reservoir,
            x=dec.x_hat, r=dec.r_hat, k_next=dec.k_hat_prime,
        )
        consumed = alice_reservoir.consumed_bits - consumed_before
        key_agreement = alice_keys == bob_keys

        if dec.omega:
            accepts += 1
            if dec.mu_hat != mu:
                mismatches += 1
        errors_total += errors_injected
        results.append(
            RoundResult(
                omega=dec.omega,
                mu_hat=dec.mu_hat if dec.omega else None,
                tau_fb=tau_fb,
                consumed_bits=consumed,
                errors_injected=errors_injected,
            )
        )
        if eve_views is not None:
            eve_views.append(EveView(qubits=received, omega=dec.omega, tau_fb=tau_fb))
        if not key_agreement:
            break

    summary = SessionSummary(
        rounds=len(results),
        accepts=accepts,
        accept_rate=accepts / len(results),
        consumed_bits=alice_reservoir.consumed_bits,
        mismatches=mismatches,
        errors_injected=errors_total,
        key_agreement=key_agreement,
    )
    return SessionResult(results=results, summary=summary, eve_views=eve_views)


def toeplitz_apply_int(seed, values) -> np.ndarray:
    """The exact Toeplitz-affine product: int64 convolution of the diagonal
    with the input, then the offset, then reduction modulo the field size."""
    conv = np.convolve(
        np.asarray(seed.diagonal, dtype=np.int64), np.asarray(values, dtype=np.int64), mode="valid"
    )
    return ((conv + seed.offset) % seed.modulus).astype(np.uint8)


# The bit-serial GF(2^lambda) multiply, the batched MAC built on it and the
# shift-and-sum word packer, as `hashing` and `attacks` had them before the
# 4-bit key-table multiply replaced them.

def gf_mul_bitserial(a: int, b: int, tag_bits: int) -> int:
    """Carry-less multiply of two field elements modulo the pinned polynomial."""
    from qkr.hashing import REDUCTION_POLYS

    try:
        poly = REDUCTION_POLYS[tag_bits]
    except KeyError:
        raise ValueError(f"no reduction polynomial pinned for tag_bits={tag_bits}") from None
    top = 1 << tag_bits
    res = 0
    while b:
        if b & 1:
            res ^= a
        b >>= 1
        a <<= 1
        if a & top:
            a ^= poly
    return res


def polynomial_mac_bitserial(key_value: int, bits, tag_bits: int) -> int:
    """sum_i m_i * key^i over the loop-built message blocks, by Horner's rule
    with the bit-serial multiply."""
    acc = 0
    for block in reversed(message_blocks_loop(bits, tag_bits)):
        acc = block ^ gf_mul_bitserial(acc, key_value, tag_bits)
    return gf_mul_bitserial(acc, key_value, tag_bits)


_LOW_POLY64 = np.uint64(0x1B)  # x^64 + x^4 + x^3 + x + 1 without its x^64 term
_ONE = np.uint64(1)
_ZERO = np.uint64(0)


def gf64_mul_words_bitserial(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Elementwise GF(2^64) product of two uint64 arrays (shift-and-reduce)."""
    a = a.astype(np.uint64, copy=True)
    b = b.astype(np.uint64, copy=True)
    res = np.zeros_like(a)
    for _ in range(64):
        res ^= np.where((b & _ONE).astype(bool), a, _ZERO)
        b >>= _ONE
        carry = (a >> np.uint64(63)).astype(bool)
        a <<= _ONE
        a ^= np.where(carry, _LOW_POLY64, _ZERO)
    return res


def pack_bits_to_words_shift_sum(bits: np.ndarray) -> np.ndarray:
    """Pack rows of bits into 64-bit words, leftmost bit highest, last word
    zero-padded on the right."""
    rows, length = bits.shape
    words = (length + 63) // 64
    padded = np.zeros((rows, words * 64), dtype=np.uint8)
    padded[:, :length] = bits
    as_bytes = np.packbits(padded, axis=1).reshape(rows, words, 8).astype(np.uint64)
    shifts = np.arange(56, -1, -8, dtype=np.uint64)
    return (as_bytes << shifts).sum(axis=2, dtype=np.uint64)


def mac64_words_bitserial(keys: np.ndarray, message_bits: np.ndarray) -> np.ndarray:
    """Row-wise polynomial MAC over GF(2^64): blocks plus a length block,
    evaluated by Horner's rule. Matches `hashing.mac_tag` bit for bit."""
    rows, length = message_bits.shape
    blocks = (
        pack_bits_to_words_shift_sum(message_bits)
        if length else np.zeros((rows, 0), dtype=np.uint64)
    )
    acc = np.full(rows, np.uint64(length), dtype=np.uint64)
    for j in range(blocks.shape[1] - 1, -1, -1):
        acc = blocks[:, j] ^ gf64_mul_words_bitserial(acc, keys)
    return gf64_mul_words_bitserial(acc, keys)
