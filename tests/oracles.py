"""Independent oracles used by the test suite.

Deliberately separate implementations: exhaustive enumerations, literal
definitions, and high-precision arithmetic via mpmath. Tests compare the
production code against these, never the other way around.
"""

from __future__ import annotations

import json
import math
import sys

import mpmath as mp
import numpy as np

from qkr.analysis import SecurityBudget, min_q_bits, required_redundancy
from qkr.attacks import _FUZZ_CHUNK, _FUZZ_PARAMS, fuzz_batch
from qkr.cli import UsageError
from qkr.ecc import CodeKind
from qkr.hashing import (
    REDUCTION_POLYS,
    bytes_to_words,
    gf64_key_tables,
    gf64_mul_rows,
    nonzero_key_words,
)
from qkr.primitives import BitString, Encoding, ProtocolParams, RandomSource
from qkr.qsim import ChannelKind, QubitSequence


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


def p_corr_full(n: int, beta: float, gamma: float) -> float:
    """p_corr evaluated over every one of its floor(n*beta) + 1 log-terms,
    peak-shifted and summed with fsum in index order; the production p_corr
    must return exactly this float."""
    if n < 1:
        raise ValueError("n must be positive")
    if not 0.0 <= beta:
        raise ValueError("beta must be nonnegative")
    if not 0.0 <= gamma <= 1.0:
        raise ValueError("gamma must lie in [0, 1]")
    t = math.floor(n * beta)
    if t >= n:
        return 1.0
    if gamma == 0.0:
        return 1.0
    if gamma == 1.0:
        return 0.0
    log_g = math.log(gamma)
    log_1g = math.log1p(-gamma)
    log_terms = [
        math.lgamma(n + 1) - math.lgamma(c + 1) - math.lgamma(n - c + 1)
        + c * log_g + (n - c) * log_1g
        for c in range(t + 1)
    ]
    peak = max(log_terms)
    total = math.fsum(math.exp(lt - peak) for lt in log_terms)
    return min(1.0, math.exp(peak) * total)


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


def diamond_bound_log2_mp(tag_bits, n, kappa, gamma, beta, q_bits, dps=60):
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


# The four protocol steps at string level, as `protocol` had them before a
# session's rounds ran on arrays; the public steps now wrap array kernels.

def alice_encrypt_strings(params, keys, mu, src, code):
    """Encryption on strings: returns the n prepared qubits and the round
    secrets."""
    from qkr.hashing import mac_tag
    from qkr.protocol import AliceRoundSecrets

    keys.check_dimensions(params)
    if len(mu) != params.mu_bits:
        raise ValueError(f"plaintext must have length {params.mu_bits}")
    if code.spec.k_in != params.payload_bits or code.spec.n_out != params.n:
        raise ValueError("code dimensions do not match params")

    r = src.bits(params.kappa)
    k_prime = src.bits(params.tag_bits)
    tagged = mu + k_prime
    tau = mac_tag(keys.xi, tagged)
    c = code.encode(tagged + tau + r)
    x = c ^ keys.z
    qubits = QubitSequence.prepare(keys.b, x)
    return qubits, AliceRoundSecrets(r=r, k_prime=k_prime, x=x, c=c, tau=tau)


def bob_decrypt_strings(params, keys, qubits, code):
    """Decryption on strings: measure, unmask, decode, and check the
    message tag; failures surface as omega=0."""
    from qkr.hashing import mac_verify
    from qkr.protocol import BobDecryption

    keys.check_dimensions(params)
    if len(qubits) != params.n:
        raise ValueError(f"expected {params.n} qubits")
    if qubits.basis != keys.b:
        raise ValueError("honest simulation requires basis labels equal to the shared b")

    c_prime = qubits.payload ^ keys.z
    outcome = code.decode(c_prime)
    if not outcome.ok:
        return BobDecryption(omega=0, mu_hat=None, k_hat_prime=None, r_hat=None, x_hat=None)
    payload = outcome.payload
    tag_start = params.ell - params.tag_bits
    mu_hat = payload[: params.mu_bits]
    k_hat_prime = payload[params.mu_bits : tag_start]
    tau_hat = payload[tag_start : params.ell]
    r_hat = payload[params.ell :]
    x_hat = code.encode(payload) ^ keys.z
    omega = 1 if mac_verify(keys.xi, payload[:tag_start], tau_hat) else 0
    return BobDecryption(
        omega=omega, mu_hat=mu_hat, k_hat_prime=k_hat_prime, r_hat=r_hat, x_hat=x_hat
    )


def feedback_tag_strings(keys, omega):
    """The feedback MAC of the one-bit verdict under the key k."""
    from qkr.hashing import mac_tag

    if omega not in (0, 1):
        raise ValueError(f"omega must be 0 or 1, got {omega!r}")
    return mac_tag(keys.k, BitString([int(omega)]))


def key_update_strings(params, keys, omega, reservoir, *, x=None, r=None, k_next=None):
    """The next key state on strings: hash_F of (x, b, r) and k' on Accept;
    z, k and q drawn from the reservoir in that order, and hash_G, on
    Reject."""
    from dataclasses import replace

    from qkr.hashing import MacKey, hash_F, hash_G

    keys.check_dimensions(params)
    if omega:
        if x is None or r is None or k_next is None:
            raise ValueError("accept-path update needs x, r, and the next feedback key")
        new_z, new_b = hash_F(keys.u, x, keys.b, r)
        return replace(keys, z=new_z, b=new_b, k=MacKey.from_draw(k_next))
    new_z = reservoir.draw_bits(params.n)
    new_k = MacKey.from_draw(reservoir.draw_bits(params.tag_bits))
    q = reservoir.draw_bits(params.q_bits)
    new_b = hash_G(keys.v, keys.b, q)
    return replace(keys, z=new_z, b=new_b, k=new_k)


def channel_draws_reference(channel, alphabet_size: int, n: int, src) -> tuple:
    """One round's channel draws taken alone, as `qsim` took them before a
    session drew a block of rounds at once: the flips (iid flip), or
    whether each qubit is attacked, then Eve's bases, then the receiver's
    coins (intercept-resend). `src` should be a `FloatRandomSource`, so
    that no production draw is shared."""
    if channel.kind is ChannelKind.IID_FLIP:
        return (src.bernoulli(channel.gamma, n),)
    return (src.bernoulli(channel.eta, n), src.integers_below(alphabet_size, n), src.bit_array(n))


def transmit_reference(channel, qubits: QubitSequence, src) -> QubitSequence:
    """`qsim.transmit` with the round's draws taken alone: the flips xor
    the payloads, or an attacked qubit whose basis Eve missed arrives as
    the receiver's coin."""
    basis = qubits.basis
    draw = channel_draws_reference(channel, basis.alphabet_size, len(qubits), src)
    if channel.kind is ChannelKind.IID_FLIP:
        payload = np.bitwise_xor(qubits.payloads, draw[0])
    else:
        attacked, eve_bases, coins = draw
        payload = np.where(attacked & (eve_bases != basis.symbols), coins, qubits.payloads)
    return QubitSequence.prepare(basis, BitString(payload))


def run_session_two_party(
    params,
    channel,
    code_kind,
    rounds: int,
    seed: int,
    message_source=None,
    reservoir_capacity=None,
):
    """A session on the string-level steps with both parties' key states
    kept in full: two `KeyState`s, two reservoirs over the same seeded
    stream, both parties' key update every round and a full state
    comparison. Stops after the first round whose states differ, because
    every later round would run on diverged basis sequences, and before a
    round whose update exhausts a reservoir. The summary comes from running
    totals, each completed round's consumption added as it ends. Every
    stream is a `FloatRandomSource` drawn a round at a time, and the
    channel is `transmit_reference`."""
    from qkr.ecc import OracleBddCode, make_code
    from qkr.protocol import (
        KeyState,
        Reservoir,
        ReservoirExhausted,
        RoundResult,
        SessionResult,
        SessionSummary,
        alice_check_feedback,
    )

    def stream(label):
        return FloatRandomSource(seed, label)

    alice_keys = KeyState.random(params, stream("keys"))
    bob_keys = alice_keys
    alice_src = stream("alice")
    channel_src = stream("channel")
    msg_src = stream("messages")
    alice_reservoir = Reservoir(stream("reservoir"), reservoir_capacity)
    bob_reservoir = Reservoir(stream("reservoir"), reservoir_capacity)

    code = make_code(code_kind, params)
    results = []
    accepts = mismatches = errors_total = consumed_total = 0
    key_agreement = True
    exhausted = None

    for i in range(rounds):
        mu = message_source(i) if message_source else msg_src.bits(params.mu_bits)
        qubits, secrets = alice_encrypt_strings(params, alice_keys, mu, alice_src, code)
        if isinstance(code, OracleBddCode):
            code.note_transmitted(secrets.c)
        received = transmit_reference(channel, qubits, channel_src)
        errors_injected = int(np.bitwise_xor(qubits.payloads, received.payloads).sum())

        dec = bob_decrypt_strings(params, bob_keys, received, code)
        tau_fb = feedback_tag_strings(bob_keys, dec.omega)
        assert alice_check_feedback(alice_keys, dec.omega, tau_fb)

        consumed_before = alice_reservoir.consumed_bits
        try:
            alice_keys = key_update_strings(
                params, alice_keys, dec.omega, alice_reservoir,
                x=secrets.x, r=secrets.r, k_next=secrets.k_prime,
            )
            bob_keys = key_update_strings(
                params, bob_keys, dec.omega, bob_reservoir,
                x=dec.x_hat, r=dec.r_hat, k_next=dec.k_hat_prime,
            )
        except ReservoirExhausted as exc:
            exhausted = exc
            break
        consumed = alice_reservoir.consumed_bits - consumed_before
        key_agreement = alice_keys == bob_keys

        if dec.omega:
            accepts += 1
            if dec.mu_hat != mu:
                mismatches += 1
        errors_total += errors_injected
        consumed_total += consumed
        results.append(
            RoundResult(
                omega=dec.omega,
                mu_hat=dec.mu_hat if dec.omega else None,
                tau_fb=tau_fb,
                consumed_bits=consumed,
                errors_injected=errors_injected,
            )
        )
        if not key_agreement:
            break

    summary = SessionSummary(
        rounds=len(results),
        accepts=accepts,
        accept_rate=accepts / len(results) if results else 0.0,
        consumed_bits=consumed_total,
        mismatches=mismatches,
        errors_injected=errors_total,
        key_agreement=key_agreement,
    )
    return SessionResult(results=results, summary=summary, exhausted=exhausted)


def rounds_text_json(results) -> str:
    """The rounds file as a dict per round serialized by `json.dumps` with
    sorted keys; `cli._round_line` formats each line's bytes directly."""

    def round_json(result) -> dict:
        mu_hat = result.mu_hat
        return {
            "omega": result.omega,
            "mu_hat": mu_hat.to_hex() if mu_hat is not None else None,
            "mu_hat_bits": len(mu_hat) if mu_hat is not None else None,
            "tau_fb": result.tau_fb.to_hex(),
            "consumed_bits": result.consumed_bits,
            "errors_injected": result.errors_injected,
        }

    return "".join(json.dumps(round_json(result), sort_keys=True) + "\n" for result in results)


def toeplitz_apply_int(seed, values) -> np.ndarray:
    """The exact Toeplitz-affine product: int64 convolution of the diagonal
    with the input, then the offset, then reduction modulo the field size.
    `ToeplitzSeed.apply` computed its small products, and recomputed a
    product that failed the FFT guard, this way before the float64
    convolution replaced it."""
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


def mac64_rows(table: np.ndarray, packed: np.ndarray, length: int) -> np.ndarray:
    """Row-wise polynomial MAC over GF(2^64) of `length`-bit messages packed
    into bytes, given the keys' tables: Horner's rule over the blocks plus
    the length block. Matches `mac_tag` bit for bit."""
    blocks = [*bytes_to_words(packed).T, np.uint64(length)]
    acc = np.zeros(len(packed), dtype=np.uint64)
    for block in reversed(blocks):
        acc = gf64_mul_rows(acc ^ block, table)
    return acc


def fuzz_batch_two_tags(xi: np.ndarray, mu: np.ndarray, k_prime: np.ndarray,
                        flips: np.ndarray) -> dict:
    """`attacks.fuzz_batch` as Alice and Bob compute it: Alice tags the
    packed message `mu || k'`, and Bob tags the flipped message and compares
    it with the flipped tag. Rows are packed as `np.packbits(axis=1)` packs
    them; k' is 8 bytes and the flips cover the whole codeword."""
    mu_bytes = mu.shape[1]
    tag_bytes = 8
    message_bytes = mu_bytes + tag_bytes
    table = gf64_key_tables(xi)
    tagged = np.concatenate([mu, k_prime], axis=1)
    tau = mac64_rows(table, tagged, 8 * message_bytes)

    message_flips = flips[:, :message_bytes]
    message_hat = tagged ^ message_flips
    tau_hat = tau ^ bytes_to_words(flips[:, message_bytes : message_bytes + tag_bytes])[:, 0]
    omega = mac64_rows(table, message_hat, 8 * message_bytes) == tau_hat

    message_changed = np.any(message_flips, axis=1)
    plaintext_changed = np.any(message_flips[:, :mu_bytes], axis=1)
    return {
        "omega": omega,
        "message_changed": message_changed,
        "plaintext_changed": plaintext_changed,
    }


def tamper_fuzz_sliced(rounds: int, seed: int, flip_rate: float = 0.3) -> dict:
    """`attacks.tamper_fuzz` as it ran on one thread before each batch's
    rows were split in two: the flips of a batch drawn 2048 rows at a time,
    each slice one `bernoulli` draw packed row by row, and the whole batch
    checked by one `fuzz_batch`. The stream is a `FloatRandomSource`, so
    every word is computed on the calling thread and compared as a float,
    by none of the split or threshold code that `tamper_fuzz` runs."""
    params = _FUZZ_PARAMS
    n = params.n
    field_bits = (params.mu_bits, params.tag_bits, params.kappa, n)
    src = FloatRandomSource(seed, "tamper_fuzz")
    false_accepts = forgeries = accepts = attempts = 0
    done = 0
    while done < rounds:
        batch = min(_FUZZ_CHUNK, rounds - done)
        xi = nonzero_key_words(src.raw_words(batch))
        src.skip(sum(-(-batch * bits // 64) for bits in field_bits))
        flips = np.empty((batch, -(-n // 8)), dtype=np.uint8)
        for start in range(0, batch, 2048):
            stop = min(start + 2048, batch)
            drawn = src.bernoulli(flip_rate, (stop - start) * n).reshape(stop - start, n)
            flips[start:stop] = np.packbits(drawn, axis=1)
        out = fuzz_batch(xi, flips)
        false_accepts += int(np.sum(out["omega"] & out["plaintext_changed"]))
        forgeries += int(np.sum(out["omega"] & out["message_changed"]))
        accepts += int(np.sum(out["omega"]))
        attempts += int(np.sum(out["message_changed"]))
        done += batch
    return {
        "kind": "tamper_fuzz",
        "rounds": rounds,
        "tag_bits": params.tag_bits,
        "mu_bits": params.mu_bits,
        "kappa": params.kappa,
        "codeword_bits": n,
        "flip_rate": flip_rate,
        "forgery_attempts": attempts,
        "accepts": accepts,
        "false_accepts": false_accepts,
        "successful_forgeries": forgeries,
        "seed": seed,
    }


class FloatRandomSource(RandomSource):
    """`RandomSource` with its draws as they were before the integer forms
    and the split draw: `raw_words` computes every word on the calling
    thread, `bernoulli` compares floats, `bit_array` unpacks a big-endian
    byte copy and slices it, and `integers_below` gathers each bit column
    by a strided slice. Seeded alike, both sources must return the same
    arrays and stay at the same stream position."""

    def raw_words(self, count: int) -> np.ndarray:
        if count <= 0:
            return np.empty(0, dtype=np.uint64)
        return self._gen.random_raw(count)

    def bit_array(self, count: int) -> np.ndarray:
        if count == 0:
            return np.empty(0, dtype=np.uint8)
        words = self.raw_words((count + 63) // 64)
        bits = np.unpackbits(np.frombuffer(words.astype(">u8").tobytes(), dtype=np.uint8))
        return bits[:count]

    def bernoulli(self, p: float, count: int) -> np.ndarray:
        return self.floats(count) < p

    def integers_below(self, bound: int, count: int) -> np.ndarray:
        if bound < 2:
            return np.zeros(count, dtype=np.uint8)
        width = (bound - 1).bit_length()
        out = np.empty(count, dtype=np.uint8)
        filled = 0
        while filled < count:
            need = count - filled
            raw = self.bit_array(2 * need * width)
            cand = np.zeros(2 * need, dtype=np.uint8)
            for k in range(width):
                cand = (cand << 1) | raw[k::width][: 2 * need]
            accepted = cand[cand < bound][:need]
            out[filled : filled + accepted.size] = accepted
            filled += accepted.size
        return out


def integers_below_column_loop(src: RandomSource, bound: int, count: int) -> np.ndarray:
    """`RandomSource.integers_below` as it was before its candidates became
    one product of the bit rows with their place values: the drawn bits as
    rows of `width`, shifted in one column at a time. Bounds above 256 wrap
    in the uint8 candidates, which is why the production form refuses them."""
    if bound < 2:
        return np.zeros(count, dtype=np.uint8)
    width = (bound - 1).bit_length()
    out = np.empty(count, dtype=np.uint8)
    filled = 0
    while filled < count:
        need = count - filled
        raw = src.bit_array(2 * need * width).reshape(2 * need, width)
        cand = raw[:, 0]
        for k in range(1, width):
            cand = (cand << 1) | raw[:, k]
        accepted = cand[cand < bound][:need]
        out[filled : filled + accepted.size] = accepted
        filled += accepted.size
    return out


def symbol_strings_equal(a, b) -> bool:
    """Symbol-string equality as `np.array_equal` decided it: the same
    subclass, the same modulus and elementwise equal symbols."""
    return (
        type(a) is type(b)
        and a._modulus == b._modulus
        and np.array_equal(a._values, b._values)
    )


# The run-parameter resolver as `cli` had it when each size rule lived on its
# own branch, with the code-shape checks repeated from `ecc.CodeSpec`. The
# `cli` resolver must return the same parameters or raise `UsageError` alike.

_FALLBACK_TAGS = (64, 8)

MAX_RUN_SIZE = 2**32


def _default_kappa(n: int, alpha: float) -> int:
    return math.ceil(2.0 * (alpha + 15.0 * math.log2(n + 1)))


def _sized_by_alpha(size, n: int, alpha: float) -> int:
    """`size(n, alpha)` for a size derived from alpha (kappa or q_bits); an
    alpha so large that the size is not a finite number is a usage error."""
    try:
        return size(n, alpha)
    except OverflowError:
        raise UsageError(f"alpha: too large to derive sizes from, got {alpha:g}") from None


def resolve_params(values: dict, explicit: set = frozenset()) -> tuple[ProtocolParams, CodeKind]:
    """Fill in ell, kappa, q_bits and (when not explicitly set) the tag
    length from the structural constraints of the chosen code."""
    encoding = Encoding(values["encoding"])
    code_kind = CodeKind(values["code"])
    n = int(values["n"])
    gamma = float(values["gamma"])
    alpha = float(values["alpha"])

    ell, kappa = values["ell"], values["kappa"]
    if ell is not None and kappa is not None:
        k_in = int(ell) + int(kappa)
        if code_kind is CodeKind.IDENTITY and k_in != n:
            raise UsageError(f"ell/kappa: identity code needs ell + kappa = n, got {k_in} vs {n}")
        if code_kind is CodeKind.REPETITION3 and 3 * k_in != n:
            raise UsageError(f"ell/kappa: repetition3 needs 3*(ell + kappa) = n, got {k_in} vs {n}")
    elif code_kind is CodeKind.IDENTITY:
        k_in = n
    elif code_kind is CodeKind.REPETITION3:
        if n % 3:
            raise UsageError(f"n: repetition3 needs n divisible by 3, got {n}")
        k_in = n // 3
    else:
        k_in = n - math.ceil(required_redundancy(n, min(gamma, 0.5 - 1e-9)))

    lam = int(values["lambda"])
    if "lambda" not in explicit and k_in <= 2 * lam:
        for candidate in _FALLBACK_TAGS:
            if k_in > 2 * candidate:
                if candidate != lam:
                    print(
                        f"note: lambda lowered to {candidate} to fit {k_in} payload bits",
                        file=sys.stderr,
                    )
                lam = candidate
                break
        else:
            raise UsageError(f"n: payload of {k_in} bits cannot host any supported tag length")
    if lam not in REDUCTION_POLYS:
        raise UsageError(f"lambda: must be one of {sorted(REDUCTION_POLYS)}, got {lam}")

    if ell is None and kappa is None:
        kappa_val = max(0, min(_sized_by_alpha(_default_kappa, n, alpha), k_in - (2 * lam + 1)))
        ell_val = k_in - kappa_val
    elif ell is None:
        kappa_val = int(kappa)
        ell_val = k_in - kappa_val
    elif kappa is None:
        ell_val = int(ell)
        kappa_val = k_in - ell_val
    else:
        ell_val, kappa_val = int(ell), int(kappa)

    q_bits = values["q_bits"]
    try:
        q_bits = _sized_by_alpha(min_q_bits, n, alpha) if q_bits is None else int(q_bits)
        for field, size in (("kappa", kappa_val), ("q_bits", q_bits)):
            if size > MAX_RUN_SIZE:
                raise UsageError(
                    f"{field}: must be at most 2^32 to run, got a {size.bit_length()}-bit number"
                )
        params = ProtocolParams(
            n=n,
            ell=ell_val,
            kappa=kappa_val,
            tag_bits=lam,
            beta=float(values["beta"]),
            encoding=encoding,
            q_bits=q_bits,
        )
    except ValueError as exc:
        raise UsageError(str(exc)) from exc
    return params, code_kind


def resolve_budget(values: dict) -> SecurityBudget:
    n = int(values["n"])
    alpha = float(values["alpha"])
    kappa = values["kappa"]
    q_bits = values["q_bits"]
    lam = int(values["lambda"])
    if lam not in REDUCTION_POLYS:
        raise UsageError(f"lambda: must be one of {sorted(REDUCTION_POLYS)}, got {lam}")
    try:
        return SecurityBudget(
            tag_bits=lam,
            n=n,
            kappa=_sized_by_alpha(_default_kappa, n, alpha) if kappa is None else int(kappa),
            gamma=float(values["gamma"]),
            beta=float(values["beta"]),
            q_bits=_sized_by_alpha(min_q_bits, n, alpha) if q_bits is None else int(q_bits),
        )
    except ValueError as exc:
        raise UsageError(str(exc)) from exc


def apply_error_pattern(qubits: QubitSequence, pattern: BitString) -> QubitSequence:
    """Flip exactly the payload positions set in `pattern` (fault injection
    and permutation-invariance experiments); the protocol itself never calls
    this."""
    if len(pattern) != len(qubits):
        raise ValueError("pattern length must match the qubit count")
    return QubitSequence.prepare(qubits.basis, qubits.payload ^ pattern)
