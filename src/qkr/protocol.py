"""One key-recycling round (Encryption, Decryption, Feedback, Key Update)
and multi-round sessions with reservoir accounting.

Round data flow, sender side: draw padding r and the next feedback key k',
tag the plaintext, encode, mask with the one-time pad z, and put every
ciphertext bit into a qubit prepared in the shared basis sequence b. The
receiver measures in b, unmasks, decodes, and checks the tag; his one-bit
verdict omega goes back under its own MAC, which the sender checks with
`alice_check_feedback`. On Accept the next round's mask and basis sequence
are hashed out of this round's payload (no fresh key material); on Reject
they are drawn from the shared reservoir, which is the only way key
material is ever consumed.

Both parties apply the same deterministic key update to the same values, so
a session keeps one shared key state and updates it once per round from the
sender's values. The receiver's Accept-path inputs are checked against the
sender's instead of replayed. A session ends one way: after the last round,
after the first round whose two next states differ, or before a round whose
Reject update would draw past the reservoir's capacity. It returns the
rounds that completed, a summary folded from exactly those rounds, and the
`ReservoirExhausted` that stopped it, if one did.

The simulation binds the receiver's measurement basis to the true b; an
adversary acts only on the qubit sequence in flight. Nothing alters the
feedback on its way back, so `run_session` does not run the sender's
feedback check: a tag computed with the shared key always verifies.

Each step has one implementation on plain uint8 arrays (`_payload`,
`_decrypt`, `_accept_update`, `_reject_update`), built on the array forms of
the MAC and the hashes in `hashing`, of `Code._encode` and `_decode`, and of
the channel in `qsim`. A round sends one payload mu || k' || tau || r:
`_payload` builds it, and its callers encode and mask it and read r, k' and
tau as its slices. The public steps (`alice_encrypt`, `bob_decrypt`,
`key_update`, `feedback_tag`) are the validating edge: each checks its
inputs against the params, calls the kernel on the strings' arrays, and
wraps the result in strings and a `KeyState`. `run_session` builds the key
state, the code and the qubits' labels from the params itself, so the one
input it checks each round is the plaintext a caller's `message_source`
returns. It holds z, b and the feedback key's bits and table as arrays for
the whole session and builds strings only for what leaves it,
`RoundResult.mu_hat` and `tau_fb`. Every draw keeps its stream and order: a
Reject draws z, then k, then q through `Reservoir.draw_bits`.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Callable, Optional

import numpy as np

from .ecc import Code, CodeKind, OracleBddCode, make_code
from .hashing import (
    MacKey,
    ToeplitzSeed,
    _drawn_key,
    _hash_F,
    _hash_G,
    _key_table,
    _tag,
    mac_tag,
    mac_verify,
    random_f_seed,
    random_g_seed,
)
from .primitives import (
    BasisString,
    BitString,
    ProtocolParams,
    RandomSource,
    _bits_to_int,
    _int_to_bits,
)
from .qsim import ChannelModel, QubitSequence, _channel

__all__ = [
    "KeyState",
    "Reservoir",
    "ReservoirExhausted",
    "AliceRoundSecrets",
    "BobDecryption",
    "RoundResult",
    "SessionSummary",
    "SessionResult",
    "alice_encrypt",
    "bob_decrypt",
    "feedback_tag",
    "alice_check_feedback",
    "key_update",
    "run_session",
]


class ReservoirExhausted(RuntimeError):
    """Raised when a draw would exceed the reservoir's configured capacity."""


@dataclass(frozen=True)
class KeyState:
    """The shared secrets of one protocol instance.

    z   one-time pad over the codeword
    b   qubit basis sequence
    xi  MAC key for the sender's message tag (never rotated)
    k   MAC key for the receiver's feedback bit (rotated every round)
    u   Accept-path hash seed (mask component, basis component)
    v   Reject-path hash seed
    """

    z: BitString
    b: BasisString
    xi: MacKey
    k: MacKey
    u: tuple[ToeplitzSeed, ToeplitzSeed]
    v: ToeplitzSeed

    @classmethod
    def random(cls, params: ProtocolParams, src: RandomSource) -> "KeyState":
        alphabet = params.alphabet_size
        return cls(
            z=src.bits(params.n),
            b=src.basis_string(alphabet, params.n),
            xi=MacKey.random(src, params.tag_bits),
            k=MacKey.random(src, params.tag_bits),
            u=random_f_seed(src, params.n, params.kappa, alphabet),
            v=random_g_seed(src, params.n, params.q_bits, alphabet),
        )

    def check_dimensions(self, params: ProtocolParams) -> None:
        if len(self.z) != params.n or len(self.b) != params.n:
            raise ValueError("key state does not match params: n mismatch")
        if self.b.alphabet_size != params.alphabet_size:
            raise ValueError("key state does not match params: basis alphabet mismatch")
        if self.xi.tag_bits != params.tag_bits or self.k.tag_bits != params.tag_bits:
            raise ValueError("key state does not match params: tag length mismatch")


class Reservoir:
    """Pre-shared spare key material as a deterministic seeded stream.

    The counter equals exactly the number of bits drawn. A capacity may be
    set to make exhaustion testable; the stream itself is unbounded.
    """

    def __init__(self, source: RandomSource, capacity_bits: Optional[int] = None):
        self._source = source
        self._capacity = capacity_bits
        self._consumed = 0

    @property
    def consumed_bits(self) -> int:
        return self._consumed

    def draw_bits(self, count: int) -> BitString:
        if count < 0:
            raise ValueError("count must be nonnegative")
        if self._capacity is not None and self._consumed + count > self._capacity:
            raise ReservoirExhausted(
                f"reservoir exhausted: {self._consumed} consumed, "
                f"{count} requested, capacity {self._capacity}"
            )
        self._consumed += count
        return self._source.bits(count)


@dataclass(frozen=True)
class AliceRoundSecrets:
    """Sender-side values of one round; part of no adversary-visible record."""

    r: BitString
    k_prime: BitString
    x: BitString
    c: BitString
    tau: BitString


@dataclass(frozen=True)
class BobDecryption:
    """Receiver-side outcome of one round."""

    omega: int
    mu_hat: Optional[BitString]
    k_hat_prime: Optional[BitString]
    r_hat: Optional[BitString]
    x_hat: Optional[BitString]


@dataclass(frozen=True)
class RoundResult:
    """User-facing transcript of one round."""

    omega: int
    mu_hat: Optional[BitString]
    tau_fb: BitString
    consumed_bits: int
    errors_injected: int


@dataclass(frozen=True)
class SessionSummary:
    rounds: int
    accepts: int
    accept_rate: float
    consumed_bits: int
    mismatches: int
    errors_injected: int
    key_agreement: bool


@dataclass(frozen=True)
class SessionResult:
    """The rounds that completed, their summary, and the exhaustion that
    ended the session early, or None."""

    results: list
    summary: SessionSummary
    exhausted: Optional[ReservoirExhausted]


def _payload(params: ProtocolParams, xi: MacKey, mu: np.ndarray, src: RandomSource) -> np.ndarray:
    """The round's payload mu || k' || tau || r as bits: draw r, then k',
    and tag mu || k' under xi."""
    tag_start = params.ell - params.tag_bits
    payload = np.empty(params.payload_bits, dtype=np.uint8)
    payload[: params.mu_bits] = mu
    payload[params.ell :] = src.bit_array(params.kappa)
    payload[params.mu_bits : tag_start] = src.bit_array(params.tag_bits)
    tau = _tag(xi._table, payload[:tag_start], params.tag_bits)
    payload[tag_start : params.ell] = _int_to_bits(tau, params.tag_bits)
    return payload


def _decrypt(
    params: ProtocolParams, z: np.ndarray, xi: MacKey, received: np.ndarray, code: Code
) -> tuple[int, Optional[np.ndarray]]:
    """Decryption on bit arrays: unmask, decode and check the message tag.
    Returns (omega, payload); the payload mu || k' || tau || r is None when
    decoding fails."""
    payload = code._decode(received ^ z)
    if payload is None:
        return 0, None
    tag_start = params.ell - params.tag_bits
    tag = _tag(xi._table, payload[:tag_start], params.tag_bits)
    return int(tag == _bits_to_int(payload[tag_start : params.ell])), payload


def _accept_update(
    u: tuple[ToeplitzSeed, ToeplitzSeed], b: np.ndarray, alphabet_size: int, x: np.ndarray,
    r: np.ndarray, k_next: np.ndarray,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The Accept update on arrays: the next (z, b, k) from hash_F(x, b, r)
    and the next feedback key's draw."""
    z, b = _hash_F(u, x, b, r, alphabet_size)
    return z, b, _drawn_key(k_next)


def _reject_update(
    params: ProtocolParams, v: ToeplitzSeed, b: np.ndarray, alphabet_size: int,
    reservoir: Reservoir,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The Reject update on arrays: draw z, then k, then q from the
    reservoir; the next (z, b, k) with b = hash_G(b, q)."""
    z = reservoir.draw_bits(params.n).bits
    k = _drawn_key(reservoir.draw_bits(params.tag_bits).bits)
    q = reservoir.draw_bits(params.q_bits).bits
    return z, _hash_G(v, b, q, alphabet_size), k


def alice_encrypt(
    params: ProtocolParams,
    keys: KeyState,
    mu: BitString,
    src: RandomSource,
    code: Code,
) -> tuple[QubitSequence, AliceRoundSecrets]:
    """Encryption step: returns the n prepared qubits and the round secrets."""
    keys.check_dimensions(params)
    if len(mu) != params.mu_bits:
        raise ValueError(f"plaintext must have length {params.mu_bits}")
    if code.spec.k_in != params.payload_bits or code.spec.n_out != params.n:
        raise ValueError("code dimensions do not match params")
    payload = BitString._trusted(_payload(params, keys.xi, mu.bits, src), 2)
    c = BitString._trusted(code._encode(payload.bits), 2)
    x = c ^ keys.z
    tag_start = params.ell - params.tag_bits
    secrets = AliceRoundSecrets(
        r=payload[params.ell :], k_prime=payload[params.mu_bits : tag_start], x=x, c=c,
        tau=payload[tag_start : params.ell],
    )
    return QubitSequence.prepare(keys.b, x), secrets


def bob_decrypt(
    params: ProtocolParams,
    keys: KeyState,
    qubits: QubitSequence,
    code: Code,
) -> BobDecryption:
    """Decryption step: measure, unmask, decode, and check the message tag.

    Failures surface as omega=0, never as exceptions.
    """
    keys.check_dimensions(params)
    if len(qubits) != params.n:
        raise ValueError(f"expected {params.n} qubits")
    if qubits.basis != keys.b:
        raise ValueError("honest simulation requires basis labels equal to the shared b")
    omega, payload = _decrypt(params, keys.z.bits, keys.xi, qubits.payloads, code)
    if payload is None:
        return BobDecryption(omega=0, mu_hat=None, k_hat_prime=None, r_hat=None, x_hat=None)
    x_hat = BitString._trusted(code._encode(payload) ^ keys.z.bits, 2)
    # payload = mu_hat + k_hat_prime + tau_hat + r_hat
    payload = BitString._trusted(payload, 2)
    return BobDecryption(
        omega=omega,
        mu_hat=payload[: params.mu_bits],
        k_hat_prime=payload[params.mu_bits : params.ell - params.tag_bits],
        r_hat=payload[params.ell :],
        x_hat=x_hat,
    )


# The two one-bit messages the feedback MAC authenticates, by verdict.
_VERDICTS = {0: BitString([0]), 1: BitString([1])}


def _verdict(omega: int) -> BitString:
    try:
        return _VERDICTS[omega]
    except (KeyError, TypeError):
        raise ValueError(f"omega must be 0 or 1, got {omega!r}") from None


def feedback_tag(keys: KeyState, omega: int) -> BitString:
    """Authenticate the one-bit verdict with the feedback MAC key."""
    return mac_tag(keys.k, _verdict(omega))


def alice_check_feedback(keys: KeyState, omega: int, tau_fb: BitString) -> bool:
    return mac_verify(keys.k, _verdict(omega), tau_fb)


def key_update(
    params: ProtocolParams,
    keys: KeyState,
    omega: int,
    reservoir: Reservoir,
    *,
    x: Optional[BitString] = None,
    r: Optional[BitString] = None,
    k_next: Optional[BitString] = None,
) -> KeyState:
    """Derive the next round's key state.

    Accept: the mask and basis sequence are hashed from (x, b, r) and the
    feedback key becomes k'; nothing is drawn from the reservoir. Reject:
    mask, feedback key, and the basis-refresh input q are drawn from the
    reservoir, consuming exactly n + tag_bits + q_bits. The message MAC key
    and both hash seeds are reused in either case.
    """
    keys.check_dimensions(params)
    alphabet = keys.b.alphabet_size
    if omega:
        if x is None or r is None or k_next is None:
            raise ValueError("accept-path update needs x, r, and the next feedback key")
        z, b, k = _accept_update(keys.u, keys.b.symbols, alphabet, x.bits, r.bits, k_next.bits)
    else:
        z, b, k = _reject_update(params, keys.v, keys.b.symbols, alphabet, reservoir)
    return replace(
        keys,
        z=BitString._trusted(z, 2),
        b=BasisString._trusted(b, alphabet),
        k=MacKey(BitString._trusted(k, 2)),
    )


def run_session(
    params: ProtocolParams,
    channel: ChannelModel,
    code_kind: CodeKind,
    rounds: int,
    seed: int,
    message_source: Optional[Callable[[int], BitString]] = None,
    reservoir_capacity: Optional[int] = None,
) -> SessionResult:
    """Execute up to `rounds` protocol rounds on one shared key state.

    The state is updated from Alice's values. On Reject both parties draw the
    same reservoir bits; on Accept Bob's x is compared with Alice's, and only
    when they differ is his update computed and compared.
    The session stops after the first round whose two next states differ,
    because every later round would run on diverged basis sequences, and
    before a round whose Reject update exhausts the reservoir; that round is
    not recorded and `exhausted` holds the `ReservoirExhausted`. The summary
    is folded from the returned rounds: their count, accepts and accept rate
    (0.0 for no rounds), reservoir consumption and injected errors, the count
    of accepted rounds whose recovered plaintext differs from the sent one,
    and whether the keys still agree.

    The rounds run the array steps on the state's arrays. The key state,
    the code and the qubits' labels are built here from `params`, so the one
    input checked each round is the plaintext `message_source` returns;
    strings are built only for `RoundResult.mu_hat` and `tau_fb`.
    """
    if rounds < 1:
        raise ValueError("rounds must be at least 1")
    master = RandomSource(seed)
    keys = KeyState.random(params, master.stream("keys"))
    alice_src = master.stream("alice")
    channel_src = master.stream("channel")
    msg_src = master.stream("messages")
    reservoir = Reservoir(master.stream("reservoir"), reservoir_capacity)

    code = make_code(code_kind, params)
    note = code._note if isinstance(code, OracleBddCode) else None
    # The key state as arrays, with the feedback key's table; xi, u and v
    # never change.
    z, b, k = keys.z.bits, keys.b.symbols, keys.k.key.bits
    k_table = keys.k._table
    alphabet, xi, u, v = keys.b.alphabet_size, keys.xi, keys.u, keys.v
    tag_bits, mu_bits = params.tag_bits, params.mu_bits
    # Where k' and r sit in a payload mu || k' || tau || r.
    k_part, r_part = slice(mu_bits, params.ell - tag_bits), slice(params.ell, None)
    results = []
    mismatches = 0
    key_agreement = True
    exhausted = None

    for i in range(rounds):
        if message_source is None:
            mu = msg_src.bit_array(mu_bits)
        else:
            mu = message_source(i).bits
            if len(mu) != mu_bits:
                raise ValueError(f"plaintext must have length {mu_bits}")
        sent = _payload(params, xi, mu, alice_src)
        c = code._encode(sent)
        if note is not None:
            note(c)
        x = c ^ z
        received = _channel(channel, b, alphabet, x, channel_src)

        omega, payload = _decrypt(params, z, xi, received, code)
        consumed_before = reservoir.consumed_bits
        try:
            if omega:
                next_state = _accept_update(u, b, alphabet, x, sent[r_part], sent[k_part])
            else:
                next_state = _reject_update(params, v, b, alphabet, reservoir)
        except ReservoirExhausted as exc:
            exhausted = exc
            break
        mu_hat = None
        if omega:
            mu_hat = payload[:mu_bits]
            if mu_hat.tobytes() != mu.tobytes():
                mismatches += 1
            # Every encoder is injective, so Bob's (x, r, k') differs from
            # Alice's exactly when his payload does; only then is his x
            # encoded and his own update run.
            if payload.tobytes() != sent.tobytes():
                x_hat = code._encode(payload) ^ z
                bob_state = _accept_update(u, b, alphabet, x_hat, payload[r_part], payload[k_part])
                key_agreement = all(
                    mine.tobytes() == his.tobytes() for mine, his in zip(next_state, bob_state)
                )
            mu_hat = BitString._trusted(mu_hat, 2)
        tau_fb = _tag(k_table, _VERDICTS[omega].bits, tag_bits)
        results.append(
            RoundResult(
                omega=omega,
                mu_hat=mu_hat,
                tau_fb=BitString.from_int(tau_fb, tag_bits),
                consumed_bits=reservoir.consumed_bits - consumed_before,
                errors_injected=int(np.count_nonzero(x != received)),
            )
        )
        z, b, k = next_state
        k_table = _key_table(_bits_to_int(k), tag_bits)
        if not key_agreement:
            break

    accepts = sum(r.omega for r in results)
    summary = SessionSummary(
        rounds=len(results),
        accepts=accepts,
        accept_rate=accepts / len(results) if results else 0.0,
        consumed_bits=sum(r.consumed_bits for r in results),
        mismatches=mismatches,
        errors_injected=sum(r.errors_injected for r in results),
        key_agreement=key_agreement,
    )
    return SessionResult(results=results, summary=summary, exhausted=exhausted)
