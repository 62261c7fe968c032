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
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Callable, Optional

import numpy as np

from .ecc import Code, CodeKind, OracleBddCode, make_code
from .hashing import (
    MacKey,
    ToeplitzSeed,
    hash_F,
    hash_G,
    mac_tag,
    mac_verify,
    random_f_seed,
    random_g_seed,
)
from .primitives import BasisString, BitString, ProtocolParams, RandomSource
from .qsim import ChannelModel, QubitSequence, transmit

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

    r = src.bits(params.kappa)
    k_prime = src.bits(params.tag_bits)
    tagged = mu + k_prime
    tau = mac_tag(keys.xi, tagged)
    c = code.encode(tagged + tau + r)
    x = c ^ keys.z
    qubits = QubitSequence.prepare(keys.b, x)
    return qubits, AliceRoundSecrets(r=r, k_prime=k_prime, x=x, c=c, tau=tau)


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

    x_prime = qubits.payload
    c_prime = x_prime ^ keys.z
    outcome = code.decode(c_prime)
    if not outcome.ok:
        return BobDecryption(omega=0, mu_hat=None, k_hat_prime=None, r_hat=None, x_hat=None)

    # payload = mu_hat + k_hat_prime + tau_hat + r_hat; the tag covers the
    # bits before tau_hat.
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
    results = []
    mismatches = 0
    key_agreement = True
    exhausted = None

    for i in range(rounds):
        mu = message_source(i) if message_source else msg_src.bits(params.mu_bits)

        qubits, secrets = alice_encrypt(params, keys, mu, alice_src, code)
        if isinstance(code, OracleBddCode):
            code.note_transmitted(secrets.c)
        received = transmit(channel, qubits, channel_src)

        dec = bob_decrypt(params, keys, received, code)
        consumed_before = reservoir.consumed_bits
        try:
            next_keys = key_update(
                params, keys, dec.omega, reservoir,
                x=secrets.x, r=secrets.r, k_next=secrets.k_prime,
            )
        except ReservoirExhausted as exc:
            exhausted = exc
            break
        if dec.omega:
            if dec.mu_hat != mu:
                mismatches += 1
            # Every encoder is injective, so x alone decides whether Bob's
            # (x, r, k') differs from Alice's and his own update must run.
            if dec.x_hat != secrets.x:
                key_agreement = next_keys == key_update(
                    params, keys, dec.omega, reservoir,
                    x=dec.x_hat, r=dec.r_hat, k_next=dec.k_hat_prime,
                )
        results.append(
            RoundResult(
                omega=dec.omega,
                mu_hat=dec.mu_hat if dec.omega else None,
                tau_fb=feedback_tag(keys, dec.omega),
                consumed_bits=reservoir.consumed_bits - consumed_before,
                errors_injected=int(
                    np.bitwise_xor(qubits.payloads, received.payloads).sum()
                ),
            )
        )
        keys = next_keys
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
