"""Pluggable linear error correction.

Three code kinds cover the simulation's needs:

* identity    - no redundancy, no correction; the noiseless baseline.
* repetition3 - codeword is three concatenated copies of the payload;
                decoding takes a per-position majority across the copies and
                never signals failure.
* oracle      - a bounded-distance test double. The decoder compares the
                received word against the codeword actually transmitted this
                round (registered by the simulation harness, never by a
                protocol party) and succeeds exactly when at most t positions
                differ. This realizes the idealized "corrects any pattern of
                up to t errors" abstraction that the accept-probability
                formula assumes.

All encoders are linear and systematic: the first k_in codeword bits equal
the payload.

Each code implements `_encode` and `_decode` on uint8 bit arrays, with None
for a failed decode; a session's rounds call them directly. The public
`encode` and `decode` check the word's length and wrap the result in a
`BitString` and a `DecodeOutcome`.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import Optional

import numpy as np

from .primitives import BitString, ProtocolParams

__all__ = ["CodeKind", "CodeSpec", "DecodeOutcome", "Code", "make_code"]


class CodeKind(Enum):
    IDENTITY = "identity"
    REPETITION3 = "repetition3"
    ORACLE = "oracle"


@dataclass(frozen=True)
class CodeSpec:
    k_in: int
    n_out: int
    t: int
    kind: CodeKind

    def __post_init__(self):
        k_in, n, t = self.k_in, self.n_out, self.t
        if k_in > n:
            raise ValueError(f"code needs k_in <= n, got n={n}, k_in={k_in}")
        if t > n // 2:
            raise ValueError(f"code needs t <= n/2, got n={n}, t={t}")
        if self.kind is CodeKind.IDENTITY and (t != 0 or k_in != n):
            raise ValueError(f"identity needs n = k_in and t = 0, got n={n}, k_in={k_in}, t={t}")
        if self.kind is CodeKind.REPETITION3 and n != 3 * k_in:
            raise ValueError(f"repetition3 needs n = 3*k_in, got n={n}, k_in={k_in}")


@dataclass(frozen=True)
class DecodeOutcome:
    """Either a recovered payload or a failure notification, never both."""

    payload: Optional[BitString]

    @property
    def ok(self) -> bool:
        return self.payload is not None


class Code:
    """Encode/decode behind one CodeSpec."""

    def __init__(self, spec: CodeSpec):
        self.spec = spec

    def encode(self, payload: BitString) -> BitString:
        if len(payload) != self.spec.k_in:
            raise ValueError(f"payload must have length {self.spec.k_in}")
        return BitString._trusted(self._encode(payload.bits), 2)

    def decode(self, received: BitString) -> DecodeOutcome:
        if len(received) != self.spec.n_out:
            raise ValueError(f"received word must have length {self.spec.n_out}")
        payload = self._decode(received.bits)
        return DecodeOutcome(None if payload is None else BitString._trusted(payload, 2))

    def _encode(self, payload: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    def _decode(self, received: np.ndarray) -> Optional[np.ndarray]:
        raise NotImplementedError


class IdentityCode(Code):
    def _encode(self, payload):
        return payload

    def _decode(self, received):
        return received


class Repetition3Code(Code):
    def _encode(self, payload):
        return np.tile(payload, 3)

    def _decode(self, received):
        copies = received.reshape(3, self.spec.k_in)
        return (copies.sum(axis=0) >= 2).astype(np.uint8)


class OracleBddCode(Code):
    """Bounded-distance decoding against the true transmitted codeword.

    `note_transmitted` is the harness side channel; the parties only ever
    call encode/decode.
    """

    def __init__(self, spec: CodeSpec):
        super().__init__(spec)
        self._transmitted: Optional[np.ndarray] = None

    def note_transmitted(self, codeword: BitString) -> None:
        if len(codeword) != self.spec.n_out:
            raise ValueError(f"codeword must have length {self.spec.n_out}")
        self._note(codeword.bits)

    def _note(self, codeword: np.ndarray) -> None:
        """`note_transmitted` on a bit array of length n_out."""
        self._transmitted = codeword

    def _encode(self, payload):
        # Zero padding keeps the map linear and systematic; the parity
        # content is irrelevant because decoding consults the true codeword.
        codeword = np.zeros(self.spec.n_out, dtype=np.uint8)
        codeword[: self.spec.k_in] = payload
        return codeword

    def _decode(self, received):
        if self._transmitted is None:
            raise RuntimeError("oracle decoder has no transmitted codeword registered")
        if np.count_nonzero(received != self._transmitted) <= self.spec.t:
            return self._transmitted[: self.spec.k_in]
        return None


# A new code is a `CodeKind` member, its class and one row here.
_CODES = {CodeKind.IDENTITY: IdentityCode, CodeKind.REPETITION3: Repetition3Code,
          CodeKind.ORACLE: OracleBddCode}


def make_code(kind: CodeKind, params: ProtocolParams) -> Code:
    """The code of `kind` for a run; `CodeSpec` refuses a shape it cannot take."""
    t = 0 if kind is CodeKind.IDENTITY else params.t
    return _CODES[kind](CodeSpec(k_in=params.payload_bits, n_out=params.n, t=t, kind=kind))
