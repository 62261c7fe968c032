"""Desk-scale laboratory for qubit-based quantum key recycling.

Simulates the full prepare-and-measure protocol over noisy and adversarial
qubit channels, and evaluates the associated security bounds, rates, and
key-expenditure arithmetic.
"""

from .analysis import (
    BoundReport,
    SecurityBudget,
    asymptotic_rate_6state,
    binary_entropy,
    diamond_bound,
    entropy_multi,
    min_q_bits,
    p_corr,
    reject_expenditure,
    required_redundancy,
)
from .ecc import Code, CodeKind, CodeSpec, DecodeOutcome, make_code
from .hashing import MacKey, ToeplitzSeed, hash_F, hash_G, mac_tag, mac_verify
from .primitives import (
    BasisString,
    BitString,
    Encoding,
    ProtocolParams,
    RandomSource,
    TritString,
)
from .protocol import (
    KeyState,
    Reservoir,
    ReservoirExhausted,
    RoundResult,
    SessionResult,
    alice_encrypt,
    bob_decrypt,
    feedback_tag,
    alice_check_feedback,
    key_update,
    run_session,
)
from .qsim import (
    ChannelKind,
    ChannelModel,
    QubitSequence,
    transmit,
)

__version__ = "0.1.0"
