"""Per-layer probes for the cases of ROADMAP aim 1 that no workload reaches.

Each probe calls one public qkr function on fixed inputs drawn from the
benchmark seed and reports the median time of one call, in microseconds,
over several batches. Probes run untraced.
"""

from __future__ import annotations

import statistics
import time

BATCH_S = 0.02
BATCHES = 5


def _us_per_call(fn) -> float:
    fn()
    reps = 1
    while True:
        start = time.perf_counter()
        for _ in range(reps):
            fn()
        elapsed = time.perf_counter() - start
        if elapsed >= BATCH_S:
            break
        reps *= 2
    samples = [elapsed / reps]
    for _ in range(BATCHES - 1):
        start = time.perf_counter()
        for _ in range(reps):
            fn()
        samples.append((time.perf_counter() - start) / reps)
    return statistics.median(samples) * 1e6


def run_probes(seed: int) -> dict:
    from qkr import cli, ecc, hashing, protocol, qsim
    from qkr.primitives import BitString, RandomSource

    src = RandomSource(seed, "perfbench/probes")
    probes = {}
    params, _ = cli.resolve_params(dict(cli.DEFAULTS, gamma=0.05))

    # The two hash_F components at the CLI defaults (n=1024, six-state).
    for modulus, (in_len, out_len) in zip(
        (2, 3), hashing.f_seed_shapes(params.n, params.kappa, params.alphabet_size)
    ):
        seed_ = hashing.ToeplitzSeed.random(src, modulus, in_len, out_len)
        values = src.integers_below(modulus, in_len)
        probes[f"probe.toeplitz.gf{modulus}.us"] = _us_per_call(lambda: seed_.apply(values))

    message = src.bits(531)
    for tag_bits in (8, 64, 128):
        key = hashing.MacKey.random(src, tag_bits)
        probes[f"probe.mac.lambda{tag_bits}.us"] = _us_per_call(
            lambda: hashing.mac_tag(key, message)
        )

    # repetition3 needs n divisible by 3.
    for kind, n in (("identity", 1024), ("repetition3", 1023), ("oracle", 1024)):
        code_params, code_kind = cli.resolve_params(dict(cli.DEFAULTS, n=n, gamma=0.05, code=kind))
        code = ecc.make_code(code_kind, code_params)
        word = code.encode(src.bits(code.spec.k_in))
        received = word ^ BitString(src.bernoulli(0.05, n))
        if isinstance(code, ecc.OracleBddCode):
            code.note_transmitted(word)
        payload = src.bits(code.spec.k_in)
        probes[f"probe.ecc.{kind}.encode.us"] = _us_per_call(lambda: code.encode(payload))
        probes[f"probe.ecc.{kind}.decode.us"] = _us_per_call(lambda: code.decode(received))

    qubits = qsim.QubitSequence.prepare(src.basis_string(3, params.n), src.bits(params.n))
    for channel in (
        qsim.ChannelModel(qsim.ChannelKind.IID_FLIP, gamma=0.05),
        qsim.ChannelModel(qsim.ChannelKind.INTERCEPT_RESEND, eta=0.3),
    ):
        channel_src = src.stream(channel.kind.value)
        probes[f"probe.qsim.transmit.{channel.kind.value}.us"] = _us_per_call(
            lambda: qsim.transmit(channel, qubits, channel_src)
        )

    keys = protocol.KeyState.random(params, src.stream("keys"))
    reservoir = protocol.Reservoir(src.stream("reservoir"))
    x, r, k_next = src.bits(params.n), src.bits(params.kappa), src.bits(params.tag_bits)
    probes["probe.key_update.accept.us"] = _us_per_call(
        lambda: protocol.key_update(params, keys, 1, reservoir, x=x, r=r, k_next=k_next)
    )
    probes["probe.key_update.reject.us"] = _us_per_call(
        lambda: protocol.key_update(params, keys, 0, reservoir)
    )
    return probes
