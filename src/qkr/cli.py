"""Batch front end: run sessions, sweep parameters, run attack demos.

Everything is seeded and emits JSON or CSV deterministically, so identical
invocations produce identical bytes. Exit codes: 0 success, 2 usage error,
3 reservoir exhaustion.
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
import json
import math
import sys

from .analysis import (
    SecurityBudget,
    asymptotic_rate_6state,
    diamond_bound,
    min_q_bits,
    required_redundancy,
)
from .attacks import intercept_resend_report, tamper_fuzz
from .ecc import CodeKind, make_code
from .hashing import REDUCTION_POLYS
from .primitives import Encoding, ProtocolParams
from .protocol import run_session
from .qsim import ChannelKind, ChannelModel

__all__ = ["main", "build_parser", "resolve_params", "resolve_budget"]

EXIT_USAGE = 2
EXIT_RESERVOIR = 3

_FALLBACK_TAGS = (64, 8)

# Largest n, kappa or q_bits a run accepts, and the largest base n of a sweep.
MAX_RUN_SIZE = 2**32

# The least int that float() cannot convert; the bound is evaluated in floats.
_FLOAT_OVERFLOW = 2**1024 - 2**970


class UsageError(Exception):
    pass


def _number(parse, low=None, high=None):
    """`parse` (int or float) of flag text or of a JSON number, refusing in
    turn: a JSON float for an int (int() would truncate 64.9), a value
    outside [low, high], a float that is not finite, a value below `low`.
    argparse names it as `parse`."""

    def convert(raw):
        if parse is int and isinstance(raw, float):
            raise argparse.ArgumentTypeError(f"must be an integer, got {raw!r}")
        value = parse(raw)
        if high is not None and not low <= value <= high:
            raise argparse.ArgumentTypeError(f"must lie in [{low}, {high}], got {raw!r}")
        if isinstance(value, float) and not math.isfinite(value):
            raise argparse.ArgumentTypeError(f"must be a finite number, got {raw!r}")
        if low is not None and value < low:
            raise argparse.ArgumentTypeError(f"must be at least {low}, got {raw!r}")
        return value

    convert.__name__ = parse.__name__
    return convert


def _name_of(enum_cls, what: str):
    """The one check of a flag or config name of `enum_cls`'s members."""
    names = [kind.value for kind in enum_cls]

    def convert(text) -> str:
        if text not in names:
            expected = ", ".join(names[:-1]) + " or " + names[-1]
            raise argparse.ArgumentTypeError(f"unknown {what} {text!r} (expected {expected})")
        return text

    convert.metavar = "{" + ",".join(names) + "}"
    return convert


# Each field's default and how it is read, from a flag or from the config file.
_FIELDS = {
    "n": (1024, _number(int, low=1)),
    "ell": (None, _number(int)),
    "kappa": (None, _number(int)),
    "lambda": (None, _number(int)),
    "beta": (0.125, _number(float)),
    "gamma": (0.0, _number(float, 0, 1)),
    "eta": (0.0, _number(float, 0, 1)),
    "alpha": (64, _number(float, low=1)),
    "q_bits": (None, _number(int)),
    "encoding": ("six-state", _name_of(Encoding, "encoding")),
    "code": ("oracle", _name_of(CodeKind, "code")),
    "rounds": (100, _number(int, low=1)),
    "seed": (0, _number(int)),
    "out": (None, str),
}

DEFAULTS = {key: default for key, (default, _) in _FIELDS.items()}

# Fields whose config value is a JSON string; every other field takes a JSON number.
_TEXT_FIELDS = ("encoding", "code", "out")

# The fields each command reads besides `run`, which reads them all. A flag
# its command does not read is a usage error.
_SWEEP_FIELDS = ("n", "kappa", "lambda", "beta", "gamma", "alpha", "q_bits", "out")
_INTERCEPT_FIELDS = ("encoding", "eta", "seed", "out")
_FUZZ_FIELDS = ("rounds", "seed", "out")


def _merged(ns: argparse.Namespace) -> dict:
    """Layer resolution: built-in defaults, then the config file, then flags.
    A config's null is taken only for a field whose default is unset, and
    leaves it unset."""
    values = dict(DEFAULTS)
    config_path = getattr(ns, "config", None)
    if config_path:
        try:
            with open(config_path) as fh:
                config = json.load(fh)
        except (OSError, json.JSONDecodeError) as exc:
            raise UsageError(f"config: cannot read {config_path}: {exc}") from exc
        if not isinstance(config, dict):
            raise UsageError(f"config: {config_path} must hold a JSON object")
        for key, value in config.items():
            if key not in values:
                raise UsageError(f"config: unknown field {key!r}")
            if value is not None or DEFAULTS[key] is not None:
                kind, types = ("string", str) if key in _TEXT_FIELDS else ("number", (int, float))
                if isinstance(value, bool) or not isinstance(value, types):
                    raise UsageError(f"config: field {key!r}: must be a JSON {kind}, got {value!r}")
                try:
                    value = _FIELDS[key][1](value)
                except (TypeError, ValueError, OverflowError, argparse.ArgumentTypeError) as exc:
                    raise UsageError(f"config: field {key!r}: {exc}") from exc
            values[key] = value
    for key in values:
        flag = getattr(ns, key, None)
        if flag is not None:
            values[key] = flag
    return values


def _default_kappa(n: int, alpha: float) -> int:
    return math.ceil(2.0 * (alpha + 15.0 * math.log2(n + 1)))


def _size(values: dict, key: str, rule) -> int:
    """The field's value if set, else `rule(n, alpha)` (kappa or q_bits); an
    alpha the rule derives no finite size from is a usage error."""
    if values[key] is not None:
        return int(values[key])
    n, alpha = int(values["n"]), float(values["alpha"])
    try:
        return rule(n, alpha)
    except (OverflowError, ValueError) as exc:
        raise UsageError(f"{key}: cannot derive from n={n} and alpha={alpha:g}: {exc}") from None


def _run_size(key: str, size: int) -> int:
    """`size`, or a usage error above MAX_RUN_SIZE: a session allocates
    strings of this length, and the bound is evaluated in floats."""
    if size > MAX_RUN_SIZE:
        raise UsageError(
            f"{key}: must be at most 2^32 to run, got a {size.bit_length()}-bit number"
        )
    return size


def _tag_bits(lam) -> int:
    """`lam`, 64 when unset, or a usage error unless a MAC is defined at
    that tag length."""
    lam = _FALLBACK_TAGS[0] if lam is None else int(lam)
    if lam not in REDUCTION_POLYS:
        raise UsageError(f"lambda: must be one of {sorted(REDUCTION_POLYS)}, got {lam}")
    return lam


def resolve_params(values: dict) -> tuple[ProtocolParams, CodeKind]:
    """Derive, in order, the payload width k_in = ell + kappa, the tag length
    (when unset, the largest that k_in can host), kappa, ell and q_bits. The
    code's shape rules are checked by building it with `ecc.make_code`."""
    encoding = Encoding(values["encoding"])
    code_kind = CodeKind(values["code"])
    n = _run_size("n", int(values["n"]))
    ell, kappa = (None if values[key] is None else int(values[key]) for key in ("ell", "kappa"))

    if ell is not None and kappa is not None:
        k_in, source = ell + kappa, "ell + kappa"
    elif code_kind is CodeKind.IDENTITY:
        k_in, source = n, f"the identity code at n={n}"
    elif code_kind is CodeKind.REPETITION3:
        k_in, source = n // 3, f"the repetition3 code at n={n}"
    else:
        gamma = float(values["gamma"])
        k_in = n - math.ceil(required_redundancy(n, min(gamma, 0.5 - 1e-9)))
        source = f"the oracle code at n={n} and gamma={gamma:g}"

    if values["lambda"] is not None:
        lam = _tag_bits(values["lambda"])
    else:
        lam = next((tag for tag in _FALLBACK_TAGS if k_in > 2 * tag), None)
        if lam is None:
            least = _FALLBACK_TAGS[-1]
            raise UsageError(
                f"payload: {source} leaves {k_in} bits; the smallest that hosts a tag "
                f"is {2 * least + 1} bits, for lambda {least}"
            )

    if kappa is None:
        kappa = (
            k_in - ell
            if ell is not None
            else max(0, min(_size(values, "kappa", _default_kappa), k_in - (2 * lam + 1)))
        )
    if ell is None:
        ell = k_in - kappa

    try:
        params = ProtocolParams(
            n=n,
            ell=ell,
            kappa=_run_size("kappa", kappa),
            tag_bits=lam,
            beta=float(values["beta"]),
            encoding=encoding,
            q_bits=_run_size("q_bits", _size(values, "q_bits", min_q_bits)),
        )
        make_code(code_kind, params)
    except ValueError as exc:
        raise UsageError(str(exc)) from exc
    if values["lambda"] is None and lam != _FALLBACK_TAGS[0]:
        print(f"note: lambda lowered to {lam} to fit {k_in} payload bits", file=sys.stderr)
    return params, code_kind


def resolve_budget(values: dict) -> SecurityBudget:
    try:
        budget = SecurityBudget(
            tag_bits=_tag_bits(values["lambda"]),
            n=_run_size("n", int(values["n"])),
            kappa=_size(values, "kappa", _default_kappa),
            gamma=float(values["gamma"]),
            beta=float(values["beta"]),
            q_bits=_size(values, "q_bits", min_q_bits),
        )
    except ValueError as exc:
        raise UsageError(str(exc)) from exc
    for key, size in (("kappa", budget.kappa), ("q_bits", budget.q_bits)):
        if size >= _FLOAT_OVERFLOW:
            raise UsageError(f"{key}: too large to evaluate, got a {size.bit_length()}-bit number")
    return budget


def _channel(values: dict) -> ChannelModel:
    if values["eta"] > 0.0:
        return ChannelModel(ChannelKind.INTERCEPT_RESEND, eta=values["eta"])
    return ChannelModel(ChannelKind.IID_FLIP, gamma=values["gamma"])


def _dump(obj: dict) -> str:
    return json.dumps(obj, sort_keys=True)


def _emit(text: str, path) -> None:
    """Write `text` to stdout, or replace the file at `path` with it."""
    if not path:
        sys.stdout.write(text)
        return
    try:
        with open(path, "w") as fh:
            fh.write(text)
    except OSError as exc:
        raise UsageError(f"out: cannot write {path}: {exc}") from exc


def _round_line(result) -> str:
    """One line of the rounds file: the round's JSON object, with the bytes
    that `json.dumps(..., sort_keys=True)` gives (keys sorted, ", " and ": "
    separators), formatted directly. Every value is an int, a hex string
    or null, so nothing needs escaping."""
    mu_hat = result.mu_hat
    if mu_hat is None:
        mu_fields = '"mu_hat": null, "mu_hat_bits": null'
    else:
        mu_fields = f'"mu_hat": "{mu_hat.to_hex()}", "mu_hat_bits": {len(mu_hat)}'
    return (
        f'{{"consumed_bits": {result.consumed_bits}, '
        f'"errors_injected": {result.errors_injected}, {mu_fields}, '
        f'"omega": {result.omega}, "tau_fb": "{result.tau_fb.to_hex()}"}}\n'
    )


def cmd_run(ns: argparse.Namespace) -> int:
    values = _merged(ns)
    params, code_kind = resolve_params(values)
    channel = _channel(values)
    rounds = values["rounds"]
    out_path = values["out"] or "rounds.jsonl"

    session = run_session(
        params,
        channel,
        code_kind,
        rounds,
        values["seed"],
        reservoir_capacity=ns.reservoir_capacity,
    )
    _emit("".join(map(_round_line, session.results)), out_path)
    if session.exhausted is not None:
        print(
            f"error: {session.exhausted}; {len(session.results)} of {rounds} rounds completed",
            file=sys.stderr,
        )
        return EXIT_RESERVOIR

    config_echo = {
        "n": params.n,
        "ell": params.ell,
        "kappa": params.kappa,
        "lambda": params.tag_bits,
        "beta": params.beta,
        "gamma": values["gamma"],
        "eta": values["eta"],
        "q_bits": params.q_bits,
        "encoding": params.encoding.value,
        "code": code_kind.value,
        "rounds": rounds,
        "seed": values["seed"],
        "rounds_file": out_path,
    }
    print(_dump({"config": config_echo, "summary": dataclasses.asdict(session.summary)}))
    return 0


def cmd_sweep(ns: argparse.Namespace) -> int:
    variable, start, stop, steps = ns.variable, ns.start, ns.stop, ns.steps
    # Every row sets the swept gamma or q_bits; the base n sizes kappa and q_bits.
    if variable != "n" and getattr(ns, variable) is not None:
        flag = "--" + variable.replace("_", "-")
        raise UsageError(f"{flag}: not read by sweep {variable}, which sets it on every row")
    values = _merged(ns)
    budget = resolve_budget(values)
    if variable == "n":
        # The grid is monotone, so its largest n is at an end; the last point
        # is computed as start + (stop - start), which need not equal stop.
        _run_size("n", int(round(max(start, start + (stop - start)))))
    lines = [f"{variable},rate,p_corr,log2_bound_total,log2_term_tag,log2_term_reject,"
             "log2_term_accept"]
    for i in range(steps):
        value = start + i / (steps - 1) * (stop - start)
        if variable != "gamma":
            value = int(round(value))
        try:
            point = dataclasses.replace(budget, **{variable: value})
            report = diamond_bound(point)
        except ValueError as exc:
            print(f"note: skipping {variable}={value}: {exc}", file=sys.stderr)
            continue
        row = [value, asymptotic_rate_6state(point.gamma), report.p_corr, report.log2_total,
               report.log2_term_tag, report.log2_term_reject, report.log2_term_accept]
        lines.append(",".join(f"{cell:.10g}" for cell in row))
    _emit("\n".join(lines) + "\n", values["out"])
    return 0


def cmd_intercept_resend(ns: argparse.Namespace) -> int:
    """The channel's induced error rate; `run --eta` runs a session under
    the same attack."""
    values = _merged(ns)
    report = intercept_resend_report(
        Encoding(values["encoding"]), values["eta"], ns.qubits, values["seed"]
    )
    _emit(_dump(report) + "\n", values["out"])
    return 0


def cmd_tamper_fuzz(ns: argparse.Namespace) -> int:
    values = _merged(ns)
    report = tamper_fuzz(rounds=values["rounds"], seed=values["seed"], flip_rate=ns.flip_rate)
    _emit(_dump(report) + "\n", values["out"])
    return 0


def _add_common(parser: argparse.ArgumentParser, fields) -> None:
    for key in fields:
        convert = _FIELDS[key][1]
        metavar = getattr(convert, "metavar", None)
        parser.add_argument("--" + key.replace("_", "-"), dest=key, type=convert, metavar=metavar)


class _Parser(argparse.ArgumentParser):
    """Reports a bad command line as a single usage-error line."""

    def error(self, message):
        self.exit(EXIT_USAGE, f"usage error: {message}\n")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="qkr",
        description="Quantum key recycling laboratory: sessions, sweeps, attack demos.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="execute a simulated session")
    p_run.add_argument("--config", help="JSON file mirroring the flags")
    p_run.add_argument("--reservoir-capacity", dest="reservoir_capacity", type=_number(int, low=0))
    _add_common(p_run, _FIELDS)
    p_run.set_defaults(func=cmd_run)

    p_sweep = sub.add_parser("sweep", help="tabulate rate, p_corr and bound terms")
    p_sweep.add_argument("variable", choices=["gamma", "n", "q_bits"])
    p_sweep.add_argument("--start", type=_number(float), required=True)
    p_sweep.add_argument("--stop", type=_number(float), required=True)
    p_sweep.add_argument("--steps", type=_number(int, low=2), required=True)
    _add_common(p_sweep, _SWEEP_FIELDS)
    p_sweep.set_defaults(func=cmd_sweep)

    p_attack = sub.add_parser("attack", help="run an adversary demo")
    kinds = p_attack.add_subparsers(dest="attack_kind", required=True)

    p_intercept = kinds.add_parser("intercept_resend", help="measure induced errors")
    p_intercept.add_argument("--qubits", type=_number(int, low=1), default=100000)
    _add_common(p_intercept, _INTERCEPT_FIELDS)
    p_intercept.set_defaults(func=cmd_intercept_resend)

    p_fuzz = kinds.add_parser("tamper_fuzz", help="count forged accepts")
    p_fuzz.add_argument("--flip-rate", dest="flip_rate", type=_number(float, 0, 1), default=0.3)
    _add_common(p_fuzz, _FUZZ_FIELDS)
    p_fuzz.set_defaults(func=cmd_tamper_fuzz, rounds=1_000_000)

    return parser


# One parser per process, built on first use rather than at import, where
# it would add to the start-up of every import; parse_args keeps no state
# between calls.
_parser = functools.cache(build_parser)


def main(argv=None) -> int:
    ns = _parser().parse_args(argv)
    try:
        return ns.func(ns)
    except (UsageError, MemoryError) as exc:
        print(f"usage error: {str(exc) or 'out of memory'}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
