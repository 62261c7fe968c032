"""Batch front end: run sessions, sweep parameters, run attack demos.

Everything is seeded and emits JSON or CSV deterministically, so identical
invocations produce identical bytes. Exit codes: 0 success, 2 usage error,
3 reservoir exhaustion.
"""

from __future__ import annotations

import argparse
import dataclasses
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
from .ecc import CodeKind
from .hashing import REDUCTION_POLYS
from .primitives import Encoding, ProtocolParams
from .protocol import ReservoirExhausted, run_session
from .qsim import ChannelKind, ChannelModel

__all__ = ["main", "build_parser", "resolve_params", "resolve_budget"]

EXIT_USAGE = 2
EXIT_RESERVOIR = 3

DEFAULTS = {
    "n": 1024,
    "ell": None,
    "kappa": None,
    "lambda": 64,
    "beta": 0.125,
    "gamma": 0.0,
    "eta": 0.0,
    "alpha": 64,
    "q_bits": None,
    "encoding": "six-state",
    "code": "oracle",
    "rounds": 100,
    "seed": 0,
    "out": None,
}

_FALLBACK_TAGS = (64, 8)


class UsageError(Exception):
    pass


def _finite_float(text) -> float:
    value = float(text)
    if not math.isfinite(value):
        raise argparse.ArgumentTypeError(f"must be a finite number, got {text!r}")
    return value


def _probability(text) -> float:
    value = float(text)
    if not 0.0 <= value <= 1.0:
        raise argparse.ArgumentTypeError(f"must lie in [0, 1], got {text!r}")
    return value


def _integer(raw) -> int:
    """An integer from flag text or from a JSON number, which must be
    integral: int() would truncate 64.9."""
    if isinstance(raw, float):
        raise argparse.ArgumentTypeError(f"must be an integer, got {raw!r}")
    return int(raw)


_integer.__name__ = "int"


def _int_at_least(low: int):
    def convert(text) -> int:
        value = _integer(text)
        if value < low:
            raise argparse.ArgumentTypeError(f"must be at least {low}, got {text!r}")
        return value

    convert.__name__ = "int"
    return convert


def _name_of(enum_cls):
    def convert(text) -> str:
        try:
            return enum_cls.parse(text).value
        except ValueError as exc:
            raise argparse.ArgumentTypeError(str(exc)) from None

    convert.metavar = "{" + ",".join(kind.value for kind in enum_cls) + "}"
    return convert


# How each field is read, from a flag or from the config file.
_FIELD_TYPES = {
    "n": _integer,
    "ell": _integer,
    "kappa": _integer,
    "lambda": _integer,
    "beta": _finite_float,
    "gamma": _probability,
    "eta": _probability,
    "alpha": _finite_float,
    "q_bits": _integer,
    "encoding": _name_of(Encoding),
    "code": _name_of(CodeKind),
    "rounds": _int_at_least(1),
    "seed": _integer,
    "out": str,
}

# Fields whose config value is text; every other field takes a JSON number.
_TEXT_FIELDS = ("encoding", "code", "out")


def _merged(ns: argparse.Namespace) -> tuple[dict, set]:
    """Layer resolution: built-in defaults, then the config file, then flags.
    Also reports which keys the user set explicitly."""
    values = dict(DEFAULTS)
    explicit = set()
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
                if key not in _TEXT_FIELDS and (
                    isinstance(value, bool) or not isinstance(value, (int, float))
                ):
                    raise UsageError(f"config: field {key!r}: must be a JSON number, got {value!r}")
                try:
                    value = _FIELD_TYPES[key](value)
                except (TypeError, ValueError, argparse.ArgumentTypeError) as exc:
                    raise UsageError(f"config: field {key!r}: {exc}") from exc
            values[key] = value
            explicit.add(key)
    for key in values:
        flag = getattr(ns, key, None)
        if flag is not None:
            values[key] = flag
            explicit.add(key)
    return values, explicit


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
    encoding = Encoding.parse(values["encoding"])
    code_kind = CodeKind.parse(values["code"])
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
    try:
        return SecurityBudget(
            alpha=alpha,
            tag_bits=int(values["lambda"]),
            n=n,
            kappa=_sized_by_alpha(_default_kappa, n, alpha) if kappa is None else int(kappa),
            gamma=float(values["gamma"]),
            beta=float(values["beta"]),
            q_bits=_sized_by_alpha(min_q_bits, n, alpha) if q_bits is None else int(q_bits),
        )
    except ValueError as exc:
        raise UsageError(str(exc)) from exc


def _channel(values: dict) -> ChannelModel:
    if float(values["eta"]) > 0.0:
        return ChannelModel(ChannelKind.INTERCEPT_RESEND, eta=float(values["eta"]))
    return ChannelModel(ChannelKind.IID_FLIP, gamma=float(values["gamma"]))


def _dump(obj: dict) -> str:
    return json.dumps(obj, sort_keys=True)


def _open_out(path: str):
    try:
        return open(path, "w")
    except OSError as exc:
        raise UsageError(f"out: cannot write {path}: {exc}") from exc


def _emit(text: str, path) -> None:
    if path:
        with _open_out(path) as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def cmd_run(ns: argparse.Namespace) -> int:
    values, explicit = _merged(ns)
    params, code_kind = resolve_params(values, explicit)
    channel = _channel(values)
    rounds = int(values["rounds"])

    session = run_session(
        params,
        channel,
        code_kind,
        rounds,
        int(values["seed"]),
        reservoir_capacity=getattr(ns, "reservoir_capacity", None),
    )

    out_path = values["out"] or "rounds.jsonl"
    with _open_out(out_path) as fh:
        for result in session.results:
            fh.write(_dump(result.to_json()) + "\n")

    config_echo = {
        "n": params.n,
        "ell": params.ell,
        "kappa": params.kappa,
        "lambda": params.tag_bits,
        "beta": params.beta,
        "gamma": float(values["gamma"]),
        "eta": float(values["eta"]),
        "q_bits": params.q_bits,
        "encoding": params.encoding.value,
        "code": code_kind.value,
        "rounds": rounds,
        "seed": int(values["seed"]),
        "rounds_file": out_path,
    }
    print(_dump({"config": config_echo, "summary": session.summary.to_json()}))
    return 0


_SWEEP_COLUMNS = [
    "rate",
    "p_corr",
    "log2_bound_total",
    "log2_term_tag",
    "log2_term_reject",
    "log2_term_accept",
]


def _sweep_rows(variable: str, start: float, stop: float, steps: int, budget: SecurityBudget):
    for i in range(steps):
        frac = i / (steps - 1)
        value = start + frac * (stop - start)
        if variable == "gamma":
            budget_kwargs = {"gamma": value}
        elif variable == "n":
            value = int(round(value))
            budget_kwargs = {"n": value}
        else:
            value = int(round(value))
            budget_kwargs = {"q_bits": value}
        try:
            point = dataclasses.replace(budget, **budget_kwargs)
            rate = asymptotic_rate_6state(point.gamma)
            report = diamond_bound(point)
        except (ValueError, RuntimeError) as exc:
            print(f"note: skipping {variable}={value}: {exc}", file=sys.stderr)
            continue
        yield value, [
            rate,
            report.p_corr,
            report.log2_total,
            report.log2_term_tag,
            report.log2_term_reject,
            report.log2_term_accept,
        ]


def cmd_sweep(ns: argparse.Namespace) -> int:
    values, _ = _merged(ns)
    if values["encoding"] == Encoding.BB84.value:
        raise UsageError("encoding: sweep evaluates the six-state formulas only, got bb84")
    budget = resolve_budget(values)
    if ns.steps < 2:
        raise UsageError("steps must be at least 2")
    lines = [",".join([ns.variable] + _SWEEP_COLUMNS)]
    for value, columns in _sweep_rows(ns.variable, ns.start, ns.stop, ns.steps, budget):
        cells = [f"{value:.10g}"] + [f"{c:.10g}" for c in columns]
        lines.append(",".join(cells))
    _emit("\n".join(lines) + "\n", values["out"])
    return 0


def cmd_attack(ns: argparse.Namespace) -> int:
    values, explicit = _merged(ns)
    if ns.attack_kind == "intercept_resend":
        session_rounds = int(ns.session_rounds)
        params = None
        code_kind = CodeKind.ORACLE
        if session_rounds > 0:
            params, code_kind = resolve_params(values, explicit)
        report = intercept_resend_report(
            Encoding.parse(values["encoding"]),
            float(values["eta"]),
            int(ns.qubits),
            int(values["seed"]),
            params=params,
            code_kind=code_kind,
            session_rounds=session_rounds,
        )
    else:
        fuzz_rounds = int(values["rounds"]) if "rounds" in explicit else 1_000_000
        report = tamper_fuzz(
            rounds=fuzz_rounds,
            seed=int(values["seed"]),
            flip_rate=float(ns.flip_rate),
        )
    _emit(_dump(report) + "\n", values["out"])
    return 0


def _add_common(parser: argparse.ArgumentParser) -> None:
    for key, convert in _FIELD_TYPES.items():
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
    p_run.add_argument("--reservoir-capacity", dest="reservoir_capacity", type=_int_at_least(0))
    _add_common(p_run)
    p_run.set_defaults(func=cmd_run)

    p_sweep = sub.add_parser("sweep", help="tabulate rate, p_corr and bound terms")
    p_sweep.add_argument("variable", choices=["gamma", "n", "q_bits"])
    p_sweep.add_argument("--start", type=_finite_float, required=True)
    p_sweep.add_argument("--stop", type=_finite_float, required=True)
    p_sweep.add_argument("--steps", type=int, required=True)
    _add_common(p_sweep)
    p_sweep.set_defaults(func=cmd_sweep)

    p_attack = sub.add_parser("attack", help="run an adversary demo")
    p_attack.add_argument("attack_kind", choices=["intercept_resend", "tamper_fuzz"])
    p_attack.add_argument("--qubits", type=_int_at_least(1), default=100000)
    p_attack.add_argument(
        "--session-rounds", dest="session_rounds", type=_int_at_least(0), default=200
    )
    p_attack.add_argument("--flip-rate", dest="flip_rate", type=_probability, default=0.3)
    _add_common(p_attack)
    p_attack.set_defaults(func=cmd_attack)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    ns = parser.parse_args(argv)
    try:
        return ns.func(ns)
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except ReservoirExhausted as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_RESERVOIR


if __name__ == "__main__":
    sys.exit(main())
