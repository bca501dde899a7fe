"""Batch command-line front end.

Subcommands: construct, verify, analyze, search, simulate. Every run echoes
its resolved configuration in the output metadata, embeds the tool version
and (where a field is involved) the field modulus, and is byte-for-byte
deterministic given its flags and seed. Exit codes: 0 = pass/found, 1 =
verified failure or nothing found, 2 = usage, parameter, or I/O error.
"""

from __future__ import annotations

import argparse
import csv
import functools
import json
import os
import sys
from pathlib import Path

from . import __version__
from .analysis import (
    cyclic_report,
    exhaustive_burst_random_search,
    exhaustive_code_search,
    random_field_lower_bound,
    rate_report,
    resolve_workers,
    sparse_field_lower_bound,
    sparsity_minimum,
)
from .channel import ChannelParams, check_wraparound, is_b1b2_code
from .codes import (
    LinearCode,
    construction_one,
    construction_one_binary,
    cyclic_from_h,
    mds_code,
)
from .errors import BadParameters, ErasureLabError
from .streaming import (
    GilbertElliottSource,
    PeriodicSource,
    StreamingParams,
    simulate,
    verify_streaming_code,
)


# ---------------------------------------------------------------------------
# output plumbing
# ---------------------------------------------------------------------------


def _scalar(v) -> str:
    if v is None:
        return ""
    if v is True:
        return "true"
    if v is False:
        return "false"
    return str(v)


def _flatten(prefix: str, value, rows: list[tuple[str, str]]) -> None:
    if isinstance(value, dict):
        for k in sorted(value):
            _flatten(f"{prefix}.{k}" if prefix else str(k), value[k], rows)
    elif isinstance(value, (list, tuple)):
        if all(not isinstance(x, (dict, list, tuple)) for x in value):
            rows.append((prefix, " ".join(_scalar(x) for x in value)))
        else:
            for i, x in enumerate(value):
                _flatten(f"{prefix}.{i}", x, rows)
    else:
        rows.append((prefix, _scalar(value)))


def _emit(payload: dict, fmt: str) -> None:
    if fmt == "json":
        print(json.dumps(payload, indent=2, sort_keys=True))
        return
    rows: list[tuple[str, str]] = []
    _flatten("", payload, rows)
    if fmt == "csv":
        writer = csv.writer(sys.stdout, lineterminator="\n")
        writer.writerow(["key", "value"])
        writer.writerows(rows)
        return
    width = max((len(k) for k, _ in rows), default=0)
    for k, v in rows:
        print(f"{k.ljust(width)}  {v}")


def _meta(command: str, args: argparse.Namespace, field=None, **extra) -> dict:
    config = {k: v for k, v in sorted(vars(args).items()) if not callable(v)}
    meta = {
        "tool": "erasurelab",
        "version": __version__,
        "command": command,
        "config": config,
    }
    if field is not None:
        meta["field"] = field.to_json()
    meta.update(extra)
    return meta


def _require(args: argparse.Namespace, *names: str) -> None:
    missing = [n for n in names if getattr(args, n) is None]
    if missing:
        flags = ", ".join("--" + n.replace("_", "-") for n in missing)
        raise BadParameters(f"missing required flags: {flags}")


def _reject_unread(args: argparse.Namespace, mode: str, reads: str, flags: str) -> None:
    """BadParameters when one of flags is given that mode does not read."""
    unread = [n for n in flags.split() if n not in reads.split() and getattr(args, n) is not None]
    if unread:
        names = ", ".join("--" + n.replace("_", "-") for n in unread)
        raise BadParameters(f"{mode} does not read {names}")


def _load_code(path: str) -> LinearCode:
    try:
        doc = json.loads(Path(path).read_text())
    except (ValueError, RecursionError) as exc:  # a file nested too deep to parse
        raise BadParameters(f"malformed code file {path}: {exc}") from exc
    try:
        return LinearCode.from_json(doc)
    except (KeyError, TypeError) as exc:
        raise BadParameters(f"malformed code file {path}: {exc!r}") from exc


def _write_code(code: LinearCode, path: str) -> None:
    Path(path).write_text(json.dumps(code.to_json(), indent=2, sort_keys=True) + "\n")


def _streaming_params(args: argparse.Namespace) -> StreamingParams:
    _require(args, "a", "b", "e", "w")
    tau = args.tau if args.tau is not None else args.w - 1
    return StreamingParams(ChannelParams(args.a, args.b, args.e, args.w), tau)


def _cyclic_code(args: argparse.Namespace) -> LinearCode:
    _require(args, "n", "q", "h")
    try:
        coeffs = tuple(int(x) for x in args.h.split(","))
    except ValueError as exc:
        raise BadParameters(f"bad coefficient list {args.h!r}") from exc
    return cyclic_from_h(args.n, args.q, coeffs)


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------


def _cmd_construct(args) -> tuple[dict, int]:
    scheme = args.scheme
    reads = {"c1": "n b1 b2 q", "c1bin": "n b1 b2", "mds": "n r q", "cyclic": "n q h"}
    _reject_unread(args, f"--scheme {scheme}", reads[scheme], "n b1 b2 r q h")
    if scheme == "c1":
        _require(args, "n", "b1", "b2")
        code = construction_one(args.n, args.b1, args.b2, q=args.q)
    elif scheme == "c1bin":
        _require(args, "n", "b1", "b2")
        code = construction_one_binary(args.n, args.b1, args.b2)
    elif scheme == "mds":
        _require(args, "n", "r")
        code = mds_code(args.n, args.r, q=args.q)
    else:  # cyclic
        code = _cyclic_code(args)
    if args.out:
        _write_code(code, args.out)
    return {"meta": _meta("construct", args, code.field), "result": code.to_json()}, 0


def _cmd_verify(args) -> tuple[dict, int]:
    code = _load_code(args.code)
    streaming_mode = any(getattr(args, f) is not None for f in ("a", "b", "e", "w", "tau"))
    burst_mode = args.wraparound or args.b1 is not None or args.b2 is not None
    if streaming_mode == burst_mode:
        raise BadParameters("give either --a/--b/--e/--w (streaming) or --b1/--b2")
    if streaming_mode:
        report = verify_streaming_code(code, _streaming_params(args))
    else:
        _require(args, "b1", "b2")
        if args.wraparound:
            report = check_wraparound(code, args.b1, args.b2)
        else:
            report = is_b1b2_code(code, args.b1, args.b2)
    payload = {"meta": _meta("verify", args, code.field), "result": report.to_json()}
    return payload, 0 if report.verdict else 1


def _cmd_analyze_rate(args) -> tuple[dict, int]:
    _require(args, "a", "b", "e", "w")
    report = rate_report(ChannelParams(args.a, args.b, args.e, args.w))
    return {"meta": _meta("analyze rate", args), "result": report.to_json()}, 0


def _cmd_analyze_cyclic(args) -> tuple[dict, int]:
    code = _cyclic_code(args)
    report = cyclic_report(code)
    payload = {"meta": _meta("analyze cyclic", args, code.field), "result": report.to_json()}
    return payload, 0


def _cmd_analyze_sparsity(args) -> tuple[dict, int]:
    _require(args, "n", "b")
    result = {
        "n": args.n,
        "b": args.b,
        "minimum_nonzeros": sparsity_minimum(args.n, args.b),
        "field_size_lower_bound": sparse_field_lower_bound(args.n, args.b),
    }
    return {"meta": _meta("analyze sparsity", args), "result": result}, 0


def _cmd_analyze_fieldbound(args) -> tuple[dict, int]:
    _require(args, "n", "b", "e")
    result = {
        "n": args.n,
        "b": args.b,
        "e": args.e,
        "field_size_lower_bound": random_field_lower_bound(args.n, args.b, args.e),
        "conditional": True,
    }
    return {"meta": _meta("analyze fieldbound", args), "result": result}, 0


def _cmd_search(args) -> tuple[dict, int]:
    _require(args, "n", "q")
    two_burst = args.b1 is not None or args.b2 is not None
    burst_random = args.b is not None or args.e is not None
    if two_burst == burst_random:
        raise BadParameters("give either --b1/--b2 or --b/--e")
    workers = resolve_workers(args.workers)
    if two_burst:
        _require(args, "b1", "b2")
        code = exhaustive_code_search(args.n, args.b1, args.b2, args.q, workers=workers)
    else:
        _require(args, "b", "e")
        code = exhaustive_burst_random_search(args.n, args.b, args.e, args.q, workers=workers)
    meta = _meta("search", args, None if code is None else code.field, threads=workers)
    if code is None:
        return {"meta": meta, "result": {"found": False}}, 1
    if args.out:
        _write_code(code, args.out)
    return {"meta": meta, "result": {"found": True, "code": code.to_json()}}, 0


def _cmd_simulate(args) -> tuple[dict, int]:
    reads = {"periodic": "periods", "ge": "slots p_gb p_bg p_loss_good p_loss_bad"}
    _reject_unread(args, f"--source {args.source}", reads[args.source],
                   "periods slots p_gb p_bg p_loss_good p_loss_bad")
    code = _load_code(args.code)
    params = _streaming_params(args)
    if args.source == "periodic":
        _require(args, "periods")
        source = PeriodicSource(args.periods)
    else:
        _require(args, "slots", "p_gb", "p_bg", "p_loss_good", "p_loss_bad")
        source = GilbertElliottSource(
            args.p_gb, args.p_bg, args.p_loss_good, args.p_loss_bad, args.slots
        )
    summary = simulate(code, params, source, args.seed)
    failed = summary["messages_failed"] or summary["deadline_misses"]
    payload = {"meta": _meta("simulate", args, code.field), "result": summary}
    return payload, 1 if failed else 0


# ---------------------------------------------------------------------------
# parser
# ---------------------------------------------------------------------------


# cached: a process that calls main repeatedly (tests, benchmarks) parses with one parser
@functools.lru_cache(maxsize=1)
def _build_parser() -> argparse.ArgumentParser:
    """The argument parser, built on the first call and reused after it."""
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument(
        "--format", choices=("json", "csv", "table"), default="table",
        help="output format (default: table)",
    )

    parser = argparse.ArgumentParser(
        prog="erasurelab",
        description="Construct, verify, analyze, search, and simulate erasure "
        "codes for burst+random loss.",
    )
    parser.add_argument("--version", action="version", version=f"erasurelab {__version__}")
    sub = parser.add_subparsers(dest="subcommand", required=True)

    # each subcommand flag once; a flag means the same wherever it is taken
    flags = {
        "--scheme": dict(choices=("c1", "c1bin", "mds", "cyclic"), required=True),
        "--code": dict(required=True, help="code file from construct/search"),
        "--n": dict(type=int),
        "--a": dict(type=int),
        "--b": dict(type=int),
        "--e": dict(type=int),
        "--w": dict(type=int),
        "--tau": dict(type=int, help="decoding deadline (default w-1)"),
        "--b1": dict(type=int),
        "--b2": dict(type=int),
        "--r": dict(type=int, help="parity rows (mds scheme)"),
        "--q": dict(type=int, help="field size"),
        "--h": dict(help="comma-separated polynomial coefficients, ascending"),
        "--wraparound": dict(action="store_true", help="let bursts wrap cyclically"),
        "--workers": dict(type=int, help="echoed as meta.threads, capped by "
                          "ERASURELAB_THREADS; every search runs serially"),
        "--out": dict(help="write the code file here"),
        "--seed": dict(type=int, required=True),
        "--source": dict(choices=("periodic", "ge"), required=True),
        "--periods": dict(type=int),
        "--slots": dict(type=int),
        "--p-gb": dict(type=float, help="good-to-bad transition probability"),
        "--p-bg": dict(type=float, help="bad-to-good transition probability"),
        "--p-loss-good": dict(type=float),
        "--p-loss-bad": dict(type=float),
    }

    def leaf(subparsers, name: str, func, names: str, **kwargs) -> None:
        p = subparsers.add_parser(name, parents=[common], **kwargs)
        for flag in names.split():
            p.add_argument(flag, **flags[flag])
        p.set_defaults(func=func)

    leaf(sub, "construct", _cmd_construct, "--scheme --n --b1 --b2 --r --q --h --out",
         help="build a code and print/save it")
    leaf(sub, "verify", _cmd_verify, "--code --a --b --e --w --tau --b1 --b2 --wraparound",
         help="check a code against a pattern family")
    p = sub.add_parser("analyze", help="rate, cyclic, sparsity, and field-size reports")
    asub = p.add_subparsers(dest="kind", required=True)
    leaf(asub, "rate", _cmd_analyze_rate, "--a --b --e --w")
    leaf(asub, "cyclic", _cmd_analyze_cyclic, "--n --q --h")
    leaf(asub, "sparsity", _cmd_analyze_sparsity, "--n --b")
    leaf(asub, "fieldbound", _cmd_analyze_fieldbound, "--n --b --e")
    leaf(sub, "search", _cmd_search, "--n --q --b1 --b2 --b --e --workers --out",
         help="exhaustive code search")
    leaf(sub, "simulate", _cmd_simulate, "--code --a --b --e --w --tau --seed --source "
         "--periods --slots --p-gb --p-bg --p-loss-good --p-loss-bad",
         help="stream a code over a loss source")

    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 2
    try:
        payload, rc = args.func(args)
    except (ErasureLabError, OSError) as exc:
        payload, rc = {"error": {"type": type(exc).__name__, "message": str(exc)}}, 2
    try:
        _emit(payload, args.format)
        sys.stdout.flush()
    except BrokenPipeError:
        # the reader closed the pipe (`| head`): point stdout at devnull so the
        # flush at exit cannot raise again, and report an I/O error
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        return 2
    return rc


def run() -> None:
    raise SystemExit(main())
