"""Deterministic command line front end.

Subcommands:
  params      geometry report: half-period values, invariants, lambdas,
              moduli parameter, separation time
  verify      run one invariant suite (or all) and report pass/fail checks
              (JSON only)
  table       emit a structure-constant or cocycle table (+ reconciliation)
  levellines  emit crossing points of the string time function

This is the only module that writes output.  The library returns plain
values; _emit writes them as CSV rows (--format csv) or as the JSON
envelope {"config", "results", "checks"}, to stdout or to --output.  The
JSON is written in one pass by _write_json, which appends every token to
one list that is joined once.  Its text is byte for byte what json.dumps
writes with sorted keys and an indent of 2; json.dumps itself runs its
slower pure-Python encoder whenever it indents.  The bracket table's CSV
is written from the structure table's columns by _bracket_csv, which
formats each label and each distinct constant once and joins the body
once.  The cocycle table's entries, its reconciliation records and the
level-line points are each written from one template (_Records) filled
by %r from the numbers themselves; the report reads chi_sum from the table it reconciles, so
the command evaluates chi_sum once per table entry.  The argument parser
is built once per process, on the first call of main; it reads every
negative float repr writes as a value.

Exit status: 0 all checks pass, 1 a verification check failed (report is
still written), 2 usage or configuration error, an --output path that
cannot be written or a standard output that cannot be written (a full
disk), 141 standard output was
closed before all output was written (the status a SIGPIPE death reports;
e.g. `kntorus table cocycle --format csv | head` under `set -o pipefail`).
Output is byte-identical across repeated runs with identical arguments.
Every call has a cost bound: --window is capped for verify and table, and
--samples for levellines (MAX_VERIFY_WINDOW, MAX_TABLE_WINDOW,
MAX_SAMPLES); a larger value is a usage error.
"""

from __future__ import annotations

import argparse
import math
import os
import re
import sys
from functools import cache
from itertools import chain, groupby
from json.encoder import encode_basestring_ascii
from typing import NamedTuple

import numpy as np

from . import propagation
from .algebra import StructureTable, build_structure_table
from .basis import AlgebraParams, formal_params, lambda_coefficients
from .cocycle import DEFAULT_SIGN_CONVENTION, build_cocycle_table, reconciliation_report
from .config import TorusConfig
from .elliptic import half_period_values
from .errors import KNTorusError
from .verify import SUITES, WINDOWED_SUITES, verify_suite


# cost bounds: verify evaluates 5 (2W+1)^2 pointwise brackets, a table has
# (2W+1)^2 entries, a level-line scan times the ((R+1)^2+1)//2 grid nodes up
# to the middle one (in array chunks; the others read their mirror) and then
# refines O(R) crossing edges in lockstep
MAX_VERIFY_WINDOW = 32
MAX_TABLE_WINDOW = 256
MAX_SAMPLES = 512
DEFAULT_WINDOW = 6

LAM_NAMES = ("lam4", "lam5", "lam6", "lam7")

# argparse reads a word led by "-" as an option unless it matches its
# negative-number pattern, which takes no exponent; this one takes every
# negative float repr writes (-1.5e-05, -inf).  No option looks like one
_NEGATIVE_NUMBER = re.compile(r"^-(\d+\.?\d*|\.\d+)(e[+-]?\d+)?$|^-(inf|nan)$")


def _check_range(flag: str, value: int, floor: int, cap: int, work: str) -> None:
    if value < floor:
        raise ValueError(f"{flag}: must be at least {floor}, got {value}")
    if value > cap:
        raise ValueError(f"{flag} {value} exceeds the cap {cap}: it would take {work}")


def _c(value: complex) -> list[float]:
    return [value.real, value.imag]


@cache
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="kntorus",
        description="Krichever-Novikov algebra of a three-punctured torus",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_geometry(p: argparse.ArgumentParser) -> None:
        # q = 0 is the two-point torus
        p.add_argument("--tau-re", type=float, default=0.0)
        p.add_argument("--tau-im", type=float, default=1.0)
        p.add_argument("--q-re", type=float, default=0.2)
        p.add_argument("--q-im", type=float, default=0.0)

    def add_output(p: argparse.ArgumentParser) -> None:
        p.add_argument("--output", type=str, default=None, help="file path (default stdout)")
        p.add_argument("--format", choices=("json", "csv"), default="json")

    p_params = sub.add_parser("params", help="report the derived scalars of a configuration")
    add_geometry(p_params)
    add_output(p_params)

    p_verify = sub.add_parser("verify", help="run an invariant suite")
    p_verify.add_argument("suite", choices=(*SUITES, "all"))
    add_geometry(p_verify)
    p_verify.add_argument("--window", type=int, default=None)  # WINDOWED_SUITES only
    p_verify.add_argument("--output", type=str, default=None, help="file path (default stdout)")

    p_table = sub.add_parser("table", help="emit structure constants or the cocycle")
    p_table.add_argument("kind", choices=("brackets", "cocycle"))
    add_geometry(p_table)
    p_table.add_argument("--window", type=int, default=DEFAULT_WINDOW)
    p_table.add_argument("--lam5", type=float, nargs=2, metavar=("RE", "IM"))
    p_table.add_argument("--lam6", type=float, nargs=2, metavar=("RE", "IM"))
    p_table.add_argument("--lam7", type=float, nargs=2, metavar=("RE", "IM"))
    p_table.add_argument("--indexing", choices=("original", "shifted"), default=None)  # brackets only
    add_output(p_table)

    p_level = sub.add_parser("levellines", help="sample a level line of the time function")
    add_geometry(p_level)
    p_level.add_argument("--u", type=float, required=True)
    p_level.add_argument("--samples", type=int, default=64)
    p_level.add_argument("--tol", type=float, default=TorusConfig.tol, help="target |t - u| of each point")
    add_output(p_level)

    for p in (parser, *sub.choices.values()):
        p._negative_number_matcher = _NEGATIVE_NUMBER
    return parser


def _config_from_args(args: argparse.Namespace) -> TorusConfig:
    return TorusConfig(
        tau=complex(args.tau_re, args.tau_im),
        q=complex(args.q_re, args.q_im),
        tol=getattr(args, "tol", TorusConfig.tol),  # only levellines has --tol
    )


def _formal_from_args(args: argparse.Namespace) -> AlgebraParams | None:
    pairs = (args.lam5, args.lam6, args.lam7)
    if not any(pairs):
        return None
    return formal_params(*(complex(*pair) if pair else 0j for pair in pairs))


def _lam_json(params: AlgebraParams) -> dict:
    """lam4..lam7 as [re, im] pairs plus the provenance."""
    return {**dict(zip(LAM_NAMES, map(_c, params.as_tuple()))), "provenance": params.provenance}


_INFINITIES = {math.inf: "Infinity", -math.inf: "-Infinity"}


class _Records(NamedTuple):
    """A JSON list of records of one shape: template % row is the text of
    one record, as _write_json writes it at the top level, for each row."""

    template: str
    rows: list[tuple]


# a cocycle entry from (re, im, i, j), a reconciliation record from
# (abs_diff, chi_closed re, im, chi_sum re, im, i, j) and a level-line
# point from (re, im); %r of a finite float is its float.__repr__, as
# _write_json writes it
_ENTRY = '{\n  "chi": [\n    %r,\n    %r\n  ],\n  "i": %d,\n  "j": %d\n}'
_RECORD = (
    '{\n  "abs_diff": %r,\n  "chi_closed": [\n    %r,\n    %r\n  ],\n'
    '  "chi_sum": [\n    %r,\n    %r\n  ],\n  "i": %d,\n  "j": %d\n}'
)
_POINT = '[\n  %r,\n  %r\n]'


def _write_json(value, out: list[str], newline: str = "\n") -> None:
    """Append the JSON text of value to out, as json.dumps writes it with
    sorted keys and an indent of 2; newline is the line break and indent
    that the value's own lines start with.

    Types are tested as the json module tests them: bool before int, and a
    subclass of float or int (np.float64) as its base.  Keys must be str.
    NaN and the infinities are written as json writes them by default.
    A _Records value is written as a list: its template's lines are moved
    in to the list's items, and all its records are formatted by one %.
    """
    if isinstance(value, float):
        if value != value:
            out.append("NaN")
        else:
            out.append(_INFINITIES.get(value) or float.__repr__(value))
    elif isinstance(value, dict):
        if not value:
            out.append("{}")
            return
        inner = newline + "  "
        sep = "{" + inner
        for key, item in sorted(value.items()):
            if not isinstance(key, str):
                raise TypeError(f"keys must be str, not {type(key).__name__}")
            out.append(f"{sep}{encode_basestring_ascii(key)}: ")
            sep = "," + inner
            _write_json(item, out, inner)
        out.append(newline + "}")
    elif isinstance(value, _Records):
        if not value.rows:
            out.append("[]")
            return
        inner = newline + "  "
        body = ("," + inner).join([value.template.replace("\n", inner)] * len(value.rows))
        out.append("[" + inner + body % tuple(chain.from_iterable(value.rows)) + newline + "]")
    elif isinstance(value, (list, tuple)):
        if not value:
            out.append("[]")
            return
        inner = newline + "  "
        sep = "[" + inner
        for item in value:
            out.append(sep)
            sep = "," + inner
            _write_json(item, out, inner)
        out.append(newline + "]")
    elif isinstance(value, str):
        out.append(encode_basestring_ascii(value))
    elif value is None:
        out.append("null")
    elif isinstance(value, bool):
        out.append("true" if value else "false")
    elif isinstance(value, int):
        out.append(int.__repr__(value))
    else:
        raise TypeError(f"Object of type {type(value).__name__} is not JSON serializable")


def _emit(args: argparse.Namespace, cfg: TorusConfig | None, results, csv_rows, checks=()) -> None:
    """Write a command's output to --output, or to stdout: its CSV rows, or
    the JSON envelope {"config", "results", "checks"}.  results and
    csv_rows are functions, so that only the requested format is built."""
    if getattr(args, "format", "json") == "csv":
        text = "\n".join(csv_rows())
    else:
        config: dict = {"command": args.command}
        if cfg is not None:
            config.update({"tau": _c(cfg.tau), "q": _c(cfg.q), "two_point": cfg.two_point, "tol": cfg.tol})
        if getattr(args, "window", None) is not None:
            config["window"] = args.window
        out: list[str] = []
        _write_json({"config": config, "results": results(), "checks": list(checks)}, out)
        text = "".join(out)
    if args.output is None:
        print(text, flush=True)
    else:
        try:
            with open(args.output, "w", encoding="utf-8") as fh:
                print(text, file=fh)
        except OSError as exc:  # a missing directory, a directory, no permission
            raise ValueError(f"--output {args.output}: {exc.strerror or exc}") from exc


def _cmd_params(args: argparse.Namespace) -> int:
    cfg = _config_from_args(args)
    hp = half_period_values(cfg)
    lam = lambda_coefficients(cfg)
    mu = propagation.mu_modulus(cfg)
    points = {"e1": hp.e1, "e2": hp.e2, "e3": hp.e3, "g2": hp.g2, "g3": hp.g3,
              "p_q": hp.p, "mu": mu}
    reals = {"abs_mu": abs(mu), "separation_time": propagation.separation_time(cfg)}
    lams = dict(zip(LAM_NAMES, lam.as_tuple()))
    _emit(
        args, cfg,
        lambda: {**{name: _c(v) for name, v in points.items()}, "lambda": _lam_json(lam), **reals},
        lambda: [
            "name,re,im",
            *(f"{name},{v.real!r},{v.imag!r}" for name, v in {**points, **lams}.items()),
            *(f"{name},{v!r},0.0" for name, v in reals.items()),
        ],
    )
    return 0


def _cmd_verify(args: argparse.Namespace) -> int:
    cfg = _config_from_args(args)
    if args.suite in WINDOWED_SUITES:
        args.window = DEFAULT_WINDOW if args.window is None else args.window
        side = 2 * args.window + 1
        _check_range(
            "--window", args.window, 1, MAX_VERIFY_WINDOW,
            f"{5 * side * side} pointwise bracket evaluations",
        )
    elif args.window is not None:
        raise ValueError(f"--window: verify {args.suite} has no label window")
    checks = verify_suite(args.suite, cfg, args.window)
    passed = all(c.passed for c in checks)
    # every field of a check; detail only where it is set
    reports = [{k: v for k, v in vars(c).items() if k != "detail" or v} for c in checks]
    _emit(args, cfg, lambda: {"suite": args.suite, "all_passed": passed}, None, reports)
    return 0 if passed else 1


def _require_finite(numbers) -> None:
    """Refuse a table that would write a number overflowed from the lams;
    numbers is an array or a list of numbers."""
    if not np.isfinite(numbers).all():
        raise ValueError("--lam5/--lam6/--lam7: the table would hold numbers that are not finite")


def _bracket_csv(table: StructureTable, window: int) -> str:
    """The CSV text of a finite structure table: the header and one line
    i,j,k,re,im per row, each line led by its line break.

    Every label lies in [-2 window - 1, 2 window + 6], and each label's
    text is formatted once.  C_ij^k depends only on the parity of i, on
    j - i and on the slot t = (k - i - j + 1) // 2 (in either indexing),
    since bracket_slots gathers it from those, so all rows of one key hold
    the same value bit for bit: each key's text is formatted once, from
    any of its rows.  The texts are gathered into one object array, row by
    row, and joined once.
    """
    i, j, k, c = table
    lo = -2 * window - 1
    labels = range(lo, 2 * window + 7)
    # an i text leads its line with the line break
    lead = np.array([f"\n{n}," for n in labels], dtype=object)
    inner = np.array([f"{n}," for n in labels], dtype=object)
    # the key (j - i, t, parity of i) as one index into a dense table
    key = ((j - i + 2 * window) * 4 + (k - i - j + 1) // 2) * 2 + i % 2
    used = np.zeros((4 * window + 1) * 8, dtype=bool)
    used[key] = True
    row_of = np.empty(used.size, dtype=np.intp)
    row_of[key] = np.arange(key.size)  # any row of a key holds its value
    text = np.empty(used.size, dtype=object)
    text[used] = [f"{v.real!r},{v.imag!r}" for v in c[row_of[used]].tolist()]
    parts = np.empty((key.size, 4), dtype=object)
    parts[:, 0] = lead[i - lo]
    parts[:, 1] = inner[j - lo]
    parts[:, 2] = inner[k - lo]
    parts[:, 3] = text[key]
    return "i,j,k,re,im" + "".join(parts.ravel().tolist())


def _cmd_table(args: argparse.Namespace) -> int:
    side = 2 * args.window + 1
    _check_range("--window", args.window, 1, MAX_TABLE_WINDOW, f"{side * side} table entries")
    if args.kind == "cocycle" and args.indexing is not None:
        raise ValueError("--indexing: table cocycle has no index basis")
    params = _formal_from_args(args)
    cfg = None
    if params is None:
        cfg = _config_from_args(args)
        params = lambda_coefficients(cfg)
    header = {"window": args.window, "params": _lam_json(params)}
    if args.kind == "brackets":
        args.indexing = args.indexing or "original"
        table = build_structure_table(params, args.window, indexing=args.indexing)
        _require_finite(table.c)
        _emit(
            args, cfg,
            lambda: {
                **header,
                "indexing": args.indexing,
                "entries": [
                    {"i": i, "j": j, "terms": [{"k": k, "c": _c(c)} for *_, k, c in terms]}
                    for (i, j), terms in groupby(table.rows(), key=lambda row: row[:2])
                ],
            },
            lambda: [_bracket_csv(table, args.window)],
        )
        return 0
    chi = build_cocycle_table(params, args.window)
    _require_finite(list(chi.values()))
    sigma_c, sigma_chi = DEFAULT_SIGN_CONVENTION

    def reconciliation() -> _Records:
        report = reconciliation_report(params, args.window, chi)
        _require_finite([e[key] for e in report for key in ("chi_sum", "chi_closed", "abs_diff")])
        rows = [(e["abs_diff"], *_c(e["chi_closed"]), *_c(e["chi_sum"]), e["i"], e["j"]) for e in report]
        return _Records(_RECORD, rows)

    _emit(
        args, cfg,
        lambda: {
            **header,
            "method": "sum",
            "sign_convention": {"sigma_c": sigma_c, "sigma_chi": sigma_chi},
            "entries": _Records(_ENTRY, [(v.real, v.imag, i, j) for (i, j), v in chi.items()]),
            "reconciliation": reconciliation(),
        },
        lambda: ["i,j,re,im", *(f"{i},{j},{v.real!r},{v.imag!r}" for (i, j), v in chi.items())],
    )
    return 0


def _cmd_levellines(args: argparse.Namespace) -> int:
    cfg = _config_from_args(args)
    side = args.samples + 1
    _check_range(
        "--samples", args.samples, propagation.MIN_RESOLUTION, MAX_SAMPLES,
        f"{(side * side + 1) // 2} time evaluations",
    )
    sample = propagation.level_line_samples(cfg, args.u, args.samples)
    u = repr(sample.u)
    _emit(
        args, cfg,
        lambda: {
            "u": sample.u,
            "count": len(sample.points),
            "points": _Records(_POINT, [(p.real, p.imag) for p in sample.points]),
        },
        lambda: ["u,re,im", *(f"{u},{p.real!r},{p.imag!r}" for p in sample.points)],
    )
    return 0


_COMMANDS = {
    "params": _cmd_params,
    "verify": _cmd_verify,
    "table": _cmd_table,
    "levellines": _cmd_levellines,
}


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code not in (0, None) else 0
    try:
        return _COMMANDS[args.command](args)
    except (KNTorusError, ValueError) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 2
    except BrokenPipeError:  # the reader went away
        status = 141
    except OSError as exc:  # writing to stdout failed (--output raises ValueError)
        sys.stderr.write(f"error: standard output: {exc.strerror or exc}\n")
        status = 2
    # send what is still buffered, and the flush at interpreter exit, to
    # devnull instead of raising again
    os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
    return status


if __name__ == "__main__":
    raise SystemExit(main())
