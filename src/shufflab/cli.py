"""Batch experiment harness.

Subcommands: sample, detect, advantage, chisq, oracle, and sweep (a
config-file driver for the first four).  ``COMMANDS`` describes each
command once, and both the argument parser and the sweep driver read it:
a sweep key (the flag name without dashes, "_" for "-"; ``master_seed`` is
``--seed``, ``per_pattern_output`` is ``--per-pattern``) takes the values,
choices and default of its flag, and a key that is not an option of its
command is a usage error.  Output CSVs are byte-identical across re-runs
with the same flags and master seed: numeric fields are printed with 17
significant digits and nothing time-dependent enters the files
(wall-clock timing goes to stderr).

Sweep values: a config value is typed once, from the text written, by its
option, as argparse types a flag.  A str key keeps its text (``007`` stays
``007``), an int or float key refuses a word such as ``true``, and a switch
takes ``true`` or ``false`` in any case.  A ``#`` starts a comment only at
the start of a line or after whitespace (``output = run#1.csv`` keeps it).
The intended differences from the flags: an int key also takes an integral
float, such as ``8.0`` or ``1e5``, and a bracketed value is a list, so
``prefix = [a]`` is refused where ``--prefix '[a]'`` is taken.

Grid handling: grid options take lists and form a grid iterated row-major
over the declared key order (table order for flags: n, d, m, sigma for
detect, n, d, m, sigma, D for advantage and d, m, k, sigma for chisq; file
order for sweep configs).  Each grid cell owns the disjoint stream-index
range [cell * 1024, (cell+1) * 1024) of the master seed, so results are
independent of execution order.  Every cell passes its library check
(``ModelParams``, ``advantage.check_cell``, ``chisq.check_cell`` per method)
before the first cell runs; the CLI holds no domain rule of its own.

Exit codes: 0 success, 1 oracle failure, 2 usage, 3 capacity,
4 unsupported regime, 5 I/O.

A process builds one argument parser, on the first ``main`` call, and every
later call parses with it: ``parse_args`` keeps no state between calls (each
returns a fresh namespace with new grid lists, and help reads the terminal
width when it is printed).  Only repeated in-process calls gain from this,
such as a test suite or the benchmark passes; a run from the shell builds
one parser either way.

Start-up loads only what the parser and ``main`` need: ``common`` (the
error classes and the float format), and ``model`` and ``rng``, which the
package loads anyway.  Each command imports its own library when it runs:
``sample`` adds ``matrixio``, ``detect`` adds ``detect``, ``chisq`` adds
``chisq``, ``advantage`` adds ``advantage`` with ``hermite`` and ``chisq``,
and ``oracle`` adds ``oracles`` and SciPy.  Without a bytecode cache that
saves compiling the libraries a run does not use, and each name is looked
up on its library module when the command runs, so a wrapper set there
sees the command's calls.
"""

from __future__ import annotations

import argparse
import functools
import itertools
import os
import sys
import time
from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable, Iterable, Sequence

from . import __version__
from .common import CapacityError, UnsupportedRegimeError, format_float
from .model import ModelParams, sample_null, sample_planted
from .rng import MIXER_NAME, make_rng

if TYPE_CHECKING:
    from .chisq import ChiSquareReport

OUTPUT_DIR_ENV = "SHUFFLAB_OUTPUT_DIR"
# the keys of oracles.ORACLE_CHECKS, listed here so that start-up does not
# import the oracle module, which only the oracle command runs
ORACLE_NAMES = (
    "inner-expansion", "sphere", "submatrix-density", "gauss-exp", "gauss-quad",
    "det-integral", "orthonormality",
)
STREAM_STRIDE = 1024

EXIT_OK = 0
EXIT_ORACLE = 1
EXIT_USAGE = 2
EXIT_CAPACITY = 3
EXIT_REGIME = 4
EXIT_IO = 5

DETECT_COLUMNS = (
    "n,d,m,sigma,trials,threshold,type1,type2,mean_null,mean_planted,"
    "var_null,var_planted,separation_ratio,master_seed"
)
ADVANTAGE_COLUMNS = "n,d,m,sigma,D,adv_sq,stderr,pattern_count"
CHISQ_COLUMNS = "regime,d,m,k,sigma,method,value,stderr,samples,warning,delta_vs_closed"
PATTERN_COLUMNS = "pattern_id,degree,mean,stderr,squared_contribution"


def _fmt(value: object) -> str:
    if isinstance(value, float):
        return format_float(value)
    if value is None:
        return ""
    return str(value)


def _row(*values: object) -> str:
    return ",".join(map(_fmt, values))


def _resolve_output(path: str) -> str:
    if os.path.isabs(path):
        return path
    base = os.environ.get(OUTPUT_DIR_ENV, "")
    return os.path.join(base, path) if base else path


def _write_lines(path: str, lines: Iterable[str]) -> None:
    with open(path, "w") as fh:
        for line in lines:
            fh.write(line + "\n")


def _cells(grids: dict[str, list]) -> list[dict[str, object]]:
    """Row-major product over the grids in their declared key order, the last key fastest."""
    return [dict(zip(grids, values)) for values in itertools.product(*grids.values())]


# ---------------------------------------------------------------------------
# subcommands: ``args`` holds the options, converted and defaulted as the
# command table says, and ``args.grids`` the grid options in declared order


def _cmd_sample(args: argparse.Namespace) -> int:
    from .matrixio import write_matrix, write_sidecar

    params = ModelParams(n=args.n, d=args.d, m=args.m, sigma=args.sigma)
    rng = make_rng(args.master_seed, 0)
    prefix = _resolve_output(args.prefix)
    if args.hypothesis == "null":
        inst = sample_null(params, rng)
    else:
        inst = sample_planted(params, rng, keep_latent=args.keep_latent)
    files = {"x_file": f"{prefix}_X.txt", "y_file": f"{prefix}_Y.txt"}
    write_matrix(files["x_file"], inst.X)
    write_matrix(files["y_file"], inst.Y)
    if inst.latent is not None:
        files["perm_file"] = f"{prefix}_perm.txt"
        files["q_file"] = f"{prefix}_Q.txt"
        files["z_file"] = f"{prefix}_Z.txt"
        write_matrix(files["perm_file"], inst.latent.perm[None, :].astype(float))
        write_matrix(files["q_file"], inst.latent.Q)
        write_matrix(files["z_file"], inst.latent.Z)
    meta = {
        "sampler": f"model.sample_{args.hypothesis}",
        "hypothesis": args.hypothesis,
        "n": params.n,
        "d": params.d,
        "m": params.m,
        "sigma": params.sigma,
        "master_seed": args.master_seed,
        "stream_index": 0,
        "mixer": MIXER_NAME,
        "artifact_version": __version__,
        **files,
    }
    write_sidecar(f"{prefix}_meta.txt", meta)
    return EXIT_OK


def _cmd_detect(args: argparse.Namespace) -> int:
    from .detect import run_test

    cells = [ModelParams(**combo) for combo in _cells(args.grids)]
    rows = [DETECT_COLUMNS]
    for cell, params in enumerate(cells):
        rng = make_rng(args.master_seed, cell * STREAM_STRIDE)
        report = run_test(params, args.threshold, args.trials, rng)
        rows.append(_row(
            params.n, params.d, params.m, params.sigma, args.trials,
            report.threshold, report.type1, report.type2,
            report.mean_null, report.mean_planted, report.var_null, report.var_planted,
            report.separation_ratio, args.master_seed,
        ))
    _write_lines(_resolve_output(args.output), rows)
    return EXIT_OK


def _cmd_advantage(args: argparse.Namespace) -> int:
    from .advantage import advantage_sq_with_patterns, check_cell

    cells = []
    for combo in _cells(args.grids):
        D = combo.pop("D")
        params = ModelParams(**combo)
        check_cell(params, D, args.samples)
        cells.append((params, D))
    rows = [ADVANTAGE_COLUMNS]
    pattern_rows = [PATTERN_COLUMNS]
    for cell, (params, D) in enumerate(cells):
        rng = make_rng(args.master_seed, cell * STREAM_STRIDE)
        est, breakdown = advantage_sq_with_patterns(params, D, args.samples, rng)
        rows.append(_row(
            params.n, params.d, params.m, params.sigma, D,
            est.value_sq, est.stderr, est.pattern_count,
        ))
        if args.per_pattern_output is not None:
            columns = zip(
                breakdown.degree.tolist(), breakdown.mean.tolist(),
                breakdown.stderr.tolist(), breakdown.squared_contribution.tolist(),
            )
            for pattern_id, values in enumerate(columns):
                pattern_rows.append(_row(pattern_id, *values))
    _write_lines(_resolve_output(args.output), rows)
    if args.per_pattern_output is not None:
        _write_lines(_resolve_output(args.per_pattern_output), pattern_rows)
    return EXIT_OK


def _report_row(report: ChiSquareReport, delta: float | None) -> str:
    return _row(
        report.regime, report.d, report.m, report.k, report.sigma,
        report.method, report.value, report.stderr, report.samples,
        report.warning, delta,
    )


def _cmd_chisq(args: argparse.Namespace) -> int:
    from .chisq import check_cell, evaluate

    methods = ("closed", "mc") if args.mode == "both" else (args.mode,)
    cells = _cells(args.grids)
    for combo in cells:
        for method in methods:
            check_cell(**combo, method=method, samples=args.samples)
    rows = [CHISQ_COLUMNS]
    for cell, combo in enumerate(cells):
        rng = make_rng(args.master_seed, cell * STREAM_STRIDE)
        reports = [evaluate(**combo, method=method, samples=args.samples, rng=rng)
                   for method in methods]
        rows.append(_report_row(reports[0], None))
        if len(reports) == 2:  # "both": the Monte Carlo row, with its distance from closed
            rows.append(_report_row(reports[1], abs(reports[1].value - reports[0].value)))
    _write_lines(_resolve_output(args.output), rows)
    return EXIT_OK


def _cmd_oracle(args: argparse.Namespace) -> int:
    from .oracles import run_checks

    names = list(ORACLE_NAMES) if args.check == "all" else [args.check]
    results = run_checks(names, seed=args.seed)
    failures = 0
    for res in results:
        status = "PASS" if res.passed else "FAIL"
        print(
            f"{status} {res.name}: observed={res.observed:.6g} "
            f"tolerance={res.tolerance:.6g} ({res.detail})"
        )
        failures += 0 if res.passed else 1
    return EXIT_OK if failures == 0 else EXIT_ORACLE


def _cmd_sweep(args: argparse.Namespace) -> int:
    with open(args.config) as fh:
        command, options = resolve_config(parse_config(fh.read()))
    return command.run(options)


# ---------------------------------------------------------------------------
# the command table: one description of each command for argparse and sweep


@dataclass(frozen=True)
class Option:
    """A flag and sweep key; ``type`` is int, float, str or bool (a switch).

    Grid options take one or more values and span the command's grid.
    """

    name: str
    type: Callable[[str], object] = str
    required: bool = False
    default: object = None
    grid: bool = False
    choices: tuple[str, ...] | None = None
    flag: str | None = None
    help: str | None = None


@dataclass(frozen=True)
class Command:
    run: Callable[[argparse.Namespace], int]
    help: str
    options: tuple[Option, ...]


def _grid(name: str, type: Callable[[str], object] = int) -> Option:
    return Option(name, type, required=True, grid=True)


_SEED = Option("master_seed", int, required=True, flag="--seed")
_OUTPUT = Option("output", required=True)

COMMANDS: dict[str, Command] = {
    "sample": Command(_cmd_sample, "write one sampled instance to matrix text files", (
        Option("n", int, required=True),
        Option("d", int, required=True),
        Option("m", int, required=True),
        Option("sigma", float, required=True),
        Option("hypothesis", required=True, choices=("null", "planted")),
        _SEED,
        Option("keep_latent", bool, default=False),
        Option("prefix", default="instance"),
    )),
    "detect": Command(_cmd_detect, "error rates and separation over a parameter grid", (
        _grid("n"), _grid("d"), _grid("m"), _grid("sigma", float),
        Option("trials", int, default=2000),
        Option("threshold", float),
        _SEED, _OUTPUT,
    )),
    "advantage": Command(_cmd_advantage, "squared-advantage estimates over a grid", (
        _grid("n"), _grid("d"), _grid("m"), _grid("sigma", float), _grid("D"),
        Option("samples", int, default=100_000),
        Option("per_pattern_output", flag="--per-pattern",
               help="also write per-pattern contributions to this CSV"),
        _SEED, _OUTPUT,
    )),
    "chisq": Command(_cmd_chisq, "chi-square reports over a (d, m, k, sigma) grid", (
        _grid("d"), _grid("m"), _grid("k"), _grid("sigma", float),
        Option("mode", default="closed", choices=("closed", "mc", "both")),
        Option("samples", int, default=100_000),
        _SEED, _OUTPUT,
    )),
    "oracle": Command(_cmd_oracle, "run analytic self-tests", (
        Option("check", default="all", choices=ORACLE_NAMES + ("all",)),
        Option("seed", int, default=0),
    )),
    "sweep": Command(_cmd_sweep, "drive sample/detect/advantage/chisq from a config file", (
        Option("config", required=True),
    )),
}
SWEEP_COMMANDS = ("sample", "detect", "advantage", "chisq")


# ---------------------------------------------------------------------------
# sweep configs: flat "key = value" text, arrays as "[a, b, c]"


def parse_config(text: str) -> dict[str, str | list[str]]:
    """Parse the flat config format, preserving key order; a key may appear once.

    Each value stays the text written, stripped; a bracketed value becomes the
    list of its stripped comma-separated texts.  ``resolve_config`` types them.
    """
    out: dict[str, str | list[str]] = {}
    seen: dict[str, int] = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        # a "#" at the start of the line or after whitespace starts a comment
        cut = (i for i, c in enumerate(raw) if c == "#" and (i == 0 or raw[i - 1].isspace()))
        line = raw[: next(cut, len(raw))].strip()
        if not line:
            continue
        if "=" not in line:
            raise ValueError(f"config line {lineno}: expected 'key = value', got {raw!r}")
        key, _, value = line.partition("=")
        key = key.strip()
        value = value.strip()
        if key in seen:
            raise ValueError(f"config line {lineno}: key {key!r} repeats line {seen[key]}")
        seen[key] = lineno
        if value.startswith("[") and value.endswith("]"):
            inner = value[1:-1].strip()
            out[key] = [tok.strip() for tok in inner.split(",")] if inner else []
        else:
            out[key] = value
    return out


def _convert(option: Option, text: str) -> object:
    """A config value's text as the option's flag would take it (module docstring)."""
    name = option.name
    if option.type is bool:
        if text.lower() not in ("true", "false"):
            raise ValueError(f"sweep key {name!r} takes true or false, got {text!r}")
        return text.lower() == "true"
    if option.type is str:
        if option.choices is not None and text not in option.choices:
            allowed = ", ".join(map(repr, option.choices[:-1])) + f" or {option.choices[-1]!r}"
            raise ValueError(f"{name} must be {allowed}, got {text!r}")
        return text
    if option.type is int:
        try:
            return int(text)  # first, so that a seed above 2**53 stays exact
        except ValueError:
            pass
    kind = "a number" if option.type is float else "an integer"
    try:
        value = float(text)
    except ValueError:
        raise ValueError(f"sweep key {name!r} takes {kind}, got {text}") from None
    if option.type is float:
        return value
    if not value.is_integer():
        raise ValueError(f"sweep key {name!r} takes an integer, got {text}")
    return int(value)  # an integral float, such as 8.0 or 1e5


def resolve_config(config: dict[str, str | list[str]]) -> tuple[Command, argparse.Namespace]:
    """Check a parsed sweep config against its command's options; run nothing.

    Returns the command and its arguments as the parser would give them,
    with ``grids`` in file order (a scalar grid value is a one-element grid).
    """
    if "command" not in config:
        raise ValueError("sweep config is missing required key 'command'")
    name = str(config["command"])
    if name not in SWEEP_COMMANDS:
        raise ValueError(
            f"unknown sweep command {name!r}; expected "
            f"{', '.join(SWEEP_COMMANDS[:-1])}, or {SWEEP_COMMANDS[-1]}"
        )
    command = COMMANDS[name]
    options = {option.name: option for option in command.options}
    grids: dict[str, list] = {}
    values: dict[str, object] = {}
    for key, value in config.items():
        if key == "command":
            continue
        if key not in options:
            raise ValueError(f"sweep key {key!r} is not an option of {name}")
        option = options[key]
        if option.grid:
            grid = value if isinstance(value, list) else [value]
            if not grid:
                raise ValueError(f"grid {key!r} must be nonempty")
            grids[key] = [_convert(option, v) for v in grid]
        elif isinstance(value, list):
            raise ValueError(f"sweep key {key!r} takes a single value, got a list")
        else:
            values[key] = _convert(option, value)
    for option in command.options:
        if option.name not in grids and option.name not in values:
            if option.required:
                raise ValueError(f"sweep config is missing required key {option.name!r}")
            values[option.name] = option.default
    return command, argparse.Namespace(grids=grids, **values)


# ---------------------------------------------------------------------------
# parser and entry point


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The process's one parser, built on first use; shared, so callers must not change it."""
    parser = argparse.ArgumentParser(
        prog="shufflab",
        description="Batch experiments for low-degree detection in shuffled regression",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, command in COMMANDS.items():
        p = sub.add_parser(name, help=command.help)
        for option in command.options:
            flag = option.flag or "--" + option.name.replace("_", "-")
            if option.type is bool:
                p.add_argument(flag, action="store_true", dest=option.name, help=option.help)
                continue
            # metavar from the flag, not from dest, keeps "--seed SEED" in --help
            p.add_argument(
                flag, type=option.type, nargs="+" if option.grid else None,
                required=option.required, default=option.default,
                choices=option.choices, dest=option.name, help=option.help,
                metavar=None if option.choices else flag[2:].upper().replace("-", "_"),
            )
    return parser


def main(argv: Sequence[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        code = exc.code
        return EXIT_USAGE if code not in (0, None) else EXIT_OK
    command = COMMANDS[args.command]
    args.grids = {o.name: getattr(args, o.name) for o in command.options if o.grid}
    start = time.monotonic()
    try:
        code = command.run(args)
    except CapacityError as exc:
        print(f"capacity error: {exc}", file=sys.stderr)
        return EXIT_CAPACITY
    except UnsupportedRegimeError as exc:
        print(f"unsupported regime: {exc}", file=sys.stderr)
        return EXIT_REGIME
    except (ValueError, KeyError) as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return EXIT_IO
    print(f"done in {time.monotonic() - start:.2f}s", file=sys.stderr)
    return code


if __name__ == "__main__":
    sys.exit(main())
