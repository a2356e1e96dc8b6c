"""Batch experiment harness.

Subcommands: sample, detect, advantage, chisq, oracle, and sweep (a
config-file driver for the first four).  Output CSVs are byte-identical
across re-runs with the same flags and master seed: numeric fields are
printed with 17 significant digits and nothing time-dependent enters the
files (wall-clock timing goes to stderr).

Grid handling: list-valued options form a grid iterated row-major over
the declared key order (flag order n, d, m, sigma for detect, n, d, m,
sigma, D for advantage and d, m, k, sigma for chisq; file order for sweep
configs).  Each grid cell owns the disjoint stream-index range
[cell * 1024, (cell+1) * 1024) of the master seed, so results are
independent of execution order.

Exit codes: 0 success, 1 oracle failure, 2 usage, 3 capacity,
4 unsupported regime, 5 I/O.
"""

from __future__ import annotations

import argparse
import os
import sys
import time
from typing import Iterable, Iterator, Sequence

from . import __version__
from .advantage import advantage_sq_with_patterns
from .chisq import ChiSquareReport, evaluate
from .common import CapacityError, UnsupportedRegimeError
from .detect import run_test, separation_report
from .matrixio import format_float, write_matrix, write_sidecar
from .model import ModelParams, sample_null, sample_planted
from .oracles import ORACLE_CHECKS, run_checks
from .rng import MIXER_NAME, make_rng

OUTPUT_DIR_ENV = "SHUFFLAB_OUTPUT_DIR"
STREAM_STRIDE = 1024

EXIT_OK = 0
EXIT_ORACLE = 1
EXIT_USAGE = 2
EXIT_CAPACITY = 3
EXIT_REGIME = 4
EXIT_IO = 5

# grid keys of each sweep command: all are required, and only they may be lists
SWEEP_GRID_KEYS = {
    "sample": (),
    "detect": ("n", "d", "m", "sigma"),
    "advantage": ("n", "d", "m", "sigma", "D"),
    "chisq": ("d", "m", "k", "sigma"),
}

DETECT_COLUMNS = (
    "n,d,m,sigma,trials,threshold,type1,type2,mean_null,mean_planted,"
    "var_null,var_planted,separation_ratio,master_seed"
)
ADVANTAGE_COLUMNS = "n,d,m,sigma,D,adv_sq,stderr,pattern_count"
CHISQ_COLUMNS = "regime,d,m,k,sigma,method,value,stderr,samples,warning,delta_vs_closed"
CHISQ_MODES = ("closed", "mc", "both")
PATTERN_COLUMNS = "pattern_id,degree,mean,stderr,squared_contribution"


def _fmt(value: object) -> str:
    if isinstance(value, bool):
        return str(value).lower()
    if isinstance(value, float):
        return format_float(value)
    if value is None:
        return ""
    return str(value)


def _resolve_output(path: str) -> str:
    if os.path.isabs(path):
        return path
    base = os.environ.get(OUTPUT_DIR_ENV, "")
    return os.path.join(base, path) if base else path


def _write_lines(path: str, lines: Iterable[str]) -> None:
    with open(path, "w") as fh:
        for line in lines:
            fh.write(line + "\n")


def _iter_grid(grids: dict[str, list]) -> Iterator[tuple[int, dict[str, object]]]:
    """Row-major product over the grids, in their declared key order."""
    keys = list(grids)
    sizes = [len(grids[k]) for k in keys]
    if any(s == 0 for s in sizes):
        raise ValueError("every grid must be nonempty")
    total = 1
    for s in sizes:
        total *= s
    for cell in range(total):
        combo: dict[str, object] = {}
        rem = cell
        for key, size in zip(reversed(keys), reversed(sizes)):
            combo[key] = grids[key][rem % size]
            rem //= size
        yield cell, combo


def _check_m_le_d(grids: dict[str, list]) -> None:
    if "m" in grids and "d" in grids:
        if max(grids["m"]) > min(grids["d"]):
            raise ValueError(
                f"grids must satisfy m <= d for every combination, "
                f"got max m={max(grids['m'])} > min d={min(grids['d'])}"
            )


# ---------------------------------------------------------------------------
# row builders shared by the flag interface and the sweep driver


def detect_rows(
    grids: dict[str, list], trials: int, threshold: float | None, master_seed: int
) -> list[str]:
    _check_m_le_d(grids)
    rows = [DETECT_COLUMNS]
    for cell, combo in _iter_grid(grids):
        params = ModelParams(
            n=int(combo["n"]), d=int(combo["d"]), m=int(combo["m"]),
            sigma=float(combo["sigma"]),
        )
        base = cell * STREAM_STRIDE
        rates = run_test(params, threshold, trials, make_rng(master_seed, base))
        sep = separation_report(params, trials, make_rng(master_seed, base + 1))
        rows.append(
            ",".join(
                _fmt(v)
                for v in (
                    params.n, params.d, params.m, params.sigma, trials,
                    rates.threshold, rates.type1, rates.type2,
                    sep.mean_null, sep.mean_planted, sep.var_null, sep.var_planted,
                    sep.separation_ratio, master_seed,
                )
            )
        )
    return rows


def advantage_rows(
    grids: dict[str, list],
    samples: int,
    master_seed: int,
    pattern_cap: int,
    per_pattern: bool = False,
) -> tuple[list[str], list[str]]:
    _check_m_le_d(grids)
    rows = [ADVANTAGE_COLUMNS]
    pattern_rows = [PATTERN_COLUMNS]
    for cell, combo in _iter_grid(grids):
        params = ModelParams(
            n=int(combo["n"]), d=int(combo["d"]), m=int(combo["m"]),
            sigma=float(combo["sigma"]),
        )
        D = int(combo["D"])
        rng = make_rng(master_seed, cell * STREAM_STRIDE)
        est, contribs = advantage_sq_with_patterns(
            params, D, samples, rng, pattern_cap=pattern_cap
        )
        rows.append(
            ",".join(
                _fmt(v)
                for v in (
                    params.n, params.d, params.m, params.sigma, D,
                    est.value_sq, est.stderr, est.pattern_count,
                )
            )
        )
        if per_pattern:
            for c in contribs:
                pattern_rows.append(
                    ",".join(
                        _fmt(v)
                        for v in (
                            c.pattern_id, c.degree, c.mean, c.stderr,
                            c.squared_contribution,
                        )
                    )
                )
    return rows, pattern_rows


def _report_row(report: ChiSquareReport, delta: float | None) -> str:
    return ",".join(
        _fmt(v)
        for v in (
            report.regime, report.d, report.m, report.k, report.sigma,
            report.method, report.value, report.stderr, report.samples,
            report.warning, delta,
        )
    )


def chisq_rows(
    grids: dict[str, list], mode: str, samples: int, master_seed: int
) -> list[str]:
    if mode not in CHISQ_MODES:
        raise ValueError(f"mode must be 'closed', 'mc' or 'both', got {mode!r}")
    _check_m_le_d(grids)
    rows = [CHISQ_COLUMNS]
    for cell, combo in _iter_grid(grids):
        d, m, k = int(combo["d"]), int(combo["m"]), int(combo["k"])
        sigma = float(combo["sigma"])
        rng = make_rng(master_seed, cell * STREAM_STRIDE)
        closed = mc = None
        if mode in ("closed", "both"):
            closed = evaluate(d, m, k, sigma, "closed")
        if mode in ("mc", "both"):
            mc = evaluate(d, m, k, sigma, "mc", samples, rng)
        if closed is not None:
            rows.append(_report_row(closed, None))
        if mc is not None:
            delta = abs(mc.value - closed.value) if closed is not None else None
            rows.append(_report_row(mc, delta))
    return rows


# ---------------------------------------------------------------------------
# subcommands


def _cmd_sample(args: argparse.Namespace) -> int:
    params = ModelParams(n=args.n, d=args.d, m=args.m, sigma=args.sigma)
    rng = make_rng(args.seed, 0)
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
        "master_seed": args.seed,
        "stream_index": 0,
        "mixer": MIXER_NAME,
        "artifact_version": __version__,
        **files,
    }
    write_sidecar(f"{prefix}_meta.txt", meta)
    return EXIT_OK


def _cmd_detect(args: argparse.Namespace) -> int:
    grids = {"n": args.n, "d": args.d, "m": args.m, "sigma": args.sigma}
    rows = detect_rows(grids, args.trials, args.threshold, args.seed)
    _write_lines(_resolve_output(args.output), rows)
    return EXIT_OK


def _cmd_advantage(args: argparse.Namespace) -> int:
    grids = {"n": args.n, "d": args.d, "m": args.m, "sigma": args.sigma, "D": args.D}
    rows, pattern_rows = advantage_rows(
        grids, args.samples, args.seed, args.pattern_cap,
        per_pattern=args.per_pattern is not None,
    )
    _write_lines(_resolve_output(args.output), rows)
    if args.per_pattern is not None:
        _write_lines(_resolve_output(args.per_pattern), pattern_rows)
    return EXIT_OK


def _cmd_chisq(args: argparse.Namespace) -> int:
    grids = {"d": args.d, "m": args.m, "k": args.k, "sigma": args.sigma}
    rows = chisq_rows(grids, args.mode, args.samples, args.seed)
    _write_lines(_resolve_output(args.output), rows)
    return EXIT_OK


def _cmd_oracle(args: argparse.Namespace) -> int:
    names = list(ORACLE_CHECKS) if args.check == "all" else [args.check]
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


# ---------------------------------------------------------------------------
# sweep configs: flat "key = value" text, arrays as "[a, b, c]"


def _parse_scalar(token: str) -> object:
    token = token.strip()
    try:
        return int(token)
    except ValueError:
        pass
    try:
        return float(token)
    except ValueError:
        pass
    if token.lower() in ("true", "false"):
        return token.lower() == "true"
    return token


def parse_config(text: str) -> dict[str, object]:
    """Parse the flat config format, preserving key order."""
    out: dict[str, object] = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ValueError(f"config line {lineno}: expected 'key = value', got {raw!r}")
        key, _, value = line.partition("=")
        key = key.strip()
        value = value.strip()
        if value.startswith("[") and value.endswith("]"):
            inner = value[1:-1].strip()
            out[key] = [_parse_scalar(tok) for tok in inner.split(",")] if inner else []
        else:
            out[key] = _parse_scalar(value)
    return out


def _config_grids(config: dict[str, object], grid_keys: tuple[str, ...]) -> dict[str, list]:
    """Grid keys in declared order; scalar grid keys become singleton lists.

    A list under any other key is a usage error: those keys take one value.
    """
    grids: dict[str, list] = {}
    for key, value in config.items():
        if key in grid_keys:
            grids[key] = list(value) if isinstance(value, list) else [value]
            if not grids[key]:
                raise ValueError(f"grid {key!r} must be nonempty")
        elif isinstance(value, list):
            raise ValueError(f"sweep key {key!r} takes a single value, got a list")
    return grids


def _require(config: dict[str, object], key: str) -> object:
    if key not in config:
        raise ValueError(f"sweep config is missing required key {key!r}")
    return config[key]


def _cmd_sweep(args: argparse.Namespace) -> int:
    with open(args.config) as fh:
        config = parse_config(fh.read())
    command = str(_require(config, "command"))
    if command not in SWEEP_GRID_KEYS:
        raise ValueError(
            f"unknown sweep command {command!r}; expected sample, detect, advantage, or chisq"
        )
    grids = _config_grids(config, SWEEP_GRID_KEYS[command])
    master_seed = int(_require(config, "master_seed"))
    for key in SWEEP_GRID_KEYS[command]:
        _require(config, key)

    if command == "detect":
        rows = detect_rows(
            grids,
            trials=int(_require(config, "trials")),
            threshold=float(config["threshold"]) if "threshold" in config else None,
            master_seed=master_seed,
        )
        _write_lines(_resolve_output(str(_require(config, "output"))), rows)
    elif command == "advantage":
        rows, pattern_rows = advantage_rows(
            grids,
            samples=int(_require(config, "samples")),
            master_seed=master_seed,
            pattern_cap=int(config.get("pattern_cap", 1_000_000)),
            per_pattern="per_pattern_output" in config,
        )
        _write_lines(_resolve_output(str(_require(config, "output"))), rows)
        if "per_pattern_output" in config:
            _write_lines(_resolve_output(str(config["per_pattern_output"])), pattern_rows)
    elif command == "chisq":
        rows = chisq_rows(
            grids,
            mode=str(config.get("mode", "closed")),
            samples=int(config.get("samples", 100_000)),
            master_seed=master_seed,
        )
        _write_lines(_resolve_output(str(_require(config, "output"))), rows)
    else:  # sample
        ns = argparse.Namespace(
            n=int(_require(config, "n")), d=int(_require(config, "d")),
            m=int(_require(config, "m")), sigma=float(_require(config, "sigma")),
            hypothesis=str(_require(config, "hypothesis")),
            seed=master_seed,
            keep_latent=bool(config.get("keep_latent", False)),
            prefix=str(config.get("prefix", "instance")),
        )
        if ns.hypothesis not in ("null", "planted"):
            raise ValueError(f"hypothesis must be null or planted, got {ns.hypothesis!r}")
        return _cmd_sample(ns)
    return EXIT_OK


# ---------------------------------------------------------------------------
# parser and entry point


def _add_int_grid(parser: argparse.ArgumentParser, name: str, **kwargs) -> None:
    parser.add_argument(name, type=int, nargs="+", **kwargs)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="shufflab",
        description="Batch experiments for low-degree detection in shuffled regression",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("sample", help="write one sampled instance to matrix text files")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--d", type=int, required=True)
    p.add_argument("--m", type=int, required=True)
    p.add_argument("--sigma", type=float, required=True)
    p.add_argument("--hypothesis", choices=("null", "planted"), required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--keep-latent", action="store_true", dest="keep_latent")
    p.add_argument("--prefix", default="instance")
    p.set_defaults(func=_cmd_sample)

    p = sub.add_parser("detect", help="error rates and separation over a parameter grid")
    _add_int_grid(p, "--n", required=True)
    _add_int_grid(p, "--d", required=True)
    _add_int_grid(p, "--m", required=True)
    p.add_argument("--sigma", type=float, nargs="+", required=True)
    p.add_argument("--trials", type=int, default=2000)
    p.add_argument("--threshold", type=float, default=None)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--output", required=True)
    p.set_defaults(func=_cmd_detect)

    p = sub.add_parser("advantage", help="squared-advantage estimates over a grid")
    _add_int_grid(p, "--n", required=True)
    _add_int_grid(p, "--d", required=True)
    _add_int_grid(p, "--m", required=True)
    p.add_argument("--sigma", type=float, nargs="+", required=True)
    _add_int_grid(p, "--D", required=True)
    p.add_argument("--samples", type=int, default=100_000)
    p.add_argument("--pattern-cap", type=int, default=1_000_000, dest="pattern_cap")
    p.add_argument("--per-pattern", default=None, dest="per_pattern",
                   help="also write per-pattern contributions to this CSV")
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--output", required=True)
    p.set_defaults(func=_cmd_advantage)

    p = sub.add_parser("chisq", help="chi-square reports over a (d, m, k, sigma) grid")
    _add_int_grid(p, "--d", required=True)
    _add_int_grid(p, "--m", required=True)
    _add_int_grid(p, "--k", required=True)
    p.add_argument("--sigma", type=float, nargs="+", required=True)
    p.add_argument("--mode", choices=CHISQ_MODES, default="closed")
    p.add_argument("--samples", type=int, default=100_000)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--output", required=True)
    p.set_defaults(func=_cmd_chisq)

    p = sub.add_parser("oracle", help="run analytic self-tests")
    p.add_argument("--check", choices=tuple(ORACLE_CHECKS) + ("all",), default="all")
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=_cmd_oracle)

    p = sub.add_parser("sweep", help="drive sample/detect/advantage/chisq from a config file")
    p.add_argument("--config", required=True)
    p.set_defaults(func=_cmd_sweep)

    return parser


def main(argv: Sequence[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        code = exc.code
        return EXIT_USAGE if code not in (0, None) else EXIT_OK
    start = time.monotonic()
    try:
        code = args.func(args)
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
