"""The benchmark's workloads, their independent references and output checks.

Each workload is one *pass*: a fixed set of CLI invocations (through
``shufflab.cli.main``) and library calls at one pass seed.  A pass returns
the digests of every file it wrote, its Monte Carlo estimates as
(value, stderr) pairs, and a few exact values.  Statistical checks run once
per benchmark run on estimates pooled over its distinct pass seeds, so a
campaign of many runs does not trip a 4-stderr check on the heavy tail of
one small estimate; exact checks run on every pass.

Every operation goes through a ``Recorder``: a non-zero CLI exit, an
exception or a failed check is counted as a failure and the run goes on.
"""

from __future__ import annotations

import csv
import hashlib
import math
import sys
import traceback
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

import numpy as np

from shufflab import advantage, cli, matrixio, model
from shufflab.rng import make_rng

Z_LIMIT = 4.0

# chisq-square: Haar m = d Monte Carlo over a sweep config, plus case 1.
CHISQ_D = 40
CHISQ_K = 2
CHISQ_SIGMAS = (1.0, 2.0, 4.0)
CHISQ_SAMPLES = 8192
CASE1 = (50, 2, 1)  # (d, m, k), sigma = 0
CASE1_SAMPLES = 200_000
CASE1_EXACT = 24 / 23
CASE1_CLOSED_TOL = 1e-12

# detect-sample: the detector grid, then one large planted instance on disk.
DETECT_N, DETECT_D = 256, 16
DETECT_SIGMAS = (0.05, 1.0, 10.0)
DETECT_TRIALS = 1000
SAMPLE_N, SAMPLE_SIGMA = 4096, 1.0

# advantage-curve: CLI estimator, toy estimator, exact single-column bound.
ADV_PARAMS = (2, 2, 2, 0.5, 4)  # (n, d, m, sigma, D): 495 patterns
# Each jackknife stderr has 19 degrees of freedom, so (stderr/value)^2 of one
# estimate scatters by ~30%; many cheap replicates keep rel_var_x_s steady.
ADV_REPLICATES = 32
ADV_SAMPLES = 2000
TOY = model.ModelParams(n=1, d=2, m=1, sigma=0.0)
TOY_EXACT = {3: 1.0, 4: 1.5}
TOY_REPLICATES = 64
TOY_SAMPLES = 2000
# advantage_bound_m1 values at the seed commit; the bound is exact rational
# arithmetic rounded once, so any change in the last digit is a regression.
BOUND_M1_SEED = {(3, 6): 1383.9644907881345, (2, 8): 1295443.6677179092}
BOUND_VS_TOY = (2, 4)


class Recorder:
    """Counts attempted and failed operations; never lets one abort a run."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []

    def _fail(self, label: str, why: str) -> None:
        self.failed += 1
        self.failures.append(f"{label}: {why}")
        print(f"FAIL {label}: {why}", file=sys.stderr)

    def call(self, label: str, fn: Callable, *args, **kwargs):
        """Run one library call; an exception is a counted failure (returns None)."""
        self.attempted += 1
        try:
            return fn(*args, **kwargs)
        except Exception as exc:  # a failed operation is a result, not a crash
            traceback.print_exc(file=sys.stderr)
            self._fail(label, f"{type(exc).__name__}: {exc}")
            return None

    def cli(self, argv: list[str]) -> None:
        """Run ``shufflab <argv>`` in-process; a non-zero exit is a failure."""
        label = f"shufflab {argv[0]}"
        code = self.call(label, cli.main, argv)
        if code not in (None, 0):
            self._fail(label, f"exit code {code}")

    def check(self, label: str, fn: Callable[[], tuple[bool, str]]) -> None:
        """Evaluate one output check lazily; raising counts as failing."""
        self.attempted += 1
        try:
            ok, detail = fn()
        except Exception as exc:  # e.g. the output it reads was never written
            self._fail(label, f"{type(exc).__name__}: {exc}")
            return
        if not ok:
            self._fail(label, detail)


@dataclass
class PassOutput:
    """What one pass produced; ``estimates`` maps a name to (value, stderr)."""

    digests: dict[str, str] = field(default_factory=dict)
    estimates: dict[str, tuple[float, float]] = field(default_factory=dict)
    exact: dict[str, float] = field(default_factory=dict)
    rows: int = 0
    error_sum: float | None = None


def pool(estimates: list[tuple[float, float]]) -> tuple[float, float]:
    """Mean of independent estimates and its standard error."""
    values = [v for v, _ in estimates]
    return (
        math.fsum(values) / len(values),
        math.sqrt(math.fsum(se * se for _, se in estimates)) / len(estimates),
    )


def pooled_estimates(passes: list[PassOutput]) -> dict[str, tuple[float, float]]:
    """Pool each named estimate over passes (one pass per distinct seed)."""
    names = {name for p in passes for name in p.estimates}
    return {
        name: pool([p.estimates[name] for p in passes if name in p.estimates])
        for name in sorted(names)
    }


def relative_variance(out: PassOutput) -> float:
    """Mean of (stderr/value)^2 over one pass's estimates (inf if it has none)."""
    terms = [(se / v) ** 2 for v, se in out.estimates.values()]
    return math.fsum(terms) / len(terms) if terms else math.inf


def check_within(
    rec: Recorder, label: str, pooled: dict[str, tuple[float, float]], reference: float
) -> None:
    """Pooled estimate ``label`` lies within Z_LIMIT stderr of ``reference``."""

    def verdict() -> tuple[bool, str]:
        value, se = pooled[label]
        z = (value - reference) / se
        return abs(z) <= Z_LIMIT, f"value {value!r} vs reference {reference!r}, z = {z:+.2f}"

    rec.check(label, verdict)


def _digest(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def _read_csv(path: Path) -> list[dict[str, str]]:
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


def _rows(rec: Recorder, out: PassOutput, path: Path) -> list[dict[str, str]]:
    """Read one result CSV; its data rows count towards ``cli.rows``."""
    rows = rec.call(f"read {path.name}", _read_csv, path) or []
    out.rows += len(rows)
    return rows


def _digests(rec: Recorder, out: PassOutput, files: list[Path]) -> None:
    for f in files:
        digest = rec.call(f"digest {f.name}", _digest, f)
        if digest is not None:
            out.digests[f.name] = digest


# ---------------------------------------------------------------------------
# chisq-square


def m_eq_d_exact(k: int, sigma: float) -> float:
    """E_Haar det(I - eps Q)^(-k) = (1 - eps^2)^(-k(k+1)/2), eps = 1/(1+sigma^2), k <= d."""
    eps = 1.0 / (1.0 + sigma**2)
    return (1.0 - eps**2) ** (-k * (k + 1) / 2)


def chisq_square(rec: Recorder, seed: int, out_dir: Path) -> PassOutput:
    out = PassOutput()
    sweep_csv, case1_csv = out_dir / "chisq_sweep.csv", out_dir / "chisq_case1.csv"
    config = out_dir / "chisq_sweep.cfg"
    config.write_text(
        "command = chisq\n"
        f"master_seed = {seed}\n"
        "mode = mc\n"
        f"samples = {CHISQ_SAMPLES}\n"
        f"d = {CHISQ_D}\nm = {CHISQ_D}\nk = {CHISQ_K}\n"
        f"sigma = [{', '.join(map(str, CHISQ_SIGMAS))}]\n"
        f"output = {sweep_csv}\n"
    )
    rec.cli(["sweep", "--config", str(config)])
    d, m, k = CASE1
    rec.cli([
        "chisq", "--d", str(d), "--m", str(m), "--k", str(k), "--sigma", "0",
        "--mode", "both", "--samples", str(CASE1_SAMPLES), "--seed", str(seed),
        "--output", str(case1_csv),
    ])
    for row in _rows(rec, out, sweep_csv):
        out.estimates[f"m_eq_d sigma={float(row['sigma']):g}"] = (
            float(row["value"]), float(row["stderr"]))
    for row in _rows(rec, out, case1_csv):
        if row["method"] == "monte_carlo":
            out.estimates["case1 mc"] = (float(row["value"]), float(row["stderr"]))
        else:
            out.exact["case1 closed"] = float(row["value"])
    rec.check("case1 closed = 24/23", lambda: (
        abs(out.exact["case1 closed"] - CASE1_EXACT) <= CASE1_CLOSED_TOL,
        f"closed value {out.exact['case1 closed']!r} vs 24/23"))
    _digests(rec, out, [sweep_csv, case1_csv])
    return out


def chisq_square_checks(rec: Recorder, pooled: dict, passes: list[PassOutput]) -> None:
    for sigma in CHISQ_SIGMAS:
        check_within(rec, f"m_eq_d sigma={sigma:g}", pooled, m_eq_d_exact(CHISQ_K, sigma))
    check_within(rec, "case1 mc", pooled, CASE1_EXACT)


# ---------------------------------------------------------------------------
# detect-sample


def detect_means(n: int, d: int, sigma: float) -> tuple[float, float]:
    """Analytic means of f = (|Y|^2 - |X|^2)^2 at m = d: null 4nd, planted 4 s^2 nd/(1+s^2)."""
    s2 = sigma**2
    return 4.0 * n * d, 4.0 * s2 * n * d / (1.0 + s2)


def _sample_matches(prefix: Path, seed: int) -> tuple[bool, str]:
    params = model.ModelParams(n=SAMPLE_N, d=DETECT_D, m=DETECT_D, sigma=SAMPLE_SIGMA)
    ref = model.sample_planted(params, make_rng(seed, 0), keep_latent=True)
    expected = {
        "X": ref.X, "Y": ref.Y, "Q": ref.latent.Q, "Z": ref.latent.Z,
        "perm": ref.latent.perm[None, :].astype(float),
    }
    bad = [
        key for key, arr in expected.items()
        if not np.array_equal(matrixio.read_matrix(f"{prefix}_{key}.txt"), arr)
    ]
    return not bad, f"read-back differs from model.sample_planted in {bad}"


def detect_sample(rec: Recorder, seed: int, out_dir: Path) -> PassOutput:
    out = PassOutput()
    detect_csv, prefix = out_dir / "detect.csv", out_dir / "inst"
    rec.cli([
        "detect", "--n", str(DETECT_N), "--d", str(DETECT_D), "--m", str(DETECT_D),
        "--sigma", *map(str, DETECT_SIGMAS), "--trials", str(DETECT_TRIALS),
        "--seed", str(seed), "--output", str(detect_csv),
    ])
    rec.cli([
        "sample", "--n", str(SAMPLE_N), "--d", str(DETECT_D), "--m", str(DETECT_D),
        "--sigma", str(SAMPLE_SIGMA), "--hypothesis", "planted", "--keep-latent",
        "--seed", str(seed), "--prefix", str(prefix),
    ])
    rec.check("sample read-back", lambda: _sample_matches(prefix, seed))
    for row in _rows(rec, out, detect_csv):
        sigma, trials = float(row["sigma"]), int(row["trials"])
        for law in ("null", "planted"):
            out.estimates[f"{law} mean sigma={sigma:g}"] = (
                float(row[f"mean_{law}"]), math.sqrt(float(row[f"var_{law}"]) / trials))
        if sigma == DETECT_SIGMAS[0]:
            out.error_sum = float(row["type1"]) + float(row["type2"])
    files = [detect_csv] + [
        Path(f"{prefix}_{key}.txt") for key in ("X", "Y", "perm", "Q", "Z", "meta")
    ]
    _digests(rec, out, files)
    return out


def detect_sample_checks(rec: Recorder, pooled: dict, passes: list[PassOutput]) -> None:
    for sigma in DETECT_SIGMAS:
        null, planted = detect_means(DETECT_N, DETECT_D, sigma)
        check_within(rec, f"null mean sigma={sigma:g}", pooled, null)
        check_within(rec, f"planted mean sigma={sigma:g}", pooled, planted)


# ---------------------------------------------------------------------------
# advantage-curve


def advantage_curve(rec: Recorder, seed: int, out_dir: Path) -> PassOutput:
    out = PassOutput()
    n, d, m, sigma, D = ADV_PARAMS
    csvs = [out_dir / f"advantage_{r}.csv" for r in range(ADV_REPLICATES)]
    replicates = []
    for r, path in enumerate(csvs):
        rec.cli([
            "advantage", "--n", str(n), "--d", str(d), "--m", str(m), "--sigma", str(sigma),
            "--D", str(D), "--samples", str(ADV_SAMPLES),
            "--seed", str(seed * ADV_REPLICATES + r), "--output", str(path),
        ])
        for row in _rows(rec, out, path):
            replicates.append((float(row["adv_sq"]), float(row["stderr"])))
            rec.check("advantage pattern count", lambda row=row: (
                int(row["pattern_count"]) == math.comb(n * (d + m) + D, D),
                f"pattern_count {row['pattern_count']}"))
    if replicates:
        out.estimates["advantage n=2"] = pool(replicates)
    for D_toy in TOY_EXACT:
        toy = [
            rec.call(f"toy D={D_toy}", advantage.estimate_advantage_sq,
                     TOY, D_toy, TOY_SAMPLES, make_rng(seed, 64 * r + D_toy))
            for r in range(TOY_REPLICATES)
        ]
        toy = [(e.value_sq, e.stderr) for e in toy if e is not None]
        if toy:
            out.estimates[f"toy D={D_toy}"] = pool(toy)
    for (d_b, D_b), expected in BOUND_M1_SEED.items():
        value = rec.call(f"bound m1 {d_b},{D_b}", advantage.advantage_bound_m1, d_b, D_b)
        rec.check(f"bound m1 {d_b},{D_b} = seed value", lambda value=value, expected=expected: (
            value == expected, f"{value!r} != {expected!r}"))
    value = rec.call("bound m1 toy", advantage.advantage_bound_m1, *BOUND_VS_TOY)
    if value is not None:
        out.exact["bound toy"] = value
    _digests(rec, out, csvs)
    return out


def advantage_curve_checks(rec: Recorder, pooled: dict, passes: list[PassOutput]) -> None:
    for D_toy, exact in TOY_EXACT.items():
        check_within(rec, f"toy D={D_toy}", pooled, exact)

    def bound_covers_toy() -> tuple[bool, str]:
        bound = passes[0].exact["bound toy"]
        value, se = pooled["toy D=4"]
        return bound >= value - 3 * se, f"bound {bound!r} < toy D=4 {value!r} - 3 * {se!r}"

    rec.check("bound m1 covers toy D=4", bound_covers_toy)


@dataclass(frozen=True)
class Workload:
    name: str
    run_pass: Callable[[Recorder, int, Path], PassOutput]
    check_pooled: Callable[[Recorder, dict, list[PassOutput]], None]
    sizes: dict[str, int]


WORKLOADS = {
    w.name: w
    for w in (
        Workload("chisq-square", chisq_square, chisq_square_checks, {
            "m_eq_d_samples_per_cell": CHISQ_SAMPLES, "case1_samples": CASE1_SAMPLES}),
        Workload("detect-sample", detect_sample, detect_sample_checks, {
            "detect_trials_per_cell": DETECT_TRIALS, "sample_rows": SAMPLE_N}),
        Workload("advantage-curve", advantage_curve, advantage_curve_checks, {
            "advantage_replicates": ADV_REPLICATES, "advantage_samples": ADV_SAMPLES,
            "toy_replicates": TOY_REPLICATES, "toy_samples": TOY_SAMPLES}),
    )
}
