#!/usr/bin/env python3
"""Checksum a fixed list of CLI outputs, to show that a refactor keeps every byte.

    PYTHONPATH=<checkout>/src python scripts/golden_outputs.py OUT_DIR

OUT_DIR must be new or empty.  Runs each entry of ``RUNS`` through
``python -m shufflab.cli`` in a fresh interpreter, with OUT_DIR as the
working directory and ``SHUFFLAB_OUTPUT_DIR`` pointing at it, then writes
OUT_DIR/SHA256SUMS: one line per output file or captured stdout with its
sha256, and one line per run with its exit code, sorted.  The package comes
from PYTHONPATH, while the sweep configs come from this file's directory,
so two trees get the same inputs.  To compare a change with its parent, run this
once with PYTHONPATH on each tree and ``diff`` the two SHA256SUMS files.
Takes about two minutes on a 2-vCPU host.
"""

from __future__ import annotations

import hashlib
import os
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
CLI = [sys.executable, "-m", "shufflab.cli"]

# name -> argv; outputs are relative, so they land in OUT_DIR
RUNS: dict[str, list[str]] = {
    "sample-null": CLI + [
        "sample", "--n", "5", "--d", "3", "--m", "2", "--sigma", "0.5",
        "--hypothesis", "null", "--seed", "8", "--prefix", "null"],
    "sample-planted": CLI + [
        "sample", "--n", "5", "--d", "3", "--m", "2", "--sigma", "0.5",
        "--hypothesis", "planted", "--keep-latent", "--seed", "8", "--prefix", "planted"],
    # d >= 8 with m <= 2: the closed-form Stiefel draw sums more than 7 rows
    "sample-planted-d9": CLI + [
        "sample", "--n", "5", "--d", "9", "--m", "2", "--sigma", "0.5",
        "--hypothesis", "planted", "--keep-latent", "--seed", "18", "--prefix", "planted_d9"],
    "sample-null-4096": CLI + [
        "sample", "--n", "4096", "--d", "16", "--m", "16", "--sigma", "0.1",
        "--hypothesis", "null", "--seed", "1", "--prefix", "null4096"],
    "sample-planted-4096": CLI + [
        "sample", "--n", "4096", "--d", "16", "--m", "16", "--sigma", "0.1",
        "--hypothesis", "planted", "--keep-latent", "--seed", "1", "--prefix", "planted4096"],
    "detect": CLI + [
        "detect", "--n", "64", "--d", "8", "--m", "8", "--sigma", "0", "0.05", "1", "10",
        "--trials", "700", "--seed", "3", "--output", "detect.csv"],
    "detect-threshold": CLI + [
        "detect", "--n", "16", "--d", "4", "--m", "2", "--sigma", "0.5", "--trials", "300",
        "--threshold", "100", "--seed", "4", "--output", "detect_threshold.csv"],
    # nm = 1, B > 0, and sigma = 0 with m < d
    "detect-small": CLI + [
        "detect", "--n", "1", "--d", "3", "--m", "1", "--sigma", "0", "0.5", "--trials", "500",
        "--seed", "14", "--output", "detect_small.csv"],
    # a NaN threshold is a usage error (exit 2, no file), not a rule that never fires
    "detect-nan-threshold": CLI + [
        "detect", "--n", "4", "--d", "2", "--m", "2", "--sigma", "0.5", "--trials", "100",
        "--threshold", "nan", "--seed", "1", "--output", "detect_nan.csv"],
    "advantage-per-pattern": CLI + [
        "advantage", "--n", "2", "--d", "2", "--m", "2", "--sigma", "0.5", "--D", "0", "2", "4",
        "--samples", "2000", "--seed", "5", "--output", "advantage.csv",
        "--per-pattern", "advantage_patterns.csv"],
    "advantage-m1": CLI + [
        "advantage", "--n", "1", "--d", "2", "--m", "1", "--sigma", "0", "--D", "0", "4",
        "--samples", "20000", "--seed", "6", "--output", "advantage_m1.csv"],
    # 1,820 patterns over 18 slots: wider than any other run's pattern set
    "advantage-n3": CLI + [
        "advantage", "--n", "3", "--d", "2", "--m", "2", "--sigma", "1", "--D", "4",
        "--samples", "400", "--seed", "9", "--output", "advantage_n3.csv",
        "--per-pattern", "advantage_n3_patterns.csv"],
    # jackknife batch edges: unequal batches, then fewer samples than batches
    "advantage-2003": CLI + [
        "advantage", "--n", "2", "--d", "2", "--m", "2", "--sigma", "0.5", "--D", "4",
        "--samples", "2003", "--seed", "10", "--output", "advantage_2003.csv"],
    "advantage-7": CLI + [
        "advantage", "--n", "1", "--d", "2", "--m", "1", "--sigma", "0", "--D", "3",
        "--samples", "7", "--seed", "11", "--output", "advantage_7.csv"],
    # two cells of one shape, so the second reuses the first's pattern stack
    "advantage-sigma-grid": CLI + [
        "advantage", "--n", "2", "--d", "2", "--m", "1", "--sigma", "0", "1", "--D", "4",
        "--samples", "1000", "--seed", "12", "--output", "advantage_sigma_grid.csv"],
    # D = 6: seven X-degree blocks in the advantage kernel's graded split
    "advantage-D6": CLI + [
        "advantage", "--n", "2", "--d", "2", "--m", "2", "--sigma", "0.5", "--D", "6",
        "--samples", "500", "--seed", "16", "--output", "advantage_D6.csv"],
    "advantage-d8": CLI + [
        "advantage", "--n", "1", "--d", "8", "--m", "2", "--sigma", "0.5", "--D", "2",
        "--samples", "2000", "--seed", "19", "--output", "advantage_d8.csv",
        "--per-pattern", "advantage_d8_patterns.csv"],
    "chisq-both": CLI + [
        "chisq", "--d", "50", "60", "--m", "2", "--k", "1", "2", "--sigma", "0",
        "--mode", "both", "--samples", "20000", "--seed", "7", "--output", "chisq_both.csv"],
    # sigma = -0 reaches case 1: both rows print sigma 0 and no warning
    "chisq-both-minus-zero": CLI + [
        "chisq", "--d", "50", "--m", "2", "--k", "1", "--sigma", "-0", "--mode", "both",
        "--samples", "2000", "--seed", "3", "--output", "chisq_both_minus_zero.csv"],
    # k = 3: below-diagonal Bartlett entries and a three-row forward substitution
    "chisq-case1-k3": CLI + [
        "chisq", "--d", "20", "--m", "3", "--k", "3", "--sigma", "0",
        "--mode", "both", "--samples", "20000", "--seed", "15", "--output", "chisq_case1_k3.csv"],
    "chisq-closed": CLI + [
        "chisq", "--d", "40", "--m", "1", "--k", "2", "--sigma", "0", "--seed", "1",
        "--output", "chisq_closed.csv"],
    # d = 10,000: summed log-Gamma constants lost ~1e5 ulp here
    "chisq-closed-large-d": CLI + [
        "chisq", "--d", "10000", "--m", "2", "--k", "1", "2", "--sigma", "0", "--seed", "1",
        "--output", "chisq_closed_large_d.csv"],
    "chisq-mc": CLI + [
        "chisq", "--d", "16", "--m", "16", "--k", "1", "2", "--sigma", "1", "3",
        "--mode", "mc", "--samples", "5000", "--seed", "12", "--output", "chisq_mc.csv"],
    # the shortest determinant recursion (d = 2), and k = 3 > d
    "chisq-mc-small": CLI + [
        "chisq", "--d", "2", "--m", "2", "--k", "1", "3", "--sigma", "0.5", "2",
        "--mode", "mc", "--samples", "4000", "--seed", "13", "--output", "chisq_mc_small.csv"],
    # d = 1: each Haar draw is a sign, alpha_0 alone
    "chisq-mc-d1": CLI + [
        "chisq", "--d", "1", "--m", "1", "--k", "1", "2", "--sigma", "0.5", "2",
        "--mode", "mc", "--samples", "4000", "--seed", "17", "--output", "chisq_mc_d1.csv"],
    # d = 3: the smallest square cell that still samples, alpha_0 alone
    "chisq-mc-d3": CLI + [
        "chisq", "--d", "3", "--m", "3", "--k", "1", "2", "3", "--sigma", "0.5", "2",
        "--mode", "mc", "--samples", "4000", "--seed", "20", "--output", "chisq_mc_d3.csv"],
    # d = 4: the smallest square cell with a Szego product (alpha_0) before alpha_1
    "chisq-mc-d4": CLI + [
        "chisq", "--d", "4", "--m", "4", "--k", "1", "2", "3", "--sigma", "0.5", "2",
        "--mode", "mc", "--samples", "4000", "--seed", "21", "--output", "chisq_mc_d4.csv"],
    # refusals outside the regime table (exit 4, no file): noise with m < d,
    # Monte Carlo for case 2, and a closed form for m = d with noise
    "chisq-refuse-mc-m-lt-d": CLI + [
        "chisq", "--d", "16", "--m", "8", "--k", "1", "--sigma", "1", "--mode", "mc",
        "--seed", "1", "--output", "chisq_refuse_mc_m_lt_d.csv"],
    "chisq-refuse-mc-case2": CLI + [
        "chisq", "--d", "40", "--m", "1", "--k", "2", "--sigma", "0", "--mode", "mc",
        "--seed", "1", "--output", "chisq_refuse_mc_case2.csv"],
    "chisq-refuse-closed-m-eq-d": CLI + [
        "chisq", "--d", "16", "--m", "16", "--k", "1", "--sigma", "1",
        "--seed", "1", "--output", "chisq_refuse_closed_m_eq_d.csv"],
    # a valid first cell and an invalid last one: refused before the first cell runs
    # (exit 2, 2 and 4, no file)
    "detect-late-n0": CLI + [
        "detect", "--n", "64", "0", "--d", "8", "--m", "8", "--sigma", "1", "--trials", "700",
        "--seed", "1", "--output", "detect_late_n0.csv"],
    "advantage-late-negative-sigma": CLI + [
        "advantage", "--n", "1", "--d", "2", "--m", "1", "--sigma", "0.5", "-1", "--D", "4",
        "--samples", "2000", "--seed", "1", "--output", "advantage_late_sigma.csv"],
    "chisq-late-mc-sigma0": CLI + [
        "chisq", "--d", "40", "--m", "40", "--k", "2", "--sigma", "1", "0", "--mode", "mc",
        "--samples", "4000", "--seed", "1", "--output", "chisq_late_sigma0.csv"],
    # sigma above sqrt of the largest double: 1 + sigma^2 overflows (exit 2, no file)
    "detect-sigma-1e200": CLI + [
        "detect", "--n", "4", "--d", "2", "--m", "2", "--sigma", "1e200", "--trials", "100",
        "--seed", "1", "--output", "detect_sigma_1e200.csv"],
    # case 2 at d - 3k = m: about 9.9e219, then above the largest double, which reads inf
    "chisq-closed-overflow": CLI + [
        "chisq", "--d", "620", "--m", "10", "20", "--k", "200", "--sigma", "0", "--seed", "1",
        "--output", "chisq_closed_overflow.csv"],
    # a closed form whose exact integers would hold 9.1e6 bits: refused, not 15 s of work
    # (exit 3, no file)
    "chisq-closed-cap": CLI + [
        "chisq", "--d", "6000", "--m", "1000", "--k", "1000", "--sigma", "0", "--seed", "1",
        "--output", "chisq_closed_cap.csv"],
    # the same cell by Monte Carlo: the likelihood ratio's constant would hold 6.1e6 bits
    # (exit 3, no file)
    "chisq-mc-cap": CLI + [
        "chisq", "--d", "6000", "--m", "1000", "--k", "1000", "--sigma", "0", "--mode", "mc",
        "--seed", "1", "--output", "chisq_mc_cap.csv"],
    # the determinant integral at d = 100,000 would run 2.0e8 Szego steps, about 45 minutes
    # (exit 3, no file)
    "chisq-refuse-mc-steps": CLI + [
        "chisq", "--d", "100000", "--m", "100000", "--k", "1", "--sigma", "1", "--mode", "mc",
        "--samples", "4096", "--seed", "1", "--output", "chisq_refuse_mc_steps.csv"],
    # sixteen estimates in one process, each on the pages the one before it freed
    "advantage-grid": CLI + [
        "advantage", "--n", "1", "2", "--d", "2", "--m", "1", "2", "--sigma", "0", "0.5",
        "--D", "3", "4", "--samples", "2000", "--seed", "5", "--output", "advantage_grid.csv"],
    # two samples make one-sample jackknife batches with no variance (exit 2, no file)
    "advantage-two-samples": CLI + [
        "advantage", "--n", "1", "--d", "2", "--m", "1", "--sigma", "0.5", "--D", "4",
        "--samples", "2", "--seed", "1", "--output", "advantage_two_samples.csv"],
    **{
        f"sweep-{cfg.stem}": CLI + ["sweep", "--config", str(cfg)]
        for cfg in sorted(HERE.glob("*.cfg"))
    },
    "oracle-all": CLI + ["oracle", "--check", "all", "--seed", "0"],
}


def main(argv: list[str]) -> int:
    if len(argv) != 1:
        print(__doc__, file=sys.stderr)
        return 2
    out_dir = Path(argv[0]).resolve()
    out_dir.mkdir(parents=True, exist_ok=True)
    if any(out_dir.iterdir()):
        print(f"{out_dir} is not empty; its old files would enter SHA256SUMS", file=sys.stderr)
        return 2
    env = dict(os.environ, SHUFFLAB_OUTPUT_DIR=".")
    # the runs start in OUT_DIR, so relative PYTHONPATH entries must not move
    paths = [str(Path(p).resolve()) for p in env.get("PYTHONPATH", "").split(os.pathsep) if p]
    env["PYTHONPATH"] = os.pathsep.join(paths)
    lines = []
    for name, cmd in RUNS.items():
        proc = subprocess.run(cmd, cwd=out_dir, env=env, capture_output=True)
        (out_dir / f"{name}.stdout").write_bytes(proc.stdout)
        lines.append(f"exit {proc.returncode}  {name}")
        print(f"{name}: exit {proc.returncode}", file=sys.stderr)
    for path in sorted(out_dir.iterdir()):
        if path.is_file() and path.name != "SHA256SUMS":
            lines.append(f"{hashlib.sha256(path.read_bytes()).hexdigest()}  {path.name}")
    (out_dir / "SHA256SUMS").write_text("\n".join(sorted(lines)) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
