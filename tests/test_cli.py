import argparse
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import shufflab
from shufflab import make_rng
from shufflab.advantage import advantage_sq_with_patterns
from shufflab.cli import (
    ORACLE_NAMES,
    STREAM_STRIDE,
    build_parser,
    main,
    parse_config,
    resolve_config,
)
from shufflab.detect import _sample_f, run_test
from shufflab.matrixio import format_float, read_matrix, read_sidecar
from shufflab.model import ModelParams
from shufflab.oracles import ORACLE_CHECKS

SCRIPTS = Path(__file__).resolve().parent.parent / "scripts"


def run_cli(*args) -> int:
    return main([str(a) for a in args])


def test_cli_start_loads_no_scipy(tmp_path):
    # SciPy and the oracle module are imported by the commands that use them,
    # not when the CLI starts, and the chisq, sweep and advantage commands use neither
    runs = [
        ["chisq", "--d", "50", "--m", "2", "--k", "1", "--sigma", "0", "--mode", "both",
         "--samples", "2000", "--seed", "1", "--output", "case1.csv"],
        ["chisq", "--d", "40", "--m", "1", "--k", "2", "--sigma", "0", "--seed", "1",
         "--output", "case2.csv"],
        ["sweep", "--config", str(SCRIPTS / "chisq_regimes_noiseless.cfg")],
        ["advantage", "--n", "1", "--d", "2", "--m", "1", "--sigma", "0", "--D", "2",
         "--samples", "200", "--seed", "1", "--output", "advantage.csv"],
    ]
    code = (
        "import json, sys, shufflab.cli as cli\n"
        "def loaded():\n"
        "    return sorted(m for m in sys.modules\n"
        "                  if m.split('.')[0] == 'scipy' or m == 'shufflab.oracles')\n"
        "cli.build_parser()\n"
        "start = loaded()\n"
        "codes = [cli.main(argv) for argv in json.loads(sys.argv[1])]\n"
        "print(json.dumps([start, codes, loaded()]))\n"
    )
    src = str(Path(shufflab.__file__).resolve().parent.parent)
    env = dict(os.environ, PYTHONPATH=src, SHUFFLAB_OUTPUT_DIR=".")
    out = subprocess.run([sys.executable, "-c", code, json.dumps(runs)], env=env, cwd=tmp_path,
                         capture_output=True, text=True, check=True)
    start, codes, after = json.loads(out.stdout.splitlines()[-1])
    assert start == []
    assert codes == [0, 0, 0, 0]
    assert after == []
    assert (tmp_path / "chisq_regimes_noiseless.csv").exists()


@pytest.fixture
def fresh_parser():
    build_parser.cache_clear()
    yield
    build_parser.cache_clear()  # drop the parser built under the test's patches


def test_parser_is_built_once_per_process(tmp_path, monkeypatch, capsys, fresh_parser):
    # usage errors and help pages exit through the same parser as the runs around them
    builds = []
    init = argparse.ArgumentParser.__init__

    def spy(self, *args, **kwargs):
        if kwargs.get("prog") == "shufflab":  # the top level, not a subcommand's parser
            builds.append(kwargs["prog"])
        init(self, *args, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "__init__", spy)
    chisq = ("chisq", "--d", 50, "--m", 2, "--k", 1, "--sigma", 0.0, "--seed", 1)
    assert run_cli(*chisq, "--output", tmp_path / "a.csv") == 0
    assert run_cli("chisq", "--d", 50) == 2
    assert run_cli("--help") == 0
    assert run_cli("detect", "--help") == 0
    assert run_cli(*chisq, "--mode", "bogus", "--output", tmp_path / "b.csv") == 2
    assert run_cli(*chisq, "--output", tmp_path / "c.csv") == 0
    assert builds == ["shufflab"]
    assert (tmp_path / "a.csv").read_bytes() == (tmp_path / "c.csv").read_bytes()
    assert not (tmp_path / "b.csv").exists()


@pytest.mark.parametrize("argv", [
    ("advantage", "--n", 1, "--d", 2, "--m", 1, "--sigma", 0.5, "--D", 0, 2,
     "--samples", 500, "--seed", 3),
    ("chisq", "--d", 50, "--m", 2, "--k", 1, 2, "--sigma", 0.0, "--mode", "both",
     "--samples", 2000, "--seed", 4),
], ids=("advantage", "chisq"))
def test_repeated_call_after_errors_writes_the_same_bytes(tmp_path, capsys, argv):
    first, again = tmp_path / "first.csv", tmp_path / "again.csv"
    assert run_cli(*argv, "--output", first) == 0
    assert run_cli(*argv[:3], "--output", tmp_path / "x.csv") == 2  # missing flags
    assert run_cli(argv[0], "--help") == 0
    assert run_cli(*argv, "--output", again) == 0
    assert first.read_bytes() == again.read_bytes()
    assert not (tmp_path / "x.csv").exists()


def test_oracle_names_are_the_oracle_checks():
    assert ORACLE_NAMES == tuple(ORACLE_CHECKS)


def test_sample_writes_instance_and_reruns_identical(tmp_path):
    prefix = tmp_path / "inst"
    args = ("sample", "--n", 4, "--d", 3, "--m", 2, "--sigma", 0.5,
            "--hypothesis", "planted", "--seed", 7, "--prefix", prefix)
    assert run_cli(*args) == 0
    x = read_matrix(f"{prefix}_X.txt")
    y = read_matrix(f"{prefix}_Y.txt")
    assert x.shape == (4, 3) and y.shape == (4, 2)
    first = {p.name: p.read_bytes() for p in tmp_path.iterdir()}
    assert run_cli(*args) == 0
    second = {p.name: p.read_bytes() for p in tmp_path.iterdir()}
    assert first == second


def test_sample_keep_latent_lists_files(tmp_path):
    prefix = tmp_path / "inst"
    assert run_cli("sample", "--n", 3, "--d", 3, "--m", 3, "--sigma", 0.0,
                   "--hypothesis", "planted", "--seed", 9, "--keep-latent",
                   "--prefix", prefix) == 0
    meta = read_sidecar(f"{prefix}_meta.txt")
    for key in ("perm_file", "q_file", "z_file"):
        assert key in meta and os.path.exists(meta[key])
    perm = read_matrix(meta["perm_file"]).ravel().astype(int)
    assert sorted(perm.tolist()) == [0, 1, 2]
    q = read_matrix(meta["q_file"])
    assert np.max(np.abs(q.T @ q - np.eye(3))) <= 1e-10


def test_sample_rejects_m_above_d(tmp_path):
    code = run_cli("sample", "--n", 2, "--d", 3, "--m", 5, "--sigma", 0.1,
                   "--hypothesis", "null", "--seed", 1,
                   "--prefix", tmp_path / "x")
    assert code == 2


def test_detect_csv_grid_and_determinism(tmp_path):
    out1, out2 = tmp_path / "a.csv", tmp_path / "b.csv"
    args = ("detect", "--n", 64, "--d", 8, "--m", 8, "--sigma", 0.05, 10.0,
            "--trials", 400, "--seed", 3)
    assert run_cli(*args, "--output", out1) == 0
    assert run_cli(*args, "--output", out2) == 0
    assert out1.read_bytes() == out2.read_bytes()
    lines = out1.read_text().splitlines()
    assert lines[0].startswith("n,d,m,sigma,trials,threshold,type1,type2")
    assert len(lines) == 3
    row_high_sigma = dict(zip(lines[0].split(","), lines[2].split(",")))
    assert float(row_high_sigma["sigma"]) == 10.0
    assert float(row_high_sigma["type1"]) + float(row_high_sigma["type2"]) >= 0.3


def test_detect_usage_errors(tmp_path):
    assert run_cli("detect", "--n", 8, "--d", 4, "--m", 6, "--sigma", 1.0,
                   "--seed", 1, "--output", tmp_path / "x.csv") == 2
    assert run_cli("detect", "--n", 8) == 2  # missing required flags
    # an infinite sigma would write a NaN threshold that reads as a perfect test
    out = tmp_path / "inf.csv"
    assert run_cli("detect", "--n", 8, "--d", 4, "--m", 4, "--sigma", "inf",
                   "--seed", 1, "--output", out) == 2
    assert not out.exists()


def test_detect_nan_threshold_is_usage_error(tmp_path, capsys):
    # no comparison with NaN holds, so the rule would read as a perfect test
    out = tmp_path / "nan.csv"
    assert run_cli("detect", "--n", 4, "--d", 2, "--m", 2, "--sigma", 0.5, "--trials", 100,
                   "--threshold", "nan", "--seed", 1, "--output", out) == 2
    assert "threshold must not be NaN" in capsys.readouterr().err
    config = tmp_path / "nan.cfg"
    config.write_text(
        "command = detect\nmaster_seed = 1\nn = [4]\nd = [2]\nm = [2]\nsigma = [0.5]\n"
        f"trials = 100\nthreshold = nan\noutput = {out}\n"
    )
    assert run_cli("sweep", "--config", config) == 2
    assert "threshold must not be NaN" in capsys.readouterr().err
    assert not out.exists()


def test_detect_one_trial_refused_before_any_draw(tmp_path, monkeypatch):
    # run_test needs two trials for the sample variances and refuses one before it draws
    calls = []

    def spy(params, hypothesis, trials, rng):
        calls.append(hypothesis)
        return _sample_f(params, hypothesis, trials, rng)

    monkeypatch.setattr("shufflab.detect._sample_f", spy)
    out = tmp_path / "x.csv"
    assert run_cli("detect", "--n", 8, "--d", 4, "--m", 4, "--sigma", 1.0, "--trials", 1,
                   "--seed", 1, "--output", out) == 2
    assert calls == []
    assert not out.exists()


def test_detect_one_pass_per_cell(tmp_path, monkeypatch):
    # each cell draws f once per law, null then planted, on its base stream
    calls = []

    def spy(params, hypothesis, trials, rng):
        calls.append(hypothesis)
        return _sample_f(params, hypothesis, trials, rng)

    monkeypatch.setattr("shufflab.detect._sample_f", spy)
    out = tmp_path / "x.csv"
    assert run_cli("detect", "--n", 8, "--d", 4, "--m", 4, "--sigma", 0.5, 2.0,
                   "--trials", 50, "--seed", 6, "--output", out) == 0
    assert calls == ["null", "planted"] * 2
    header, *rows = out.read_text().splitlines()
    columns = header.split(",")
    for cell, (sigma, row) in enumerate(zip((0.5, 2.0), rows)):
        report = run_test(ModelParams(8, 4, 4, sigma), None, 50, make_rng(6, cell * STREAM_STRIDE))
        fields = dict(zip(columns, row.split(",")))
        for name in ("threshold", "type1", "type2", "mean_null", "mean_planted",
                     "var_null", "var_planted", "separation_ratio"):
            assert fields[name] == format_float(getattr(report, name)), name


def test_advantage_csv(tmp_path):
    out = tmp_path / "adv.csv"
    assert run_cli("advantage", "--n", 1, "--d", 2, "--m", 1, "--sigma", 0.0,
                   "--D", 0, 4, "--samples", 100_000, "--seed", 5,
                   "--output", out) == 0
    lines = out.read_text().splitlines()
    assert lines[0] == "n,d,m,sigma,D,adv_sq,stderr,pattern_count"
    d0 = dict(zip(lines[0].split(","), lines[1].split(",")))
    assert float(d0["adv_sq"]) == 1.0 and int(d0["pattern_count"]) == 1
    d4 = dict(zip(lines[0].split(","), lines[2].split(",")))
    assert abs(float(d4["adv_sq"]) - 1.5) <= 3 * float(d4["stderr"])


def test_advantage_capacity_exit_code(tmp_path, capsys):
    code = run_cli("advantage", "--n", 6, "--d", 6, "--m", 6, "--sigma", 0.0,
                   "--D", 8, "--samples", 10, "--seed", 1, "--output", tmp_path / "x.csv")
    assert code == 3
    assert "1000000" in capsys.readouterr().err


def test_advantage_cap_rejects_grid_before_any_cell(tmp_path, monkeypatch):
    # D = 2 has 190 patterns and fits the cap of 10^6, D = 8 has C(26, 8) = 1,562,275
    # and does not: no cell may run
    calls = []

    def spy(params, D, *args, **kwargs):
        calls.append(D)
        return advantage_sq_with_patterns(params, D, *args, **kwargs)

    monkeypatch.setattr("shufflab.cli.advantage_sq_with_patterns", spy)
    out = tmp_path / "x.csv"
    code = run_cli("advantage", "--n", 3, "--d", 3, "--m", 3, "--sigma", 0.5, "--D", 2, 8,
                   "--samples", 2000, "--seed", 1, "--output", out)
    assert code == 3
    assert calls == []
    assert not out.exists()


@pytest.mark.parametrize("grid", [
    ("--D", 0, "--samples", 0),
    ("--D", 4, -1, "--samples", 2000),
    ("--D", 2, "--samples", 1),
], ids=("D0-samples0", "negative-D-after-a-cell", "samples1"))
def test_advantage_bad_degree_or_samples_rejected_before_any_cell(tmp_path, monkeypatch, grid):
    calls = []

    def spy(params, D, *args, **kwargs):
        calls.append(D)
        return advantage_sq_with_patterns(params, D, *args, **kwargs)

    monkeypatch.setattr("shufflab.cli.advantage_sq_with_patterns", spy)
    out = tmp_path / "x.csv"
    code = run_cli("advantage", "--n", 1, "--d", 2, "--m", 1, "--sigma", 0.5, *grid,
                   "--seed", 1, "--output", out)
    assert code == 2
    assert calls == []
    assert not out.exists()


@pytest.mark.parametrize("argv, target, code", [
    (("detect", "--n", 64, 0, "--d", 8, "--m", 8, "--sigma", 1.0, "--trials", 200),
     "run_test", 2),
    (("advantage", "--n", 1, "--d", 2, "--m", 1, "--sigma", 0.5, -1, "--D", 4,
      "--samples", 2000), "advantage_sq_with_patterns", 2),
    (("chisq", "--d", 40, "--m", 40, "--k", 2, "--sigma", 1, -1, "--mode", "mc",
      "--samples", 2000), "evaluate", 2),
    (("chisq", "--d", 40, "--m", 40, "--k", 2, "--sigma", 1, 0, "--mode", "mc",
      "--samples", 2000), "evaluate", 4),
    # "both" checks each method: k = 2 is case 2, which has no Monte Carlo evaluator
    (("chisq", "--d", 40, "--m", 1, "--k", 1, 2, "--sigma", 0, "--mode", "both",
      "--samples", 2000), "evaluate", 4),
], ids=("detect-n0", "advantage-negative-sigma", "chisq-negative-sigma", "chisq-mc-sigma0",
        "chisq-both-case2-mc"))
def test_late_invalid_cell_refused_before_any_cell(tmp_path, monkeypatch, argv, target, code):
    # the first cell is valid and the last is not: every cell passes its library check
    # before the first one runs
    calls = []
    real = getattr(shufflab.cli, target)

    def spy(*args, **kwargs):
        calls.append(args)
        return real(*args, **kwargs)

    monkeypatch.setattr(shufflab.cli, target, spy)
    out = tmp_path / "x.csv"
    assert run_cli(*argv, "--seed", 1, "--output", out) == code
    assert calls == []
    assert not out.exists()


@pytest.mark.parametrize("argv", [
    ("sample", "--n", 3, "--d", 2, "--m", 2, "--hypothesis", "null", "--prefix"),
    ("sample", "--n", 3, "--d", 2, "--m", 2, "--hypothesis", "planted", "--prefix"),
    ("detect", "--n", 4, "--d", 2, "--m", 2, "--trials", 100, "--output"),
    ("detect", "--n", 4, "--d", 2, "--m", 2, "--trials", 100, "--threshold", 50, "--output"),
    ("advantage", "--n", 1, "--d", 2, "--m", 1, "--D", 2, "--samples", 100, "--output"),
    ("chisq", "--d", 3, "--m", 3, "--k", 1, "--mode", "mc", "--samples", 100, "--output"),
], ids=("sample-null", "sample-planted", "detect", "detect-threshold", "advantage", "chisq"))
def test_sigma_needs_a_finite_square(tmp_path, capsys, argv):
    # every law uses 1 + sigma^2, and sqrt of the largest double is 1.3407807929942596e154:
    # a sigma above it is a usage error on every route, even one that never squares it
    *head, out_flag = argv
    big, ok = tmp_path / "big", tmp_path / "ok"
    big.mkdir()
    ok.mkdir()
    assert run_cli(*head, "--sigma", 1.35e154, "--seed", 1, out_flag, big / "x") == 2
    assert "need finite sigma >= 0" in capsys.readouterr().err
    assert list(big.iterdir()) == []
    assert run_cli(*head, "--sigma", 1.34e154, "--seed", 1, out_flag, ok / "x") == 0
    written = sorted(ok.iterdir())
    assert written
    for path in written:
        if path.name.endswith("_meta.txt"):
            continue
        if path.suffix == ".txt":
            assert np.isfinite(read_matrix(path)).all(), path.name
            continue
        for row in path.read_text().splitlines()[1:]:
            numbers = [_number(field) for field in row.split(",")]
            assert all(math.isfinite(x) for x in numbers if x is not None), row


def _number(field: str) -> float | None:
    try:
        return float(field)  # "inf" and "nan" included
    except ValueError:  # a regime, method or warning text, or an empty field
        return None


def test_advantage_per_pattern_csv(tmp_path):
    out, pp = tmp_path / "adv.csv", tmp_path / "patterns.csv"
    assert run_cli("advantage", "--n", 1, "--d", 2, "--m", 1, "--sigma", 0.0,
                   "--D", 2, "--samples", 20_000, "--seed", 5,
                   "--output", out, "--per-pattern", pp) == 0
    lines = pp.read_text().splitlines()
    assert lines[0] == "pattern_id,degree,mean,stderr,squared_contribution"
    assert len(lines) == 1 + 10  # C(3+2, 2) patterns


def test_chisq_both_mode(tmp_path):
    out = tmp_path / "chi.csv"
    assert run_cli("chisq", "--d", 50, "--m", 2, "--k", 1, "--sigma", 0.0,
                   "--mode", "both", "--samples", 50_000, "--seed", 11,
                   "--output", out) == 0
    lines = out.read_text().splitlines()
    assert lines[0] == "regime,d,m,k,sigma,method,value,stderr,samples,warning,delta_vs_closed"
    closed = dict(zip(lines[0].split(","), lines[1].split(",")))
    mc = dict(zip(lines[0].split(","), lines[2].split(",")))
    assert closed["method"] == "closed_form"
    assert float(closed["value"]) == 24 / 23
    assert float(mc["delta_vs_closed"]) <= 3 * float(mc["stderr"])


@pytest.mark.parametrize("argv", [
    ("--d", 5, "--m", 2, "--k", 1, 0, "--sigma", 0.0, "--mode", "closed"),
    ("--d", 5, "--m", 2, "--k", 0, "--sigma", 0.0, "--mode", "mc"),
    ("--d", 3, "--m", 3, "--k", 0, "--sigma", 1.0, "--mode", "mc"),
    ("--d", 2, "--m", 2, "--k", 1, "--sigma", 1.0, "--mode", "mc", "--samples", 0),
    ("--d", 2, "--m", 2, "--k", 1, "--sigma", 1.0, "--mode", "mc", "--samples", -5),
    ("--d", 5, "--m", 5, "--k", 1, "--sigma", 1.0, "--mode", "mc", "--samples", 0),
    ("--d", 50, "--m", 2, "--k", 1, "--sigma", 0.0, "--mode", "both", "--samples", 0),
], ids=("k0-closed", "k0-mc-sigma0", "k0-mc-square", "samples0-d2", "samples-5-d2",
        "samples0-d5", "samples0-both"))
def test_chisq_bad_k_or_samples_is_usage_error(tmp_path, capsys, argv):
    out = tmp_path / "chi.csv"
    assert run_cli("chisq", *argv, "--seed", 1, "--output", out) == 2
    err = capsys.readouterr().err
    assert "need k >= 1" in err or "samples must be >= 1" in err
    assert not out.exists()


def test_chisq_unsupported_regime_exit_code(tmp_path):
    code = run_cli("chisq", "--d", 16, "--m", 16, "--k", 1, "--sigma", 0.0,
                   "--mode", "closed", "--seed", 1, "--output", tmp_path / "x.csv")
    assert code == 4


def test_chisq_mc_square_case(tmp_path):
    out = tmp_path / "chi.csv"
    assert run_cli("chisq", "--d", 16, "--m", 16, "--k", 2, "--sigma", 3.0,
                   "--mode", "mc", "--samples", 10_000, "--seed", 12,
                   "--output", out) == 0
    row = out.read_text().splitlines()[1].split(",")
    assert row[0] == "m_eq_d" and row[5] == "monte_carlo"
    assert 1.0 <= float(row[6]) <= 1.5


@pytest.mark.parametrize("sigma", ["-1", "inf"])
def test_chisq_rejects_bad_sigma(tmp_path, capsys, sigma):
    out = tmp_path / "chi.csv"
    assert run_cli("chisq", "--d", 3, "--m", 3, "--k", 1, "--sigma", sigma, "--mode", "mc",
                   "--samples", 100, "--seed", 1, "--output", out) == 2
    assert "need finite sigma >= 0" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("sigma", ["-1", "inf"])
def test_sweep_chisq_rejects_bad_sigma(tmp_path, capsys, sigma):
    config = tmp_path / "bad.cfg"
    out = tmp_path / "out.csv"
    config.write_text(
        f"command = chisq\nmaster_seed = 1\nd = [3]\nm = [3]\nk = [1]\nsigma = [1, {sigma}]\n"
        f"mode = mc\nsamples = 100\noutput = {out}\n"
    )
    assert run_cli("sweep", "--config", config) == 2
    assert "need finite sigma >= 0" in capsys.readouterr().err
    assert not out.exists()


def test_oracle_single_check_and_unknown(capsys):
    assert run_cli("oracle", "--check", "gauss-exp", "--seed", 1) == 0
    assert "PASS gauss-exp" in capsys.readouterr().out
    assert run_cli("oracle", "--check", "nonsense") == 2


def test_io_error_exit_code(tmp_path):
    out = tmp_path / "not_a_dir.txt"
    out.write_text("file, not a directory")
    code = run_cli("detect", "--n", 4, "--d", 2, "--m", 2, "--sigma", 1.0,
                   "--trials", 10, "--seed", 1, "--output", out / "x.csv")
    assert code == 5


def test_output_dir_env_var(tmp_path, monkeypatch):
    monkeypatch.setenv("SHUFFLAB_OUTPUT_DIR", str(tmp_path))
    assert run_cli("chisq", "--d", 50, "--m", 2, "--k", 1, "--sigma", 0.0,
                   "--seed", 1, "--output", "rel.csv") == 0
    assert (tmp_path / "rel.csv").exists()


def test_parse_config_types_and_order():
    # every value stays the text written; resolve_config types it by its option
    cfg = parse_config(
        """
        # comment
        command = detect
        master_seed = 007
        sigma = [0.05,10.0 ,  1e5]
        n = [64]
        flag = TRUE
        name = hello world  # trailing comment
        output = run#1.csv	# a "#" inside a value is text
        empty = []
        """
    )
    assert cfg["command"] == "detect"
    assert cfg["master_seed"] == "007"
    assert cfg["sigma"] == ["0.05", "10.0", "1e5"]
    assert cfg["n"] == ["64"]
    assert cfg["flag"] == "TRUE"
    assert cfg["name"] == "hello world"
    assert cfg["output"] == "run#1.csv"
    assert cfg["empty"] == []
    assert list(cfg)[:4] == ["command", "master_seed", "sigma", "n"]
    with pytest.raises(ValueError):
        parse_config("not a key value line")


@pytest.mark.parametrize(
    "body, flags",
    [
        ("command = detect\nn = [64]\nd = [8]\nm = [8]\nsigma = [0.05, 10.0]\ntrials = 400\n",
         ["detect", "--n", 64, "--d", 8, "--m", 8, "--sigma", 0.05, 10.0, "--trials", 400]),
        ("command = advantage\nn = 1\nd = [2]\nm = [1, 2]\nsigma = [0.5, 0]\nD = [0, 2]\n"
         "samples = 500\nper_pattern_output = {tag}_patterns.csv\n",
         ["advantage", "--n", 1, "--d", 2, "--m", 1, 2, "--sigma", 0.5, 0, "--D", 0, 2,
          "--samples", 500, "--per-pattern", "{tag}_patterns.csv"]),
        ("command = chisq\nd = [50, 60]\nm = 2\nk = [1, 2]\nsigma = 0\nmode = both\n"
         "samples = 2000\n",
         ["chisq", "--d", 50, 60, "--m", 2, "--k", 1, 2, "--sigma", 0, "--mode", "both",
          "--samples", 2000]),
    ],
    ids=["detect", "advantage-per-pattern", "chisq-both"],
)
def test_sweep_detect_matches_flag_interface(tmp_path, monkeypatch, body, flags):
    monkeypatch.setenv("SHUFFLAB_OUTPUT_DIR", str(tmp_path))
    config = tmp_path / "sweep.cfg"
    config.write_text(f"master_seed = 3\n{body.format(tag='sweep')}output = sweep.csv\n")
    assert run_cli("sweep", "--config", config) == 0
    argv = [str(a).format(tag="flags") for a in flags]
    assert run_cli(*argv, "--seed", 3, "--output", "flags.csv") == 0
    swept = sorted(tmp_path.glob("sweep*.csv"))
    expected = 2 if "--per-pattern" in flags else 1
    assert len(swept) == len(list(tmp_path.glob("flags*.csv"))) == expected
    for path in swept:
        assert path.read_bytes() == (tmp_path / path.name.replace("sweep", "flags")).read_bytes()


def test_sweep_missing_key_and_empty_grid(tmp_path):
    config = tmp_path / "bad.cfg"
    config.write_text("command = detect\nmaster_seed = 1\n")
    assert run_cli("sweep", "--config", config) == 2
    config.write_text(
        "command = detect\nmaster_seed = 1\nn = []\nd = [4]\nm = [2]\n"
        "sigma = [1.0]\ntrials = 10\noutput = x.csv\n"
    )
    assert run_cli("sweep", "--config", config) == 2


def test_sweep_sample_command(tmp_path):
    config = tmp_path / "s.cfg"
    prefix = tmp_path / "inst"
    config.write_text(
        f"""
        command = sample
        master_seed = 7
        n = 4
        d = 3
        m = 2
        sigma = 0.5
        hypothesis = planted
        prefix = {prefix}
        """
    )
    assert run_cli("sweep", "--config", config) == 0
    direct_prefix = tmp_path / "direct"
    assert run_cli("sample", "--n", 4, "--d", 3, "--m", 2, "--sigma", 0.5,
                   "--hypothesis", "planted", "--seed", 7,
                   "--prefix", direct_prefix) == 0
    assert np.array_equal(read_matrix(f"{prefix}_X.txt"), read_matrix(f"{direct_prefix}_X.txt"))


@pytest.mark.parametrize(
    "body, reason",
    [
        ("command = sample\nn = [4, 5]\nd = 3\nm = 2\nsigma = 0.5\nhypothesis = planted\n",
         "takes a single value"),
        ("command = chisq\nd = [50]\nm = [2]\nk = [1]\nsigma = [0]\nmode = mc\n"
         "samples = [10, 20]\n", "takes a single value"),
        ("command = chisq\nd = [50]\nm = [2]\nk = [1]\nsigma = [0]\nmode = mc\n"
         "sampels = 10\n", "'sampels' is not an option of chisq"),
        ("command = detect\nn = [8.7]\nd = [4]\nm = [4]\nsigma = [1.0]\ntrials = 10\n",
         "'n' takes an integer, got 8.7"),
        ("command = advantage\nn = [1]\nd = [2]\nm = [1]\nsigma = [0]\nD = [2.9]\n"
         "samples = 100\n", "'D' takes an integer, got 2.9"),
        ("command = sample\nn = 3\nd = 2\nm = 2\nsigma = 0.5\nhypothesis = planted\n"
         "keep_latent = no\n", "'keep_latent' takes true or false, got 'no'"),
        ("command = chisq\nd = [50]\nm = [2]\nk = [1]\nsigma = [0]\nd = [60]\n",
         "config line 7: key 'd' repeats line 3"),
        ("command = detect\nn = true\nd = [4]\nm = [4]\nsigma = [1.0]\ntrials = 10\n",
         "sweep key 'n' takes an integer, got true"),
        ("command = detect\nn = [4]\nd = [4]\nm = [4]\nsigma = [true]\ntrials = 10\n",
         "sweep key 'sigma' takes a number, got true"),
        ("command = advantage\nn = [1]\nd = [2]\nm = [1]\nsigma = [0]\nD = [yes]\n"
         "samples = 100\n", "sweep key 'D' takes an integer, got yes"),
    ],
    ids=["sample-n", "chisq-samples", "chisq-sampels-typo", "detect-n-fraction",
         "advantage-D-fraction", "sample-keep-latent-no", "chisq-repeated-key",
         "detect-n-true", "detect-sigma-true", "advantage-D-yes"],
)
def test_sweep_rejects_list_in_scalar_key(tmp_path, capsys, body, reason):
    config = tmp_path / "bad.cfg"
    out = tmp_path / "out.csv"
    config.write_text(f"master_seed = 1\n{body}output = {out}\nprefix = {tmp_path / 'inst'}\n")
    assert run_cli("sweep", "--config", config) == 2
    err = capsys.readouterr().err
    assert "usage error" in err
    # the body's own fault, not the output or prefix key its command lacks
    assert reason in err
    assert list(tmp_path.iterdir()) == [config]


@pytest.mark.parametrize(
    "body, flags, names",
    [
        ("command = sample\nn = 4\nd = 3\nm = 2\nsigma = 0.5\nhypothesis = planted\n"
         "keep_latent = True\nprefix = 1e5\n",
         ["sample", "--n", 4, "--d", 3, "--m", 2, "--sigma", 0.5, "--hypothesis", "planted",
          "--keep-latent", "--prefix", "1e5"],
         ["1e5_Q.txt", "1e5_X.txt", "1e5_Y.txt", "1e5_Z.txt", "1e5_meta.txt", "1e5_perm.txt"]),
        ("command = chisq\nd = [50]\nm = 2.0\nk = [1]\nsigma = [0]\nmode = both\n"
         "samples = 2e3\noutput = 007\n",
         ["chisq", "--d", 50, "--m", 2, "--k", 1, "--sigma", 0, "--mode", "both",
          "--samples", 2000, "--output", "007"],
         ["007"]),
        ("command = chisq\nd = [50]\nm = 2\nk = [1]\nsigma = [0]\noutput = run#1.csv\n",
         ["chisq", "--d", 50, "--m", 2, "--k", 1, "--sigma", 0, "--output", "run#1.csv"],
         ["run#1.csv"]),
    ],
    ids=["sample-prefix-1e5", "chisq-output-007", "chisq-output-hash"],
)
def test_sweep_keeps_numeric_looking_text(tmp_path, monkeypatch, body, flags, names):
    # a str key keeps its text as written, as its flag does
    config = tmp_path / "sweep.cfg"
    config.write_text(f"master_seed = 5\n{body}")
    (tmp_path / "sweep").mkdir()
    (tmp_path / "flags").mkdir()
    monkeypatch.chdir(tmp_path / "sweep")
    assert run_cli("sweep", "--config", config) == 0
    monkeypatch.chdir(tmp_path / "flags")
    assert run_cli(*flags, "--seed", 5) == 0
    for side in ("sweep", "flags"):
        assert sorted(p.name for p in (tmp_path / side).iterdir()) == names
    for name in names:
        assert (tmp_path / "sweep" / name).read_bytes() == (tmp_path / "flags" / name).read_bytes()


def test_sweep_int_key_takes_integral_float_and_exact_seed():
    body = ("command = chisq\nd = [8.0, 1e1]\nm = 2\nk = [1]\nsigma = [0]\nsamples = 1e5\n"
            "master_seed = 9007199254740993\noutput = x.csv\n")
    _, args = resolve_config(parse_config(body))
    assert args.grids == {"d": [8, 10], "m": [2], "k": [1], "sigma": [0.0]}
    assert all(type(v) is int for key in "dmk" for v in args.grids[key])
    assert args.samples == 100_000 and type(args.samples) is int
    assert args.master_seed == 2**53 + 1
    _, args = resolve_config(parse_config(body.replace("9007199254740993", "1" + "0" * 400)))
    assert args.master_seed == 10**400


def test_sweep_rejects_unknown_chisq_mode(tmp_path, capsys):
    config = tmp_path / "bad.cfg"
    out = tmp_path / "out.csv"
    config.write_text(
        "command = chisq\nmaster_seed = 1\nd = [50]\nm = [2]\nk = [1]\nsigma = [0]\n"
        f"mode = bogus\noutput = {out}\n"
    )
    assert run_cli("sweep", "--config", config) == 2
    assert "mode must be 'closed', 'mc' or 'both'" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("path", sorted(SCRIPTS.glob("*.cfg")), ids=lambda p: p.name)
def test_shipped_configs_resolve(path):
    config = parse_config(path.read_text())
    _, args = resolve_config(config)
    assert args.grids and all(args.grids.values())
    assert list(args.grids) == [key for key in config if key in args.grids]  # file order
    assert args.output.endswith(".csv")
