import os
import subprocess
import sys
import threading
import time
import warnings
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

import polarcb
import polarcb.experiments as experiments
from polarcb.cli import main
from polarcb.codebooks import load_codebook_binary, load_codebook_csv
from polarcb.experiments import (ConfigError, ExperimentConfig, load_config, parse_config_text,
                                 run_experiment, theory_report, validate_config)

SMALL = """
# desk-scale smoke configuration
experiment = rate_vs_snr
num_antennas = 65
p = 5
q = 2
k_users = 3
l_paths = 2
n_trials = 6
schemes = geometric,full_csi
sweep = 10,22
seed = 3
"""


def test_parse_and_validate():
    raw = parse_config_text(SMALL)
    assert raw["num_antennas"] == 65
    assert raw["sweep"] == (10.0, 22.0)
    cfg = ExperimentConfig(**raw)
    validate_config(cfg)


@pytest.mark.parametrize("line,msg", [
    ("bogus_key = 3", "unknown key"),
    ("p 5", "expected"),
    ("p = x", "bad value"),
    ("p = 5\np = 6", "duplicate"),
])
def test_parse_errors(line, msg):
    with pytest.raises(ConfigError, match=msg):
        parse_config_text(line)


SHIPPED_CONFIGS = sorted((Path(__file__).resolve().parent.parent / "configs").glob("*.cfg"))


def test_configs_are_shipped():
    assert SHIPPED_CONFIGS


@pytest.mark.parametrize("path", SHIPPED_CONFIGS, ids=lambda path: path.name)
def test_shipped_config_loads(path):
    # validation only, under the config's own command: a stricter validate_config
    # must not reject a shipped config
    command = path.stem if path.stem in ("allocate", "codebook", "theory") else "simulate"
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        load_config(path, command)


def test_validation_errors():
    with pytest.raises(ConfigError):
        validate_config(ExperimentConfig(n_trials=0))
    with pytest.raises(ConfigError):
        validate_config(ExperimentConfig(experiment="nope"))
    with pytest.raises(ConfigError):
        validate_config(ExperimentConfig(schemes=("geometric", "magic")))
    with pytest.raises(ConfigError):
        validate_config(ExperimentConfig(sweep=(3.0, 2.0)))
    with pytest.raises(ConfigError):
        validate_config(ExperimentConfig(experiment="gain_vs_q", schemes=("full_csi",)))
    with pytest.raises(ConfigError):
        validate_config(ExperimentConfig(r_min=-1.0))


def test_rate_experiment_deterministic_and_thread_independent(threads_warning):
    base = dict(experiment="rate_vs_snr", num_antennas=65, p=5, q=2, k_users=3,
                l_paths=2, n_trials=6, schemes=("geometric", "full_csi"),
                sweep=(10.0, 22.0), seed=3)
    t1 = run_experiment(ExperimentConfig(**base))
    t2 = run_experiment(ExperimentConfig(**base))
    with threads_warning(3):
        t3 = run_experiment(ExperimentConfig(**base, threads=3))
    assert t1 == t2 == t3
    assert t1.startswith("sweep_value,scheme,metric,mean,stderr,n_trials,seed\n")
    assert "full_csi" in t1 and "geometric" in t1


def test_gain_experiments_run():
    text = run_experiment(ExperimentConfig(experiment="gain_vs_q", num_antennas=65, p=5,
                                           n_trials=40, schemes=("geometric", "hyperbolic"),
                                           sweep=(1.0, 2.0)))
    assert len(text.strip().splitlines()) == 5
    text = run_experiment(ExperimentConfig(experiment="gain_vs_m", num_antennas=65, p=5,
                                           q=2, n_trials=30, schemes=("geometric",),
                                           sweep=(33.0, 65.0)))
    assert len(text.strip().splitlines()) == 3
    text = run_experiment(ExperimentConfig(experiment="gain_vs_rmax", num_antennas=65,
                                           p=5, q=2, n_trials=30, schemes=("uniform",),
                                           sweep=(60.0, 120.0)))
    assert len(text.strip().splitlines()) == 3
    text = run_experiment(ExperimentConfig(experiment="multipath_gain_vs_q", num_antennas=65,
                                           p=5, k_users=1, l_paths=3, b2=8, n_trials=25,
                                           schemes=("geometric", "uniform"), sweep=(2.0,)))
    assert len(text.strip().splitlines()) == 3


def test_extended_scheme_in_experiment():
    text = run_experiment(ExperimentConfig(experiment="gain_vs_q", num_antennas=65, p=5,
                                           n_trials=30, schemes=("extended",),
                                           sweep=(2.0,), distribution="hotspot",
                                           n_train=5000))
    assert "extended" in text


def test_theory_report_contents(tmp_path):
    text = theory_report(ExperimentConfig(num_antennas=129, p=9, q=3, n_mc=80,
                                          k_users=3, l_paths=2, b2=10))
    lines = text.strip().splitlines()
    assert lines[0] == "item,closed_form,oracle,rel_diff"
    items = {ln.split(",")[0]: ln for ln in lines[1:]}
    cell = items["cell_error_closed_vs_quadrature"].split(",")
    assert float(cell[3]) < 1e-9
    assert float(items["partition_error_closed_vs_quadrature"].split(",")[3]) < 1e-9
    assert float(items["angle_bits_per_doubling"].split(",")[1]) == pytest.approx(1.0)
    assert float(items["range_bits_per_doubling"].split(",")[1]) == pytest.approx(2.0)
    assert float(items["decoupled_gain_vs_monte_carlo"].split(",")[3]) < 0.05
    assert "angle_error_threshold" in items and "range_error_threshold" in items
    gap = items["rate_gap_bound_vs_measured"].split(",")
    assert float(gap[2]) <= float(gap[1]) + 0.2   # measured gap under the bound


def _write(tmp_path, text):
    path = tmp_path / "cfg.txt"
    path.write_text(text)
    return str(path)


def test_cli_simulate_and_exit_codes(tmp_path, capsys, threads_warning):
    cfg = _write(tmp_path, SMALL)
    out = tmp_path / "rows.csv"
    assert main(["simulate", "--config", cfg, "--out", str(out)]) == 0
    first = out.read_bytes()
    with threads_warning(2):
        assert main(["simulate", "--config", cfg, "--out", str(out), "--threads", "2"]) == 0
    assert out.read_bytes() == first

    assert main(["simulate", "--config", str(tmp_path / "missing.txt")]) == 2
    bad = _write(tmp_path, "experiment = nope\n")
    assert main(["simulate", "--config", bad]) == 2
    zero = _write(tmp_path, "n_trials = 0\n")
    assert main(["simulate", "--config", zero]) == 2


def test_cli_seed_override_changes_output(tmp_path):
    cfg = _write(tmp_path, SMALL)
    a = tmp_path / "a.csv"
    b = tmp_path / "b.csv"
    assert main(["simulate", "--config", cfg, "--out", str(a)]) == 0
    assert main(["simulate", "--config", cfg, "--out", str(b), "--seed", "99"]) == 0
    assert a.read_text() != b.read_text()
    assert "seed" in a.read_text().splitlines()[0]


def test_cli_codebook_roundtrip(tmp_path):
    from polarcb import ArrayConfig
    cfg = _write(tmp_path, "scheme = hybrid\np = 3\nq = 2\nnum_antennas = 65\n")
    base = tmp_path / "cb"
    assert main(["codebook", "--config", cfg, "--out", str(base)]) == 0
    arr = ArrayConfig(65, carrier_frequency=30e9)
    loaded = load_codebook_csv(arr, base.with_suffix(".csv"))
    m, cw = load_codebook_binary(base.with_suffix(".bin"))
    assert m == 65
    assert np.array_equal(cw, loaded.codewords)
    assert np.isinf(loaded.range_samples).sum() == 1


@pytest.mark.parametrize("out", [".", "/", "..", "cb/.."])
def test_cli_codebook_out_without_a_file_name_is_config_error(tmp_path, monkeypatch, capsys,
                                                              out):
    # '.' and '/' raised a ValueError traceback (exit 1) from Path.with_suffix;
    # '..' exited 0 having written '...csv' and '...bin'
    monkeypatch.chdir(tmp_path)
    cfg = _write(tmp_path, "num_antennas = 65\np = 3\nq = 2\n")
    assert main(["codebook", "--config", cfg, "--out", out]) == 2
    assert "config error: codebook's out must end in a file name" in capsys.readouterr().err
    assert sorted(path.name for path in tmp_path.iterdir()) == ["cfg.txt"]


@pytest.mark.parametrize("command", ["codebook", "simulate", "allocate", "theory"])
def test_cli_config_that_is_not_utf8_is_config_error(tmp_path, capsys, command):
    # read_text raised a UnicodeDecodeError traceback (exit 1)
    cfg = tmp_path / "cfg.txt"
    cfg.write_bytes(b"\xff\xfenum_antennas = 65\n")
    assert main([command, "--config", str(cfg), "--out", str(tmp_path / "o")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error: ") and f"{cfg} is not UTF-8 text" in err


def test_cli_allocate(tmp_path):
    cfg = _write(tmp_path, "b1 = 4\nn_mc = 40\nnum_antennas = 33\nseed = 2\n")
    out = tmp_path / "alloc.csv"
    assert main(["allocate", "--config", cfg, "--out", str(out)]) == 0
    lines = out.read_text().strip().splitlines()
    assert lines[0] == "p,q,gamma_hat,stderr"
    assert len(lines) == 6


def test_cli_theory(tmp_path):
    cfg = _write(tmp_path, "num_antennas = 65\np = 6\nq = 2\nn_mc = 40\n")
    out = tmp_path / "theory.csv"
    assert main(["theory", "--config", cfg, "--out", str(out)]) == 0
    assert out.read_text().startswith("item,closed_form")


def test_cli_negative_seed_is_config_error(tmp_path):
    cfg = _write(tmp_path, SMALL)
    assert main(["simulate", "--config", cfg, "--seed", "-1"]) == 2
    assert main(["simulate", "--config", _write(tmp_path, "seed = -3\n")]) == 2


@pytest.mark.parametrize("experiment", ["gain_vs_q", "gain_vs_m", "multipath_gain_vs_q"])
def test_cli_non_integer_sweep_is_config_error(tmp_path, experiment):
    cfg = _write(tmp_path, f"experiment = {experiment}\nschemes = geometric\nsweep = 2.7\n")
    assert main(["simulate", "--config", cfg]) == 2
    with pytest.raises(ConfigError, match="integers"):
        validate_config(ExperimentConfig(experiment=experiment, schemes=("geometric",),
                                         sweep=(2.0, 2.7)))
    validate_config(ExperimentConfig(experiment=experiment, schemes=("geometric",),
                                     sweep=(2.0, 3.0)))


def _main_within(argv, seconds):
    "cli.main(argv) in a thread; fails the test if it runs longer than `seconds`."
    result = []
    worker = threading.Thread(target=lambda: result.append(main(argv)), daemon=True)
    start = time.perf_counter()
    worker.start()
    worker.join(timeout=seconds)
    assert not worker.is_alive(), f"cli.main ran past {seconds} s"
    assert time.perf_counter() - start < seconds
    return result[0]


@pytest.mark.parametrize("lines", [
    "experiment = gain_vs_q\nsweep = 2\ndistribution = gmm\ngmm_components = 0.5:10\n",
    "experiment = gain_vs_q\nsweep = 2\ndistribution = gmm\ngmm_components = 1:x:3\n",
    # a negative weight: a ValueError traceback at the first draw
    "experiment = gain_vs_q\nsweep = 2\ndistribution = gmm\n"
    "gmm_components = 1.5:15:5;-0.5:60:20\n",
    "experiment = gain_vs_q\nsweep = 2\ndistribution = hotspot\nhot_lo = 200\n",
    # a NaN std or mean: the truncation mass was NaN, which passed its floor, and
    # 50,000 rejection rounds ended in a ValueError traceback
    "experiment = gain_vs_q\nsweep = 2\ndistribution = gmm\ngmm_components = 1:20:nan\n",
    "experiment = gain_vs_q\nsweep = 2\ndistribution = gmm\ngmm_components = 1:nan:5\n",
    # no mass inside [4, 120]: rejection sampling used to spin forever
    "experiment = gain_vs_q\nsweep = 2\ndistribution = gaussian\n"
    "gauss_mean = 5000\ngauss_std = 1\n",
    # valid at the configured r_max; the swept r_max = 15 cuts the hot interval
    "experiment = gain_vs_rmax\nsweep = 15,60\ndistribution = hotspot\n",
    # no cold range to draw the other 10% from: a ValueError traceback at the first draw
    "experiment = gain_vs_q\nsweep = 2\ndistribution = hotspot\nhot_lo = 4\nhot_hi = 120\n",
])
def test_cli_bad_distribution_is_config_error(tmp_path, lines):
    text = "schemes = geometric\nnum_antennas = 65\np = 4\nn_trials = 20\n" + lines
    assert _main_within(["simulate", "--config", _write(tmp_path, text)], 10.0) == 2


@pytest.mark.parametrize("setting,message", [
    ("carrier_ghz = 0", "carrier_ghz"),          # was a ZeroDivisionError
    ("p = -1", "bit counts"),                    # were ValueError tracebacks
    ("q = -2", "bit counts"),
    ("b2 = -1", "bit counts"),
    ("b1 = -1", "bit counts"),
    ("r_max = inf", "finite"),                   # was an OverflowError
    ("snr_db = inf", "finite"),                  # wrote a nan mean with exit 0
    ("kappa_db = nan", "finite"),
    ("sweep = nan", "finite"),                   # ran with exit 0
    ("kappa_db = 1e6", "power ratio"),           # were OverflowError tracebacks
    ("snr_db = 1e6", "power ratio"),
    ("sweep = 10,1e6", "power ratio"),           # rate_vs_snr sweeps snr_db
])
def test_cli_out_of_range_numbers_are_config_errors(tmp_path, capsys, setting, message):
    key = setting.split("=")[0].strip()
    text = "\n".join(line for line in SMALL.splitlines()
                     if line.split("=")[0].strip() != key) + f"\n{setting}\n"
    assert _main_within(["simulate", "--config", _write(tmp_path, text)], 10.0) == 2
    assert message in capsys.readouterr().err


def test_db_values_need_a_finite_power_ratio():
    validate_config(ExperimentConfig(kappa_db=3080.0, snr_db=-1e6, sweep=(0.0, 3080.0)))
    for bad in ({"kappa_db": 3090.0}, {"snr_db": 3090.0}, {"sweep": (0.0, 3090.0)}):
        with pytest.raises(ConfigError, match="power ratio"):
            validate_config(ExperimentConfig(**bad))
    # other experiments sweep no dB value
    validate_config(ExperimentConfig(experiment="gain_vs_rmax", schemes=("geometric",),
                                     sweep=(30.0, 120.0)))


def test_truncation_mass_floor():
    ok = ExperimentConfig(distribution="gaussian", gauss_mean=130.0, gauss_std=5.0)
    validate_config(ok)                  # 2.3% of the law inside [4, 120]
    with pytest.raises(ConfigError, match="floor"):
        validate_config(replace(ok, gauss_mean=140.0))      # 3e-5 inside
    with pytest.raises(ConfigError, match="floor"):
        validate_config(ExperimentConfig(experiment="gain_vs_rmax", schemes=("geometric",),
                                         distribution="gaussian", gauss_mean=60.0,
                                         gauss_std=2.0, sweep=(30.0, 120.0)))


def test_cli_numerical_failure_exit_code(tmp_path, monkeypatch):
    from polarcb import cli
    from polarcb.feedback import ZFSingularError

    def boom(config):
        raise ZFSingularError("forced")

    monkeypatch.setattr(cli, "run_experiment", boom)
    cfg = _write(tmp_path, SMALL)
    assert cli.main(["simulate", "--config", cfg]) == 3


def test_cli_memory_error_is_a_config_error(tmp_path, monkeypatch, capsys):
    # n_trials = 1e9 at M = 65 asks numpy for 89.4 GiB of channel vectors
    from polarcb import cli

    def boom(config):
        raise MemoryError("Unable to allocate 89.4 GiB for an array")

    monkeypatch.setattr(cli, "run_experiment", boom)
    assert cli.main(["simulate", "--config", _write(tmp_path, SMALL)]) == 2
    assert capsys.readouterr().err == ("config error: the run does not fit in memory: "
                                       "Unable to allocate 89.4 GiB for an array\n")


def test_empirical_distribution_config(tmp_path):
    users = tmp_path / "users.csv"
    users.write_text("theta,r_m\n0.0,30.0\n0.2,50.0\n-0.3,10.0\n")
    cfg = _write(tmp_path, f"""
experiment = gain_vs_q
num_antennas = 65
p = 4
n_trials = 20
schemes = geometric
sweep = 2
distribution = empirical
empirical_csv = {users}
""")
    out = tmp_path / "rows.csv"
    assert main(["simulate", "--config", cfg, "--out", str(out)]) == 0
    assert "geometric" in out.read_text()


@pytest.mark.parametrize("row", ["nan,30", "0.2,-5", "3.0,30"])
def test_empirical_points_outside_the_polar_domain_are_config_errors(tmp_path, capsys, row):
    # these ran with exit 0: the NaN and the negative range gave a wrong mean,
    # with a RuntimeWarning, and |theta| > 1 was used as it was
    users = tmp_path / "users.csv"
    users.write_text(f"theta,r_m\n0.0,30.0\n{row}\n")
    text = ("experiment = gain_vs_q\nnum_antennas = 33\np = 4\nn_trials = 20\n"
            f"schemes = geometric\nsweep = 2\ndistribution = empirical\nempirical_csv = {users}\n")
    assert main(["simulate", "--config", _write(tmp_path, text)]) == 2
    assert "polar domain" in capsys.readouterr().err


def test_empirical_csv_blank_lines_run_and_a_bad_line_is_named(tmp_path, capsys):
    # a trailing blank line was "config error: not enough values to unpack"
    users = tmp_path / "users.csv"
    text = ("experiment = gain_vs_q\nnum_antennas = 33\np = 4\nn_trials = 20\n"
            f"schemes = geometric\nsweep = 2\ndistribution = empirical\nempirical_csv = {users}\n")
    users.write_text("theta,r_m\n0.1,30\n0.2,40\n\n")
    assert main(["simulate", "--config", _write(tmp_path, text)]) == 0
    capsys.readouterr()
    users.write_text("theta,r_m\n0.1,30\n0.2\n")
    assert main(["simulate", "--config", _write(tmp_path, text)]) == 2
    assert "users.csv, line 3: " in capsys.readouterr().err


@pytest.mark.parametrize("command,lines,code", [
    # ranges beyond about 1.3e154 m gave broadside beams: every gain read 1.0000000000000002
    ("allocate", "b1 = 3\nn_mc = 5\nr_max = 1e200\n", 0),
    ("simulate", "experiment = gain_vs_rmax\nsweep = 120,1e160\nn_trials = 20\n"
                 "schemes = geometric,hyperbolic,uniform,dft,hybrid\n", 0),
    # hyperbolic samples collapsed to r = 0 and wrote a gain of 0.0
    ("simulate", "experiment = gain_vs_q\nsweep = 2\nn_trials = 20\nr_min = 1e-300\n"
                 "r_max = 1e300\nschemes = hyperbolic,uniform\n", 2),
    ("simulate", "experiment = gain_vs_q\nsweep = 2\nn_trials = 20\nr_min = 1e-300\n"
                 "r_max = 1e300\nschemes = uniform,dft\n", 0),
    # the aperture's square overflowed, and every gain read 0.0
    ("simulate", "experiment = gain_vs_q\nsweep = 2\nn_trials = 20\ncarrier_ghz = 1e-300\n"
                 "schemes = geometric\n", 2),
    # an r_max just below where its square overflows: extended trains and runs
    ("simulate", "experiment = gain_vs_q\nsweep = 2\nn_trials = 20\nr_max = 1.3e154\n"
                 "schemes = extended\nn_train = 1000\n", 0),
], ids=["allocate_far", "gain_vs_rmax_far", "hyperbolic_overflow", "uniform_far",
        "carrier_overflow", "extended_far"])
def test_overflowing_geometry_is_rejected_or_gives_true_gains(tmp_path, command, lines, code):
    out = tmp_path / "rows.csv"
    text = "num_antennas = 33\np = 3\nq = 2\n" + lines
    assert main([command, "--config", _write(tmp_path, text), "--out", str(out)]) == code
    if code == 0:
        rows = out.read_text().splitlines()[1:]
        gains = np.array([float(row.split(",")[3 if command == "simulate" else 2])
                          for row in rows])
        assert len(gains) and np.all(np.isfinite(gains)) and np.all(gains <= 1.0)


SRC = str(Path(polarcb.__file__).resolve().parents[1])


def _cli_process(args, tmp_path, blas_threads=None, timeout=300):
    env = {**os.environ, "PYTHONPATH": SRC}
    if blas_threads is not None:
        env["OPENBLAS_NUM_THREADS"] = str(blas_threads)
    done = subprocess.run([sys.executable, *args], cwd=tmp_path, env=env,
                          capture_output=True, text=True, timeout=timeout)
    assert done.returncode == 0, done.stderr
    return done


@pytest.mark.parametrize("command,text", [
    ("allocate", "b1 = 12\nn_mc = 60\nnum_antennas = 129\nseed = 0\n"),
    ("simulate", "experiment = gain_vs_q\nnum_antennas = 129\ndistribution = gmm\n"
                 "gmm_components = 0.5:15:5;0.5:60:20\np = 8\nsweep = 1,2,3,4\n"
                 "schemes = geometric,hyperbolic,uniform\nn_trials = 300\nseed = 0\n"),
    ("simulate", "experiment = rate_vs_snr\nnum_antennas = 129\np = 8\nq = 2\nb2 = 10\n"
                 "k_users = 4\nn_trials = 60\nschemes = geometric,dft,full_csi\nseed = 0\n"),
], ids=["allocate", "gain_vs_q_gmm", "rate_vs_snr"])
def test_csv_bytes_independent_of_blas_threads(tmp_path, command, text):
    # allocate and gain_vs_q wrote different last digits under 1 and 2
    # OpenBLAS threads while phase-1 gains came from a BLAS product;
    # rate_vs_snr still selects and beamforms with BLAS and LAPACK calls
    cfg = tmp_path / "run.cfg"
    cfg.write_text(text)
    outputs = []
    for threads in (1, 2):
        out = tmp_path / f"blas{threads}.csv"
        _cli_process(["-m", "polarcb.cli", command, "--config", str(cfg), "--out", str(out)],
                     tmp_path, blas_threads=threads)
        outputs.append(out.read_bytes())
    assert outputs[0] == outputs[1]


def test_cli_import_skips_slow_scipy_modules(tmp_path):
    loaded = _cli_process(["-c", "import sys, polarcb.cli; print(sorted(sys.modules))"],
                          tmp_path, timeout=60).stdout
    assert "polarcb.cli" in loaded
    assert "'scipy.stats'" not in loaded and "'scipy.optimize'" not in loaded


def test_gmm_config_loads_without_scipy_special(tmp_path):
    # validation computes the mixture's truncation mass; scipy.special cost 0.33 s of set-up
    cfg = tmp_path / "gmm.cfg"
    cfg.write_text("experiment = multipath_gain_vs_q\ndistribution = gmm\n"
                   "gmm_components = 0.5:15:5;0.5:60:20\nk_users = 1\nschemes = geometric\n")
    loaded = _cli_process(["-c", "import sys; from polarcb.experiments import load_config; "
                           f"load_config({str(cfg)!r}); print(sorted(sys.modules))"],
                          tmp_path, timeout=60).stdout
    assert "'polarcb.experiments'" in loaded
    assert "'scipy.special'" not in loaded


def test_threads_is_a_deprecated_no_op(tmp_path, capsys):
    keyed = tmp_path / "keyed.cfg"
    keyed.write_text(SMALL + "threads = 2\n")
    cfg = _write(tmp_path, SMALL)
    outputs, warned = [], []
    for args in ([cfg], [cfg, "--threads", "2"], [str(keyed)]):
        out = tmp_path / f"run{len(outputs)}.csv"
        done = _cli_process(["-m", "polarcb.cli", "simulate", "--out", str(out), "--config",
                             *args], tmp_path)
        outputs.append(out.read_bytes())
        warned.append(done.stderr.count("FutureWarning: threads is deprecated"))
    assert outputs[0] == outputs[1] == outputs[2]
    assert warned == [0, 1, 1]
    assert main(["simulate", "--config", cfg, "--threads", "0"]) == 2
    assert "threads must be >= 1" in capsys.readouterr().err


@pytest.mark.parametrize("experiment", ["rate_vs_snr", "multipath_gain_vs_q"])
def test_empirical_csv_read_once_per_run(tmp_path, monkeypatch, experiment):
    users = tmp_path / "users.csv"
    users.write_text("theta,r_m\n0.0,30.0\n0.2,50.0\n-0.3,10.0\n0.1,80.0\n")
    loads = []
    real = experiments.load_empirical_csv
    monkeypatch.setattr(experiments, "load_empirical_csv",
                        lambda path: loads.append(path) or real(path))
    counts = []
    for trials in (2, 8):
        cfg = _write(tmp_path, f"""
experiment = {experiment}
num_antennas = 33
p = 3
q = 2
b2 = 4
k_users = 2
n_trials = {trials}
schemes = geometric
distribution = empirical
empirical_csv = {users}
""")
        loads.clear()
        assert main(["simulate", "--config", cfg]) == 0
        counts.append(len(loads))
    # one read when the config is loaded, one when the run validates it, one for the draws
    assert counts == [3, 3]


_TINY = "num_antennas = 65\np = 4\nn_trials = 4\nn_mc = 4\nschemes = geometric\n"


@pytest.mark.parametrize("command,lines,message", [
    ("simulate", "experiment = gain_vs_q\nsweep = -1\n", ">= 0"),
    ("simulate", "experiment = multipath_gain_vs_q\nk_users = 1\nsweep = -2\n", ">= 0"),
    ("simulate", "experiment = gain_vs_m\nsweep = 0\n", ">= 1"),
    ("simulate", "schemes = hybrid\nq = 0\n", "hybrid"),
    ("simulate", "experiment = gain_vs_q\nschemes = geometric,hybrid\nsweep = 0,1\n", "hybrid"),
    # these wrote a header-only CSV, and two copies of every geometric row
    ("simulate", "schemes =\n", "each once"),
    ("simulate", "schemes = geometric,geometric\n", "each once"),
    ("simulate", "experiment = gain_vs_q\nschemes = dft,geometric,dft\nsweep = 2\n",
     "each once"),
    ("codebook", "scheme = foo\n", "unknown scheme"),
    ("codebook", "scheme = hybrid\nq = 0\n", "hybrid"),
    ("allocate", "b1 = 0\n", "b1"),
    ("allocate", "b1 = 3\nn_mc = 0\n", "n_mc"),
    ("allocate", "b1 = 3\nn_mc = -2\n", "n_mc"),
    ("theory", "n_mc = 0\n", "n_mc"),
    ("theory", "n_mc = -5\n", "n_mc"),
    ("allocate", "b1 = 3\nscheme = extended\n", "extended"),
    ("allocate", "b1 = 3\nscheme = hybrid\n", "hybrid"),
    ("allocate", "b1 = 3\ndistribution = empirical\nempirical_csv = users.csv\n", "empirical"),
    ("simulate", "experiment = gain_vs_q\nschemes = extended\nsweep = 2\nn_train = 3\n",
     "n_train"),
    ("simulate", "experiment = gain_vs_q\nschemes = extended\nsweep = 2\nlloyd_tolerance = 0\n",
     "lloyd_tolerance"),
    # these asked numpy for 8-32 TiB (an _ArrayMemoryError traceback)
    ("simulate", "p = 40\n", "phase-1 codebook"),
    ("simulate", "experiment = gain_vs_q\np = 12\nsweep = 3,13\n", "phase-1 codebook"),
    ("allocate", "b1 = 40\n", "allocate codebook"),
    ("simulate", "b2 = 40\n", "RVQ codebook"),
    ("simulate", "experiment = multipath_gain_vs_q\nk_users = 1\nl_paths = 2\nb2 = 24\n"
                 "sweep = 2\n", "path-gain codebook"),
    # theory drew its range cell from [r_min, r_max / 2]: "high - low < 0"
    ("theory", "r_min = 4\nr_max = 7\n", "r_max >= 2 r_min"),
    # the extended scheme's Lloyd tolerance / r_max**2 raised an OverflowError
    ("simulate", "experiment = gain_vs_q\nschemes = extended\nsweep = 2\nr_max = 1e160\n",
     "r_max^2"),
    ("simulate", "experiment = multipath_gain_vs_q\nk_users = 1\nl_paths = 2\nb2 = 4\n"
                 "schemes = extended\nsweep = 2\nr_max = 1e160\n", "r_max^2"),
    ("simulate", "experiment = gain_vs_rmax\nschemes = extended\nsweep = 120,1e160\n",
     "r_max^2"),
    ("codebook", "scheme = extended\nr_max = 1e160\n", "r_max^2"),
])
def test_cli_limits_are_config_errors(tmp_path, monkeypatch, capsys, command, lines, message):
    # each of these ended in a ValueError traceback (exit 1)
    monkeypatch.chdir(tmp_path)
    (tmp_path / "users.csv").write_text("theta,r_m\n0.0,30.0\n0.2,50.0\n")
    keys = {line.split("=")[0].strip() for line in lines.splitlines()}
    text = "".join(line + "\n" for line in _TINY.splitlines()
                   if line.split("=")[0].strip() not in keys)
    argv = [command, "--config", _write(tmp_path, text + lines), "--out", str(tmp_path / "o")]
    assert _main_within(argv, 10.0) == 2
    assert message in capsys.readouterr().err


@pytest.mark.parametrize("command,lines", [
    ("codebook", "q = 0\n"),           # the hybrid rule, through the default schemes
    ("theory", "q = 0\n"),
    ("codebook", "experiment = gain_vs_q\nschemes = full_csi\n"),
    ("codebook", "sweep = 3,2\n"),
    ("allocate", "b1 = 3\nsweep = 3,2\n"),
    ("allocate", "b1 = 3\nb2 = 23\n"),                    # the RVQ cap
    ("simulate", "b1 = 30\n"),
    ("simulate", "experiment = gain_vs_q\nschemes = geometric\nb2 = 23\n"),
    ("simulate", "experiment = gain_vs_q\nschemes = geometric\nscheme = nope\n"),
    ("simulate", "r_min = 4\nr_max = 7\n"),                # theory's cell rule
])
def test_cli_checks_only_what_the_command_builds(tmp_path, command, lines):
    # each exited 2 on a rule of a key or codebook its command never reads or builds
    text = "num_antennas = 65\np = 4\nn_trials = 4\nn_mc = 4\n" + lines
    argv = [command, "--config", _write(tmp_path, text), "--out", str(tmp_path / "o")]
    assert _main_within(argv, 30.0) == 0


@pytest.mark.parametrize("antennas,code", [(1, 2), (2, 2), (3, 0)])
def test_cli_theory_needs_three_antennas(tmp_path, capsys, antennas, code):
    # at M <= 2 the gain surrogate is constant, and the threshold search ended in a
    # RuntimeError traceback (exit 1)
    cfg = _write(tmp_path, f"num_antennas = {antennas}\np = 2\nq = 1\nn_mc = 4\n")
    assert main(["theory", "--config", cfg, "--out", str(tmp_path / "t.csv")]) == code
    assert ("num_antennas >= 3" in capsys.readouterr().err) == (code == 2)


def test_extended_training_ranges_drawn_once_per_run(tmp_path, monkeypatch):
    cfg = _write(tmp_path, """
experiment = multipath_gain_vs_q
num_antennas = 33
p = 3
k_users = 1
l_paths = 2
b2 = 4
n_trials = 4
n_train = 400
sweep = 2,3,4
schemes = geometric,extended
distribution = gmm
gmm_components = 0.5:15:5;0.5:60:20
""")
    train = experiments.stream_seed(0, "train")
    draws = []
    sample = experiments.sample_locations
    monkeypatch.setattr(experiments, "sample_locations", lambda spec, n, seed: (
        draws.append(seed == train) or sample(spec, n, seed)))
    outputs = []
    for per_codebook in (False, True):
        if per_codebook:     # the old way: each codebook draws its own copy
            monkeypatch.setattr(experiments, "_run_training_ranges", lambda c: None)
        draws.clear()
        out = tmp_path / f"per_codebook_{per_codebook}.csv"
        assert main(["simulate", "--config", cfg, "--out", str(out)]) == 0
        outputs.append((draws.count(True), out.read_bytes()))
    assert [n for n, _ in outputs] == [1, 3]
    assert outputs[0][1] == outputs[1][1]


def test_single_sample_stderr_is_zero():
    c = ExperimentConfig(experiment="multipath_gain_vs_q", num_antennas=33, p=4, k_users=1,
                         l_paths=2, b2=4, n_trials=1, schemes=("geometric",), sweep=(2.0,))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        rows = run_experiment(c).strip().splitlines()[1:]
    assert [row.split(",")[4] for row in rows] == ["0.0"]


def test_lloyd_converges_past_the_old_cap(tmp_path):
    # seed 3 of this mixture needs 581 Lloyd iterations at q = 5; the cap was 500
    from polarcb.codebooks import LloydConvergenceError, lloyd_range_samples
    from polarcb.distributions import sample_locations
    from polarcb.experiments import stream_seed

    text = ("experiment = multipath_gain_vs_q\ndistribution = gmm\n"
            "gmm_components = 0.5:15:5;0.5:60:20\nschemes = extended\nsweep = 5\nseed = 3\n"
            "num_antennas = 33\np = 4\nk_users = 1\nl_paths = 3\nb2 = 4\nn_trials = 2\n")
    c = ExperimentConfig(**parse_config_text(text))
    ranges = sample_locations(c.distribution_spec(), c.n_train, stream_seed(3, "train"))[:, 1]
    with pytest.raises(LloydConvergenceError):
        lloyd_range_samples(ranges, 5, c.lloyd_tolerance, max_iters=500)
    out = tmp_path / "rows.csv"
    assert main(["simulate", "--config", _write(tmp_path, text), "--out", str(out)]) == 0
    assert out.read_text().count("extended") == 1


def test_singular_zero_forcing_drops_are_reported(tmp_path, capsys, threads_warning):
    # one RVQ codeword: both users feed back the same direction in every drop
    text = SMALL.replace("k_users = 3", "k_users = 2") + "b2 = 0\n"
    out = tmp_path / "rows.csv"
    assert main(["simulate", "--config", _write(tmp_path, text), "--out", str(out)]) == 0
    err = capsys.readouterr().err
    assert "geometric: zero forcing was singular in 6 of 6 drops" in err
    assert "full_csi" not in err
    rows = out.read_bytes()
    with threads_warning(2):
        assert main(["simulate", "--config", _write(tmp_path, text), "--threads", "2"]) == 0
    assert capsys.readouterr().out.encode() == rows
    assert main(["simulate", "--config", _write(tmp_path, SMALL)]) == 0
    assert capsys.readouterr().err == ""


def test_multipath_csv_independent_of_threads(tmp_path, threads_warning):
    text = ("experiment = multipath_gain_vs_q\ndistribution = gmm\n"
            "gmm_components = 0.5:15:5;0.5:60:20\nschemes = geometric,hybrid,extended\n"
            "sweep = 2,3\nnum_antennas = 65\np = 5\nk_users = 2\nl_paths = 3\nb2 = 6\n"
            "n_trials = 23\nn_train = 2000\nseed = 4\n")
    cfg = _write(tmp_path, text)
    outputs = []
    for threads in ("1", "2"):
        out = tmp_path / f"t{threads}.csv"
        with threads_warning(threads):
            assert main(["simulate", "--config", cfg, "--out", str(out),
                         "--threads", threads]) == 0
        outputs.append(out.read_bytes())
    assert outputs[0] == outputs[1]
    assert outputs[0].count(b"\n") == 7


def _reference_draw(c, spec, trial, equal_gains):
    "One trial's channel objects, drawn as the runners drew them before the array draw."
    from polarcb import PolarCoord, los_channel, multipath_channel, multipath_channel_equal
    from polarcb.distributions import UniformPolar, sample_locations

    cfg = c.array_config()
    locs = sample_locations(spec, c.k_users, experiments.trial_rng(c.seed, "loc", trial))
    chans = []
    for k, (t, r) in enumerate(locs):
        coord = PolarCoord(float(t), float(r))
        if c.l_paths == 1:
            chans.append(los_channel(cfg, coord))
            continue
        scat = sample_locations(UniformPolar(c.region()), c.l_paths - 1,
                                experiments.trial_rng(c.seed, f"scat{k}", trial))
        scats = [PolarCoord(float(a), float(b)) for a, b in scat]
        rng = experiments.trial_rng(c.seed, f"gain{k}", trial)
        chans.append(multipath_channel_equal(cfg, [coord] + scats, rng) if equal_gains
                     else multipath_channel(cfg, coord, scats, c.kappa_db, rng))
    return chans


@pytest.mark.parametrize("paths,equal_gains,threads", [(3, False, 2), (3, True, 1), (1, False, 3)])
def test_array_draw_matches_channel_objects(paths, equal_gains, threads):
    c = ExperimentConfig(num_antennas=65, k_users=3, l_paths=paths, n_trials=7, seed=9,
                         threads=threads, distribution="hotspot")
    spec = c.distribution_spec()
    drawn = experiments.draw_channels(c, spec, equal_gains)
    for trial in range(c.n_trials):
        ref = polarcb.ChannelArrays.of(_reference_draw(c, spec, trial, equal_gains))
        rows = slice(trial * c.k_users, (trial + 1) * c.k_users)
        for name in ("thetas", "ranges", "gains", "vectors"):
            assert getattr(drawn, name)[rows].tobytes() == getattr(ref, name).tobytes()
