import csv
import gc
import hashlib
import importlib
import json
import math
import os
import subprocess
import sys
import warnings

import pytest

import cpdsss
from cpdsss import analysis, cli, experiments
from cpdsss.analysis import p0_from_pfa, pfa_from_p0
from cpdsss.errors import NumericalError


CONFIGS = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "configs")


def read_rows(path):
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


def write_config(path, **overrides):
    base = {
        "kind": "pfa",
        "name": "cli_demo",
        "curves": [{"k_bits": 1, "m_of_n": 1}],
        "target_pfa": 0.05,
        "num_trials": 1500,
        "master_seed": 99,
    }
    base.update(overrides)
    path.write_text(json.dumps(base))
    return path


# ------------------------------------------------------- design-threshold ----

def test_design_threshold_analytic_row(tmp_path, capsys):
    rc = cli.main([
        "design-threshold", "--l-taps", "1", "--noise-var", "1.0",
        "--k-bits", "1", "--m-of-n", "1", "--target-pfa", "0.01",
        "--out", str(tmp_path),
    ])
    assert rc == 0
    rows = read_rows(tmp_path / "thresholds.csv")
    assert len(rows) == 1
    assert float(rows[0]["eta"]) == pytest.approx(math.log(100) / 2, abs=1e-6)
    assert rows[0]["L"] == "1" and rows[0]["n"] == "1"


def test_design_threshold_k10_consistency(tmp_path):
    rc = cli.main([
        "design-threshold", "--l-taps", "40", "--k-bits", "10",
        "--m-of-n", "1", "--target-pfa", "0.001", "--out", str(tmp_path),
    ])
    assert rc == 0
    row = read_rows(tmp_path / "thresholds.csv")[0]
    p0 = float(row["p0"])
    assert p0 == pytest.approx(p0_from_pfa(0.001, 55, 1), rel=1e-10)
    assert pfa_from_p0(p0, 55, 1) == pytest.approx(0.001, abs=1e-10)


def test_design_threshold_invalid_pfa(tmp_path, capsys):
    rc = cli.main(["design-threshold", "--target-pfa", "1.5", "--out", str(tmp_path)])
    assert rc == cli.EXIT_CONFIG
    assert "configuration error" in capsys.readouterr().err


@pytest.mark.parametrize("bad", ["nan", "inf"])
def test_design_threshold_nonfinite_noise_var(tmp_path, capsys, bad):
    rc = cli.main(["design-threshold", "--noise-var", f"1.0,{bad}", "--out", str(tmp_path)])
    assert rc == cli.EXIT_CONFIG
    assert "noise variance must be finite and positive" in capsys.readouterr().err
    assert not (tmp_path / "thresholds.csv").exists()


@pytest.mark.parametrize("args", [
    ["--k-bits", "0"],
    ["--k-bits", "1", "--m-of-n", "2"],
    ["--k-bits", "10,1", "--m-of-n", "20"],  # valid for K=10, not for K=1
    ["--l-taps", "0"],
])
def test_design_threshold_rejects_bad_grid_up_front(tmp_path, capsys, args):
    rc = cli.main(["design-threshold", *args, "--out", str(tmp_path)])
    assert rc == cli.EXIT_CONFIG
    assert "configuration error" in capsys.readouterr().err
    assert not (tmp_path / "thresholds.csv").exists()


def test_design_threshold_tail_overflow_exits_3(tmp_path, capsys):
    # K = 45 (n = 1035) is the first K whose binomial coefficients pass the float range
    rc = cli.main(["design-threshold", "--k-bits", "45", "--l-taps", "1", "--out", str(tmp_path)])
    assert rc == cli.EXIT_NUMERICAL
    err = capsys.readouterr().err
    assert "numerical failure" in err and "n=1035, M=1" in err
    assert not (tmp_path / "thresholds.csv").exists()


def test_design_threshold_grid(tmp_path):
    rc = cli.main([
        "design-threshold", "--l-taps", "1,40", "--k-bits", "1,10",
        "--target-pfa", "0.001,0.01", "--out", str(tmp_path),
    ])
    assert rc == 0
    assert len(read_rows(tmp_path / "thresholds.csv")) == 8


# ---------------------------------------------------------------- simulate ----

def test_simulate_writes_csv_and_sidecar(tmp_path):
    config = write_config(tmp_path / "c.json")
    out = tmp_path / "results" / "nested"  # missing dirs are created
    rc = cli.main(["simulate", "--config", str(config), "--out", str(out), "--jobs", "1"])
    assert rc == 0
    rows = read_rows(out / "cli_demo.csv")
    assert rows[0]["metric"] == "pfa"
    side = json.loads((out / "cli_demo.config.json").read_text())
    assert side["config"]["master_seed"] == 99


def test_simulate_seed_determinism(tmp_path):
    config = write_config(tmp_path / "c.json")
    outs = []
    for name in ("a", "b"):
        out = tmp_path / name
        rc = cli.main(["simulate", "--config", str(config), "--out", str(out),
                       "--seed", "7", "--jobs", "1"])
        assert rc == 0
        outs.append((out / "cli_demo.csv").read_bytes())
    assert outs[0] == outs[1]


def test_simulate_override_lands_in_sidecar(tmp_path):
    config = write_config(tmp_path / "c.json")
    out = tmp_path / "o"
    rc = cli.main([
        "simulate", "--config", str(config), "--out", str(out), "--jobs", "1",
        "--set", "channel.rms_delay_spread_ns=250", "--set", "num_trials=500",
    ])
    assert rc == 0
    side = json.loads((out / "cli_demo.config.json").read_text())
    assert side["config"]["channel"]["rms_delay_spread_ns"] == 250
    assert side["config"]["num_trials"] == 500


def test_simulate_sidecar_round_trips_to_identical_output(tmp_path):
    config = write_config(tmp_path / "c.json")
    out1 = tmp_path / "o1"
    assert cli.main(["simulate", "--config", str(config), "--out", str(out1), "--jobs", "1"]) == 0
    side = json.loads((out1 / "cli_demo.config.json").read_text())
    refed = tmp_path / "refed.json"
    refed.write_text(json.dumps(side["config"]))
    out2 = tmp_path / "o2"
    assert cli.main(["simulate", "--config", str(refed), "--out", str(out2), "--jobs", "1"]) == 0
    assert (out1 / "cli_demo.csv").read_bytes() == (out2 / "cli_demo.csv").read_bytes()


def test_simulate_bad_json_reports_position(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text('{"kind": "pfa",\n  "oops"\n}')
    rc = cli.main(["simulate", "--config", str(bad), "--out", str(tmp_path)])
    assert rc == cli.EXIT_CONFIG
    err = capsys.readouterr().err
    assert "line" in err and "column" in err


def test_simulate_unknown_key_rejected(tmp_path, capsys):
    config = write_config(tmp_path / "c.json")
    rc = cli.main(["simulate", "--config", str(config), "--out", str(tmp_path),
                   "--set", "turbo=true"])
    assert rc == cli.EXIT_CONFIG
    assert "unknown config keys" in capsys.readouterr().err


@pytest.mark.parametrize("override", [
    "noise_var=nan", "noise_var=inf",
    "channel.rms_delay_spread_ns=nan", "channel.rms_delay_spread_ns=inf",
])
def test_simulate_nonfinite_override_rejected(tmp_path, capsys, override):
    config = write_config(tmp_path / "c.json")
    out = tmp_path / "o"
    rc = cli.main(["simulate", "--config", str(config), "--out", str(out), "--set", override])
    assert rc == cli.EXIT_CONFIG
    assert "must be finite" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("config, override", [
    ("roc.json", "zc_root=2"),
    ("roc.json", "zc_root=0"),
    ("roc.json", "roc_pfa_grid=[0.0]"),
    ("roc.json", "roc_pfa_grid=[1.5]"),
    ("roc.json", "roc_pfa_grid=[]"),
    ("roc.json", 'channel.kind="bogus"'),
    ("roc.json", "channel.max_taps=0"),
    ("roc.json", "channel.rms_delay_spread_ns=0"),
    ("roc.json", 'channel.normalize_each_draw="no"'),
    ("roc.json", "l_taps=2000"),
    ("roc.json", "snr_grid_db=[NaN]"),
    ("pmd.json", "snr_grid_db=[Infinity]"),
    ("dist.json", "dist_bins=0"),
    ("roc.json", "curves=5"),
    ("roc.json", "snr_grid_db=5"),
    ("roc.json", "n_len=null"),
    ("roc.json", "num_trials=2.7"),
    ("roc.json", "master_seed=1.5"),
    ("roc.json", "noise_var=1" + "0" * 400),  # an integer past the float range
    ("roc.json", "n_len=8193"),
    ("roc.json", "channel.max_taps=1025"),
    ("pmd.json", "snr_grid_db=[4000.0]"),  # 10 ** 400 overflows
    ("roc.json", "noise_var=1e308"),  # a finite SNR whose amplitude is infinite
])
def test_simulate_bad_config_exits_2_before_writing(tmp_path, capsys, config, override):
    out = tmp_path / "o"
    rc = cli.main(["simulate", "--config", os.path.join(CONFIGS, config), "--out", str(out),
                   "--jobs", "1", "--set", "num_trials=300", "--set", override])
    assert rc == cli.EXIT_CONFIG
    assert "configuration error" in capsys.readouterr().err
    assert not out.exists()  # neither the sidecar nor the CSV


@pytest.mark.parametrize("name, override", [
    ("../escaped", None),
    ("cli_demo", 'name="a\\u0000b"'),
    ("..", None),
    (".", None),
    ("sub/name", None),
])
def test_simulate_name_must_be_a_plain_file_name(tmp_path, capsys, name, override):
    config = write_config(tmp_path / "c.json", name=name)
    out = tmp_path / "run" / "o"
    args = ["simulate", "--config", str(config), "--out", str(out), "--jobs", "1"]
    rc = cli.main(args + (["--set", override] if override else []))
    assert rc == cli.EXIT_CONFIG
    assert "name must be a plain file name" in capsys.readouterr().err
    # nothing under --out, its parent or beside the config: not even --out itself
    assert sorted(p.name for p in tmp_path.iterdir()) == ["c.json"]


def test_simulate_tdl_a_delays_past_int64_run(tmp_path):
    # 1e12 ns at 1e16 Hz puts every nonzero TDL-A delay past max_taps, and past int64
    config = write_config(tmp_path / "c.json", num_trials=300,
                          channel={"rms_delay_spread_ns": 1e12, "sample_rate_hz": 1e16})
    out = tmp_path / "o"
    assert cli.main(["simulate", "--config", str(config), "--out", str(out), "--jobs", "1"]) == 0
    assert read_rows(out / "cli_demo.csv")[0]["trials"] == "300"


def test_simulate_tail_overflow_exits_3_before_any_trial(tmp_path, capsys, monkeypatch):
    # the capacity check admits K = 60 at L = 15: 61 x 16 = 976 code shifts <= 1024
    config = write_config(tmp_path / "c.json", l_taps=15,
                          curves=[{"k_bits": 1, "m_of_n": 1}, {"k_bits": 60, "m_of_n": 1}])

    def no_trials(*args):
        raise AssertionError("a chunk was drawn before every design was solved")

    monkeypatch.setattr(experiments, "_point", no_trials)
    out = tmp_path / "o"
    rc = cli.main(["simulate", "--config", str(config), "--out", str(out), "--jobs", "1"])
    assert rc == cli.EXIT_NUMERICAL
    assert "n=1830, M=1" in capsys.readouterr().err
    assert not (out / "cli_demo.csv").exists()


@pytest.mark.parametrize("overrides", [
    # the M-of-n inversion does not converge this deep
    {"kind": "pmd", "snr_grid_db": [0.0], "curves": [{"k_bits": 10, "m_of_n": 20}],
     "target_pfa": 1e-150},
    # the K=60 binomial tail passes the float range
    {"l_taps": 15, "curves": [{"k_bits": 1, "m_of_n": 1}, {"k_bits": 60, "m_of_n": 1}]},
])
def test_simulate_design_failure_exits_3_writing_nothing(tmp_path, capsys, overrides):
    config = write_config(tmp_path / "c.json", **overrides)
    out = tmp_path / "o"
    rc = cli.main(["simulate", "--config", str(config), "--out", str(out), "--jobs", "1"])
    assert rc == cli.EXIT_NUMERICAL
    assert "numerical failure" in capsys.readouterr().err
    assert not out.exists()  # not even the sidecar


@pytest.mark.parametrize("overrides", [
    {"snr_grid_db": [3052.0]},  # wrote h1_c_mean = inf
    {"snr_grid_db": [3040.0], "curves": [{"k_bits": 10, "m_of_n": 1}]},
    {"snr_grid_db": [0.0], "noise_var": 1e305},
])
def test_simulate_received_power_past_1e300_exits_2(tmp_path, capsys, overrides):
    config = write_config(tmp_path / "c.json", kind="dist", num_trials=300, **overrides)
    out = tmp_path / "o"
    rc = cli.main(["simulate", "--config", str(config), "--out", str(out), "--jobs", "1"])
    assert rc == cli.EXIT_CONFIG
    assert "<= 1e300" in capsys.readouterr().err
    assert not out.exists()


def test_simulate_dist_at_the_power_bound_runs(tmp_path):
    snr = 10 * math.log10(1e300 / 1024) - 1e-9  # (1 + 10^(snr/10)) * 1024 * 1 just below 1e300
    config = write_config(tmp_path / "c.json", kind="dist", num_trials=300, snr_grid_db=[snr],
                          curves=[{"k_bits": 1, "m_of_n": 1}, {"k_bits": 10, "m_of_n": 1}])
    out = tmp_path / "o"
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        rc = cli.main(["simulate", "--config", str(config), "--out", str(out), "--jobs", "1"])
    assert rc == 0
    means = [float(r["value"]) for r in read_rows(out / "cli_demo.csv")
             if r["metric"] in ("h0_c_mean", "h1_c_mean", "h1_minus_h0_mean")]
    assert len(means) == 6 and all(math.isfinite(v) and v > 0 for v in means)


def test_simulate_exp_pdp_spread_under_one_sample_runs(tmp_path):
    # the all-NaN PDP of this channel once gave PMD = 1 with exit 0
    config = write_config(tmp_path / "c.json", kind="pmd", num_trials=300, snr_grid_db=[-5.0],
                          channel={"kind": "exp_pdp", "rms_delay_spread_ns": 1e-300,
                                   "sample_rate_hz": 1e-300})
    out = tmp_path / "o"
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        rc = cli.main(["simulate", "--config", str(config), "--out", str(out), "--jobs", "1"])
    assert rc == 0
    assert float(read_rows(out / "cli_demo.csv")[0]["value"]) < 0.5


# CSV SHA-256 of each count-based config at num_trials=600: chunk keys, RNG
# streams and row order fix these bytes. DIST is not pinned, as its float
# means may move with the BLAS build.
CSV_SHA256 = {
    "ber.json": "e7d62364fee3e19e2efba5248051740a002ac9f0ed232a72c896403d27b2d04a",
    "pfa.json": "a9337c1cf9a12316c0efca9860d7d69c7047822023dc3ce6864687ddb36cb13c",
    "pmd.json": "4550be07c38c5423c52423a05db3c17ffa716260dff265b661560fcee7202033",
    "roc.json": "9be4647ffede8680c2d378e729eabc9cfdd1d0c2b697d2b250d3913b68ea115d",
}


@pytest.mark.parametrize("name", sorted(os.listdir(CONFIGS)))
def test_simulate_bytes_identical_across_jobs(tmp_path, name):
    outs = []
    for jobs in ("1", "3"):
        out = tmp_path / f"jobs{jobs}"
        rc = cli.main(["simulate", "--config", os.path.join(CONFIGS, name), "--out", str(out),
                       "--jobs", jobs, "--set", "num_trials=600"])
        assert rc == 0
        outs.append({p.name: p.read_bytes() for p in out.iterdir()})
    assert outs[0] == outs[1]
    assert len(outs[0]) == 2  # the CSV and the sidecar
    if name in CSV_SHA256:
        (csv_bytes,) = [v for k, v in outs[0].items() if k.endswith(".csv")]
        assert hashlib.sha256(csv_bytes).hexdigest() == CSV_SHA256[name]


SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")


def run_python(args, **kwargs):
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([SRC, os.environ.get("PYTHONPATH", "")]))
    return subprocess.run([sys.executable, *args], capture_output=True, text=True, env=env,
                          **kwargs)


def test_imports_stay_light(tmp_path):
    code = (
        "import sys, cpdsss.analysis; "
        "print(sorted(m for m in sys.modules if m.startswith('cpdsss.'))); "
        "from cpdsss.analysis import H0Pdf, bessel_k_half, design_detector, h0_cdf, h0_pdf; "
        "design_detector(1e-3, 10, 20, 40, 1.0); h0_cdf(H0Pdf(40, 1.0), 10.0); "
        "bessel_k_half(3, 2.0); h0_pdf(H0Pdf(40, 1.0), 1.0); h0_cdf(H0Pdf(40, 1.0), 1e-6); "
        "print('numpy' in sys.modules); "
        "import cpdsss, cpdsss.cli; "
        "print(sorted(m for m in sys.modules if m == 'scipy' or m.startswith('scipy.')))"
    )
    proc = run_python(["-c", code], check=True)
    design_only, numpy_loaded, scipy_modules = proc.stdout.splitlines()
    # the package loads a submodule only when one of its names is used
    assert design_only == "['cpdsss._version', 'cpdsss.analysis', 'cpdsss.errors']"
    assert numpy_loaded == "False"  # the design and the scalar law are math-only
    assert scipy_modules == "[]"

    code = (
        "import sys; from cpdsss.cli import main; "
        f"rc = main(['design-threshold', '--k-bits', '1,10', '--out', {str(tmp_path)!r}]); "
        "print(rc, 'numpy' in sys.modules)"
    )
    proc = run_python(["-c", code], check=True)
    assert proc.stdout.splitlines()[-1] == "0 False"
    assert len(read_rows(tmp_path / "thresholds.csv")) == 2


def test_benchmark_microbenchmarks_resolve_package_names(tmp_path):
    # perfbench/child.py imports package names the package itself may not use; deleting one
    # must fail here rather than in a later benchmark run
    root = os.path.dirname(SRC)
    with open(os.path.join(root, "BENCHMARK.json")) as fh:
        names = {m["name"] for m in json.load(fh)["per_layer"] if m["name"].endswith("_us")}
    out = tmp_path / "m.json"
    proc = run_python(["-B", os.path.join(root, "perfbench", "child.py"), "micro", "1", str(out)])
    assert proc.returncode == 0, proc.stderr
    assert len(names) == 18
    assert set(json.loads(out.read_text())["micro_us"]) == names


def test_simulate_subprocess_writes_outputs(tmp_path):
    # the CLI process freezes the GC at exit; its outputs must not depend on that
    config = write_config(tmp_path / "c.json", num_trials=300)
    out = tmp_path / "o"
    proc = run_python(["-m", "cpdsss.cli", "simulate", "--config", str(config),
                       "--out", str(out), "--jobs", "2"])
    assert proc.returncode == 0, proc.stderr
    assert sorted(p.name for p in out.iterdir()) == ["cli_demo.config.json", "cli_demo.csv"]
    assert read_rows(out / "cli_demo.csv")[0]["trials"] == "300"


def test_main_does_not_freeze_gc_in_process(tmp_path):
    assert cli.main(["design-threshold", "--out", str(tmp_path)]) == 0
    assert gc.get_freeze_count() == 0  # only the exit hook freezes


def test_public_names_resolve_to_submodule_exports():
    for name in cpdsss.__all__:
        getattr(cpdsss, name)  # the lazy loader finds it
        if name != "__version__":
            module = importlib.import_module(f"cpdsss.{cpdsss._MODULE_OF[name]}")
            assert name in module.__all__, f"{name} is not in {module.__name__}.__all__"


def test_simulate_missing_file(tmp_path, capsys):
    rc = cli.main(["simulate", "--config", str(tmp_path / "nope.json")])
    assert rc == cli.EXIT_CONFIG


def test_simulate_numerical_failure_maps_to_exit_3(tmp_path, monkeypatch, capsys):
    config = write_config(tmp_path / "c.json")

    def boom(config, jobs):
        raise NumericalError("synthetic")

    monkeypatch.setattr(experiments, "run_experiment", boom)
    rc = cli.main(["simulate", "--config", str(config), "--out", str(tmp_path)])
    assert rc == cli.EXIT_NUMERICAL
    assert "numerical failure" in capsys.readouterr().err


def test_simulate_internal_value_error_is_not_a_config_error(tmp_path, monkeypatch):
    config = write_config(tmp_path / "c.json")

    def boom(config, jobs):
        raise ValueError("synthetic internal fault")

    monkeypatch.setattr(experiments, "run_experiment", boom)
    with pytest.raises(ValueError, match="synthetic internal fault"):
        cli.main(["simulate", "--config", str(config), "--out", str(tmp_path)])


# ---------------------------------------------------------------- selftest ----

def test_selftest_all_pass(capsys):
    rc = cli.main(["selftest"])
    out = capsys.readouterr().out
    assert rc == 0
    lines = [l for l in out.splitlines() if l.startswith(("PASS", "FAIL"))]
    assert len(lines) == 10 and all(l.startswith("PASS") for l in lines)
    summary = json.loads(out.splitlines()[-1])
    assert summary["failed"] == 0 and summary["passed"] == 10


def test_selftest_filter(capsys):
    rc = cli.main(["selftest", "--filter", "bessel"])
    out = capsys.readouterr().out
    assert rc == 0
    lines = [l for l in out.splitlines() if l.startswith("PASS")]
    assert lines and all("bessel" in l for l in lines)


def test_selftest_injected_failure_names_check(capsys, monkeypatch):
    h0_pdf = analysis.h0_pdf
    monkeypatch.setattr(analysis, "h0_pdf", lambda pdf, x: 0.9 * h0_pdf(pdf, x))
    rc = cli.main(["selftest", "--filter", "h0_pdf_normalization"])
    out = capsys.readouterr().out
    assert rc == cli.EXIT_CHECK_FAILED
    assert any(l.startswith("FAIL h0_pdf_normalization") for l in out.splitlines())
    summary = json.loads(out.splitlines()[-1])
    assert summary["failed"] == 1
