import os
import pathlib
import re
import string
import subprocess
import sys
import tempfile

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from nullheat import (ConfigError, ExperimentConfig, GaussianKernel, GridKernel,
                      SeparableKernel, ZeroKernel, format_config, parse_config,
                      write_grid_kernel)
import nullheat
from nullheat import cli
from nullheat.bundled import default_config_path

MINIMAL = """\
domain.length = 1.0
domain.omega_lo = 0.3
domain.omega_hi = 0.8
kernel.variant = zero
truncation.n = 4
time.horizon = 0.5
"""

SCALAR_FULL_WINDOW = """\
domain.length = 1.0
domain.omega_lo = 0.0
domain.omega_hi = 1.0
kernel.variant = zero
truncation.n = 1
time.horizon = 0.1
"""


def write(tmp_path, text, name="exp.cfg"):
    path = tmp_path / name
    path.write_text(text)
    return path


class TestParseConfig:
    def test_minimal_with_defaults(self, tmp_path):
        cfg = parse_config(write(tmp_path, MINIMAL))
        assert cfg.kernel_variant == "zero"
        assert cfg.n_modes == 4
        assert cfg.horizon == 0.5
        assert cfg.nt == 64              # default applied
        assert cfg.seed == 20260809

    def test_echo_byte_identical_on_reparse(self, tmp_path):
        cfg = parse_config(write(tmp_path, MINIMAL))
        echo = format_config(cfg)
        echo_path = write(tmp_path, echo, "echo.cfg")
        cfg2 = parse_config(echo_path)
        assert format_config(cfg2) == echo

    def test_unknown_key_with_line(self, tmp_path):
        path = write(tmp_path, MINIMAL + "physics.viscosity = 2\n")
        with pytest.raises(ConfigError) as err:
            parse_config(path)
        assert "physics.viscosity" in str(err.value)
        assert err.value.line == 7

    def test_duplicate_key_with_line(self, tmp_path):
        path = write(tmp_path, MINIMAL + "truncation.n = 8\n")
        with pytest.raises(ConfigError) as err:
            parse_config(path)
        assert "duplicate" in str(err.value)
        assert err.value.line == 7

    def test_type_mismatch_with_line(self, tmp_path):
        path = write(tmp_path, MINIMAL.replace("truncation.n = 4", "truncation.n = four"))
        with pytest.raises(ConfigError) as err:
            parse_config(path)
        assert err.value.line == 5

    def test_missing_required_key(self, tmp_path):
        path = write(tmp_path, "domain.length = 1.0\n")
        with pytest.raises(ConfigError) as err:
            parse_config(path)
        assert "missing required key" in str(err.value)

    def test_missing_variant_parameter(self, tmp_path):
        path = write(tmp_path, MINIMAL.replace("kernel.variant = zero",
                                               "kernel.variant = gaussian"))
        with pytest.raises(ConfigError) as err:
            parse_config(path)
        assert "kernel.amplitude" in str(err.value)

    def test_irrelevant_parameter_rejected(self, tmp_path):
        path = write(tmp_path, MINIMAL + "kernel.width = 0.2\n")
        with pytest.raises(ConfigError):
            parse_config(path)

    def test_override_precedence(self, tmp_path):
        path = write(tmp_path, MINIMAL)
        cfg = parse_config(path, overrides={"time.horizon": "0.1"})
        assert cfg.horizon == 0.1
        assert "time.horizon = 0.1" in format_config(cfg)

    def test_grid_length_mismatch_names_both(self, tmp_path):
        grid = tmp_path / "grid.txt"
        write_grid_kernel(grid, lambda x, xi: x + xi, n=8, length=2.0)
        text = MINIMAL.replace("kernel.variant = zero",
                               f"kernel.variant = grid\nkernel.file = {grid}")
        cfg = parse_config(write(tmp_path, text))
        with pytest.raises(ConfigError) as err:
            cfg.kernel()
        assert "2.0" in str(err.value) and "1.0" in str(err.value)

    def test_comments_and_blank_lines(self, tmp_path):
        text = "# leading comment\n\n" + MINIMAL + "\n# trailing\n"
        cfg = parse_config(write(tmp_path, text))
        assert cfg.n_modes == 4

    def test_nt_fine_is_not_a_key(self, tmp_path):
        path = write(tmp_path, MINIMAL + "time.nt_fine = 0\n")
        with pytest.raises(ConfigError) as err:
            parse_config(path)
        assert "unknown key 'time.nt_fine'" in str(err.value)
        assert err.value.line == 7

    @pytest.mark.parametrize("key", ["tolerances.gate", "tolerances.symmetry"])
    def test_fixed_tolerances_are_not_keys(self, tmp_path, key):
        path = write(tmp_path, MINIMAL + f"{key} = 1e-10\n")
        with pytest.raises(ConfigError) as err:
            parse_config(path)
        assert f"unknown key '{key}'" in str(err.value)
        assert err.value.line == 7


class TestKernelConstructor:
    """ExperimentConfig.kernel() is the one way a config becomes a kernel."""

    @pytest.mark.parametrize("lines, cls, params", [
        ("kernel.variant = zero\n", ZeroKernel, {}),
        ("kernel.variant = gaussian\nkernel.amplitude = 5\nkernel.width = 0.2\n",
         GaussianKernel, {"amplitude": 5.0, "width": 0.2}),
        ("kernel.variant = separable\nkernel.g_coeffs = 1,0,2\nkernel.h_coeffs = 0,1\n",
         SeparableKernel, {"g_coeffs": [1.0, 0.0, 2.0], "h_coeffs": [0.0, 1.0]}),
        ("kernel.variant = separable\nkernel.g_coeffs = 1,2\n",
         SeparableKernel, {"g_coeffs": [1.0, 2.0], "h_coeffs": [1.0, 2.0]}),
        ("kernel.variant = grid\nkernel.file = {grid}\n", GridKernel, {"n": 8, "length": 1.0}),
    ], ids=["zero", "gaussian", "separable", "separable-h-defaults-to-g", "grid"])
    def test_variant(self, tmp_path, lines, cls, params):
        grid = tmp_path / "grid.txt"
        write_grid_kernel(grid, lambda x, xi: x + xi, n=8, length=1.0)
        text = MINIMAL.replace("kernel.variant = zero\n", lines.format(grid=grid))
        kernel = parse_config(write(tmp_path, text)).kernel()
        assert type(kernel) is cls
        for name, val in params.items():
            assert np.array_equal(getattr(kernel, name), val), name

    @pytest.mark.parametrize("lines", [
        "kernel.variant = \n",
        "kernel.variant = zero\nkernel.amplitude = 1\n",
        "kernel.variant = gaussian\nkernel.amplitude = 5\n",
        "kernel.variant = gaussian\nkernel.width = x\nkernel.amplitude = 1\n",
        "kernel.variant = gaussian\nkernel.amplitude = 1\nkernel.width = 0.1\nkernel.shape = 2\n",
        "kernel.variant = separable\nkernel.h_coeffs = 1\n",
        "kernel.variant = grid\n",
        "kernel.variant = wavelet\n",
        "kernel.variant = gaussian\nkernel.amplitude = 5\nkernel.width = -1\n",
        "kernel.variant = separable\nkernel.g_coeffs =\n",
    ], ids=["empty", "zero-extra-key", "gaussian-missing-width", "gaussian-bad-width",
            "gaussian-unknown-key", "separable-missing-g", "grid-missing-file",
            "unknown-variant", "gaussian-negative-width", "separable-empty-g"])
    def test_malformed(self, tmp_path, lines):
        with pytest.raises(ConfigError):
            parse_config(write(tmp_path, MINIMAL.replace("kernel.variant = zero\n", lines)))


class TestRunCommand:
    def test_cost_scalar_value(self, tmp_path):
        path = write(tmp_path, SCALAR_FULL_WINDOW)
        out = tmp_path / "out"
        rc = cli.main(["cost", str(path), "--output", str(out)])
        assert rc == 0
        lines = (out / "cost.csv").read_text().splitlines()
        assert lines[0] == "T,N_used,kappa_T,gramian_min_eig,fit_model,fit_C,fit_alpha,fit_residual"
        kappa = float(lines[1].split(",")[2])
        assert kappa == pytest.approx(3.18434, abs=1e-4)

    def test_obs_sweep_full_window_all_ones(self, tmp_path):
        text = SCALAR_FULL_WINDOW.replace("truncation.n = 1", "truncation.n = 8")
        text += "sweep.r_list = 12.0,40.0,90.0,160.0,400.0\n"
        path = write(tmp_path, text)
        out = tmp_path / "out"
        rc = cli.main(["obs-sweep", str(path), "--output", str(out)])
        assert rc == 0
        lines = (out / "obs-sweep.csv").read_text().splitlines()
        assert lines[0] == "r,n_modes,c_min,specobs_constant"
        for line in lines[1:]:
            c_min = float(line.split(",")[2])
            assert c_min == pytest.approx(1.0, abs=1e-12)

    def test_echo_written_and_reparses(self, tmp_path):
        path = write(tmp_path, MINIMAL)
        out = tmp_path / "out"
        rc = cli.main(["basis", str(path), "--output", str(out)])
        assert rc == 0
        echo = out / "config.echo.cfg"
        cfg = parse_config(echo)
        assert format_config(cfg) == echo.read_text()

    def test_override_T_lands_in_echo(self, tmp_path):
        path = write(tmp_path, MINIMAL)
        out = tmp_path / "out"
        rc = cli.main(["evolve", str(path), "--set", "time.horizon=0.1", "--output", str(out)])
        assert rc == 0
        assert "time.horizon = 0.1" in (out / "config.echo.cfg").read_text()

    def test_control_hum_summary_schema(self, tmp_path):
        text = MINIMAL.replace("truncation.n = 4", "truncation.n = 8")
        path = write(tmp_path, text)
        out = tmp_path / "out"
        rc = cli.main(["control-hum", str(path), "--output", str(out)])
        assert rc == 0
        lines = (out / "control-summary.csv").read_text().splitlines()
        assert lines[0] == "T,cost_sq,terminal_residual,kappa_T,nullcond_ok"
        fields = lines[1].split(",")
        assert fields[4] == "1"
        assert float(fields[2]) <= 1e-8
        ctrl = (out / "control.csv").read_text().splitlines()
        assert ctrl[0] == "t,cost_density,residual_projection"
        assert len(ctrl) == 1 + 64

    def test_control_lr_schema(self, tmp_path):
        text = MINIMAL.replace("truncation.n = 4", "truncation.n = 16")
        text = text.replace("time.horizon = 0.5", "time.horizon = 1.0")
        text += "control.u0 = 0.5,0.5,0.5,0.5\ncontrol.stages = 3\n"
        path = write(tmp_path, text)
        out = tmp_path / "out"
        rc = cli.main(["control-lr", str(path), "--output", str(out)])
        assert rc == 0
        lines = (out / "lr.csv").read_text().splitlines()
        assert lines[0] == "k,r_k,t_start,t_mid,t_end,residual_after_active,residual_after_passive"
        assert len(lines) == 1 + 3

    def test_cost_sweep_schema_and_fit_rows(self, tmp_path):
        text = MINIMAL + "time.horizon_list = 0.4,0.2,0.1\n"
        text = text.replace("truncation.n = 4", "truncation.n = 6")
        path = write(tmp_path, text)
        out = tmp_path / "out"
        rc = cli.main(["cost-sweep", str(path), "--output", str(out)])
        assert rc == 0
        lines = (out / "cost-sweep.csv").read_text().splitlines()
        assert lines[0] == "T,N_used,kappa_T,gramian_min_eig,fit_model,fit_C,fit_alpha,fit_residual"
        models = [line.split(",")[4] for line in lines[1:]]
        assert models.count("sqrt") == 1 and models.count("inv") == 1

    def test_cost_sweep_error_text_keeps_eight_fields(self, tmp_path):
        # margin 0 gives N = 0 at the two longest horizons; their error rows
        # hold "..., got 0", which must not open a ninth field
        out = tmp_path / "out"
        rc = cli.main(["cost-sweep", str(default_config_path()), "--output", str(out),
                       "--set", "truncation.coupling=r-equals-1-over-T",
                       "--set", "truncation.margin=0"])
        assert rc == 0
        lines = (out / "cost-sweep.csv").read_text().splitlines()
        assert all(len(line.split(",")) == 8 for line in lines)
        errors = [line.split(",")[7] for line in lines[1:] if line.split(",")[4] == "error"]
        assert errors == ["ArgumentError: build_basis: n_modes must be a positive integer; "
                          "got 0"] * 2

    def test_exit_code_domain_error(self, tmp_path):
        path = write(tmp_path, MINIMAL + "nonsense.key = 1\n")
        assert cli.main(["basis", str(path)]) == 1

    def test_invalid_kernel_refused_before_echo(self, tmp_path, capsys):
        text = MINIMAL.replace("kernel.variant = zero",
                               "kernel.variant = gaussian\nkernel.amplitude = 5\nkernel.width = 0.2")
        path = write(tmp_path, text)
        out = tmp_path / "out"
        rc = cli.main(["basis", str(path), "--set", "kernel.width=-1", "--output", str(out)])
        assert rc == 1 and not out.exists()
        assert ("parse_config: GaussianKernel: width must be positive, got -1.0"
                in capsys.readouterr().err)

    @pytest.mark.parametrize("nt", ["-1", "0"])
    def test_nt_below_two_refused_before_echo(self, tmp_path, capsys, nt):
        out = tmp_path / "out"
        rc = cli.main(["evolve", str(write(tmp_path, MINIMAL)), "--set", f"time.nt={nt}",
                       "--output", str(out)])
        assert rc == 1 and not out.exists()
        assert f"parse_config: time.nt must be >= 2, got {nt}" in capsys.readouterr().err

    def test_control_hum_nt_not_raised_to_16(self, tmp_path, capsys):
        rc = cli.main(["control-hum", str(write(tmp_path, MINIMAL)), "--set", "time.nt=4",
                       "--output", str(tmp_path / "out")])
        assert rc == 1
        assert "hum_control: nt must be >= 16, got 4" in capsys.readouterr().err

    def test_control_lr_negative_margin_refused(self, tmp_path, capsys):
        # a negative margin once built a 1-mode model where the last cutoff needs 8 modes
        rc = cli.main(["control-lr", str(default_config_path()), "--set", "truncation.margin=-1",
                       "--output", str(tmp_path / "out")])
        assert rc == 1
        assert "lr_staged_control: margin must be >= 0, got -1" in capsys.readouterr().err

    def test_exit_code_missing_file(self, tmp_path):
        assert cli.main(["basis", str(tmp_path / "absent.cfg")]) == 1

    def test_exit_code_conditioning_error(self, tmp_path):
        text = MINIMAL.replace("truncation.n = 4", "truncation.n = 32")
        path = write(tmp_path, text)
        out = tmp_path / "out"
        rc = cli.main(["zeta", str(path), "--set", "time.horizon=0.1", "--output", str(out)])
        assert rc == 2

    def test_exit_code_cost_overflow(self, tmp_path, capsys):
        text = MINIMAL.replace("kernel.variant = zero",
                               "kernel.variant = gaussian\nkernel.amplitude = 20\nkernel.width = 0.15")
        path = write(tmp_path, text)
        rc = cli.main(["cost", str(path), "--set", "time.horizon=1000",
                       "--output", str(tmp_path / "out")])
        assert rc == 2
        assert "observability_cost: Gramian or e^(2LT) overflows float64 at T=1000" in (
            capsys.readouterr().err)

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize("verb, message", [
        ("gramian", "observability_gramian: Gramian overflows float64 at T=0.5"),
        ("cost", "observability_cost: Gramian or e^(2LT) overflows float64 at T=0.5"),
        ("evolve", "propagate: state overflows float64 at t=0.047619"),
    ])
    def test_strong_kernel_overflow_refused(self, tmp_path, capsys, verb, message):
        # amplitude 1e4 on default.cfg: e^(mu T) overflows, which is a numeric
        # error (exit 2) raised without an overflow warning, not a traceback
        rc = cli.main([verb, str(default_config_path()), "--set", "kernel.amplitude=1e4",
                       "--output", str(tmp_path / "out")])
        assert rc == 2
        assert f"nullheat: numeric error: {message}" in capsys.readouterr().err

    def test_unknown_verb_rejected(self, tmp_path):
        path = write(tmp_path, MINIMAL)
        assert cli.main(["transmogrify", str(path)]) == 1

    @pytest.mark.parametrize("flag", ["--T", "--N"])
    def test_removed_shorthand_flag_rejected(self, tmp_path, capsys, flag):
        out = tmp_path / "out"
        rc = cli.main(["evolve", str(write(tmp_path, MINIMAL)), flag, "0.1",
                       "--output", str(out)])
        assert rc == 1 and not out.exists()
        assert f"unrecognized arguments: {flag} 0.1" in capsys.readouterr().err

    def test_help_exits_zero(self, capsys):
        assert cli.main(["--help"]) == 0
        assert "usage: nullheat" in capsys.readouterr().out

    def test_cost_sweep_on_one_distinct_horizon_refused(self, tmp_path, capsys):
        rc = cli.main(["cost-sweep", str(default_config_path()), "--output",
                       str(tmp_path / "out"), "--set", "time.horizon_list=0.5,0.5"])
        assert rc == 1
        assert "cost_sweep: need at least 2 distinct horizons" in capsys.readouterr().err

    def test_negative_oracle_seed_refused_before_echo(self, tmp_path, capsys):
        out = tmp_path / "out"
        rc = cli.main(["certify-all", str(write(tmp_path, MINIMAL)),
                       "--set", "seeds.oracle=-1", "--output", str(out)])
        assert rc == 1 and not out.exists()
        assert "parse_config: seeds.oracle must be >= 0, got -1" in capsys.readouterr().err


def test_readme_quickstart_runs_clean():
    """README's library quickstart (build_model's 4-tuple and the (dec, m_omega)
    entry points) runs as written in a fresh interpreter, with a RuntimeWarning,
    a ridge fallback or an overflow, an error."""
    readme = pathlib.Path(__file__).resolve().parents[1] / "README.md"
    block = re.search(r"## Library quickstart\s+```python\n(.*?)```", readme.read_text(),
                      re.S).group(1)
    env = dict(os.environ, PYTHONPATH=str(pathlib.Path(nullheat.__file__).parents[1]))
    proc = subprocess.run([sys.executable, "-W", "error::RuntimeWarning", "-c", block],
                          env=env, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    residual, cost_sq, kappa, terminal = (float(v) for v in proc.stdout.split())
    assert residual < 1e-10 and 0 < cost_sq <= kappa * (1 + 1e-6)
    assert terminal < 1e-4


def _readme_csv_schema():
    readme = pathlib.Path(__file__).resolve().parents[1] / "README.md"
    return dict(re.findall(r"^(\S+\.csv):\s+(\S+)$", readme.read_text(), re.M))


class TestDefaultConfigVerbs:
    """Verbs no other test runs on default.cfg (obs-sweep on its default cutoffs)."""

    @pytest.mark.parametrize("verb", ["kernel-project", "obs-constant", "obs-sweep", "gramian"])
    def test_schema_and_echo_rerun_byte_identical(self, tmp_path, verb):
        first, second = tmp_path / "first", tmp_path / "second"
        assert cli.main([verb, str(default_config_path()), "--output", str(first)]) == 0
        csvs = sorted(p.name for p in first.glob("*.csv"))
        assert csvs
        schema = _readme_csv_schema()
        for name in csvs:
            header = (first / name).read_text().splitlines()[0]
            assert header == schema[name], name
        assert cli.main([verb, str(first / "config.echo.cfg"), "--output", str(second)]) == 0
        assert sorted(p.name for p in second.glob("*.csv")) == csvs
        for name in csvs:
            assert (second / name).read_bytes() == (first / name).read_bytes(), name

    def test_zeta_underflow_refused(self, tmp_path, capsys):
        # zeta(0.4) <= e^{mu_N 0.4} = e^{-1010.6}: refused from the bound, exit 2, no table
        out = tmp_path / "out"
        assert cli.main(["zeta", str(default_config_path()), "--output", str(out)]) == 2
        assert ("zeta underflows float64 (log zeta <= mu_N t = -1010.6)"
                in capsys.readouterr().err)
        assert not (out / "zeta.csv").exists()

    def test_grid_table_asymmetric_between_lattice_points_refused(
            self, tmp_path, capsys, lattice_hole_table):
        grid = tmp_path / "grid.txt"
        write_grid_kernel(grid, lambda x, xi: lattice_hole_table, n=64, length=1.0)
        text = MINIMAL.replace("kernel.variant = zero",
                               f"kernel.variant = grid\nkernel.file = {grid}")
        rc = cli.main(["kernel-project", str(write(tmp_path, text)),
                       "--output", str(tmp_path / "out")])
        assert rc == 1
        assert "fails the symmetry check (defect 6.000e-01" in capsys.readouterr().err


class TestDeterminism:
    def test_repeated_run_byte_identical(self, tmp_path):
        text = MINIMAL + "seeds.oracle = 777\n"
        text = text.replace("truncation.n = 4", "truncation.n = 6")
        path = write(tmp_path, text)
        outs = []
        for name in ("a", "b"):
            out = tmp_path / name
            rc = cli.main(["cost", str(path), "--output", str(out)])
            assert rc == 0
            outs.append((out / "cost.csv").read_bytes())
        assert outs[0] == outs[1]


_finite = st.floats(allow_nan=False, allow_infinity=False)
_lists = st.lists(_finite, max_size=4).map(tuple)
# kernel parameters are drawn valid: parse_config refuses the others
_widths = st.floats(min_value=0.0, exclude_min=True, allow_infinity=False)
_nonempty_lists = st.lists(_finite, min_size=1, max_size=4).map(tuple)
_words = st.text(string.ascii_letters + string.digits + "._/-", min_size=1, max_size=12)
_ints = st.integers(-10 ** 6, 10 ** 6)
_KERNEL_CASES = {
    "zero": {},
    "gaussian": {"amplitude": _finite, "width": _widths},
    "separable": {"g_coeffs": _nonempty_lists, "h_coeffs": _lists},
    "separable-h-defaults-to-g": {"g_coeffs": _nonempty_lists},
    "grid": {"kernel_file": _words},
}


@st.composite
def _configs(draw, case):
    length = draw(st.floats(1e-3, 1e3))
    lo, hi = sorted(draw(st.lists(st.floats(0.0, 1.0), min_size=2, max_size=2)))
    assume(lo * length < hi * length)
    return ExperimentConfig(
        length=length, omega_lo=lo * length, omega_hi=hi * length,
        kernel_variant=case.split("-")[0],
        **{name: draw(strategy) for name, strategy in _KERNEL_CASES[case].items()},
        n_modes=draw(st.integers(1, 10 ** 6)),
        coupling=draw(st.sampled_from(["fixed", "r-equals-1-over-T"])),
        margin=draw(_ints), horizon=draw(st.none() | _finite), horizon_list=draw(_lists),
        nt=draw(st.integers(2, 10 ** 6)), ridge=draw(_finite),
        u0=draw(_lists), stages=draw(_ints), r0=draw(_finite), r_list=draw(_lists),
        seed=draw(st.integers(0, 10 ** 6)), output_dir=draw(_words))


class TestConfigRoundTrip:
    @pytest.mark.parametrize("case", sorted(_KERNEL_CASES))
    @settings(derandomize=True, max_examples=20, deadline=None)
    @given(data=st.data())
    def test_format_parse_format_byte_identical(self, case, data):
        text = format_config(data.draw(_configs(case)))
        with tempfile.TemporaryDirectory() as tmp:
            path = os.path.join(tmp, "exp.cfg")
            with open(path, "w", encoding="ascii") as fh:
                fh.write(text)
            assert format_config(parse_config(path)) == text


_IMPORT_GUARD = """
import sys
import nullheat
from nullheat import cli
cfg, out = sys.argv[1], sys.argv[2]
rc = {}
for verb in cli.VERBS:
    rc[verb] = cli.main([verb, cfg, "--output", f"{out}/{verb}"])
rc["cost-sweep-resolvent"] = cli.main(
    ["cost-sweep", cfg, "--output", f"{out}/resolvent",
     "--set", "truncation.coupling=r-equals-1-over-T"])
print(rc["cost-sweep"], rc["cost-sweep-resolvent"], "scipy.optimize" in sys.modules)
"""


def test_no_verb_imports_scipy_optimize(tmp_path):
    """The free blow-up fit runs on the package's own bounded Brent search, so
    no verb (cost-sweep included, fixed and resolvent coupling) loads
    scipy.optimize; a fresh interpreter keeps this test's imports out."""
    env = dict(os.environ, PYTHONPATH=str(pathlib.Path(nullheat.__file__).parents[1]))
    proc = subprocess.run([sys.executable, "-c", _IMPORT_GUARD, str(default_config_path()),
                           str(tmp_path)], env=env, capture_output=True, text=True,
                          timeout=300, check=True)
    assert proc.stdout.split()[-3:] == ["0", "0", "False"]
