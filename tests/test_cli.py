"""End-to-end checks of the scenario runner.

Each scenario runs in-process through ``cli.main`` against a small config,
then the emitted files and the manifest are inspected.  Determinism is
checked byte-for-byte, including under Python-level sharding.
"""

import hashlib
import inspect
import re
import tempfile
import time
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from floquet_forge.cli import RUNNERS, SCHEMAS, Emitter, fmt, main

PAPER_BANDS = """\
eps21 = 3.7
t1 = 0.05
t2 = -0.15
U11 = 1.6
U12 = 0.8
"""

CONFIGS = {
    "bench-return-rate": (
        "units = J\nL = 4\nU = 3.0\ng = 3.0\nomega = 12.0\n"
        "t_final = 5.0\nsample_dt = 0.5\n",
        ["return_rate.csv", "nrmse.txt"],
    ),
    "derive-hamiltonian": (
        "units = J\nL = 4\nU = 3.0\ng = 3.0\nomega = 12.0\n"
        "order = 2\ninclude_J2 = true\n",
        ["hamiltonian_terms.txt"],
    ),
    "kspace-map": (
        f"units = eV\nNx = 16\nNy = 16\n{PAPER_BANDS}"
        "omega = 2.5\nquantity = screened\n",
        ["kspace_map.csv"],
    ),
    "exciton": (
        f"units = eV\nNx = 64\nNy = 64\n{PAPER_BANDS}",
        ["exciton.txt"],
    ),
    "gamma-scan": (
        f"units = eV\nNx = 6\nNy = 6\n{PAPER_BANDS}"
        "omega = 3.63\nU_coulomb = 1.6\nprofile = constant\n"
        "kx_index = 3\nky_index = 3\n",
        ["gamma_matrix.csv", "eigen.csv"],
    ),
    "absorbance-ed": (
        "units = eV\nL = 2\neps21 = 3.7\nt1 = 0.0\nt2 = 0.0\n"
        "U11 = 1.6\nU12 = 0.8\ngamma_broadening = 0.05\n"
        "omega_min = 2.0\nomega_max = 4.0\nn_omega = 81\n",
        ["spectrum.csv"],
    ),
    "pomeranchuk": (
        f"units = eV\nNx = 64\nNy = 64\n{PAPER_BANDS}"
        "kF = 0.10471975511965977\nomega = 2.5535260858801344\n"
        "g = 0.05\ngc0 = 0.1\ndelta_c = 0.25\n",
        ["pomeranchuk.txt"],
    ),
    "strong-drive": (
        "units = J\nL = 4\nU = 40.0\ng = 6.0\nomega = 12.0\njmax = 6\n",
        ["harmonics.txt", "truncation.txt"],
    ),
}


def run_cli(tmp_path, scenario, cfg_text, name="run"):
    cfg = tmp_path / f"{name}.cfg"
    cfg.write_text(cfg_text)
    out = tmp_path / f"out_{name}"
    code = main([scenario, "--config", str(cfg), "--out", str(out)])
    return code, out


def read_manifest(outdir):
    entries = {}
    for line in (outdir / "manifest.txt").read_text().splitlines():
        key, _, val = line.partition(" = ")
        entries[key] = val
    return entries


# ------------------------------------------------------------------ smoke

@pytest.mark.parametrize("scenario", sorted(CONFIGS))
def test_scenario_runs_and_manifests(tmp_path, scenario):
    cfg_text, expected = CONFIGS[scenario]
    code, out = run_cli(tmp_path, scenario, cfg_text)
    assert code == 0
    man = read_manifest(out)
    assert man["scenario"] == scenario
    assert man["version"] == "0.1.0"
    # every input key is echoed back with the canonical float format
    for line in cfg_text.splitlines():
        key = line.split("=")[0].strip()
        assert f"input.{key}" in man
    for name in expected:
        digest = hashlib.sha256((out / name).read_bytes()).hexdigest()
        assert man[f"sha256.{name}"] == digest


def test_reruns_are_byte_identical(tmp_path):
    cfg_text, expected = CONFIGS["bench-return-rate"]
    _, out1 = run_cli(tmp_path, "bench-return-rate", cfg_text, "a")
    _, out2 = run_cli(tmp_path, "bench-return-rate", cfg_text, "b")
    for name in expected + ["manifest.txt"]:
        assert (out1 / name).read_bytes() == (out2 / name).read_bytes()


def test_config_comments_and_blank_lines_change_nothing(tmp_path):
    cfg_text, expected = CONFIGS["derive-hamiltonian"]
    commented = ("# chain at the reference point\n\n"
                 + cfg_text.replace("U = 3.0\n", "U = 3.0  # in units of J\n"))
    assert commented != cfg_text
    _, plain = run_cli(tmp_path, "derive-hamiltonian", cfg_text, "plain")
    code, out = run_cli(tmp_path, "derive-hamiltonian", commented, "notes")
    assert code == 0
    for name in expected + ["manifest.txt"]:
        assert (out / name).read_bytes() == (plain / name).read_bytes()


# ------------------------------------------------------------- exit codes

def test_unknown_key_exits_1(tmp_path, capsys):
    code, _ = run_cli(tmp_path, "derive-hamiltonian",
                      "units = J\nL = 4\nU = 3.0\ng = 3.0\nomega = 12.0\n"
                      "bogus = 1\n")
    assert code == 1
    assert "config error" in capsys.readouterr().err


def test_missing_required_key_exits_1(tmp_path, capsys):
    code, _ = run_cli(tmp_path, "derive-hamiltonian",
                      "units = J\nL = 4\ng = 3.0\nomega = 12.0\n")
    assert code == 1
    assert "requires key" in capsys.readouterr().err


def test_wrong_units_exits_1(tmp_path, capsys):
    code, _ = run_cli(tmp_path, "derive-hamiltonian",
                      "units = eV\nL = 4\nU = 3.0\ng = 3.0\nomega = 12.0\n")
    assert code == 1
    assert "units" in capsys.readouterr().err


def test_duplicate_key_exits_1(tmp_path, capsys):
    code, _ = run_cli(tmp_path, "derive-hamiltonian",
                      "units = J\nL = 4\nL = 5\nU = 3.0\ng = 3.0\n"
                      "omega = 12.0\n")
    assert code == 1
    assert "duplicate" in capsys.readouterr().err


def test_missing_config_file_exits_1(tmp_path, capsys):
    code = main(["exciton", "--config", str(tmp_path / "nope.cfg")])
    assert code == 1
    assert "cannot read config" in capsys.readouterr().err


def test_physics_error_exits_2(tmp_path, capsys):
    # no interband Coulomb attraction: no pole below the band edge
    code, _ = run_cli(tmp_path, "exciton",
                      "units = eV\nNx = 8\nNy = 8\neps21 = 3.7\nt1 = 0.05\n"
                      "t2 = -0.15\nU11 = 1.6\nU12 = 0.0\n")
    assert code == 2
    assert "physics error" in capsys.readouterr().err


@pytest.mark.parametrize("order", [2, 4])
def test_ladder_resonance_same_at_every_order(tmp_path, capsys, order):
    # omega - U = -5e-9: inside the ladder tolerance 1e-8 * max(omega, 1),
    # so both orders must refuse it rather than divide by it
    code, out = run_cli(tmp_path, "derive-hamiltonian",
                        "units = J\nL = 3\nU = 0.100000005\ng = 0.05\n"
                        f"omega = 0.1\norder = {order}\n")
    assert code == 2
    assert "physics error" in capsys.readouterr().err
    assert not (out / "hamiltonian_terms.txt").exists()


def test_exciton_unresolvable_edge_exits_2(tmp_path, capsys):
    # U12 = 1e10 puts the continuum edge where 1e-9 below it rounds onto it
    cfg_text = CONFIGS["exciton"][0].replace("Nx = 64\nNy = 64",
                                             "Nx = 16\nNy = 16")
    cfg_text = cfg_text.replace("U12 = 0.8", "U12 = 1e10")
    code, out = run_cli(tmp_path, "exciton", cfg_text)
    assert code == 2
    assert "physics error" in capsys.readouterr().err
    assert not (out / "exciton.txt").exists()


def test_exciton_unclosed_root_exits_2(tmp_path, capsys):
    # a weak U12 binds just below the continuum edge, within the bisection
    # resolution, so the screened detuning cannot close to 1e-6 * U12 there;
    # this used to escape as an AssertionError (and pass silently under -O)
    code, out = run_cli(tmp_path, "exciton",
                        "units = eV\nNx = 8\nNy = 8\neps21 = 3.7\nt1 = 0.05\n"
                        "t2 = -0.15\nU11 = 1.6\nU12 = 0.001\n")
    assert code == 2
    assert "physics error" in capsys.readouterr().err
    assert not (out / "exciton.txt").exists()


def test_propagation_failure_exits_2(tmp_path, monkeypatch, capsys):
    # a Chebyshev series that leaves a non-finite state in mid-run must
    # reach exit code 2, naming the step, not a traceback or written files
    from floquet_forge import dynamics, kernels

    calls = []

    def poisoned(twice_x, v, coeffs):
        calls.append(1)
        out = kernels.chebyshev_expm_multiply(twice_x, v, coeffs)
        if len(calls) > 10:
            out[:] = np.inf
        return out

    monkeypatch.setattr(dynamics, "chebyshev_expm_multiply", poisoned)
    code, out = run_cli(tmp_path, "bench-return-rate",
                        "units = J\nL = 6\nU = 3.0\ng = 3.0\nomega = 12.0\n"
                        "t_final = 0.5\n")
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith("physics error: ") and "non-finite state" in err
    assert "from t=" in err and "of length h=" in err
    assert not (out / "return_rate.csv").exists()


@pytest.mark.parametrize("timing", [
    "dt = 0.0", "dt = -0.1", "t_final = inf", "sample_dt = inf",
    "sample_dt = -0.5", "sample_dt = 0.0",
])
def test_bad_timing_key_exits_1(tmp_path, capsys, timing):
    # each must be a config error, neither a traceback nor a silent run
    base = "units = J\nL = 4\nU = 3.0\ng = 3.0\nomega = 12.0\n"
    if not timing.startswith("t_final"):
        base += "t_final = 1.0\n"
    code, out = run_cli(tmp_path, "bench-return-rate", f"{base}{timing}\n")
    assert code == 1
    assert "config error" in capsys.readouterr().err
    assert not (out / "nrmse.txt").exists()


def test_tiny_sample_dt_exits_1_before_allocating(tmp_path, monkeypatch,
                                                 capsys):
    # sample_dt = 1e-12 over t_final = 60 asks for 6e13 samples; the run
    # must refuse by the stored-amplitude cap before building the sample
    # grid, not escape as a numpy allocation error
    def no_grid(*args, **kwargs):
        raise AssertionError("sample grid built above the storage cap")

    monkeypatch.setattr("floquet_forge.dynamics._sample_times", no_grid)
    code, out = run_cli(tmp_path, "bench-return-rate",
                        "units = J\nL = 4\nU = 3.0\ng = 3.0\nomega = 12.0\n"
                        "t_final = 60.0\nsample_dt = 1e-12\n")
    assert code == 1
    err = capsys.readouterr().err
    assert "config error" in err and "stored amplitudes" in err
    assert "Traceback" not in err
    assert not (out / "nrmse.txt").exists()


@pytest.mark.parametrize("timing", ["dt = 1e-9", "omega = 1000000.0"])
def test_step_cap_exits_1_before_stepping(tmp_path, monkeypatch, capsys,
                                         timing):
    # 6e10 steps (dt = 1e-9) and 9.5e7 steps of dim 36 (omega = 1e6 at the
    # default T/10) over t_final = 60: refused before the first step
    def no_grid(*args, **kwargs):
        raise AssertionError("sample grid built above the step cap")

    monkeypatch.setattr("floquet_forge.dynamics._sample_times", no_grid)
    cfg_text = "units = J\nL = 4\nU = 3.0\ng = 3.0\nt_final = 60.0\n"
    if timing.startswith("dt"):
        cfg_text += "omega = 12.0\n"
    start = time.perf_counter()
    code, out = run_cli(tmp_path, "bench-return-rate", f"{cfg_text}{timing}\n")
    elapsed = time.perf_counter() - start
    assert code == 1
    err = capsys.readouterr().err
    assert "config error" in err and "steps times dim" in err
    assert not (out / "nrmse.txt").exists()
    assert elapsed < 1.0


def test_static_cap_exits_1_before_propagating(tmp_path, monkeypatch,
                                               capsys):
    # L=9 has sector dim 15876, above the dense static cap: the run must
    # stop before the (minutes-long) exact propagation, not after it
    def no_propagation(*args, **kwargs):
        raise AssertionError("evolve_exact called above the static cap")

    monkeypatch.setattr("floquet_forge.dynamics.evolve_exact", no_propagation)
    code, out = run_cli(tmp_path, "bench-return-rate",
                        "units = J\nL = 9\nU = 3.0\ng = 3.0\nomega = 12.0\n"
                        "t_final = 0.5\n")
    assert code == 1
    err = capsys.readouterr().err
    assert "config error" in err and "8192" in err
    assert not (out / "nrmse.txt").exists()


def test_resonant_candidate_exits_2_before_propagating(tmp_path, monkeypatch,
                                                      capsys):
    # U = omega is a pole of the fswt candidate: the candidates are built
    # first, so the refusal costs no exact propagation
    def no_propagation(*args, **kwargs):
        raise AssertionError("evolve_exact called for a resonant candidate")

    monkeypatch.setattr("floquet_forge.dynamics.evolve_exact", no_propagation)
    code, out = run_cli(tmp_path, "bench-return-rate",
                        "units = J\nL = 6\nU = 12.0\ng = 3.0\nomega = 12.0\n")
    assert code == 2
    assert "physics error" in capsys.readouterr().err
    assert not (out / "nrmse.txt").exists()


@pytest.mark.parametrize("key, bad", [
    ("U_coulomb", "nan"), ("U_coulomb", "inf"), ("omega", "nan"),
    ("eps21", "inf"),
])
def test_non_finite_float_exits_1(tmp_path, capsys, key, bad):
    # these used to exit 0 with an all-NaN eigen.csv and a valid manifest
    cfg_text, _ = CONFIGS["gamma-scan"]
    lines = [f"{key} = {bad}" if ln.split(" = ")[0] == key else ln
             for ln in cfg_text.splitlines()]
    code, out = run_cli(tmp_path, "gamma-scan", "\n".join(lines) + "\n")
    assert code == 1
    assert "config error" in capsys.readouterr().err
    assert not (out / "eigen.csv").exists()


def test_bad_order_exits_1(tmp_path, capsys):
    code, _ = run_cli(tmp_path, "derive-hamiltonian",
                      "units = J\nL = 4\nU = 3.0\ng = 3.0\nomega = 12.0\n"
                      "order = 3\n")
    assert code == 1
    assert "order" in capsys.readouterr().err


@pytest.mark.parametrize("scenario, key", [
    ("gamma-scan", "width = 0.6"), ("gamma-scan", "Kx = 3"),
    ("gamma-scan", "Kpy = 0"), ("exciton", "output_dir = elsewhere"),
])
def test_removed_keys_exit_1(tmp_path, capsys, scenario, key):
    # keys that reached no output (the coupling-profile geometry) or named
    # a setting twice (output_dir for --out) are unknown keys now
    code, out = run_cli(tmp_path, scenario,
                        f"{CONFIGS[scenario][0]}{key}\n")
    assert code == 1
    assert "unknown key" in capsys.readouterr().err
    assert not (out / "manifest.txt").exists()


def test_include_j2_at_order_4_exits_1(tmp_path, capsys):
    # the order-4 terms are at leading hopping order and would ignore it
    code, out = run_cli(tmp_path, "derive-hamiltonian",
                        "units = J\nL = 4\nU = 3.0\ng = 3.0\nomega = 12.0\n"
                        "order = 4\ninclude_J2 = true\n")
    assert code == 1
    err = capsys.readouterr().err
    assert "config error" in err and "include_J2" in err
    assert not (out / "hamiltonian_terms.txt").exists()


@pytest.mark.parametrize("quantity", ["bare", "screened", "bs"])
def test_kspace_map_g_without_dressed_exits_1(tmp_path, monkeypatch, capsys,
                                              quantity):
    # only the dressed band reads the drive amplitude g; the refusal comes
    # before the grid is built
    def no_grid(*args, **kwargs):
        raise AssertionError("grid built for an ignored g")

    monkeypatch.setattr("floquet_forge.cli._grid_from_cfg", no_grid)
    cfg_text = CONFIGS["kspace-map"][0].replace(
        "quantity = screened", f"quantity = {quantity}\ng = 0.1")
    code, out = run_cli(tmp_path, "kspace-map", cfg_text)
    assert code == 1
    err = capsys.readouterr().err
    assert "config error" in err and "dressed" in err
    assert not (out / "kspace_map.csv").exists()


def test_nonpositive_threads_exits_1(tmp_path, capsys):
    # every scenario runs on one thread, so --threads accepts 1 alone
    cfg = tmp_path / "c.cfg"
    cfg.write_text(CONFIGS["exciton"][0])
    for threads in ("0", "2"):
        code = main(["exciton", "--config", str(cfg), "--out",
                     str(tmp_path / "out"), "--threads", threads])
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith("config error: ") and "thread count" in err
    assert not (tmp_path / "out").exists()


def test_every_runner_takes_cfg_and_em():
    for scenario, run in RUNNERS.items():
        assert list(inspect.signature(run).parameters) == ["cfg", "em"], \
            scenario


def test_absorbance_cap_exits_1_before_enumerating(tmp_path, monkeypatch,
                                                   capsys):
    # L=5 has a (5, 5) sector of C(10, 5)^2 = 63504 states, a dense float64
    # matrix of about 32 GB: the run must refuse before building the basis
    def no_basis(*args, **kwargs):
        raise AssertionError("basis enumerated above the dense cap")

    monkeypatch.setattr("floquet_forge.dynamics.build_sector_basis", no_basis)
    cfg_text = CONFIGS["absorbance-ed"][0].replace("L = 2", "L = 5")
    code, out = run_cli(tmp_path, "absorbance-ed", cfg_text)
    assert code == 1
    err = capsys.readouterr().err
    assert "config error" in err and "8192" in err
    assert not (out / "spectrum.csv").exists()


def test_bench_cap_exits_1_before_enumerating(tmp_path, monkeypatch, capsys):
    # L=9 has a (5, 5) sector of C(9, 5)^2 = 15876 states, above the cap of
    # 8192: the run must refuse before building the basis
    def no_basis(*args, **kwargs):
        raise AssertionError("basis enumerated above the dense cap")

    monkeypatch.setattr("floquet_forge.fock.build_sector_basis", no_basis)
    cfg_text = CONFIGS["bench-return-rate"][0].replace("L = 4", "L = 9")
    code, out = run_cli(tmp_path, "bench-return-rate", cfg_text)
    assert code == 1
    err = capsys.readouterr().err
    assert "config error" in err and "8192" in err and "15876" in err
    assert not (out / "return_rate.csv").exists()


def test_integer_keys_at_the_64_bit_limits_reach_an_exit_code(tmp_path):
    # the widest accepted values end in a documented exit code, not an
    # overflow inside numpy
    for scenario, key in (("gamma-scan", "kx_index"),
                          ("gamma-scan", "qy_index"),
                          ("absorbance-ed", "n_omega"), ("exciton", "Nx"),
                          ("strong-drive", "jmax"),
                          ("derive-hamiltonian", "order"),
                          ("bench-return-rate", "L")):
        for value in (2 ** 63 - 1, -2 ** 63):
            code, _ = run_cli(tmp_path, scenario,
                              _edited(scenario, **{key: value}),
                              f"{scenario}-{key}-{value}")
            assert code in (0, 1, 2), (scenario, key, value)


def test_strong_drive_jmax_above_cap_exits_1(tmp_path, capsys):
    cfg_text = CONFIGS["strong-drive"][0].replace("jmax = 6", "jmax = 1025")
    code, out = run_cli(tmp_path, "strong-drive", cfg_text)
    assert code == 1
    err = capsys.readouterr().err
    assert "config error" in err and "1024" in err
    assert not (out / "harmonics.txt").exists()


def test_strong_drive_long_chain_exits_1(tmp_path, capsys):
    # the chain is a HubbardParams, which caps L at 16
    cfg_text = CONFIGS["strong-drive"][0].replace("L = 4", "L = 17")
    code, out = run_cli(tmp_path, "strong-drive", cfg_text)
    assert code == 1
    assert "L must be <= 16" in capsys.readouterr().err
    assert not (out / "harmonics.txt").exists()


def test_pomeranchuk_kf_guard_exits_1_before_the_grid(tmp_path, monkeypatch,
                                                      capsys):
    # kF must lie in (0, pi/4); the run refuses before building the grid
    def no_grid(*args, **kwargs):
        raise AssertionError("grid built for an out-of-range kF")

    monkeypatch.setattr("floquet_forge.cli._grid_from_cfg", no_grid)
    cfg_text = CONFIGS["pomeranchuk"][0]
    for kF in ("1.0", "0.0"):
        bad = cfg_text.replace("kF = 0.10471975511965977", f"kF = {kF}")
        code, out = run_cli(tmp_path, "pomeranchuk", bad, name=f"kF{kF}")
        assert code == 1
        err = capsys.readouterr().err
        assert "config error" in err and "kF" in err
        assert not (out / "pomeranchuk.txt").exists()


def test_unwritable_output_dir_exits_1(tmp_path, capsys):
    blocker = tmp_path / "afile"
    blocker.write_text("")
    cfg = tmp_path / "ex.cfg"
    cfg.write_text(CONFIGS["exciton"][0])
    code = main(["exciton", "--config", str(cfg),
                 "--out", str(blocker / "sub")])
    assert code == 1
    err = capsys.readouterr().err
    assert "config error" in err and str(blocker / "sub") in err


def test_failed_write_exits_1_without_a_manifest(tmp_path, capsys):
    # the energies are found and eigen.csv is never reached: the first
    # output cannot be opened, and no manifest vouches for a partial run
    out = tmp_path / "out_run"
    (out / "gamma_matrix.csv").mkdir(parents=True)
    code, _ = run_cli(tmp_path, "gamma-scan", CONFIGS["gamma-scan"][0])
    assert code == 1
    assert "config error: cannot write outputs" in capsys.readouterr().err
    assert not (out / "manifest.txt").exists()
    assert not (out / "eigen.csv").exists()


def test_bench_return_rate_exits_2_when_krylov_gives_up(tmp_path,
                                                        monkeypatch, capsys):
    # a PhysicsError raised inside the exact propagation's series, here
    # forced, leaves through exit code 2 with no output written
    from floquet_forge import dynamics
    from floquet_forge.errors import PhysicsError

    def refuse(*args, **kwargs):
        raise PhysicsError("refused")

    monkeypatch.setattr(dynamics, "chebyshev_expm_multiply", refuse)
    code, out = run_cli(tmp_path, "bench-return-rate",
                        CONFIGS["bench-return-rate"][0])
    assert code == 2
    assert "physics error" in capsys.readouterr().err
    assert not (out / "return_rate.csv").exists()


@pytest.mark.parametrize("key, bad, scenario", [
    (key, bad, scenario)
    for scenario in ("bench-return-rate", "derive-hamiltonian")
    for key, bad in (("g", "1e300"), ("omega", "1e300"), ("omega", "1e-300"))
] + [("g", "1e300", "kspace-map")])
def test_energy_out_of_float_range_exits_1(tmp_path, capsys, scenario, key,
                                           bad):
    # g ** 2 / omega ** 2 used to escape as OverflowError (g or omega =
    # 1e300) or ZeroDivisionError (omega = 1e-300); kspace-map squares g
    # only for the dressed band
    extra = {"quantity": "dressed"} if scenario == "kspace-map" else {}
    code, out = run_cli(tmp_path, scenario,
                        _edited(scenario, **extra, **{key: bad}))
    assert code == 1
    err = capsys.readouterr().err
    assert "config error" in err and key in err
    assert not any((out / name).exists() for name in CONFIGS[scenario][1])


def _edited(scenario, **changes):
    """CONFIGS[scenario] with each key of ``changes`` set to its value, or
    dropped where the value is None."""
    lines = [ln for ln in CONFIGS[scenario][0].splitlines()
             if ln.split(" = ")[0] not in changes]
    lines += [f"{key} = {val}" for key, val in changes.items()
              if val is not None]
    return "\n".join(lines) + "\n"


# run -> (scenario, config, exit code, text the error names)
REFUSED = {
    # malformed configs
    "line-without-equals": ("exciton", CONFIGS["exciton"][0] + "Nx 64\n", 1,
                            "expected 'key = value'"),
    "bad-boolean": ("derive-hamiltonian",
                    _edited("derive-hamiltonian", include_J2="yes"), 1,
                    "true/false"),
    "unparsable-number": ("derive-hamiltonian",
                          _edited("derive-hamiltonian", L="four"), 1,
                          "cannot parse 'four'"),
    "missing-units": ("exciton", _edited("exciton", units=None), 1,
                      "'units' is missing"),
    "unknown-quantity": ("kspace-map",
                         _edited("kspace-map", quantity="fancy"), 1,
                         "quantity must be"),
    "one-frequency": ("absorbance-ed", _edited("absorbance-ed", n_omega=1),
                      1, "n_omega must be >= 2"),
    # one frequency above the cap; a trillion would ask np.linspace for
    # 7.28 TiB
    "frequencies-above-cap": ("absorbance-ed",
                              _edited("absorbance-ed", n_omega=2 ** 20 + 1),
                              1, "n_omega capped at 1048576"),
    # the gamma-scan indices reach numpy as int64; every integer key is
    # refused beyond 64 bits when the config is read
    **{f"beyond-64-bits-{value}": (
        "gamma-scan", _edited("gamma-scan", kx_index=value), 1,
        "must fit in 64 bits")
       for value in ("100000000000000000000", str(2 ** 63),
                     str(-2 ** 63 - 1))},
    "empty-window": ("absorbance-ed",
                     _edited("absorbance-ed", omega_max=2.0), 1,
                     "omega_max must exceed omega_min"),
    "no-sites": ("absorbance-ed", _edited("absorbance-ed", L=0), 1,
                 "L must be >= 1"),
    "too-many-orbitals": ("absorbance-ed", _edited("absorbance-ed", L=9), 1,
                          "2L must be <= 16"),
    "no-band-gap": ("absorbance-ed", _edited("absorbance-ed", eps21=0.0), 1,
                    "eps21 must be positive"),
    # their squares used to escape as OverflowError tracebacks
    "huge-drive": ("pomeranchuk", _edited("pomeranchuk", g=1e300), 1,
                   "g must be finite and in [-1e+30, 1e+30]"),
    "huge-cavity-coupling": ("pomeranchuk",
                             _edited("pomeranchuk", gc0=1e300), 1,
                             "gc0 must be finite and in [-1e+30, 1e+30]"),
    "huge-broadening": ("absorbance-ed",
                        _edited("absorbance-ed", gamma_broadening=1e300), 1,
                        "gamma_broadening must be finite and in "
                        "[1e-30, 1e+30]"),
    # each exited 0 with a numpy RuntimeWarning (an overflow, or 0/0 where a
    # square underflowed) before every band and absorbance energy shared
    # the chain's cap errors.ENERGY_MAX; pytest makes warnings errors
    **{f"out-of-range-{scenario}-{key}={value}": (
        scenario, _edited(scenario, **{key: value}), 1,
        f"{name} must be finite and in [{low}, 1e+30]")
       for scenario, key, value, name, low in (
           ("pomeranchuk", "eps21", "1e300", "eps21", "-1e+30"),
           ("pomeranchuk", "U11", "-1e300", "U11", "-1e+30"),
           ("pomeranchuk", "U12", "1e300", "U12", "-1e+30"),
           ("pomeranchuk", "omega", "-1e300", "omega", "-1e+30"),
           ("absorbance-ed", "eps21", "1e300", "eps21", "-1e+30"),
           *(("absorbance-ed", key, value, key, "-1e+30")
             for key in ("t1", "t2", "U11", "U12")
             for value in ("1e300", "-1e300")),
           ("absorbance-ed", "gamma_broadening", "1e-300",
            "gamma_broadening", "1e-30"),
           ("absorbance-ed", "gamma_broadening", "5e-324",
            "gamma_broadening", "1e-30"),
           ("absorbance-ed", "omega_min", "-1e300", "omega", "-1e+30"),
           ("absorbance-ed", "omega_max", "1e300", "omega", "-1e+30"))},
    # the vertex diagonal's V_q sum overflowed, and the secular equation
    # then failed with exit 2 (or the run exited 0 with a warning)
    **{f"out-of-range-gamma-scan-U_coulomb={value}": (
        "gamma-scan", _edited("gamma-scan", U_coulomb=value), 1,
        "Coulomb U must be finite and in [-1e+30, 1e+30]")
       for value in ("1e308", "-1e300")},
    "out-of-range-pomeranchuk-delta_c=5e-324": (
        "pomeranchuk", _edited("pomeranchuk", delta_c="5e-324"), 1,
        "cavity detuning must be >= 1e-30"),
    # one row above the grid cap, refused before any array is built
    **{f"grid-above-cap-{scenario}": (
        scenario, _edited(scenario, Nx=1024, Ny=1025), 1,
        "grid capped at 1048576 points")
       for scenario in ("kspace-map", "exciton", "pomeranchuk")},
    # the Chebyshev degree of the exact propagation grows with U: at U = 1e6
    # the default step needs thousands, above the cap of 60
    "chebyshev-degree-above-cap": (
        "bench-return-rate",
        _edited("bench-return-rate", U="1e6", t_final="1.0"), 1,
        "exceeds the cap of 60: the exponents' spectral radius is R="),
    # regimes where the quantity is undefined
    "exciton-edge-below-zero": ("exciton", _edited("exciton", U11=10.0), 2,
                                "no positive-frequency window"),
    "exciton-bound-at-zero": ("exciton", _edited("exciton", U11=8.0,
                                                 U12=4.0), 2,
                              "screening already above unity"),
    "pomeranchuk-above-resonance": ("pomeranchuk",
                                    _edited("pomeranchuk", omega=5.0), 2,
                                    "screened detuning non-positive"),
}


@pytest.mark.parametrize("run", sorted(REFUSED))
def test_refused_config_exits_with_its_code(tmp_path, capsys, run):
    scenario, cfg_text, code, needle = REFUSED[run]
    got, out = run_cli(tmp_path, scenario, cfg_text)
    assert got == code
    err = capsys.readouterr().err
    prefix = "config error" if code == 1 else "physics error"
    assert err.startswith(f"{prefix}: ") and needle in err
    assert not any((out / name).exists() for name in CONFIGS[scenario][1])


# size keys and the small ranges the fuzz draws them from; every other key
# but units takes one of FUZZ_VALUES
FUZZ_SIZES = {"L": (-1, 3), "Nx": (0, 16), "Ny": (0, 16),
              "n_omega": (0, 64), "jmax": (0, 8), "order": (0, 5),
              "kx_index": (-8, 8), "ky_index": (-8, 8),
              "qx_index": (-8, 8), "qy_index": (-8, 8)}
FUZZ_VALUES = ["0", "-1", "1e-300", "1e300", "1e-12", "-1e300", "5e-324",
               "nan", "1.5", "true", "constant"]


@st.composite
def _perturbed_config(draw):
    # every key the scenario accepts, so optional keys that CONFIGS omits
    # (kF, dt, jmax, ...) are drawn too
    scenario = draw(st.sampled_from(sorted(CONFIGS)))
    key = draw(st.sampled_from(sorted(SCHEMAS[scenario]["keys"])))
    if key in FUZZ_SIZES:
        value = str(draw(st.integers(*FUZZ_SIZES[key])))
    else:
        value = draw(st.sampled_from(FUZZ_VALUES))
    return scenario, key, value


@settings(max_examples=150, deadline=None, derandomize=True)
@given(_perturbed_config())
@example(("pomeranchuk", "delta_c", "5e-324"))
@example(("absorbance-ed", "gamma_broadening", "1e-300"))
@example(("absorbance-ed", "n_omega", "1000000000000"))
@example(("gamma-scan", "kx_index", "100000000000000000000"))
@example(("exciton", "kF", "1e300"))
@example(("kspace-map", "kF", "1e300"))
def test_one_perturbed_config_value_reaches_an_exit_code(run):
    # a bounded config fuzz: any one value set to an extreme, a wrong type
    # or a small size ends in exit code 0, 1 or 2, with no exception and
    # (pytest makes them errors) no warning escaping cli.main
    scenario, key, value = run
    with tempfile.TemporaryDirectory() as tmp:
        cfg = Path(tmp) / "run.cfg"
        cfg.write_text(_edited(scenario, **{key: value}))
        code = main([scenario, "--config", str(cfg), "--out",
                     str(Path(tmp) / "out"), "--threads", "1"])
    assert code in (0, 1, 2)


def test_gamma_scan_dense_cap_exits_1_before_the_grid(tmp_path, monkeypatch,
                                                      capsys):
    # 33 x 33 = 1089 momenta, above gamma.MAX_DENSE = 1024: refused from the
    # config, before the grid or the vertex is built
    def no_grid(*args, **kwargs):
        raise AssertionError("grid built above the dense vertex cap")

    monkeypatch.setattr("floquet_forge.kspace.BandGrid.square", no_grid)
    cfg_text = CONFIGS["gamma-scan"][0].replace("Nx = 6\nNy = 6",
                                                "Nx = 33\nNy = 33")
    code, out = run_cli(tmp_path, "gamma-scan", cfg_text)
    assert code == 1
    err = capsys.readouterr().err
    assert "config error" in err and "1024" in err
    assert not (out / "gamma_matrix.csv").exists()


def test_usage_errors_exit_1(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["no-such-scenario", "--config", "x.cfg"])
    assert exc.value.code == 1
    with pytest.raises(SystemExit) as exc:
        main(["exciton"])  # --config is mandatory
    assert exc.value.code == 1
    capsys.readouterr()


# ------------------------------------------------------------- csv writer

def _naive_csv(header, columns):
    rows = zip(*(np.asarray(c).tolist() for c in columns))
    return ",".join(header) + "\n" + "".join(",".join(map(fmt, row)) + "\n"
                                             for row in rows)


@pytest.mark.parametrize("block", [None, 3, 7])
def test_write_csv_matches_per_cell_formatting(tmp_path, monkeypatch, block):
    # values are deduplicated by bits, so 0.0 and -0.0 (and NaN) keep the
    # text fmt gives them; block sizes 3 and 7 leave a short last block
    if block is not None:
        monkeypatch.setattr("floquet_forge.cli.CSV_BLOCK", block)
    floats = np.array([0.5, -0.0, 0.0, np.nan, np.inf, -np.inf, 0.5, -0.0,
                       1 / 3, 0.0, 1e-300, -np.nan, 0.5, 2.0 ** 70, 0.1,
                       0.1, 3.0, -0.0, 0.0, -1 / 3, np.inf, 7.25])
    n = floats.size
    ints = np.arange(n) % 4 - 2
    columns = [ints, floats, np.zeros(n), np.arange(n, dtype=np.uint32),
               np.float32(floats)]
    header = ["i", "x", "zero", "u", "single"]
    em = Emitter(tmp_path, "test", {})
    path = em.write_csv("t.csv", header, columns)
    text = path.read_text()
    assert text == _naive_csv(header, columns)
    assert text.splitlines()[2:4] == ["-1,-0,0,1,-0", "0,0,0,2,0"]
    assert em.files == ["t.csv"]


_DEDUPE_TABLES = {
    # integers far apart, up to the int64 extremes
    "wide-int": [np.array([0, 1000, -5, 1000, 7, -5, 0]),
                 np.array([2 ** 62, -(2 ** 63), 2 ** 63 - 1, 3, 3, 0, 1])],
    # at and above 2**63, spread wide and packed close
    "uint64": [np.array([2 ** 63, 2 ** 64 - 1, 0, 2 ** 63, 2 ** 63 + 1],
                        dtype=np.uint64),
               np.uint64(2 ** 64 - 1)
               - np.array([0, 2, 1, 4, 0], dtype=np.uint64)],
    # every int8 value, and few values many times over
    "int8": [np.arange(-128, 128, dtype=np.int8)[::-1],
             np.int8(np.arange(256) % 201 - 100),
             np.int8(np.arange(256) % 7 - 3),
             np.arange(256) % 5 - 300],
    "one-row": [np.array([-4]), np.array([-0.0]), np.array([True])],
    "constant": [np.full(9, -3), np.full(9, 2.5), np.zeros(9, np.uint8)],
    "bool": [np.array([True, False, False, True, True]),
             np.array([False] * 5)],
}


@pytest.mark.parametrize("block", [None, 3, 7])
@pytest.mark.parametrize("table", sorted(_DEDUPE_TABLES))
def test_write_csv_dedupe_paths(tmp_path, monkeypatch, block, table):
    if block is not None:
        monkeypatch.setattr("floquet_forge.cli.CSV_BLOCK", block)
    columns = _DEDUPE_TABLES[table]
    header = [f"c{j}" for j in range(len(columns))]
    path = Emitter(tmp_path, "test", {}).write_csv("t.csv", header, columns)
    assert path.read_text() == _naive_csv(header, columns)


def test_write_csv_bool_text(tmp_path):
    path = Emitter(tmp_path, "test", {}).write_csv(
        "b.csv", ["flag", "n"], [np.array([True, False]), np.arange(2)])
    assert path.read_text() == "flag,n\ntrue,0\nfalse,1\n"


@pytest.mark.parametrize("header, columns, message", [
    (["a", "b"], [np.arange(2), np.arange(5)], "lengths [2, 5]"),
    (["a", "b"], [np.arange(5), np.arange(2)], "lengths [5, 2]"),
    (["a", "b", "c"], [np.arange(2), np.arange(2)],
     "3 header names for 2 columns"),
], ids=["longer", "shorter", "header"])
def test_write_csv_refuses_malformed_table(tmp_path, header, columns,
                                           message):
    em = Emitter(tmp_path, "test", {})
    with pytest.raises(ValueError, match=re.escape(message)):
        em.write_csv("bad.csv", header, columns)
    assert not (tmp_path / "bad.csv").exists()
    assert em.files == []


def test_write_csv_empty_table(tmp_path):
    em = Emitter(tmp_path, "test", {})
    path = em.write_csv("e.csv", ["j", "E_j"],
                        [np.arange(0), np.zeros(0)])
    assert path.read_text() == "j,E_j\n"


# ------------------------------------------------------ emitted content

def test_derive_dump_reconstructs_hop_coefficients(tmp_path):
    """Parse the term dump back into the analytic hopping coefficients."""
    cfg_text, _ = CONFIGS["derive-hamiltonian"]
    code, out = run_cli(tmp_path, "derive-hamiltonian", cfg_text)
    assert code == 0
    coeffs = {}
    for line in (out / "hamiltonian_terms.txt").read_text().splitlines():
        parts = line.split()
        coeffs[" ".join(parts[2:])] = complex(float(parts[0]),
                                              float(parts[1]))
    # J = 1, g = 3, omega = 12: bare hop renormalized by 1 - g^2/w^2
    bare = coeffs["Cdag(1,dn) C(2,dn)"]
    assert bare == pytest.approx(-(1 - Fraction(9, 144)), abs=1e-15)
    # density-assisted pieces carry C/2 each and the pair term carries -C
    c_half_a = coeffs["Cdag(1,dn) C(2,dn) N(1,up)"]
    c_half_b = coeffs["Cdag(1,dn) C(2,dn) N(2,up)"]
    pair = coeffs["Cdag(1,dn) C(2,dn) N(1,up) N(2,up)"]
    c = (c_half_a + c_half_b).real
    assert c == pytest.approx(1 / 120, abs=1e-15)
    assert c_half_a == c_half_b
    assert pair.real == pytest.approx(-c, abs=1e-15)
    # dump is sorted and every coefficient is finite and real here
    keys = [" ".join(l.split()[2:])
            for l in (out / "hamiltonian_terms.txt").read_text().splitlines()]
    assert keys == sorted(keys)
    assert all(v.imag == 0.0 for v in coeffs.values())


def test_bench_csv_layout_and_errors(tmp_path):
    cfg_text, _ = CONFIGS["bench-return-rate"]
    code, out = run_cli(tmp_path, "bench-return-rate", cfg_text)
    assert code == 0
    lines = (out / "return_rate.csv").read_text().splitlines()
    assert lines[0] == "t,L_exact,L_fswt,L_hfe"
    first = [float(v) for v in lines[1].split(",")]
    assert first[0] == 0.0
    assert first[1] == pytest.approx(1.0, abs=1e-12)
    data = np.array([[float(v) for v in ln.split(",")] for ln in lines[1:]])
    assert np.all(np.diff(data[:, 0]) > 0)
    assert np.all((data[:, 1:] > -1e-12) & (data[:, 1:] < 1 + 1e-12))
    errs = dict(ln.split(" = ") for ln in
                (out / "nrmse.txt").read_text().splitlines())
    assert set(errs) == {"fswt", "hfe"}
    assert 0 < float(errs["fswt"]) < float(errs["hfe"])


def test_exciton_output_value(tmp_path):
    cfg_text, _ = CONFIGS["exciton"]
    code, out = run_cli(tmp_path, "exciton", cfg_text)
    assert code == 0
    lines = (out / "exciton.txt").read_text().splitlines()
    assert lines[1] == "units = eV"
    w = float(lines[0].split(" = ")[1])
    assert w == pytest.approx(2.690824366621924, abs=1e-12)


def test_pomeranchuk_output_values(tmp_path):
    cfg_text, _ = CONFIGS["pomeranchuk"]
    code, out = run_cli(tmp_path, "pomeranchuk", cfg_text)
    assert code == 0
    vals = dict(ln.split(" = ") for ln in
                (out / "pomeranchuk.txt").read_text().splitlines())
    assert vals["triggered"] == "true"
    assert float(vals["lhs"]) == pytest.approx(0.007829443360326522,
                                               abs=1e-12)
    assert float(vals["rhs"]) == pytest.approx(0.007421817744253437,
                                               abs=1e-12)
    assert float(vals["eta"]) == pytest.approx(0.8898278162831761, abs=1e-12)


def test_kspace_map_gamma_point_value(tmp_path):
    from floquet_forge import BandGrid
    from floquet_forge.kspace import screened_detuning

    cfg_text, _ = CONFIGS["kspace-map"]
    code, out = run_cli(tmp_path, "kspace-map", cfg_text)
    assert code == 0
    lines = (out / "kspace_map.csv").read_text().splitlines()
    assert lines[0] == "kx,ky,value"
    assert len(lines) == 1 + 16 * 16
    grid = BandGrid.square(16, 16, 3.7, 0.05, -0.15, 1.6, 0.8)
    ref = screened_detuning(grid, 2.5)
    row = dict()
    for ln in lines[1:]:
        kx, ky, v = (float(x) for x in ln.split(","))
        row[(kx, ky)] = v
    assert row[(0.0, 0.0)] == pytest.approx(ref[8, 8], abs=1e-14)


def test_kspace_map_dressed_band_matches_floquet_band(tmp_path):
    from floquet_forge import BandGrid
    from floquet_forge.kspace import floquet_band

    code, out = run_cli(tmp_path, "kspace-map",
                        _edited("kspace-map", quantity="dressed", g=0.1))
    assert code == 0
    grid = BandGrid.square(16, 16, 3.7, 0.05, -0.15, 1.6, 0.8)
    band = floquet_band(grid, 2.5, 0.1)
    key, t_tilde = (out / "dressed_band.txt").read_text().split(" = ")
    assert key == "t_tilde" and float(t_tilde) == band["t_tilde"]
    lines = (out / "kspace_map.csv").read_text().splitlines()
    assert lines[0] == "kx,ky,value"
    data = np.array([[float(v) for v in ln.split(",")] for ln in lines[1:]])
    kx, ky = np.meshgrid(grid.kx, grid.ky, indexing="ij")
    assert np.array_equal(data, np.column_stack(
        [kx.ravel(), ky.ravel(), band["eps_tilde"].ravel()]))


@pytest.mark.parametrize("scenario", ["exciton", "kspace-map"])
def test_kf_past_the_zone_runs_as_any_emptying_kf(tmp_path, scenario):
    # kF ** 2 used to escape as OverflowError at kF = 1e200; every kF above
    # the grid's largest |k|, pi sqrt(2), empties the band alike
    (code_a, out_a), (code_b, out_b) = (
        run_cli(tmp_path, scenario, _edited(scenario, kF=kf), name=kf)
        for kf in ("1e100", "1e200"))
    assert code_a == code_b
    names = sorted(p.name for p in out_a.glob("*"))
    assert names == sorted(p.name for p in out_b.glob("*"))
    for name in names:
        if name == "manifest.txt":
            man_a, man_b = read_manifest(out_a), read_manifest(out_b)
            del man_a["input.kF"], man_b["input.kF"]
            assert man_a == man_b
        else:
            assert (out_a / name).read_bytes() == (out_b / name).read_bytes()


def test_absorbance_peak_on_flat_chain(tmp_path):
    cfg_text, _ = CONFIGS["absorbance-ed"]
    code, out = run_cli(tmp_path, "absorbance-ed", cfg_text)
    assert code == 0
    lines = (out / "spectrum.csv").read_text().splitlines()
    assert lines[0] == "omega,alpha"
    assert len(lines) == 1 + 81
    data = np.array([[float(v) for v in ln.split(",")] for ln in lines[1:]])
    # flat bands put the single bright line at eps21 - U11 + U12 = 2.9
    assert data[np.argmax(data[:, 1]), 0] == pytest.approx(2.9, abs=1e-12)


def test_gamma_scan_outputs(tmp_path):
    cfg_text, _ = CONFIGS["gamma-scan"]
    code, out = run_cli(tmp_path, "gamma-scan", cfg_text)
    assert code == 0
    glines = (out / "gamma_matrix.csv").read_text().splitlines()
    assert glines[0] == "k_index,k1_index,re,im"
    assert len(glines) == 1 + 36 * 36
    assert all(ln.rsplit(",", 1)[1] == "0" for ln in glines[1:])
    elines = (out / "eigen.csv").read_text().splitlines()
    assert elines[0] == "j,E_j"
    energies = np.array([float(ln.split(",")[1]) for ln in elines[1:]])
    assert energies.size == 36
    assert np.all(np.diff(energies) >= -1e-12)


def _scan_config(shape, u, k, q, omega):
    return (f"units = eV\nNx = {shape[0]}\nNy = {shape[1]}\n{PAPER_BANDS}"
            f"omega = {omega}\nU_coulomb = {u}\n"
            f"kx_index = {k[0]}\nky_index = {k[1]}\n"
            f"qx_index = {q[0]}\nqy_index = {q[1]}\n")


def _dense_vertex_csv(shape, u, k, q, omega):
    # what the generic CSV writer made of gamma_matrix's dense vertex
    from floquet_forge import BandGrid
    from floquet_forge.gamma import constant_profile, gamma_matrix

    grid = BandGrid.square(*shape, eps21=3.7, t1=0.05, t2=-0.15, U11=1.6,
                           U12=0.8)
    m = gamma_matrix(grid, constant_profile(grid, u), k, q, omega).matrix
    idx = np.arange(len(m))
    return _naive_csv(["k_index", "k1_index", "re", "im"],
                      [np.repeat(idx, len(m)), np.tile(idx, len(m)),
                       m.ravel(), np.zeros(m.size, dtype=int)])


@pytest.mark.parametrize("u", [1.6, 0.0, -0.8])
@pytest.mark.parametrize("shape", [(1, 1), (5, 1), (6, 6)])
def test_gamma_scan_matrix_is_the_dense_vertex(tmp_path, shape, u):
    # gamma-scan streams diag(a) + c (11^T - I) row by row; its bytes are
    # those of the dense vertex through the generic writer
    for i, (k, q, omega) in enumerate([((0, 0), (0, 0), 3.63),
                                       ((3, 5), (2, 7), 1.8),
                                       ((4, 1), (1, 3), 2.4)]):
        code, out = run_cli(tmp_path, "gamma-scan",
                            _scan_config(shape, u, k, q, omega), name=f"p{i}")
        assert code == 0
        assert (out / "gamma_matrix.csv").read_text() == \
            _dense_vertex_csv(shape, u, k, q, omega)


def test_gamma_scan_prints_a_zero_diagonal_as_the_dense_vertex(tmp_path,
                                                               monkeypatch):
    # the dense vertex adds the diagonal to a zero fill, so a -0.0 there
    # prints 0; the streamed rows must too
    from floquet_forge import gamma

    diagonal = gamma._vertex_diagonal

    def signed_zeros(*args):
        a = diagonal(*args)
        a[..., ::2] = -0.0
        return a

    monkeypatch.setattr(gamma, "_vertex_diagonal", signed_zeros)
    args = ((6, 6), 1.6, (3, 3), (1, 0), 3.63)
    code, out = run_cli(tmp_path, "gamma-scan", _scan_config(*args))
    assert code == 0
    text = (out / "gamma_matrix.csv").read_text()
    assert text == _dense_vertex_csv(*args)
    assert "0,0,0,0\n" in text and ",-0," not in text


def test_gamma_scan_never_builds_the_dense_vertex(tmp_path, monkeypatch):
    from floquet_forge import gamma

    def no_dense(*args, **kwargs):
        raise AssertionError("gamma-scan built the dense vertex")

    monkeypatch.setattr(gamma, "gamma_matrix", no_dense)
    code, out = run_cli(tmp_path, "gamma-scan", CONFIGS["gamma-scan"][0])
    assert code == 0
    assert (out / "gamma_matrix.csv").stat().st_size > 0


def test_gamma_scan_failed_root_exits_2(tmp_path, monkeypatch, capsys):
    # a root of the vertex's secular equation that LAPACK does not find
    # leaves through exit code 2, naming it, before any file is written
    from floquet_forge import kernels

    def failing(i, d, z, rho):
        return d, np.nan, d, 1

    monkeypatch.setattr(kernels, "dlasd4", failing)
    code, out = run_cli(tmp_path, "gamma-scan", CONFIGS["gamma-scan"][0])
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith("physics error: ") and "dlasd4 info=1" in err
    assert not (out / "gamma_matrix.csv").exists()
    assert not (out / "eigen.csv").exists()


@pytest.mark.parametrize("profile", ["valley-dip", "phase-winding"])
def test_gamma_scan_coupling_profile_exits_1(tmp_path, monkeypatch, capsys,
                                             profile):
    # the vertex reads V_q alone, so a coupling profile would change no
    # emitted byte; the run refuses before building the grid
    def no_grid(*args, **kwargs):
        raise AssertionError("grid built for a coupling profile")

    monkeypatch.setattr("floquet_forge.cli._grid_from_cfg", no_grid)
    cfg_text = CONFIGS["gamma-scan"][0].replace("profile = constant",
                                                f"profile = {profile}")
    code, out = run_cli(tmp_path, "gamma-scan", cfg_text)
    assert code == 1
    err = capsys.readouterr().err
    assert "config error" in err and "not the vertex" in err
    assert not (out / "gamma_matrix.csv").exists()


def test_gamma_scan_unknown_profile_exits_1(tmp_path, capsys):
    code, _ = run_cli(tmp_path, "gamma-scan",
                      f"units = eV\nNx = 6\nNy = 6\n{PAPER_BANDS}"
                      "omega = 3.63\nU_coulomb = 1.6\nprofile = fancy\n")
    assert code == 1
    assert "profile" in capsys.readouterr().err


def test_strong_drive_outputs(tmp_path):
    cfg_text, _ = CONFIGS["strong-drive"]
    code, out = run_cli(tmp_path, "strong-drive", cfg_text)
    assert code == 0
    text = (out / "harmonics.txt").read_text()
    assert "# static" in text
    for m in range(-6, 7):
        assert f"# harmonic {m}" in text
    # static block is the bare interaction ladder
    assert "40 0 N(1,up) N(1,dn)" in text
    trunc = float((out / "truncation.txt").read_text().split(" = ")[1])
    assert 0 <= trunc < 1e-10
