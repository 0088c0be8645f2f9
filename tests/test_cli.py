"""End-to-end checks of the scenario runner.

Each scenario runs in-process through ``cli.main`` against a small config,
then the emitted files and the manifest are inspected.  Determinism is
checked byte-for-byte, including under Python-level sharding.
"""

import hashlib
import inspect
from fractions import Fraction

import numpy as np
import pytest

from floquet_forge.cli import RUNNERS, main

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
        "omega = 3.63\nU_coulomb = 1.6\nprofile = phase-winding\n"
        "width = 0.6\nKx = 3\nKy = 3\nKpx = 0\nKpy = 0\n"
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


def test_sharding_does_not_change_bytes(tmp_path):
    cfg_text, expected = CONFIGS["bench-return-rate"]
    cfg = tmp_path / "run.cfg"
    cfg.write_text(cfg_text)
    out1, out4 = tmp_path / "t1", tmp_path / "t4"
    assert main(["bench-return-rate", "--config", str(cfg),
                 "--out", str(out1), "--threads", "1"]) == 0
    assert main(["bench-return-rate", "--config", str(cfg),
                 "--out", str(out4), "--threads", "4"]) == 0
    for name in expected + ["manifest.txt"]:
        assert (out1 / name).read_bytes() == (out4 / name).read_bytes()


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


def test_propagation_failure_exits_2(tmp_path, capsys):
    # an unreachable Lanczos tolerance exhausts the Krylov subspace on every
    # step halving; the failure must reach exit code 2, not a traceback
    code, _ = run_cli(tmp_path, "bench-return-rate",
                      "units = J\nL = 6\nU = 3.0\ng = 3.0\nomega = 12.0\n"
                      "t_final = 0.5\ntolerance = 1e-300\n")
    assert code == 2
    assert "physics error" in capsys.readouterr().err


@pytest.mark.parametrize("timing", [
    "dt = 0.0", "dt = -0.1", "t_final = inf", "sample_dt = inf",
    "sample_dt = -0.5", "sample_dt = 0.0", "tolerance = -1.0",
    "tolerance = 0.0",
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


def test_bad_thread_env_exits_1(tmp_path, monkeypatch, capsys):
    monkeypatch.setenv("FF_THREADS", "lots")
    code = main(["exciton", "--config", str(tmp_path / "ignored.cfg")])
    assert code == 1
    assert "FF_THREADS" in capsys.readouterr().err


def test_nonpositive_threads_exits_1(tmp_path, capsys):
    cfg = tmp_path / "c.cfg"
    cfg.write_text(CONFIGS["exciton"][0])
    code = main(["exciton", "--config", str(cfg), "--threads", "0"])
    assert code == 1
    assert "thread count" in capsys.readouterr().err


def test_only_the_benchmark_runner_takes_threads():
    # --threads shards bench-return-rate's candidates; every other runner
    # would ignore a thread count, so none takes one
    for scenario, run in RUNNERS.items():
        if scenario != "bench-return-rate":
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


def test_strong_drive_jmax_above_cap_exits_1(tmp_path, capsys):
    cfg_text = CONFIGS["strong-drive"][0].replace("jmax = 6", "jmax = 1025")
    code, out = run_cli(tmp_path, "strong-drive", cfg_text)
    assert code == 1
    err = capsys.readouterr().err
    assert "config error" in err and "1024" in err
    assert not (out / "harmonics.txt").exists()


def test_usage_errors_exit_1(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["no-such-scenario", "--config", "x.cfg"])
    assert exc.value.code == 1
    with pytest.raises(SystemExit) as exc:
        main(["exciton"])  # --config is mandatory
    assert exc.value.code == 1
    capsys.readouterr()


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
