"""Acceptance suite: one test per release criterion, one verdict line each.

Run with ``pytest tests/test_acceptance.py -v -s`` to see every verdict.
Each test prints ``criterion NN: PASS/FAIL - detail`` before asserting, so
the table survives in the captured output either way.  Criterion 01 states
hard numeric targets for the return-rate mismatch ratios that the faithful
implementation does not reach at every listed frequency; it is kept as
stated rather than loosened, and its failure is documented in the project
notes.
"""

import time

import numpy as np
import pytest
import scipy.special

from floquet_forge import (CavitySpec, HubbardParams, SparseOperator,
                           build_hubbard_operators, build_sector_basis,
                           hubbard_micromotion, sylvester_residual)
from floquet_forge.dynamics import (absorbance_ed, dipole_excitations,
                                    return_rate_benchmark)
from floquet_forge.fock import TwoBandChainParams
from floquet_forge.fswt import (floquet_h2, floquet_h4, hfe_h, spin_exchange,
                                strong_drive_harmonics)
from floquet_forge.gamma import (coulomb_mix_selfenergy, constant_profile,
                                 eigen_sign_analysis, mf_gamma_matrix,
                                 mf_screened_denominator,
                                 phase_winding_profile, scattering_strength,
                                 series_vs_inverse, valley_dip_profile)
from floquet_forge.kspace import (BandGrid, _hartree_detuning, bare_detuning,
                                  exciton_frequency, pomeranchuk_check,
                                  screened_detuning, t_matrix)
from floquet_forge.sylvester import (HopExpansionCoeffs, y0_terms, y1_terms,
                                     y2_terms)

from oracles.dense_fermi import sylvester_dense

PAPER = dict(eps21=3.7, t1=0.05, t2=-0.15, U11=1.6, U12=0.8)


def _verdict(num, ok, detail):
    print(f"criterion {num:02d}: {'PASS' if ok else 'FAIL'} - {detail}")
    return ok


def _chain_nrmse(omega, t_final=60.0):
    """Return-rate mismatch of both effective Hamiltonians at L=6, U=3J."""
    p = HubbardParams(L=6, J=1.0, U=3.0, g=omega / 4.0, omega=omega)
    b = build_sector_basis(6, 3, 3)
    hams = {"fswt": floquet_h2(p, b, include_J2=True),
            "hfe": hfe_h(p, b)}
    return return_rate_benchmark(p, b, hams, t_final=t_final)["nrmse"]


def test_criterion_01_return_rate_ratios():
    t0 = time.perf_counter()
    table = {w: _chain_nrmse(float(w)) for w in (9, 10, 12, 14, 16, 20)}
    wall = time.perf_counter() - t0
    print(f"\n{'omega/J':>8} {'fswt':>10} {'hfe':>10} {'ratio':>8}")
    for w, err in table.items():
        print(f"{w:>8} {err['fswt']:>10.6f} {err['hfe']:>10.6f} "
              f"{err['fswt'] / err['hfe']:>8.4f}")
    ratio_ok = all(e["fswt"] <= 0.25 * e["hfe"] for e in table.values())
    level_ok = all(table[w]["fswt"] <= 0.05 for w in (12, 14, 16, 20))
    time_ok = wall <= 600.0
    ok = ratio_ok and level_ok and time_ok
    _verdict(1, ok, f"ratio<=0.25 {ratio_ok}, fswt<=0.05 above 12J "
                    f"{level_ok}, wall {wall:.1f}s<=600s {time_ok}")
    assert ok


def test_criterion_02_mismatch_at_charge_resonance_shoulder():
    err = _chain_nrmse(8.5)["fswt"]
    ok = 0.1 <= err <= 0.3
    _verdict(2, ok, f"fswt mismatch at omega=8.5J is {err:.6f}, "
                    f"required within [0.1, 0.3]")
    assert ok


def test_criterion_03_exciton_frequency_and_runtime():
    t0 = time.perf_counter()
    grid = BandGrid.square(64, 64, **PAPER)
    w = exciton_frequency(grid)
    wall = time.perf_counter() - t0
    ok = abs(w - 2.71) <= 0.02 and wall <= 1.0
    _verdict(3, ok, f"omega_ex = {w:.6f} eV (target 2.71 +- 0.02), "
                    f"wall {wall * 1e3:.0f} ms <= 1 s")
    assert ok


def test_criterion_04_free_limit_and_strong_drive():
    # order-g^4 hopping correction with the interaction switched off
    p = HubbardParams(L=4, J=1.0, U=0.0, g=3.0, omega=12.0)
    b = build_sector_basis(4, 1, 0)
    h4 = floquet_h4(p, b).to_dense()
    hop = -h4[b.position(1 << 2), b.position(1 << 1)].real
    target = 3.0 ** 4 / (4.0 * 12.0 ** 4)
    free_ok = abs(hop - target) <= 1e-12
    # zeroth harmonic of the strong-drive expansion is Bessel-weighted
    sd = strong_drive_harmonics(
        HubbardParams(L=2, J=1.0, U=0.0, g=3.0, omega=12.0), jmax=12)
    b2 = build_sector_basis(2, 1, 0)
    m0 = sd[1][0].to_operator(b2).to_dense()
    coef = m0[b2.position(2), b2.position(1)].real
    bessel_ok = abs(coef + scipy.special.j0(0.5)) <= 1e-12
    ok = free_ok and bessel_ok
    _verdict(4, ok, f"g^4 hop dev {abs(hop - target):.2e}, "
                    f"J0 dev {abs(coef + scipy.special.j0(0.5)):.2e}")
    assert ok


def test_criterion_05_dimer_exchange_gap():
    p = HubbardParams(L=2, J=1.0, U=40.0, g=3.0, omega=12.0)
    b = build_sector_basis(2, 1, 1)
    ev = np.linalg.eigvalsh(floquet_h2(p, b).to_dense())
    gap = ev[1] - ev[0]
    jex = spin_exchange(p.U, p.J, p.g, p.omega)
    rel = abs(gap - jex) / jex
    ok = rel <= 0.10
    _verdict(5, ok, f"singlet-triplet gap {gap:.8f} vs exchange "
                    f"{jex:.8f}, rel dev {rel:.4f} <= 0.10")
    assert ok


def test_criterion_06_screened_detuning_and_vertex_checks():
    grid = BandGrid.square(64, 64, **PAPER)
    rng = np.random.default_rng(20240817)
    # (a) ladder identity Delta * T = A at 50 random frequencies
    hartree = (2.0 * grid.U12 - grid.U11) * grid.nu
    dev_a = 0.0
    for w in rng.uniform(0.5, 2.5, size=50):
        A = bare_detuning(grid, w) + hartree
        lhs = screened_detuning(grid, w) * t_matrix(grid, w)
        dev_a = max(dev_a, float(np.abs(lhs - A).max() / np.abs(A).max()))
    a_ok = dev_a <= 1e-12
    # (b) screened detuning at the zone center changes sign exactly once
    vals = [screened_detuning(grid, w)[32, 32]
            for w in np.linspace(0.5, 2.9 - 1e-3, 400)]
    flips = int(np.sum(np.diff(np.sign(vals)) != 0))
    b_ok = flips == 1
    # (c) geometric series against the exact inverse while contractive
    chain = BandGrid.square(8, 1, **PAPER)
    prof = constant_profile(chain, 0.5)
    out = series_vs_inverse(chain, prof, (0, 0), (0, 0), 3.9)
    c_ok = out["rho"] <= 0.9 and out["max_dev"] <= 1e-8
    # (d) vertex-inverted denominator approaches the single-mode one
    gaps = {}
    for n in (16, 32):
        gd = BandGrid.square(n, n, eps21=3.7, t1=0.05, t2=-0.15,
                             U11=0.8, U12=0.8)
        pd = constant_profile(gd, 0.8)
        dkf = mf_screened_denominator(gd, pd, 2.0)
        gaps[n] = float(np.abs(dkf[0] + screened_detuning(gd, 2.0)).max())
    d_ok = gaps[32] <= 0.5 * gaps[16] + 1e-12
    # (e) vertex symmetry and eigenvector completeness
    g6 = BandGrid.square(6, 6, **PAPER)
    gm = mf_gamma_matrix(g6, constant_profile(g6, 1.6), 3.63)
    sym = float(np.abs(gm.matrix - gm.matrix.T).max())
    v = eigen_sign_analysis(gm)["vectors"]
    comp = float(np.abs(v @ v.T - np.eye(v.shape[0])).max())
    e_ok = sym <= 1e-10 and comp <= 1e-10
    ok = a_ok and b_ok and c_ok and d_ok and e_ok
    _verdict(6, ok, f"ladder dev {dev_a:.1e}, flips {flips}, series dev "
                    f"{out['max_dev']:.1e} at rho {out['rho']:.3f}, gap "
                    f"{gaps[16]:.1e}->{gaps[32]:.1e}, sym {sym:.1e}, "
                    f"completeness {comp:.1e}")
    assert ok


def test_criterion_07_sylvester_solver_checks():
    p = HubbardParams(L=4, J=1.0, U=3.0, g=3.0, omega=12.0)
    b = build_sector_basis(4, 2, 1)
    ops = build_hubbard_operators(p, b)
    h0 = ops["h"] + ops["U_op"]
    # (a) the package's residual vanishes on an independent dense solve
    f = SparseOperator(sylvester_dense(h0.to_dense(), ops["drive"].to_dense(),
                                       p.omega))
    resid = sylvester_residual(f, h0, ops["drive"], p.omega)
    a_ok = resid <= 1e-10 * ops["drive"].fro_norm()
    # (b) truncation residual scales as (J/omega)^(m+1)
    ratios = {}
    for m in (0, 1, 2):
        res = {}
        for J in (0.6, 0.3):
            pj = HubbardParams(L=4, J=J, U=3.0, g=3.0, omega=12.0)
            oj = build_hubbard_operators(pj, b)
            c = HopExpansionCoeffs.from_model(pj.U, pj.omega)
            y = [y0_terms(pj), y1_terms(pj, c), y2_terms(pj, c)]
            f11 = sum(y[1:m + 1], y[0]).to_operator(b)
            res[J] = sylvester_residual(f11, oj["h"] + oj["U_op"],
                                        oj["drive"], pj.omega)
        ratios[m] = res[0.6] / res[0.3]
    b_ok = all(abs(ratios[m] - 2.0 ** (m + 1)) <= 0.2 * 2.0 ** (m + 1)
               for m in (0, 1, 2))
    # (c) micro-motion harmonics pair anti-Hermitianly
    mm = hubbard_micromotion(p, b)
    dev_c = max(float((mm[(n, -j)] + op.dagger()).max_abs())
                / max(float(op.max_abs()), 1.0)
                for (n, j), op in mm.items())
    c_ok = dev_c <= 1e-12
    ok = a_ok and b_ok and c_ok
    _verdict(7, ok, f"residual {resid:.1e}, scaling ratios "
                    f"{[round(ratios[m], 3) for m in (0, 1, 2)]} vs [2,4,8], "
                    f"pairing dev {dev_c:.1e}")
    assert ok


def test_criterion_08_absorbance_peaks():
    gamma = 0.05
    # flat bands: one bright line exactly at eps21 - U11 + U12
    flat = TwoBandChainParams(L=3, eps21=3.7, t1=0.0, t2=0.0,
                              U11=1.6, U12=0.8)
    de, wgt = dipole_excitations(flat)
    bright = np.unique(np.round(de[wgt > 1e-10], 10))
    single = bright.size == 1
    wgrid = np.linspace(2.5, 3.3, 801)
    peak = wgrid[np.argmax(absorbance_ed(flat, wgrid, gamma))]
    flat_ok = single and abs(peak - 2.9) <= gamma
    # dispersive chain: lowest bright line against the zone-sampled pole
    # plus the mean-field level shift calibrated with U12 switched off
    disp = TwoBandChainParams(L=3, **PAPER)
    de_d, wgt_d = dipole_excitations(disp)
    line = de_d[de_d > 1e-9].min()
    root = exciton_frequency(BandGrid.square(3, 1, **PAPER))
    p0 = TwoBandChainParams(L=3, eps21=3.7, t1=0.05, t2=-0.15,
                            U11=1.6, U12=0.0)
    de_0, _ = dipole_excitations(p0)
    grid0 = BandGrid.square(3, 1, eps21=3.7, t1=0.05, t2=-0.15,
                            U11=1.6, U12=0.0)
    offset = de_0[de_0 > 1e-9].min() - float(_hartree_detuning(grid0,
                                                               0.0).min())
    gamma_d = 0.1
    disp_ok = abs(line - (root + offset)) <= gamma_d
    ok = flat_ok and disp_ok
    _verdict(8, ok, f"flat line at {peak:.4f} (target 2.9 +- {gamma}), "
                    f"dispersive line {line:.4f} vs root+offset "
                    f"{root + offset:.4f} +- {gamma_d}")
    assert ok


def test_criterion_09_winding_kills_coulomb_mixing():
    grid = BandGrid.square(6, 6, **PAPER)
    assert grid.U12 > 0
    dip = valley_dip_profile(grid, 1.6, (3, 3), 0.6)
    wind = phase_winding_profile(grid, 1.6, (3, 3), (0, 0), 0.6)
    jk_zero = dip.Jcoupling[0][3, 3] == 0.0 \
        and wind.Jcoupling[0][3, 3] == 0.0
    # local drive shift at K carries a factor J_K and drops identically
    kterm = scattering_strength(grid, dip, 0.02, 3.63, (3, 3), (3, 3),
                                (0, 0))
    stark = (kterm * np.conj(dip.Jcoupling[0][3, 3])).real
    plain = coulomb_mix_selfenergy(grid, dip, 0.02, 3.63, (3, 3))
    wound = coulomb_mix_selfenergy(grid, wind, 0.02, 3.63, (3, 3))
    ok = jk_zero and stark == 0.0 and abs(plain) > 0 \
        and abs(wound) < abs(plain)
    _verdict(9, ok, f"J_K = 0 {jk_zero}, local shift {stark}, mixing "
                    f"{plain:.6f} -> {wound:.6f} under winding")
    assert ok


def test_criterion_10_pomeranchuk_trigger():
    grid = BandGrid.square(64, 64, **PAPER, kF=np.pi / 30)
    omega = 2.5535260858801344
    cav_on = CavitySpec(g=0.05, gc0=0.1, delta_c=0.25)
    on = pomeranchuk_check(grid, cav_on, omega)
    cav_off = CavitySpec(g=0.05, gc0=0.0, delta_c=0.25)
    off = pomeranchuk_check(grid, cav_off, omega)
    ok = on["triggered"] and on["lhs"] > on["rhs"] \
        and not off["triggered"] and off["lhs"] == 0.0
    _verdict(10, ok, f"driven cavity lhs {on['lhs']:.6f} > rhs "
                     f"{on['rhs']:.6f}; undriven lhs {off['lhs']} "
                     f"triggered {off['triggered']}")
    assert ok
