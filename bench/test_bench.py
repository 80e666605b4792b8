"""The benchmark's own tests; run with ``python -m pytest bench`` (not part of tests/)."""

import json
import math
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from scipy.linalg import hadamard

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(ROOT / "src"))

import checks  # noqa: E402
from tracer import per_layer_units  # noqa: E402
from whqrom import molham, qrom, wht  # noqa: E402


@pytest.mark.parametrize("eta", range(0, 7))
def test_fwht_matches_hadamard_matrix(eta):
    rng = np.random.default_rng(eta)
    v = rng.integers(-1000, 1000, size=1 << eta)
    assert np.array_equal(checks.fwht(v), hadamard(1 << eta, dtype=np.int64) @ v)


def test_magnitude_order_breaks_ties_toward_smaller_mask():
    coeffs = np.array([3, -5, 5, 0, -3, 1])
    assert checks.magnitude_order(coeffs).tolist() == [1, 2, 0, 4, 5, 3]


@pytest.mark.parametrize("eta,d", [(6, 2), (7, 1), (8, 2), (10, 2), (10, 8)])
def test_lambda_scan_matches_closed_form_optimum(eta, d):
    # here sqrt(2**eta / 2d) is an integer dividing 2**eta, so the smooth
    # optimum lambda* and its cost 2 sqrt(2 d 2**eta) are exact
    n = 1 << eta
    lam_star = math.isqrt(n // (2 * d))
    lam, toffoli = checks.best_lambda(eta, d, np.arange(1, n + 1))
    assert (lam, toffoli) == (lam_star, 2 * math.isqrt(2 * d * n))


def _small_table(eta=8, seed=3):
    rng = np.random.default_rng(seed)
    x = np.linspace(0, 1, 1 << eta, endpoint=False)
    theta = 0.4 * np.cos(2 * np.pi * x) + 0.05 * rng.uniform(-1, 1, size=x.shape)
    return wht.quantize(theta, 12)


def test_truncation_check_accepts_program_k_and_rejects_one_short():
    f = _small_table()
    eps = 2.0**-6
    k = wht.minimal_truncation(f, eps).k
    trunc = checks.Truncation(f.values, f.d)
    trunc.check_minimal(k, eps, "program")
    with pytest.raises(checks.CheckError):
        trunc.check_minimal(k - 1, eps, "one short")
    with pytest.raises(checks.CheckError):
        trunc.check_minimal(k + 1, eps, "one long")


def test_simulation_check_rejects_one_flipped_bit():
    f = _small_table()
    spec = wht.minimal_truncation(f, 2.0**-8)
    circuit = qrom.pair_cancel(qrom.synthesize(spec), spec)
    b = spec.base.b
    table = qrom.simulate_table(circuit, 77)
    nums = checks.Truncation(f.values, f.d).numerators(spec.k)
    checks.check_simulation(table, nums, 77, b, "program")
    corrupted = table.copy()
    corrupted[5] ^= 1 << 3
    with pytest.raises(checks.CheckError):
        checks.check_simulation(corrupted, nums, 77, b, "flipped")


def test_unitary_check_rejects_wrong_target():
    from whqrom import blockenc

    d = np.linspace(-0.9, 0.8, 8)
    result = blockenc.dsparse_fused_diagonal(d)
    checks.check_unitary_encoding(result.unitary, result.zeta, np.diag(d), "program")
    with pytest.raises(checks.CheckError):
        checks.check_unitary_encoding(result.unitary, result.zeta, np.diag(d + 1e-6), "shifted")


def test_molham_check_rejects_zeta_below_radius(tmp_path):
    from whqrom.cli import main

    spec = molham.water_spec(n_r=4, n_theta=4)
    path = tmp_path / "spec.yaml"
    path.write_text(
        "basis_sizes: [4, 4, 4]\n"
        f"masses_da: {list(spec.masses_da)}\nfreqs_cm: {list(spec.freqs_cm)}\n"
        f"r0_angstrom: {spec.r0_angstrom!r}\ncoupling_mass_da: {spec.coupling_mass_da!r}\n"
        f"bend_center_u: {spec.bend_center_u!r}\n"
    )
    assert main(["--out", str(tmp_path), "molham", "--config", str(path), "--backend", "WH"]) == 0
    report = json.loads((tmp_path / "molham.json").read_text())
    system = molham.water_hamiltonian(spec)
    op = checks.kron_operator(system.terms, system.dims)
    radius = checks.spectral_radius(op)
    levels = checks.lowest_levels(op, 8)
    levels_cm = (levels - levels[0]) * checks.CM1_PER_HARTREE
    dense = np.linalg.eigvalsh(molham.assemble_dense(system.terms, system.dims))
    assert radius == pytest.approx(np.max(np.abs(dense)), rel=1e-9)
    checks.check_molham_report(report, radius, levels_cm, 1.0, "program")
    low = json.loads(json.dumps(report))
    low["strategies"][0]["norm"]["totalAu"] = 0.99 * radius
    with pytest.raises(checks.CheckError):
        checks.check_molham_report(low, radius, levels_cm, 1.0, "low zeta")
    off = json.loads(json.dumps(report))
    off["strategies"][1]["qpe"]["tCount"] += 1
    with pytest.raises(checks.CheckError):
        checks.check_molham_report(off, radius, levels_cm, 1.0, "qpe")


def test_t_matrix_check_rejects_perturbed_csv(tmp_path):
    from whqrom import dvr

    t = dvr.build_transform(dvr.gauss_quadrature("legendre", 8)).matrix
    good = tmp_path / "t.csv"
    dvr.export_matrix_csv(t, good)
    checks.check_t_matrix_csv(good, 8, "program")
    bad = tmp_path / "bad.csv"
    perturbed = t.copy()
    perturbed[2, 3] += 1e-6
    dvr.export_matrix_csv(perturbed, bad)
    with pytest.raises(checks.CheckError):
        checks.check_t_matrix_csv(bad, 8, "perturbed")


@pytest.mark.parametrize("workload", ["tables", "verify", "molecule"])
@pytest.mark.parametrize("trace", [0, 1])
def test_smoke_run_reaches_its_end(workload, trace):
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", "5",
           "--seconds", "1", "--trace", str(trace), "--smoke"]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] > 0
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [m["name"] for m in spec["end_to_end" if trace == 0 else "per_layer"]]
    assert sorted(result["metrics"]) == sorted(names)
    if trace:
        assert {n: result["metrics"][n]["unit"] for n in names} == per_layer_units()
    else:
        assert all(result["metrics"][n]["value"] > 0 for n in names)
