"""Acceptance suite: one test per exit criterion, each printing a verdict.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines; every tolerance is pinned here, not deferred to fixtures.
"""

import json
import math
import time

import numpy as np
import pytest
from scipy.linalg import eigh

from whqrom import baseline, blockenc, dvr, molham, qrom, synthetic, wht
from whqrom.cli import main as cli_main


def report(num, text):
    print(f"[acceptance {num:02d}] PASS  {text}")


def random_function(rng, eta, d):
    half = 1 << (d - 1)
    values = rng.integers(-half, half, size=1 << eta, dtype=np.int64)
    return wht.SampledFunction(eta=eta, d=d, values=values)


def test_01_wht_involution():
    # 1000 random tables, eta <= 12: forward twice equals 2**eta * f
    start = time.perf_counter()
    rng = np.random.default_rng(1001)
    from whqrom.wht import _butterfly

    for trial in range(1000):
        eta = int(rng.integers(0, 13)) if trial % 10 else 12
        d = int(rng.integers(1, 11))
        f = random_function(rng, eta, d)
        twice = _butterfly(_butterfly(f.values))
        assert np.array_equal(twice, np.asarray(f.values) << eta)
    elapsed = time.perf_counter() - start
    assert elapsed < 5.0, f"involution sweep took {elapsed:.2f}s"
    report(1, f"1000 involutions exact, {elapsed:.2f}s < 5s")


def test_02_qrom_functional_correctness():
    # 50 random theta, eta <= 10, d <= 10, both epsilon targets: exhaustive
    # simulate matches y + 2**eta g(x), and diag_error(f, g) < epsilon
    start = time.perf_counter()
    rng = np.random.default_rng(1002)
    for trial in range(50):
        eta = int(rng.integers(2, 11))
        d = int(rng.integers(2, 11))
        theta = rng.uniform(-1, 1, size=1 << eta)
        f = wht.quantize(theta, d)
        for epsilon in (2.0**-6, 2.0**-10):
            trunc = wht.minimal_truncation(f, epsilon)
            circuit = qrom.synthesize(trunc)
            b = eta + d
            y0 = int(rng.integers(0, 1 << b))
            table = qrom.simulate_table(circuit, y0)
            expected = (y0 + trunc.reconstruction_numerators()) % (1 << b)
            assert np.array_equal(table, expected)
            assert trunc.error(f) < epsilon
    elapsed = time.perf_counter() - start
    assert elapsed < 60.0, f"functional sweep took {elapsed:.2f}s"
    report(2, f"50 tables x 2 epsilons exhaustively correct, {elapsed:.1f}s < 60s")


def test_03_optimization_safety():
    rng = np.random.default_rng(1003)
    for _ in range(20):
        eta = int(rng.integers(2, 11))
        d = int(rng.integers(2, 9))
        theta = rng.uniform(-1, 1, size=1 << eta)
        f = wht.quantize(theta, d)
        trunc = wht.minimal_truncation(f, 2.0**-6)
        magnitude = qrom.synthesize(trunc, qrom.Ordering.MAGNITUDE_DESCENDING)
        gray = qrom.synthesize(trunc, qrom.Ordering.GRAY_CODE)
        cancelled = qrom.pair_cancel(gray, trunc)
        y0 = int(rng.integers(0, 1 << (eta + d)))
        base_table = qrom.simulate_table(magnitude, y0)
        assert np.array_equal(base_table, qrom.simulate_table(gray, y0))
        assert np.array_equal(base_table, qrom.simulate_table(cancelled, y0))
        c_mag, c_gray, c_opt = map(qrom.cost, (magnitude, gray, cancelled))
        assert c_gray.t_count <= c_mag.t_count
        assert c_gray.cnot_count <= c_mag.cnot_count
        assert c_opt.t_count <= c_gray.t_count
        assert c_opt.cnot_count <= c_gray.cnot_count

    # matched +/- pair saves exactly one adder of the shared coefficient
    eta, d, m = 6, 8, 5
    x = np.arange(1 << eta, dtype=np.uint64)

    def ch(z):
        return 1 - 2 * (np.bitwise_count(x & np.uint64(z)) & 1).astype(np.int64)

    f = wht.SampledFunction(eta=eta, d=d, values=m * ch(0b000110) + m * ch(0b101000))
    trunc = wht.minimal_truncation(f, 1e-300)
    plain = qrom.synthesize(trunc)
    fused = qrom.pair_cancel(plain, trunc)
    coeff = m << eta
    adder_cost = 4 * ((eta + d) - 2 - ((coeff & -coeff).bit_length() - 1))
    assert qrom.cost(plain).t_count - qrom.cost(fused).t_count == adder_cost
    assert np.array_equal(qrom.simulate_table(plain, 9), qrom.simulate_table(fused, 9))
    report(3, "gray + pair cancellation exhaustively safe and monotone")


def test_04_cost_formula_instantiation():
    adder = qrom.QromCircuit(input_width=0, payload_width=8, gates=(qrom.Adder(4, 8),))
    assert qrom.cost(adder).t_count == 16
    model = baseline.SelectSwapModel(eta=10, d=15, lam=8)
    ss = baseline.selectswap_cost(model)
    assert ss.toffoli_count == 368
    assert ss.qubit_count == 140
    for eta in range(1, 13):
        for d in (1, 7, 15, 33):
            _, best = baseline.optimize_lambda(eta, d)
            exhaustive = min(
                math.ceil((1 << eta) / lam) + 2 * d * lam
                for lam in range(1, (1 << eta) + 1)
            )
            assert best.toffoli_count == exhaustive
    report(4, "Adder(4,8)=16T, SELECT-SWAP (368, 140), lambda scan optimal")


def _random_symmetric_sparse(rng, n, rho):
    m = np.zeros((n, n))
    for j in range(n):
        cands = [k for k in range(n) if m[j, k] == 0 and np.count_nonzero(m[k]) < rho - (k != j)]
        rng.shuffle(cands)
        need = rho - np.count_nonzero(m[j])
        for k in cands[: max(0, need)]:
            v = rng.uniform(-1, 1)
            m[j, k] = v
            if k != j:
                m[k, j] = v
    if np.max(np.abs(m)) == 0:
        m[0, 0] = 0.5
    return m


def test_05_block_encoding_identities():
    # >= 100 random operators per construction, system dim <= 64; residual
    # and unitarity are enforced at construction, zeta matches closed forms
    start = time.perf_counter()
    rng = np.random.default_rng(1005)
    counts = dict.fromkeys(
        [
            "standard",
            "fused",
            "fused_diagonal",
            "diag_no_rotation",
            "lcu_sum",
            "product",
            "symmetry_swap",
        ],
        0,
    )
    for trial in range(100):
        n = int(rng.choice([4, 8, 8, 16]))
        rho = int(rng.integers(1, 4))
        m = _random_symmetric_sparse(rng, n, rho)
        oracle = blockenc.SparseOracle.from_dense(m)
        std = blockenc.dsparse_standard(oracle)
        fus = blockenc.dsparse_fused(oracle)
        assert std.residual < 1e-9 and std.unitarity_deviation < 1e-10
        assert fus.residual < 1e-9 and fus.unitarity_deviation < 1e-10
        assert std.zeta == pytest.approx(oracle.rho * np.max(np.abs(m)))
        assert fus.zeta == pytest.approx(std.zeta)
        counts["standard"] += 1
        counts["fused"] += 1

        nd = int(rng.choice([4, 8, 16, 32, 64]))
        diag_vals = rng.uniform(-1, 1, size=nd)
        fd = blockenc.dsparse_fused_diagonal(diag_vals)
        assert fd.zeta == pytest.approx(np.max(np.abs(diag_vals)))
        counts["fused_diagonal"] += 1

        d_bits = int(rng.integers(2, 5))
        table = list(rng.integers(0, 1 << d_bits, size=4))
        circuit = blockenc.exact_table_qrom(table, eta=2, d=d_bits)
        dnr = blockenc.diag_no_rotation(table, circuit, d=d_bits)
        assert dnr.zeta == float((1 << d_bits) - 1)
        counts["diag_no_rotation"] += 1

        parts = [
            blockenc.dsparse_fused_diagonal(rng.uniform(-1, 1, size=nd))
            for _ in range(int(rng.integers(2, 4)))
        ]
        total = blockenc.lcu_sum(parts)
        assert total.zeta == pytest.approx(sum(p.zeta for p in parts))
        counts["lcu_sum"] += 1

        prod = blockenc.product_be(parts[0], parts[1])
        assert prod.zeta == pytest.approx(parts[0].zeta * parts[1].zeta)
        counts["product"] += 1

        half = int(rng.choice([2, 4, 8]))
        h_eff = blockenc.dsparse_fused_diagonal(
            np.kron(rng.uniform(-1, 1, size=half), np.ones(half))
        )
        key = half.bit_length() - 1
        swap = blockenc.symmetry_swap_reduction(
            h_eff, [(q, q + key) for q in range(key)]
        )
        assert swap.zeta == pytest.approx(2 * h_eff.zeta)
        counts["symmetry_swap"] += 1
    assert all(v >= 100 for v in counts.values())
    elapsed = time.perf_counter() - start
    assert elapsed < 300.0, f"block-encoding sweep took {elapsed:.1f}s"
    report(5, f"7 constructions x 100 verified, {elapsed:.1f}s < 300s")


def test_06_zeta_lower_bound_diagonal():
    rng = np.random.default_rng(1006)
    violations = 0
    for _ in range(120):
        nd = int(rng.choice([4, 8, 16, 32, 64]))
        diag_vals = rng.uniform(-1, 1, size=nd)
        result = blockenc.dsparse_fused_diagonal(diag_vals)
        if result.zeta < np.max(np.abs(diag_vals)) - 1e-12:
            violations += 1
        d_bits = int(rng.integers(2, 5))
        table = list(rng.integers(0, 1 << d_bits, size=4))
        circuit = blockenc.exact_table_qrom(table, eta=2, d=d_bits)
        dnr = blockenc.diag_no_rotation(table, circuit, d=d_bits)
        if dnr.zeta < max(table) - 1e-12:
            violations += 1
    assert violations == 0
    report(6, "zeta >= spectral radius on every diagonal encoding (0 violations)")


def test_07_dvr_package():
    for kind in ("hermite", "legendre"):
        for n in (2, 8, 16, 32, 64):
            quad = dvr.gauss_quadrature(kind, n)
            t = dvr.build_transform(quad)
            gram = float(np.max(np.abs(t.matrix.T @ t.matrix - np.eye(n))))
            assert gram < 1e-10
            for k in range(2 * n):
                approx = float(np.sum(quad.weights * quad.nodes**k))
                if kind == "legendre":
                    exact, scale = (0.0 if k % 2 else 2.0 / (k + 1)), 1.0
                else:
                    exact = 0.0 if k % 2 else math.gamma((k + 1) / 2)
                    scale = max(1.0, math.gamma((k + 1) / 2))
                assert abs(approx - exact) <= 1e-11 * scale
    for kind, n, segment in (("legendre", 16, 4), ("hermite", 32, 8), ("legendre", 32, 32)):
        quad = dvr.gauss_quadrature(kind, n)
        t = dvr.build_transform(quad)
        coeffs = dvr.recursion_coeffs(kind, n, segment)
        rebuilt = dvr.recursion_columns(coeffs, dvr.midpoint_columns(t, segment), quad.nodes)
        assert np.max(np.abs(rebuilt - t.matrix)) < 1e-8
    # FBR/DVR similarity on an anharmonic 1-D problem
    n = 24
    quad = dvr.gauss_quadrature("hermite", n)
    t = dvr.build_transform(quad)
    kin = np.diag(0.5 * (np.arange(n) + 0.5))
    for m in range(n - 2):
        kin[m, m + 2] = kin[m + 2, m] = -0.25 * math.sqrt((m + 1) * (m + 2))
    v = 0.5 * quad.nodes**2 + 0.07 * quad.nodes**4
    e_fbr = eigh(kin + dvr.fbr_potential(t, v), eigvals_only=True)
    e_dvr = eigh(t.matrix @ kin @ t.matrix.T + np.diag(v), eigvals_only=True)
    assert np.max(np.abs(e_fbr - e_dvr)) < 1e-8
    report(7, "quadrature exactness, orthogonality, recursion, FBR/DVR similarity")


def test_08_water_toy():
    spec = molham.water_spec(n_r=8, n_theta=8)
    system = molham.water_hamiltonian(spec, decoupled=True)
    got = system.eigenvalues(12)
    ref = molham.decoupled_reference_levels(spec, 12)
    assert np.max(np.abs((got - ref) / np.abs(ref))) < 1e-6

    previous = math.inf
    for n_theta in (14, 16, 18, 20):
        ground = molham.water_hamiltonian(
            molham.water_spec(n_r=14, n_theta=n_theta)
        ).eigenvalues(1)[0]
        assert ground <= previous + 1e-12
        previous = ground

    table9 = molham.strategy_cost(
        molham.water_hamiltonian(molham.water_spec(n_r=32, n_theta=64)),
        molham.Strategy.FBR_DVR,
        molham.Backend.SELECT_SWAP,
    )
    assert 4.5e5 / 4 <= table9.report.t_count <= 4.5e5 * 4
    assert 4e3 / 4 <= table9.report.qubit_count <= 4e3 * 4
    report(
        8,
        f"decoupled 1e-6, monotone sweep, reference row within x4 "
        f"(T={table9.report.t_count:.2e}, anc={table9.report.qubit_count})",
    )


def test_09_discretization_theorem():
    rng = np.random.default_rng(1009)
    for _ in range(200):
        dims = int(rng.integers(1, 4))
        m_prime = int(rng.integers(2, 14 // dims + 1))
        m = int(rng.integers(1, m_prime + 1))
        waves = rng.normal(size=(4, dims))
        coeffs = rng.uniform(-0.15, 0.15, size=4)
        phases = rng.uniform(0, 2 * math.pi, size=4)

        def theta(q):
            acc = np.zeros(q.shape[:-1])
            for c, w, p in zip(coeffs, waves, phases):
                acc = acc + c * np.sin(q @ w + p)
            return acc

        grad_bound = float(np.sum(np.abs(coeffs) * np.linalg.norm(waves, axis=1)))
        measured, bound = molham.discretization_bound_check(
            theta, dims=dims, grad_bound=grad_bound, m=m, m_prime=m_prime
        )
        assert measured <= bound
    report(9, "200 random Lipschitz surfaces never exceed the refinement bound")


def test_10_scaling_fit():
    rng = np.random.default_rng(1010)
    rows_clean, rows_noisy = [], []
    for eta in (10, 12, 14, 16):
        for log2_inv_eps in (6, 10, 14, 18, 22):
            eps = 2.0**-log2_inv_eps
            log_tau = 0.5 * eta + 3.0 * math.log2(math.log2(1 / eps)) - 2.0
            rows_clean.append((eta, eps, 2.0**log_tau))
            rows_noisy.append((eta, eps, 2.0**log_tau * (1 + 0.01 * rng.normal())))
    clean = molham.fit_scaling(rows_clean)
    assert clean.c1 == pytest.approx(0.5, abs=1e-12)
    assert clean.c2 == pytest.approx(3.0, abs=1e-12)
    assert clean.c3 == pytest.approx(-2.0, abs=1e-10)
    assert clean.r_squared == pytest.approx(1.0, abs=1e-12)
    noisy = molham.fit_scaling(rows_noisy)
    assert abs(noisy.c1 - 0.5) / 0.5 < 0.05
    assert abs(noisy.c2 - 3.0) / 3.0 < 0.05
    assert abs(noisy.c3 + 2.0) / 2.0 < 0.05
    assert noisy.r_squared > 0.99
    report(10, "noiseless fit exact (R2=1), 1% noise within 5% (R2>0.99)")


def test_11_wh_vs_selectswap_direction():
    d = 15
    ratios = []
    for dims in (2, 3):
        for eta in (12, 13, 14, 15, 16):
            pes = synthetic.separable_harmonic(dims)
            f = wht.quantize(pes.sample(eta), d)
            record = baseline.compare(f, epsilon=2.0**-10)
            ratio = record.ratios()["toffoliCount"]
            assert ratio > 1, f"dims={dims} eta={eta}: ratio {ratio}"
            assert record.wh.qubit_count <= 3 * eta + 2 * d
            assert record.ss.qubit_count == 2 * eta + record.lambda_min * d
            ratios.append(ratio)
    report(
        11,
        f"Toffoli ratios all > 1 over eta 12-16 (range {min(ratios):.2f}-{max(ratios):.2f}), "
        f"WH within 3 eta + 2 d qubits",
    )


def test_12_cli_determinism(tmp_path):
    out1, out2 = tmp_path / "r1", tmp_path / "r2"
    argv = [
        "--seed",
        "21",
        "molham",
        "--strategy",
        "FBR_DVR",
        "--sweep",
        "8",
        "10",
        "--sweep-eps",
        "6",
        "8",
    ]
    assert cli_main(["--out", str(out1)] + argv) == 0
    assert cli_main(["--out", str(out2)] + argv) == 0
    for name in ("molham.json", "molham_sweep.csv"):
        assert (out1 / name).read_bytes() == (out2 / name).read_bytes()
    payload = json.loads((out1 / "molham.json").read_text())
    assert payload["strategies"][0]["strategy"] == "FBR_DVR"
    report(12, "repeated CLI runs byte-identical under a fixed seed")
