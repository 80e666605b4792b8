import math
from dataclasses import replace

import numpy as np
import pytest
from scipy.linalg import eigh

from whqrom.errors import ConfigError, FitError, GridError, RangeError, ScaleError
from whqrom import molham
from whqrom.molham import (
    ANGSTROM_TO_BOHR,
    Backend,
    CM1_PER_HARTREE,
    DALTON_TO_AU,
    Strategy,
    ToyMoleculeSpec,
    assemble_dense,
    bend_mode,
    decoupled_reference_levels,
    discretization_bound_check,
    fit_scaling,
    frobenius_sq,
    momentum_zeta_bend,
    momentum_zeta_radial,
    norm_estimates,
    qpe_cost,
    radial_mode,
    sop_max_abs,
    sop_operator,
    spec_from_dict,
    strategy_cost,
    water_hamiltonian,
    water_spec,
)
from whqrom.qrom import CostReport


def h_fbr(system) -> np.ndarray:
    """FBR Hamiltonian T^T H_dvr T, with T the Kronecker product of the mode transforms."""
    t_full = np.ones((1, 1))
    for mode in reversed(system.modes):
        t_full = np.kron(mode.t, t_full)
    return t_full.T @ system.h_dvr() @ t_full


@pytest.fixture(scope="module")
def small_water():
    return water_spec(n_r=8, n_theta=8)


@pytest.fixture(scope="module")
def small_system(small_water):
    return water_hamiltonian(small_water)


class TestSpecValidation:
    def test_water_defaults(self, small_water):
        assert small_water.has_bend and small_water.radial_count == 2

    def test_bad_mass(self):
        with pytest.raises(ConfigError, match="masses_da"):
            ToyMoleculeSpec(basis_sizes=(4,), masses_da=(-1.0,), freqs_cm=(100.0,))

    def test_bad_basis(self):
        with pytest.raises(ConfigError, match="basis_sizes"):
            ToyMoleculeSpec(basis_sizes=(1,), masses_da=(1.0,), freqs_cm=(100.0,))

    def test_from_dict_unknown_key(self):
        with pytest.raises(ConfigError, match="unknown config keys"):
            spec_from_dict({"basis_sizes": (4,), "masses_da": (1,), "freqs_cm": (1,), "zzz": 2})

    def test_size_guards_raise_at_parse(self):
        from whqrom.dvr import MAX_POINTS
        from whqrom.molham import MAX_GRID_SIZE

        base = dict(masses_da=(1.0, 1.0), freqs_cm=(100.0, 100.0))
        with pytest.raises(ScaleError, match="per-mode limit"):
            ToyMoleculeSpec(basis_sizes=(MAX_POINTS + 1, 8, 8), **base)
        assert 1024 * 1024 * 2 > MAX_GRID_SIZE
        with pytest.raises(ScaleError, match="grid size"):
            ToyMoleculeSpec(basis_sizes=(1024, 1024, 2), **base)
        with pytest.raises(ScaleError):
            spec_from_dict({"basis_sizes": (1024, 1024, 2), **base})

    def test_radial_grid_guard(self):
        # tiny r0 pushes Hermite nodes below zero
        with pytest.raises(GridError):
            radial_mode(32, mass_da=1.0, omega_cm=500.0, r0_angstrom=0.05)


class TestWaterHamiltonian:
    def test_dvr_matrix_is_symmetric(self, small_system):
        h = small_system.h_dvr()
        assert np.max(np.abs(h - h.T)) < 1e-12

    def test_fbr_dvr_eigenvalue_agreement(self, small_system):
        e_dvr = small_system.eigenvalues(small_system.spec.grid_size)
        e_fbr = eigh(h_fbr(small_system), eigvals_only=True)
        assert np.max(np.abs(e_dvr - e_fbr)) < 1e-8

    def test_decoupled_limit_matches_1d_sums(self, small_water):
        system = water_hamiltonian(small_water, decoupled=True)
        got = system.eigenvalues(12)
        ref = decoupled_reference_levels(small_water, 12)
        assert np.max(np.abs((got - ref) / np.abs(ref))) < 1e-6

    def test_effective_half_reconstructs_full(self, small_system):
        dims = small_system.dims
        h = small_system.h_dvr()
        heff = assemble_dense(small_system.terms_eff, dims)
        idx = np.arange(h.shape[0]).reshape(dims)
        swapped = np.transpose(idx, (1, 0, 2)).reshape(-1)
        s = np.zeros_like(h)
        s[swapped, np.arange(h.shape[0])] = 1.0
        assert np.max(np.abs(heff + s @ heff @ s - h)) < 1e-12

    def test_variational_monotonicity(self):
        # the quadrature treatment of the singular metric factors is not
        # strictly variational for tiny bend bases; inside the converged
        # regime the ground state is non-increasing along both sweeps
        previous = math.inf
        for n_theta in (14, 16, 18, 20):
            ground = water_hamiltonian(water_spec(n_r=14, n_theta=n_theta)).eigenvalues(1)[0]
            assert ground <= previous + 1e-12
            previous = ground
        previous = math.inf
        for n_r in (8, 10, 12, 14):
            ground = water_hamiltonian(water_spec(n_r=n_r, n_theta=16)).eigenvalues(1)[0]
            assert ground <= previous + 1e-12
            previous = ground

    def test_dense_scale_guard(self):
        spec = water_spec(n_r=32, n_theta=64)
        with pytest.raises(ScaleError):
            water_hamiltonian(spec).h_dvr()

    def test_single_mode_ho_levels(self):
        spec = ToyMoleculeSpec(
            basis_sizes=(16,), masses_da=(1.0,), freqs_cm=(2000.0,), r0_angstrom=3.0
        )
        levels = water_hamiltonian(spec).eigenvalues(6)
        omega = 2000.0 / CM1_PER_HARTREE
        expected = omega * (np.arange(6) + 0.5)
        assert np.allclose(levels[:6], expected, rtol=1e-8)

    def test_two_mode_coupling_shifts_levels(self):
        base = dict(masses_da=(1.0, 1.0), freqs_cm=(2000.0, 2000.0), r0_angstrom=3.0)
        free = ToyMoleculeSpec(basis_sizes=(8, 8), **base)
        coupled = ToyMoleculeSpec(basis_sizes=(8, 8), coupling_mass_da=2.0, **base)
        e_free = water_hamiltonian(free).eigenvalues(4)
        e_coupled = water_hamiltonian(coupled).eigenvalues(4)
        assert not np.allclose(e_free[:4], e_coupled[:4])


class TestSop:
    def test_frobenius_matches_dense(self, small_system):
        h = small_system.h_dvr()
        assert frobenius_sq(small_system.terms, small_system.dims) == pytest.approx(
            float(np.sum(h * h)), rel=1e-10
        )


def _tensordot_matvec(terms, dims, vec):
    """The term matvec with each factor that has an off-diagonal entry applied
    as a matrix contraction and each diagonal one as a broadcast multiply.

    Contracting a diagonal factor too would hand the next contraction an
    operand of another layout, which BLAS may round differently by an ulp.
    """
    tensor = vec.reshape(tuple(dims))
    out = np.zeros_like(tensor)
    for term in terms:
        cur = tensor
        for i, f in enumerate(term.factors):
            if f is None:
                continue
            f = np.asarray(f)
            if np.count_nonzero(f - np.diag(np.diag(f))):
                cur = np.moveaxis(np.tensordot(f, cur, axes=([1], [i])), 0, i)
            else:
                cur = cur * np.diag(f).reshape([dims[i] if j == i else 1 for j in range(len(dims))])
        out = out + cur
    return out.reshape(-1)


_CHAIN = dict(masses_da=(1.0, 1.0), freqs_cm=(2000.0, 2000.0), r0_angstrom=3.0)

#: (spec, decoupled) pairs covering the water form, its separable limit
#: (many exactly degenerate levels) and coupled or degenerate radial chains.
MATRIX_FREE_SYSTEMS = [
    (water_spec(n_r=8, n_theta=8), False),
    (water_spec(n_r=8, n_theta=8), True),
    (water_spec(n_r=6, n_theta=12), False),
    (ToyMoleculeSpec(basis_sizes=(8, 16), coupling_mass_da=2.0, **_CHAIN), False),
    (ToyMoleculeSpec(basis_sizes=(8, 8), **_CHAIN), False),
    (
        ToyMoleculeSpec(
            basis_sizes=(32,), masses_da=(1.0,), freqs_cm=(2000.0,), r0_angstrom=3.0
        ),
        False,
    ),
]


def lanczos_levels(system, count):
    """The Lanczos path of ``eigenvalues``, whatever the grid size."""
    return molham._lowest_levels(
        sop_operator(system.terms, system.dims), system.spec.grid_size, count
    )


class TestMatrixFree:
    @pytest.mark.parametrize("spec, decoupled", MATRIX_FREE_SYSTEMS)
    def test_lanczos_levels_match_dense(self, spec, decoupled):
        system = water_hamiltonian(spec, decoupled=decoupled)
        dense = eigh(system.h_dvr(), eigvals_only=True)
        for count in (1, 7, 8, 12):
            got = lanczos_levels(system, count)
            assert got.shape == (count,)
            assert np.max(np.abs(got - dense[:count])) <= 1e-12

    def test_lanczos_finds_the_exchange_antisymmetric_level(self, small_system):
        # level 6 of the 8x8x8 water toy is odd under r1 <-> r2, so a start
        # vector inside the symmetric sector would miss it
        _, vecs = eigh(small_system.h_dvr())
        level6 = vecs[:, 6].reshape(small_system.dims)
        assert np.allclose(np.transpose(level6, (1, 0, 2)), -level6)
        dense = eigh(small_system.h_dvr(), eigvals_only=True)
        assert abs(lanczos_levels(small_system, 8)[6] - dense[6]) <= 1e-12

    def test_lanczos_keeps_degenerate_copies(self, small_water):
        # the separable limit has pairs of equal levels; every copy is kept
        system = water_hamiltonian(small_water, decoupled=True)
        dense = eigh(system.h_dvr(), eigvals_only=True)
        for count in range(1, 21):
            assert np.max(np.abs(lanczos_levels(system, count) - dense[:count])) <= 1e-12

    @pytest.mark.parametrize(
        "n_r, n_theta, count, path",
        [
            (8, 8, 8, "dense"),
            (8, 12, 8, "lanczos"),
            (8, 12, 23, "dense"),
            (8, 16, 41, "lanczos"),
            (8, 16, 42, "dense"),
            (12, 14, 8, "lanczos"),
        ],
    )
    def test_dense_lanczos_crossover(self, monkeypatch, n_r, n_theta, count, path):
        # 8x8x8 = 512 points is dense from 5 levels up (448 + 14 * 5 >= 512),
        # 8x8x12 = 768 points from 23 (448 + 14 * 23 >= 768) and 8x8x16 =
        # 1024 points from 42 (448 + 14 * 42 >= 1024)
        system = water_hamiltonian(water_spec(n_r=n_r, n_theta=n_theta))
        dense = eigh(system.h_dvr(), eigvals_only=True)[:count]
        lanczos = molham._lowest_levels
        calls = []

        def spy(*args):
            calls.append(args[1:])
            return lanczos(*args)

        monkeypatch.setattr(molham, "_lowest_levels", spy)
        got = system.eigenvalues(count)
        assert calls == ([] if path == "dense" else [(system.spec.grid_size, count)])
        assert np.max(np.abs(got - dense)) <= 1e-12

    @pytest.mark.parametrize(
        "spec",
        [
            water_spec(n_r=2, n_theta=2),
            ToyMoleculeSpec(
                basis_sizes=(8,), masses_da=(1.0,), freqs_cm=(2000.0,), r0_angstrom=3.0
            ),
        ],
    )
    def test_whole_spectrum_is_dense(self, spec):
        system = water_hamiltonian(spec)
        dense = eigh(system.h_dvr(), eigvals_only=True)
        for count in (spec.grid_size, spec.grid_size + 3):
            assert np.array_equal(system.eigenvalues(count), dense)

    def test_level_count_must_be_positive(self, small_system):
        with pytest.raises(RangeError):
            small_system.eigenvalues(0)

    @pytest.mark.parametrize(
        "spec, decoupled", MATRIX_FREE_SYSTEMS + [(water_spec(n_r=12, n_theta=14), False)]
    )
    def test_row_block_norm_equals_dense(self, spec, decoupled):
        system = water_hamiltonian(spec, decoupled=decoupled)
        for terms in (system.terms, system.terms_eff):
            dense = float(np.max(np.abs(assemble_dense(terms, system.dims))))
            assert sop_max_abs(terms, system.dims) == dense

    @pytest.mark.parametrize(
        "spec, decoupled",
        MATRIX_FREE_SYSTEMS
        + [
            (water_spec(n_r=12, n_theta=14), False),
            # unequal stretches: mode 1 is moved to the front past a mode of another size
            (replace(water_spec(), basis_sizes=(8, 16, 8)), False),
            # grids where contracting the diagonal factors too is an ulp off
            (water_spec(n_r=10, n_theta=16), False),
            (water_spec(n_r=6, n_theta=16), False),
        ],
    )
    def test_matvec_is_bit_identical_to_contraction(self, spec, decoupled):
        system = water_hamiltonian(spec, decoupled=decoupled)
        matvec = sop_operator(system.terms, system.dims)
        vec = np.random.default_rng(3).standard_normal(spec.grid_size)
        want = _tensordot_matvec(system.terms, system.dims, vec)
        assert matvec(vec).tobytes() == want.tobytes()
        assert np.allclose(want, system.h_dvr() @ vec, rtol=0, atol=1e-12)
        want_eff = _tensordot_matvec(system.terms_eff, system.dims, vec)
        assert sop_operator(system.terms_eff, system.dims)(vec).tobytes() == want_eff.tobytes()


class TestNormEstimates:
    def test_radial_momentum_closed_form(self):
        # lambda_PR = sqrt(mu omega (n+1) / 2): a max-element bound for the
        # explicit matrix, and rho * lambda bounds its largest singular value
        n = 32
        mode = radial_mode(n, mass_da=1.0, omega_cm=2000.0, r0_angstrom=3.0)
        zeta = momentum_zeta_radial(mode)
        assert zeta == pytest.approx(
            2.0 * math.sqrt(mode.mass_au * mode.omega_au * (n + 1) / 2.0)
        )
        max_elem = float(np.max(np.abs(mode.c_fbr)))
        sigma = float(np.linalg.norm(mode.c_fbr, 2))
        assert zeta / 2.0 >= max_elem
        # truncated elements run sqrt(1)..sqrt(n-1), so the closed form
        # overshoots the max element by exactly sqrt((n+1)/(n-1))
        assert zeta / 2.0 == pytest.approx(max_elem * math.sqrt((n + 1) / (n - 1)))
        assert zeta >= sigma

    def test_bend_momentum_closed_form(self):
        n = 8
        mode = bend_mode(n, theta_max=math.pi)
        zeta = momentum_zeta_bend(mode)
        assert zeta == pytest.approx((n / 2) * math.sqrt(4 * (n - 1) ** 2 - 1))
        assert float(np.max(np.abs(mode.deriv_fbr))) == pytest.approx(
            math.sqrt(4 * (n - 1) ** 2 - 1)
        )
        assert zeta >= float(np.linalg.norm(mode.deriv_fbr, 2))

    def test_angular_momentum_norms(self):
        from whqrom.molham import angular_momentum_zeta

        j = 5
        norms = angular_momentum_zeta(j)
        ks = np.arange(-j, j + 1)
        jz = np.diag(ks.astype(float))
        jp = np.zeros((2 * j + 1, 2 * j + 1))
        for i, k in enumerate(ks[:-1]):
            jp[i + 1, i] = math.sqrt(j * (j + 1) - k * (k + 1))
        jx = (jp + jp.T) / 2.0
        assert norms["jz"] == float(np.max(np.abs(jz)))
        assert norms["jxy"] == pytest.approx(2.0 * float(np.max(np.abs(jx))))
        assert norms["jxy"] >= float(np.linalg.norm(jx, 2))

    def test_zeta_dominates_spectral_radius(self, small_system):
        radius = float(np.max(np.abs(small_system.eigenvalues(small_system.spec.grid_size))))
        for strategy in Strategy.ALL:
            estimate = norm_estimates(small_system, strategy)
            assert estimate.total_au >= radius

    def test_lcu_bracket_orders(self, small_system):
        est = norm_estimates(small_system, Strategy.LCU_FBR)
        assert est.zeta_low_au <= est.total_au <= est.zeta_high_au

    def test_cm_conversion(self, small_system):
        est = norm_estimates(small_system, Strategy.FBR_DVR)
        assert est.total_cm == pytest.approx(est.total_au * 219474.6313632)

    def test_total_is_count_weighted_term_sum(self, small_system):
        # the exchange-reduced strategies double the H_eff term sum
        for strategy in (Strategy.FBR_DVR, Strategy.SEPARATE_DVR):
            est = norm_estimates(small_system, strategy)
            weighted = sum(z * c for _, z, c in est.terms)
            assert est.total_au == pytest.approx(2.0 * weighted)


class TestStrategyCost:
    def test_water_table_reproduction_band(self):
        # reference point: T-count 4.5e5, ancillas 4e3 for n_theta = 2**6,
        # n_R = 2**5; reproduced within a factor of 4 with swept lambda
        system = water_hamiltonian(water_spec(n_r=32, n_theta=64))
        sc = strategy_cost(system, Strategy.FBR_DVR, Backend.SELECT_SWAP)
        assert 4.5e5 / 4 <= sc.report.t_count <= 4.5e5 * 4
        assert 4e3 / 4 <= sc.report.qubit_count <= 4e3 * 4

    def test_strategy_ordering_at_scale(self):
        system = water_hamiltonian(water_spec(n_r=32, n_theta=64))
        costs = {
            s: strategy_cost(system, s, Backend.SELECT_SWAP).report.t_count
            for s in Strategy.ALL
        }
        assert costs[Strategy.FBR_DVR] < costs[Strategy.SEPARATE_DVR]
        assert costs[Strategy.SEPARATE_DVR] < costs[Strategy.FULL_DVR]
        assert costs[Strategy.FULL_DVR] < costs[Strategy.LCU_FBR]

    def test_single_mode_lcu_crossover(self):
        # QROM-based pipelines carry a rotation-precision floor, so tiny
        # Pauli decompositions win below n ~ 100; the asymptotic ordering
        # flips at the observed crossover and stays flipped
        def costs(n):
            system = water_hamiltonian(
                ToyMoleculeSpec(
                    basis_sizes=(n,), masses_da=(1.0,), freqs_cm=(2000.0,), r0_angstrom=3.0
                )
            )
            lcu = strategy_cost(system, Strategy.LCU_FBR, Backend.SELECT_SWAP)
            fd = strategy_cost(system, Strategy.FBR_DVR, Backend.SELECT_SWAP)
            return lcu.report.t_count, fd.report.t_count

        lcu_small, fd_small = costs(16)
        assert lcu_small < fd_small
        for n in (128, 256):
            lcu_big, fd_big = costs(n)
            assert fd_big < lcu_big

    def test_wh_backend_runs_and_reports(self, small_system):
        sc = strategy_cost(small_system, Strategy.FBR_DVR, Backend.WH)
        assert sc.report.t_count > 0
        assert sc.backend == Backend.WH
        names = [n for n, _, _ in sc.breakdown]
        assert "pes" in names and "dvr_transform_x2" in names

    def test_wh_dvr_transform_prices_each_mode_table(self, small_system):
        # at 8x8x8 the two Hermite transforms and the Legendre one share n**2;
        # each mode's lookup must still be priced on its own arcsin(T) table
        from whqrom.molham import _WhBackend

        sc = strategy_cost(small_system, Strategy.FBR_DVR, Backend.WH)
        expected = 0
        for mode in small_system.modes:
            table = np.arcsin(np.clip(mode.t, -1, 1)).reshape(-1) / math.pi
            reps = 2 * math.floor(math.pi * math.sqrt(mode.n) / 4.0)
            expected += reps * _WhBackend._wh_cost(table)[0]
        booked = dict((name, t) for name, t, _ in sc.breakdown)
        assert booked["dvr_transform_x2"] == 2 * expected

    def test_wh_radial_momentum_uses_its_own_mode(self):
        from whqrom.molham import _WhBackend

        system = water_hamiltonian(
            ToyMoleculeSpec(
                basis_sizes=(8, 16),
                masses_da=(1.0, 1.0),
                freqs_cm=(2000.0, 2000.0),
                r0_angstrom=3.0,
            )
        )
        sc = strategy_cost(system, Strategy.FBR_DVR, Backend.WH)
        booked = dict((name, t) for name, t, _ in sc.breakdown)
        for i, mode in enumerate(system.modes):
            vals = np.abs(mode.c_fbr[np.nonzero(mode.c_fbr)])
            table = np.arccos(np.sqrt(vals / vals.max())) / math.pi
            assert booked[f"momentum_r{i + 1}"] == 2 * _WhBackend._wh_cost(table)[0]

    def test_equal_stretch_rows_keep_their_totals(self, small_system):
        booked = dict(
            (name, t)
            for name, t, _ in strategy_cost(small_system, Strategy.FBR_DVR).breakdown
        )
        assert booked["momentum_r"] == 14552
        assert booked["inv_r"] == 3574

    @pytest.mark.parametrize("sizes", [(8, 16, 8), (16, 8, 8)])
    def test_bend_spec_prices_each_stretch(self, sizes):
        import dataclasses

        from whqrom.molham import _SelectSwapBackend, _WhBackend

        system = water_hamiltonian(dataclasses.replace(water_spec(), basis_sizes=sizes))
        n_r1, n_r2, n_th = sizes
        model = _SelectSwapBackend()

        def booked(strategy, backend=Backend.SELECT_SWAP):
            sc = strategy_cost(system, strategy, backend)
            return dict((name, t) for name, t, _ in sc.breakdown)

        fbr = booked(Strategy.FBR_DVR)
        assert fbr["momentum_r"] == 3 * model.c_d(2 * n_r1)[0] + model.c_d(2 * n_r2)[0]
        assert fbr["inv_r"] == model.c_d(n_r2)[0]
        sep = booked(Strategy.SEPARATE_DVR)
        assert sep["g_r2r2theta2"] == 2 * model.c_d(n_r1 * n_r2 * n_th * n_th)[0]
        assert sep["g_r2"] == 6 * model.c_d(n_r1 * n_r2)[0]
        assert sep["g_r"] == model.c_d(n_r2)[0]

        def momentum_table(mode):
            vals = np.abs(mode.c_fbr[np.nonzero(mode.c_fbr)])
            return np.arccos(np.sqrt(vals / vals.max())) / math.pi

        r1, r2, _ = system.modes
        wh = booked(Strategy.FBR_DVR, Backend.WH)
        assert wh["momentum_r"] == (
            3 * _WhBackend._wh_cost(momentum_table(r1))[0]
            + _WhBackend._wh_cost(momentum_table(r2))[0]
        )
        assert wh["inv_r"] == _WhBackend._wh_cost(1.0 / r2.nodes_r)[0]

    def test_wh_tables_are_priced_once_per_memo(self, small_system, monkeypatch):
        from whqrom.molham import _WhBackend

        fresh = {s: strategy_cost(small_system, s, Backend.WH) for s in Strategy.ALL}
        priced = []
        wh_cost = _WhBackend._wh_cost

        def counting(values):
            priced.append(np.asarray(values).size)
            return wh_cost(values)

        monkeypatch.setattr(_WhBackend, "_wh_cost", staticmethod(counting))
        memo = {}
        for strategy in Strategy.ALL:
            sc = strategy_cost(small_system, strategy, Backend.WH, memo)
            assert sc.to_json_dict() == fresh[strategy].to_json_dict()
        # pes, sin, 1/R, P_R, P_u and the arcsin(T) tables of R and theta
        assert len(priced) == len(memo) == 7

    def test_json_round_trip(self, small_system):
        sc = strategy_cost(small_system, Strategy.SEPARATE_DVR)
        data = sc.to_json_dict()
        assert data["report"]["tCount"] == sc.report.t_count
        assert data["zetaCm"] == pytest.approx(sc.zeta_au * 219474.6313632)

    def test_rotational_rows_appear_for_excited_j(self, small_water, small_system):
        import dataclasses

        excited = water_hamiltonian(dataclasses.replace(small_water, j_total=20))
        sc0 = strategy_cost(small_system, Strategy.FBR_DVR)
        scj = strategy_cost(excited, Strategy.FBR_DVR)
        names = [n for n, _, _ in scj.breakdown]
        assert "jz_x2" in names and "jxy_x4" in names
        assert scj.report.t_count > sc0.report.t_count
        est = norm_estimates(excited, Strategy.FBR_DVR)
        assert any(name == "jxy" for name, _, _ in est.terms)


class TestQpeCost:
    def base_report(self):
        return CostReport.assemble(400, 10, 20, 30, 50)

    def test_unit_ratio_two_calls(self):
        report = qpe_cost(1.0, self.base_report(), 1.0)
        assert report.t_count == 2 * 400

    def test_linear_in_zeta(self):
        base = qpe_cost(100.0, self.base_report(), 1.0)
        doubled = qpe_cost(200.0, self.base_report(), 1.0)
        assert doubled.t_count == pytest.approx(2 * base.t_count, rel=0.02)

    def test_phase_register_qubits(self):
        report = qpe_cost(1024.0, self.base_report(), 1.0)
        assert report.qubit_count == 30 + 10

    def test_volume_consistency(self):
        report = qpe_cost(50.0, self.base_report(), 2.0)
        assert report.quantum_volume == report.t_count * report.qubit_count


class TestFitScaling:
    def synth(self, c1, c2, c3, noise=0.0, seed=0):
        rng = np.random.default_rng(seed)
        rows = []
        for eta in (10, 12, 14, 16):
            for log2_inv_eps in (6, 10, 14, 18, 22):
                eps = 2.0**-log2_inv_eps
                log_tau = c1 * eta + c2 * math.log2(math.log2(1 / eps)) + c3
                tau = 2.0**log_tau * (1.0 + noise * rng.normal())
                rows.append((eta, eps, tau))
        return rows

    def test_noiseless_exact_recovery(self):
        fit = fit_scaling(self.synth(0.5, 3.0, -2.0))
        assert fit.c1 == pytest.approx(0.5, abs=1e-12)
        assert fit.c2 == pytest.approx(3.0, abs=1e-12)
        assert fit.c3 == pytest.approx(-2.0, abs=1e-10)
        assert fit.r_squared == pytest.approx(1.0, abs=1e-12)

    def test_one_percent_noise(self):
        fit = fit_scaling(self.synth(0.5, 3.0, -2.0, noise=0.01, seed=3))
        assert abs(fit.c1 - 0.5) / 0.5 < 0.05
        assert abs(fit.c2 - 3.0) / 3.0 < 0.05
        assert fit.r_squared > 0.99

    def test_rank_deficiency(self):
        rows = [(10, 2**-8, 100.0), (10, 2**-8, 120.0), (10, 2**-8, 140.0)]
        with pytest.raises(FitError):
            fit_scaling(rows)


class TestDiscretizationBound:
    def test_constant_function(self):
        measured, bound = discretization_bound_check(
            lambda q: np.zeros(q.shape[:-1]), dims=2, grad_bound=1.0, m=2, m_prime=4
        )
        assert measured == 0.0
        assert measured <= bound

    def test_linear_1d(self):
        measured, bound = discretization_bound_check(
            lambda q: q[..., 0], dims=1, grad_bound=1.0, m=4, m_prime=8
        )
        assert bound == pytest.approx(2.0 * math.pi * math.sqrt(1 / 256))
        assert measured <= bound
        # the identity map nearly saturates the bound, so no smaller
        # constant (sqrt(2) included) can be guaranteed
        assert measured > 0.9 * bound

    def test_random_lipschitz_batch(self):
        rng = np.random.default_rng(11)
        for _ in range(25):
            dims = int(rng.integers(1, 4))
            m_prime = int(rng.integers(2, 14 // dims + 1))
            m = int(rng.integers(1, m_prime + 1))
            waves = rng.normal(size=(3, dims))
            coeffs = rng.uniform(-0.2, 0.2, size=3)
            phases = rng.uniform(0, 2 * math.pi, size=3)

            def theta(q):
                acc = np.zeros(q.shape[:-1])
                for c, w, p in zip(coeffs, waves, phases):
                    acc = acc + c * np.sin(q @ w + p)
                return acc

            grad = float(np.sum(np.abs(coeffs) * np.linalg.norm(waves, axis=1)))
            measured, bound = discretization_bound_check(
                theta, dims=dims, grad_bound=grad, m=m, m_prime=m_prime
            )
            assert measured <= bound

    def test_scale_guard(self):
        with pytest.raises(ScaleError):
            discretization_bound_check(
                lambda q: q[..., 0], dims=3, grad_bound=1.0, m=2, m_prime=5
            )


class TestUnits:
    def test_constants(self):
        assert CM1_PER_HARTREE == 219474.6313632
        assert DALTON_TO_AU == pytest.approx(1822.888, rel=1e-6)
        assert ANGSTROM_TO_BOHR == pytest.approx(1.8897259886)
