import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from whqrom.cli import main
from whqrom.wht import quantize
from whqrom import wht, baseline


def run(tmp_path, *argv):
    return main(["--out", str(tmp_path)] + list(argv))


class TestWhtAnalyze:
    def test_zero_input_gives_k_zero(self, tmp_path):
        data = np.zeros(64)
        path = tmp_path / "zero.f64"
        path.write_bytes(data.astype("<f8").tobytes())
        code = run(tmp_path, "wht-analyze", "--input", str(path), "--digits", "8")
        assert code == 0
        report = json.loads((tmp_path / "wht_analyze.json").read_text())
        assert report["chosenK"] == 0
        assert report["errorAtK"] == 0.0

    def test_oversized_input_is_a_config_error(self, tmp_path):
        path = tmp_path / "huge.f64"
        path.touch()
        os.truncate(path, 8 << (wht.MAX_ETA + 1))  # sparse: takes no disk space
        assert run(tmp_path, "wht-analyze", "--input", str(path)) == 2
        assert not (tmp_path / "wht_analyze.json").exists()

    def test_synthetic_matches_library(self, tmp_path):
        code = run(
            tmp_path,
            "wht-analyze",
            "--synthetic",
            "harmonic",
            "--dims",
            "2",
            "--eta",
            "12",
            "--digits",
            "15",
        )
        assert code == 0
        report = json.loads((tmp_path / "wht_analyze.json").read_text())
        from whqrom.synthetic import make_pes

        f = quantize(make_pes("harmonic", 2).sample(12), 15)
        trunc = wht.minimal_truncation(f, 2.0**-10)
        assert report["chosenK"] == trunc.k

    def test_csv_and_binary_agree(self, tmp_path):
        rng = np.random.default_rng(5)
        data = rng.uniform(-1, 1, size=128)
        b = tmp_path / "t.f64"
        c = tmp_path / "t.csv"
        b.write_bytes(data.astype("<f8").tobytes())
        c.write_text("".join(f"{float(v)!r}\n" for v in data))
        out_b = tmp_path / "ob"
        out_c = tmp_path / "oc"
        assert main(["--out", str(out_b), "wht-analyze", "--input", str(b)]) == 0
        assert main(["--out", str(out_c), "wht-analyze", "--input", str(c)]) == 0
        assert (out_b / "wht_analyze.json").read_bytes() == (
            out_c / "wht_analyze.json"
        ).read_bytes()

    def test_malformed_csv_exit_code(self, tmp_path):
        bad = tmp_path / "bad.csv"
        bad.write_text("0.5\nnope\n")
        assert run(tmp_path, "wht-analyze", "--input", str(bad)) == 3

    def test_non_finite_sample_is_parse_error(self, tmp_path, capsys):
        bad = tmp_path / "nan.csv"
        bad.write_text("0.5\nnan\n")
        assert run(tmp_path, "wht-analyze", "--input", str(bad)) == 3
        assert capsys.readouterr().err == f"parse error: {bad}:2: sample 'nan' is not finite\n"

    def test_eta_above_limit_is_config_error(self, tmp_path, capsys):
        assert run(tmp_path, "wht-analyze", "--eta", "62", "--digits", "1") == 2
        err = capsys.readouterr().err
        assert err.startswith("config error: eta = 62") and err.count("\n") == 1

    def test_one_transform_per_report(self, tmp_path, monkeypatch):
        # the curve reads the search's spectrum; the report is the one the
        # curve gives when it transforms the table itself
        calls = []
        forward, curve = wht.wht_forward, wht.truncation_error_curve
        monkeypatch.setattr(wht, "wht_forward", lambda f: calls.append(f.eta) or forward(f))
        argv = ["wht-analyze", "--synthetic", "morse", "--eta", "12", "--epsilon", "0.0009765625"]
        assert run(tmp_path / "shared", *argv) == 0
        assert calls == [12]
        monkeypatch.setattr(wht, "truncation_error_curve", lambda f, upto, spectrum: curve(f, upto))
        assert run(tmp_path / "own", *argv) == 0
        assert calls == [12, 12, 12]
        shared = (tmp_path / "shared" / "wht_analyze.json").read_bytes()
        assert shared == (tmp_path / "own" / "wht_analyze.json").read_bytes()


class TestQromSynth:
    def test_writes_circuit_and_cost(self, tmp_path):
        code = run(tmp_path, "qrom-synth", "--synthetic", "harmonic", "--eta", "8")
        assert code == 0
        report = json.loads((tmp_path / "qrom_synth.json").read_text())
        text = (tmp_path / "qrom_circuit.txt").read_text()
        from whqrom.qrom import circuit_from_lines, cost

        circuit = circuit_from_lines(text)
        assert cost(circuit).to_json_dict() == report["cost"]


class TestCompare:
    def test_both_modes_emitted(self, tmp_path):
        code = run(
            tmp_path, "compare", "--synthetic", "harmonic", "--dims", "2", "--eta", "12"
        )
        assert code == 0
        report = json.loads((tmp_path / "compare.json").read_text())
        assert report["rawPes"]["ratios"]["toffoliCount"] > 1
        assert report["arccosRotation"] is not None
        assert report["arccosRotation"]["dWh"] == 14

    def test_raw_counts_cross_checked_against_library(self, tmp_path):
        code = run(
            tmp_path, "compare", "--synthetic", "harmonic", "--dims", "2", "--eta", "10"
        )
        assert code == 0
        report = json.loads((tmp_path / "compare.json").read_text())
        from whqrom.synthetic import make_pes

        f = quantize(make_pes("harmonic", 2).sample(10), 15)
        record = baseline.compare(f, 2.0**-10, d_ss=15)
        assert report["rawPes"]["whQrom"] == record.wh.to_json_dict()
        assert report["rawPes"]["selectSwap"] == record.ss.to_json_dict()

    def test_pinned_lambda_reads_the_table_once(self, tmp_path, monkeypatch):
        from whqrom import cli

        loads = []
        load_table = cli._load_table
        monkeypatch.setattr(cli, "_load_table", lambda args: loads.append(1) or load_table(args))
        argv = ["--lambda", "4", "compare", "--synthetic", "morse", "--eta", "8"]
        assert run(tmp_path, *argv) == 0
        assert len(loads) == 1
        report = json.loads((tmp_path / "compare.json").read_text())
        f = load_table(cli.build_parser().parse_args(argv))
        model = baseline.SelectSwapModel(eta=8, d=15, lam=4)
        assert report["pinnedLambda"] == {
            "lambda": 4,
            "selectSwap": baseline.selectswap_cost(model, f).to_json_dict(),
        }

    def test_degenerate_constant_flags_infinity(self, tmp_path):
        path = tmp_path / "flat.f64"
        path.write_bytes(np.zeros(32).astype("<f8").tobytes())
        code = run(tmp_path, "compare", "--input", str(path))
        assert code == 0
        report = json.loads((tmp_path / "compare.json").read_text())
        assert report["rawPes"]["ratios"]["toffoliCount"] == "∞"


class TestDvrCheck:
    def test_passes_and_exports(self, tmp_path):
        code = run(tmp_path, "dvr-check", "--kind", "hermite", "--n", "16", "--segment", "4")
        assert code == 0
        report = json.loads((tmp_path / "dvr_check.json").read_text())
        assert report["orthogonalityError"] < 1e-10
        t = np.loadtxt(tmp_path / "t_matrix.csv", delimiter=",")
        assert t.shape == (16, 16)

    def test_bad_segment_is_config_error(self, tmp_path):
        assert run(tmp_path, "dvr-check", "--n", "12", "--segment", "8") == 2

    def test_zero_segment_is_not_the_default(self, tmp_path, capsys):
        # 0 once fell back to the default segment and exited 0
        assert run(tmp_path, "dvr-check", "--n", "16", "--segment", "0") == 2
        err = capsys.readouterr().err
        assert "--segment must be at least 2, got 0" in err and "Traceback" not in err
        assert not (tmp_path / "dvr_check.json").exists()

    @pytest.mark.parametrize(
        "kind, n, segment",
        [
            ("hermite", 64, 32),
            ("hermite", 48, 16),
            ("hermite", 96, 32),
            ("hermite", 172, 4),
            ("hermite", 256, 32),
            ("legendre", 128, 32),
            ("legendre", 9, 1),
        ],
    )
    def test_default_segment_passes(self, tmp_path, kind, n, segment):
        # the largest power of two dividing n, at most 32; past n = 134 the
        # Hermite moments x**k overflow float64 unless taken scaled
        assert run(tmp_path, "dvr-check", "--kind", kind, "--n", str(n)) == 0
        report = json.loads((tmp_path / "dvr_check.json").read_text())
        assert report["segment"] == segment
        assert report["quadratureMomentError"] < 1e-11
        assert report["recursionError"] < 1e-8

    def test_long_hermite_segment_is_refused_before_the_build(self, tmp_path, capsys, monkeypatch):
        # --n 64 --segment 64 once ran the whole check and exited 4
        from whqrom import dvr

        assert run(tmp_path, "dvr-check", "--n", "64", "--segment", "64") == 0

        def unreachable(*args):
            raise AssertionError("quadrature built before the segment check")

        monkeypatch.setattr(dvr, "gauss_quadrature", unreachable)
        for n in ("64", "128"):
            code = run(tmp_path, "dvr-check", "--kind", "hermite", "--n", n, "--segment", n)
            assert code == 2
            err = capsys.readouterr().err
            assert "MAX_HERMITE_SEGMENT = 32" in err and "Traceback" not in err

    @pytest.mark.parametrize(
        "argv, message",
        [
            (["--segment", "0"], "--segment must be at least 2, got 0"),
            # segment 1 rebuilds no column, so its recursionError was a vacuous 0.0
            (["--kind", "hermite", "--n", "16", "--segment", "1"], "--segment must be at least 2, got 1"),
            (["--kind", "legendre", "--n", "16", "--segment", "1"], "--segment must be at least 2, got 1"),
            (["--n", "16", "--segment", "3"], "--segment 3 must be a power of two dividing n"),
            (["--n", "12", "--segment", "8"], "--segment 8 must be a power of two dividing n"),
        ],
    )
    def test_bad_segment_is_refused_before_the_build(
        self, tmp_path, capsys, monkeypatch, argv, message
    ):
        from whqrom import dvr

        def unreachable(*args):
            raise AssertionError("quadrature built before the segment check")

        monkeypatch.setattr(dvr, "gauss_quadrature", unreachable)
        assert run(tmp_path, "dvr-check", *argv) == 2
        err = capsys.readouterr().err
        assert f"config error: {message}" in err and "Traceback" not in err

    def test_zero_points_are_refused_by_the_quadrature(self, tmp_path, capsys):
        # the default segment of n = 0 is 0; the error names the point count
        assert run(tmp_path, "dvr-check", "--n", "0") == 2
        err = capsys.readouterr().err
        assert "point count must be >= 1, got 0" in err and "--segment" not in err

    def test_hermite_limit_is_a_config_error(self, tmp_path, capsys):
        from whqrom.dvr import MAX_HERMITE_POINTS

        n = str(MAX_HERMITE_POINTS + 1)
        assert run(tmp_path, "dvr-check", "--kind", "hermite", "--n", n) == 2
        err = capsys.readouterr().err
        assert "MAX_HERMITE_POINTS" in err and "Traceback" not in err

    def test_creates_fresh_out_directory(self, tmp_path):
        out = tmp_path / "new" / "dir"
        assert main(["--out", str(out), "dvr-check", "--n", "8"]) == 0
        assert np.loadtxt(out / "t_matrix.csv", delimiter=",").shape == (8, 8)
        assert (out / "dvr_check.json").exists()


class TestBlockencVerify:
    def test_random_rounds(self, tmp_path):
        code = run(tmp_path, "--seed", "3", "blockenc-verify", "--count", "1")
        assert code == 0
        report = json.loads((tmp_path / "blockenc_verify.json").read_text())
        assert report["worstResidual"] < 1e-9
        names = {r["construction"] for r in report["records"]}
        assert "dsparse_standard" in names and "symmetry_swap" in names

    def test_dimension_below_tridiagonal_width_is_config_error(self, tmp_path, capsys):
        assert run(tmp_path, "blockenc-verify", "--dim", "2") == 2
        err = capsys.readouterr().err
        assert err.startswith("config error: --dim must be at least 4") and err.count("\n") == 1

    def test_dim_bounds_every_system_size(self, tmp_path, capsys):
        for seed in range(6):
            for dim in (2, 3):
                assert run(tmp_path, "--seed", str(seed), "blockenc-verify", "--dim", str(dim)) == 2
                assert capsys.readouterr().err.startswith("config error: --dim must be at least 4")
            for dim in (4, 8, 9):
                code = run(tmp_path, "--seed", str(seed), "blockenc-verify", "--dim", str(dim))
                assert code == 0
                report = json.loads((tmp_path / "blockenc_verify.json").read_text())
                sizes = {
                    r["dimension"]
                    for r in report["records"]
                    if r["construction"] == "dsparse_fused_diagonal"
                }
                assert sizes and max(sizes) <= dim

    def test_coo_input(self, tmp_path):
        path = tmp_path / "m.csv"
        path.write_text("0,0,0.5\n0,1,0.25\n1,0,0.25\n1,1,-0.75\n")
        code = run(tmp_path, "blockenc-verify", "--input", str(path))
        assert code == 0

    def test_oversized_coo_input_is_refused_before_allocation(self, tmp_path, capsys, monkeypatch):
        # index 8191 once took 16 s and 572 MB before the dense scale check
        from whqrom import blockenc

        path = tmp_path / "m.csv"
        path.write_text("0,0,1.0\n8191,8191,1.0\n")
        monkeypatch.setattr(blockenc, "np", None)
        assert run(tmp_path, "blockenc-verify", "--input", str(path)) == 2
        err = capsys.readouterr().err
        assert "MAX_COO_DIM = 32" in err and err.count("\n") == 1


class TestMolham:
    def test_bundled_water(self, tmp_path):
        code = run(tmp_path, "molham", "--strategy", "FBR_DVR")
        assert code == 0
        report = json.loads((tmp_path / "molham.json").read_text())
        assert len(report["eigenvaluesCm"]) == 8
        assert report["strategies"][0]["strategy"] == "FBR_DVR"
        assert report["strategies"][0]["qpe"]["tCount"] > 0

    def test_one_system_build_per_request(self, tmp_path, monkeypatch):
        from whqrom import molham

        builds = []
        build = molham.water_hamiltonian

        def counting(*args, **kwargs):
            builds.append(args)
            return build(*args, **kwargs)

        monkeypatch.setattr(molham, "water_hamiltonian", counting)
        assert run(tmp_path, "molham") == 0
        assert len(builds) == 1

    def test_wh_request_prices_each_distinct_table_once(self, tmp_path, monkeypatch):
        from whqrom import molham

        system = molham.water_hamiltonian(molham.water_spec())
        fresh = [
            molham.strategy_cost(system, s, molham.Backend.WH).to_json_dict()
            for s in molham.Strategy.ALL
        ]
        priced = []
        wh_cost = molham._WhBackend._wh_cost

        def counting(values):
            priced.append(values)
            return wh_cost(values)

        monkeypatch.setattr(molham._WhBackend, "_wh_cost", staticmethod(counting))
        assert run(tmp_path, "molham", "--backend", "WH") == 0
        assert len(priced) == 7
        report = json.loads((tmp_path / "molham.json").read_text())
        assert [row["blockEncoding"] for row in report["strategies"]] == json.loads(
            json.dumps(fresh)
        )

    def test_config_error_field_path(self, tmp_path, capsys):
        cfg = tmp_path / "bad.yaml"
        cfg.write_text("basis_sizes: [8, 8, 8]\nmasses_da: [-1.0, 1.0]\nfreqs_cm: [100, 100]\n")
        code = run(tmp_path, "molham", "--config", str(cfg))
        assert code == 2
        assert "masses_da" in capsys.readouterr().err

    def test_reduced_strategies_need_exchange_symmetry(self, tmp_path, capsys):
        cfg = tmp_path / "asym.yaml"
        cfg.write_text("basis_sizes: [8, 8, 8]\nmasses_da: [0.948, 1.896]\nfreqs_cm: [3700, 3700]\n")
        assert run(tmp_path, "molham", "--config", str(cfg), "--strategy", "all") == 2
        assert "config error: masses_da: SEPARATE_DVR needs equal stretches" in capsys.readouterr().err
        assert run(tmp_path, "molham", "--config", str(cfg), "--strategy", "FULL_DVR") == 0

    @pytest.mark.parametrize("log2_eps", ["-2000", "-1024", "1075"])
    def test_sweep_epsilon_outside_float_is_refused_before_the_sweep(
        self, tmp_path, capsys, monkeypatch, log2_eps
    ):
        # -2000 once overflowed in a traceback; 1075 gave epsilon 0.0 and was
        # refused only after the earlier sweep points had run
        from whqrom import cli

        def unreachable(*args):
            raise AssertionError("a sweep point ran before the --sweep-eps check")

        monkeypatch.setattr(cli, "_sweep_job", unreachable)
        argv = ["molham", "--strategy", "FULL_DVR", "--sweep", "4", "--sweep-eps", "6", log2_eps]
        assert run(tmp_path, *argv) == 2
        err = capsys.readouterr().err
        assert f"config error: --sweep-eps {log2_eps}:" in err and "Traceback" not in err

    @pytest.mark.parametrize(
        "extra, message",
        [
            (["--sweep", "30"], "eta = 30 exceeds the limit MAX_ETA = 24"),
            (["--sweep", "4", "25", "--sweep-eps"], "eta = 25 exceeds the limit MAX_ETA = 24"),
            (["--sweep", "4", "--dims", "0"], "a surface needs at least one dimension, got dims = 0"),
            (["--sweep", "6", "1"], "cannot split 1 bits into 2 coordinates"),
            (["--sweep", "4", "--dims", "5"], "cannot split 4 bits into 5 coordinates"),
            (["--sweep", "4", "--digits", "0"], "bit width d must be positive, got 0"),
            (["--sweep", "4", "--digits", "59"], "eta + d = 63 exceeds the 64-bit safe limit 62"),
            # doubly invalid: the sweep's check now comes before the QPE's
            (
                ["--sweep", "4", "--dims", "0", "--epsilon-cm", "-1"],
                "a surface needs at least one dimension, got dims = 0",
            ),
        ],
    )
    def test_bad_sweep_is_refused_before_the_build(self, tmp_path, capsys, monkeypatch, extra, message):
        from whqrom import molham

        def unreachable(*args):
            raise AssertionError("the system was built before the --sweep check")

        monkeypatch.setattr(molham, "water_hamiltonian", unreachable)
        assert run(tmp_path, "molham", *extra) == 2
        err = capsys.readouterr().err
        assert f"config error: {message}" in err and "Traceback" not in err
        assert not (tmp_path / "molham.json").exists()

    def test_sweep_digits_past_the_table_limit_still_run(self, tmp_path):
        # a sweep point takes any d with eta + d <= 62, not only --digits <= 33
        argv = ["molham", "--strategy", "FULL_DVR", "--sweep", "4", "--digits", "40", "--sweep-eps", "6"]
        assert run(tmp_path, *argv) == 0
        assert (tmp_path / "molham_sweep.csv").read_text().startswith("eta,epsilon,toffoli,kRetained\n4,")

    def test_sweep_csv_feeds_fit(self, tmp_path):
        code = run(
            tmp_path,
            "molham",
            "--strategy",
            "FBR_DVR",
            "--sweep",
            "8",
            "10",
            "12",
            "--sweep-eps",
            "6",
            "8",
            "10",
        )
        assert code == 0
        sweep = (tmp_path / "molham_sweep.csv").read_text().splitlines()
        assert sweep[0] == "eta,epsilon,toffoli,kRetained"
        assert len(sweep) == 10
        code = run(tmp_path, "fit-scaling", "--input", str(tmp_path / "molham_sweep.csv"))
        assert code == 0
        fit = json.loads((tmp_path / "fit_scaling.json").read_text())
        assert 0 <= fit["fit"]["c1"] < 1


@pytest.mark.parametrize(
    "argv",
    [
        ["wht-analyze", "--synthetic", "harmonic", "--eta", "8"],
        ["qrom-synth", "--synthetic", "harmonic", "--eta", "8"],
        ["compare", "--synthetic", "harmonic", "--eta", "8"],
        ["fit-scaling", "--input", "{csv}"],
    ],
)
def test_table_commands_do_not_load_scipy(tmp_path, argv):
    # a fresh process per command, so nothing imported by other tests counts
    csv = tmp_path / "sweep.csv"
    csv.write_text("eta,epsilon,tau\n8,0.01,100\n10,0.001,300\n12,0.01,700\n")
    env = dict(os.environ)
    src = str(Path(wht.__file__).resolve().parents[1])
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    code = (
        "import sys; from whqrom.cli import main; code = main(sys.argv[1:]); "
        "loaded = sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'); "
        "sys.exit(f'exit {code}, scipy loaded: {loaded}' if code or loaded else 0)"
    )
    argv = ["--out", str(tmp_path)] + [a.format(csv=csv) for a in argv]
    proc = subprocess.run(
        [sys.executable, "-c", code, *argv], env=env, capture_output=True, text=True, timeout=60
    )
    assert proc.returncode == 0, proc.stderr


def _unreachable(*args, **kwargs):
    raise AssertionError("work began before the epsilon check")


@pytest.mark.parametrize("command", ["wht-analyze", "qrom-synth", "compare"])
@pytest.mark.parametrize("epsilon", ["0", "-1", "nan"])
def test_table_epsilon_is_refused_before_the_table_is_read(
    tmp_path, capsys, monkeypatch, command, epsilon
):
    # --epsilon 0 once sampled and quantized the whole table first, and an
    # absent --input ended in a parse error (exit 3) before it
    from whqrom import synthetic

    monkeypatch.setattr(synthetic.SyntheticPes, "sample", _unreachable)
    monkeypatch.setattr(wht, "read_theta", _unreachable)
    for source in (["--synthetic", "morse", "--eta", "22"], ["--input", str(tmp_path / "absent.f64")]):
        assert run(tmp_path, command, *source, "--epsilon", epsilon) == 2
        err = capsys.readouterr().err
        assert f"config error: epsilon must be positive, got {float(epsilon)}\n" == err


@pytest.mark.parametrize("epsilon", ["0", "nan"])
def test_epsilon_cm_is_refused_before_the_build(tmp_path, capsys, monkeypatch, epsilon):
    # --epsilon-cm 0 once built the system, solved for the levels and priced
    # every strategy before the QPE refused it
    from whqrom import molham

    monkeypatch.setattr(molham, "water_hamiltonian", _unreachable)
    assert run(tmp_path, "molham", "--epsilon-cm", epsilon) == 2
    err = capsys.readouterr().err
    assert f"config error: epsilon must be positive, got {float(epsilon)}\n" == err
    assert not (tmp_path / "molham.json").exists()


class TestFailureContract:
    """Defects the CLI fuzz test found, each pinned to its exit code."""

    @pytest.mark.parametrize(
        "argv, file, code",
        [
            (["--seed", "-1", "blockenc-verify"], None, 2),
            (["blockenc-verify", "--count", "0"], None, 2),
            (["blockenc-verify", "--input", "{f}"], "0,0,nan\n", 3),
            (["blockenc-verify", "--input", "{f}"], "0,0,1\n1000000,0,1\n", 2),
            (["molham", "--levels", "0"], None, 2),
            (["molham", "--config", "{f}"], "basis_sizes: oops\nmasses_da: [1]\nfreqs_cm: [1]\n", 2),
            (["molham", "--strategy", "LCU_FBR", "--sweep", "4", "--dims", "-1"], None, 2),
            (["fit-scaling", "--input", "{f}"], "eta,epsilon,tau\n2,0.5,0\n4,0.1,1\n6,0.01,2\n", 2),
            (["fit-scaling", "--input", "{f}"], "eta,epsilon,tau\n2,nan,1\n4,0.1,1\n6,0.01,2\n", 2),
            (["molham", "--config", "{f}"], "basis_sizes: [1025, 8, 8]\nmasses_da: [1, 1]\nfreqs_cm: [1, 1]\n", 2),
            (["molham", "--config", "{f}"], "basis_sizes: [1024, 1024, 2]\nmasses_da: [1, 1]\nfreqs_cm: [1, 1]\n", 2),
            (["dvr-check", "--n", "1025"], None, 2),
        ],
    )
    def test_malformed_input_exits_cleanly(self, tmp_path, capsys, argv, file, code):
        path = tmp_path / "input.txt"
        if file is not None:
            path.write_text(file)
        assert run(tmp_path, *[a.replace("{f}", str(path)) for a in argv]) == code
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and "Traceback" not in err


class TestDeterminism:
    def test_parser_is_built_once_per_process(self, tmp_path):
        from whqrom import cli

        parser = cli.build_parser()
        assert run(tmp_path, "dvr-check", "--n", "8") == 0
        assert cli.build_parser() is parser
        assert parser.parse_args(["dvr-check"]).func is cli.cmd_dvr_check

    def test_byte_identical_reruns(self, tmp_path):
        out1 = tmp_path / "a"
        out2 = tmp_path / "b"
        args = [
            "--seed",
            "11",
            "blockenc-verify",
            "--count",
            "2",
        ]
        assert main(["--out", str(out1)] + args) == 0
        assert main(["--out", str(out2)] + args) == 0
        assert (out1 / "blockenc_verify.json").read_bytes() == (
            out2 / "blockenc_verify.json"
        ).read_bytes()

    def test_csv_format_emits_both(self, tmp_path):
        code = main(
            ["--out", str(tmp_path), "--format", "csv", "dvr-check", "--n", "8"]
        )
        assert code == 0
        assert (tmp_path / "dvr_check.json").exists()
        assert (tmp_path / "dvr_check.csv").exists()

    def test_worker_pool_matches_serial(self, tmp_path):
        serial, pooled = tmp_path / "serial", tmp_path / "pooled"
        base = [
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
        assert main(["--out", str(serial)] + base + ["--jobs", "1"]) == 0
        assert main(["--out", str(pooled)] + base + ["--jobs", "2"]) == 0
        assert (serial / "molham_sweep.csv").read_bytes() == (
            pooled / "molham_sweep.csv"
        ).read_bytes()


def test_report_corpus_smoke(tmp_path):
    # the first corpus entries run end to end and write their reports
    import importlib.util

    path = Path(__file__).parent / "report_corpus.py"
    spec = importlib.util.spec_from_file_location("report_corpus", path)
    corpus = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(corpus)
    assert corpus.run(tmp_path, selected=3) == [0, 0, 0]
    names = [name for name, _, _ in corpus.entries()[:3]]
    for name in names:
        assert (tmp_path / name / "molham.json").is_file()
        assert "exit: 0\n" in (tmp_path / name / "run.txt").read_text()
