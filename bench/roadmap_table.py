"""Re-measure ROADMAP's baseline table: minimal_truncation and simulate_table.

    python3 bench/roadmap_table.py

Bundled two-coordinate surfaces as the CLI samples them (d = 15, wells with
seed 0), epsilon = 2^-10, one perf_counter run per point, one BLAS thread.
Also times ``whqrom compare --synthetic harmonic --eta 20`` end to end.
ROADMAP's morse eta=22 row is not re-measured: that scan alone takes minutes.
"""

import os

os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

import sys  # noqa: E402
import tempfile  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from whqrom import cli, qrom, synthetic, wht  # noqa: E402

CASES = [("harmonic", 20), ("morse", 20), ("wells", 16)]


def main() -> None:
    print("| case | minimal_truncation | k | gates | simulate_table | ns per gate-address |")
    print("| --- | --- | --- | --- | --- | --- |")
    for family, eta in CASES:
        kwargs = {"seed": 0} if family == "wells" else {}
        f = wht.quantize(synthetic.make_pes(family, dims=2, **kwargs).sample(eta), 15)
        start = time.perf_counter()
        trunc = wht.minimal_truncation(f, 2.0**-10)
        t_trunc = time.perf_counter() - start
        circuit = qrom.pair_cancel(qrom.synthesize(trunc), trunc)
        start = time.perf_counter()
        qrom.simulate_table(circuit, 0)
        t_sim = time.perf_counter() - start
        rate = 1e9 * t_sim / (len(circuit.gates) << eta)
        print(
            f"| {family} eta={eta} | {t_trunc:.1f} s | {trunc.k} | {len(circuit.gates)} "
            f"| {t_sim:.1f} s | {rate:.1f} |",
            flush=True,
        )
    with tempfile.TemporaryDirectory() as out:
        start = time.perf_counter()
        cli.main(["--out", out, "compare", "--synthetic", "harmonic", "--eta", "20"])
        print(f"compare --synthetic harmonic --eta 20: {time.perf_counter() - start:.1f} s")


if __name__ == "__main__":
    main()
