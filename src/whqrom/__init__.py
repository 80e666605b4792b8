"""Walsh-Hadamard QROM synthesis and DVR block-encoding verification toolkit.

Subpackages by concern:

- :mod:`whqrom.wht` -- fixed-point quantization, exact integer WHT, spectrum
  truncation search
- :mod:`whqrom.qrom` -- gate-level QROM synthesis, optimization, costing,
  basis-state simulation
- :mod:`whqrom.baseline` -- SELECT-SWAP QROM cost model and comparison ratios
- :mod:`whqrom.dvr` -- Gaussian quadratures, FBR/DVR transforms, column
  recursion, DVR-oracle cost formulas
- :mod:`whqrom.blockenc` -- dense block-encoding constructions with verified
  sub-block identities
- :mod:`whqrom.molham` -- toy rovibrational Hamiltonians, norm estimates,
  strategy cost tables, QPE costs, scaling fits
- :mod:`whqrom.cli` -- command-line front end
"""

from . import errors
from .wht import (
    SampledFunction,
    WalshSpectrum,
    TruncatedSpectrum,
    quantize,
    wht_forward,
    wht_inverse,
    diag_error,
    minimal_truncation,
)
from .qrom import (
    Ordering,
    QromCircuit,
    CostReport,
    synthesize,
    pair_cancel,
    cost,
    simulate,
    simulate_table,
)

__version__ = "0.1.0"
