"""Exact finite-temperature Loschmidt-echo dynamics of quenched quasi-free chains.

The package works in the per-mode picture of a periodic transverse-field
chain with anisotropic pair creation: a quench of the field or the
anisotropy leaves the problem block-diagonal in momentum, so echoes,
their infinite-time statistics, and fidelity bounds all reduce to products
over a table of per-mode quantities.  A dense matrix oracle, built from
the chain's real-space fermion operators rather than from the momentum
modes, provides an independent route to every headline number.

Layout:

- :mod:`thermalecho.model` builds the per-mode table from quench parameters.
- :mod:`thermalecho.echo` evaluates echoes and bounds on time grids.
- :mod:`thermalecho.averages` gives closed forms and series for time averages.
- :mod:`thermalecho.stats` samples, histograms, and classifies the log-echo.
- :mod:`thermalecho.oracle` is the dense cross-check plus qubit-level checks.
- :mod:`thermalecho.special` holds the self-contained special functions.
- :mod:`thermalecho.verify` holds the verification suites shared by
  ``thermalecho verify`` and the acceptance gate.
- :mod:`thermalecho.cli` is the command-line front end.
"""

from .averages import (
    AverageReport,
    SeriesConvergenceError,
    average_report,
    avg_linearized,
    avg_loschmidt,
    avg_loschmidt_series,
    smallquench_variance,
    variance_le,
)
from .echo import (
    EchoPoint,
    EffectiveDimension,
    echo_chains,
    echo_point,
    effective_dimension,
)
from .model import (
    ModeTable,
    QuenchParams,
    mode_table,
    momenta,
)
from .special import bessel_j0, elliptic_e
from .stats import (
    Classification,
    SampleSet,
    ShapeLabel,
    WeightSpectrum,
    bell_aniso,
    bell_ising,
    bell_width_aniso,
    bell_width_ising,
    char_fn,
    classify,
    damping,
    histogram_peaks,
    sample_logle,
    weights,
)

__all__ = [
    "AverageReport",
    "Classification",
    "EchoPoint",
    "EffectiveDimension",
    "ModeTable",
    "QuenchParams",
    "SampleSet",
    "SeriesConvergenceError",
    "ShapeLabel",
    "WeightSpectrum",
    "average_report",
    "avg_linearized",
    "avg_loschmidt",
    "avg_loschmidt_series",
    "bell_aniso",
    "bell_ising",
    "bell_width_aniso",
    "bell_width_ising",
    "bessel_j0",
    "char_fn",
    "classify",
    "damping",
    "echo_chains",
    "echo_point",
    "effective_dimension",
    "elliptic_e",
    "histogram_peaks",
    "mode_table",
    "momenta",
    "sample_logle",
    "smallquench_variance",
    "variance_le",
    "weights",
]

__version__ = "0.1.0"
