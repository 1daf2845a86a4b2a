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
- :mod:`thermalecho.echo` evaluates the echo, its log, the overlap echo
  and both bounds on time grids, for one mode table or a block of chains.
- :mod:`thermalecho.averages` gives a table's long-time statistics in one
  pass: the initial purity, the infinite-time means and the variance, from
  per-mode phase moments.
- :mod:`thermalecho.stats` gives the per-mode weights and the continuum bells,
  and samples, histograms, and classifies the log-echo.
- :mod:`thermalecho.oracle` holds the dense reference routes and the
  bound-slack kernel.
- :mod:`thermalecho.special` holds the elliptic-integral loop of the averages.
- :mod:`thermalecho.verify` holds every check, as the verification suites
  shared by ``thermalecho verify`` and the acceptance gate.
- :mod:`thermalecho.cli` is the command-line front end.
"""

import importlib

# the layer that holds each exported name; a layer is imported when one of its
# names is first asked for, so ``import thermalecho`` loads none of them
_HOMES = {name: home for home, names in (
    ("averages", ("LongTime", "long_time")),
    ("echo", ("EchoPoint", "echo_point")),
    ("model", ("ModeTable", "QuenchParams", "mode_table", "momenta")),
    ("stats", ("Classification", "SampleSet", "ShapeLabel", "WeightSpectrum", "bell_aniso",
               "bell_ising", "bell_width_aniso", "bell_width_ising", "classify",
               "histogram_peaks", "sample_logle", "weights")),
) for name in names}

__all__ = sorted(_HOMES)

__version__ = "0.1.0"


def __getattr__(name: str):
    # looked up on every access, never stored here, so a name rebound in its
    # home module is seen at once
    home = _HOMES.get(name)
    if home is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(importlib.import_module(f"{__name__}.{home}"), name)


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})
