"""Ground-state and thermal concurrence of a two-qubit XXZ spin pair.

The names below resolve on first use (PEP 562), so `import xxzent` loads no
numpy and the CLI can set numpy's thread count before numpy loads.
"""

import importlib

__version__ = "0.1.0"

_HOME = {
    name: module
    for module, names in (
        ("linalg", "EigenSystem NoConvergenceError NonHermitianError SPIN_FLIP XxzentError "
                   "hermitian_eigen hermiticity_defect"),
        ("model", "GroundStateReport InvalidParameterError NonPositiveTemperatureError "
                  "Phase ZeroXYCouplingError build_hamiltonian ground_state"),
        ("thermal", "InvalidDensityMatrixError concurrence_values gibbs_closed "
                    "gibbs_diagnostics gibbs_spectral thermal_concurrence wootters_concurrence"),
        ("sweep", "Axis CriticalPoint InvalidAxisError SweepGrid UnknownFigureError "
                  "critical_field critical_temperature figure_data"),
    )
    for name in names.split()
}

__all__ = sorted(_HOME)


def __getattr__(name):
    if name not in _HOME:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(importlib.import_module(f"{__name__}.{_HOME[name]}"), name)
