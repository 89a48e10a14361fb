"""Ground-state and thermal concurrence of a two-qubit XXZ spin pair."""

__version__ = "0.1.0"

from .linalg import (
    EigenSystem,
    NoConvergenceError,
    NonHermitianError,
    NotPSDError,
    SPIN_FLIP,
    XxzentError,
    hermitian_eigen,
    hermiticity_defect,
    psd_sqrt,
)
from .model import (
    BoltzmannOverflowError,
    ClosedSpectrum,
    GroundStateReport,
    InvalidParameterError,
    NonPositiveTemperatureError,
    NotNormalizedError,
    Phase,
    PureState,
    ZeroXYCouplingError,
    build_hamiltonian,
    closed_spectrum,
    ground_state,
    pure_concurrence,
)
from .thermal import (
    InvalidDensityMatrixError,
    NotXStateError,
    concurrence_values,
    gibbs_closed,
    gibbs_diagnostics,
    gibbs_spectral,
    thermal_concurrence,
    wootters_concurrence,
    xstate_concurrence,
)
from .sweep import (
    Axis,
    CriticalPoint,
    InvalidAxisError,
    SweepGrid,
    UnknownFigureError,
    critical_field,
    critical_temperature,
    figure_data,
    sweep,
)

__all__ = [name for name in dir() if not name.startswith("_")]
