"""Two-qubit dipolar-spin quantum battery toolkit.

Thermal-state preparation, Lindblad dephasing dynamics, cyclic unitary
charging, and the associated resource and battery metrics, plus the
``dipolar-qb`` command-line driver for CSV sweep outputs.
"""

from .battery import (
    BatteryMetrics,
    CapacityReport,
    OrbitPeaks,
    antipassive_state,
    battery_metrics,
    capacity,
    capacity_closed_form,
    charging_orbit_arrays,
    ergotropy,
    ergotropy_closed_form,
    ergotropy_closed_form_literal,
    ergotropy_double_sum,
    instantaneous_power,
    instantaneous_power_fd,
    orbit_peaks,
    passive_state,
    work_and_power,
)
from .dynamics import (
    IntegrationAccuracyError,
    TimeGrid,
    TimeSeries,
    charge_trajectory,
    collapse_operators,
    evolve_lindblad,
    is_valid_state,
    lindblad_rhs,
    lindblad_superoperator,
)
from .linalg import (
    SpectralDecomposition,
    entropy_2x2,
    hermitian_eigen,
    hermiticity_defect,
    matrix_exp,
    partial_trace,
    require_hermitian,
    von_neumann_entropy,
)
from .model import (
    ClosedFormSpectrum,
    ModelParams,
    build_hamiltonian,
    charging_hamiltonian,
    charging_unitary,
    closed_form_spectrum,
)
from .resources import (
    DiscordResult,
    MeasurementDirection,
    concurrence,
    l1_coherence,
    quantum_discord,
)
from .thermal import (
    GibbsClosedForm,
    GibbsSpectrumDiagnostics,
    gibbs_closed_form,
    gibbs_numeric,
    gibbs_spectrum,
)

__version__ = "0.1.0"

__all__ = [
    "BatteryMetrics",
    "CapacityReport",
    "ClosedFormSpectrum",
    "DiscordResult",
    "GibbsClosedForm",
    "GibbsSpectrumDiagnostics",
    "IntegrationAccuracyError",
    "MeasurementDirection",
    "ModelParams",
    "OrbitPeaks",
    "SpectralDecomposition",
    "TimeGrid",
    "TimeSeries",
    "antipassive_state",
    "battery_metrics",
    "build_hamiltonian",
    "capacity",
    "capacity_closed_form",
    "charge_trajectory",
    "charging_hamiltonian",
    "charging_orbit_arrays",
    "charging_unitary",
    "closed_form_spectrum",
    "collapse_operators",
    "concurrence",
    "entropy_2x2",
    "ergotropy",
    "ergotropy_closed_form",
    "ergotropy_closed_form_literal",
    "ergotropy_double_sum",
    "evolve_lindblad",
    "gibbs_closed_form",
    "gibbs_numeric",
    "gibbs_spectrum",
    "hermitian_eigen",
    "hermiticity_defect",
    "instantaneous_power",
    "instantaneous_power_fd",
    "is_valid_state",
    "l1_coherence",
    "lindblad_rhs",
    "lindblad_superoperator",
    "matrix_exp",
    "orbit_peaks",
    "partial_trace",
    "passive_state",
    "quantum_discord",
    "require_hermitian",
    "von_neumann_entropy",
    "work_and_power",
]
