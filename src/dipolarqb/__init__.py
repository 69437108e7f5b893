"""Two-qubit dipolar-spin quantum battery toolkit.

Thermal-state preparation, Lindblad dephasing dynamics, cyclic unitary
charging, and the associated resource and battery metrics, plus the
``dipolar-qb`` command-line driver for CSV sweep outputs.
"""

from .battery import (
    CapacityReport,
    OrbitPeaks,
    antipassive_state,
    capacity,
    charging_orbit_arrays,
    ergotropy,
    ergotropy_closed_form,
    instantaneous_power,
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
    lindblad_superoperator,
)
from .linalg import (
    hermitian_eigen,
    hermiticity_defect,
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
    gibbs_closed_form,
    gibbs_numeric,
)

__version__ = "0.1.0"

__all__ = [
    "CapacityReport",
    "ClosedFormSpectrum",
    "DiscordResult",
    "IntegrationAccuracyError",
    "MeasurementDirection",
    "ModelParams",
    "OrbitPeaks",
    "TimeGrid",
    "TimeSeries",
    "antipassive_state",
    "build_hamiltonian",
    "capacity",
    "charge_trajectory",
    "charging_hamiltonian",
    "charging_orbit_arrays",
    "charging_unitary",
    "closed_form_spectrum",
    "collapse_operators",
    "concurrence",
    "ergotropy",
    "ergotropy_closed_form",
    "evolve_lindblad",
    "gibbs_closed_form",
    "gibbs_numeric",
    "hermitian_eigen",
    "hermiticity_defect",
    "instantaneous_power",
    "l1_coherence",
    "lindblad_superoperator",
    "orbit_peaks",
    "partial_trace",
    "passive_state",
    "quantum_discord",
    "require_hermitian",
    "von_neumann_entropy",
    "work_and_power",
]
