"""photonloc: pseudospectral analysis of single-photon localization.

The package represents single-photon pulse states in the Landau-Peierls
and Bialynicki-Birula position representations on periodic grids, computes
the expectation value of the electromagnetic energy density, and provides
quantitative diagnostics showing that the energy density of every
single-photon state is nonzero everywhere, however well localized the
state looks in either representation.
"""

from .errors import (DimensionError, DomainError, GridMismatchError,
                     InsufficientWindowError, NotEigenfieldError,
                     PhotonlocError, ProbeCellError, ProfileTooWideError,
                     SchemaError, SupportError, TransversalityError,
                     VolumeOutOfDomainError, ZeroModeError, ZeroStateError,
                     ZeroWaveVectorError)
from .grid import Grid
from .fields import (FREQUENCY, POSITION, SpectralField, forward_transform,
                     inverse_transform, l2_inner, l2_norm, magnitude,
                     peak_magnitude, strip_zero_mode, to_frequency,
                     to_position, zero_mode_amplitude)
from .operators import (MomentumAmplitudes, apply_frequency_power, curl,
                        helicity_apply, helicity_parts, helicity_project,
                        momentum_amplitudes, omega, plane_wave,
                        synthesize_from_amplitudes, transversality_residual,
                        transverse_project)
from .states import (BBState, EMFields, LPState, PhotonState, bb_from_em,
                     bb_from_lp, bb_inner, evolve, lp_from_bb,
                     lp_from_potentials, lp_inner, normalize,
                     riemann_silberstein_vector)
from .energy import (DetectorVolume, EnergyDensityMap, KnightReport,
                     detector_energy, energy_density, knight_locality_test,
                     total_energy, volume_weights)
from .locality import (AntilocalityWitness, HelicityScanReport,
                       LocalizedStateConstruction, SupportEstimate, TailFit,
                       antilocality_witness, helicity_scans,
                       helicity_vanishing_scan, support_estimate,
                       tail_exponent_fit, vector_potential_localized_state)
from .scenarios import (FigureDataset, PanelData, figure2_report,
                        make_bb_compact, make_lp_compact, make_lp_extended,
                        odd_pulse_profile, sin2_profile, state_curves)
from .serialization import load_state, read_csv, save_state, write_csv, write_json
from .checks import CheckResult, SuiteResult, run_all_checks
from .units import NATURAL, UnitsConfig

__version__ = "0.1.0"
