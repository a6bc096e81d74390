"""Plasmonic-particle metamaterials in chiral Drude-Born-Fedorov media."""

from .background import (BackgroundError, ChiralBackground, PlaneWaveSpec, SingularPointError,
                         circular_wave, green_apply, green_dyadic, incident_field, incident_six,
                         k0_matrix, maxwell_dyadic)
from .dipole import FarFieldError, ParticleInstance, scattered_field_dipole
from .effective import (DiluteConfig, EffectiveError, EffectiveParams, Sweep, SweepRow,
                        TildeParams, effective_closed_form, epsc_from_s, invert_effective,
                        s_limit_tilde, shifted_resonances, sweep_figure, sweep_summary,
                        tilde_from_definition, tilde_leading_order)
from .foldy import (FoldyError, GridState, ParticleLattice, build_lattice, check_distribution,
                    compare_homogenization, eval_foldy_field, eval_homogenized_field,
                    probe_ring, solve_foldy, solve_homogenized_ls, uniform_invertibility_stat)
from .mesh import MeshError, TriMesh, icosphere, mesh_from_file
from .np_spectral import (ModeCluster, NPSpectrum, SpectralError, assemble_np,
                          assemble_single_layer, spectral_decomposition, spectrum_from_json,
                          unit_ball_spectrum)
from .polarization import (ModeParams, PolarizationTensor, RootFindError, SingularModeError,
                           drude_eps, drude_omega_for_eps, find_resonance_root, mode_params,
                           mode_response, polarization_tensor, resonant_eps)

__version__ = "0.1.0"

__all__ = [
    "BackgroundError", "ChiralBackground", "PlaneWaveSpec", "SingularPointError",
    "circular_wave", "green_apply", "green_dyadic", "incident_field", "incident_six", "k0_matrix",
    "maxwell_dyadic",
    "FarFieldError", "ParticleInstance", "scattered_field_dipole",
    "DiluteConfig", "EffectiveError", "EffectiveParams", "Sweep", "SweepRow", "TildeParams",
    "effective_closed_form", "epsc_from_s", "invert_effective", "s_limit_tilde",
    "shifted_resonances", "sweep_figure", "sweep_summary", "tilde_from_definition",
    "tilde_leading_order",
    "FoldyError", "GridState", "ParticleLattice", "build_lattice", "check_distribution",
    "compare_homogenization", "eval_foldy_field", "eval_homogenized_field", "probe_ring",
    "solve_foldy", "solve_homogenized_ls", "uniform_invertibility_stat",
    "MeshError", "TriMesh", "icosphere", "mesh_from_file",
    "ModeCluster", "NPSpectrum", "SpectralError", "assemble_np", "assemble_single_layer",
    "spectral_decomposition", "spectrum_from_json", "unit_ball_spectrum",
    "ModeParams", "PolarizationTensor", "RootFindError", "SingularModeError", "drude_eps",
    "drude_omega_for_eps", "find_resonance_root", "mode_params", "mode_response",
    "polarization_tensor", "resonant_eps",
    "__version__",
]
