"""smallscat: time-domain sound-soft scattering by a small star-shaped
obstacle, its point-scatterer approximation, and the scaling-law
verification harness around them."""

from .asymptotic import PointScattererModel, apply_S_app, density_app, \
    point_scatterer_frequency, point_scatterer_time
from .bem import CapacitanceResult, NearFieldEvaluationError, NearResonanceError, \
    SingleLayerMatrix, assemble_single_layer, boundary_projections, capacitance, \
    evaluate_potential, exterior_field, scattered_frequency, solve_density_with_diagnostics
from .config import ConfigError, ExperimentConfig, default_config, \
    parse_config_file, parse_config_text
from .geometry import ShapeInvalidError, ShellRegion, StarShape, SurfaceGrid, \
    build_surface_grid, shell_quadrature
from .incident import PulseConfigurationError, ShellPulse, incident_laplace, \
    incident_time, incident_trace
from .metrics import ScalingFit, check_density_expansion, check_dilation_identity, \
    check_kernel_difference, check_projection_scaling, fit_power_law, \
    shell_l2_norm_of_values
from .sphere_oracle import SphereScenario, sphere_scattered_frequency, \
    sphere_scattered_time
from .synthesis import FrequencyTable, ScatteringScenario, TimeSeries, \
    frequency_sweep, inverse_transform

__version__ = "0.1.0"
