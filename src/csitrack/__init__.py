"""WiFi-CSI motion tracking toolkit.

Reconstructs the 2D trajectory of a WiFi transmitter from per-packet channel
state information at multiple receivers: multi-packet MUSIC estimation of
departure angles, clock-offset-cancelling displacement recovery, a synthetic
CSI simulator and an evaluation harness.
"""

from .aod import AodConfig, angle_grid, estimate_paths, music_spectrum
from .core import (
    DEFAULT_WAVELENGTH,
    ArrayGeometry,
    CsiRecord,
    Displacement,
    PathSet,
    Trajectory,
    circular_distance,
    steering_matrix,
    steering_vector,
)
from .displacement import (
    PathWeights,
    attenuation_change,
    estimate_displacement,
    path_weights,
)
from .errors import (
    ConfigError,
    CsiTrackError,
    DegenerateGeometryError,
    InsufficientPathsError,
    StreamOrderError,
    TraceParseError,
    TraceVersionError,
    UnobservableDisplacementError,
    WeakPathError,
    WindowUnderfullError,
)
from .evaluation import AlignedError, ErrorCdf, align, error_cdf, fit_rotation, jitter, rotation_matrix
from .io import (
    PacketGroup,
    RunConfig,
    TraceFile,
    TraceHeader,
    load_config,
    pair_streams,
    read_trace,
    read_trajectory,
    records_by_ap,
    save_config,
    write_cdf,
    write_trace,
    write_trajectory,
)
from .simulator import (
    ChannelSpec,
    OffsetModel,
    PropagationPath,
    SimConfig,
    add_noise_and_quantize,
    apply_offset,
    channel_at,
    jitter_walk,
    offset_phase,
    random_waypoints,
    resample_waypoints,
    simulate_trajectory,
    square_waypoints,
    stationary_waypoints,
)
from .tracker import Tracker, TrackerConfig

__version__ = "0.1.0"
