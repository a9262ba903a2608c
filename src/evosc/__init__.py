"""Event-camera oscillation toolkit.

Simulates an event camera on a harmonically driven mount, estimates the
induced image oscillation from the event stream (centroid tracking, spectral
initialization, per-axis EKF), compensates events back into the virtual
static frame, and scores the result with frame metrics.
"""

__version__ = "0.1.0"

from .core import (  # noqa: F401
    EVENT_DTYPE,
    SensorGeometry,
    make_events,
    validate_events,
    window_counts,
)
from .io import read_events, write_events  # noqa: F401
from .sim import (  # noqa: F401
    Checkerboard,
    DepthPlane,
    Disks,
    MotorParams,
    OscillatorConfig,
    PhysicalOscillator,
    SceneSpec,
    Stripes,
    Triangle,
    WorldMotion,
    camera_offset,
    motor_speed,
    simulate,
    simulate_moving_target,
    steady_state,
)
from .track import CentroidTracker, PatchSpec, lowpass_gain, track_events  # noqa: F401
from .freqest import (  # noqa: F401
    SinusoidInit,
    fit_sinusoid,
    initialize,
    normalize,
    nudft_spectrum,
    top_peaks,
)
from .ekf import (  # noqa: F401
    NoiseConfig,
    SinusoidState,
    amplitude_phase,
    filter_samples,
    predict,
    update,
)
from .compensate import (  # noqa: F401
    CompensatedEvents,
    compensate_stream,
    states_from_config,
)
from .metrics import (  # noqa: F401
    edge_stats,
    frame_variance,
    gradient_magnitude,
    shannon_entropy,
    stream_metrics,
)
from .apps import (  # noqa: F401
    DepthRatioReport,
    FrequencyReport,
    estimate_motion,
    estimate_scene_frequency,
    min_detectable_distance,
    relative_depth,
    run_pipeline,
)
