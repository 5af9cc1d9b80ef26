"""Sequential change-point detection for asynchronous multi-sensor streams.

The package combines per-sensor delay estimation, windowed subspace
extraction, and CUSUM-style sequential detection, plus the Monte Carlo
machinery to calibrate drifts and compare detectors on ARL/EDD operating
curves.
"""

from .core import (
    DelayProfile,
    MultiSensorFrame,
    ScenarioModel,
    SpikedStats,
    Waveform,
    frames_from_array,
    normalize_stream,
    read_sensor_csv,
    write_sensor_csv,
)
from .detect import (
    AsyncDetection,
    CusumState,
    DriftBounds,
    StoppingReport,
    SubspaceCusum,
    async_pipeline,
    calibrate_drift,
    drift_bounds,
    one_shot_detector,
    subspace_increments,
)
from .linalg import top_singular_vector, window_top_vectors
from .sim import (
    OneShotSpec,
    SubspaceSpec,
    estimate_arl,
    estimate_edd,
    generate_episode,
    mean_shift_model,
    operating_curve,
    pure_noise_model,
    uniform_onsets,
)
from .sync import JointEstimate, WaveformEstimate, joint_estimate

__version__ = "0.1.0"
