"""Photon-level simulator and rate model for a COW-QKD receiver whose
avalanche detector leaks timing information through backflash emission."""

from .attack import (
    AttackConfig,
    CalibrationError,
    ClusterMap,
    EveInference,
    LearningMetrics,
    calibrate,
    fold_and_cluster,
    infer_bits,
    learning_metrics,
)
from .detectors import (
    Cause,
    DetectionLog,
    Histogram,
    SnspdConfig,
    SpadConfig,
    correlation_histogram,
    dark_exposure,
    snspd_detect,
    spad_detect,
    spad_preset,
)
from .distill import (
    ClassicalTranscript,
    DistillConfig,
    SiftedBits,
    SiftedKey,
    compute_qber,
    disclose,
    form_blocks,
    sift,
)
from .experiment import (
    ExperimentConfig,
    RunResult,
    config_hash,
    emit_timing_correlation,
    preset_config,
    run_simulation,
    run_sweep,
)
from .rates import (
    FiniteSizeInputs,
    McCounts,
    RateInputs,
    RateReport,
    binary_entropy,
    compare,
    count_interval,
    p_backflash,
    p_err,
    p_learn,
    p_sec,
    p_sec_finite,
    p_sift_holdoff,
    p_sift_simple,
)
from .source import (
    ChannelConfig,
    ConfigError,
    FrameBatch,
    FrameGeometry,
    LogicalBit,
    SourceConfig,
    channel_transmittance,
    generate_frames,
)
from .timebase import (
    DeviceRngs,
    RngStream,
    TimeRangeError,
    poisson_event_times,
    sample_delay,
)

__version__ = "0.1.0"
