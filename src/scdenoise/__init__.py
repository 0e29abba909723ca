"""Score-based denoising of digital constellation symbols over AWGN channels."""

from .channel import (
    NoiseSchedule,
    awgn_transmit,
    build_schedule,
    forward_diffuse,
    snr_to_sigma,
    snr_to_step,
    stream_rng,
    vp_forward_reference,
)
from .constellation import (
    ConstellationScheme,
    build_bpsk,
    build_square_qam,
    demodulate_hard,
    modulate,
)
from .errors import DivergenceError
from .metrics import mse, ser
from .oracle import (
    log_density,
    mixture_score,
    mmse_bound,
    oracle_score_fn,
    posterior_mean,
)
from .sampler import SamplerConfig, pc_sample, predictor_step
from .score_model import (
    DsmConfig,
    MlpScoreModel,
    dsm_loss,
    forward_score,
    load_model,
    model_score_fn,
    relative_score_error,
    save_model,
    train_score,
)
from .sweep import ExperimentConfig, SweepRecord, emit_scatter, run_sweep

__version__ = "0.1.0"
