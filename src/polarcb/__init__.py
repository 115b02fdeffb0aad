"""Limited-feedback polar-domain codebooks for near-field XL-MIMO downlinks."""

from .array_model import (ArrayConfig, PolarCoord, PolarRegion, antenna_offsets,
                          beamforming_gain, far_field_vector, steering_matrix_exact,
                          steering_matrix_fresnel, steering_vector_exact,
                          steering_vector_fresnel)
from .channels import (ChannelRealization, PathParam, effective_channel, los_channel,
                       multipath_channel, multipath_channel_equal)
from .codebooks import (LloydConvergenceError, PolarCodebook, assemble_codebook,
                        dft_angle_codebook, geometric_range_samples,
                        hybrid_field_range_samples, hyperbolic_range_samples,
                        lloyd_angle_samples, lloyd_range_samples, scheme_codebook,
                        uniform_angle_samples, uniform_range_samples)
from .distributions import (Empirical, GaussianMixtureRange, HotSpotRange,
                            TruncatedGaussianRange, UniformPolar, load_empirical_csv,
                            range_pdf, sample_locations)
from .feedback import (FeedbackOutcome, ProtocolBatch, RVQCodebook, ZFSingularError,
                       multipath_feedback, phase1_select, phase2_select, run_protocol,
                       run_protocol_batch, rvq_generate, user_rate, zf_beamformer, zf_rates)
from .allocation import AllocationResult, estimate_gain_mc, mean_best_gain, optimize_allocation
from . import gain_theory

__all__ = [name for name in dir() if not name.startswith("_")]
__version__ = "0.1.0"
