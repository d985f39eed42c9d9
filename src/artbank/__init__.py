"""Desk-scale style-prompt-bank conditioning for a small diffusion model.

Trainable per-collection style matrices are transformed by a
spatial-statistical self-attention encoder into pseudo-token embeddings
that steer a frozen noise-prediction network; stochastic inversion derives
the initial sampling noise from the content image so stylization keeps its
structure.
"""

from .attention import (SsamParams, init_output_proj, init_ssam_params,
                        sanet_forward, ssam_forward)
from .bank import (DEFAULT_TEMPLATE, StyleBank, StyleBankEntry,
                   TokenEmbeddingSeq, assemble_condition, create_entry,
                   encode_prompt, load_bank, save_bank)
from .data_io import (ImageSample, StyleSpec, default_style_specs,
                      gen_content_image, gen_style_collection, read_ppm,
                      write_ppm)
from .diffusion import (Denoiser, LatentState, NoiseSchedule,
                        load_checkpoint, make_schedule, q_sample, sample,
                        save_checkpoint, train_ispb, train_naive)
from .inversion import InversionConfig, stochastic_invert, stylize
from .metrics import (ConvergenceReport, StyleScore, convergence_benchmark,
                      gram_style_score, signature_of, ssim)
from .optim import AdamState, adam_step
from .tensor import Parameter, Tensor, channel_norm, matmul, softmax_rows

__version__ = "0.1.0"
