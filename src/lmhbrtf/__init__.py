"""Robust Bayesian factorization of higher-order tensors.

Decomposes a corrupted order-d tensor (d >= 3) into a low-multi-rank
part, a sparse outlier part and dense Gaussian noise, inferring all
posteriors and the per-slice ranks automatically by variational
inference over a transform-domain factorization.
"""

__version__ = "0.1.0"

from .errors import ImaginaryResidueError, NumericalBreakdownError
from .metrics import MetricReport, compute_all, ergas, psnr, sam, ssim
from .model import (
    HyperParams,
    ModelState,
    RunResult,
    RunTrace,
    init_state,
    run,
)
from .npyio import read_tensor, write_tensor
from .report import RunReport
from .synth import (
    SynthConfig,
    SynthInstance,
    corrupt_tensor,
    desk_multirank,
    generate,
    protocol_hyperparams,
    r_err,
    run_benchmark,
    uniform_multirank,
    x_err,
)
from .tensor import bdiag, frobenius_norm, linear_to_slice, slice_to_linear
from .transform import Transform, real_part
from .tsvd import (
    TSVDResult,
    conj_transpose,
    facewise_product,
    factorize_lemma1,
    identity_tensor,
    multi_rank,
    t_product,
    t_qr,
    t_svd,
    truncate_multi_rank,
    tubal_rank,
)

__all__ = [
    "__version__",
    "ImaginaryResidueError",
    "NumericalBreakdownError",
    "MetricReport", "compute_all", "ergas", "psnr", "sam", "ssim",
    "HyperParams", "ModelState", "RunResult", "RunTrace", "init_state", "run",
    "read_tensor", "write_tensor",
    "RunReport",
    "SynthConfig", "SynthInstance", "corrupt_tensor", "desk_multirank",
    "generate", "protocol_hyperparams", "r_err", "run_benchmark",
    "uniform_multirank", "x_err",
    "bdiag", "frobenius_norm", "linear_to_slice", "slice_to_linear",
    "Transform", "real_part",
    "TSVDResult", "conj_transpose", "facewise_product", "factorize_lemma1",
    "identity_tensor", "multi_rank", "t_product", "t_qr", "t_svd",
    "truncate_multi_rank", "tubal_rank",
]
