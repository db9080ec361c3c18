"""mindalign: shared-subject brain-to-image decoding on a synthetic world.

A linear "world" stands in for stimuli, frozen feature spaces, and simulated
brains, so the full pipeline — per-subject ridge alignment into a shared
latent, a residual MLP backbone into a frozen token space, a denoising prior,
contrastive retrieval, a low-level head, multi-subject pretraining, and
few-session fine-tuning — can be trained and measured end to end on a CPU in
minutes, with every mechanism checkable against analytic ground truth.
"""

from .evaluate import (
    EncodingModel,
    EvalConfig,
    EvalReport,
    brain_correlation,
    evaluate_model,
    pixcorr,
    reconstruct,
    retrieval_eval,
    run_scaling,
    ssim,
    two_way_identification,
)
from .losses import (
    LossWeights,
    bimixco_loss,
    loss_phase,
    lowlevel_loss,
    mixco_augment,
    soft_clip_loss,
    total_loss,
)
from .model import (
    ModelConfig,
    ModelParams,
    init_model,
    load_checkpoint,
    prior_sample,
    save_checkpoint,
)
from .optim import AdamW
from .tensor import Tensor, backward, gradcheck
from .train import (
    TrainConfig,
    TrainLog,
    ablation_run,
    finetune,
    pretrain,
    train_from_scratch,
)
from .world import (
    SubjectDataset,
    WorldConfig,
    WorldSpec,
    decode_tokens,
    generate_dataset,
    generate_world,
    normalize,
    token_targets,
)

__version__ = "0.1.0"
