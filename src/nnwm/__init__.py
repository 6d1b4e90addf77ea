"""Structural CNN watermarking via channel pruning."""

from .errors import (
    ArchitectureMismatchError,
    AttackConfigError,
    BlobFormatError,
    BlobSizeError,
    CapacityError,
    CodecError,
    CriterionError,
    ManifestError,
    NnwmError,
    PlanError,
    ShapeConsistencyError,
    TrainConfigError,
)
from .importance import score
from .model_store import (
    BatchNormLayer,
    ConvLayer,
    GlobalAvgPoolLayer,
    LinearLayer,
    MaxPoolLayer,
    ModelGraph,
    ReluLayer,
    channel_counts,
    clone_graph,
    conv_layer_indices,
    load_arch,
    load_model,
    save_model,
    validate,
)
from .pipeline import (
    ExtractionResult,
    VerifyReport,
    attack_noise,
    attack_structural,
    attack_zero_weights,
    eligible_layers,
    embed,
    extract,
    verify,
)
from .pruner import (
    Receipt,
    ReceiptLayer,
    apply_prune,
    load_receipt,
    plan_layer,
    save_receipt,
)
from .toy_trainer import (
    Batch,
    TrainConfig,
    backward,
    evaluate,
    finetune,
    forward,
    loss_softmax_ce,
    sgd_step,
    synth_dataset,
    to_precision,
)
from .wm_codec import (
    EmbedParams,
    KeyStream,
    WatermarkPayload,
    assemble_bits,
    capacity,
    encode_rate,
    key_fingerprint,
    min_channels,
    rate_to_channel_count,
    segment,
    select_layers,
)

__version__ = "0.1.0"
