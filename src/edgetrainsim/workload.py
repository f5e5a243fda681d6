"""Analytic cost model for Transformer training workloads.

Parameter count, FLOPs per iteration and memory footprint are derived from
the architecture description alone, the MLP width included: every cost reads
``mlp_ratio`` (r, the MLP hidden size over the model width; 4 in every
preset).  No tensors are ever materialized.  All functions are pure and
deterministic.

Byte-size conventions:
  * parameter/optimizer state: ``param_bytes * optimizer_state_multiplier``
    bytes per parameter (default 4 * 4 = 16, an fp32 Adam-style optimizer).
  * activations: the per-block closed form ``s*m*h*(18 + 4*r + 5*a*s/h)``
    bytes is an fp16 reference and is scaled by ``activation_bytes_factor``
    (default 2, i.e. fp32 activations).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

# Floats count whole numbers exactly up to 2**53, and the cost model and the
# share split compute in floats, so no count may exceed it.
MAX_COUNT = 2**53


def _check_counts(obj, names):
    for name in names:
        if getattr(obj, name) > MAX_COUNT:
            raise ValueError(f"{name} must be at most 2**53")


@dataclass(frozen=True)
class TransformerSpec:
    """Architecture of a stacked-Transformer model."""

    name: str
    num_blocks: int
    hidden_size: int
    num_heads: int
    vocab_size: int
    mlp_ratio: int = 4

    def __post_init__(self):
        _check_counts(self, ("num_blocks", "hidden_size", "num_heads",
                             "vocab_size", "mlp_ratio"))
        if self.num_blocks < 0:
            raise ValueError("num_blocks must be >= 0")
        if self.hidden_size < 1 or self.num_heads < 1 or self.vocab_size < 1:
            raise ValueError("hidden_size, num_heads and vocab_size must be >= 1")
        if self.mlp_ratio < 1:
            raise ValueError("mlp_ratio must be >= 1")
        if self.hidden_size % self.num_heads != 0:
            raise ValueError(
                f"hidden_size ({self.hidden_size}) must be divisible by "
                f"num_heads ({self.num_heads})"
            )


@dataclass(frozen=True)
class TrainingJob:
    """Batching and precision configuration of one training task."""

    global_batch: int
    seq_len: int
    micro_batch: int
    dp_sync_period: int = 5
    param_bytes: float = 4.0
    optimizer_state_multiplier: float = 4.0
    activation_bytes_factor: float = 2.0

    def __post_init__(self):
        _check_counts(self, ("global_batch", "seq_len", "micro_batch",
                             "dp_sync_period"))
        if self.global_batch < 1 or self.seq_len < 1:
            raise ValueError("global_batch and seq_len must be >= 1")
        if not 1 <= self.micro_batch <= self.global_batch:
            raise ValueError("micro_batch must be in [1, global_batch]")
        if self.global_batch % self.micro_batch != 0:
            raise ValueError("micro_batch must divide global_batch")
        if self.dp_sync_period < 1:
            raise ValueError("dp_sync_period must be >= 1")
        for name in ("param_bytes", "optimizer_state_multiplier",
                     "activation_bytes_factor"):
            # `not 0 < x < inf` also rejects NaN.
            if not 0 < getattr(self, name) < math.inf:
                raise ValueError(f"{name} must be finite and > 0, "
                                 f"got {getattr(self, name)}")

    @property
    def micro_batch_count(self) -> int:
        return self.global_batch // self.micro_batch

    @property
    def activation_elem_bytes(self) -> float:
        """Bytes per activation element (2-byte fp16 reference times factor)."""
        return 2.0 * self.activation_bytes_factor


def param_count(spec: TransformerSpec) -> int:
    """Total parameters: (4 + 2*r)*L*h^2 block weights plus a tied V*h
    embedding.

    Each block holds 4*h^2 attention weights and two r*h^2 MLP matrices.
    """
    h = spec.hidden_size
    return ((4 + 2 * spec.mlp_ratio) * spec.num_blocks * h * h
            + spec.vocab_size * h)


def flops_per_iteration(spec: TransformerSpec, job: TrainingJob) -> float:
    """Forward+backward FLOPs of one iteration over the global batch.

    6*B*s FLOPs per block weight (2 FLOP/MAC forward, x3 for fwd+bwd), so
    6*B*s*(4 + 2*r)*L*h^2 for the blocks, plus the attention score/context
    matmuls and the LM head.
    """
    b, s = job.global_batch, job.seq_len
    l, h, v = spec.num_blocks, spec.hidden_size, spec.vocab_size
    block_term = 6.0 * b * s * ((4.0 + 2.0 * spec.mlp_ratio) * l * h * h)
    attn_term = 12.0 * l * b * s * s * h
    head_term = 6.0 * b * s * h * v
    return block_term + attn_term + head_term


def activation_bytes_per_block(spec: TransformerSpec,
                               job: TrainingJob) -> float:
    """Stored activation bytes of one block for one of the job's
    micro-batches: factor*s*m*h*(18 + 4*r + 5*a*s/h).

    The MLP's two r*h-wide tensors (the GeLU's input and output, fp16) store
    4*r bytes per token and model-width element; the rest of the block
    stores 18.
    """
    s, m, h, a = job.seq_len, job.micro_batch, spec.hidden_size, spec.num_heads
    fp16_ref = s * m * h * (18.0 + 4.0 * spec.mlp_ratio + 5.0 * a * s / h)
    return job.activation_bytes_factor * fp16_ref


def state_bytes(spec: TransformerSpec, job: TrainingJob) -> float:
    """Weights + gradients + optimizer moments, in bytes."""
    return param_count(spec) * job.param_bytes * job.optimizer_state_multiplier


def full_replication_memory(spec: TransformerSpec, job: TrainingJob) -> float:
    """Per-device bytes when the whole model is replicated on one device.

    Activations are sized by the micro-batch: gradient accumulation keeps
    only one micro-batch worth of per-block activations alive.
    """
    act = activation_bytes_per_block(spec, job)
    return state_bytes(spec, job) + spec.num_blocks * act


# The four built-in model presets.  Vocabulary sizes are the canonical values
# for the named checkpoints (the architecture tables in common model cards).
MODEL_PRESETS: dict[str, TransformerSpec] = {
    "distilbert": TransformerSpec("distilbert", num_blocks=6, hidden_size=768,
                                  num_heads=12, vocab_size=30522),
    "gpt2-s": TransformerSpec("gpt2-s", num_blocks=12, hidden_size=768,
                              num_heads=12, vocab_size=50257),
    "opt-350m": TransformerSpec("opt-350m", num_blocks=24, hidden_size=1024,
                                num_heads=16, vocab_size=50272),
    "gpt2-l": TransformerSpec("gpt2-l", num_blocks=36, hidden_size=1280,
                              num_heads=20, vocab_size=50257),
}


def model_preset(name: str) -> TransformerSpec:
    try:
        return MODEL_PRESETS[name]
    except KeyError:
        known = ", ".join(sorted(MODEL_PRESETS))
        raise KeyError(f"unknown model preset {name!r} (known: {known})") from None


def default_edge_job(**overrides) -> TrainingJob:
    """Default job used by the planner and sweeps.

    B=128, s=32, micro-batch 8, gradient sync every 5 iterations.  The byte
    constants model a half-precision training runtime (2-byte parameters and
    fp16 activations): the reference 4GB-class edge boards cannot hold a
    full-precision optimizer for the 350M-parameter preset, so the runtime
    defaults assume reduced precision while the TrainingJob type defaults
    stay fp32 for standalone cost analysis.
    """
    args = dict(global_batch=128, seq_len=32, micro_batch=8, dp_sync_period=5,
                param_bytes=2.0, optimizer_state_multiplier=4.0,
                activation_bytes_factor=1.0)
    args.update(overrides)
    return TrainingJob(**args)
