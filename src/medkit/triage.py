"""Supervised triage classifier head and its training/evaluation loop.

The head runs a stacked bidirectional LSTM over the encoder's token
representations, concatenates the two final hidden states with the [CLS]
summary vector, pushes the fused vector through a stack of dendritic layers
(each one a learned linear map of the element-wise square of its input), and
finishes with a dense softmax over the label set. Like the encoder it takes
only batches: the encoder's output for a packed TokenBatch in, (B,
num_classes) logits out.
"""

from __future__ import annotations

import functools
from dataclasses import asdict, dataclass, field

import numpy as np

from . import numerics as nm
from .encoder import Encoder, EncoderOutput
from .numerics import Rng, Tensor
from .tokenizer import TokenBatch


@dataclass
class TriageConfig:
    hidden_dim: int
    num_classes: int
    num_lstm_layers: int = 2  # parameter-study optimum
    num_dd_layers: int = 3  # parameter-study optimum
    use_bilstm: bool = True
    use_cls: bool = True
    use_dd: bool = True

    def __post_init__(self):
        if not (self.use_bilstm or self.use_cls):
            raise ValueError("at least one of BiLSTM / CLS features must be enabled")
        if self.num_classes < 2:
            raise ValueError("need at least two classes")
        if self.use_bilstm and self.num_lstm_layers < 1:
            raise ValueError(f"num_lstm_layers must be >= 1 with the BiLSTM on, got {self.num_lstm_layers}")
        if self.use_dd and self.num_dd_layers < 1:
            raise ValueError(f"num_dd_layers must be >= 1 with the dendritic layers on, got {self.num_dd_layers}")

    @property
    def fused_dim(self) -> int:
        return (2 * self.hidden_dim if self.use_bilstm else 0) + (self.hidden_dim if self.use_cls else 0)


def lstm_direction(x: Tensor, wx: Tensor, wh: Tensor, b: Tensor, reverse: bool, lengths=None):
    """numerics.lstm over the rows of x and the (sequences, hidden) states
    after each sequence's last step: returns (outputs, final_h)."""
    outputs = nm.lstm(x, wx, wh, b, reverse, lengths)
    lengths = np.array([x.shape[0]] if lengths is None else lengths)
    ends = np.cumsum(lengths)
    return outputs, nm.take_rows(outputs, ends - lengths if reverse else ends - 1)


class TriageHead:
    """Trainable parameters for the BiLSTM + fusion + dendritic + dense head."""

    def __init__(self, config: TriageConfig, rng: Rng | None):
        self.config = config
        k = config.hidden_dim
        params: dict[str, Tensor] = {}
        if config.use_bilstm:
            for layer in range(config.num_lstm_layers):
                in_dim = k if layer == 0 else 2 * k
                for direction in ("fwd", "bwd"):
                    params[f"lstm{layer}.{direction}.wx"] = nm.xavier_uniform(rng, in_dim, 4 * k)
                    params[f"lstm{layer}.{direction}.wh"] = nm.xavier_uniform(rng, k, 4 * k)
                    params[f"lstm{layer}.{direction}.b"] = nm.zeros_param(4 * k)
        dense_in = config.fused_dim
        if config.use_dd:
            dims = [config.fused_dim] + [k] * config.num_dd_layers
            for layer in range(config.num_dd_layers):
                params[f"dd{layer}.w"] = nm.xavier_uniform(rng, dims[layer], dims[layer + 1])
            dense_in = k
        params["dense.w"] = nm.xavier_uniform(rng, dense_in, config.num_classes)
        params["dense.b"] = nm.zeros_param(config.num_classes)
        self.params = params

    def forward_logits(self, encoder_output: EncoderOutput) -> Tensor:
        """(B, num_classes) logits of a batch of encoded sequences."""
        cfg = self.config
        fused = encoder_output.cls_vector
        if cfg.use_bilstm:
            summary = bilstm(encoder_output.token_reps, encoder_output.lengths, self.params, cfg.num_lstm_layers)
            fused = nm.concat([summary, fused], axis=1) if cfg.use_cls else summary
        features = dendrite(fused, [self.params[f"dd{i}.w"] for i in range(cfg.num_dd_layers)]) if cfg.use_dd else fused
        return nm.matmul(features, self.params["dense.w"]) + self.params["dense.b"]


def bilstm(token_reps: Tensor, lengths, params: dict, num_layers: int) -> Tensor:
    """Run the stacked bidirectional LSTM over each sequence of a packed
    batch (token_reps has one row per token, `lengths` rows per sequence)
    and return the top layer's (B, 2 * hidden) [forward final ; backward
    final]."""
    lengths = np.asarray(lengths)
    if not lengths.all():
        raise ValueError("bilstm needs at least one real token")
    x = token_reps
    for layer in range(num_layers):
        outs_f, final_f = lstm_direction(x, params[f"lstm{layer}.fwd.wx"], params[f"lstm{layer}.fwd.wh"], params[f"lstm{layer}.fwd.b"], reverse=False, lengths=lengths)
        outs_b, final_b = lstm_direction(x, params[f"lstm{layer}.bwd.wx"], params[f"lstm{layer}.bwd.wh"], params[f"lstm{layer}.bwd.b"], reverse=True, lengths=lengths)
        x = nm.concat([outs_f, outs_b], axis=1)
    return nm.concat([final_f, final_b], axis=1)


def dendrite(fused: Tensor, weight_stack: list[Tensor]) -> Tensor:
    """Apply the dendritic rule repeatedly to a (B, dim) batch: out = (x ⊙ x)
    @ W per layer."""
    for w in weight_stack:
        fused = nm.matmul(fused * fused, w)
    return fused


# -- training ------------------------------------------------------------------


def _logits(encoder: Encoder, head: TriageHead, sequences) -> Tensor:
    """(B, num_classes) logits of a list of sequences, one batched forward pass."""
    return head.forward_logits(encoder.encode(TokenBatch.stack(sequences)))


def supervised_loss(encoder: Encoder, head: TriageHead, batch, _rng=None) -> tuple[Tensor, int, int]:
    """numerics.fit's (loss, weight, correct) for a list of (ids, label_id)
    pairs, ids from tokenizer.encode: the mean cross-entropy, logged per sample."""
    labels = [label for _, label in batch]
    logits = _logits(encoder, head, [seq for seq, _ in batch])
    return nm.softmax_cross_entropy(logits, labels), len(batch), int(np.sum(np.argmax(logits.data, axis=1) == labels))


def train_supervised(encoder: Encoder, head: TriageHead, dataset, config: nm.TrainConfig, lr_encoder: float) -> nm.TrainHistory:
    """Jointly fine-tune encoder and head with two learning-rate groups, the
    head at config.lr and the encoder at `lr_encoder`, through numerics.fit;
    the logged loss is the per-sample mean, and divergence rolls both back to
    the last completed epoch.

    `dataset` is a list of (tokenizer.encode ids, label_id). The returned
    history's optimizer_state shows both groups and their rates.
    """
    num_classes = head.config.num_classes
    for _, label in dataset:
        if not 0 <= label < num_classes:
            raise ValueError(f"label id {label} outside the fixed label set")
    groups = [{"name": "head", "lr": config.lr, "params": head.params}, {"name": "encoder", "lr": lr_encoder, "params": encoder.params}]
    return nm.fit(functools.partial(supervised_loss, encoder, head), dataset, groups, config, "triage.train")


def predict_labels(encoder: Encoder, head: TriageHead, sequences, batch_size: int = 8) -> list[int]:
    """Argmax labels, `batch_size` sequences per no-grad forward pass."""
    with nm.no_grad():
        return [int(label) for start in range(0, len(sequences), batch_size) for label in np.argmax(_logits(encoder, head, sequences[start : start + batch_size]).data, axis=1)]


# -- evaluation ----------------------------------------------------------------


@dataclass
class ClsMetrics:
    accuracy: float
    macro_precision: float
    macro_recall: float
    macro_f1: float
    confusion: dict[int, dict[int, int]] = field(default_factory=dict)

    def to_json(self) -> dict:
        return {**asdict(self), "confusion": {str(g): {str(p): n for p, n in row.items()} for g, row in self.confusion.items()}}


def evaluate(predictions, gold_labels) -> ClsMetrics:
    """Accuracy plus macro precision/recall/F1 over classes present in gold.

    Per-class F1 is the harmonic mean of that class's precision and recall
    (0 when both are 0); the macro scores are unweighted means.
    """
    preds = list(predictions)
    gold = list(gold_labels)
    if not gold or len(preds) != len(gold):
        raise ValueError("predictions and gold labels must be equal-length and non-empty")
    classes = sorted(set(gold))
    confusion: dict[int, dict[int, int]] = {g: {} for g in classes}
    for p, g in zip(preds, gold):
        confusion[g][p] = confusion[g].get(p, 0) + 1
    correct = sum(1 for p, g in zip(preds, gold) if p == g)
    precisions, recalls, f1s = [], [], []
    for c in classes:
        tp = sum(1 for p, g in zip(preds, gold) if p == c and g == c)
        pred_c = sum(1 for p in preds if p == c)
        gold_c = sum(1 for g in gold if g == c)
        prec = tp / pred_c if pred_c else 0.0
        rec = tp / gold_c if gold_c else 0.0
        f1 = 2 * prec * rec / (prec + rec) if (prec + rec) > 0 else 0.0
        precisions.append(prec)
        recalls.append(rec)
        f1s.append(f1)
    return ClsMetrics(
        accuracy=correct / len(gold),
        macro_precision=sum(precisions) / len(classes),
        macro_recall=sum(recalls) / len(classes),
        macro_f1=sum(f1s) / len(classes),
        confusion=confusion,
    )
