"""Supervised triage classifier head and its training/evaluation loop.

The head runs a stacked bidirectional LSTM over the encoder's token
representations, concatenates the two final hidden states with the [CLS]
summary vector, pushes the fused vector through a stack of dendritic layers
(each one a learned linear map of the element-wise square of its input), and
finishes with a dense softmax over the label set.
"""

from __future__ import annotations

import logging
import time
from dataclasses import dataclass, field

import numpy as np

from . import numerics as nm
from .encoder import Encoder, TrainHistory
from .numerics import Rng, Tensor
from .tokenizer import TokenSequence

log = logging.getLogger(__name__)


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

    @property
    def fused_dim(self) -> int:
        return (2 * self.hidden_dim if self.use_bilstm else 0) + (self.hidden_dim if self.use_cls else 0)

    def to_json(self) -> dict:
        return {
            "hidden_dim": self.hidden_dim,
            "num_classes": self.num_classes,
            "num_lstm_layers": self.num_lstm_layers,
            "num_dd_layers": self.num_dd_layers,
            "use_bilstm": self.use_bilstm,
            "use_cls": self.use_cls,
            "use_dd": self.use_dd,
        }


def lstm_direction(x: Tensor, wx: Tensor, wh: Tensor, b: Tensor, reverse: bool):
    """One LSTM pass over the rows of x (seq, in_dim); returns (outputs, final_h):
    the (seq, hidden) hidden states in row order and the (1, hidden) state
    after the last step taken. Gate order is [input, forget, cell, output]."""
    outputs = nm.lstm(x, wx, wh, b, reverse)
    return outputs, outputs[0:1, :] if reverse else outputs[-1:, :]


class TriageHead:
    """Trainable parameters for the BiLSTM + fusion + dendritic + dense head."""

    def __init__(self, config: TriageConfig, rng: Rng):
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

    def load_state(self, state: dict[str, np.ndarray], prefix: str = "") -> None:
        for name, p in self.params.items():
            arr = state[prefix + name]
            if arr.shape != p.data.shape:
                raise ValueError(f"shape mismatch for {name}: {arr.shape} vs {p.data.shape}")
            p.data = np.asarray(arr, dtype=np.float64).copy()

    def dd_stack(self) -> list[Tensor]:
        return [self.params[f"dd{i}.w"] for i in range(self.config.num_dd_layers)]

    def bilstm(self, token_reps: Tensor, mask) -> Tensor:
        return bilstm(token_reps, mask, self.params, self.config.num_lstm_layers)

    def forward_logits(self, encoder_output) -> Tensor:
        cfg = self.config
        if cfg.use_bilstm and cfg.use_cls:
            fused = fuse(self._summary(encoder_output), encoder_output.cls_vector)
        else:
            fused = self._summary(encoder_output) if cfg.use_bilstm else encoder_output.cls_vector
        features = dendrite(fused, self.dd_stack()) if cfg.use_dd else fused
        return nm.matmul(features.reshape((1, -1)), self.params["dense.w"]).flatten() + self.params["dense.b"]

    def _summary(self, encoder_output) -> Tensor:
        mask = getattr(encoder_output, "attention_mask", None)
        if mask is None:
            mask = [True] * encoder_output.token_reps.shape[0]
        return self.bilstm(encoder_output.token_reps, mask)

    def forward(self, encoder_output) -> Tensor:
        """Probability distribution over the label set."""
        return nm.softmax(self.forward_logits(encoder_output), axis=-1)


def bilstm(token_reps: Tensor, mask, params: dict, num_layers: int) -> Tensor:
    """Run the stacked bidirectional LSTM over real positions only and return
    the concatenation [forward final ; backward final] of the top layer."""
    real = [i for i, m in enumerate(mask) if m]
    if not real:
        raise ValueError("bilstm needs at least one real token")
    x = nm.take_rows(token_reps, real) if len(real) != token_reps.shape[0] else token_reps
    final_f = final_b = None
    for layer in range(num_layers):
        outs_f, final_f = lstm_direction(x, params[f"lstm{layer}.fwd.wx"], params[f"lstm{layer}.fwd.wh"], params[f"lstm{layer}.fwd.b"], reverse=False)
        outs_b, final_b = lstm_direction(x, params[f"lstm{layer}.bwd.wx"], params[f"lstm{layer}.bwd.wh"], params[f"lstm{layer}.bwd.b"], reverse=True)
        x = nm.concat([outs_f, outs_b], axis=1)
    return nm.concat([final_f, final_b], axis=1).flatten()


def fuse(summary: Tensor, cls_vector: Tensor) -> Tensor:
    """Concatenate the sequence summary with the [CLS] vector, summary first."""
    if summary.ndim != 1 or cls_vector.ndim != 1:
        raise nm.ShapeError("fuse expects 1-D vectors")
    return nm.concat([summary, cls_vector], axis=0)


def dendrite(fused: Tensor, weight_stack: list[Tensor]) -> Tensor:
    """Apply the dendritic rule repeatedly: out = W @ (x ⊙ x) per layer."""
    current = fused
    for w in weight_stack:
        squared = current * current
        current = nm.matmul(squared.reshape((1, -1)), w).flatten()
    return current


# -- training ------------------------------------------------------------------


@dataclass
class TriageTrainConfig:
    epochs: int = 50
    lr_encoder: float = 5e-5
    lr_head: float = 2e-4
    batch_size: int = 8
    seed: int = 0
    stop_at_train_acc: float | None = None
    freeze_encoder: bool = False


@dataclass
class _EncoderView:
    cls_vector: Tensor
    token_reps: Tensor
    attention_mask: list[bool]


def _forward_sample(encoder: Encoder, head: TriageHead, seq: TokenSequence) -> Tensor:
    out = encoder.encode(seq)
    view = _EncoderView(out.cls_vector, out.token_reps, seq.attention_mask)
    return head.forward_logits(view)


def train_supervised(encoder: Encoder, head: TriageHead, dataset, config: TriageTrainConfig):
    """Jointly fine-tune encoder and head with two learning-rate groups.

    `dataset` is a list of (TokenSequence, label_id). Returns (history,
    optimizer_state) where the state dump shows both groups and their rates.
    """
    if not dataset:
        raise ValueError("empty training set")
    num_classes = head.config.num_classes
    for _, label in dataset:
        if not 0 <= label < num_classes:
            raise ValueError(f"label id {label} outside the fixed label set")
    rng = Rng(config.seed).spawn("triage.train")
    groups = [{"name": "head", "lr": config.lr_head, "params": head.params}]
    if not config.freeze_encoder:
        groups.append({"name": "encoder", "lr": config.lr_encoder, "params": encoder.params})
    opt = nm.Adam(groups)
    history = TrainHistory()
    for epoch in range(config.epochs):
        started = time.perf_counter()
        order = rng.permutation(len(dataset))
        epoch_loss = 0.0
        correct = 0
        for start in range(0, len(order), config.batch_size):
            chunk = [dataset[int(i)] for i in order[start : start + config.batch_size]]
            losses = []
            for seq, label in chunk:
                logits = _forward_sample(encoder, head, seq)
                if int(np.argmax(logits.data)) == label:
                    correct += 1
                losses.append(nm.softmax_cross_entropy(logits, [label], reduction="sum"))
            total = losses[0]
            for piece in losses[1:]:
                total = total + piece
            loss = nm.scale(total, 1.0 / len(chunk))
            opt.zero_grad()
            nm.backward(loss)
            opt.step()
            epoch_loss += loss.item() * len(chunk)
        train_acc = correct / len(dataset)
        history.rows.append(
            {"epoch": epoch, "loss": epoch_loss / len(dataset), "lr": config.lr_head, "seconds": time.perf_counter() - started}
        )
        log.info("triage epoch %d loss %.4f acc %.3f", epoch, epoch_loss / len(dataset), train_acc)
        if config.stop_at_train_acc is not None and train_acc >= config.stop_at_train_acc:
            break
    return history, opt.state_summary()


def predict_labels(encoder: Encoder, head: TriageHead, sequences) -> list[int]:
    with nm.no_grad():
        return [int(np.argmax(_forward_sample(encoder, head, seq).data)) for seq in sequences]


# -- evaluation ----------------------------------------------------------------


@dataclass
class ClsMetrics:
    accuracy: float
    macro_precision: float
    macro_recall: float
    macro_f1: float
    confusion: dict[int, dict[int, int]] = field(default_factory=dict)

    def to_json(self) -> dict:
        return {
            "accuracy": self.accuracy,
            "macro_precision": self.macro_precision,
            "macro_recall": self.macro_recall,
            "macro_f1": self.macro_f1,
            "confusion": {str(g): {str(p): n for p, n in row.items()} for g, row in self.confusion.items()},
        }


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
