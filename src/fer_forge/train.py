"""Training loop with plateau early stopping, plus the evaluation suite.

Early stopping follows the plateau rule: stop once the monitored accuracy
has not changed (within a tolerance) over a window of consecutive epochs.
Epoch accuracy defaults to the running estimate over the epoch's own batch
predictions; ``strict_epoch_eval`` replaces it with a dropout-free full
pass over the training set.
"""

import time
from dataclasses import dataclass, field

import numpy as np

from .data import NUM_CLASSES, LabeledDataset, batches
from .models import Network
from .optim import Optimizer, OptimizerConfig
from .seeding import DEFAULT_SEED, derive_seed

EVAL_BATCH = 64


class TrainingDivergedError(RuntimeError):
    def __init__(self, epoch: int, batch: int, loss: float):
        super().__init__(f"non-finite loss {loss} at epoch {epoch}, batch {batch}")
        self.epoch = epoch
        self.batch = batch


@dataclass
class TrainConfig:
    optimizer: OptimizerConfig
    batch_size: int = 128
    max_epochs: int = 100
    early_stop_window: int = 4
    early_stop_tol: float = 5e-4
    seed: int = DEFAULT_SEED
    strict_epoch_eval: bool = False
    stop_at_accuracy: float | None = None

    def __post_init__(self):
        if self.max_epochs < 0:
            raise ValueError(f"max_epochs must be >= 0, got {self.max_epochs}")
        if self.early_stop_window < 1:
            raise ValueError(f"early stop window must be >= 1, got {self.early_stop_window}")
        if self.early_stop_tol < 0:
            raise ValueError(f"early stop tolerance must be >= 0, got {self.early_stop_tol}")
        if self.batch_size < 1:
            raise ValueError(f"batch size must be >= 1, got {self.batch_size}")


@dataclass
class EpochLog:
    epoch: int
    loss: float
    accuracy: float
    seconds: float


@dataclass
class ConfusionMatrix:
    """7x7 count table; rows are true classes, columns predictions."""

    counts: np.ndarray = field(default_factory=lambda: np.zeros((NUM_CLASSES, NUM_CLASSES), int))

    def accuracy(self) -> float:
        total = self.counts.sum()
        return float(np.trace(self.counts) / total) if total else 0.0

    def to_csv(self) -> str:
        lines = ["true\\pred," + ",".join(str(c) for c in range(NUM_CLASSES))]
        for i in range(NUM_CLASSES):
            lines.append(f"{i}," + ",".join(str(int(v)) for v in self.counts[i]))
        return "\n".join(lines) + "\n"

    def to_table(self) -> str:
        width = max(5, len(str(int(self.counts.max(initial=0)))) + 1)
        header = "true\\pred" + "".join(f"{c:>{width}}" for c in range(NUM_CLASSES))
        lines = [header]
        for i in range(NUM_CLASSES):
            lines.append(f"{i:>9}" + "".join(f"{int(v):>{width}}" for v in self.counts[i]))
        return "\n".join(lines)


def accuracy(predictions, truths) -> float:
    """Fraction of correctly predicted labels."""
    preds = np.asarray(predictions)
    true = np.asarray(truths)
    if preds.shape != true.shape:
        raise ValueError(f"prediction/truth lengths differ: {preds.shape} vs {true.shape}")
    if preds.size == 0:
        raise ValueError("accuracy of an empty prediction set is undefined")
    return float((preds == true).mean())


def confusion(predictions, truths) -> ConfusionMatrix:
    preds = np.asarray(predictions, dtype=np.int64)
    true = np.asarray(truths, dtype=np.int64)
    if ((preds < 0) | (preds >= NUM_CLASSES) | (true < 0) | (true >= NUM_CLASSES)).any():
        raise ValueError("labels must be in 0..6")
    counts = np.zeros((NUM_CLASSES, NUM_CLASSES), dtype=np.int64)
    np.add.at(counts, (true, preds), 1)
    return ConfusionMatrix(counts)


def topk_accuracy(prob_vectors: np.ndarray, truths, k: int = 2) -> float:
    """Fraction of samples whose true class is among the k most probable.

    Probability ties rank the lower class index first, matching argmax
    tie breaking at k=1.
    """
    probs = np.asarray(prob_vectors)
    true = np.asarray(truths)
    if probs.ndim != 2 or probs.shape[0] != true.shape[0]:
        raise ValueError(f"need [N,{NUM_CLASSES}] probabilities and N truths, got {probs.shape}")
    order = np.argsort(-probs, axis=1, kind="stable")
    hits = (order[:, :k] == true[:, None]).any(axis=1)
    return float(hits.mean())


def early_stop(history: list[float], window: int, tol: float) -> bool:
    """True iff the last ``window`` epoch-over-epoch changes all stayed within tol."""
    if len(history) < window + 1:
        return False
    recent = history[-(window + 1):]
    return all(abs(b - a) <= tol for a, b in zip(recent, recent[1:]))


def argmax_labels(probs: np.ndarray) -> np.ndarray:
    """Predicted classes; ties resolve to the lowest class index."""
    return np.argmax(probs, axis=-1)


def evaluate(net: Network, dataset: LabeledDataset):
    """Dropout-free predictions over a dataset: (accuracy, probs, preds).

    Images go through ``Network.forward`` in batches of EVAL_BATCH, which
    runs each batch as shards of at most ``models.SHARD_IMAGES`` images; the
    shards, not EVAL_BATCH, bound the transient activations and per-tap GEMM
    products of the conv layers.
    """
    all_probs = np.zeros((len(dataset), NUM_CLASSES), dtype=np.float32)
    for start in range(0, len(dataset), EVAL_BATCH):
        xb = dataset.images[start : start + EVAL_BATCH]
        all_probs[start : start + xb.shape[0]] = net.forward(xb)
    preds = argmax_labels(all_probs)
    return accuracy(preds, dataset.labels), all_probs, preds


def train(
    net: Network, dataset: LabeledDataset, cfg: TrainConfig
) -> tuple[Network, list[EpochLog], str]:
    """Optimize ``net`` on ``dataset``; returns (net, epoch logs, stop reason)."""
    if len(dataset) == 0:
        raise ValueError("cannot train on an empty dataset")
    opt = Optimizer(cfg.optimizer, net.parameters())
    logs: list[EpochLog] = []
    history: list[float] = []
    stop_reason = "max_epochs"
    for epoch in range(cfg.max_epochs):
        started = time.perf_counter()
        loss_sum = 0.0
        correct = 0
        seen = 0
        shuffle_seed = derive_seed(cfg.seed, "shuffle", epoch)
        for batch_idx, (xb, yb) in enumerate(batches(dataset, cfg.batch_size, shuffle_seed)):
            rng = np.random.default_rng(derive_seed(cfg.seed, "dropout", epoch, batch_idx))
            loss, probs = net.loss_and_grad(xb, yb, rng=rng)
            if not np.isfinite(loss):
                raise TrainingDivergedError(epoch, batch_idx, loss)
            opt.step(net.gradients())
            loss_sum += loss * xb.shape[0]
            correct += int((argmax_labels(probs) == yb.argmax(axis=1)).sum())
            seen += xb.shape[0]
        if cfg.strict_epoch_eval:
            epoch_acc, _, _ = evaluate(net, dataset)
        else:
            epoch_acc = correct / seen
        logs.append(EpochLog(epoch, loss_sum / seen, epoch_acc, time.perf_counter() - started))
        history.append(epoch_acc)
        if cfg.stop_at_accuracy is not None and epoch_acc >= cfg.stop_at_accuracy:
            stop_reason = "target_accuracy"
            break
        if early_stop(history, cfg.early_stop_window, cfg.early_stop_tol):
            stop_reason = "early_stop"
            break
    return net, logs, stop_reason


def epoch_logs_csv(logs: list[EpochLog]) -> str:
    lines = ["epoch,loss,accuracy,seconds"]
    lines += [f"{l.epoch},{l.loss:.6f},{l.accuracy:.6f},{l.seconds:.3f}" for l in logs]
    return "\n".join(lines) + "\n"
