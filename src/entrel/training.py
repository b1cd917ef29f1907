"""Mini-batch SGD with L2 regularization, dev-driven learning-rate halving,
best-on-dev checkpointing, and the gradient-check harness.

Determinism: all randomness flows from the config seed. Identical
(queries, config, initial params) produce identical logs and checkpoints at
a fixed BLAS thread count. The BLAS library may split a matrix product across
threads and sum its parts in another order at another count, so the same run
then differs in the last bits: s1's last-epoch train loss read 0.7417083366
at one OpenBLAS thread and 0.7417083871 at two.
"""

import json
import math
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from entrel import crf
from entrel.kernels import rel_error
from entrel.model import (
    ModelParams,
    backward_query,
    forward_sentences,
    gold_indices,
    output_chain,
    predict_queries,
    save_checkpoint,
    sentence_groups,
)
from entrel.evaluation import score_queries
from entrel.querygen import ConfigError

LR_FLOOR = 1e-6  # training stops once halving takes the learning rate below this
GRAD_CHECK_EPSILON = 1e-5  # central-difference step of grad_check
# values in the scratch through which sgd_step updates a hidden weight's rows
STEP_BLOCK = 1 << 18
# sgd_step folds a hidden weight's scale into its values below this: the
# values grow as the scale shrinks, (1 - lr * l2) per step, and must not
# overflow the dtype in a long epoch
SCALE_FLOOR = 1e-6


@dataclass
class TrainConfig:
    batch_size: int = 10
    learning_rate: float = 0.1
    l2: float = 1e-3
    max_epochs: int = 20
    seed: int = 13
    setup: int = 1
    neg_keep_prob: float | None = None
    masked_decode: bool = False

    def __post_init__(self):
        if self.batch_size < 1 or self.learning_rate <= 0 or self.l2 < 0:
            raise ConfigError("batch_size, learning_rate and l2 must be positive")
        if self.learning_rate * self.l2 >= 1:
            raise ConfigError("learning_rate * l2 must be below 1, so that the L2 decay "
                              "factor 1 - learning_rate * l2 stays positive")
        if self.max_epochs < 0:
            raise ConfigError("max_epochs must be >= 0")
        if self.setup not in (1, 2, 3):
            raise ConfigError(f"setup must be 1, 2 or 3, got {self.setup}")


@dataclass
class TrainState:
    epoch: int = 0
    lr: float = 0.0
    best_metric: float | None = None
    best_path: str | None = None
    log: list = field(default_factory=list)


def _batch_nll(queries, params: ModelParams):
    """One batched forward and loss call over queries from any sentences:
    ((losses [B], grad_d [B, 3, N], grad_q summed over the batch), cache),
    rows grouped by sentence."""
    groups = [[queries[i] for i in members] for members in sentence_groups(queries)]
    d, cache = forward_sentences(groups, params)
    gold = [gold_indices(query, params.label_space) for group in groups for query in group]
    q, allowed = output_chain(params)
    return crf.nll_and_gradients(d, q, gold, allowed), cache


def query_loss_and_backward(queries, params: ModelParams) -> float:
    """Forward, loss and full backward for a batch of queries in one pass.

    Writes the gradient of the batch's mean loss into every trainable
    tensor, replacing what it held: a hidden weight keeps it as factors, any
    other tensor in its buffer. The 1/B scale applies to the score and
    transition gradients before the backward, and no buffer needs clearing
    first. The first call on a model without buffers, such as an epoch's
    first batch in train_loop, makes them; frozen embeddings and the softmax
    baseline's transitions never get a gradient. Returns the summed loss."""
    if not queries:
        raise ValueError("query_loss_and_backward: empty batch (no queries)")
    (losses, grad_d, grad_q), cache = _batch_nll(queries, params)
    scale = 1.0 / len(queries)
    grad_d *= scale
    if params.hyper.output_layer == "crf":
        np.multiply(grad_q, scale, out=params.transitions.grad)
    backward_query(grad_d, cache, params)
    return float(losses.sum())


def _finite_gradient(tensor) -> bool:
    """Whether the gradient that sgd_step applies to ``tensor`` is finite.

    A buffer is, when its min and max are: a NaN reaches both, an infinity
    one of them. Factors X [B, in] and G [B, out] are, when the bound
    B * max|X| * max|G| on every entry of X.T @ G lies below the dtype's
    largest value by a factor of two, the margin for the product's
    rounding; a NaN or an infinity in either factor fails the bound too.
    """
    if tensor.factors is None:
        return math.isfinite(tensor.grad.min()) and math.isfinite(tensor.grad.max())
    x, g = tensor.factors
    bound = len(x) * float(np.abs(x).max()) * float(np.abs(g).max())
    return bound < float(np.finfo(x.dtype).max) / 2


def sgd_step(params: ModelParams, lr: float, l2: float):
    """theta <- theta * (1 - lr * l2) - lr * grad for every trainable tensor,
    in place.

    The gradients are the batch-mean ones that query_loss_and_backward
    wrote, and exist from its first call of the epoch until train_loop frees
    them as the epoch's batch loop ends; a buffer read before that call is
    made as zeros. Every gradient is checked (``_finite_gradient``), in
    ``trainable_tensors`` order, before any tensor moves, so a non-finite
    one leaves the parameters as they were.

    A tensor with a gradient buffer steps through it, and the buffer is left
    holding lr * grad. A hidden weight whose backward kept factors X and G
    steps in its scaled form W = s * V: the decay becomes s' = s * (1 - lr *
    l2), and V -= X.T @ G * (lr / s') runs a block of rows at a time through
    one scratch of STEP_BLOCK values, so neither a dense gradient nor a
    decay pass touches the weight's values. The factors are left as they
    were; train_loop folds s into V when the epoch's batch loop ends, and
    the step itself first folds an s below SCALE_FLOOR.
    """
    trainable = params.trainable_tensors()
    for tensor in trainable:
        if not _finite_gradient(tensor):
            raise RuntimeError(f"non-finite gradient in tensor {tensor.name}")
    decay = 1.0 - lr * l2
    # a hidden weight is h_c or h_e values wide: a block holds one row at least
    hyper = params.hyper
    scratch = np.empty(max(STEP_BLOCK, hyper.h_c, hyper.h_e), dtype=hyper.np_dtype)
    for tensor in trainable:
        if tensor.factors is None:
            grad, value = tensor.grad, tensor.value
            grad *= lr
            if l2:
                value *= decay
            value -= grad
            continue
        x, g = tensor.factors
        tensor.fold(below=SCALE_FLOOR)
        tensor.scale *= decay
        g = g * (lr / tensor.scale)
        stored = tensor.stored
        rows = max(1, STEP_BLOCK // stored.shape[1])
        for start in range(0, len(stored), rows):
            block = stored[start : start + rows]
            update = scratch[: block.size].reshape(block.shape)
            np.matmul(x[:, start : start + rows].T, g, out=update)
            block -= update


def train_loop(params: ModelParams, train_queries, dev_queries, config: TrainConfig,
               out_dir, dev_sentences, log_path) -> TrainState:
    """Epochs of seeded shuffled mini-batches with dev-driven lr halving.

    After each epoch the dev Avg EC+RE is computed over ``dev_sentences``;
    when it drops below the previous epoch's value the learning rate halves.
    The best-on-dev checkpoint is kept in ``out_dir`` alongside the final
    one. Without dev queries no epoch is best: no ``best/`` is saved,
    ``best_metric`` stays None and ``best_path`` is the final checkpoint.
    Each epoch's record is appended to ``log_path`` as the epoch ends.
    Stops at max_epochs or when the learning rate falls below LR_FLOOR.

    Gradients, buffers and hidden-weight factors alike, live from an
    epoch's first backward to the end of its batch loop: they are freed,
    and the hidden weights' scales folded into their values, before dev
    scoring, before the epoch's checkpoint writes, and before a failed
    batch's error leaves this function, so the model this returns holds
    values alone. The failed batch's own save reads each weight's value,
    which folds its scale, so it writes the same numbers.

    A batch whose loss, backward or step fails raises a RuntimeError naming
    the epoch, the batch and its sentences. The parameters are then still
    those from before that batch; they are first saved as the final
    checkpoint, its ``extra`` naming the epoch and the batch. The log keeps
    the records of the epochs before it.
    """
    if not train_queries:
        raise ConfigError("empty train set")
    ls = params.label_space
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    Path(log_path).write_text("", encoding="utf-8")
    state = TrainState(lr=config.learning_rate)
    rng = np.random.default_rng((config.seed, 1))
    prev_metric = None

    for epoch in range(1, config.max_epochs + 1):
        state.epoch = epoch
        order = rng.permutation(len(train_queries))
        epoch_loss = 0.0
        try:
            for number, start in enumerate(range(0, len(order), config.batch_size), start=1):
                batch = [train_queries[index] for index in order[start : start + config.batch_size]]
                epoch_loss += query_loss_and_backward(batch, params)
                sgd_step(params, state.lr, config.l2)
        except RuntimeError as exc:
            ids = ", ".join(dict.fromkeys(query.sentence_id for query in batch))
            save_checkpoint(out_dir / "final", params, config.seed,
                            extra={"epoch": epoch, "batch": number})
            raise RuntimeError(f"epoch {epoch}, batch {number} (sentences {ids}): "
                               f"{exc}") from None
        finally:
            params.drop_gradients()
        train_loss = epoch_loss / len(train_queries)

        metric = 0.0
        report = None
        if dev_queries:
            preds = predict_queries(dev_queries, params, config.masked_decode)
            report = score_queries(dev_queries, preds, config.setup, ls, dev_sentences)
            metric = report.avg_ec_re if report.avg_ec_re is not None else 0.0

        improved = bool(dev_queries) and (state.best_metric is None
                                          or metric > state.best_metric)
        if improved:
            state.best_metric = metric
            state.best_path = str(out_dir / "best")
            save_checkpoint(state.best_path, params, config.seed, extra={"epoch": epoch})

        halved = prev_metric is not None and metric < prev_metric
        lr_used = state.lr
        if halved:
            state.lr = state.lr / 2.0
        prev_metric = metric

        record = {
            "epoch": epoch,
            "lr": lr_used,
            "train_loss": train_loss,
            "dev_avg_ec": None if report is None else report.avg_ec,
            "dev_avg_re": None if report is None else report.avg_re,
            "dev_avg_ec_re": None if report is None else report.avg_ec_re,
            "halved": halved,
            "lr_next": state.lr,
            "improved": improved,
        }
        state.log.append(record)
        with open(log_path, "a", encoding="utf-8") as handle:
            handle.write(json.dumps(record, sort_keys=True) + "\n")
        if state.lr < LR_FLOOR:
            break

    save_checkpoint(out_dir / "final", params, config.seed, extra={"epoch": state.epoch})
    if state.best_path is None:
        state.best_path = str(out_dir / "final")
    return state


@dataclass
class GradCheckReport:
    tolerance: float
    errors: dict  # tensor name -> max scaled discrepancy

    @property
    def passed(self) -> bool:
        return all(err < self.tolerance for err in self.errors.values())


def grad_check(params: ModelParams, queries, l2: float = 0.0,
               tolerance: float = 1e-4) -> GradCheckReport:
    """Compare the analytic gradient of every trainable tensor against
    central finite differences.

    The objective is the mean query loss plus l2/2 * sum of squared trainable
    parameters (matching what sgd_step descends). Runs on float64 models
    only, such as ``HyperParams()``: at a step of GRAD_CHECK_EPSILON, float32
    rounding of the loss (about 1e-7 relative) would swamp the differences.
    The float32 models ``HyperParams.defaults_for`` gives run the same
    kernels, so this check gates their gradients too.
    """
    if params.hyper.dtype != "float64":
        raise ConfigError("grad_check requires float64 parameters")
    selected = params.trainable_tensors()
    if not queries:
        raise ConfigError("grad_check needs at least one query")

    def objective():
        total = float(_batch_nll(queries, params)[0][0].sum()) / len(queries)
        if l2 > 0:
            total += 0.5 * l2 * sum(float((t.value ** 2).sum())
                                    for t in params.trainable_tensors())
        return total

    query_loss_and_backward(queries, params)
    analytic = {tensor.name: tensor.grad + l2 * tensor.value for tensor in selected}

    errors = {}
    for tensor in selected:
        numeric = np.zeros_like(tensor.value)
        flat_value = tensor.value.reshape(-1)
        flat_numeric = numeric.reshape(-1)
        for idx in range(flat_value.size):
            original = flat_value[idx]
            flat_value[idx] = original + GRAD_CHECK_EPSILON
            up = objective()
            flat_value[idx] = original - GRAD_CHECK_EPSILON
            down = objective()
            flat_value[idx] = original
            flat_numeric[idx] = (up - down) / (2 * GRAD_CHECK_EPSILON)
        errors[tensor.name] = rel_error(analytic[tensor.name], numeric)
    report = GradCheckReport(tolerance, errors)
    if math.isnan(sum(errors.values(), 0.0)):
        raise RuntimeError("gradient check produced NaN discrepancies")
    return report
