"""Gaussian radial-basis-function network for signal-strength regression.

One hidden layer of Gaussian units z_j = exp(-||x - mu_j||^2 / (2 delta_j^2))
feeding a linear output layer Y_k = sum_j W_kj z_j. Training runs per-sample
updates of weights, centers and spans on the squared-error objective
E = 1/2 sum_k e_k^2 with e_k = d_k - y_k.

Two update modes exist. "derived_gradient" (default) is exact stochastic
gradient descent. "paper_literal" reproduces a historically published
variant whose weight update carries the opposite sign (it ascends E) and
whose center update divides by delta_j instead of delta_j^2; it is retained
for comparison experiments. Features and targets are min-max normalized to
[0, 1]; statistics come from the training split only.

Training packs the parameters into one (K + 1 + d, m) block for K outputs, d
inputs and m hidden units: K weight rows, a span row, the (d, m) centers. A
step adds one update block (np.add) and floors the span row (np.maximum); its
ufuncs take their output positionally, cheaper than out=, but np.maximum,
which deprecates that. The update's weight rows are e outer (z tau_w), its
span and center rows (rate z coef / delta) g, g being -q or diff / delta (diff
in paper_literal mode). Finiteness is checked once per epoch, as a non-finite
entry stays so (inf + x is inf or nan, np.maximum passes nan on, a span of
-inf is floored in its own step); a failed check replays the epoch checking
each step. Training, predict and the gradient check share one hidden-layer
routine on (d, m) centers, which sums squares on an (m, d) copy for d >= 8.
That routine and the step, operation by operation, are the artifact contract:
model.json, training_report.csv and predictions stay byte-identical only while
they evaluate as the reference loops in tests/test_rbf_net.py do.
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass, field, replace

import numpy as np

from .errors import (
    ConfigurationError,
    DomainError,
    SchemaError,
    TrainingDivergedError,
    open_utf8,
    parse_json,
    require,
)

SPAN_FLOOR = 1e-6  # keeps the 1/delta and 1/delta^2 update terms finite

UPDATE_MODES = ("derived_gradient", "paper_literal")

MODEL_FORMAT_VERSION = 1

PREDICT_CHUNK = 128  # rows per (rows, d, m) temporary in predict; bounds peak RSS


@dataclass
class RbfConfig:
    """Network architecture and training hyperparameters.

    tau_delta defaults to tau_mu when left as None. Learning rates may be
    zero (frozen parameters) but not negative; each given one is kept as its
    float, so a huge int trains as the float it rounds to.
    """

    m_hidden: int = 20
    input_dim: int = 4  # (D, H, F, P)
    output_dim: int = 1
    tau_w: float = 0.2
    tau_mu: float = 0.05
    tau_delta: float | None = None
    epochs: int = 500
    seed: int = 0
    update_mode: str = "derived_gradient"

    def __post_init__(self):
        checked = require(ConfigurationError, {
            "m_hidden": "int and > 0", "input_dim": "int and > 0",
            "output_dim": "int and > 0", "epochs": "int and > 0",
            "seed": "int and >= 0",
            "tau_w": "finite and >= 0", "tau_mu": "finite and >= 0",
            "tau_delta": "finite and >= 0",  # checked as tau_mu when None
        }, {**vars(self), "tau_delta": self.effective_tau_delta})
        if self.tau_delta is None:  # left out: the config echo keeps its null
            del checked["tau_delta"]
        vars(self).update(checked)
        if self.update_mode not in UPDATE_MODES:
            raise ConfigurationError(
                f"update_mode must be one of {UPDATE_MODES}, got {self.update_mode!r}"
            )

    @property
    def effective_tau_delta(self) -> float:
        return self.tau_mu if self.tau_delta is None else self.tau_delta


def _minmax_stats(data: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Column-wise (min, max); constant columns are widened to +-0.5.

    Widening keeps min < max so normalization stays invertible and maps
    the constant value to 0.5.
    """
    mins = data.min(axis=0).astype(float)
    maxs = data.max(axis=0).astype(float)
    degenerate = maxs <= mins
    mins[degenerate] -= 0.5
    maxs[degenerate] += 0.5
    return mins, maxs


def _checked(data, shape: tuple, what: str, error: type) -> np.ndarray:
    """data as a float array of ``shape`` (None: any size) with no NaN or inf.

    A wrong rank or size raises ``error`` naming both shapes; a non-finite
    entry raises it naming the first one by row and column (a 1-D array is
    one column).
    """
    array = np.asarray(data, dtype=float)
    if array.ndim != len(shape) or any(
        n not in (None, size) for n, size in zip(shape, array.shape)
    ):
        want = ", ".join("*" if n is None else str(n) for n in shape)
        got = ", ".join(map(str, array.shape))
        raise error(f"{what} array must have shape ({want}), got ({got})")
    if not np.isfinite(array).all():
        rows = array.reshape(len(array), -1)
        r, c = np.argwhere(~np.isfinite(rows))[0]
        raise error(f"non-finite {what} at row {r}, column {c}: {rows[r, c]}")
    return array


@dataclass
class NormStats:
    """Per-feature and per-target min/max for [0, 1] normalization."""

    x_min: np.ndarray
    x_max: np.ndarray
    y_min: np.ndarray
    y_max: np.ndarray

    def __post_init__(self):
        for lo, hi in (("x_min", "x_max"), ("y_min", "y_max")):
            low = _checked(getattr(self, lo), (None,), lo, ConfigurationError)
            high = _checked(getattr(self, hi), low.shape, hi, ConfigurationError)
            setattr(self, lo, low)
            setattr(self, hi, high)
            with np.errstate(over="ignore"):
                if np.isposinf(high - low).any():
                    raise ConfigurationError(f"{hi} - {lo} must be finite")
        if not (np.all(self.x_min < self.x_max) and np.all(self.y_min < self.y_max)):
            raise ConfigurationError("normalization stats require min < max")

    def normalize_features(self, x: np.ndarray) -> np.ndarray:
        return (np.asarray(x, dtype=float) - self.x_min) / (self.x_max - self.x_min)

    def denormalize_features(self, x: np.ndarray) -> np.ndarray:
        return np.asarray(x, dtype=float) * (self.x_max - self.x_min) + self.x_min

    def normalize_targets(self, y: np.ndarray) -> np.ndarray:
        return (np.asarray(y, dtype=float) - self.y_min) / (self.y_max - self.y_min)

    def denormalize_targets(self, y: np.ndarray) -> np.ndarray:
        return np.asarray(y, dtype=float) * (self.y_max - self.y_min) + self.y_min


class RbfNetwork:
    """Network state: centers, spans, output weights, normalization stats.

    Centers live in normalized feature space. A network is exclusively
    owned while training; a frozen network is safe for concurrent reads.
    """

    def __init__(
        self,
        centers: np.ndarray,
        spans: np.ndarray,
        weights: np.ndarray,
        norm: NormStats,
    ):
        self.centers = _checked(centers, (None, None), "centers", DomainError).copy()
        m, d = self.centers.shape
        self.spans = _checked(spans, (m,), "spans", DomainError).copy()
        self.weights = _checked(weights, (None, m), "weights", DomainError).copy()
        self.norm = norm
        _checked(norm.x_min, (d,), "norm.x_min", DomainError)
        _checked(norm.y_min, (self.weights.shape[0],), "norm.y_min", DomainError)
        if np.any(self.spans <= 0.0):
            raise DomainError("spans must be strictly positive")

    @property
    def m_hidden(self) -> int:
        return self.centers.shape[0]

    @property
    def input_dim(self) -> int:
        return self.centers.shape[1]

    @property
    def output_dim(self) -> int:
        return self.weights.shape[0]

    def _check_x(self, x: np.ndarray) -> np.ndarray:
        """One feature vector as the (1, d) row predict would check it as."""
        return _checked([x], (1, self.input_dim), "feature", DomainError)

    def hidden_activations(self, x: np.ndarray) -> np.ndarray:
        """Gaussian unit responses z_j in (0, 1] for a normalized input."""
        x = self._check_x(x)
        with np.errstate(over="ignore"):
            _, neg_q, z = _activations(self.centers.T, self.spans, x.T)
        _check_reach(neg_q[None], x, x)
        return z

    def forward(self, x: np.ndarray) -> np.ndarray:
        """Normalized outputs Y_k = sum_j W_kj z_j."""
        return self.weights @ self.hidden_activations(x)

    def predict(self, raw_features: np.ndarray) -> np.ndarray:
        """Denormalizing accessor: raw feature rows to raw target units.

        Accepts one feature vector or a 2-D batch; returns matching shape
        (output_dim per row).
        """
        single = np.ndim(raw_features) == 1
        batch = [raw_features] if single else raw_features
        rows = _checked(batch, (None, self.input_dim), "feature", DomainError)
        out = np.empty((rows.shape[0], self.output_dim))
        with np.errstate(over="ignore", invalid="ignore"):  # out is checked whole
            for start in range(0, rows.shape[0], PREDICT_CHUNK):
                xn = self.norm.normalize_features(rows[start:start + PREDICT_CHUNK])
                _, neg_q, z = _activations(self.centers.T, self.spans, xn[:, :, None])
                _check_reach(neg_q, xn, rows, start)
                # each item is one row's (K, m) @ (m, 1) product W @ z, the BLAS
                # call of a lone row; a stacked Z @ W.T would sum in another order
                y = (self.weights @ z[:, :, None])[:, :, 0]
                out[start:start + len(xn)] = self.norm.denormalize_targets(y)
        _checked(out, out.shape, "prediction", DomainError)
        return out[0] if single else out

    def copy(self) -> "RbfNetwork":
        norm = NormStats(**{k: v.copy() for k, v in vars(self.norm).items()})
        # the constructor copies the parameter arrays
        return RbfNetwork(self.centers, self.spans, self.weights, norm)


@dataclass
class TrainReport:
    """Per-epoch training loss and final accuracy summary.

    mse_per_epoch holds the mean over each epoch's samples of the
    pre-update squared error sum_k e_k^2 (normalized units). Final RMSEs
    are computed with frozen post-training parameters; validation fields
    are None when no validation split was supplied.
    """

    mse_per_epoch: list[float] = field(default_factory=list)
    final_train_rmse_norm: float = 0.0
    final_train_rmse_db: float = 0.0
    final_val_rmse_norm: float | None = None
    final_val_rmse_db: float | None = None


def error_signal(d: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Elementwise error e_k = d_k - y_k."""
    d = np.asarray(d, dtype=float)
    y = np.asarray(y, dtype=float)
    if d.shape != y.shape:
        raise DomainError(f"shape mismatch: targets {d.shape}, outputs {y.shape}")
    return d - y


def init_network(config: RbfConfig, training_inputs: np.ndarray) -> RbfNetwork:
    """Build a network from raw training inputs, deterministically per seed.

    Feature normalization stats come from the inputs; target stats start
    as the identity [0, 1] range and are replaced by train() from its
    training targets. Centers are m_hidden distinct input rows (sampled
    without replacement in normalized space), all spans start at the mean
    nearest-neighbor distance between centers (0.5 when there is a single
    center or the sampled centers coincide), and weights are uniform in
    [-0.1, 0.1] except W_11 = W_21 = 1 for two or more outputs.
    """
    width = (None, config.input_dim)
    inputs = _checked(training_inputs, width, "training feature", ConfigurationError)
    n = inputs.shape[0]
    if n < config.m_hidden:
        raise ConfigurationError(
            f"need at least m_hidden={config.m_hidden} training rows, got {n}"
        )
    x_min, x_max = _minmax_stats(inputs)
    norm = NormStats(
        x_min, x_max,
        np.zeros(config.output_dim), np.ones(config.output_dim),
    )
    normalized = norm.normalize_features(inputs)
    rng = np.random.default_rng(config.seed)
    idx = rng.choice(n, size=config.m_hidden, replace=False)
    centers = normalized[idx].copy()
    if config.m_hidden > 1:
        dist = np.linalg.norm(centers[:, None, :] - centers[None, :, :], axis=2)
        np.fill_diagonal(dist, np.inf)
        span0 = float(np.mean(dist.min(axis=1)))
        if span0 <= 0.0:
            span0 = 0.5
    else:
        span0 = 0.5
    spans = np.full(config.m_hidden, span0)
    weights = rng.uniform(-0.1, 0.1, size=(config.output_dim, config.m_hidden))
    if config.output_dim >= 2:
        weights[0, 0] = 1.0
        weights[1, 0] = 1.0
    return RbfNetwork(centers, spans, weights, norm)


def _check_reach(neg_q, xn, raw, start: int = 0) -> None:
    """Raise a DomainError at the first row of -q (rows, m) that is not finite.

    That row's squared distance overflowed, so every activation is 0. xn
    holds the normalized rows, raw the rows as given from row ``start`` on;
    the error names the row, its column farthest out in xn and its raw value.
    """
    if not np.isfinite(neg_q).all():
        r = int(np.argwhere(~np.isfinite(neg_q))[0, 0])
        c = int(np.argmax(np.abs(xn[r])))
        raise DomainError(
            f"feature at row {start + r}, column {c} too far outside "
            f"the training range: {raw[start + r, c]}"
        )


def _activations(centers, spans, x, neg2=-2.0, out=(None,) * 5) -> tuple:
    """Hidden-layer terms (diff, -q, z), -q = ln z: the one place z is computed.

    centers is (d, m), the block's layout; x is a normalized (d, 1) column, a
    pre-broadcast (d, m) row or a batch (n, d, 1). numpy sums 8+ contiguous
    terms pairwise, so for d >= 8 the squares sum on a C-ordered (..., m, d)
    copy, as the reference's rows do. neg2 is -2.0 or a row of it: s / -(2
    delta^2) is -(s / (2 delta^2)). ``out`` may name arrays for diff, -q, the
    squares, neg2 delta^2 and z, passed positionally as _sgd's outputs are.
    """
    diff = np.subtract(x, centers, out[0])
    sq = np.multiply(diff, diff, out[2])
    sq, axis = (sq, -2) if len(centers) < 8 else (sq.swapaxes(-1, -2).copy(), -1)
    den = np.multiply(neg2, spans, out[3])
    neg_q = np.add.reduce(sq, axis, None, out[1])
    np.divide(neg_q, np.multiply(den, spans, den), neg_q)
    return diff, neg_q, np.exp(neg_q, out[4])


def _sgd(net: RbfNetwork, X, Y, order, config: RbfConfig, errors) -> None:
    """Per-sample SGD over rows ``order`` of X, (d, m) or (d, 1), and of Y.

    errors[i], a (K,) row, gets e before row i's update. A step writes copy +
    update of the packed block into its other copy; the copies swap. Rates, -2
    and the floor are rows of m entries: numpy multiplies equal shapes faster
    than it broadcasts. One divide by delta turns scratch h = [-q; diff; z
    coef] into [g; f] (only f in paper_literal mode), g beside the update's
    [span; centers] rows. Zero-rate rows are copied back after the add: they
    stay exact and out of divergence blame (0 * inf is nan), which goes
    weights, centers, spans. A failed check after the last step replays the
    call with a check per step, raising where a per-step check would; ``net``
    gets the current block on exit, the last finite one then.
    """
    k, d, m = net.output_dim, net.input_dim, net.m_hidden
    start = np.concatenate([net.weights, net.spans[None, :], net.centers.T])
    blocks, update, h = np.empty((2, *start.shape)), np.empty_like(start), np.empty((d + 2, m))
    cur, nxt = views = [(b, b[:k], b[k], b[k + 1:]) for b in blocks]
    scratch = h[1:-1], h[0], np.empty((d, m)), np.empty(m), np.empty(m)  # diff -q sq den z
    g, f, u_g, wz, coef, z_w = h[:-1], h[-1], update[k:], np.empty(k), *np.empty((2, m))
    derived, tau_d = config.update_mode == "derived_gradient", config.effective_tau_delta
    by_delta, u_w = h[1:] if derived else f, update[0] if k == 1 else update[:k]
    w_rate = np.full(m, (1.0 if derived else -1.0) * config.tau_w)
    rates = np.repeat([[-2.0 * tau_d]] + [[config.tau_mu]] * d, m, axis=1)
    neg2, floor = np.full(m, -2.0), np.full(m, SPAN_FLOOR)
    parts = {"weights": slice(k), "centers": slice(k + 1, None), "spans": slice(k, k + 1)}
    frozen = [p for p, r in zip(parts.values(), (config.tau_w, config.tau_mu, tau_d)) if not r]
    add, sub, mul, div, maximum = np.add, np.subtract, np.multiply, np.divide, np.maximum
    try:
        with np.errstate(over="ignore", invalid="ignore"):
            for check in (False, True):
                blocks[:] = start
                for i in order:
                    block, w, spans, centers = cur
                    z = _activations(centers, spans, X[i], neg2, scratch)[2]
                    e = sub(Y[i], w.dot(z, wz), errors[i])  # @ without dispatch
                    mul(z, e.dot(w, coef), f)  # coef_j = sum_k e_k W_kj
                    div(by_delta, spans, by_delta)
                    mul(rates, f, u_g)
                    mul(u_g, g, u_g)  # after the rates: inf * 0 is nan
                    mul(z, w_rate, z_w)
                    mul(z_w, e[0], u_w) if k == 1 else mul.outer(e, z_w, out=u_w)
                    add(block, update, nxt[0])
                    maximum(nxt[2], floor, out=nxt[2])
                    for part in frozen:
                        nxt[0][part] = block[part]
                    if check and not np.isfinite(nxt[0]).all():
                        raise TrainingDivergedError(next(n for n, p in parts.items()
                                                         if not np.isfinite(nxt[0][p]).all()))
                    cur, nxt = nxt, cur
                if np.isfinite(cur[0]).all():
                    break
                cur, nxt = views
    finally:
        _, w, spans, centers = cur
        net.weights, net.centers, net.spans = w.copy(), centers.T.copy(), spans.copy()


def train_step(
    net: RbfNetwork, x: np.ndarray, d: np.ndarray, config: RbfConfig
) -> RbfNetwork:
    """Single-sample parameter update (in place); returns the network.

    derived_gradient mode performs exact gradient descent on E = 1/2 sum e^2:

        W_kj   += tau_w  e_k z_j
        mu_ij  += tau_mu (z_j / delta_j^2) (x_i - mu_ij) sum_k e_k W_kj
        delta_j -= 2 tau_delta (z_j / delta_j) ln(z_j)   sum_k e_k W_kj

    paper_literal mode flips the weight-update sign and divides the center
    update by delta_j instead of delta_j^2; the span rule is shared. All
    updates read the pre-step state; spans are floored at 1e-6 afterwards.
    """
    d = _checked([d], (1, net.output_dim), "target", DomainError)[0]
    _sgd(net, [net._check_x(x).T], [d], (0,), config, [np.empty_like(d)])
    return net


def _rmse(errors: np.ndarray) -> float:
    with np.errstate(over="ignore"):  # errors past about 1e154 give inf
        return float(np.sqrt(np.mean(np.square(errors))))


def train(
    net: RbfNetwork,
    features: np.ndarray,
    targets: np.ndarray,
    config: RbfConfig,
    validation: tuple[np.ndarray, np.ndarray] | None = None,
) -> tuple[RbfNetwork, TrainReport]:
    """Epoch loop of per-sample updates over raw training rows.

    Target normalization stats are (re)computed here from the supplied
    training targets, then each epoch visits all samples in a freshly
    shuffled order drawn from the config seed. The per-epoch MSE is the
    mean pre-update sum_k e_k^2 across the epoch. Deterministic given
    (config, data). Divergence raises with the failing epoch attached. Rows
    go to the step pre-broadcast to (d, m), n d m floats: 102 KB at 160 x 4 x 20.
    """
    k, width = net.output_dim, (None, net.input_dim)
    X = _checked(features, width, "training feature", ConfigurationError)
    Y = _checked(targets, (len(X), k), "training target", ConfigurationError)
    if len(X) == 0:
        raise ConfigurationError("training set is empty")
    if validation is not None:
        Xv = _checked(validation[0], width, "validation feature", ConfigurationError)
        flat = np.ndim(validation[1]) == 1 and k == 1  # one output may come flat
        shape = (len(Xv),) if flat else (len(Xv), k)
        Yv = _checked(validation[1], shape, "validation target", ConfigurationError)

    y_min, y_max = _minmax_stats(Y)
    net.norm = replace(net.norm, y_min=y_min, y_max=y_max)  # checks the span
    Xn = net.norm.normalize_features(X)
    Yn = net.norm.normalize_targets(Y)

    rng, report, errors = np.random.default_rng(config.seed), TrainReport(), np.empty_like(Yn)
    # lists index cheaper per step; x - centers runs on equal shapes
    rows = list(np.repeat(Xn[:, :, None], net.m_hidden, axis=2))
    targets, error_rows = list(Yn), list(errors)
    for epoch in range(config.epochs):
        order = rng.permutation(X.shape[0]).tolist()
        try:
            _sgd(net, rows, targets, order, config, error_rows)
        except TrainingDivergedError as exc:
            raise TrainingDivergedError(exc.parameter_class, epoch) from None
        # by row: no ulp noise from the visit order; may overflow on finite W
        with np.errstate(over="ignore"):
            sq = np.add.reduce(errors * errors, axis=1)
        report.mse_per_epoch.append(float(np.mean(sq)))

    pred = net.predict(X)  # (n, output_dim), the shape of Y
    report.final_train_rmse_norm = _rmse(net.norm.normalize_targets(pred) - Yn)
    report.final_train_rmse_db = _rmse(pred - Y)
    if validation is not None:
        pv = net.predict(Xv).reshape(Yv.shape)
        report.final_val_rmse_db = _rmse(pv - Yv)
        report.final_val_rmse_norm = _rmse(
            net.norm.normalize_targets(pv) - net.norm.normalize_targets(Yv)
        )
    return net, report


# Gradient entries below this magnitude are compared absolutely at this
# scale: central differences at step ~1e-6 carry ~1e-10 absolute noise, so
# a pure relative comparison on near-zero entries is uninformative.
GRADIENT_CHECK_FLOOR = 1e-3


def gradient_check(
    net: RbfNetwork, sample: tuple[np.ndarray, np.ndarray], epsilon: float = 1e-6
) -> float:
    """Max relative error between analytic and central-difference gradients.

    Perturbs every weight, center coordinate and span by +-epsilon on a
    copy of the network. The per-entry error is
    |analytic - numeric| / max(|analytic|, |numeric|, GRADIENT_CHECK_FLOOR).
    """
    if not (1e-9 < epsilon < 1e-3):
        raise DomainError(f"epsilon must be in (1e-9, 1e-3), got {epsilon}")
    x, d = sample
    x = net._check_x(x).T
    d = np.asarray(d, dtype=float)
    spans = net.spans
    diff, neg_q, z = _activations(net.centers.T, spans, x)
    e = d - net.weights @ z
    coef = e @ net.weights
    g_w = -np.outer(e, z)
    g_mu = (-((z / (spans * spans)) * coef) * diff).T
    g_delta = (2.0 * z / spans) * neg_q * coef

    worst = 0.0
    work = net.copy()

    def central(arr: np.ndarray, index: tuple[int, ...]) -> float:
        orig, sides = arr[index], []  # E = 1/2 e @ e at orig + epsilon, - epsilon
        for step in (epsilon, -epsilon):
            arr[index] = orig + step
            e = d - work.weights @ _activations(work.centers.T, work.spans, x)[2]
            sides.append(0.5 * float(e @ e))
        arr[index] = orig
        return (sides[0] - sides[1]) / (2.0 * epsilon)

    for analytic, arr in (
        (g_w, work.weights), (g_mu, work.centers), (g_delta, work.spans)
    ):
        for index in np.ndindex(arr.shape):
            numeric = central(arr, index)
            a = analytic[index]
            denom = max(abs(a), abs(numeric), GRADIENT_CHECK_FLOOR)
            worst = max(worst, abs(a - numeric) / denom)
    return worst


def fit_digest(config: RbfConfig, *arrays: np.ndarray) -> str:
    """SHA-256 of what fixes a fit: the arrays (shape and bytes), the config
    echo, the package, model format and numpy versions, and this module's
    source, so an edit to training that bumps no version changes it too."""
    import hashlib

    from . import __version__

    echo = [asdict(config), __version__, MODEL_FORMAT_VERSION, np.__version__]
    digest = hashlib.sha256(json.dumps(echo).encode())
    for array in arrays:
        array = np.ascontiguousarray(array, dtype=float)
        digest.update(f"{array.shape}".encode() + array.tobytes())
    with open(__file__, "rb") as fh:
        digest.update(fh.read())
    return digest.hexdigest()


def save_model(
    path: str, net: RbfNetwork, config: RbfConfig, digest: str | None = None
) -> None:
    """Write the network, its config echo and, if given, its fit_digest as
    a JSON document.

    Floats serialize via repr (17 significant digits), so a load returns
    value-identical parameters.
    """
    doc = {
        "format_version": MODEL_FORMAT_VERSION,
        "config": asdict(config),  # field order is the key order
        "norm_stats": {k: v.tolist() for k, v in vars(net.norm).items()},
        "centers": net.centers.tolist(),
        "spans": net.spans.tolist(),
        "weights": net.weights.tolist(),
        **({} if digest is None else {"fit_digest": digest}),
    }
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        json.dump(doc, fh, indent=2)
        fh.write("\n")


def load_model(path: str, digest: str | None = None) -> tuple[RbfNetwork, RbfConfig]:
    """Load a model JSON written by save_model; schema-checked. With
    ``digest``, a document whose fit_digest differs is a SchemaError."""
    with open_utf8(path) as fh:
        doc = parse_json(fh.read(), path)
    if not isinstance(doc, dict):
        raise SchemaError(f"{path}: model document must be a JSON object")
    if digest is not None and doc.get("fit_digest") != digest:
        raise SchemaError(f"{path}: fit_digest is not {digest}")
    required = {"format_version", "config", "norm_stats", "centers", "spans", "weights"}
    missing = required - set(doc)
    if missing:
        raise SchemaError(f"{path}: missing keys {sorted(missing)}")
    version = doc["format_version"]
    if isinstance(version, bool) or version != MODEL_FORMAT_VERSION:  # True == 1
        raise SchemaError(f"{path}: unsupported format_version {version!r}")
    try:
        config = RbfConfig(**doc["config"])
        norm = NormStats(**doc["norm_stats"])
        net = RbfNetwork(doc["centers"], doc["spans"], doc["weights"], norm)
    except (TypeError, ValueError) as exc:  # the keys are checked above
        raise SchemaError(f"{path}: malformed model document: {exc}") from exc
    low = np.flatnonzero(net.spans < SPAN_FLOOR)  # training never writes one
    if low.size:
        j = int(low[0])
        raise SchemaError(
            f"{path}: spans[{j}] must be >= SPAN_FLOOR={SPAN_FLOOR!r}, "
            f"got {float(net.spans[j])!r}"
        )
    return net, config
