"""Models with exact manual gradients.

Four models cover the paper's workloads:

* :class:`LogisticRegression` — the simplest FL task, used in quickstarts
  and protocol tests;
* :class:`MLPClassifier` — on-device item ranking (Sec. 8);
* :class:`RNNLanguageModel` — Elman RNN for next-word prediction, the
  Gboard workload of Sec. 8 (the paper's model has ~1.4M parameters; ours
  is configurable and defaults smaller so benchmarks run on a laptop);
* :class:`BagOfWordsLanguageModel` — a cheap context-averaging LM used
  where RNN cost is unnecessary.

All models implement ``loss_and_grad`` returning exact analytic gradients,
verified against finite differences in the test suite.
"""

from __future__ import annotations

import abc
from dataclasses import dataclass

import numpy as np

from repro.nn.losses import softmax_cross_entropy, softmax_cross_entropy_cohort
from repro.nn.parameters import Parameters, StackedParameters


class Model(abc.ABC):
    """A differentiable classifier mapping a batch ``(x, y)`` to a loss."""

    @abc.abstractmethod
    def init(self, rng: np.random.Generator) -> Parameters:
        """Sample initial parameters."""

    @abc.abstractmethod
    def logits(self, params: Parameters, x: np.ndarray) -> np.ndarray:
        """Forward pass returning ``(N, num_classes)`` scores."""

    @abc.abstractmethod
    def loss_and_grad(
        self, params: Parameters, x: np.ndarray, y: np.ndarray
    ) -> tuple[float, Parameters]:
        """Mean loss over the batch and exact gradients."""

    def loss(self, params: Parameters, x: np.ndarray, y: np.ndarray) -> float:
        value, _ = self.loss_and_grad(params, x, y)
        return value

    def loss_and_grad_cohort(
        self,
        params: StackedParameters,
        x: np.ndarray,
        y: np.ndarray,
        counts: np.ndarray,
        out: StackedParameters,
    ) -> np.ndarray:
        """Batched :meth:`loss_and_grad` across a leading cohort axis.

        ``params`` and ``out`` stack ``K`` clients' weights/gradients;
        ``x`` is ``(K, B, ...)`` padded minibatches, ``y`` is ``(K, B)``,
        and ``counts`` gives each row's valid example count (0 marks an
        inactive client: loss 0, gradient row zeroed).  Padding entries
        must be finite (and integer inputs in-vocabulary) — they are
        masked to contribute exactly nothing.

        Returns per-client mean losses ``(K,)``.  The default executes
        row by row through :meth:`loss_and_grad`, so every model supports
        the cohort execution plane; the bundled models override it with
        true batched kernels (einsum/matmul with a cohort axis) that are
        bitwise-identical per row when all rows are full (the per-row
        GEMM shapes then match the per-client call exactly) and equal to
        float summation order otherwise.  Kernels must be reentrant: the
        lanes of one cohort call them at once, from several threads.
        """
        k = params.rows
        losses = np.zeros(k, dtype=np.float64)
        for i in range(k):
            c = int(counts[i])
            row_out = out.row(i)
            if c == 0:
                row_out.zero_()
                continue
            loss, grads = self.loss_and_grad(params.row(i), x[i][:c], y[i][:c])
            row_out.copy_from_(grads)
            losses[i] = loss
        return losses

    @property
    @abc.abstractmethod
    def num_classes(self) -> int:
        ...


@dataclass
class LogisticRegression(Model):
    """Multinomial logistic regression: ``logits = x @ W + b``."""

    input_dim: int
    n_classes: int
    init_scale: float = 0.01

    @property
    def num_classes(self) -> int:
        return self.n_classes

    def init(self, rng: np.random.Generator) -> Parameters:
        return Parameters(
            {
                "W": rng.normal(0.0, self.init_scale, (self.input_dim, self.n_classes)),
                "b": np.zeros(self.n_classes),
            }
        )

    def logits(self, params: Parameters, x: np.ndarray) -> np.ndarray:
        return np.asarray(x, dtype=np.float64) @ params["W"] + params["b"]

    def loss_and_grad(
        self, params: Parameters, x: np.ndarray, y: np.ndarray
    ) -> tuple[float, Parameters]:
        x = np.asarray(x, dtype=np.float64)
        loss, dlogits = softmax_cross_entropy(self.logits(params, x), y)
        grads = Parameters({"W": x.T @ dlogits, "b": dlogits.sum(axis=0)})
        return loss, grads

    def loss_and_grad_cohort(
        self,
        params: StackedParameters,
        x: np.ndarray,
        y: np.ndarray,
        counts: np.ndarray,
        out: StackedParameters,
    ) -> np.ndarray:
        x = np.asarray(x, dtype=np.float64)
        logits = np.matmul(x, params["W"])
        logits += params["b"][:, None, :]
        losses, dl = softmax_cross_entropy_cohort(logits, y, counts)
        # Padded rows of dl are exactly zero, so summing over the full
        # padded batch adds only exact zeros to each gradient entry.
        np.matmul(x.transpose(0, 2, 1), dl, out=out["W"])
        np.sum(dl, axis=1, out=out["b"])
        return losses


@dataclass
class MLPClassifier(Model):
    """Two-weight-matrix MLP with ReLU hidden layer(s)."""

    input_dim: int
    hidden_dims: tuple[int, ...]
    n_classes: int
    init_scale: float = 0.05

    @property
    def num_classes(self) -> int:
        return self.n_classes

    def _layer_dims(self) -> list[tuple[int, int]]:
        dims = [self.input_dim, *self.hidden_dims, self.n_classes]
        return list(zip(dims[:-1], dims[1:]))

    def init(self, rng: np.random.Generator) -> Parameters:
        arrays: dict[str, np.ndarray] = {}
        for i, (fan_in, fan_out) in enumerate(self._layer_dims()):
            scale = self.init_scale * np.sqrt(2.0 / fan_in) / 0.05 * 0.05
            arrays[f"W{i}"] = rng.normal(0.0, scale, (fan_in, fan_out))
            arrays[f"b{i}"] = np.zeros(fan_out)
        return Parameters(arrays)

    def _forward(
        self, params: Parameters, x: np.ndarray
    ) -> tuple[np.ndarray, list[np.ndarray]]:
        """Returns logits and the post-activation cache per layer."""
        h = np.asarray(x, dtype=np.float64)
        cache = [h]
        n_layers = len(self._layer_dims())
        for i in range(n_layers):
            z = h @ params[f"W{i}"] + params[f"b{i}"]
            if i < n_layers - 1:
                h = np.maximum(z, 0.0)
                cache.append(h)
            else:
                return z, cache
        raise AssertionError("unreachable")

    def logits(self, params: Parameters, x: np.ndarray) -> np.ndarray:
        out, _ = self._forward(params, x)
        return out

    def loss_and_grad(
        self, params: Parameters, x: np.ndarray, y: np.ndarray
    ) -> tuple[float, Parameters]:
        out, cache = self._forward(params, x)
        loss, dlogits = softmax_cross_entropy(out, y)
        grads: dict[str, np.ndarray] = {}
        delta = dlogits
        n_layers = len(self._layer_dims())
        for i in reversed(range(n_layers)):
            h_in = cache[i]
            grads[f"W{i}"] = h_in.T @ delta
            grads[f"b{i}"] = delta.sum(axis=0)
            if i > 0:
                delta = (delta @ params[f"W{i}"].T) * (h_in > 0)
        return loss, Parameters(grads)

    def loss_and_grad_cohort(
        self,
        params: StackedParameters,
        x: np.ndarray,
        y: np.ndarray,
        counts: np.ndarray,
        out: StackedParameters,
    ) -> np.ndarray:
        h = np.asarray(x, dtype=np.float64)
        cache = [h]
        n_layers = len(self._layer_dims())
        for i in range(n_layers):
            z = np.matmul(h, params[f"W{i}"])
            z += params[f"b{i}"][:, None, :]
            if i < n_layers - 1:
                h = np.maximum(z, 0.0, out=z)
                cache.append(h)
            else:
                logits = z
        losses, dl = softmax_cross_entropy_cohort(logits, y, counts)
        delta = dl
        for i in reversed(range(n_layers)):
            h_in = cache[i]
            np.matmul(h_in.transpose(0, 2, 1), delta, out=out[f"W{i}"])
            np.sum(delta, axis=1, out=out[f"b{i}"])
            if i > 0:
                delta = np.matmul(delta, params[f"W{i}"].transpose(0, 2, 1))
                delta *= h_in > 0
        return losses


@dataclass
class RNNLanguageModel(Model):
    """Elman RNN language model trained with full truncated BPTT.

    Input ``x`` is an integer array ``(N, T)`` of token ids; the label for
    position ``t`` is ``x[:, t+1]`` except the caller supplies ``y`` of
    shape ``(N,)`` — the *next word after the context* — matching the
    next-word-prediction task: read ``T`` tokens, predict token ``T+1``.
    """

    vocab_size: int
    embed_dim: int = 32
    hidden_dim: int = 64
    init_scale: float = 0.1

    @property
    def num_classes(self) -> int:
        return self.vocab_size

    def init(self, rng: np.random.Generator) -> Parameters:
        s = self.init_scale
        v, d, h = self.vocab_size, self.embed_dim, self.hidden_dim
        return Parameters(
            {
                "embed": rng.normal(0.0, s, (v, d)),
                "W_xh": rng.normal(0.0, s / np.sqrt(d), (d, h)),
                "W_hh": rng.normal(0.0, s / np.sqrt(h), (h, h)),
                "b_h": np.zeros(h),
                "W_hy": rng.normal(0.0, s / np.sqrt(h), (h, v)),
                "b_y": np.zeros(v),
            }
        )

    def _forward(
        self, params: Parameters, x: np.ndarray
    ) -> tuple[np.ndarray, list[np.ndarray], list[np.ndarray]]:
        """Run the recurrence; returns final logits, hidden states, embeddings."""
        x = np.asarray(x)
        if x.ndim != 2:
            raise ValueError(f"RNN input must be (N, T) token ids, got {x.shape}")
        n, t_max = x.shape
        h = np.zeros((n, self.hidden_dim))
        hiddens = [h]
        embeds = []
        for t in range(t_max):
            e = params["embed"][x[:, t]]
            embeds.append(e)
            h = np.tanh(e @ params["W_xh"] + h @ params["W_hh"] + params["b_h"])
            hiddens.append(h)
        logits = h @ params["W_hy"] + params["b_y"]
        return logits, hiddens, embeds

    def logits(self, params: Parameters, x: np.ndarray) -> np.ndarray:
        out, _, _ = self._forward(params, x)
        return out

    def loss_and_grad(
        self, params: Parameters, x: np.ndarray, y: np.ndarray
    ) -> tuple[float, Parameters]:
        x = np.asarray(x)
        n, t_max = x.shape
        logits, hiddens, embeds = self._forward(params, x)
        loss, dlogits = softmax_cross_entropy(logits, y)

        g_embed = np.zeros_like(params["embed"])
        g_wxh = np.zeros_like(params["W_xh"])
        g_whh = np.zeros_like(params["W_hh"])
        g_bh = np.zeros_like(params["b_h"])
        g_why = hiddens[-1].T @ dlogits
        g_by = dlogits.sum(axis=0)

        dh = dlogits @ params["W_hy"].T
        for t in reversed(range(t_max)):
            h_t = hiddens[t + 1]
            h_prev = hiddens[t]
            dz = dh * (1.0 - h_t * h_t)          # tanh'
            g_wxh += embeds[t].T @ dz
            g_whh += h_prev.T @ dz
            g_bh += dz.sum(axis=0)
            de = dz @ params["W_xh"].T
            np.add.at(g_embed, x[:, t], de)
            dh = dz @ params["W_hh"].T
        grads = Parameters(
            {
                "embed": g_embed,
                "W_xh": g_wxh,
                "W_hh": g_whh,
                "b_h": g_bh,
                "W_hy": g_why,
                "b_y": g_by,
            }
        )
        return loss, grads

    def loss_and_grad_cohort(
        self,
        params: StackedParameters,
        x: np.ndarray,
        y: np.ndarray,
        counts: np.ndarray,
        out: StackedParameters,
    ) -> np.ndarray:
        x = np.asarray(x)
        if x.ndim != 3:
            raise ValueError(f"cohort RNN input must be (K, B, T), got {x.shape}")
        k, b, t_max = x.shape
        embed, w_xh, w_hh = params["embed"], params["W_xh"], params["W_hh"]
        b_h, w_hy, b_y = params["b_h"], params["W_hy"], params["b_y"]
        kidx = np.arange(k)[:, None]
        h = np.zeros((k, b, self.hidden_dim))
        hiddens = [h]
        embeds = []
        for t in range(t_max):
            e = embed[kidx, x[:, :, t]]                   # (K, B, D)
            embeds.append(e)
            z = np.matmul(e, w_xh)
            z += np.matmul(h, w_hh)
            z += b_h[:, None, :]
            h = np.tanh(z, out=z)
            hiddens.append(h)
        logits = np.matmul(h, w_hy)
        logits += b_y[:, None, :]
        losses, dl = softmax_cross_entropy_cohort(logits, y, counts)

        g_embed, g_wxh, g_whh = out["embed"], out["W_xh"], out["W_hh"]
        g_bh, g_why, g_by = out["b_h"], out["W_hy"], out["b_y"]
        g_embed.fill(0.0)
        g_wxh.fill(0.0)
        g_whh.fill(0.0)
        g_bh.fill(0.0)
        np.matmul(hiddens[-1].transpose(0, 2, 1), dl, out=g_why)
        np.sum(dl, axis=1, out=g_by)

        dh = np.matmul(dl, w_hy.transpose(0, 2, 1))
        for t in reversed(range(t_max)):
            h_t = hiddens[t + 1]
            h_prev = hiddens[t]
            dz = np.multiply(dh, 1.0 - h_t * h_t, out=dh)
            g_wxh += np.matmul(embeds[t].transpose(0, 2, 1), dz)
            g_whh += np.matmul(h_prev.transpose(0, 2, 1), dz)
            g_bh += dz.sum(axis=1)
            de = np.matmul(dz, w_xh.transpose(0, 2, 1))
            np.add.at(g_embed, (kidx, x[:, :, t]), de)
            dh = np.matmul(dz, w_hh.transpose(0, 2, 1))
        return losses


@dataclass
class BagOfWordsLanguageModel(Model):
    """Averaged-embedding next-word predictor (cheap RNN substitute).

    ``logits = mean_t embed[x[:, t]] @ W + b``.  Used in protocol-level
    benchmarks where per-round ML cost should stay negligible.
    """

    vocab_size: int
    embed_dim: int = 32
    init_scale: float = 0.1

    @property
    def num_classes(self) -> int:
        return self.vocab_size

    def init(self, rng: np.random.Generator) -> Parameters:
        v, d = self.vocab_size, self.embed_dim
        return Parameters(
            {
                "embed": rng.normal(0.0, self.init_scale, (v, d)),
                "W": rng.normal(0.0, self.init_scale / np.sqrt(d), (d, v)),
                "b": np.zeros(v),
            }
        )

    def _context(self, params: Parameters, x: np.ndarray) -> np.ndarray:
        return params["embed"][np.asarray(x)].mean(axis=1)

    def logits(self, params: Parameters, x: np.ndarray) -> np.ndarray:
        return self._context(params, x) @ params["W"] + params["b"]

    def loss_and_grad(
        self, params: Parameters, x: np.ndarray, y: np.ndarray
    ) -> tuple[float, Parameters]:
        x = np.asarray(x)
        n, t_max = x.shape
        ctx = self._context(params, x)
        loss, dlogits = softmax_cross_entropy(ctx @ params["W"] + params["b"], y)
        g_w = ctx.T @ dlogits
        g_b = dlogits.sum(axis=0)
        dctx = dlogits @ params["W"].T / t_max
        g_embed = np.zeros_like(params["embed"])
        for t in range(t_max):
            np.add.at(g_embed, x[:, t], dctx)
        return loss, Parameters({"embed": g_embed, "W": g_w, "b": g_b})

    def loss_and_grad_cohort(
        self,
        params: StackedParameters,
        x: np.ndarray,
        y: np.ndarray,
        counts: np.ndarray,
        out: StackedParameters,
    ) -> np.ndarray:
        x = np.asarray(x)
        if x.ndim != 3:
            raise ValueError(f"cohort BoW input must be (K, B, T), got {x.shape}")
        k, b, t_max = x.shape
        kidx = np.arange(k)[:, None]
        embed, w, bias = params["embed"], params["W"], params["b"]
        ctx = embed[kidx[:, :, None], x].mean(axis=2)     # (K, B, D)
        logits = np.matmul(ctx, w)
        logits += bias[:, None, :]
        losses, dl = softmax_cross_entropy_cohort(logits, y, counts)
        np.matmul(ctx.transpose(0, 2, 1), dl, out=out["W"])
        np.sum(dl, axis=1, out=out["b"])
        dctx = np.matmul(dl, w.transpose(0, 2, 1))
        dctx /= t_max
        g_embed = out["embed"]
        g_embed.fill(0.0)
        for t in range(t_max):
            np.add.at(g_embed, (kidx, x[:, :, t]), dctx)
        return losses
