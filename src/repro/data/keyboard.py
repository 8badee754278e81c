"""Synthetic mobile-keyboard language data (Sec. 8, next-word prediction).

The generative model layers three sources of structure:

* a **global bigram chain** over a Zipfian vocabulary — what a count-based
  n-gram baseline can capture;
* **per-sentence latent topics** — each sentence is written "about"
  a topic that boosts a topic-specific token distribution.  A model that
  aggregates the whole context window infers the topic far better than a
  single previous token can, which is exactly the advantage the paper's
  RNN has over the n-gram baseline;
* **per-user personalization** — users prefer different topics and
  favourite tokens, producing the non-IID structure federated keyboard
  data actually has.

The *proxy* corpus (Sec. 7.1: "text from Wikipedia may be viewed as proxy
data for text typed on a mobile keyboard") shares the vocabulary and the
bigram backbone but re-rolls the topic structure — similar in shape,
different in distribution, so a server model trained on it underperforms
FL on real on-device data (Sec. 8, footnote 3).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.bounds import check, count, interval, positive
from repro.core.datasets import ClientDataset


@dataclass(frozen=True)
class KeyboardCorpusConfig:
    vocab_size: int = count(10, default=200)
    context_length: int = count(1, default=5)
    num_users: int = 100
    sentences_per_user_mean: float = 40.0
    sentence_length: int = count(2, default=12)
    zipf_exponent: float = 1.1
    #: Probability a token comes from the user's personal distribution.
    personalization: float = interval("[0, 1)", default=0.15)
    #: How many favourite tokens each user has.
    user_support: int = 12
    #: Bigram structure: each token has this many preferred successors.
    successors_per_token: int = 8
    #: Probability a token is drawn from the sentence's topic distribution.
    topic_strength: float = interval("[0, 1)", default=0.5)
    #: Number of latent topics.
    num_topics: int = count(1, default=8)
    #: Dirichlet concentration of per-user topic preferences (small =
    #: users strongly specialized = more non-IID).
    topic_concentration: float = positive(default=0.5)

    def __post_init__(self) -> None:
        check(self)
        if not self.sentence_length > self.context_length:
            raise ValueError("sentence_length must exceed context_length")
        if self.personalization + self.topic_strength >= 1.0:
            raise ValueError("personalization + topic_strength must be < 1")


def _zipf_weights(vocab_size: int, exponent: float) -> np.ndarray:
    ranks = np.arange(1, vocab_size + 1, dtype=np.float64)
    weights = ranks ** (-exponent)
    return weights / weights.sum()


def _build_transition_matrix(
    config: KeyboardCorpusConfig, rng: np.random.Generator
) -> np.ndarray:
    """Row-stochastic bigram matrix: Zipfian base + sparse successor boosts."""
    v = config.vocab_size
    base = _zipf_weights(v, config.zipf_exponent)
    matrix = np.tile(base, (v, 1))
    for token in range(v):
        successors = rng.choice(v, size=config.successors_per_token, replace=False)
        matrix[token, successors] += 0.5 / config.successors_per_token
    matrix /= matrix.sum(axis=1, keepdims=True)
    return matrix


def _build_topics(
    config: KeyboardCorpusConfig, rng: np.random.Generator
) -> np.ndarray:
    """``(num_topics, V)`` topic token distributions.

    Each topic is a Zipf distribution over its own random permutation of
    the vocabulary, so different topics prefer different tokens.
    """
    base = _zipf_weights(config.vocab_size, 1.6)
    topics = np.empty((config.num_topics, config.vocab_size))
    for t in range(config.num_topics):
        perm = rng.permutation(config.vocab_size)
        topics[t, perm] = base
    return topics


def _sample_sentence(
    length: int,
    transition_cdf: np.ndarray,
    topic_cdf: np.ndarray,
    user_pref: np.ndarray | None,
    personalization: float,
    topic_strength: float,
    start: int,
    rng: np.random.Generator,
) -> np.ndarray:
    """One sentence: bigram chain + this sentence's topic + user tokens."""
    tokens = np.empty(length, dtype=np.int64)
    current = start
    sources = rng.random(length)
    uniforms = rng.random(length)
    for i in range(length):
        draw = sources[i]
        if user_pref is not None and draw < personalization:
            current = int(user_pref[int(uniforms[i] * len(user_pref))])
        elif draw < personalization + topic_strength:
            current = int(np.searchsorted(topic_cdf, uniforms[i], side="right"))
        else:
            current = int(
                np.searchsorted(transition_cdf[current], uniforms[i], side="right")
            )
        tokens[i] = current
    return tokens


def _sentence_windows(
    sentences: list[np.ndarray], context_length: int
) -> tuple[np.ndarray, np.ndarray]:
    """Sliding windows within each sentence: x=(n, T) contexts, y=next."""
    xs, ys = [], []
    t = context_length
    for tokens in sentences:
        n = tokens.size - t
        if n <= 0:
            continue
        idx = np.arange(n)[:, None] + np.arange(t)[None, :]
        xs.append(tokens[idx])
        ys.append(tokens[t:])
    if not xs:
        return (
            np.zeros((0, t), dtype=np.int64),
            np.zeros(0, dtype=np.int64),
        )
    return np.concatenate(xs), np.concatenate(ys)


def build_keyboard_clients(
    config: KeyboardCorpusConfig, rng: np.random.Generator
) -> list[ClientDataset]:
    """The federated corpus: one non-IID client per user."""
    matrix = _build_transition_matrix(config, rng)
    chain_cdf = np.cumsum(matrix, axis=1)
    topic_cdfs = np.cumsum(_build_topics(config, rng), axis=1)
    clients = []
    for user in range(config.num_users):
        prefs = rng.choice(config.vocab_size, size=config.user_support, replace=False)
        topic_weights = rng.dirichlet(
            np.full(config.num_topics, config.topic_concentration)
        )
        n_sentences = max(2, int(rng.poisson(config.sentences_per_user_mean)))
        sentences = []
        for _ in range(n_sentences):
            topic = int(rng.choice(config.num_topics, p=topic_weights))
            sentences.append(
                _sample_sentence(
                    config.sentence_length,
                    chain_cdf,
                    topic_cdfs[topic],
                    prefs,
                    config.personalization,
                    config.topic_strength,
                    start=int(rng.integers(config.vocab_size)),
                    rng=rng,
                )
            )
        x, y = _sentence_windows(sentences, config.context_length)
        if x.shape[0] == 0:
            continue
        clients.append(ClientDataset(f"user-{user}", x, y))
    return clients


def build_proxy_corpus(
    config: KeyboardCorpusConfig,
    rng: np.random.Generator,
    num_tokens: int = 50_000,
    drift: float = 0.35,
) -> ClientDataset:
    """Proxy data: same vocabulary and backbone, *different* distribution.

    The bigram chain is blended with a re-rolled chain by ``drift``, the
    topic token-sets are re-rolled entirely, and no user personalization
    applies.
    """
    matrix = _build_transition_matrix(config, rng)
    other = _build_transition_matrix(config, rng)
    blended = (1.0 - drift) * matrix + drift * other
    blended /= blended.sum(axis=1, keepdims=True)
    chain_cdf = np.cumsum(blended, axis=1)
    topic_cdfs = np.cumsum(_build_topics(config, rng), axis=1)
    n_sentences = max(1, num_tokens // config.sentence_length)
    sentences = []
    for _ in range(n_sentences):
        topic = int(rng.integers(config.num_topics))
        sentences.append(
            _sample_sentence(
                config.sentence_length,
                chain_cdf,
                topic_cdfs[topic],
                None,
                0.0,
                config.topic_strength,
                start=int(rng.integers(config.vocab_size)),
                rng=rng,
            )
        )
    x, y = _sentence_windows(sentences, config.context_length)
    return ClientDataset("proxy", x, y)


def evaluation_split(
    clients: list[ClientDataset], fraction: float, rng: np.random.Generator
) -> tuple[list[ClientDataset], ClientDataset]:
    """Hold out a fraction of each client's data into one pooled eval set."""
    train_clients = []
    eval_x, eval_y = [], []
    for client in clients:
        n = client.num_examples
        n_eval = max(1, int(n * fraction))
        order = rng.permutation(n)
        eval_idx, train_idx = order[:n_eval], order[n_eval:]
        if len(train_idx) == 0:
            continue
        train_clients.append(client.subset(train_idx))
        eval_x.append(client.x[eval_idx])
        eval_y.append(client.y[eval_idx])
    pooled = ClientDataset(
        "eval", np.concatenate(eval_x, axis=0), np.concatenate(eval_y, axis=0)
    )
    return train_clients, pooled
