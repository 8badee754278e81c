"""NumPy neural-network substrate — the repo's TensorFlow stand-in.

The paper treats TensorFlow as an opaque executor of *FL plans*: serialized
graphs plus instructions.  This package provides the pieces the FL system
actually interacts with:

* :class:`~repro.nn.parameters.Parameters` — named weight collections with
  vector arithmetic (what checkpoints carry and FedAvg averages);
* models with exact manual gradients (logistic regression, MLP, and an
  Elman RNN language model for the Sec. 8 next-word workload);
* :mod:`~repro.nn.serialization` — checkpoint (de)serialization, the FL
  checkpoint payload of Sec. 2.1;
* :mod:`~repro.nn.graph` — a versioned-op computation-graph representation,
  the object FL plans embed and version transforms rewrite (Sec. 7.3).
"""

from repro.nn.parameters import Parameters, StackedParameters
from repro.nn.losses import (
    softmax,
    softmax_cross_entropy,
    softmax_cross_entropy_cohort,
)
from repro.nn.metrics import accuracy, top_k_recall, perplexity
from repro.nn.optimizers import SGD
from repro.nn.models import (
    Model,
    LogisticRegression,
    MLPClassifier,
    RNNLanguageModel,
    BagOfWordsLanguageModel,
)
from repro.nn.serialization import params_to_bytes, params_from_bytes
from repro.nn.graph import GraphDef, OpSpec, build_training_graph, build_eval_graph

__all__ = [
    "Parameters",
    "StackedParameters",
    "softmax_cross_entropy",
    "softmax_cross_entropy_cohort",
    "softmax",
    "accuracy",
    "top_k_recall",
    "perplexity",
    "SGD",
    "Model",
    "LogisticRegression",
    "MLPClassifier",
    "RNNLanguageModel",
    "BagOfWordsLanguageModel",
    "params_to_bytes",
    "params_from_bytes",
    "GraphDef",
    "OpSpec",
    "build_training_graph",
    "build_eval_graph",
]
