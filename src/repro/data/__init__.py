"""Synthetic workload generators.

Substitutes for the paper's on-device data (which never leaves real
phones): a non-IID keyboard corpus for the Sec. 8 next-word workload, and
generic partitioners for turning any pooled dataset into federated
clients.
"""

from repro.data.keyboard import (
    KeyboardCorpusConfig,
    build_keyboard_clients,
    build_proxy_corpus,
)
from repro.data.partition import dirichlet_partition, iid_partition

__all__ = [
    "KeyboardCorpusConfig",
    "build_keyboard_clients",
    "build_proxy_corpus",
    "dirichlet_partition",
    "iid_partition",
]
