"""ABL-COMP — Update compression ablation (Sec. 11 "Bandwidth").

"To reduce the bandwidth necessary, we implement compression techniques
such as those of Konečný et al. (2016b)".

Regenerates: wire bytes vs fidelity of an aggregated FedAvg update under
each codec — identity, 8/4-bit quantization, rotation+quantization, and
subsampling — on a real update from the keyboard workload.
"""

import numpy as np

from repro import ClientDataset, FedAvgConfig, FederatedAveraging
from repro.data.keyboard import KeyboardCorpusConfig, build_keyboard_clients
from repro.nn.models import BagOfWordsLanguageModel
from update_codecs import (
    CodecPipeline,
    IdentityCodec,
    QuantizationCodec,
    RotationCodec,
    SubsamplingCodec,
)


def make_update(rng):
    """One real aggregated FedAvg delta on the keyboard workload."""
    config = KeyboardCorpusConfig(vocab_size=80, num_users=40)
    clients = build_keyboard_clients(config, rng)
    model = BagOfWordsLanguageModel(vocab_size=80, embed_dim=16)
    algo = FederatedAveraging(
        model, FedAvgConfig(clients_per_round=20, learning_rate=0.3)
    )
    params = algo.initialize(rng)
    new_params, _ = algo.run_round(1, params, clients, rng)
    return (new_params - params).to_vector()


def sweep_codecs(update, rng):
    codecs = {
        "identity": IdentityCodec(),
        "quantize 8-bit": QuantizationCodec(bits=8),
        "quantize 4-bit": QuantizationCodec(bits=4),
        "rotate + quantize 4-bit": CodecPipeline(
            [RotationCodec(seed=1), QuantizationCodec(bits=4)]
        ),
        "subsample 25%": SubsamplingCodec(fraction=0.25),
        "subsample 25% + quantize 8-bit": None,  # computed below
    }
    results = {}
    raw_bytes = update.size * 8
    for name, codec in codecs.items():
        if codec is None:
            # Sequential composition by hand: subsample, then quantize the
            # survivors (what a production stack would ship).
            sub = SubsamplingCodec(fraction=0.25)
            payload, _ = sub.encode(update, rng)
            quant = QuantizationCodec(bits=8)
            qpayload, qbytes = quant.encode(payload["values"], rng)
            payload = dict(payload, values=quant.decode(qpayload))
            decoded = sub.decode(payload)
            nbytes = 16 + qbytes
        else:
            decoded, nbytes = codec.roundtrip(update, rng)
        err = np.linalg.norm(decoded - update) / np.linalg.norm(update)
        results[name] = {
            "compression": raw_bytes / nbytes,
            "relative_error": float(err),
        }
    return results


def test_ablation_compression(benchmark):
    rng = np.random.default_rng(17)
    update = make_update(rng)
    results = benchmark.pedantic(
        sweep_codecs, args=(update, rng), rounds=1, iterations=1
    )

    print("\n=== ABL-COMP: update codec sweep (real FedAvg delta) ===")
    print(f"{'codec':<32}{'ratio':>8}{'rel. error':>12}")
    for name, row in results.items():
        print(f"{name:<32}{row['compression']:>7.1f}x{row['relative_error']:>12.4f}")

    benchmark.extra_info.update(
        {name: row["compression"] for name, row in results.items()}
    )
    assert results["identity"]["relative_error"] == 0.0
    # Real FedAvg deltas are spiky (rare-token embedding rows are ~0), so
    # even 8-bit uniform quantization leaves a few-percent residual...
    assert results["quantize 8-bit"]["compression"] > 7.5
    assert results["quantize 8-bit"]["relative_error"] < 0.1
    # ...which is exactly why the random rotation exists: it flattens the
    # coordinate distribution and makes 4-bit quantization usable.
    assert (
        results["rotate + quantize 4-bit"]["relative_error"]
        < 0.25 * results["quantize 4-bit"]["relative_error"]
    )
    # Composition reaches >25x wire compression.
    combo = results["subsample 25% + quantize 8-bit"]
    assert combo["compression"] > 25.0
