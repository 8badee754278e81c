"""Update compression (Sec. 11 "Bandwidth").

"To reduce the bandwidth necessary, we implement compression techniques
such as those of Konečný et al. (2016b) and Caldas et al. (2018)."

Three composable codecs on flat update vectors:

* :class:`QuantizationCodec` — stochastic (unbiased) b-bit uniform
  quantization;
* :class:`RotationCodec` — randomized Hadamard rotation, flattening the
  coordinate distribution so quantization error drops;
* :class:`SubsamplingCodec` — random sparsification with unbiased
  rescaling.

Codecs report their wire size so the compression ablation
(``test_ablation_compression.py``) accounts bytes honestly.  No fleet
runs them: a fleet charges an upload its trainer's modelled
``update_compression_ratio``.
"""

from update_codecs.codec import CodecPipeline, IdentityCodec, UpdateCodec
from update_codecs.quantization import QuantizationCodec
from update_codecs.rotation import RotationCodec, hadamard_transform
from update_codecs.subsampling import SubsamplingCodec

__all__ = [
    "UpdateCodec",
    "IdentityCodec",
    "CodecPipeline",
    "QuantizationCodec",
    "RotationCodec",
    "hadamard_transform",
    "SubsamplingCodec",
]
