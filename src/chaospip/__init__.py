"""Chaotic logistic-map cipher for images and raw video.

Pixels are processed in 8-byte blocks: an 8x8 bit-matrix transpose
spreads every pixel's bits across the block, a keystream byte drawn from
the logistic map is XOR-ed into each pixel, and the transpose is undone.
The same transform decrypts, so one code path serves both directions.
The `analysis` module measures the result: byte histograms, Shannon
entropy, plain/cipher correlation, and key sensitivity.

This is a reference implementation and measurement harness for a
known-weak cipher family; do not use it to protect real data.
"""

from .analysis import (
    ChannelMetrics,
    MetricsReport,
    compare_frames,
    corr2d,
    entropy_of_counts,
    histogram256,
    key_sensitivity,
    keystream_histogram,
    shannon_entropy,
)
from .cipher import (
    BLOCK_SIZE,
    Frame,
    ReseedMode,
    decrypt_image,
    encrypt_image,
    forward_permute,
    inverse_permute,
    process_block,
    process_stream,
    transform_plane,
)
from .errors import (
    ChaospipError,
    DegenerateInput,
    DimensionMismatch,
    EmptyInput,
    FixedPointError,
    FormatError,
    ParseError,
    RangeError,
)
from .io import (
    ContainerMode,
    container_mode_for,
    read_container,
    read_pnm,
    write_container,
    write_pnm,
)
from .keystream import (
    DEFAULT_BURN_IN,
    KeyMaterial,
    KeystreamState,
    derive_key_from_hex,
    derive_key_from_params,
    logistic_step,
    next_key_byte,
    seed,
    skip,
    take_bytes,
)

__version__ = "0.1.0"

__all__ = [
    "BLOCK_SIZE",
    "ChannelMetrics",
    "ChaospipError",
    "ContainerMode",
    "DEFAULT_BURN_IN",
    "DegenerateInput",
    "DimensionMismatch",
    "EmptyInput",
    "FixedPointError",
    "FormatError",
    "Frame",
    "KeyMaterial",
    "KeystreamState",
    "MetricsReport",
    "ParseError",
    "RangeError",
    "ReseedMode",
    "compare_frames",
    "container_mode_for",
    "corr2d",
    "decrypt_image",
    "derive_key_from_hex",
    "derive_key_from_params",
    "encrypt_image",
    "entropy_of_counts",
    "forward_permute",
    "histogram256",
    "inverse_permute",
    "key_sensitivity",
    "keystream_histogram",
    "logistic_step",
    "next_key_byte",
    "process_block",
    "process_stream",
    "read_container",
    "read_pnm",
    "seed",
    "shannon_entropy",
    "skip",
    "take_bytes",
    "transform_plane",
    "write_container",
    "write_pnm",
]
