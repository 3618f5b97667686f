import chaospip

# The package's public names. A name dropped or renamed in a module move
# breaks callers, so the list changes only on purpose.
PUBLIC_NAMES = [
    "BLOCK_SIZE", "ChannelMetrics", "ChaospipError", "ContainerMode", "DEFAULT_BURN_IN",
    "DegenerateInput", "DimensionMismatch", "EmptyInput", "FixedPointError", "FormatError",
    "Frame", "KeyMaterial", "KeystreamState", "MetricsReport", "ParseError", "RangeError",
    "ReseedMode", "compare_frames", "container_mode_for", "corr2d", "decrypt_image",
    "derive_key_from_hex", "derive_key_from_params", "encrypt_image", "entropy_of_counts",
    "forward_permute", "histogram256", "inverse_permute", "key_sensitivity",
    "keystream_histogram", "logistic_step", "next_key_byte", "process_block", "process_stream",
    "read_container", "read_pnm", "seed", "shannon_entropy", "skip", "take_bytes",
    "transform_plane", "write_container", "write_pnm",
]


def test_public_names_are_pinned():
    assert sorted(chaospip.__all__) == sorted(PUBLIC_NAMES)


def test_every_public_name_resolves():
    assert [name for name in chaospip.__all__ if not hasattr(chaospip, name)] == []


def test_inverse_permute_is_forward_permute():
    assert chaospip.inverse_permute is chaospip.forward_permute


def test_decrypt_image_is_encrypt_image():
    assert chaospip.decrypt_image is chaospip.encrypt_image
