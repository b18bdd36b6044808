"""Weight bundle container, deterministic init, and the CBW1 byte format."""

import struct

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from clearstream.weights import (
    MAGIC,
    BadMagicError,
    DimOverflowError,
    TruncatedBundleError,
    WeightBundle,
    WeightFormatError,
    dump_weights,
    load_weights,
    parse_weights,
    random_init,
    save_weights,
    zero_init,
)


def test_empty_bundle_is_bare_header():
    raw = dump_weights(WeightBundle())
    assert raw == MAGIC + struct.pack("<I", 0)
    assert len(raw) == 8


def test_single_tensor_byte_layout():
    b = WeightBundle()
    data = np.arange(6, dtype=np.float32).reshape(2, 3)
    b.add("w", data)
    raw = dump_weights(b)
    # name-length u16, 1-byte name, ndim u8, two u32 dims, 24 data bytes
    assert len(raw) == 8 + 2 + 1 + 1 + 8 + 24
    body = raw[8:]
    assert body[:2] == struct.pack("<H", 1)
    assert body[2:3] == b"w"
    assert body[3] == 2
    assert struct.unpack("<II", body[4:12]) == (2, 3)
    assert body[12:] == data.tobytes()


def test_roundtrip_bit_exact(small_tcn):
    b = random_init(small_tcn, seed=3)
    raw = dump_weights(b)
    back = parse_weights(raw)
    assert back.names() == b.names()
    for name in b.names():
        assert np.array_equal(back.tensor(name), b.tensor(name))
    assert dump_weights(back) == raw


def test_save_load_file_roundtrip(tmp_path, small_tcn):
    b = random_init(small_tcn, seed=9)
    path = tmp_path / "w.cbw"
    save_weights(b, path)
    back = load_weights(path)
    for name in b.names():
        assert np.array_equal(back.tensor(name), b.tensor(name))


def test_loaded_tensors_are_owned_copies(tmp_path, small_tcn):
    """parse_weights slices the file buffer without copying; each tensor
    must still be its own writeable float32 array, not a view of it."""
    path = tmp_path / "w.cbw"
    save_weights(random_init(small_tcn, seed=5), path)
    raw = path.read_bytes()
    file_buf = np.frombuffer(raw, dtype=np.uint8)
    back = parse_weights(raw)
    for bundle in (back, load_weights(path)):
        for name in bundle.names():
            t = bundle.tensor(name)
            assert t.dtype == np.float32
            assert t.flags.owndata and t.flags.writeable and t.flags.c_contiguous
            assert not np.shares_memory(t, file_buf)


def test_random_init_deterministic_and_seed_sensitive(small_tcn):
    a = dump_weights(random_init(small_tcn, seed=123))
    b = dump_weights(random_init(small_tcn, seed=123))
    c = dump_weights(random_init(small_tcn, seed=124))
    assert a == b
    assert a != c


def test_random_init_respects_fan_in_bound(small_tcn):
    bundle = random_init(small_tcn, seed=0)
    for name, shape, fan_in in small_tcn.tensor_specs():
        t = bundle.tensor(name)
        assert t.shape == shape
        assert np.abs(t).max() <= 1.0 / np.sqrt(fan_in)


def test_zero_init_is_all_zero(small_tcn):
    bundle = zero_init(small_tcn)
    assert all(np.all(bundle.tensor(n) == 0) for n in bundle.names())


def test_validate_specs_reports_missing_and_mismatched(small_tcn):
    bundle = random_init(small_tcn, seed=0)
    bundle.validate_specs(small_tcn.tensor_specs())

    missing = WeightBundle()
    with pytest.raises(ValueError, match="missing"):
        missing.validate_specs(small_tcn.tensor_specs())

    wrong = random_init(small_tcn, seed=0)
    wrong.records["enc.b"].data = np.zeros((3, 3), dtype=np.float32)
    with pytest.raises(ValueError, match="dims"):
        wrong.validate_specs(small_tcn.tensor_specs())


def test_duplicate_name_rejected():
    b = WeightBundle()
    b.add("x", np.zeros(2))
    with pytest.raises(ValueError, match="duplicate"):
        b.add("x", np.zeros(2))


# -- malformed input -------------------------------------------------------


def test_bad_magic():
    with pytest.raises(BadMagicError):
        parse_weights(b"NOPE" + struct.pack("<I", 0))


def test_truncated_stream():
    b = WeightBundle()
    b.add("w", np.ones((4, 4), dtype=np.float32))
    raw = dump_weights(b)
    with pytest.raises(TruncatedBundleError):
        parse_weights(raw[:-7])
    with pytest.raises(TruncatedBundleError):
        parse_weights(raw[:9])


def test_load_weights_rejects_what_parse_weights_rejects(tmp_path):
    """load_weights reads the file record by record: a damaged file raises
    the typed error its bytes raise in parse_weights, and a record that
    claims more values than the file holds is refused before any array
    is allocated for it."""
    b = WeightBundle()
    b.add("w", np.ones((4, 4), dtype=np.float32))
    raw = dump_weights(b)
    claims_1gb = (MAGIC + struct.pack("<I", 1) + struct.pack("<H", 1) + b"w"
                  + struct.pack("<BII", 2, 1 << 14, 1 << 14))
    cases = [
        (b"", TruncatedBundleError),
        (raw[:-7], TruncatedBundleError),
        (raw[:9], TruncatedBundleError),
        (claims_1gb, TruncatedBundleError),
        (raw + b"\x00", WeightFormatError),
        (b"NOPE" + raw[4:], BadMagicError),
    ]
    for i, (blob, error) in enumerate(cases):
        path = tmp_path / f"{i}.cbw"
        path.write_bytes(blob)
        with pytest.raises(error):
            parse_weights(blob)
        with pytest.raises(error):
            load_weights(path)


def test_trailing_garbage_rejected():
    raw = dump_weights(WeightBundle()) + b"\x00"
    with pytest.raises(WeightFormatError, match="trailing"):
        parse_weights(raw)


def test_dim_overflow_caught_before_allocation():
    # one record claiming a 2^30 x 2^30 tensor; must error, not allocate
    rec = struct.pack("<H", 1) + b"w" + struct.pack("<B", 2)
    rec += struct.pack("<II", 1 << 30, 1 << 30)
    raw = MAGIC + struct.pack("<I", 1) + rec
    with pytest.raises(DimOverflowError):
        parse_weights(raw)


def test_duplicate_record_name_in_stream():
    b = WeightBundle()
    b.add("w", np.zeros(1, dtype=np.float32))
    record = dump_weights(b)[8:]
    raw = MAGIC + struct.pack("<I", 2) + record + record
    with pytest.raises(WeightFormatError, match="duplicate"):
        parse_weights(raw)


@settings(max_examples=200, deadline=None)
@given(st.binary(max_size=300))
def test_fuzzed_prefixes_never_crash(blob):
    """Arbitrary bytes must produce a typed error or a valid bundle."""
    try:
        parse_weights(MAGIC + blob)
    except WeightFormatError:
        pass


@settings(max_examples=50, deadline=None)
@given(st.binary(max_size=64))
def test_fuzzed_raw_never_crashes(blob):
    try:
        parse_weights(blob)
    except WeightFormatError:
        pass
