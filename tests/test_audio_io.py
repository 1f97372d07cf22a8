"""Tests for WAV reading and writing.

File fixtures are assembled byte-by-byte with struct, or written by the
standard-library wave module, so the decoder is exercised against
independent encodings of the format.
"""

import struct
import wave

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from gsmsep.audio_io import (
    AudioBuffer,
    TruncatedWavError,
    UnsupportedWavEncodingError,
    WavFormatError,
    read_wav,
    write_wav,
)


def make_wav(
    data: bytes,
    n_channels: int = 1,
    sample_rate: int = 16000,
    bits: int = 16,
    audio_format: int = 1,
    block_align: int | None = None,
    sub_format: bytes | None = None,
) -> bytes:
    # with a sub_format, the fmt chunk is WAVE_FORMAT_EXTENSIBLE: format code
    # 0xFFFE, then cbSize, valid bits, channel mask and the SubFormat GUID
    if block_align is None:
        block_align = n_channels * bits // 8
    fmt = struct.pack(
        "<HHIIHH",
        audio_format if sub_format is None else 0xFFFE,
        n_channels,
        sample_rate,
        sample_rate * block_align,
        block_align,
        bits,
    )
    if sub_format is not None:
        fmt += struct.pack("<HHI", 22, bits, 0) + sub_format
    body = b"fmt " + struct.pack("<I", len(fmt)) + fmt
    body += b"data" + struct.pack("<I", len(data)) + data
    return b"RIFF" + struct.pack("<I", 4 + len(body)) + b"WAVE" + body


def write_stdlib_pcm16(path, samples: np.ndarray, sample_rate: int) -> None:
    """(channels, frames) samples in [-1, 1) as PCM16, by the stdlib writer."""
    values = np.round(samples * 32768.0).astype("<i2")
    with wave.open(str(path), "wb") as wf:
        wf.setnchannels(samples.shape[0])
        wf.setsampwidth(2)
        wf.setframerate(sample_rate)
        wf.writeframes(values.T.tobytes())


class TestAudioBuffer:
    def test_properties(self):
        buf = AudioBuffer(samples=np.zeros((2, 48000)), sample_rate=16000)
        assert buf.n_channels == 2
        assert buf.n_frames == 48000
        assert buf.duration_s == pytest.approx(3.0)

    def test_rejects_one_dimensional(self):
        with pytest.raises(ValueError):
            AudioBuffer(samples=np.zeros(100), sample_rate=16000)

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            AudioBuffer(samples=np.zeros((1, 0)), sample_rate=16000)

    def test_rejects_non_finite(self):
        samples = np.zeros((1, 4))
        samples[0, 2] = np.nan
        with pytest.raises(ValueError):
            AudioBuffer(samples=samples, sample_rate=16000)

    def test_rejects_bad_rate(self):
        with pytest.raises(ValueError):
            AudioBuffer(samples=np.zeros((1, 4)), sample_rate=0)
        with pytest.raises(ValueError):
            AudioBuffer(samples=np.zeros((1, 4)), sample_rate=-8000)


class TestReadWav:
    def test_pcm16_constant_scaling(self, tmp_path):
        # 16384 / 32768 = 0.5 for every sample on both channels
        frames = struct.pack("<8h", *([16384] * 8))
        path = tmp_path / "half.wav"
        path.write_bytes(make_wav(frames, n_channels=2))
        buf = read_wav(path)
        assert buf.n_channels == 2
        assert buf.n_frames == 4
        np.testing.assert_array_equal(buf.samples, np.full((2, 4), 0.5))

    def test_pcm16_interleaving(self, tmp_path):
        frames = struct.pack("<4h", 100, -200, 300, -400)
        path = tmp_path / "stereo.wav"
        path.write_bytes(make_wav(frames, n_channels=2))
        buf = read_wav(path)
        np.testing.assert_allclose(
            buf.samples * 32768.0, [[100, 300], [-200, -400]], atol=1e-12
        )

    def test_pcm16_matches_stdlib_wave(self, tmp_path):
        path = tmp_path / "std.wav"
        write_stdlib_pcm16(path, np.array([[0.5, -0.25], [0.125, 0.0]]), 22050)
        buf = read_wav(path)
        assert buf.sample_rate == 22050
        np.testing.assert_array_equal(buf.samples, [[0.5, -0.25], [0.125, 0.0]])

    def test_pcm24_scaling(self, tmp_path):
        value = 1 << 22  # half of full scale
        raw = value.to_bytes(3, "little", signed=True)
        neg = (-value).to_bytes(3, "little", signed=True)
        path = tmp_path / "p24.wav"
        path.write_bytes(make_wav(raw + neg, bits=24))
        buf = read_wav(path)
        np.testing.assert_allclose(buf.samples, [[0.5, -0.5]], atol=1e-12)

    def test_float32_payload(self, tmp_path):
        data = struct.pack("<3f", 0.25, -1.5, 0.0)
        path = tmp_path / "f32.wav"
        path.write_bytes(make_wav(data, bits=32, audio_format=3))
        buf = read_wav(path)
        np.testing.assert_array_equal(
            buf.samples, np.array([[0.25, -1.5, 0.0]], dtype=np.float32)
        )

    def test_missing_file(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            read_wav(tmp_path / "absent.wav")

    def test_not_riff(self, tmp_path):
        path = tmp_path / "junk.wav"
        path.write_bytes(b"OggS" + b"\x00" * 40)
        with pytest.raises(WavFormatError, match="not a RIFF/WAVE"):
            read_wav(path)

    def test_zero_channels(self, tmp_path):
        path = tmp_path / "zero.wav"
        path.write_bytes(make_wav(b"\x00\x00", n_channels=0, block_align=2))
        with pytest.raises(WavFormatError, match="zero channels"):
            read_wav(path)

    def test_zero_sample_rate(self, tmp_path):
        path = tmp_path / "rate.wav"
        path.write_bytes(make_wav(b"\x00\x00", sample_rate=0))
        with pytest.raises(WavFormatError, match="zero sample rate"):
            read_wav(path)

    def test_unsupported_encoding(self, tmp_path):
        path = tmp_path / "pcm8.wav"
        path.write_bytes(make_wav(b"\x80\x80", bits=8))
        with pytest.raises(UnsupportedWavEncodingError, match="8 bits"):
            read_wav(path)

    def test_truncated_data_chunk(self, tmp_path):
        good = make_wav(struct.pack("<4h", 1, 2, 3, 4))
        path = tmp_path / "cut.wav"
        path.write_bytes(good[:-3])
        with pytest.raises(TruncatedWavError, match="declares 8 bytes"):
            read_wav(path)

    def test_dangling_chunk_header(self, tmp_path):
        good = make_wav(struct.pack("<2h", 1, 2))
        path = tmp_path / "dangling.wav"
        path.write_bytes(good + b"tail")
        with pytest.raises(TruncatedWavError, match="dangling chunk header"):
            read_wav(path)

    def test_missing_data_chunk(self, tmp_path):
        fmt = struct.pack("<HHIIHH", 1, 1, 16000, 32000, 2, 16)
        body = b"fmt " + struct.pack("<I", len(fmt)) + fmt
        path = tmp_path / "nodata.wav"
        path.write_bytes(b"RIFF" + struct.pack("<I", 4 + len(body)) + b"WAVE" + body)
        with pytest.raises(WavFormatError, match="missing fmt or data"):
            read_wav(path)

    def test_block_align_mismatch(self, tmp_path):
        path = tmp_path / "align.wav"
        path.write_bytes(make_wav(b"\x00" * 8, n_channels=2, block_align=6))
        with pytest.raises(WavFormatError, match="block align"):
            read_wav(path)

    def test_partial_frame(self, tmp_path):
        path = tmp_path / "partial.wav"
        path.write_bytes(make_wav(b"\x00" * 6, n_channels=2))
        with pytest.raises(WavFormatError, match="whole number of frames"):
            read_wav(path)

    def test_empty_data(self, tmp_path):
        path = tmp_path / "empty.wav"
        path.write_bytes(make_wav(b""))
        with pytest.raises(WavFormatError, match="empty data chunk"):
            read_wav(path)

    def test_non_finite_float32(self, tmp_path):
        data = struct.pack("<2f", 0.5, float("inf"))
        path = tmp_path / "inf.wav"
        path.write_bytes(make_wav(data, bits=32, audio_format=3))
        with pytest.raises(WavFormatError, match="non-finite"):
            read_wav(path)

    def test_skips_unknown_chunks(self, tmp_path):
        fmt = struct.pack("<HHIIHH", 1, 1, 16000, 32000, 2, 16)
        data = struct.pack("<2h", 16384, -16384)
        body = b"LIST" + struct.pack("<I", 5) + b"info\x00" + b"\x00"  # odd, padded
        body += b"fmt " + struct.pack("<I", len(fmt)) + fmt
        body += b"data" + struct.pack("<I", len(data)) + data
        path = tmp_path / "chunks.wav"
        path.write_bytes(b"RIFF" + struct.pack("<I", 4 + len(body)) + b"WAVE" + body)
        buf = read_wav(path)
        np.testing.assert_allclose(buf.samples, [[0.5, -0.5]])


def subtype_guid(code: int) -> bytes:
    """KSDATAFORMAT_SUBTYPE GUID of a plain format code, as stored on disk."""
    return struct.pack("<H", code) + bytes.fromhex("000000001000800000aa00389b71")


class TestExtensibleFormat:
    PAYLOADS = {
        (1, 16): struct.pack("<4h", 100, -200, 32767, -32768),
        (1, 24): b"".join(v.to_bytes(3, "little", signed=True)
                          for v in (1 << 22, -(1 << 23), (1 << 23) - 1, -5)),
        (3, 32): struct.pack("<4f", 0.25, -1.5, 0.0, 1e-30),
    }

    @pytest.mark.parametrize("code,bits", list(PAYLOADS), ids=["pcm16", "pcm24", "float32"])
    def test_reads_as_the_plain_chunk(self, tmp_path, code, bits):
        data = self.PAYLOADS[code, bits]
        plain, extensible = tmp_path / "plain.wav", tmp_path / "extensible.wav"
        plain.write_bytes(make_wav(data, n_channels=2, bits=bits, audio_format=code))
        extensible.write_bytes(make_wav(data, n_channels=2, bits=bits,
                                        sub_format=subtype_guid(code)))
        want, got = read_wav(plain), read_wav(extensible)
        assert got.sample_rate == want.sample_rate
        assert got.samples.shape == want.samples.shape == (2, 2)
        assert got.samples.tobytes() == want.samples.tobytes()

    @pytest.mark.parametrize("guid", [
        subtype_guid(6),  # A-law
        struct.pack("<H", 1) + bytes(14),  # PCM code, foreign GUID tail
    ], ids=["alaw", "foreign-tail"])
    def test_other_subformat_unsupported(self, tmp_path, guid):
        path = tmp_path / "other.wav"
        path.write_bytes(make_wav(b"\x00\x00", sub_format=guid))
        with pytest.raises(UnsupportedWavEncodingError, match="extensible subformat"):
            read_wav(path)

    def test_short_extensible_fmt_is_truncated(self, tmp_path):
        path = tmp_path / "short.wav"
        path.write_bytes(make_wav(b"\x00\x00", sub_format=subtype_guid(1)[:10]))
        with pytest.raises(TruncatedWavError, match="extensible fmt chunk truncated"):
            read_wav(path)


class TestWriteWav:
    def test_float32_round_trip_bit_exact(self, tmp_path):
        rng = np.random.default_rng(0)
        samples = rng.uniform(-1.0, 1.0, size=(3, 200)).astype(np.float32)
        buf = AudioBuffer(samples=samples.astype(np.float64), sample_rate=44100)
        path = tmp_path / "rt.wav"
        write_wav(path, buf)
        back = read_wav(path)
        assert back.sample_rate == 44100
        np.testing.assert_array_equal(back.samples, buf.samples)

    def test_float32_header_layout(self, tmp_path):
        buf = AudioBuffer(samples=np.zeros((2, 5)), sample_rate=22050)
        path = tmp_path / "hdr.wav"
        write_wav(path, buf)
        # fmt: size 16, IEEE float, 2 channels, rate, byte rate, align, bits
        raw = path.read_bytes()
        assert raw[:4] == b"RIFF" and raw[8:16] == b"WAVEfmt "
        assert struct.unpack("<IHHIIHH", raw[16:36]) == (16, 3, 2, 22050,
                                                         22050 * 8, 8, 32)
        assert raw[36:44] == b"data" + struct.pack("<I", 40)
        assert len(raw) == 44 + 40

    def test_non_finite_rejected(self, tmp_path):
        buf = AudioBuffer(samples=np.zeros((1, 4)), sample_rate=16000)
        buf.samples[0, 1] = np.nan  # corrupt after validation
        with pytest.raises(ValueError, match="non-finite"):
            write_wav(tmp_path / "x.wav", buf)

    @pytest.mark.parametrize("sample", [1e39, -3.5e38])
    def test_beyond_float32_range_rejected_before_writing(self, tmp_path, sample):
        # the float32 cast alone would write inf, which read_wav refuses
        path = tmp_path / "x.wav"
        with np.errstate(over="raise"), pytest.raises(ValueError, match="float32 range"):
            write_wav(path, AudioBuffer(samples=np.array([[sample, 0.5]]), sample_rate=16000))
        assert not path.exists()

    def test_float32_max_is_written(self, tmp_path):
        peak = float(np.finfo(np.float32).max)
        write_wav(tmp_path / "x.wav", AudioBuffer(samples=np.array([[peak, -peak]]),
                                                  sample_rate=16000))
        assert read_wav(tmp_path / "x.wav").samples.tolist() == [[peak, -peak]]


@given(
    seed=st.integers(0, 2**31 - 1),
    n_channels=st.integers(1, 4),
    n_frames=st.integers(1, 64),
)
def test_property_pcm16_quantization_bound(tmp_path_factory, seed, n_channels, n_frames):
    # PCM16 input, quantized and written by the stdlib wave module, reads
    # back within half a quantization step of the signal it encodes
    rng = np.random.default_rng(seed)
    samples = rng.uniform(-1.0, 1.0 - 2.0**-15, size=(n_channels, n_frames))
    path = tmp_path_factory.mktemp("wav") / "p.wav"
    write_stdlib_pcm16(path, samples, 16000)
    back = read_wav(path)
    assert back.samples.shape == samples.shape
    assert np.max(np.abs(back.samples - samples)) <= 2.0**-16
