"""Minimal RIFF/WAVE reader and writer for the codecs this toolkit needs.

Reads little-endian linear PCM-16, PCM-24 and IEEE float-32, the input
WAVs the toolkit takes, with a plain or a WAVE_FORMAT_EXTENSIBLE fmt
chunk; writes float-32 only.  Integer samples are scaled by 2^(bits-1),
so full scale maps onto [-1, 1).  Files are interleaved on disk; buffers
are channel-major in memory.  There is no resampling: rate mismatches
are the caller's problem to detect via AudioBuffer.sample_rate.
"""

from __future__ import annotations

import dataclasses
import struct

import numpy as np

# WAVE_FORMAT_EXTENSIBLE (code 0xFFFE) names the codec by a SubFormat GUID:
# the KSDATAFORMAT_SUBTYPE GUIDs are a plain format code's low byte, then this
_SUBTYPE_TAIL = b"\x00\x00\x00\x00\x00\x10\x00\x80\x00\x00\xaa\x00\x38\x9b\x71"


class WavFormatError(ValueError):
    """Structurally invalid or internally inconsistent WAV data."""


class UnsupportedWavEncodingError(WavFormatError):
    """Valid RIFF/WAVE, but a codec outside the supported set."""


class TruncatedWavError(WavFormatError):
    """The file ends before the declared end of a chunk."""


@dataclasses.dataclass
class AudioBuffer:
    """samples: (channels, frames) float64, nominally within [-1, 1]."""

    samples: np.ndarray
    sample_rate: int

    def __post_init__(self) -> None:
        self.samples = np.asarray(self.samples, dtype=np.float64)
        if self.samples.ndim != 2:
            raise ValueError(f"samples must be (channels, frames), got {self.samples.shape}")
        if self.samples.shape[0] < 1 or self.samples.shape[1] < 1:
            raise ValueError(f"need >= 1 channel and >= 1 frame, got {self.samples.shape}")
        if not np.all(np.isfinite(self.samples)):
            raise ValueError("samples must be finite")
        if not (isinstance(self.sample_rate, (int, np.integer)) and self.sample_rate > 0):
            raise ValueError(f"sample_rate must be a positive integer, got {self.sample_rate}")
        self.sample_rate = int(self.sample_rate)

    @property
    def n_channels(self) -> int:
        return self.samples.shape[0]

    @property
    def n_frames(self) -> int:
        return self.samples.shape[1]

    @property
    def duration_s(self) -> float:
        return self.samples.shape[1] / self.sample_rate


def _decode_pcm16(payload: bytes) -> np.ndarray:
    return np.frombuffer(payload, dtype="<i2").astype(np.float64) / 32768.0


def _decode_pcm24(payload: bytes) -> np.ndarray:
    raw = np.frombuffer(payload, dtype=np.uint8).reshape(-1, 3).astype(np.int64)
    val = raw[:, 0] | (raw[:, 1] << 8) | (raw[:, 2] << 16)
    val -= (val >= 1 << 23) * (1 << 24)
    return val.astype(np.float64) / float(1 << 23)


def _decode_float32(payload: bytes) -> np.ndarray:
    return np.frombuffer(payload, dtype="<f4").astype(np.float64)


def read_wav(path) -> AudioBuffer:
    """Read a PCM-16, PCM-24, or float-32 RIFF/WAVE file."""
    with open(path, "rb") as fh:
        header = fh.read(12)
        if len(header) < 12 or header[:4] != b"RIFF" or header[8:12] != b"WAVE":
            raise WavFormatError(f"not a RIFF/WAVE file: {path}")
        fmt = None
        payload = None
        while True:
            chunk_header = fh.read(8)
            if len(chunk_header) == 0:
                break
            if len(chunk_header) < 8:
                raise TruncatedWavError(f"dangling chunk header in {path}")
            chunk_id, chunk_size = struct.unpack("<4sI", chunk_header)
            if chunk_id == b"fmt ":
                body = fh.read(chunk_size)
                if len(body) < 16:
                    raise TruncatedWavError(f"fmt chunk truncated in {path}")
                fmt = struct.unpack("<HHIIHH", body[:16])
                if fmt[0] == 0xFFFE:
                    if len(body) < 40:
                        raise TruncatedWavError(f"extensible fmt chunk truncated in {path}")
                    if body[24] not in (1, 3) or body[25:40] != _SUBTYPE_TAIL:
                        raise UnsupportedWavEncodingError(
                            f"unsupported encoding: extensible subformat {body[24:40].hex()}")
                    fmt = (body[24],) + fmt[1:]
            elif chunk_id == b"data":
                payload = fh.read(chunk_size)
                if len(payload) < chunk_size:
                    raise TruncatedWavError(
                        f"data chunk declares {chunk_size} bytes,"
                        f" file provides {len(payload)}"
                    )
            else:
                fh.seek(chunk_size + (chunk_size & 1), 1)
            if chunk_size & 1 and chunk_id in (b"fmt ", b"data"):
                fh.seek(1, 1)

    if fmt is None or payload is None:
        raise WavFormatError(f"missing fmt or data chunk in {path}")
    audio_format, n_channels, sample_rate, _byte_rate, block_align, bits = fmt
    if n_channels == 0:
        raise WavFormatError(f"zero channels declared in {path}")
    if sample_rate == 0:
        raise WavFormatError(f"zero sample rate declared in {path}")

    if audio_format == 1 and bits == 16:
        decode, sample_bytes = _decode_pcm16, 2
    elif audio_format == 1 and bits == 24:
        decode, sample_bytes = _decode_pcm24, 3
    elif audio_format == 3 and bits == 32:
        decode, sample_bytes = _decode_float32, 4
    else:
        raise UnsupportedWavEncodingError(
            f"unsupported encoding: format code {audio_format}, {bits} bits"
        )
    if block_align != sample_bytes * n_channels:
        raise WavFormatError(
            f"block align {block_align} inconsistent with"
            f" {n_channels} x {sample_bytes}-byte samples"
        )
    if len(payload) % block_align != 0:
        raise WavFormatError(f"data chunk is not a whole number of frames in {path}")
    if len(payload) == 0:
        raise WavFormatError(f"empty data chunk in {path}")
    flat = decode(payload)
    if not np.all(np.isfinite(flat)):
        raise WavFormatError(f"non-finite samples in {path}")
    samples = flat.reshape(-1, n_channels).T.copy()
    return AudioBuffer(samples=samples, sample_rate=int(sample_rate))


def write_wav(path, buffer: AudioBuffer) -> None:
    """Write a buffer as IEEE float-32; float32-representable samples read
    back bit-exact.  Raises ValueError, before anything is written, for a
    non-finite sample or one that rounds beyond the float32 range."""
    samples = np.asarray(buffer.samples, dtype=np.float64)
    with np.errstate(over="ignore"):
        interleaved = samples.T.astype("<f4")
    if not np.all(np.isfinite(interleaved)):
        if not np.all(np.isfinite(samples)):
            raise ValueError("cannot write non-finite samples")
        raise ValueError("cannot write samples beyond the float32 range"
                         f" (largest magnitude {np.max(np.abs(samples)):.6g})")
    data = interleaved.tobytes()
    block_align = 4 * samples.shape[0]
    header = struct.pack(
        "<4sI4s4sIHHIIHH4sI",
        b"RIFF",
        36 + len(data),
        b"WAVE",
        b"fmt ",
        16,
        3,  # IEEE float
        samples.shape[0],
        buffer.sample_rate,
        buffer.sample_rate * block_align,
        block_align,
        32,
        b"data",
        len(data),
    )
    with open(path, "wb") as fh:
        fh.write(header)
        fh.write(data)
