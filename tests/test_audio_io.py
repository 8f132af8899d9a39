import struct

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from streamsad.audio_io import (
    NONSPEECH,
    SPEECH,
    AudioFormatError,
    LabelFileError,
    SegmentLabel,
    read_labels,
    read_wav,
    validate_segments,
    write_labels,
    write_wav,
)


def make_wav_bytes(path, *, format_code=1, channels=1, sample_rate=8000,
                   bits=16, samples=b"\x00\x00" * 100):
    block_align = channels * bits // 8
    fmt = struct.pack(
        "<HHIIHH", format_code, channels, sample_rate,
        sample_rate * block_align % 2**32, block_align, bits,
    )
    body = b"WAVE"
    body += b"fmt " + struct.pack("<I", len(fmt)) + fmt
    body += b"data" + struct.pack("<I", len(samples)) + samples
    path.write_bytes(b"RIFF" + struct.pack("<I", len(body)) + body)


class TestWav:
    def test_round_trip_is_exact_for_quantized_values(self, tmp_path):
        # int16-representable values survive a write/read cycle untouched
        rng = np.random.default_rng(0)
        samples = np.round(rng.uniform(-0.9, 0.9, 400) * 32768.0) / 32768.0
        path = tmp_path / "a.wav"
        write_wav(path, 16000, samples)
        stream = read_wav(path)
        assert stream.sample_rate == 16000
        assert stream.duration == pytest.approx(400 / 16000)
        np.testing.assert_array_equal(stream.samples, samples)

    def test_write_clips_out_of_range(self, tmp_path):
        path = tmp_path / "a.wav"
        write_wav(path, 8000, np.array([2.0, -2.0]))
        stream = read_wav(path)
        assert stream.samples[0] == pytest.approx(32767 / 32768.0)
        assert stream.samples[1] == pytest.approx(-1.0)

    def test_rejects_stereo(self, tmp_path):
        path = tmp_path / "a.wav"
        make_wav_bytes(path, channels=2)
        with pytest.raises(AudioFormatError, match="channel"):
            read_wav(path)

    def test_rejects_non_pcm(self, tmp_path):
        path = tmp_path / "a.wav"
        make_wav_bytes(path, format_code=3)
        with pytest.raises(AudioFormatError, match="PCM"):
            read_wav(path)

    def test_rejects_8_bit(self, tmp_path):
        path = tmp_path / "a.wav"
        make_wav_bytes(path, bits=8)
        with pytest.raises(AudioFormatError, match="16-bit"):
            read_wav(path)

    def test_rejects_low_sample_rate(self, tmp_path):
        path = tmp_path / "a.wav"
        make_wav_bytes(path, sample_rate=4000)
        with pytest.raises(AudioFormatError, match="8000"):
            read_wav(path)

    @pytest.mark.parametrize("sample_rate", [192001, 4_000_000_000])
    def test_rejects_high_sample_rate_before_decoding(self, tmp_path, monkeypatch, sample_rate):
        # the rate sizes the front end's window and FFT, so it is refused
        # before a single sample is decoded
        import streamsad.audio_io

        def no_decoding(*args, **kwargs):
            raise AssertionError("samples decoded before the rate was checked")

        monkeypatch.setattr(streamsad.audio_io.np, "frombuffer", no_decoding)
        path = tmp_path / "a.wav"
        make_wav_bytes(path, sample_rate=sample_rate)
        with pytest.raises(AudioFormatError, match=rf"sample rate {sample_rate} Hz outside \[8000, 192000\]"):
            read_wav(path)

    def test_accepts_the_bounding_rates(self, tmp_path):
        for sample_rate in (8000, 192000):
            path = tmp_path / "a.wav"
            make_wav_bytes(path, sample_rate=sample_rate)
            assert read_wav(path).sample_rate == sample_rate

    def test_rejects_truncated_data(self, tmp_path):
        path = tmp_path / "a.wav"
        make_wav_bytes(path)
        raw = path.read_bytes()
        path.write_bytes(raw[:-20])
        with pytest.raises(AudioFormatError, match="holds"):
            read_wav(path)

    def test_rejects_non_riff(self, tmp_path):
        path = tmp_path / "a.wav"
        path.write_bytes(b"OggS" + b"\x00" * 60)
        with pytest.raises(AudioFormatError, match="RIFF"):
            read_wav(path)

    def test_rejects_empty_data_chunk(self, tmp_path):
        path = tmp_path / "a.wav"
        make_wav_bytes(path, samples=b"")
        with pytest.raises(AudioFormatError, match="empty data"):
            read_wav(path)

    def test_skips_extra_chunks(self, tmp_path):
        # a LIST chunk between fmt and data must be stepped over
        path = tmp_path / "a.wav"
        make_wav_bytes(path)
        raw = bytearray(path.read_bytes())
        insert_at = raw.index(b"data")
        extra = b"LIST" + struct.pack("<I", 5) + b"INFOx" + b"\x00"  # odd size, padded
        raw[insert_at:insert_at] = extra
        raw[4:8] = struct.pack("<I", len(raw) - 8)
        path.write_bytes(bytes(raw))
        assert len(read_wav(path).samples) == 100


class TestSegments:
    def test_label_validation(self):
        with pytest.raises(ValueError):
            SegmentLabel(1.0, 1.0, SPEECH)
        with pytest.raises(ValueError):
            SegmentLabel(0.0, 1.0, "voice")
        seg = SegmentLabel(0.25, 1.5, NONSPEECH)
        assert seg.end - seg.start == pytest.approx(1.25)

    def test_validate_rejects_overlap_and_disorder(self):
        a = SegmentLabel(0.0, 1.0, SPEECH)
        b = SegmentLabel(0.5, 2.0, NONSPEECH)
        with pytest.raises(ValueError, match="overlap"):
            validate_segments([a, b])
        with pytest.raises(ValueError, match="order"):
            validate_segments([SegmentLabel(2.0, 3.0, SPEECH), a])

    def test_touching_segments_are_fine(self):
        validate_segments([
            SegmentLabel(0.0, 1.0, SPEECH),
            SegmentLabel(1.0, 2.0, NONSPEECH),
        ])


class TestLabelFiles:
    def test_round_trip(self, tmp_path):
        segs = [
            SegmentLabel(0.0, 1.25, NONSPEECH),
            SegmentLabel(1.25, 3.5, SPEECH),
            SegmentLabel(3.5, 4.0, NONSPEECH),
        ]
        path = tmp_path / "a.lab"
        write_labels(path, segs)
        assert read_labels(path) == segs

    def test_written_format(self, tmp_path):
        path = tmp_path / "a.lab"
        write_labels(path, [SegmentLabel(0.0, 0.5, SPEECH)])
        assert path.read_text() == "0.000\t0.500\tspeech\n"

    def test_blank_lines_skipped(self, tmp_path):
        path = tmp_path / "a.lab"
        path.write_text("\n0.0\t1.0\tspeech\n\n  \n1.0\t2.0\tnon-speech\n")
        assert len(read_labels(path)) == 2

    def test_field_count_error_names_line(self, tmp_path):
        path = tmp_path / "a.lab"
        path.write_text("0.0\t1.0\tspeech\n1.0\t2.0\n")
        with pytest.raises(LabelFileError, match=r"lab:2"):
            read_labels(path)

    def test_bad_label_and_bad_number(self, tmp_path):
        path = tmp_path / "a.lab"
        path.write_text("0.0\t1.0\tvoice\n")
        with pytest.raises(LabelFileError, match="voice"):
            read_labels(path)
        path.write_text("zero\t1.0\tspeech\n")
        with pytest.raises(LabelFileError, match=r"lab:1"):
            read_labels(path)

    @pytest.mark.parametrize("line", ["5\tinf\tspeech", "1\t1e400\tnon-speech"])
    def test_infinite_time_names_the_line(self, tmp_path, line):
        # it used to parse, and `streamsad score` then printed dcf=nan and exited 0
        path = tmp_path / "a.lab"
        path.write_text(f"0.0\t1.0\tspeech\n{line}\n")
        with pytest.raises(LabelFileError, match=r"lab:2: segment must satisfy .* finite times"):
            read_labels(path)

    def test_overlap_detected_after_sorting(self, tmp_path):
        path = tmp_path / "a.lab"
        path.write_text("1.0\t2.0\tspeech\n0.0\t1.5\tnon-speech\n")
        with pytest.raises(LabelFileError, match="overlap"):
            read_labels(path)

    def test_out_of_order_lines_are_sorted(self, tmp_path):
        path = tmp_path / "a.lab"
        path.write_text("1.0\t2.0\tspeech\n0.0\t1.0\tnon-speech\n")
        segs = read_labels(path)
        assert segs[0].start == 0.0 and segs[1].start == 1.0

    @settings(max_examples=30, deadline=None)
    @given(gaps_ms=st.lists(st.integers(1, 2000), min_size=1, max_size=12),
           rnd=st.randoms(use_true_random=False))
    def test_random_segment_lists_round_trip(self, tmp_path_factory, gaps_ms, rnd):
        # times on a 1 ms grid survive the fixed %.3f formatting exactly
        t = 0
        segs = []
        for gap in gaps_ms:
            label = rnd.choice([SPEECH, NONSPEECH])
            segs.append(SegmentLabel(t / 1000.0, (t + gap) / 1000.0, label))
            t += gap
        path = tmp_path_factory.mktemp("lab") / "r.lab"
        write_labels(path, segs)
        back = read_labels(path)
        assert [(s.start, s.end, s.label) for s in back] == \
            [(s.start, s.end, s.label) for s in segs]
