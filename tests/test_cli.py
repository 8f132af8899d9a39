import hashlib
from dataclasses import fields

import numpy as np
import pytest

from streamsad.audio_io import NONSPEECH, SPEECH, SegmentLabel, read_labels, write_labels, write_wav
from streamsad.cli import CONFIG_KEYS, main, parse_config_file
from streamsad.engine import TRACE_HEADER, AdaptationConfig, SmoothingConfig, load_model
from streamsad.features import FeatureConfig
from streamsad.trainer import TrainConfig
from streamsad.synth import make_corpus, write_manifest


MICRO_CONFIG = """\
# small models so the whole round trip runs in seconds
labeling_ubm_size = 4
counts_ubm_per_class = 8
supervector_ubm_size = 4
lda_dim = 4
pca_dim = 8
gmm_iters = 4
hidden_dims = 16,8
mlp_epochs = 3
base_threshold = 0.0
"""


@pytest.fixture(scope="module")
def cli_workspace(tmp_path_factory):
    """A trained bundle plus the corpus and config it came from."""
    root = tmp_path_factory.mktemp("cli")
    entries = make_corpus(root / "corpus", n_files=3, duration=6.0, seed=4242)
    manifest = root / "train.tsv"
    write_manifest(manifest, entries)
    config = root / "micro.cfg"
    config.write_text(MICRO_CONFIG)
    bundle = root / "model.sadb"
    rc = main(
        ["train", "--manifest", str(manifest), "--out", str(bundle),
         "--config", str(config), "--seed", "5"]
    )
    assert rc == 0
    return {"root": root, "entries": entries, "manifest": manifest,
            "config": config, "bundle": bundle}


class TestConfigFile:
    def test_parses_types(self, tmp_path):
        path = tmp_path / "a.cfg"
        path.write_text(
            "hop = 0.01  # seconds\n"
            "\n"
            "n_mfcc = 12\n"
            "hidden_dims = 256,128,64\n"
            "mel_high = none\n"
        )
        values = parse_config_file(path)
        assert values == {
            "hop": 0.01,
            "n_mfcc": 12,
            "hidden_dims": (256, 128, 64),
            "mel_high": None,
        }

    def test_unknown_key(self, tmp_path):
        path = tmp_path / "a.cfg"
        path.write_text("bogus = 1\n")
        with pytest.raises(ValueError, match="unknown config key 'bogus'"):
            parse_config_file(path)

    def test_bad_value(self, tmp_path):
        path = tmp_path / "a.cfg"
        path.write_text("n_mfcc = twelve\n")
        with pytest.raises(ValueError, match="bad value for n_mfcc"):
            parse_config_file(path)

    def test_missing_equals(self, tmp_path):
        path = tmp_path / "a.cfg"
        path.write_text("hop 0.01\n")
        with pytest.raises(ValueError, match="expected 'key = value'"):
            parse_config_file(path)

    def test_keys_are_the_config_dataclass_fields(self):
        # a field that gains no key, or a key that sets no field, breaks this
        defaults = {f.name: f.default for cls in (FeatureConfig, TrainConfig, AdaptationConfig, SmoothingConfig)
                    for f in fields(cls)}
        assert set(CONFIG_KEYS) == set(defaults) - {"entries", "feature_cfg", "monitor_entries", "enabled"}
        # and each key's parser reads the text form of its field's default back
        for key, parse in CONFIG_KEYS.items():
            default = defaults[key]
            if default is None:
                text = "none"
            elif isinstance(default, tuple):
                text = ",".join(map(str, default))
            else:
                text = str(default)
            value = parse(text)
            assert value == default and type(value) is type(default), key


class TestUsage:
    def test_no_command(self, capsys):
        assert main([]) == 1
        assert "usage error" in capsys.readouterr().err

    def test_unknown_command(self, capsys):
        assert main(["transcribe"]) == 1

    def test_missing_required_flag(self, capsys):
        assert main(["train", "--manifest", "x.tsv"]) == 1


class TestTrain:
    def test_reports_output_and_bundle_loads(self, cli_workspace, capsys):
        model = load_model(cli_workspace["bundle"])
        assert model.base_threshold == 0.0
        assert model.lda.output_dim == 4

    def test_labeling_ubm_size_reaches_training(self, cli_workspace, tmp_path, capsys):
        # the labeling UBM is not in the bundle, so show the key is read by
        # the bound it must meet: lda_dim <= 2 * labeling_ubm_size - 1
        cfg = tmp_path / "rank.cfg"
        cfg.write_text("labeling_ubm_size = 4\nlda_dim = 8\n")
        rc = main(["train", "--manifest", str(cli_workspace["manifest"]),
                   "--out", str(tmp_path / "m.sadb"), "--config", str(cfg)])
        assert rc == 2
        assert "labeling_ubm_size" in capsys.readouterr().err
        assert not (tmp_path / "m.sadb").exists()

    def test_seed_repeat_is_byte_identical(self, cli_workspace, tmp_path):
        digests = []
        for i in range(2):
            out = tmp_path / f"re{i}.sadb"
            rc = main(
                ["train", "--manifest", str(cli_workspace["manifest"]),
                 "--out", str(out), "--config", str(cli_workspace["config"]),
                 "--seed", "5"]
            )
            assert rc == 0
            digests.append(hashlib.sha256(out.read_bytes()).hexdigest())
        assert digests[0] == digests[1]
        assert digests[0] == hashlib.sha256(cli_workspace["bundle"].read_bytes()).hexdigest()

    def test_missing_manifest(self, tmp_path, capsys):
        rc = main(["train", "--manifest", str(tmp_path / "nope.tsv"),
                   "--out", str(tmp_path / "m.sadb")])
        assert rc == 2
        assert "nope.tsv" in capsys.readouterr().err

    def test_manifest_naming_missing_audio(self, tmp_path, capsys):
        manifest = tmp_path / "train.tsv"
        manifest.write_text("ghost.wav\tghost.lab\n")
        rc = main(["train", "--manifest", str(manifest),
                   "--out", str(tmp_path / "m.sadb")])
        assert rc == 2
        assert "ghost.wav" in capsys.readouterr().err

    def test_bad_config_key(self, cli_workspace, tmp_path, capsys):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text("momentum = 0.9\n")
        rc = main(["train", "--manifest", str(cli_workspace["manifest"]),
                   "--out", str(tmp_path / "m.sadb"), "--config", str(cfg)])
        assert rc == 2
        assert "unknown config key" in capsys.readouterr().err


class TestDetect:
    def test_writes_label_files(self, cli_workspace, tmp_path, capsys):
        wav = cli_workspace["entries"][0][0]
        out_dir = tmp_path / "hyp"
        rc = main(["detect", "--model", str(cli_workspace["bundle"]),
                   "--out-dir", str(out_dir), str(wav)])
        assert rc == 0
        segments = read_labels(out_dir / (wav.stem + ".lab"))
        assert segments[0].start == 0.0
        # contiguous partition of the timeline
        for prev, cur in zip(segments, segments[1:]):
            assert cur.start == prev.end
        assert "decisions" in capsys.readouterr().out

    def test_trace_has_expected_header(self, cli_workspace, tmp_path):
        wav = cli_workspace["entries"][0][0]
        out_dir = tmp_path / "hyp"
        rc = main(["detect", "--model", str(cli_workspace["bundle"]),
                   "--out-dir", str(out_dir), "--trace", str(wav)])
        assert rc == 0
        trace = (out_dir / (wav.stem + ".trace.csv")).read_text().splitlines()
        assert trace[0] == TRACE_HEADER
        assert len(trace) > 1

    def test_no_adapt_flag_matches_zero_weight_config(self, cli_workspace, tmp_path):
        wav = cli_workspace["entries"][1][0]
        bundle = str(cli_workspace["bundle"])
        dir_flag, dir_cfg = tmp_path / "flag", tmp_path / "cfg"
        cfg = tmp_path / "frozen.cfg"
        cfg.write_text("model_adaptation = 0.0\nthreshold_adaptation = 0.0\n")
        assert main(["detect", "--model", bundle, "--out-dir", str(dir_flag),
                     "--no-adapt", "--trace", str(wav)]) == 0
        assert main(["detect", "--model", bundle, "--out-dir", str(dir_cfg),
                     "--config", str(cfg), "--trace", str(wav)]) == 0
        for name in (wav.stem + ".lab", wav.stem + ".trace.csv"):
            assert (dir_flag / name).read_bytes() == (dir_cfg / name).read_bytes()

    def test_keeps_going_after_a_bad_file(self, cli_workspace, tmp_path, capsys):
        good = cli_workspace["entries"][2][0]
        bad = tmp_path / "noise.wav"
        bad.write_bytes(b"not audio at all")
        out_dir = tmp_path / "hyp"
        rc = main(["detect", "--model", str(cli_workspace["bundle"]),
                   "--out-dir", str(out_dir), str(bad), str(good)])
        assert rc == 2
        assert (out_dir / (good.stem + ".lab")).exists()
        assert not (out_dir / "noise.lab").exists()
        assert "error" in capsys.readouterr().err

    def test_sample_rate_mismatch_is_a_data_error(self, cli_workspace, tmp_path, capsys):
        wav = tmp_path / "fast.wav"
        rng = np.random.default_rng(0)
        write_wav(wav, 16000, rng.uniform(-0.2, 0.2, 32000))
        rc = main(["detect", "--model", str(cli_workspace["bundle"]),
                   "--out-dir", str(tmp_path / "hyp"), str(wav)])
        assert rc == 2
        assert "sample rate" in capsys.readouterr().err


class TestScore:
    @staticmethod
    def write_fixture(tmp_path):
        """Reference speech (2, 5) in a 10 s file; hypothesis starts 0.5 s late."""
        ref_dir, hyp_dir = tmp_path / "ref", tmp_path / "hyp"
        ref_dir.mkdir()
        hyp_dir.mkdir()
        write_labels(ref_dir / "a.lab", [
            SegmentLabel(0.0, 2.0, NONSPEECH),
            SegmentLabel(2.0, 5.0, SPEECH),
            SegmentLabel(5.0, 10.0, NONSPEECH),
        ])
        write_labels(hyp_dir / "a.lab", [
            SegmentLabel(0.0, 2.5, NONSPEECH),
            SegmentLabel(2.5, 5.0, SPEECH),
            SegmentLabel(5.0, 10.0, NONSPEECH),
        ])
        return ref_dir, hyp_dir

    def test_identical_dirs_score_zero(self, tmp_path, capsys):
        ref_dir, _ = self.write_fixture(tmp_path)
        rc = main(["score", "--ref-dir", str(ref_dir), "--hyp-dir", str(ref_dir)])
        assert rc == 0
        out = capsys.readouterr().out
        assert "dcf=0.000000" in out
        assert "POOLED" in out

    def test_worked_fixture(self, tmp_path, capsys):
        ref_dir, hyp_dir = self.write_fixture(tmp_path)
        rc = main(["score", "--ref-dir", str(ref_dir), "--hyp-dir", str(hyp_dir)])
        assert rc == 0
        out = capsys.readouterr().out
        assert "dcf=0.075000" in out
        assert "p_fn=0.100000" in out
        assert "p_fp=0.000000" in out

    def test_zero_collar_scores_everything(self, tmp_path, capsys):
        # without the collar the full 0.5 s miss counts against 3 s of speech
        ref_dir, hyp_dir = self.write_fixture(tmp_path)
        rc = main(["score", "--ref-dir", str(ref_dir), "--hyp-dir", str(hyp_dir),
                   "--collar", "0"])
        assert rc == 0
        assert "dcf=0.125000" in capsys.readouterr().out

    def test_nan_collar_is_a_data_error(self, tmp_path, capsys):
        # a NaN collar used to be scored as if it were 0
        ref_dir, hyp_dir = self.write_fixture(tmp_path)
        rc = main(["score", "--ref-dir", str(ref_dir), "--hyp-dir", str(hyp_dir),
                   "--collar", "nan"])
        assert rc == 2
        captured = capsys.readouterr()
        assert "collar must be non-negative" in captured.err
        assert "dcf=" not in captured.out

    def test_unmatched_stems(self, tmp_path, capsys):
        ref_dir, hyp_dir = self.write_fixture(tmp_path)
        write_labels(hyp_dir / "extra.lab", [SegmentLabel(0.0, 1.0, NONSPEECH)])
        rc = main(["score", "--ref-dir", str(ref_dir), "--hyp-dir", str(hyp_dir)])
        assert rc == 2
        assert "extra" in capsys.readouterr().err

    def test_empty_ref_dir(self, tmp_path, capsys):
        (tmp_path / "ref").mkdir()
        (tmp_path / "hyp").mkdir()
        rc = main(["score", "--ref-dir", str(tmp_path / "ref"),
                   "--hyp-dir", str(tmp_path / "hyp")])
        assert rc == 2
        assert "no .lab files" in capsys.readouterr().err


class TestBench:
    def test_reports_rtf(self, cli_workspace, capsys):
        wav = cli_workspace["entries"][0][0]
        rc = main(["bench", "--model", str(cli_workspace["bundle"]), str(wav)])
        assert rc == 0
        out = capsys.readouterr().out
        assert "rtf=" in out
        assert "decisions=" in out
