import hashlib
import logging
import re
from dataclasses import fields
from pathlib import Path

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
        values = parse_config_file(path, "train")
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
            parse_config_file(path, "train")

    def test_bad_value(self, tmp_path):
        path = tmp_path / "a.cfg"
        path.write_text("n_mfcc = twelve\n")
        with pytest.raises(ValueError, match="bad value for n_mfcc"):
            parse_config_file(path, "train")

    def test_missing_equals(self, tmp_path):
        path = tmp_path / "a.cfg"
        path.write_text("hop 0.01\n")
        with pytest.raises(ValueError, match="expected 'key = value'"):
            parse_config_file(path, "train")

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

    @pytest.mark.parametrize("command, key, other", [("train", "min_gap", "detect"),
                                                     ("detect", "hop", "train")])
    def test_key_of_the_other_command_exit_2(self, cli_workspace, tmp_path, capsys, command, key, other):
        # each command used to ignore the other command's keys and exit 0
        cfg = tmp_path / "other.cfg"
        cfg.write_text(f"{key} = 0.5\n")
        out = tmp_path / "out"
        if command == "train":
            argv = ["train", "--manifest", str(cli_workspace["manifest"]), "--out", str(out / "m.sadb")]
        else:
            argv = ["detect", "--model", str(cli_workspace["bundle"]), "--out-dir", str(out),
                    str(cli_workspace["entries"][0][0])]
        assert main([*argv, "--config", str(cfg)]) == 2
        assert f"{cfg}:1: config key '{key}' is not used by {command}" in capsys.readouterr().err
        assert not out.exists()
        # the same file is the other command's to read
        assert parse_config_file(cfg, other) == {key: 0.5}

    def test_readme_lists_every_config_key(self):
        # the README's bullet per config dataclass names its keys in field order
        readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
        listed = []
        for cls in (FeatureConfig, TrainConfig, AdaptationConfig, SmoothingConfig):
            bullet = re.search(rf"\(`{cls.__name__}`, read by `\w+`\):(.*?)[;.]\s", readme, re.S)
            assert bullet, cls.__name__
            keys = re.findall(r"`(\w+)`", bullet.group(1))
            assert keys == [f.name for f in fields(cls) if f.name in CONFIG_KEYS], cls.__name__
            listed += keys
        assert listed == list(CONFIG_KEYS)


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

    @staticmethod
    def _train_refused_before_audio(config_text, cli_workspace, tmp_path, capsys, monkeypatch) -> str:
        """Train with config_text; assert exit 2 with no audio read and no bundle written; return stderr."""
        import streamsad.trainer

        def no_audio(path):
            raise AssertionError(f"{path} read before the config was checked")

        monkeypatch.setattr(streamsad.trainer, "read_wav", no_audio)
        cfg = tmp_path / "bad.cfg"
        cfg.write_text(config_text)
        rc = main(["train", "--manifest", str(cli_workspace["manifest"]),
                   "--out", str(tmp_path / "m.sadb"), "--config", str(cfg)])
        assert rc == 2
        assert not (tmp_path / "m.sadb").exists()
        return capsys.readouterr().err

    def test_bad_hidden_dims_exit_2_before_any_audio_is_read(
        self, cli_workspace, tmp_path, capsys, monkeypatch
    ):
        err = self._train_refused_before_audio("hidden_dims = 0\n", cli_workspace, tmp_path, capsys, monkeypatch)
        assert "hidden_dims must be a non-empty tuple of positive ints" in err

    @pytest.mark.parametrize(
        "line, message",
        [
            ("learning_rate = nan", "learning_rate must be finite and > 0"),
            ("learning_rate = -1.0", "learning_rate must be finite and > 0"),
            ("learning_rate = 0", "learning_rate must be finite and > 0"),
            ("base_threshold = nan", "base_threshold must be finite"),
            ("base_threshold = inf", "base_threshold must be finite"),
        ],
    )
    def test_bad_rate_or_threshold_exit_2_before_any_audio_is_read(
        self, cli_workspace, tmp_path, capsys, monkeypatch, line, message
    ):
        err = self._train_refused_before_audio(line + "\n", cli_workspace, tmp_path, capsys, monkeypatch)
        assert message in err

    def test_wav_format_error_names_the_file_once(self, cli_workspace, tmp_path, capsys):
        empty = tmp_path / "empty.wav"
        write_wav(empty, 8000, [])
        manifest = tmp_path / "train.tsv"
        manifest.write_text(f"{empty}\t{cli_workspace['entries'][0][1]}\n")
        rc = main(["train", "--manifest", str(manifest), "--out", str(tmp_path / "m.sadb")])
        assert rc == 2
        err = capsys.readouterr().err
        assert f"[features] {empty}: empty data chunk" in err
        assert err.count(str(empty)) == 1

    def test_sample_rate_error_names_the_file_once(self, cli_workspace, tmp_path, capsys):
        # this message comes without the path, so the trainer adds it
        fast = tmp_path / "fast.wav"
        write_wav(fast, 16000, np.random.default_rng(0).uniform(-0.2, 0.2, 16000))
        good_wav, good_lab = cli_workspace["entries"][0]
        manifest = tmp_path / "train.tsv"
        manifest.write_text(f"{good_wav}\t{good_lab}\n{fast}\t{good_lab}\n")
        rc = main(["train", "--manifest", str(manifest), "--out", str(tmp_path / "m.sadb")])
        assert rc == 2
        err = capsys.readouterr().err
        assert f"[features] {fast}: sample rate 16000 differs from corpus rate 8000" in err
        assert err.count(str(fast)) == 1

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

    @pytest.mark.parametrize("how", ["flag", "config"])
    def test_negative_seed_exit_2_before_the_first_stage(self, cli_workspace, tmp_path, capsys, caplog, how):
        # -1 used to fail in the labeling UBM, after the features stage
        cfg = tmp_path / "seed.cfg"
        cfg.write_text("seed = -1\n")
        extra = ["--seed", "-1"] if how == "flag" else ["--config", str(cfg)]
        with caplog.at_level(logging.INFO, logger="streamsad.trainer"):
            rc = main(["train", "--manifest", str(cli_workspace["manifest"]),
                       "--out", str(tmp_path / "m.sadb"), *extra])
        assert rc == 2
        assert "seed must be a non-negative integer, got -1" in capsys.readouterr().err
        assert "stage features" not in caplog.text
        assert not (tmp_path / "m.sadb").exists()

    @pytest.mark.parametrize("parent", ["missing", "file"])
    def test_unwritable_out_exit_2_before_the_first_stage(
        self, cli_workspace, tmp_path, capsys, caplog, parent
    ):
        # this used to run every stage and then fail in assemble
        (tmp_path / "file").write_text("not a directory")
        out = tmp_path / parent / "m.sadb"
        with caplog.at_level(logging.INFO, logger="streamsad.trainer"):
            rc = main(["train", "--manifest", str(cli_workspace["manifest"]), "--out", str(out),
                       "--config", str(cli_workspace["config"])])
        assert rc == 2
        assert f"[output] {tmp_path / parent} is not a directory" in capsys.readouterr().err
        assert "stage features" not in caplog.text

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

    def test_no_smoothing_flag_matches_zero_duration_config(self, cli_workspace, tmp_path):
        wav = cli_workspace["entries"][1][0]
        bundle = str(cli_workspace["bundle"])
        dir_flag, dir_cfg = tmp_path / "flag", tmp_path / "cfg"
        cfg = tmp_path / "unsmoothed.cfg"
        cfg.write_text("min_gap = 0.0\nmin_speech = 0.0\n")
        assert main(["detect", "--model", bundle, "--out-dir", str(dir_flag),
                     "--no-smoothing", "--trace", str(wav)]) == 0
        assert main(["detect", "--model", bundle, "--out-dir", str(dir_cfg),
                     "--config", str(cfg), "--trace", str(wav)]) == 0
        for name in (wav.stem + ".lab", wav.stem + ".trace.csv"):
            assert (dir_flag / name).read_bytes() == (dir_cfg / name).read_bytes()

    def test_inputs_sharing_a_stem_are_refused_before_writing(self, cli_workspace, tmp_path, capsys):
        # a/x.wav and b/x.wav both write x.lab: the first file's labels used to be lost
        wav = cli_workspace["entries"][0][0]
        twin = tmp_path / "b" / wav.name
        twin.parent.mkdir()
        twin.write_bytes(wav.read_bytes())
        out_dir = tmp_path / "hyp"
        rc = main(["detect", "--model", str(cli_workspace["bundle"]), "--out-dir", str(out_dir),
                   "--trace", str(wav), str(twin)])
        assert rc == 2
        assert f"inputs share an output name: {wav.stem}" in capsys.readouterr().err
        assert not out_dir.exists()

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

    def test_errors_name_the_file_once(self, cli_workspace, tmp_path, capsys):
        # a format error's message starts with the path; a rate mismatch's
        # does not, so the command adds it
        bad, fast = tmp_path / "bad.wav", tmp_path / "fast.wav"
        bad.write_bytes(b"RIFF\x04\x00\x00\x00WAVE")
        write_wav(fast, 16000, np.random.default_rng(0).uniform(-0.2, 0.2, 16000))
        rc = main(["detect", "--model", str(cli_workspace["bundle"]),
                   "--out-dir", str(tmp_path / "hyp"), str(bad), str(fast)])
        assert rc == 2
        err = capsys.readouterr().err
        assert f"error: {bad}: missing fmt chunk" in err
        assert f"error: {fast}: sample rate mismatch" in err
        assert err.count(str(bad)) == err.count(str(fast)) == 1


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

    def test_infinite_label_time_is_a_data_error(self, tmp_path, capsys):
        # it used to score as dcf=nan with exit 0
        ref_dir, hyp_dir = self.write_fixture(tmp_path)
        bad = next(hyp_dir.glob("*.lab"))
        bad.write_text(bad.read_text() + "10\tinf\tspeech\n")
        rc = main(["score", "--ref-dir", str(ref_dir), "--hyp-dir", str(hyp_dir)])
        assert rc == 2
        captured = capsys.readouterr()
        assert f"{bad}:" in captured.err and "finite times" in captured.err
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

    def test_audio_shorter_than_a_window_names_the_file(self, cli_workspace, tmp_path, capsys):
        # the error used to name no file, where detect names it
        wav = tmp_path / "short.wav"
        write_wav(wav, 8000, np.zeros(100))
        rc = main(["bench", "--model", str(cli_workspace["bundle"]), str(wav)])
        assert rc == 2
        assert f"error: {wav}: audio shorter than one analysis window" in capsys.readouterr().err

    @pytest.mark.parametrize("chunk", ["0", "-1", "-0.1", "inf", "-inf", "nan"])
    def test_chunk_must_be_finite_and_positive(self, cli_workspace, capsys, chunk):
        # inf used to exit 3 with OverflowError, 0 and -1 to run 1-sample pushes
        wav = cli_workspace["entries"][0][0]
        # --chunk=VALUE, since argparse takes a bare -inf for an option
        rc = main(["bench", "--model", str(cli_workspace["bundle"]), f"--chunk={chunk}", str(wav)])
        assert rc == 1
        captured = capsys.readouterr()
        assert "expected a finite number of seconds > 0" in captured.err
        assert "rtf=" not in captured.out
