import argparse
import os

import pytest

from panelqa import cli
from panelqa.checkpoint import build_model, load_checkpoint, save_checkpoint
from panelqa.cli import (ConfigError, RunConfig, build_run_config, main,
                         parse_config_file)
from panelqa.training import OptimizerState

TOY_CFG = """\
# toy configuration for fast tests
patch_size = 4
token_dim = 16
heads = 2
encoder_depth = 2
decoder_depth = 1
panel_size = 3
mlp_ratio = 2.0
crop_hw = 12
epochs = 1
batch_size = 8
crops_per_image = 1
bases = 4
levels = 3
image_hw = 16
eval_crops = 1
repeats = 2
"""


DEFAULT_CONFIG_TXT = """\
patch_size = 16
token_dim = 384
heads = 6
encoder_depth = 12
decoder_depth = 1
panel_size = 6
mlp_ratio = 4.0
channels = 3
crop_hw = 224
variant = full
epochs = 9
base_lr = 0.0002
lr_decay_factor = 10.0
decay_every_epochs = 3
batch_size = 16
crops_per_image = 10
weight_decay = 0.0001
smooth_l1_beta = 1.0
normalize_scores = False
seed = 0
precision = 64
bases = 100
kinds = gaussian_blur,white_noise,contrast_reduction,blockiness
levels = 5
image_hw = 64
eval_crops = 10
mode = repeats
repeats = 10
train_frac = 0.8
"""


def run_config(*argv):
    return build_run_config(cli.make_parser().parse_args(["gradcheck", *argv]))


def subcommand_parsers():
    parser = cli.make_parser()
    (sub,) = [a for a in parser._actions
              if isinstance(a, argparse._SubParsersAction)]
    return sub.choices


@pytest.fixture
def toy_cfg_file(tmp_path):
    p = tmp_path / "toy.cfg"
    p.write_text(TOY_CFG)
    return str(p)


@pytest.fixture
def toy_dataset(tmp_path, toy_cfg_file):
    out = str(tmp_path / "data")
    assert main(["gen-data", "--config", toy_cfg_file, "--out", out]) == 0
    return os.path.join(out, "manifest.csv")


class TestConfigFile:
    def test_parse_values_and_comments(self, tmp_path):
        p = tmp_path / "c.cfg"
        p.write_text("# header\nepochs = 3  # trailing\nbase_lr = 1e-3\n"
                     "variant = encoder_only\nnormalize_scores = true\n")
        got = parse_config_file(str(p))
        assert got == {"epochs": 3, "base_lr": 1e-3,
                       "variant": "encoder_only", "normalize_scores": True}

    def test_unknown_key_rejected(self, tmp_path):
        p = tmp_path / "c.cfg"
        p.write_text("learning_rate = 0.1\n")
        with pytest.raises(ConfigError, match="unknown config key"):
            parse_config_file(str(p))

    def test_bad_value_rejected(self, tmp_path):
        p = tmp_path / "c.cfg"
        p.write_text("epochs = three\n")
        with pytest.raises(ConfigError, match="bad integer"):
            parse_config_file(str(p))

    def test_repeated_key_rejected(self, capsys, tmp_path):
        p = tmp_path / "c.cfg"
        p.write_text("heads = 2\nepochs = 3\nheads = 4\n")
        out = tmp_path / "o"
        assert main(["gen-data", "--config", str(p), "--out", str(out)]) == 1
        assert (f"{p}:3: repeated config key 'heads'"
                in capsys.readouterr().err)
        assert not out.exists()

    def test_missing_equals_rejected(self, tmp_path):
        p = tmp_path / "c.cfg"
        p.write_text("epochs 3\n")
        with pytest.raises(ConfigError, match="key = value"):
            parse_config_file(str(p))

    def test_defaults_follow_reference_recipe(self):
        cfg = RunConfig()
        mc, tc = cfg.model, cfg.train
        assert (mc.patch_size, mc.token_dim, mc.heads) == (16, 384, 6)
        assert (mc.encoder_depth, mc.decoder_depth, mc.panel_size) == (12, 1, 6)
        assert mc.crop_hw == 224
        assert (tc.epochs, tc.base_lr, tc.crops_per_image) == (9, 2e-4, 10)
        assert cfg.bases * len(cfg.kinds.split(",")) * cfg.levels == 2000

    def test_flag_overrides_file(self, toy_cfg_file):
        parser = cli.make_parser()
        args = parser.parse_args(["gradcheck", "--config", toy_cfg_file,
                                  "--epochs", "5"])
        cfg = build_run_config(args)
        assert cfg.train.epochs == 5        # flag wins
        assert cfg.model.token_dim == 16    # file value kept

    def test_config_echoed_to_out_dir(self, tmp_path, toy_cfg_file):
        out = str(tmp_path / "o")
        assert main(["gen-data", "--config", toy_cfg_file, "--out", out,
                     "--bases", "2"]) == 0
        text = open(os.path.join(out, "config.txt")).read()
        assert "bases = 2" in text
        assert "token_dim = 16" in text


class TestConfigSchema:
    def test_default_config_text_is_golden(self):
        assert run_config().text() == DEFAULT_CONFIG_TXT

    def test_written_text_reads_back_equal(self, tmp_path):
        cfg = run_config("--epochs", "3", "--base-lr", "0.00125",
                         "--normalize-scores", "yes",
                         "--variant", "encoder_only", "--kinds", "white_noise")
        assert cfg != run_config()
        p = tmp_path / "round.cfg"
        p.write_text(cfg.text())
        assert run_config("--config", str(p)) == cfg

    def test_every_key_has_exactly_one_flag(self):
        keys = [line.split(" = ")[0]
                for line in DEFAULT_CONFIG_TXT.splitlines()]
        assert len(keys) == len(set(keys)) == 29
        command_flags = {"help", "config", "out", "manifest", "test_manifest",
                         "resume", "checkpoint", "eps", "tolerance", "image"}
        for name, sub in subcommand_parsers().items():
            dests = [a.dest for a in sub._actions]
            for key in keys:
                (action,) = [a for a in sub._actions if a.dest == key]
                assert action.option_strings == ["--" + key.replace("_", "-")]
            assert set(dests) - set(keys) <= command_flags, name
            assert len(dests) == len(set(dests)), name


class TestExitCodes:
    def test_error_is_single_stderr_line(self, capsys, tmp_path):
        rc = main(["train", "--manifest", str(tmp_path / "nope.csv"),
                   "--out", str(tmp_path / "o")])
        assert rc != 0
        err = capsys.readouterr().err.strip()
        assert err.startswith("error: ")
        assert "\n" not in err

    @pytest.mark.parametrize("flags,message", [
        (["--heads", "5"], "not divisible by heads 5"),
        (["--epochs", "three"], "bad integer for epochs: 'three'"),
        (["--base-lr", "fast"], "bad number for base_lr: 'fast'"),
        (["--normalize-scores", "maybe"], "bad boolean for normalize_scores"),
        (["--smooth-l1-beta", "inf"], "bad number for smooth_l1_beta: 'inf'"),
        (["--mlp-ratio", "nan"], "bad number for mlp_ratio: 'nan'"),
        (["--base-lr", "1e999"], "bad number for base_lr: '1e999'"),
        (["--weight-decay", "-5"], "weight_decay must not be negative"),
        (["--bases", "0"], "bases must be positive"),
        (["--image-hw=-3"], "image_hw must be positive"),
    ])
    def test_invalid_config_rejected_before_work(self, capsys, tmp_path,
                                                 flags, message):
        out = tmp_path / "o"
        assert main(["gen-data", *flags, "--out", str(out)]) == 1
        assert message in capsys.readouterr().err
        assert not out.exists()

    def test_unknown_protocol_mode(self, capsys, toy_cfg_file, toy_dataset,
                                   tmp_path):
        rc = main(["protocol", "--config", toy_cfg_file, "--mode", "bogus",
                   "--manifest", toy_dataset, "--out", str(tmp_path / "o")])
        assert rc != 0
        assert "error:" in capsys.readouterr().err


class TestGenData:
    def test_manifest_and_images_on_disk(self, toy_dataset):
        from panelqa.data import read_manifest
        man = read_manifest(toy_dataset)
        assert len(man) == 4 * 4 * 3  # bases x kinds x levels
        assert os.path.exists(man.samples[0].image_ref)

    def test_deterministic_given_seed(self, tmp_path, toy_cfg_file):
        a, b = str(tmp_path / "a"), str(tmp_path / "b")
        for out in (a, b):
            assert main(["gen-data", "--config", toy_cfg_file, "--out", out,
                         "--seed", "3", "--bases", "2"]) == 0
        fa = open(os.path.join(a, "img00000.ppm"), "rb").read()
        fb = open(os.path.join(b, "img00000.ppm"), "rb").read()
        assert fa == fb


class TestTrainEval:
    def test_train_writes_artifacts(self, tmp_path, toy_cfg_file, toy_dataset):
        out = str(tmp_path / "run")
        rc = main(["train", "--config", toy_cfg_file, "--manifest",
                   toy_dataset, "--out", out])
        assert rc == 0
        for name in ("model.ckpt", "train.log", "loss.svg", "config.txt"):
            assert os.path.exists(os.path.join(out, name))

    def test_eval_reads_any_manifest(self, tmp_path, toy_cfg_file,
                                     toy_dataset, capsys):
        run = str(tmp_path / "run")
        assert main(["train", "--config", toy_cfg_file, "--manifest",
                     toy_dataset, "--out", run]) == 0
        out = str(tmp_path / "ev")
        rc = main(["eval", "--config", toy_cfg_file,
                   "--checkpoint", os.path.join(run, "model.ckpt"),
                   "--manifest", toy_dataset, "--out", out])
        assert rc == 0
        line = capsys.readouterr().out.strip().splitlines()[-1]
        assert line.startswith("n=48 srcc=")
        assert os.path.exists(os.path.join(out, "eval.txt"))

    def test_resume_from_checkpoint(self, tmp_path, toy_cfg_file, toy_dataset):
        run1 = str(tmp_path / "r1")
        assert main(["train", "--config", toy_cfg_file, "--manifest",
                     toy_dataset, "--out", run1]) == 0
        run2 = str(tmp_path / "r2")
        rc = main(["train", "--config", toy_cfg_file, "--manifest",
                   toy_dataset, "--out", run2,
                   "--resume", os.path.join(run1, "model.ckpt")])
        assert rc == 0
        first = load_checkpoint(os.path.join(run1, "model.ckpt"))
        second = load_checkpoint(os.path.join(run2, "model.ckpt"))
        assert second.optimizer.step > first.optimizer.step


class TestProtocolCommand:
    def test_repeats_mode(self, tmp_path, toy_cfg_file, toy_dataset):
        out = str(tmp_path / "prot")
        rc = main(["protocol", "--config", toy_cfg_file, "--manifest",
                   toy_dataset, "--out", out])
        assert rc == 0
        text = open(os.path.join(out, "protocol.txt")).read()
        assert text.startswith("protocol=repeats")
        assert "median_srcc=" in text

    @pytest.mark.parametrize("mode", ["depth-ablation", "component-ablation"])
    def test_ablations_split_at_the_echoed_train_frac(self, tmp_path, mode,
                                                      toy_cfg_file,
                                                      toy_dataset):
        texts = {}
        for frac in ("0.5", "0.8"):
            out = tmp_path / frac
            assert main(["protocol", "--config", toy_cfg_file, "--manifest",
                         toy_dataset, "--mode", mode, "--repeats", "1",
                         "--train-frac", frac, "--out", str(out)]) == 0
            assert f"train_frac = {frac}\n" in (out / "config.txt").read_text()
            texts[frac] = (out / "protocol.txt").read_text()
        assert texts["0.5"] != texts["0.8"]


class TestDiagnosticsCommands:
    def test_gradcheck_passes_on_toy_model(self, toy_cfg_file, capsys):
        rc = main(["gradcheck", "--config", toy_cfg_file, "--eps", "1e-4"])
        assert rc == 0
        assert "max_rel_error=" in capsys.readouterr().out

    def test_panel_sim_and_attn_map(self, tmp_path, toy_cfg_file, toy_dataset):
        run = str(tmp_path / "run")
        assert main(["train", "--config", toy_cfg_file, "--manifest",
                     toy_dataset, "--out", run]) == 0
        ckpt = os.path.join(run, "model.ckpt")
        ps = str(tmp_path / "ps")
        assert main(["panel-sim", "--config", toy_cfg_file, "--checkpoint",
                     ckpt, "--manifest", toy_dataset, "--out", ps]) == 0
        assert os.path.exists(os.path.join(ps, "panel.txt"))
        img = os.path.join(os.path.dirname(toy_dataset), "img00000.ppm")
        am = str(tmp_path / "am")
        assert main(["attn-map", "--config", toy_cfg_file, "--checkpoint",
                     ckpt, "--image", img, "--out", am]) == 0
        assert os.path.exists(os.path.join(am, "attn.svg"))


class TestCheckpointCommands:
    """eval, panel-sim and attn-map take the model keys of the checkpoint."""

    @pytest.fixture
    def ckpt(self, tmp_path, toy_cfg_file, toy_dataset):
        run = str(tmp_path / "run")
        assert main(["train", "--config", toy_cfg_file, "--manifest",
                     toy_dataset, "--out", run]) == 0
        return os.path.join(run, "model.ckpt")

    def test_config_txt_echoes_the_checkpoint_model_keys(self, tmp_path,
                                                         ckpt, toy_dataset):
        out = tmp_path / "ev"
        assert main(["eval", "--checkpoint", ckpt, "--manifest", toy_dataset,
                     "--eval-crops", "1", "--out", str(out)]) == 0
        text = (out / "config.txt").read_text()
        assert "token_dim = 16\n" in text
        assert "crop_hw = 12\n" in text
        assert "eval_crops = 1\n" in text

    @pytest.mark.parametrize("command", ["eval", "panel-sim", "attn-map"])
    @pytest.mark.parametrize("source", ["flag", "file"])
    def test_differing_model_key_rejected(self, capsys, tmp_path,
                                          toy_cfg_file, toy_dataset, ckpt,
                                          command, source):
        if source == "flag":
            setting = ["--config", toy_cfg_file, "--token-dim", "32"]
        else:
            cfg = tmp_path / "wide.cfg"
            cfg.write_text(TOY_CFG.replace("token_dim = 16", "token_dim = 32"))
            setting = ["--config", str(cfg)]
        if command == "attn-map":
            data = ["--image", os.path.join(os.path.dirname(toy_dataset),
                                            "img00000.ppm")]
        else:
            data = ["--manifest", toy_dataset]
        out = tmp_path / "o"
        assert main([command, "--checkpoint", ckpt, *data, *setting,
                     "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        assert f"token_dim = 32 does not match token_dim = 16 of {ckpt}" in err
        assert not out.exists()


class TestInputsCheckedFirst:
    """Every command reads its inputs and checks them against the checkpoint
    before it makes its output directory; resume takes the model keys and
    the precision of the checkpoint."""

    @pytest.fixture
    def ckpt32(self, tmp_path, toy_cfg_file, toy_dataset):
        run = tmp_path / "run32"
        assert main(["train", "--config", toy_cfg_file, "--precision", "32",
                     "--manifest", toy_dataset, "--out", str(run)]) == 0
        return str(run / "model.ckpt")

    @pytest.mark.parametrize("argv,message", [
        pytest.param(["protocol", "--manifest", "{data}", "--mode", "bogus"],
                     "unknown protocol mode 'bogus'", id="protocol-mode"),
        pytest.param(["train", "--manifest", "{missing}"], "nope",
                     id="train-manifest"),
        pytest.param(["protocol", "--manifest", "{missing}"], "nope",
                     id="protocol-manifest"),
        pytest.param(["eval", "--checkpoint", "{ckpt}",
                      "--manifest", "{missing}"], "nope", id="eval-manifest"),
        pytest.param(["panel-sim", "--checkpoint", "{ckpt}",
                      "--manifest", "{missing}"], "nope",
                     id="panel-sim-manifest"),
        pytest.param(["attn-map", "--checkpoint", "{ckpt}",
                      "--image", "{missing}"], "nope", id="attn-map-image"),
        pytest.param(["train", "--manifest", "{data}", "--resume", "{missing}"],
                     "nope", id="resume-checkpoint"),
        pytest.param(["eval", "--checkpoint", "{missing}",
                      "--manifest", "{data}"], "nope", id="eval-checkpoint"),
        pytest.param(["train", "--manifest", "{data}", "--resume", "{bare}"],
                     "checkpoint carries no optimizer state",
                     id="resume-no-optimizer-state"),
        pytest.param(["eval", "--checkpoint", "{no-opt-v}",
                      "--manifest", "{data}"], "missing=['opt.v.panel']",
                     id="eval-missing-moment-record"),
        pytest.param(["train", "--manifest", "{data}", "--resume", "{ckpt}",
                      "--token-dim", "32"],
                     "token_dim = 32 does not match token_dim = 16",
                     id="resume-model-key"),
        pytest.param(["train", "--manifest", "{data}", "--resume", "{ckpt}",
                      "--precision", "64"],
                     "precision = 64 does not match precision = 32",
                     id="resume-precision"),
        pytest.param(["eval", "--checkpoint", "{ckpt}", "--manifest", "{data}",
                      "--precision", "64"],
                     "precision = 64 does not match precision = 32",
                     id="eval-precision"),
        pytest.param(["eval", "--checkpoint", "{ckpt}", "--manifest", "{data}",
                      "--heads", "5"],
                     "heads = 5 does not match heads = 2 of {ckpt}",
                     id="eval-heads"),
        pytest.param(["train", "--manifest", "{data}", "--mlp-ratio", "0.01"],
                     "mlp_ratio 0.01 x token_dim 16 rounds to an MLP width "
                     "of 0", id="train-mlp-ratio"),
        pytest.param(["train", "--manifest", "{data}", "--eval-crops", "0"],
                     "eval_crops must be positive", id="train-eval-crops"),
        pytest.param(["eval", "--checkpoint", "{ckpt}", "--manifest", "{data}",
                      "--eval-crops", "-1"],
                     "eval_crops must be positive", id="eval-eval-crops"),
        pytest.param(["protocol", "--manifest", "{data}", "--repeats", "0"],
                     "repeats must be positive", id="protocol-repeats"),
        pytest.param(["protocol", "--manifest", "{data}", "--train-frac",
                      "1.5"], "train_frac must be in (0, 1)",
                     id="protocol-train-frac"),
        pytest.param(["gen-data", "--levels", "7"],
                     "'contrast_reduction' with levels = 7, hw = 16",
                     id="gen-data-levels"),
        pytest.param(["panel-sim", "--checkpoint", "{ckpt:encoder_only}",
                      "--manifest", "{data}"],
                     "variant 'encoder_only' has no quality embeddings",
                     id="panel-sim-encoder-only"),
        pytest.param(["attn-map", "--checkpoint", "{ckpt:panel_no_decoder}",
                      "--image", "{image}"],
                     "variant 'panel_no_decoder' has no decoder attention",
                     id="attn-map-panel-no-decoder"),
        pytest.param(["train", "--manifest", "{data8}"],
                     "img00000.ppm: image 8x8 smaller than crop 12",
                     id="train-small-images"),
        pytest.param(["train", "--manifest", "{data}",
                      "--test-manifest", "{data8}"],
                     "img00000.ppm: image 8x8 smaller than crop 12",
                     id="train-small-test-images"),
        pytest.param(["eval", "--checkpoint", "{ckpt}",
                      "--manifest", "{data8}"],
                     "img00000.ppm: image 8x8 smaller than crop 12",
                     id="eval-small-images"),
        pytest.param(["protocol", "--manifest", "{data8}"],
                     "img00000.ppm: image 8x8 smaller than crop 12",
                     id="protocol-small-images"),
        pytest.param(["panel-sim", "--checkpoint", "{ckpt}",
                      "--manifest", "{data8}"],
                     "img00000.ppm: image 8x8 smaller than crop 12",
                     id="panel-sim-small-images"),
        pytest.param(["attn-map", "--checkpoint", "{ckpt}",
                      "--image", "{image8}"],
                     "ValueError: {image8}: image 8x8 smaller than crop 12",
                     id="attn-map-small-image"),
        pytest.param(["gen-data", "--kinds", ","], "kinds is empty",
                     id="gen-data-no-kinds"),
        pytest.param(["train", "--manifest", "{empty}"],
                     "empty.csv: manifest has no rows", id="train-empty"),
        pytest.param(["eval", "--checkpoint", "{ckpt}",
                      "--manifest", "{empty}"],
                     "empty.csv: manifest has no rows", id="eval-empty"),
        pytest.param(["protocol", "--manifest", "{empty}"],
                     "empty.csv: manifest has no rows", id="protocol-empty"),
        pytest.param(["panel-sim", "--checkpoint", "{ckpt}",
                      "--manifest", "{empty}"],
                     "empty.csv: manifest has no rows", id="panel-sim-empty"),
        pytest.param(["protocol", "--manifest", "{rows:2}"],
                     "rows2.csv: need at least 2 groups to split",
                     id="protocol-one-group"),
        pytest.param(["protocol", "--manifest", "{rows:1}"],
                     "rows1.csv: need at least 2 groups to split",
                     id="protocol-one-row"),
        pytest.param(["eval", "--checkpoint", "{ckpt}",
                      "--manifest", "{rows:1}"],
                     "rows1.csv: evaluate needs a manifest with n >= 2",
                     id="eval-one-row"),
        pytest.param(["train", "--manifest", "{rows:1}"],
                     "rows1.csv: evaluate needs a manifest with n >= 2",
                     id="train-one-row"),
        pytest.param(["train", "--manifest", "{data}",
                      "--test-manifest", "{rows:1}"],
                     "rows1.csv: evaluate needs a manifest with n >= 2",
                     id="train-one-row-test"),
        pytest.param(["protocol", "--manifest", "{data}", "--mode",
                      "data-efficiency", "--train-frac", "0.5"],
                     "fraction 0.6 exceeds train_frac 0.5",
                     id="protocol-fraction-above-train-frac"),
        pytest.param(["train", "--manifest", "{data}", "--channels", "1"],
                     "img00000.ppm: image has 3 channels, the model takes 1",
                     id="train-channels"),
        pytest.param(["protocol", "--manifest", "{data}", "--channels", "1"],
                     "img00000.ppm: image has 3 channels, the model takes 1",
                     id="protocol-channels"),
        pytest.param(["train", "--manifest", "{flat}"],
                     "flat.csv: evaluate needs two distinct scores",
                     id="train-equal-scores"),
        pytest.param(["eval", "--checkpoint", "{ckpt}", "--manifest", "{flat}"],
                     "flat.csv: evaluate needs two distinct scores",
                     id="eval-equal-scores"),
        pytest.param(["protocol", "--manifest", "{latin1.csv}"],
                     "ValueError: {latin1.csv}:2: byte 20 is not UTF-8 "
                     "(invalid continuation byte)", id="protocol-latin1"),
        pytest.param(["train", "--manifest", "{data}",
                      "--config", "{latin1.cfg}"],
                     "ConfigError: {latin1.cfg}:1: byte 17 is not UTF-8 "
                     "(invalid continuation byte)", id="train-latin1-config"),
    ])
    def test_failure_leaves_no_output_directory(self, capsys, tmp_path,
                                                toy_cfg_file, toy_dataset,
                                                ckpt32, argv, message):
        names = {"{data}": toy_dataset, "{ckpt}": ckpt32,
                 "{missing}": str(tmp_path / "nope"),
                 "{image}": os.path.join(os.path.dirname(toy_dataset),
                                         "img00000.ppm")}
        for a in argv:   # inputs only some cases read, built on demand
            if a.startswith("{ckpt:"):
                run = str(tmp_path / a[6:-1])
                assert main(["train", "--config", toy_cfg_file, "--variant",
                             a[6:-1], "--manifest", toy_dataset,
                             "--out", run]) == 0
                names[a] = os.path.join(run, "model.ckpt")
            elif a == "{bare}":   # ckpt32's model without optimizer state
                names[a] = str(tmp_path / "bare.ckpt")
                save_checkpoint(names[a], build_model(load_checkpoint(ckpt32)))
            elif a == "{no-opt-v}":   # a state without an opt.v.panel record
                model = build_model(load_checkpoint(ckpt32))
                state = OptimizerState.init(model.named_parameters())
                del state.v["panel"]
                names[a] = str(tmp_path / "no-opt-v.ckpt")
                save_checkpoint(names[a], model, optimizer=state)
            elif a in ("{data8}", "{image8}"):   # smaller than the toy crop_hw
                data8 = str(tmp_path / "data8")
                assert main(["gen-data", "--config", toy_cfg_file,
                             "--image-hw", "8", "--out", data8]) == 0
                names["{data8}"] = os.path.join(data8, "manifest.csv")
                names["{image8}"] = os.path.join(data8, "img00000.ppm")
            elif a == "{empty}":   # a header and no rows
                names[a] = str(tmp_path / "empty.csv")
                (tmp_path / "empty.csv").write_text("path,score,group\n")
            elif a.startswith("{rows:"):   # the first rows, all of one group
                n = int(a[6:-1])
                with open(toy_dataset) as fh:
                    head = fh.readlines()[:n + 1]
                names[a] = os.path.join(os.path.dirname(toy_dataset),
                                        f"rows{n}.csv")
                with open(names[a], "w") as fh:
                    fh.writelines(head)
            elif a in ("{latin1.csv}", "{latin1.cfg}"):   # a Latin-1 byte
                names[a] = str(tmp_path / a[1:-1])
                with open(names[a], "wb") as fh:
                    fh.write(b"path,score,group\nimg\xe9.ppm,0.5,g1\n"
                             if a == "{latin1.csv}" else
                             b"# token size, caf\xe9 recipe\ntoken_dim = 16\n")
            elif a == "{flat}":   # the toy manifest, every score 0.5
                with open(toy_dataset) as fh:
                    header, *rows = [line.split(",") for line in fh]
                names[a] = os.path.join(os.path.dirname(toy_dataset),
                                        "flat.csv")
                with open(names[a], "w") as fh:
                    fh.writelines(",".join(r) for r in [header] + [
                        [path, "0.5", group] for path, _, group in rows])
        out = tmp_path / "o"
        capsys.readouterr()
        config = [] if "--config" in argv else ["--config", toy_cfg_file]
        assert main([names.get(a, a) for a in argv]
                    + config + ["--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        for name in ("{ckpt}", "{image8}", "{latin1.csv}", "{latin1.cfg}"):
            message = message.replace(name, names.get(name, ""))
        assert message in err
        assert not out.exists()

    def test_resume_float32_without_config_or_precision(self, tmp_path,
                                                        toy_dataset, ckpt32):
        out = tmp_path / "resumed"
        assert main(["train", "--manifest", toy_dataset, "--resume", ckpt32,
                     "--epochs", "1", "--batch-size", "8",
                     "--crops-per-image", "1", "--eval-crops", "1",
                     "--out", str(out)]) == 0
        assert (load_checkpoint(str(out / "model.ckpt")).optimizer.step
                > load_checkpoint(ckpt32).optimizer.step)
        ev = tmp_path / "ev"
        assert main(["eval", "--checkpoint", ckpt32, "--manifest",
                     toy_dataset, "--eval-crops", "1", "--out", str(ev)]) == 0
        for text in ((out / "config.txt").read_text(),
                     (ev / "config.txt").read_text()):
            for line in ("token_dim = 16\n", "crop_hw = 12\n",
                         "precision = 32\n"):
                assert line in text
