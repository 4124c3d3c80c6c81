"""End-to-end tests for the command line interface.

Every test drives cli.main() in process, then inspects the exit code, the
captured output, and whatever files the command left behind.  A module-scoped
fixture runs the full pipeline (gen-data, split, two train runs) once on a
small dataset; the evaluation commands reuse those runs.
"""

import argparse
import os
import shutil

import numpy as np
import pytest

from attrembed import cli, errors
from attrembed.cli import UsageError, read_config_file, resolve, _get, _parse_attrs, _topk_ap
from attrembed.data import load_manifest
from attrembed.training import load_checkpoint, save_checkpoint


# Sizing keys have no command line flags on purpose; they ride in a config
# file.  out_spatial=2 pairs with 16 pixel images (the backbone halves the
# extent three times).
MODEL_CFG = """\
# model sizing for the small pipeline runs
channels = 8
attn_channels = 4
reduction = 2
embed_dim = 8
widths = 4,6
out_spatial = 2
backbone = tiny_conv
dtype = float32
"""

TRAIN_FLAGS = [
    "--variant", "full",
    "--epochs", "2",
    "--triplets-per-epoch", "40",
    "--batch-size", "8",
    "--learning-rate", "0.005",
    "--seed", "7",
]


@pytest.fixture(scope="module")
def pipeline(tmp_path_factory):
    root = tmp_path_factory.mktemp("cli_pipeline")
    data = root / "data"
    cfg = root / "model.cfg"
    cfg.write_text(MODEL_CFG, encoding="utf-8")
    manifest = str(data / "manifest.txt")
    assert cli.main([
        "gen-data", "--out", str(data),
        "--n-images", "80", "--image-size", "16", "--noise", "0.05", "--seed", "3",
    ]) == 0
    assert cli.main(["split", "--manifest", manifest, "--out", str(data), "--seed", "3"]) == 0
    run = root / "run_full"
    train_argv = ["train", "--config", str(cfg), "--manifest", manifest] + TRAIN_FLAGS
    assert cli.main(train_argv + ["--out", str(run)]) == 0
    base = root / "run_plain"
    assert cli.main([
        "train", "--config", str(cfg), "--manifest", manifest, "--out", str(base),
        "--variant", "triplet_plain", "--epochs", "1",
        "--triplets-per-epoch", "40", "--batch-size", "8",
        "--learning-rate", "0.005", "--seed", "7",
    ]) == 0
    return {
        "root": root,
        "cfg": cfg,
        "manifest": manifest,
        "run": run,
        "base": base,
        "train_argv": train_argv,
    }


class TestConfigHelpers:
    def test_read_config_file_parses_comments_and_overrides(self, tmp_path):
        path = tmp_path / "a.cfg"
        path.write_text("# top comment\nchannels = 8\n\nwidths=4,6  # trailing\nchannels=16\n")
        assert read_config_file(path) == {"channels": "16", "widths": "4,6"}

    def test_read_config_file_rejects_bare_word(self, tmp_path):
        path = tmp_path / "a.cfg"
        path.write_text("channels\n")
        with pytest.raises(UsageError, match=r":1: expected key=value"):
            read_config_file(path)

    def test_read_config_file_missing_path(self, tmp_path):
        with pytest.raises(UsageError, match="cannot read config file"):
            read_config_file(tmp_path / "absent.cfg")

    def test_resolve_flag_beats_file(self, tmp_path):
        path = tmp_path / "a.cfg"
        path.write_text("channels=8\nwidths=4,6\n")
        args = argparse.Namespace(config=str(path), channels=32)
        resolved = resolve(args, ("channels", "widths"))
        assert resolved == {"channels": "32", "widths": "4,6"}

    def test_resolve_rejects_unknown_file_key(self, tmp_path):
        path = tmp_path / "a.cfg"
        path.write_text("chanels=8\n")
        args = argparse.Namespace(config=str(path))
        with pytest.raises(UsageError, match="unknown config keys: chanels"):
            resolve(args, ("channels",))

    def test_get_casts_and_defaults(self):
        assert _get({"k": "3"}, "k", 0, int) == 3
        assert _get({}, "k", 17, int) == 17
        with pytest.raises(UsageError, match="bad value for k"):
            _get({"k": "three"}, "k", 0, int)

    def test_get_bool_spellings(self):
        for text in ("1", "true", "Yes", "ON"):
            assert _get({"k": text}, "k", False, bool) is True
        for text in ("0", "false", "no", "off", "junk"):
            assert _get({"k": text}, "k", True, bool) is False

    def test_parse_attrs(self):
        assert _parse_attrs(None) == []
        assert _parse_attrs("") == []
        assert _parse_attrs("0,2") == [0, 2]
        with pytest.raises(UsageError, match="bad --attrs"):
            _parse_attrs("0,x")

    def test_topk_ap_none_when_nothing_relevant(self):
        value_of = {"a": 0, "b": 1, "c": 0}
        assert _topk_ap(["a", "b", "c"], value_of, 2, 3) is None
        assert _topk_ap(["a", "b", "c"], value_of, 0, 2) == 1.0


class TestParserBehavior:
    def test_no_command_prints_help_and_fails(self, capsys):
        assert cli.main([]) == 1
        out = capsys.readouterr().out
        assert "usage:" in out
        assert "gen-data" in out

    def test_unknown_command(self, capsys):
        assert cli.main(["frobnicate"]) == 1
        assert "error:" in capsys.readouterr().err

    def test_bad_integer_flag(self, capsys):
        assert cli.main(["gen-data", "--n-images", "many"]) == 1
        assert "error:" in capsys.readouterr().err

    def test_missing_required_manifest(self, capsys):
        assert cli.main(["split", "--out", "x"]) == 1
        assert "--manifest" in capsys.readouterr().err

    def test_sizing_keys_are_not_flags(self, capsys):
        # widths and friends only exist as config file keys
        assert cli.main(["train", "--manifest", "m.txt", "--widths", "4,6"]) == 1
        assert "unrecognized arguments" in capsys.readouterr().err


class TestGenDataAndSplit:
    def test_gen_data_writes_images_and_manifest(self, tmp_path, capsys):
        out = tmp_path / "ds"
        rc = cli.main([
            "gen-data", "--out", str(out),
            "--n-images", "20", "--image-size", "8", "--noise", "0.0", "--seed", "5",
        ])
        assert rc == 0
        text = capsys.readouterr().out
        assert "[gen-data] resolved configuration:" in text
        assert "  image_size = 8" in text
        assert "  (seed 5)" in text
        ppms = sorted(os.listdir(out / "images"))
        assert len(ppms) == 20
        assert ppms[0] == "img_000000.ppm"
        manifest = load_manifest(out / "manifest.txt")
        assert len(manifest.records) == 20
        assert manifest.split_of == {}

    def test_gen_data_rejects_odd_size(self, tmp_path, capsys):
        rc = cli.main(["gen-data", "--out", str(tmp_path), "--n-images", "4", "--image-size", "9"])
        assert rc == 1
        assert "configuration error" in capsys.readouterr().err

    def test_unknown_config_key_fails_before_any_output(self, tmp_path, capsys):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text("n_imgaes=12\n")
        rc = cli.main(["gen-data", "--config", str(cfg), "--out", str(tmp_path / "ds")])
        assert rc == 1
        assert "unknown config keys" in capsys.readouterr().err
        assert not (tmp_path / "ds").exists()

    def test_config_file_drives_gen_data_and_flags_override(self, tmp_path):
        cfg = tmp_path / "gen.cfg"
        cfg.write_text("n_images=12\nimage_size=8\nnoise=0.0\n")
        out_a = tmp_path / "a"
        assert cli.main(["gen-data", "--config", str(cfg), "--out", str(out_a)]) == 0
        assert len(os.listdir(out_a / "images")) == 12
        out_b = tmp_path / "b"
        assert cli.main([
            "gen-data", "--config", str(cfg), "--out", str(out_b), "--n-images", "10",
        ]) == 0
        assert len(os.listdir(out_b / "images")) == 10

    def test_split_partitions_and_reports(self, tmp_path, capsys):
        out = tmp_path / "ds"
        assert cli.main([
            "gen-data", "--out", str(out),
            "--n-images", "40", "--image-size", "8", "--noise", "0.0", "--seed", "2",
        ]) == 0
        capsys.readouterr()
        rc = cli.main(["split", "--manifest", str(out / "manifest.txt"), "--out", str(out), "--seed", "2"])
        assert rc == 0
        assert "assigned splits:" in capsys.readouterr().out
        manifest = load_manifest(out / "manifest.txt")
        counts = {s: manifest.ids(s) for s in ("train", "val", "test")}
        assert [len(counts[s]) for s in ("train", "val", "test")] == [32, 4, 4]

    def test_split_missing_manifest_is_a_data_error(self, tmp_path, capsys):
        rc = cli.main(["split", "--manifest", str(tmp_path / "nope.txt"), "--out", str(tmp_path)])
        assert rc == 2
        assert "data error" in capsys.readouterr().err

    def test_split_bad_ratios(self, tmp_path, capsys):
        rc = cli.main([
            "split", "--manifest", str(tmp_path / "m.txt"), "--ratios", "8,1",
        ])
        assert rc == 1
        assert "three comma-separated numbers" in capsys.readouterr().err


class TestTrainedPipeline:
    def test_train_outputs(self, pipeline):
        run = pipeline["run"]
        for name in ("checkpoint.bin", "run_config.txt", "train_log.tsv"):
            assert (run / name).is_file()
        lines = (run / "train_log.tsv").read_text().splitlines()
        assert lines[0] == "epoch\tmean_loss\tlr\tval_metric"
        assert len(lines) == 3
        for i, line in enumerate(lines[1:], 1):
            epoch, loss, lr, metric = line.split("\t")
            assert int(epoch) == i
            assert 0.0 <= float(loss) < 10.0
            assert float(lr) > 0.0
            assert 0.0 <= float(metric) <= 1.0

    def test_run_config_round_trips(self, pipeline):
        stored = read_config_file(pipeline["run"] / "run_config.txt")
        assert stored["variant"] == "full"
        assert stored["widths"] == "4,6"
        assert stored["out_spatial"] == "2"
        assert stored["epochs"] == "2"
        keys = [line.split("=", 1)[0] for line in (pipeline["run"] / "run_config.txt").read_text().splitlines()]
        assert keys == sorted(keys)

    def test_checkpoint_loads_and_names_an_epoch(self, pipeline):
        checkpoint = load_checkpoint(pipeline["run"] / "checkpoint.bin")
        assert checkpoint.epoch in (1, 2)
        assert 0.0 <= checkpoint.metric <= 1.0
        assert "proj.weight" in checkpoint.state

    def test_train_is_deterministic_across_runs(self, pipeline):
        rerun = pipeline["root"] / "run_again"
        assert cli.main(pipeline["train_argv"] + ["--out", str(rerun)]) == 0
        original = (pipeline["run"] / "checkpoint.bin").read_bytes()
        repeated = (rerun / "checkpoint.bin").read_bytes()
        assert original == repeated

    def test_train_requires_split_section(self, tmp_path, capsys):
        out = tmp_path / "unsplit"
        assert cli.main([
            "gen-data", "--out", str(out),
            "--n-images", "12", "--image-size", "16", "--noise", "0.0",
        ]) == 0
        capsys.readouterr()
        rc = cli.main([
            "train", "--config", str_cfg(tmp_path), "--manifest", str(out / "manifest.txt"),
            "--out", str(tmp_path / "run"), "--epochs", "1",
        ])
        assert rc == 2
        assert "no split section" in capsys.readouterr().err

    def test_train_rejects_unknown_dtype(self, pipeline, tmp_path, capsys):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text(MODEL_CFG.replace("dtype = float32", "dtype = float16"))
        rc = cli.main([
            "train", "--config", str(cfg), "--manifest", pipeline["manifest"],
            "--out", str(tmp_path / "run"), "--epochs", "1",
        ])
        assert rc == 1
        assert "float32 or float64" in capsys.readouterr().err

    def test_eval_map_writes_report(self, pipeline, tmp_path, capsys):
        out = tmp_path / "eval"
        rc = cli.main([
            "eval-map", "--manifest", pipeline["manifest"], "--run", str(pipeline["run"]),
            "--split", "val", "--out", str(out),
        ])
        assert rc == 0
        text = capsys.readouterr().out
        assert "[eval-map] resolved configuration:" in text
        assert "queries 8" in text
        assert "overall MAP" in text
        assert "(random" in text
        lines = (out / "report.tsv").read_text().splitlines()
        header = lines[0].split("\t")
        assert header[0] == "variant"
        assert header[-1] == "overall"
        assert len(header) == 6
        assert lines[1].split("\t")[0] == "full"

    def test_eval_triplet_writes_file(self, pipeline, tmp_path, capsys):
        out = tmp_path / "eval"
        rc = cli.main([
            "eval-triplet", "--manifest", pipeline["manifest"], "--run", str(pipeline["run"]),
            "--split", "train", "--count", "150", "--seed", "5", "--out", str(out),
        ])
        assert rc == 0
        assert "triplet relation accuracy" in capsys.readouterr().out
        lines = (out / "triplet_eval.txt").read_text().splitlines()
        assert lines[0] == "split train"
        assert lines[1] == "count 150"
        assert lines[2] == "seed 5"
        accuracy = float(lines[3].split()[1])
        assert 0.0 <= accuracy <= 1.0

    def test_export_attention_files(self, pipeline, tmp_path, capsys):
        out = tmp_path / "maps"
        rc = cli.main([
            "export-attention", "--manifest", pipeline["manifest"], "--run", str(pipeline["run"]),
            "--split", "test", "--limit", "3", "--out", str(out),
        ])
        assert rc == 0
        assert "wrote attention maps for 3 images" in capsys.readouterr().out
        manifest = load_manifest(pipeline["manifest"])
        names = sorted(os.listdir(out / "attention"))
        assert names == sorted(i + ".attn.txt" for i in manifest.ids("test")[:3])
        lines = (out / "attention" / names[0]).read_text().splitlines()
        # four attributes, each a header line plus a 2x2 block
        assert len(lines) == 4 * 3
        for a in range(4):
            header = lines[3 * a].split()
            assert header[1] == manifest.vocabulary.names[a]
            assert header[2:] == ["2", "2"]
            block = np.array([[float(x) for x in lines[3 * a + 1 + r].split()] for r in range(2)])
            assert block.shape == (2, 2)
            assert np.all(block > 0.0)
            assert np.isclose(block.sum(), 1.0, atol=1e-5)

    def test_rerank_writes_tsv(self, pipeline, tmp_path, capsys):
        out = tmp_path / "rr"
        rc = cli.main([
            "rerank", "--manifest", pipeline["manifest"], "--run", str(pipeline["run"]),
            "--base-run", str(pipeline["base"]), "--split", "val", "--k", "4", "--out", str(out),
        ])
        assert rc == 0
        assert "mean top-4 AP before" in capsys.readouterr().out
        lines = (out / "rerank.tsv").read_text().splitlines()
        assert lines[0] == "query_id\tattribute\tap_before\tap_after"
        assert len(lines) > 1
        for line in lines[1:]:
            image_id, attr, before, after = line.split("\t")
            assert image_id.startswith("img_")
            assert 0.0 <= float(before) <= 1.0
            assert 0.0 <= float(after) <= 1.0

    def test_eval_map_on_non_run_directory(self, pipeline, tmp_path, capsys):
        empty = tmp_path / "empty"
        empty.mkdir()
        rc = cli.main([
            "eval-map", "--manifest", pipeline["manifest"], "--run", str(empty),
        ])
        assert rc == 1
        assert "run_config.txt" in capsys.readouterr().err

    def test_checkpoint_config_mismatch_is_detected(self, pipeline, tmp_path, capsys):
        copy = tmp_path / "tampered"
        shutil.copytree(pipeline["run"], copy)
        path = copy / "run_config.txt"
        path.write_text(path.read_text().replace("embed_dim=8", "embed_dim=4"))
        rc = cli.main([
            "eval-map", "--manifest", pipeline["manifest"], "--run", str(copy),
        ])
        assert rc == 2
        assert "does not match" in capsys.readouterr().err

    def eval_map_on_a_tampered_checkpoint(self, pipeline, tmp_path, tamper):
        copy = tmp_path / "tampered"
        shutil.copytree(pipeline["run"], copy)
        tamper(copy / "checkpoint.bin")
        return cli.main(["eval-map", "--manifest", pipeline["manifest"], "--run", str(copy), "--out", str(tmp_path)])

    def test_checkpoint_with_non_utf8_header_is_a_data_error(self, pipeline, tmp_path, capsys):
        def tamper(path):
            path.write_bytes(path.read_bytes().replace(b"config_hash ", b"config_hash \xff", 1))

        assert self.eval_map_on_a_tampered_checkpoint(pipeline, tmp_path, tamper) == 2
        assert "not UTF-8" in capsys.readouterr().err

    @pytest.mark.parametrize("change", ["drop", "reshape"])
    def test_checkpoint_state_mismatch_is_a_data_error(self, pipeline, tmp_path, capsys, change):
        def tamper(path):
            checkpoint = load_checkpoint(path)
            if change == "drop":
                del checkpoint.state["proj.bias"]
            else:
                checkpoint.state["proj.bias"] = checkpoint.state["proj.bias"][:-1]
            save_checkpoint(path, checkpoint)

        assert self.eval_map_on_a_tampered_checkpoint(pipeline, tmp_path, tamper) == 2
        assert "does not fit" in capsys.readouterr().err

    def data_copy(self, pipeline, tmp_path):
        data = tmp_path / "data"
        shutil.copytree(pipeline["root"] / "data", data)
        return data, load_manifest(str(data / "manifest.txt"))

    def test_eval_map_reads_only_its_split(self, pipeline, tmp_path, capsys):
        data, manifest = self.data_copy(pipeline, tmp_path)
        for image_id in manifest.ids("train") + manifest.ids("val"):
            os.remove(data / "images" / f"{image_id}.ppm")
        rc = cli.main([
            "eval-map", "--manifest", str(data / "manifest.txt"), "--run", str(pipeline["run"]),
            "--split", "test", "--out", str(tmp_path / "eval"),
        ])
        assert rc == 0
        assert "overall MAP" in capsys.readouterr().out

    def test_eval_map_still_fails_on_a_corrupt_image_of_its_split(self, pipeline, tmp_path, capsys):
        data, manifest = self.data_copy(pipeline, tmp_path)
        victim = manifest.ids("test")[0]
        (data / "images" / f"{victim}.ppm").write_bytes(b"P6\n16 16\n9")
        rc = cli.main([
            "eval-map", "--manifest", str(data / "manifest.txt"), "--run", str(pipeline["run"]),
            "--split", "test", "--out", str(tmp_path / "eval"),
        ])
        assert rc == 2
        assert victim in capsys.readouterr().err

    def test_load_images_for_restricts_to_the_named_splits(self, pipeline):
        manifest = load_manifest(pipeline["manifest"])
        images = cli.load_images_for(manifest, pipeline["manifest"], ("train", "val"))
        assert sorted(images) == sorted(manifest.ids("train") + manifest.ids("val"))


def str_cfg(tmp_path):
    path = tmp_path / "model.cfg"
    path.write_text(MODEL_CFG, encoding="utf-8")
    return str(path)


class TestGradCheckCommand:
    def test_passes_on_a_small_config(self, capsys):
        rc = cli.main([
            "grad-check", "--channels", "4", "--attn-channels", "2",
            "--reduction", "2", "--embed-dim", "4", "--spatial", "2", "--seed", "1",
        ])
        assert rc == 0
        out = capsys.readouterr().out
        assert "[grad-check] resolved configuration:" in out
        assert "gradient check: max relative error" in out

    def test_respects_config_file(self, tmp_path, capsys):
        cfg = tmp_path / "gc.cfg"
        cfg.write_text("channels=4\nattn_channels=2\nreduction=2\nembed_dim=4\nspatial=2\n")
        assert cli.main(["grad-check", "--config", str(cfg)]) == 0
        assert "  channels = 4" in capsys.readouterr().out


def _stub_raising(exc):
    def command(args):
        raise exc
    return command


class TestExitCodeMapping:
    """main() folds raised exceptions into the documented exit codes."""

    @pytest.mark.parametrize(
        "exc,code,marker",
        [
            (UsageError("bad flag"), 1, "error:"),
            (errors.ConfigError("inconsistent"), 1, "configuration error:"),
            (errors.FormatError("mangled file"), 2, "data error:"),
            (errors.VocabularyError("index 9"), 2, "data error:"),
            (errors.SamplingError("no triplets"), 2, "data error:"),
            (OSError("disk trouble"), 2, "data error:"),
            (errors.NumericalError("nan loss"), 3, "numerical failure:"),
            (errors.DegenerateVectorError("zero norm"), 3, "numerical failure:"),
            (errors.ContractError("broken precondition"), 3, "numerical failure:"),
        ],
    )
    def test_exceptions_become_exit_codes(self, monkeypatch, capsys, exc, code, marker):
        monkeypatch.setitem(cli.COMMANDS, "grad-check", _stub_raising(exc))
        assert cli.main(["grad-check"]) == code
        assert marker in capsys.readouterr().err
