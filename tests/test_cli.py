"""Command-line pipeline, exercised in process through ``main(argv)``."""

import base64
import contextlib
import inspect
import io
import json
import math
import os
import re
import shutil
import subprocess
import sys
from typing import get_type_hints

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import encode
from paracap import gradcheck
from paracap.cli import build_parser, main
from paracap.data import RESERVED, SyntheticWorldSpec, load_manifest, tokenize
from paracap.losses import LossConfig
from paracap.model import ModelConfig
from paracap.training import TrainConfig

GEN_CONFIG = {"n_agent_kinds": 2, "n_action_kinds": 2, "n_place_kinds": 2,
              "n_videos": 3, "n_held_out": 1, "events_per_video": 2,
              "snippets_per_event": 2, "seed": 9}

TRAIN_CONFIG = {
    "model": {"d_emb": 12, "n_layers": 1, "n_heads": 2, "ff_mult": 1,
              "k": 2, "max_len": 8},
    "train": {"lr": 1e-3, "warmup_epochs": 0, "epochs": 2, "batch_size": 2,
              "seed": 3},
    "loss": {"lam": 0.1},
}


# model fields the train command reads from the manifest and vocabulary
DERIVED = ("d_env", "d_agent", "d_frame", "vocab_size")


def write_json(path, obj):
    path.write_text(json.dumps(obj))
    return str(path)


def field_types(cls, skip=()):
    """(key, annotated type name) for every settable field of a config."""
    return [(k, t.__name__) for k, t in get_type_hints(cls).items()
            if k not in skip]


GEN_KEYS = field_types(SyntheticWorldSpec)
TRAIN_KEYS = [(section, key, kind)
              for section, cls in (("model", ModelConfig),
                                   ("train", TrainConfig),
                                   ("loss", LossConfig))
              for key, kind in field_types(cls, DERIVED)]

# manifest event fields and the annotated type each must have
EVENT_FIELDS = [("begin", "float"), ("end", "float"), ("caption", "str")]

_text = st.text(max_size=4)
_list = st.lists(st.integers(), max_size=2)
_non_finite = st.sampled_from([math.nan, math.inf, -math.inf, 10 ** 400])
# JSON values a field of each annotated type must reject: a string, a bool
# for a number, a float for an int, a list, null, and a number with no
# finite float value
WRONG = {
    "int": st.one_of(_text, st.booleans(), st.floats(), _list, st.none()),
    "float": st.one_of(_text, st.booleans(), _non_finite, _list, st.none()),
    "bool": st.one_of(_text, st.integers(), st.floats(), _list, st.none()),
    "tuple": st.one_of(_text, st.booleans(), st.integers(), st.floats(),
                       st.none()),
    "str": st.one_of(st.booleans(), st.integers(), st.floats(), _list,
                     st.none()),
}


def is_base64(text):
    try:
        base64.b64decode(text, validate=True)
    except ValueError:
        return False
    return True


# checkpoint parameter entries: a shape must be a list of sizes and the
# values a strict base64 string of the parameter's float64 bytes; a tuple
# holds a character spliced into the parameter's own encoding ("=" is not
# among them: after a whole quad, b64decode skips a surplus one)
_scalar = st.one_of(st.booleans(), st.integers(), st.floats(), st.none())
_not_base64 = st.text(max_size=12).filter(lambda t: not is_base64(t))
WRONG_ENTRY = {
    "shape": st.one_of(_text, st.booleans(), st.floats(), st.none(),
                       st.lists(st.one_of(_text, st.booleans(), st.floats(),
                                          st.integers(max_value=-1), st.none()),
                                min_size=1, max_size=3)),
    "values": st.one_of(_scalar, st.dictionaries(_text, st.integers(), max_size=1),
                        st.lists(st.floats(), max_size=3), _not_base64,
                        st.tuples(st.sampled_from(list(" \n!-_.:é\x00")))),
}
# float64 bit patterns with every exponent bit set: both infinities and every NaN
_non_finite_bits = st.builds(lambda sign, mantissa: sign << 63 | 0x7FF << 52 | mantissa,
                             st.integers(0, 1), st.integers(0, 2 ** 52 - 1))


def edited_manifest(data_dir, path, edit):
    """The generated train manifest, its second video changed by ``edit``."""
    lines = (data_dir / "train.jsonl").read_text().splitlines()
    video = json.loads(lines[1])
    edit(video)
    lines[1] = json.dumps(video)
    path.write_text("\n".join(lines) + "\n")
    return str(path)


def run_main(argv):
    """Exit code and stderr of one in-process CLI run."""
    err = io.StringIO()
    with contextlib.redirect_stderr(err):
        code = main(argv)
    return code, err.getvalue()


def gen_world(root, **overrides):
    """Output directory of ``gen-data`` on ``GEN_CONFIG`` changed by ``overrides``."""
    cfg = write_json(root / "world.json", dict(GEN_CONFIG, **overrides))
    out = root / "data"
    assert main(["gen-data", "--config", cfg, "--out", str(out)]) == 0
    return out


@pytest.fixture(scope="module")
def data_dir(tmp_path_factory):
    return gen_world(tmp_path_factory.mktemp("cli-data"))


@pytest.fixture(scope="module")
def run_dir(data_dir, tmp_path_factory):
    root = tmp_path_factory.mktemp("cli-run")
    cfg = write_json(root / "train.json", TRAIN_CONFIG)
    out = root / "run"
    assert main(["train", "--config", cfg,
                 "--manifest", str(data_dir / "train.jsonl"),
                 "--table", str(data_dir / "table.json"),
                 "--out", str(out)]) == 0
    return out


class TestGenData:
    def test_writes_all_artifacts(self, data_dir):
        assert len((data_dir / "train.jsonl").read_text().splitlines()) == 3
        assert len((data_dir / "held_out.jsonl").read_text().splitlines()) == 1
        assert (data_dir / "table.json").exists()
        run = json.loads((data_dir / "run_config.json").read_text())
        assert run["subcommand"] == "gen-data"
        assert run["seed"] == 9
        assert run["config"]["n_videos"] == 3
        assert run["schema_version"] == 1

    def test_same_config_regenerates_identical_files(self, tmp_path):
        cfg = write_json(tmp_path / "world.json", GEN_CONFIG)
        outs = []
        for name in ("a", "b"):
            out = tmp_path / name
            assert main(["gen-data", "--config", cfg, "--out", str(out)]) == 0
            outs.append((out / "train.jsonl").read_bytes())
        assert outs[0] == outs[1]

    def test_seed_flag_overrides_the_config_seed(self, tmp_path, data_dir):
        cfg = write_json(tmp_path / "world.json", GEN_CONFIG)
        out = tmp_path / "other"
        assert main(["gen-data", "--config", cfg, "--seed", "10",
                     "--out", str(out)]) == 0
        run = json.loads((out / "run_config.json").read_text())
        assert run["seed"] == 10
        assert (out / "train.jsonl").read_bytes() != \
            (data_dir / "train.jsonl").read_bytes()

    def test_no_held_out_file_when_split_is_empty(self, tmp_path):
        cfg = write_json(tmp_path / "world.json",
                         dict(GEN_CONFIG, n_held_out=0))
        out = tmp_path / "data"
        assert main(["gen-data", "--config", cfg, "--out", str(out)]) == 0
        assert not (out / "held_out.jsonl").exists()

    def test_bad_spec_key_fails_with_validation_exit(self, tmp_path, capsys):
        cfg = write_json(tmp_path / "world.json", dict(GEN_CONFIG, wheels=4))
        assert main(["gen-data", "--config", cfg,
                     "--out", str(tmp_path / "x")]) == 2
        assert "wheels" in capsys.readouterr().err


class TestTrain:
    def test_writes_checkpoint_log_and_run_config(self, run_dir):
        assert (run_dir / "checkpoint.json").exists()
        log = (run_dir / "train_log.jsonl").read_text().splitlines()
        assert len(log) == 2
        assert sorted(json.loads(log[0])) == ["L_cap", "L_con", "acc",
                                              "epoch", "tau"]
        run = json.loads((run_dir / "run_config.json").read_text())
        assert run["subcommand"] == "train"
        assert run["seed"] == 3
        assert run["config"]["model"]["d_emb"] == 12
        assert run["config"]["model"]["vocab_size"] == 12
        assert run["config"]["train"]["epochs"] == 2
        assert run["config"]["loss"]["lam"] == 0.1

    def test_zero_epochs_still_emits_a_checkpoint(self, data_dir, tmp_path):
        cfg_obj = json.loads(json.dumps(TRAIN_CONFIG))
        cfg_obj["train"].update(epochs=0, warmup_epochs=0)
        cfg = write_json(tmp_path / "t.json", cfg_obj)
        out = tmp_path / "run0"
        assert main(["train", "--config", cfg,
                     "--manifest", str(data_dir / "train.jsonl"),
                     "--table", str(data_dir / "table.json"),
                     "--out", str(out)]) == 0
        assert (out / "checkpoint.json").exists()
        assert (out / "train_log.jsonl").read_text() == ""

    def test_seed_flag_lands_in_run_config(self, data_dir, tmp_path):
        cfg = write_json(tmp_path / "t.json", TRAIN_CONFIG)
        out = tmp_path / "run"
        assert main(["train", "--config", cfg, "--seed", "11",
                     "--manifest", str(data_dir / "train.jsonl"),
                     "--table", str(data_dir / "table.json"),
                     "--out", str(out)]) == 0
        run = json.loads((out / "run_config.json").read_text())
        assert run["seed"] == 11
        assert run["config"]["model"]["seed"] == 11

    def test_mle_flag_disables_the_contrastive_term(self, data_dir, tmp_path):
        cfg = write_json(tmp_path / "t.json",
                         dict(TRAIN_CONFIG, loss={"use_contrastive": False}))
        out = tmp_path / "run"
        assert main(["train", "--config", cfg,
                     "--manifest", str(data_dir / "train.jsonl"),
                     "--table", str(data_dir / "table.json"),
                     "--out", str(out)]) == 0
        run = json.loads((out / "run_config.json").read_text())
        assert run["config"]["loss"]["use_contrastive"] is False
        log = (out / "train_log.jsonl").read_text().splitlines()
        assert all(json.loads(line)["L_con"] == 0.0 for line in log)

    def test_oversized_k_is_rejected(self, data_dir, tmp_path, capsys):
        cfg_obj = json.loads(json.dumps(TRAIN_CONFIG))
        cfg_obj["model"]["k"] = 99
        cfg = write_json(tmp_path / "t.json", cfg_obj)
        assert main(["train", "--config", cfg,
                     "--manifest", str(data_dir / "train.jsonl"),
                     "--table", str(data_dir / "table.json"),
                     "--out", str(tmp_path / "run")]) == 2
        err = capsys.readouterr().err
        assert "t.json" in err and "table.json" in err
        assert "k=99 exceeds" in err
        assert not (tmp_path / "run").exists()

    def test_unknown_config_section_is_rejected(self, data_dir, tmp_path,
                                                capsys):
        cfg = write_json(tmp_path / "t.json",
                         dict(TRAIN_CONFIG, optimizer={}))
        assert main(["train", "--config", cfg,
                     "--manifest", str(data_dir / "train.jsonl"),
                     "--table", str(data_dir / "table.json"),
                     "--out", str(tmp_path / "run")]) == 2
        assert "unknown config section" in capsys.readouterr().err

    def test_unknown_modality_is_rejected(self, data_dir, tmp_path, capsys):
        cfg_obj = json.loads(json.dumps(TRAIN_CONFIG))
        cfg_obj["model"]["modalities"] = ["env", "bogus"]
        cfg = write_json(tmp_path / "t.json", cfg_obj)
        assert main(["train", "--config", cfg,
                     "--manifest", str(data_dir / "train.jsonl"),
                     "--table", str(data_dir / "table.json"),
                     "--out", str(tmp_path / "run")]) == 2
        assert "bogus" in capsys.readouterr().err

    def test_invalid_config_json_is_rejected(self, data_dir, tmp_path, capsys):
        bad = tmp_path / "t.json"
        bad.write_text("{nope")
        assert main(["train", "--config", str(bad),
                     "--manifest", str(data_dir / "train.jsonl"),
                     "--table", str(data_dir / "table.json"),
                     "--out", str(tmp_path / "run")]) == 2
        assert "not valid JSON" in capsys.readouterr().err

    def test_wrong_schema_version_is_rejected(self, data_dir, tmp_path,
                                              capsys):
        # true and 1.0 equal 1 in Python but are not the JSON integer 1
        for version in (99, True, 1.0):
            cfg = write_json(tmp_path / "t.json",
                             dict(TRAIN_CONFIG, schema_version=version))
            assert main(["train", "--config", cfg,
                         "--manifest", str(data_dir / "train.jsonl"),
                         "--table", str(data_dir / "table.json"),
                         "--out", str(tmp_path / "run")]) == 2
            assert "t.json: schema_version" in capsys.readouterr().err
            assert not (tmp_path / "run").exists()

    def test_missing_manifest_exits_one(self, data_dir, tmp_path, capsys):
        assert main(["train",
                     "--manifest", str(tmp_path / "absent.jsonl"),
                     "--table", str(data_dir / "table.json"),
                     "--out", str(tmp_path / "run")]) == 1
        assert "file not found" in capsys.readouterr().err

    def test_non_finite_manifest_value_is_rejected(self, data_dir, tmp_path,
                                                   capsys):
        def edit(video):
            video["events"][0]["snippets"][1]["frame"][0] = float("nan")
        manifest = edited_manifest(data_dir, tmp_path / "nan.jsonl", edit)
        assert main(["train", "--manifest", manifest,
                     "--table", str(data_dir / "table.json"),
                     "--out", str(tmp_path / "run")]) == 2
        assert "nan.jsonl:2 event 0 snippet 1: frame" in capsys.readouterr().err

    @pytest.mark.parametrize("value", [True, "0.5", 10 ** 400],
                             ids=["true", "string", "huge-int"])
    @pytest.mark.parametrize("field", ["env", "agents", "frame"])
    def test_manifest_feature_that_is_not_a_number_is_rejected(
            self, data_dir, tmp_path, field, value):
        # bools and numeric strings are not converted, and an int beyond the
        # float range is named instead of raising OverflowError in training
        def edit(video):
            snippet = video["events"][0]["snippets"][1]
            entries = snippet["agents"][0] if field == "agents" else snippet[field]
            entries[0] = value
        manifest = edited_manifest(data_dir, tmp_path / "bad.jsonl", edit)
        code, err = run_main(["train", "--manifest", manifest,
                              "--table", str(data_dir / "table.json"),
                              "--out", str(tmp_path / "run")])
        assert code == 2
        assert f"bad.jsonl:2 event 0 snippet 1: {field} holds" in err
        assert "is not a finite number" in err
        assert not (tmp_path / "run").exists()

    @pytest.mark.parametrize("where", ["event 0", "event 0 snippet 0"])
    def test_non_object_manifest_entry_is_rejected(self, data_dir, tmp_path,
                                                   capsys, where):
        def edit(video):
            entries = video["events"]
            if "snippet" in where:
                entries = entries[0]["snippets"]
            entries.insert(0, 5)
        manifest = edited_manifest(data_dir, tmp_path / "entry.jsonl", edit)
        assert main(["train", "--manifest", manifest,
                     "--table", str(data_dir / "table.json"),
                     "--out", str(tmp_path / "run")]) == 2
        assert f"entry.jsonl:2 {where}: expected an object" in capsys.readouterr().err

    def test_empty_manifest_is_rejected(self, data_dir, tmp_path, capsys):
        empty = tmp_path / "empty.jsonl"
        empty.write_text("")
        assert main(["train", "--manifest", str(empty),
                     "--table", str(data_dir / "table.json"),
                     "--out", str(tmp_path / "run")]) == 2
        assert "no videos" in capsys.readouterr().err

    @pytest.mark.parametrize("key", DERIVED)
    def test_derived_model_key_is_rejected(self, data_dir, tmp_path, capsys,
                                           key):
        cfg_obj = json.loads(json.dumps(TRAIN_CONFIG))
        cfg_obj["model"][key] = 3
        cfg = write_json(tmp_path / "t.json", cfg_obj)
        assert main(["train", "--config", cfg,
                     "--manifest", str(data_dir / "train.jsonl"),
                     "--table", str(data_dir / "table.json"),
                     "--out", str(tmp_path / "run")]) == 2
        err = capsys.readouterr().err
        assert f"t.json: model: {key} is read from the data" in err
        assert not (tmp_path / "run").exists()

    def test_non_object_section_is_rejected(self, data_dir, tmp_path, capsys):
        cfg = write_json(tmp_path / "t.json", dict(TRAIN_CONFIG, model=5))
        assert main(["train", "--config", cfg,
                     "--manifest", str(data_dir / "train.jsonl"),
                     "--table", str(data_dir / "table.json"),
                     "--out", str(tmp_path / "run")]) == 2
        assert "t.json: model must be a JSON object" in capsys.readouterr().err

    @pytest.mark.parametrize("key, value, message", [
        ("modalities", ["env", "env"], "t.json: model: modalities must be"),
        # 2 snippets + BOS + 8 decoded tokens need 11 positions
        ("max_pos", 10, "more than max_pos 10"),
    ], ids=["repeated-modality", "small-max-pos"])
    def test_model_that_cannot_run_is_rejected_before_any_output(
            self, data_dir, tmp_path, capsys, key, value, message):
        cfg_obj = json.loads(json.dumps(TRAIN_CONFIG))
        cfg_obj["model"][key] = value
        cfg = write_json(tmp_path / "t.json", cfg_obj)
        assert main(["train", "--config", cfg,
                     "--manifest", str(data_dir / "train.jsonl"),
                     "--table", str(data_dir / "table.json"),
                     "--out", str(tmp_path / "run")]) == 2
        err = capsys.readouterr().err
        assert message in err and "t.json" in err
        assert not (tmp_path / "run").exists()

    def test_derived_max_pos_is_the_largest_event_row_count(self, data_dir, tmp_path,
                                                             capsys):
        # without a max_pos key, train sizes pos_embed to the rows its
        # longest event needs (see the test below), not a row more
        records = load_manifest(str(data_dir / "train.jsonl"))
        max_len = TRAIN_CONFIG["model"]["max_len"]
        need = max(len(ev.snippets) + 1 + max(len(tokenize(ev.caption)), max_len)
                   for rec in records for ev in rec.events)
        cfg_obj = json.loads(json.dumps(TRAIN_CONFIG))
        cfg_obj["train"].update(epochs=0, warmup_epochs=0)
        assert "max_pos" not in cfg_obj["model"]
        cfg = write_json(tmp_path / "t.json", cfg_obj)
        assert main(["train", "--config", cfg,
                     "--manifest", str(data_dir / "train.jsonl"),
                     "--table", str(data_dir / "table.json"),
                     "--out", str(tmp_path / "run")]) == 0
        capsys.readouterr()
        ckpt = json.loads((tmp_path / "run" / "checkpoint.json").read_text())
        assert ckpt["config"]["max_pos"] == need
        assert ckpt["params"]["decoder.pos_embed.table"]["shape"][0] == need

    def test_max_pos_bound_is_the_exact_row_count(self, data_dir, tmp_path,
                                                  capsys):
        # training feeds BOS plus the caption, decoding BOS plus up to
        # max_len tokens, after one row per snippet; an untrained model
        # decodes to the cap, so the decode below fills every position
        records = load_manifest(str(data_dir / "train.jsonl"))
        max_len = TRAIN_CONFIG["model"]["max_len"]
        need = max(len(ev.snippets) + 1 + max(len(tokenize(ev.caption)), max_len)
                   for rec in records for ev in rec.events)
        cfg_obj = json.loads(json.dumps(TRAIN_CONFIG))
        cfg_obj["train"].update(epochs=0, warmup_epochs=0)
        codes = []
        for max_pos in (need - 1, need):
            cfg_obj["model"]["max_pos"] = max_pos
            cfg = write_json(tmp_path / "t.json", cfg_obj)
            codes.append(main(["train", "--config", cfg,
                               "--manifest", str(data_dir / "train.jsonl"),
                               "--table", str(data_dir / "table.json"),
                               "--out", str(tmp_path / f"run{max_pos}")]))
        assert codes == [2, 0]
        ckpt = json.loads((tmp_path / f"run{need}" / "checkpoint.json").read_text())
        n_snippets = len(records[0].events[0].snippets)
        for cap, code in ((need - n_snippets - 1, 0), (need - n_snippets, 2)):
            ckpt["config"]["max_len"] = cap
            path = tmp_path / f"cap{cap}.json"
            path.write_text(json.dumps(ckpt))
            assert main(["decode", "--checkpoint", str(path),
                         "--manifest", str(data_dir / "train.jsonl"),
                         "--table", str(data_dir / "table.json"),
                         "--out", str(tmp_path / f"dec{cap}")]) == code
        capsys.readouterr()


class TestEvalAndDecode:
    def eval_args(self, run_dir, data_dir, out, manifest="held_out.jsonl"):
        return ["--checkpoint", str(run_dir / "checkpoint.json"),
                "--manifest", str(data_dir / manifest),
                "--table", str(data_dir / "table.json"),
                "--out", str(out)]

    def test_eval_writes_report_matching_stdout(self, run_dir, data_dir,
                                                tmp_path, capsys):
        out = tmp_path / "eval"
        assert main(["eval"] + self.eval_args(run_dir, data_dir, out)) == 0
        report = json.loads((out / "report.json").read_text())
        assert report == json.loads(capsys.readouterr().out)
        assert sorted(report) == ["bleu4", "div2", "n_events", "n_videos",
                                  "rep4", "rouge_l", "skipped"]
        assert report["n_videos"] == 1

    def test_eval_twice_produces_identical_reports(self, run_dir, data_dir,
                                                   tmp_path):
        outs = []
        for name in ("a", "b"):
            out = tmp_path / name
            assert main(["eval"] + self.eval_args(run_dir, data_dir, out)) == 0
            outs.append((out / "report.json").read_bytes())
        assert outs[0] == outs[1]

    def test_decode_writes_one_line_per_video(self, run_dir, data_dir,
                                              tmp_path):
        out = tmp_path / "dec"
        assert main(["decode"] + self.eval_args(run_dir, data_dir, out,
                                                "train.jsonl")) == 0
        lines = (out / "decoded.jsonl").read_text().splitlines()
        assert len(lines) == 3
        for line in lines:
            row = json.loads(line)
            assert sorted(row) == ["sentences", "video_id"]
            assert len(row["sentences"]) == 2
            assert all(isinstance(s, str) for s in row["sentences"])

    def test_decode_twice_is_deterministic(self, run_dir, data_dir, tmp_path):
        outs = []
        for name in ("a", "b"):
            out = tmp_path / name
            assert main(["decode"] + self.eval_args(run_dir, data_dir,
                                                    out)) == 0
            outs.append((out / "decoded.jsonl").read_bytes())
        assert outs[0] == outs[1]

    def test_max_len_caps_decoded_sentences(self, data_dir, tmp_path):
        cfg_obj = json.loads(json.dumps(TRAIN_CONFIG))
        cfg_obj["model"]["max_len"] = 3
        cfg_obj["train"].update(epochs=0, warmup_epochs=0)
        cfg = write_json(tmp_path / "t.json", cfg_obj)
        run = tmp_path / "run"
        assert main(["train", "--config", cfg,
                     "--manifest", str(data_dir / "train.jsonl"),
                     "--table", str(data_dir / "table.json"),
                     "--out", str(run)]) == 0
        out = tmp_path / "dec"
        assert main(["decode"] + self.eval_args(run, data_dir, out)) == 0
        assert "max_len" not in json.loads((out / "run_config.json").read_text())["config"]
        lengths = [len(sentence.split())
                   for line in (out / "decoded.jsonl").read_text().splitlines()
                   for sentence in json.loads(line)["sentences"]]
        assert max(lengths) == 3   # the untrained model runs to the cap

    def test_eval_rejects_a_table_of_the_wrong_width(self, run_dir, data_dir,
                                                     tmp_path, capsys):
        table = json.loads((data_dir / "table.json").read_text())
        table["text_features"] = [row[:-1] for row in table["text_features"]]
        table["W_t"] = table["W_t"][:-1]
        table["W_i"] = table["W_i"][:-1]
        bad = tmp_path / "narrow.json"
        bad.write_text(json.dumps(table))
        args = self.eval_args(run_dir, data_dir, tmp_path / "out")
        args[args.index("--table") + 1] = str(bad)
        assert main(["eval"] + args) == 2
        assert "table width" in capsys.readouterr().err

    def test_eval_rejects_a_checkpoint_without_vocabulary(self, run_dir,
                                                          data_dir, tmp_path,
                                                          capsys):
        ckpt = json.loads((run_dir / "checkpoint.json").read_text())
        ckpt["config"].pop("vocab_tokens")
        stripped = tmp_path / "novocab.json"
        stripped.write_text(json.dumps(ckpt))
        args = self.eval_args(run_dir, data_dir, tmp_path / "out")
        args[args.index("--checkpoint") + 1] = str(stripped)
        assert main(["eval"] + args) == 2
        assert "no vocabulary" in capsys.readouterr().err

    def test_decode_rejects_a_non_finite_checkpoint(self, run_dir, data_dir,
                                                    tmp_path, capsys):
        ckpt = json.loads((run_dir / "checkpoint.json").read_text())
        raw = base64.b64decode(ckpt["params"]["decoder.head.w"]["values"])
        for bad_value in (math.nan, math.inf, -math.inf):
            ckpt["params"]["decoder.head.w"]["values"] = encode(
                np.float64(bad_value).tobytes() + raw[8:])
            bad = tmp_path / "nan.json"
            bad.write_text(json.dumps(ckpt))
            args = self.eval_args(run_dir, data_dir, tmp_path / "out")
            args[args.index("--checkpoint") + 1] = str(bad)
            assert main(["decode"] + args) == 2
            err = capsys.readouterr().err
            assert "nan.json: decoder.head.w holds a non-finite value" in err
            assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("edit, message", [
        ({"format_version": True}, "format_version True unsupported"),
        ({"format_version": 1.0}, "format_version 1.0 unsupported"),
        # the JSON-number payload of earlier checkpoints is not read
        ({"format_version": 1}, "format_version 1 unsupported (expected 2)"),
        ({"modalities": ["bogus"]}, "bad.json: config: modalities must be"),
        # 2 snippets + BOS + 64 decoded tokens outgrow the trained max_pos
        ({"max_len": 64}, "rows, more than max_pos"),
        # 2**64 values, a count that wraps to 0 in int64 arithmetic
        ({"shape": [2 ** 32, 2 ** 32]},
         "decoder.head.w: 1152 bytes do not fit shape [4294967296, 4294967296]"),
        # 2**64 + 144 values wrap in int64 to the 144 the file holds
        ({"shape": [2 ** 60 + 9, 16]},
         "decoder.head.w: 1152 bytes do not fit shape [1152921504606846985, 16]"),
    ], ids=["version-true", "version-float", "version-1", "modality", "max-len",
            "huge-shape", "wrapping-shape"])
    def test_bad_checkpoint_is_rejected_before_any_output(
            self, run_dir, data_dir, tmp_path, capsys, edit, message):
        ckpt = json.loads((run_dir / "checkpoint.json").read_text())
        if "format_version" in edit:
            ckpt.update(edit)
        elif "shape" in edit:
            ckpt["params"]["decoder.head.w"].update(edit)
        else:
            ckpt["config"].update(edit)
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(ckpt))
        for command in ("eval", "decode"):
            out = tmp_path / "out"
            args = self.eval_args(run_dir, data_dir, out)
            args[args.index("--checkpoint") + 1] = str(bad)
            assert main([command] + args) == 2
            err = capsys.readouterr().err
            assert "bad.json" in err and message in err
            assert not out.exists()

    @pytest.mark.parametrize("key, value", [
        ("tokens", "string"), ("tokens", 5), ("text_features", True),
        ("text_features", "0.5"), ("text_features", 10 ** 400), ("W_t", True),
        ("W_t", "0.5"), ("W_t", 10 ** 400), ("W_i", True), ("W_i", "0.5"),
        ("W_i", 10 ** 400),
    ], ids=lambda v: "huge-int" if v == 10 ** 400 else str(v))
    def test_table_value_of_the_wrong_type_is_rejected(self, run_dir, data_dir,
                                                       tmp_path, key, value):
        # the table is read as it is: no string split into one token per
        # character, and no bool, numeric string or out-of-range int turned
        # into a float
        table = json.loads((data_dir / "table.json").read_text())
        if value == "string":
            table["tokens"] = "x" * len(table["tokens"])
        elif key == "tokens":
            table["tokens"][1] = value
        else:
            table[key][1][0] = value
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(table))
        for command in ("eval", "decode"):
            out = tmp_path / "out"
            args = self.eval_args(run_dir, data_dir, out)
            args[args.index("--table") + 1] = str(bad)
            code, err = run_main([command] + args)
            assert code == 2
            assert f"bad.json: {key} " in err
            assert not out.exists()

    def test_table_with_fewer_tokens_than_k_is_rejected(self, run_dir, data_dir,
                                                        tmp_path, capsys):
        table = json.loads((data_dir / "table.json").read_text())
        table["tokens"] = table["tokens"][:1]
        table["text_features"] = table["text_features"][:1]
        small = tmp_path / "small.json"
        small.write_text(json.dumps(table))
        for command in ("eval", "decode"):
            out = tmp_path / "out"
            args = self.eval_args(run_dir, data_dir, out)
            args[args.index("--table") + 1] = str(small)
            assert main([command] + args) == 2
            err = capsys.readouterr().err
            assert "checkpoint.json" in err and "small.json" in err
            assert "k=2 exceeds the 1 tokens" in err
            assert not out.exists()

    @pytest.mark.parametrize("key, width, field, model_width", [
        ("d_env", 10, "env", 12), ("d_agent", 7, "agents", 10), ("d_frame", 9, "frame", 16),
    ])
    def test_snippets_of_another_width_are_rejected_before_any_output(
            self, run_dir, data_dir, tmp_path, capsys, key, width, field, model_width):
        other = gen_world(tmp_path, **{key: width})
        for command in ("eval", "decode"):
            out = tmp_path / "out"
            args = self.eval_args(run_dir, data_dir, out)
            args[args.index("--manifest") + 1] = str(other / "held_out.jsonl")
            assert main([command] + args) == 2
            err = capsys.readouterr().err
            assert str(other / "held_out.jsonl") in err
            assert (f"video heldout-000 event 0 snippet 0: {field} width {width} "
                    f"does not match model {key} {model_width}") in err
            assert not out.exists()

    @pytest.mark.parametrize("key, width", [("d_agent", 7), ("d_frame", 9)])
    def test_env_only_checkpoint_ignores_the_widths_it_does_not_read(
            self, data_dir, tmp_path, key, width):
        cfg_obj = json.loads(json.dumps(TRAIN_CONFIG))
        cfg_obj["model"]["modalities"] = ["env"]
        cfg_obj["train"].update(epochs=0, warmup_epochs=0)
        run = tmp_path / "run"
        assert main(["train", "--config", write_json(tmp_path / "t.json", cfg_obj),
                     "--manifest", str(data_dir / "train.jsonl"),
                     "--table", str(data_dir / "table.json"), "--out", str(run)]) == 0
        other = gen_world(tmp_path, **{key: width})
        args = self.eval_args(run, data_dir, tmp_path / "out")
        args[args.index("--manifest") + 1] = str(other / "held_out.jsonl")
        assert main(["eval"] + args) == 0

    def test_caption_without_tokens_is_rejected_before_any_output(
            self, run_dir, data_dir, tmp_path, capsys):
        manifest = edited_manifest(data_dir, tmp_path / "blank.jsonl",
                                   lambda video: video["events"][1].update(caption="!!!"))
        out = tmp_path / "out"
        train_args = ["train", "--manifest", manifest,
                      "--table", str(data_dir / "table.json"), "--out", str(out)]
        eval_args = self.eval_args(run_dir, data_dir, out)
        eval_args[eval_args.index("--manifest") + 1] = manifest
        for argv in (train_args, ["eval"] + eval_args, ["decode"] + eval_args):
            assert main(argv) == 2
            err = capsys.readouterr().err
            assert "blank.jsonl:2 event 1: caption '!!!' holds no tokens" in err
            assert not out.exists()

    @pytest.mark.parametrize("command", ["eval", "decode"])
    def test_config_and_seed_flags_are_usage_errors(self, run_dir, data_dir,
                                                    tmp_path, capsys, command):
        # neither command reads a config file or a seed, so neither flag is
        # accepted and then silently ignored
        for flag in (["--config", str(tmp_path / "c.json")], ["--seed", "3"]):
            out = tmp_path / "out"
            assert main([command] + flag +
                        self.eval_args(run_dir, data_dir, out)) == 1
            assert not out.exists()
        capsys.readouterr()


class TestUsage:
    def test_no_arguments_is_a_usage_error(self, capsys):
        assert main([]) == 1
        capsys.readouterr()

    def test_unknown_subcommand_is_a_usage_error(self, capsys):
        assert main(["frobnicate"]) == 1
        capsys.readouterr()

    def test_help_exits_cleanly(self, capsys):
        assert main(["--help"]) == 0
        assert "gen-data" in capsys.readouterr().out

    @pytest.mark.parametrize("command, flag", [
        ("train", ["--k", "2"]), ("train", ["--max-len", "3"]),
        ("train", ["--modalities", "env"]), ("train", ["--loss", "mle"]),
        ("eval", ["--max-len", "3"]), ("decode", ["--max-len", "3"]),
    ], ids=lambda v: v[0] if isinstance(v, list) else v)
    def test_removed_flag_is_a_usage_error(self, data_dir, tmp_path, capsys,
                                           command, flag):
        # each of these values has one way in: the train config, or the
        # checkpoint that config produced
        inputs = (["--manifest", str(data_dir / "train.jsonl")] if command == "train"
                  else ["--checkpoint", str(tmp_path / "c.json"),
                        "--manifest", str(data_dir / "held_out.jsonl")])
        out = tmp_path / "out"
        assert main([command] + flag + inputs +
                    ["--table", str(data_dir / "table.json"),
                     "--out", str(out)]) == 1
        assert "unrecognized arguments" in capsys.readouterr().err
        assert not out.exists()


class TestFileSystemBoundary:
    """A path of the wrong kind exits 1 naming the path and the system
    message; input that is not UTF-8 or not the documented type exits 2.
    Neither ends in a traceback or writes output."""

    def train_args(self, data_dir, out, **paths):
        args = {"--manifest": str(data_dir / "train.jsonl"),
                "--table": str(data_dir / "table.json"), "--out": str(out)}
        args.update({f"--{flag}": str(path) for flag, path in paths.items()})
        return ["train"] + [part for item in args.items() for part in item]

    def decode_args(self, run_dir, data_dir, out, **paths):
        args = {"--checkpoint": str(run_dir / "checkpoint.json"),
                "--manifest": str(data_dir / "held_out.jsonl"),
                "--table": str(data_dir / "table.json"), "--out": str(out)}
        args.update({f"--{flag}": str(path) for flag, path in paths.items()})
        return ["decode"] + [part for item in args.items() for part in item]

    @staticmethod
    def assert_names_the_directory(code, err, directory):
        assert code == 1, err
        assert f"error: Is a directory: {directory}" in err, err

    @pytest.mark.parametrize("flag", ["manifest", "table", "config"])
    def test_train_input_that_is_a_directory_exits_one(self, data_dir, tmp_path, flag):
        code, err = run_main(self.train_args(data_dir, tmp_path / "out", **{flag: tmp_path}))
        self.assert_names_the_directory(code, err, tmp_path)
        assert not (tmp_path / "out").exists()

    def test_checkpoint_that_is_a_directory_exits_one(self, run_dir, data_dir, tmp_path):
        code, err = run_main(self.decode_args(run_dir, data_dir, tmp_path / "out",
                                              checkpoint=tmp_path))
        self.assert_names_the_directory(code, err, tmp_path)
        assert not (tmp_path / "out").exists()

    def test_gen_data_out_that_is_a_file_exits_one(self, tmp_path):
        taken = tmp_path / "taken"
        taken.write_text("keep me")
        code, err = run_main(["gen-data", "--config", write_json(tmp_path / "w.json", GEN_CONFIG),
                              "--out", str(taken)])
        assert code == 1, err
        assert f"error: File exists: {taken}" in err, err
        assert taken.read_text() == "keep me"

    def test_manifest_line_that_is_not_utf8_exits_two(self, data_dir, tmp_path):
        lines = (data_dir / "train.jsonl").read_bytes().splitlines(keepends=True)
        lines[1] = lines[1].replace(b'"caption": "', b'"caption": "\xff', 1)
        bad = tmp_path / "latin.jsonl"
        bad.write_bytes(b"".join(lines))
        code, err = run_main(self.train_args(data_dir, tmp_path / "out", manifest=bad))
        assert code == 2, err
        assert "latin.jsonl:2: not UTF-8 text" in err, err
        assert not (tmp_path / "out").exists()

    def test_table_is_read_as_utf8_under_an_ascii_locale(self, data_dir, tmp_path):
        table = json.loads((data_dir / "table.json").read_text())
        table["tokens"].append("café")
        table["text_features"].append(table["text_features"][0])
        path = tmp_path / "table.json"
        path.write_bytes(json.dumps(table, ensure_ascii=False).encode("utf-8"))
        env = dict(os.environ, LC_ALL="C", PYTHONCOERCECLOCALE="0", PYTHONUTF8="0",
                   PYTHONPATH=os.pathsep.join(sys.path))
        script = ("import sys; from paracap.encoder import VocabEmbeddingTable; "
                  "print(ascii(VocabEmbeddingTable.load(sys.argv[1]).tokens[-1]))")
        done = subprocess.run([sys.executable, "-c", script, str(path)], env=env,
                              capture_output=True, text=True, timeout=60)
        assert done.returncode == 0, done.stderr[-2000:]
        assert done.stdout.strip() == ascii("café")

    def test_table_that_is_not_utf8_exits_two(self, data_dir, tmp_path):
        raw = (data_dir / "table.json").read_bytes()
        bad = tmp_path / "latin.json"
        bad.write_bytes(raw.replace(b'"tokens": ["', b'"tokens": ["caf\xe9', 1))
        code, err = run_main(self.train_args(data_dir, tmp_path / "out", table=bad))
        assert code == 2, err
        assert f"{bad}: not UTF-8 text" in err, err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("kind", ["int", "list"])
    def test_checkpoint_vocabulary_of_non_strings_exits_two(self, run_dir, data_dir,
                                                            tmp_path, kind):
        ckpt = json.loads((run_dir / "checkpoint.json").read_text())
        tokens = ckpt["config"]["vocab_tokens"]
        # the reserved tokens stay and the length holds, so only the types are wrong
        tokens[len(RESERVED):] = [i if kind == "int" else [token]
                                  for i, token in enumerate(tokens[len(RESERVED):])]
        bad = write_json(tmp_path / "tokens.json", ckpt)
        code, err = run_main(self.decode_args(run_dir, data_dir, tmp_path / "out",
                                              checkpoint=bad))
        assert code == 2, err
        assert "tokens.json: checkpoint carries no vocabulary list" in err, err
        assert not (tmp_path / "out").exists()

    def test_checkpoint_vocabulary_with_a_repeated_token_exits_two(self, run_dir, data_dir,
                                                                    tmp_path):
        ckpt = json.loads((run_dir / "checkpoint.json").read_text())
        tokens = ckpt["config"]["vocab_tokens"]
        tokens[-1] = tokens[-2]
        bad = write_json(tmp_path / "repeat.json", ckpt)
        code, err = run_main(self.decode_args(run_dir, data_dir, tmp_path / "out",
                                              checkpoint=bad))
        assert code == 2, err
        assert f"repeat.json: duplicate token {tokens[-2]!r} in vocabulary" in err, err
        assert not (tmp_path / "out").exists()


class TestGradcheckCommand:
    def test_exit_zero_and_summary_lines(self, monkeypatch, capsys):
        calls = {}

        def fake_prim():
            calls["primitives"] = True
            return {"add": 1e-12}

        def fake_full(seed):
            calls["seed"] = seed
            return {"w": 2e-10}

        monkeypatch.setattr("paracap.gradcheck.run_primitive_checks",
                            fake_prim)
        monkeypatch.setattr("paracap.gradcheck.run_end_to_end_check",
                            fake_full)
        assert main(["gradcheck"]) == 0
        out = capsys.readouterr().out
        assert "primitives ok" in out
        assert "end-to-end ok" in out
        assert calls == {"primitives": True, "seed": 7}

    def test_seed_default_is_the_module_constant(self):
        assert build_parser().parse_args(["gradcheck"]).seed == gradcheck.SEED
        signature = inspect.signature(gradcheck.run_end_to_end_check)
        assert signature.parameters["seed"].default == gradcheck.SEED

    def test_config_and_seed_flag_are_forwarded(self, monkeypatch, capsys,
                                                tmp_path):
        # gradcheck reads no config file: --config is refused before any
        # check runs, and --seed is the one setting it forwards
        seen = []
        monkeypatch.setattr("paracap.gradcheck.run_primitive_checks",
                            lambda: seen.append("primitives") or {"add": 1e-12})
        monkeypatch.setattr("paracap.gradcheck.run_end_to_end_check",
                            lambda seed: seen.append(seed) or {"w": 2e-10})
        cfg = write_json(tmp_path / "g.json", {"n_seeds": 2, "seed": 5})
        assert main(["gradcheck", "--config", cfg, "--seed", "6"]) == 1
        assert seen == []
        assert main(["gradcheck", "--seed", "6"]) == 0
        capsys.readouterr()
        assert seen == ["primitives", 6]

    @pytest.mark.parametrize("cfg_obj, key", [
        ({"nseeds": 2}, "nseeds"), ({"n_seeds": "x"}, "n_seeds"),
        ({"n_seeds": 2.5}, "n_seeds"), ({"n_seeds": 0}, "n_seeds"),
        ({"seed": -1}, "seed"),
    ])
    def test_bad_config_exits_two_naming_the_key(self, monkeypatch, capsys,
                                                 tmp_path, cfg_obj, key):
        # gradcheck takes no config file, so --config is a usage error
        # whatever the file holds
        ran = []
        monkeypatch.setattr("paracap.gradcheck.run_primitive_checks",
                            lambda: ran.append("primitives") or {"add": 0.0})
        monkeypatch.setattr("paracap.gradcheck.run_end_to_end_check",
                            lambda seed: ran.append(seed) or {"w": 0.0})
        cfg = write_json(tmp_path / "g.json", cfg_obj)
        assert main(["gradcheck", "--config", cfg]) == 1
        assert "unrecognized arguments: --config" in capsys.readouterr().err
        if key == "seed":
            assert main(["gradcheck", "--seed", str(cfg_obj["seed"])]) == 2
            assert "seed must be >= 0" in capsys.readouterr().err
        assert ran == []


@pytest.fixture(scope="module")
def scratch(tmp_path_factory):
    return tmp_path_factory.mktemp("boundary")


class TestConfigBoundary:
    """Every settable key and every manifest event field rejects a JSON value
    of the wrong type with exit 2 and the key named, before anything is
    written."""

    @settings(deadline=None)
    @given(case=st.sampled_from(GEN_KEYS).flatmap(
        lambda kt: st.tuples(st.just(kt[0]), WRONG[kt[1]])))
    def test_world_spec_value_of_the_wrong_type(self, scratch, case):
        key, value = case
        cfg = write_json(scratch / "world.json", dict(GEN_CONFIG, **{key: value}))
        out = scratch / "data"
        code, err = run_main(["gen-data", "--config", cfg, "--out", str(out)])
        assert code == 2, err
        assert re.search(rf"world\.json: {key}\b", err), err
        assert not out.exists()

    @settings(deadline=None)
    @given(case=st.sampled_from(TRAIN_KEYS).flatmap(
        lambda skt: st.tuples(st.just(skt[0]), st.just(skt[1]), WRONG[skt[2]])))
    def test_train_value_of_the_wrong_type(self, data_dir, scratch, case):
        section, key, value = case
        cfg_obj = json.loads(json.dumps(TRAIN_CONFIG))
        cfg_obj[section][key] = value
        cfg = write_json(scratch / "train.json", cfg_obj)
        out = scratch / "run"
        code, err = run_main(["train", "--config", cfg,
                              "--manifest", str(data_dir / "train.jsonl"),
                              "--table", str(data_dir / "table.json"),
                              "--out", str(out)])
        assert code == 2, err
        assert re.search(rf"train\.json: {section}: {key}\b", err), err
        assert not out.exists()

    @settings(deadline=None)
    @given(case=st.sampled_from(EVENT_FIELDS).flatmap(
        lambda kt: st.tuples(st.just(kt[0]), WRONG[kt[1]])))
    @example(case=("caption", 12345))
    @example(case=("begin", "0"))
    @example(case=("end", True))
    @example(case=("begin", 10 ** 400))   # a JSON integer beyond the float range
    def test_manifest_event_field_of_the_wrong_type(self, data_dir, scratch, case):
        key, value = case
        manifest = edited_manifest(data_dir, scratch / "events.jsonl",
                                   lambda video: video["events"][0].update({key: value}))
        out = scratch / "run"
        code, err = run_main(["train", "--manifest", manifest,
                              "--table", str(data_dir / "table.json"),
                              "--out", str(out)])
        assert code == 2, err
        assert re.search(rf"events\.jsonl:2 event 0: .*\b{key}\b", err), err
        assert not out.exists()

    def run_decode(self, run_dir, data_dir, scratch, edit):
        """Exit code and stderr of ``decode`` with a checkpoint changed by ``edit``."""
        ckpt = json.loads((run_dir / "checkpoint.json").read_text())
        edit(ckpt["params"])
        path = write_json(scratch / "ckpt.json", ckpt)
        out = scratch / "decoded"
        shutil.rmtree(out, ignore_errors=True)   # left by an earlier failing example
        code, err = run_main(["decode", "--checkpoint", path,
                              "--manifest", str(data_dir / "held_out.jsonl"),
                              "--table", str(data_dir / "table.json"), "--out", str(out)])
        assert not out.exists()
        return code, err

    @staticmethod
    def names_the_parameter(name, err):
        return re.search(rf"ckpt\.json: {re.escape(name)}\b", err)

    @settings(deadline=None)
    @given(data=st.data(), key=st.sampled_from(["shape", "values"]))
    def test_checkpoint_entry_of_the_wrong_type(self, run_dir, data_dir, scratch, data, key):
        names = sorted(json.loads((run_dir / "checkpoint.json").read_text())["params"])
        name = data.draw(st.sampled_from(names), label="parameter")
        value = data.draw(WRONG_ENTRY[key], label=key)
        if key == "values" and isinstance(value, tuple):   # one bad character in the text
            def edit(params):
                values = params[name]["values"]
                at = data.draw(st.integers(0, len(values)), label="at")
                params[name]["values"] = values[:at] + value[0] + values[at:]
        else:
            def edit(params):
                params[name][key] = value
        code, err = self.run_decode(run_dir, data_dir, scratch, edit)
        assert code == 2, err
        assert self.names_the_parameter(name, err), err

    @settings(deadline=None)
    @given(data=st.data())
    def test_checkpoint_value_count_that_does_not_fit_the_shape(self, run_dir, data_dir,
                                                               scratch, data):
        names = sorted(json.loads((run_dir / "checkpoint.json").read_text())["params"])
        name = data.draw(st.sampled_from(names), label="parameter")

        def edit(params):
            raw = base64.b64decode(params[name]["values"])
            count = data.draw(st.integers(0, 2 * len(raw) + 7).filter(
                lambda n: n != len(raw)), label="byte count")
            params[name]["values"] = encode((raw * 3)[:count])

        code, err = self.run_decode(run_dir, data_dir, scratch, edit)
        assert code == 2, err
        assert self.names_the_parameter(name, err), err

    @settings(deadline=None)
    @given(data=st.data(), bits=_non_finite_bits)
    def test_checkpoint_non_finite_value(self, run_dir, data_dir, scratch, data, bits):
        names = sorted(json.loads((run_dir / "checkpoint.json").read_text())["params"])
        name = data.draw(st.sampled_from(names), label="parameter")

        def edit(params):
            raw = base64.b64decode(params[name]["values"])
            at = 8 * data.draw(st.integers(0, len(raw) // 8 - 1), label="index")
            params[name]["values"] = encode(raw[:at] + bits.to_bytes(8, "little")
                                            + raw[at + 8:])

        code, err = self.run_decode(run_dir, data_dir, scratch, edit)
        assert code == 2, err
        assert self.names_the_parameter(name, err), err
