"""Command-line pipeline, exercised in process through ``main(argv)``."""

import json

import pytest

from paracap.cli import main

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


def write_json(path, obj):
    path.write_text(json.dumps(obj))
    return str(path)


@pytest.fixture(scope="module")
def data_dir(tmp_path_factory):
    root = tmp_path_factory.mktemp("cli-data")
    cfg = write_json(root / "world.json", GEN_CONFIG)
    out = root / "data"
    assert main(["gen-data", "--config", cfg, "--out", str(out)]) == 0
    return out


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
        cfg = write_json(tmp_path / "t.json", TRAIN_CONFIG)
        out = tmp_path / "run"
        assert main(["train", "--config", cfg, "--loss", "mle",
                     "--manifest", str(data_dir / "train.jsonl"),
                     "--table", str(data_dir / "table.json"),
                     "--out", str(out)]) == 0
        run = json.loads((out / "run_config.json").read_text())
        assert run["config"]["loss"]["use_contrastive"] is False
        log = (out / "train_log.jsonl").read_text().splitlines()
        assert all(json.loads(line)["L_con"] == 0.0 for line in log)

    def test_oversized_k_is_rejected(self, data_dir, tmp_path, capsys):
        cfg = write_json(tmp_path / "t.json", TRAIN_CONFIG)
        assert main(["train", "--config", cfg, "--k", "99",
                     "--manifest", str(data_dir / "train.jsonl"),
                     "--table", str(data_dir / "table.json"),
                     "--out", str(tmp_path / "run")]) == 2
        assert "exceeds" in capsys.readouterr().err

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
        cfg = write_json(tmp_path / "t.json", TRAIN_CONFIG)
        assert main(["train", "--config", cfg, "--modalities", "env,bogus",
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
        cfg = write_json(tmp_path / "t.json",
                         dict(TRAIN_CONFIG, schema_version=99))
        assert main(["train", "--config", cfg,
                     "--manifest", str(data_dir / "train.jsonl"),
                     "--table", str(data_dir / "table.json"),
                     "--out", str(tmp_path / "run")]) == 2
        assert "schema_version" in capsys.readouterr().err

    def test_missing_manifest_exits_one(self, data_dir, tmp_path, capsys):
        assert main(["train",
                     "--manifest", str(tmp_path / "absent.jsonl"),
                     "--table", str(data_dir / "table.json"),
                     "--out", str(tmp_path / "run")]) == 1
        assert "file not found" in capsys.readouterr().err

    def test_non_finite_manifest_value_is_rejected(self, data_dir, tmp_path,
                                                   capsys):
        lines = (data_dir / "train.jsonl").read_text().splitlines()
        video = json.loads(lines[1])
        video["events"][0]["snippets"][1]["frame"][0] = float("nan")
        lines[1] = json.dumps(video)
        manifest = tmp_path / "nan.jsonl"
        manifest.write_text("\n".join(lines) + "\n")
        assert main(["train", "--manifest", str(manifest),
                     "--table", str(data_dir / "table.json"),
                     "--out", str(tmp_path / "run")]) == 2
        assert "nan.jsonl:2 event 0 snippet 1: frame" in capsys.readouterr().err

    def test_empty_manifest_is_rejected(self, data_dir, tmp_path, capsys):
        empty = tmp_path / "empty.jsonl"
        empty.write_text("")
        assert main(["train", "--manifest", str(empty),
                     "--table", str(data_dir / "table.json"),
                     "--out", str(tmp_path / "run")]) == 2
        assert "no videos" in capsys.readouterr().err


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

    def test_max_len_caps_decoded_sentences(self, run_dir, data_dir, tmp_path):
        out = tmp_path / "dec"
        assert main(["decode", "--max-len", "3"] +
                    self.eval_args(run_dir, data_dir, out)) == 0
        for line in (out / "decoded.jsonl").read_text().splitlines():
            for sentence in json.loads(line)["sentences"]:
                assert len(sentence.split()) <= 3

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
        ckpt["params"]["decoder.head.w"]["values"][0] = float("nan")
        bad = tmp_path / "nan.json"
        bad.write_text(json.dumps(ckpt))
        args = self.eval_args(run_dir, data_dir, tmp_path / "out")
        args[args.index("--checkpoint") + 1] = str(bad)
        assert main(["decode"] + args) == 2
        err = capsys.readouterr().err
        assert "nan.json: decoder.head.w holds a non-finite value" in err
        assert not (tmp_path / "out").exists()


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


class TestGradcheckCommand:
    def test_exit_zero_and_summary_lines(self, monkeypatch, capsys):
        calls = {}

        def fake_prim(n_seeds=10):
            calls["n_seeds"] = n_seeds
            return {"add": 1e-12}

        def fake_full(seed=7):
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
        assert calls == {"n_seeds": 10, "seed": 7}

    def test_config_and_seed_flag_are_forwarded(self, monkeypatch, capsys,
                                                tmp_path):
        seen = {}

        def fake_prim(n_seeds=10):
            seen["n_seeds"] = n_seeds
            return {"add": 1e-12}

        def fake_full(seed=7):
            seen["seed"] = seed
            return {"w": 2e-10}

        monkeypatch.setattr("paracap.gradcheck.run_primitive_checks",
                            fake_prim)
        monkeypatch.setattr("paracap.gradcheck.run_end_to_end_check",
                            fake_full)
        cfg = write_json(tmp_path / "g.json", {"n_seeds": 2, "seed": 5})
        assert main(["gradcheck", "--config", cfg, "--seed", "6"]) == 0
        capsys.readouterr()
        assert seen == {"n_seeds": 2, "seed": 6}
