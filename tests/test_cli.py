import ast
import contextlib
import copy
import csv
import hashlib
import io
import json
import math
import re
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from cmm import schema
from cmm.cli import main
from cmm.encoder import init_encoder, save_checkpoint
from cmm.schema import _orjson_rows, load_dataset_jsonl, save_dataset_jsonl

TINY_GEN = {
    "n_documents": 12,
    "pairs_per_document": 25,
    "relation_count": 5,
    "feature_dim": 10,
    "positive_rate": 0.1,
    "hard_fraction": 0.2,
    "seen_in_train_rate": 0.4,
    "seed": 3,
}


def write_config(tmp_path, name, obj):
    path = tmp_path / name
    path.write_text(json.dumps(obj))
    return str(path)


def run(args):
    return main([str(a) for a in args])


def dir_bytes(path: Path) -> dict[str, bytes]:
    return {p.name: p.read_bytes() for p in sorted(path.iterdir()) if p.is_file()}


@pytest.fixture()
def tiny_dataset(tmp_path):
    cfg = write_config(tmp_path, "gen.json", TINY_GEN)
    out = tmp_path / "data"
    assert run(["generate", cfg, "-o", out]) == 0
    return out / "dataset.jsonl"


@pytest.fixture()
def tiny_dev(tmp_path):
    cfg = write_config(tmp_path, "gen_dev.json", {**TINY_GEN, "n_documents": 4, "seed": 4})
    out = tmp_path / "dev"
    assert run(["generate", cfg, "-o", out]) == 0
    return out / "dataset.jsonl"


class TestGenerate:
    def test_writes_dataset_and_report(self, tmp_path):
        cfg = write_config(tmp_path, "gen.json", TINY_GEN)
        out = tmp_path / "out"
        assert run(["generate", cfg, "-o", out]) == 0
        assert (out / "dataset.jsonl").is_file()
        assert (out / "config.json").read_text() == json.dumps(TINY_GEN)
        report = json.loads((out / "distribution_report.json").read_text())
        assert report["format"] == "cmm-distribution/1"
        assert report["n_pairs"] == 300
        effective = json.loads((out / "effective_config.json").read_text())
        assert effective["generate"]["positive_rate"] == 0.1

    def test_preset_resolves(self, tmp_path):
        cfg = write_config(tmp_path, "gen.json",
                           {"preset": "docred-mixed", "n_documents": 20, "seed": 1})
        out = tmp_path / "out"
        assert run(["generate", cfg, "-o", out]) == 0
        effective = json.loads((out / "effective_config.json").read_text())
        assert effective["generate"]["positive_rate"] == 0.0318

    def test_injection_applied_when_configured(self, tmp_path):
        cfg = write_config(tmp_path, "gen.json", {**TINY_GEN, "false_negative_rate": 0.5})
        out = tmp_path / "out"
        assert run(["generate", cfg, "-o", out]) == 0
        report = json.loads((out / "distribution_report.json").read_text())
        assert report["n_corrupted"] > 0

    def test_bad_field_exits_1(self, tmp_path, capsys):
        cfg = write_config(tmp_path, "gen.json", {**TINY_GEN, "positive_rate": 7.0})
        assert run(["generate", cfg, "-o", tmp_path / "o"]) == 1
        assert "positive_rate" in capsys.readouterr().err

    def test_unknown_field_exits_1(self, tmp_path):
        cfg = write_config(tmp_path, "gen.json", {**TINY_GEN, "n_docs": 3})
        assert run(["generate", cfg, "-o", tmp_path / "o"]) == 1

    def test_invalid_json_exits_1(self, tmp_path):
        path = tmp_path / "gen.json"
        path.write_text("{not json")
        assert run(["generate", str(path), "-o", tmp_path / "o"]) == 1

    def test_runtime_infeasible_exits_2(self, tmp_path):
        cfg = write_config(tmp_path, "gen.json",
                           {**TINY_GEN, "n_documents": 1, "pairs_per_document": 10,
                            "positive_rate": 0.001})
        assert run(["generate", cfg, "-o", tmp_path / "o"]) == 2
        assert list((tmp_path / "o").iterdir()) == []


class TestTrain:
    def test_single_arm_outputs(self, tmp_path, tiny_dataset, tiny_dev):
        cfg = write_config(tmp_path, "train.json", {
            "dataset": str(tiny_dataset),
            "dev": str(tiny_dev),
            "train": {"epochs": 2, "seed": 0, "eval_every": 1,
                      "loss": {"kind": "cmm", "gamma": 1.2, "m": 0.2}},
        })
        out = tmp_path / "run"
        assert run(["train", cfg, "-o", out]) == 0
        assert (out / "cmm.checkpoint.json").is_file()
        with open(out / "cmm.trace.csv") as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == ["epoch", "train_loss", "dev_f1", "dev_ign_f1", "dev_positives"]
        assert len(rows) == 3

    def test_two_arms_identical_epoch_grids(self, tmp_path, tiny_dataset, tiny_dev):
        cfg = write_config(tmp_path, "train.json", {
            "dataset": str(tiny_dataset),
            "dev": str(tiny_dev),
            "train": {"epochs": 3, "seed": 0, "eval_every": 1,
                      "loss": {"kind": "cmm", "gamma": 1.0, "m": 0.2}},
            "arms": [{"name": "cmm", "loss": {"kind": "cmm", "gamma": 1.0, "m": 0.2}},
                     {"name": "plain", "loss": {"kind": "plain_margin"}}],
        })
        out = tmp_path / "run"
        assert run(["train", cfg, "-o", out]) == 0
        epochs = {}
        for arm in ("cmm", "plain"):
            with open(out / f"{arm}.trace.csv") as fh:
                epochs[arm] = [row[0] for row in list(csv.reader(fh))[1:]]
        assert epochs["cmm"] == epochs["plain"]
        with open(out / "positives.csv") as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == ["epoch", "arm", "positives"]
        assert {r[1] for r in rows[1:]} == {"cmm", "plain"}
        assert len(rows) - 1 == 6  # two arms x three evaluated epochs

    def test_missing_dataset_exits_1(self, tmp_path, tiny_dev):
        cfg = write_config(tmp_path, "train.json", {
            "dataset": str(tmp_path / "nope.jsonl"),
            "dev": str(tiny_dev),
            "train": {"epochs": 1, "loss": {"kind": "cmm"}},
        })
        assert run(["train", cfg, "-o", tmp_path / "o"]) == 1

    def test_schema_mismatch_exits_2(self, tmp_path, tiny_dataset):
        other = write_config(tmp_path, "gen2.json", {**TINY_GEN, "relation_count": 4,
                                                     "n_documents": 3})
        out2 = tmp_path / "data2"
        assert run(["generate", other, "-o", out2]) == 0
        cfg = write_config(tmp_path, "train.json", {
            "dataset": str(tiny_dataset),
            "dev": str(out2 / "dataset.jsonl"),
            "train": {"epochs": 1, "loss": {"kind": "cmm"}},
        })
        assert run(["train", cfg, "-o", tmp_path / "o"]) == 2

    def test_rerun_with_fewer_arms_leaves_no_old_arm_files(self, tmp_path, tiny_dataset,
                                                           tiny_dev):
        """Arms a and b, then a alone into the same directory: it ends as a fresh
        run of a alone, without b's checkpoint and trace."""
        data = {"dataset": str(tiny_dataset), "dev": str(tiny_dev), "train": {"epochs": 1}}
        both = write_config(tmp_path, "both.json", {**data, "arms": [
            {"name": "a"}, {"name": "b", "loss": {"kind": "plain_margin"}}]})
        alone = write_config(tmp_path, "alone.json", {**data, "arms": [{"name": "a"}]})
        out, fresh = tmp_path / "out", tmp_path / "fresh"
        assert run(["train", both, "-o", out]) == 0
        assert (out / "b.checkpoint.json").is_file() and (out / "b.trace.csv").is_file()
        assert run(["train", alone, "-o", out]) == 0
        assert run(["train", alone, "-o", fresh]) == 0
        assert dir_bytes(out) == dir_bytes(fresh)


class TestCompare:
    def test_grid_rows_and_best_flag(self, tmp_path, tiny_dataset, tiny_dev):
        cfg = write_config(tmp_path, "cmp.json", {
            "dataset": str(tiny_dataset),
            "dev": str(tiny_dev),
            "train": {"epochs": 2, "seed": 0, "eval_every": 2,
                      "loss": {"kind": "cmm", "gamma": 1.0, "m": 0.2}},
            "gammas": [1.0, 2.0],
            "ms": [0.1, 0.2],
            "seeds": [0],
            "kinds": ["cmm", "plain_margin"],
        })
        out = tmp_path / "cmp"
        assert run(["compare", cfg, "-o", out]) == 0
        with open(out / "grid.csv") as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == ["kind", "gamma", "m", "seed", "dev_f1", "dev_ign_f1",
                           "dev_positives", "best"]
        cmm_rows = [r for r in rows[1:] if r[0] == "cmm"]
        plain_rows = [r for r in rows[1:] if r[0] == "plain_margin"]
        assert len(cmm_rows) == 4 and len(plain_rows) == 1
        assert sum(int(r[-1]) for r in rows[1:]) == 1
        assert all(r[1] == "" and r[2] == "" for r in plain_rows)

    def test_single_tuple_equals_train(self, tmp_path, tiny_dataset, tiny_dev):
        common = {"epochs": 2, "seed": 0, "eval_every": 2,
                  "loss": {"kind": "cmm", "gamma": 1.4, "m": 0.3}}
        cmp_cfg = write_config(tmp_path, "cmp.json", {
            "dataset": str(tiny_dataset), "dev": str(tiny_dev), "train": common,
            "gammas": [1.4], "ms": [0.3], "seeds": [0], "kinds": ["cmm"],
        })
        train_cfg = write_config(tmp_path, "train.json", {
            "dataset": str(tiny_dataset), "dev": str(tiny_dev), "train": common,
        })
        out_c = tmp_path / "c"
        out_t = tmp_path / "t"
        assert run(["compare", cmp_cfg, "-o", out_c]) == 0
        assert run(["train", train_cfg, "-o", out_t]) == 0
        with open(out_c / "grid.csv") as fh:
            grid_row = list(csv.reader(fh))[1]
        with open(out_t / "cmm.trace.csv") as fh:
            trace_row = list(csv.reader(fh))[-1]
        assert grid_row[4] == trace_row[2]   # dev_f1
        assert grid_row[5] == trace_row[3]   # dev_ign_f1
        assert grid_row[6] == trace_row[4]   # dev_positives

    def test_two_seed_grid_equals_per_tuple_train(self, tiny_dataset, tiny_dev):
        from dataclasses import replace

        from cmm.cli import run_compare_grid
        from cmm.encoder import TrainConfig, train
        from cmm.loss import LossConfig
        from cmm.schema import load_dataset_jsonl
        train_ds = load_dataset_jsonl(str(tiny_dataset))
        dev_ds = load_dataset_jsonl(str(tiny_dev))
        base = TrainConfig(loss=LossConfig(), epochs=2, seed=0, eval_every=2)
        rows = run_compare_grid(train_ds, dev_ds, base, kinds=("cmm", "plain_margin"),
                                gammas=(1.0, 2.0), ms=(0.1, 0.4), seeds=(0, 1))
        tuples = [("cmm", g, m) for g in (1.0, 2.0) for m in (0.1, 0.4)]
        expected = [(*t, seed) for t in tuples + [("plain_margin", None, None)]
                    for seed in (0, 1)]
        assert [(r.kind, r.gamma, r.m, r.seed) for r in rows] == expected
        for row in rows:
            loss = (LossConfig(kind=row.kind) if row.gamma is None
                    else LossConfig(kind=row.kind, gamma=row.gamma, m=row.m))
            final = train(train_ds, dev_ds, replace(base, loss=loss, seed=row.seed))[1][-1]
            assert (row.dev_f1, row.dev_ign_f1, row.dev_positives) == (
                final.dev_f1, final.dev_ign_f1, final.dev_positives)

    def test_tuple_listed_twice_raises(self, tiny_dataset, tiny_dev):
        from cmm.cli import run_compare_grid
        from cmm.encoder import TrainConfig
        from cmm.loss import LossConfig
        base = TrainConfig(loss=LossConfig(), epochs=1)
        with pytest.raises(ValueError, match=r"\('cmm', 1.0, 0.1, 3\) twice"):
            run_compare_grid(load_dataset_jsonl(str(tiny_dataset)),
                             load_dataset_jsonl(str(tiny_dev)), base, kinds=("cmm",),
                             gammas=(1.0, 2.0), ms=(0.1,), seeds=(3, 4, 3))


class TestGradcheckCmd:
    def test_default_passes(self, tmp_path):
        cfg = write_config(tmp_path, "gc.json", {"trials": 40, "seed": 1})
        out = tmp_path / "gc"
        assert run(["gradcheck", cfg, "-o", out]) == 0
        report = json.loads((out / "gradcheck.json").read_text())
        assert report["n_failures"] == 0
        assert report["format"] == "cmm-gradcheck/1"

    def test_failures_exit_2(self, tmp_path):
        cfg = write_config(tmp_path, "gc.json", {"trials": 3, "tolerance": 0.0, "seed": 1})
        out = tmp_path / "gc"
        assert run(["gradcheck", cfg, "-o", out]) == 2
        report = json.loads((out / "gradcheck.json").read_text())
        assert report["n_failures"] == 3

    def test_unknown_field_exits_1(self, tmp_path):
        cfg = write_config(tmp_path, "gc.json", {"trails": 10})
        assert run(["gradcheck", cfg, "-o", tmp_path / "gc"]) == 1


class TestCurvesCmd:
    def test_default_grid_row_count(self, tmp_path):
        cfg = write_config(tmp_path, "curves.json", {})
        out = tmp_path / "curves"
        assert run(["curves", cfg, "-o", out]) == 0
        with open(out / "curves.csv") as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == ["d", "gamma", "loss_pos"]
        assert len(rows) - 1 == 5 * 201

    def test_integer_grids_accepted(self, tmp_path, tiny_dataset, tiny_dev):
        cfg = write_config(tmp_path, "curves.json", {"gammas": [1, 2], "d_step": 1.0})
        assert run(["curves", cfg, "-o", tmp_path / "curves"]) == 0
        effective = json.loads((tmp_path / "curves" / "effective_config.json").read_text())
        assert effective["curves"]["gammas"] == [1.0, 2.0]
        cfg = write_config(tmp_path, "cmp.json", {
            "dataset": str(tiny_dataset), "dev": str(tiny_dev), "train": {"epochs": 1},
            "kinds": ["cmm"], "gammas": [1, 2], "ms": [0.2]})
        assert run(["compare", cfg, "-o", tmp_path / "cmp"]) == 0
        with open(tmp_path / "cmp" / "grid.csv") as fh:
            assert [row[1] for row in list(csv.reader(fh))[1:]] == ["1.0", "2.0"]

    def test_gamma_zero_reduction(self, tmp_path):
        import numpy as np
        cfg = write_config(tmp_path, "curves.json",
                           {"gammas": [0.0], "d_min": -1.0, "d_max": 1.0, "d_step": 0.5})
        out = tmp_path / "curves"
        assert run(["curves", cfg, "-o", out]) == 0
        with open(out / "curves.csv") as fh:
            rows = list(csv.reader(fh))[1:]
        for d_str, _, value_str in rows:
            assert float(value_str) == float(np.logaddexp(0.0, -float(d_str)))


def recount_metrics(dataset_path, checkpoint_path, gold_key):
    """Oracle for metrics.json: read the files directly and count every (pair, relation)."""
    records = [json.loads(line) for line in Path(dataset_path).read_text().splitlines()[1:]]
    ckpt = json.loads(Path(checkpoint_path).read_text())
    tensors = {p["name"]: np.array(p["data"]).reshape(p["shape"]) for p in ckpt["parameters"]}
    logits = np.array([r["features"] for r in records]) @ tensors["W"].T + tensors["b"]
    counts = {"all": [0, 0, 0], "ign": [0, 0, 0]}
    for rec, row in zip(records, logits):
        for r in range(1, len(row)):
            predicted, gold = bool(row[r] > row[0]), r in rec[gold_key]
            scopes = ("all",) if r in rec["seen_in_train"] else ("all", "ign")
            for scope in scopes:
                c = counts[scope]
                c[0] += predicted and gold
                c[1] += predicted and not gold
                c[2] += gold and not predicted

    def f1(tp, fp, fn):
        p = tp / (tp + fp) if tp + fp else 0.0
        r = tp / (tp + fn) if tp + fn else 0.0
        return p, r, (2.0 * p * r / (p + r) if p + r else 0.0)

    tp, fp, fn = counts["all"]
    precision, recall, micro = f1(tp, fp, fn)
    return {"tp": tp, "fp": fp, "fn": fn, "precision": precision, "recall": recall,
            "f1": micro, "ign_f1": f1(*counts["ign"])[2]}


class TestEvalCmd:
    def test_metrics_json(self, tmp_path, tiny_dataset, tiny_dev):
        train_cfg = write_config(tmp_path, "train.json", {
            "dataset": str(tiny_dataset), "dev": str(tiny_dev),
            "train": {"epochs": 2, "seed": 0, "loss": {"kind": "cmm"}},
        })
        run_dir = tmp_path / "run"
        assert run(["train", train_cfg, "-o", run_dir]) == 0
        eval_cfg = write_config(tmp_path, "eval.json", {
            "dataset": str(tiny_dev),
            "checkpoint": str(run_dir / "cmm.checkpoint.json"),
            "gold": "true_labels",
        })
        out = tmp_path / "ev"
        assert run(["eval", eval_cfg, "-o", out]) == 0
        metrics = json.loads((out / "metrics.json").read_text())
        assert metrics["format"] == "cmm-metrics/1"
        assert metrics["gold"] == "true_labels"
        assert metrics["metrics"] == recount_metrics(tiny_dev, run_dir / "cmm.checkpoint.json",
                                                     "true_positives")

    def test_bad_gold_source_exits_1(self, tmp_path, tiny_dataset):
        eval_cfg = write_config(tmp_path, "eval.json", {
            "dataset": str(tiny_dataset), "checkpoint": str(tmp_path / "none.json"),
            "gold": "labels",
        })
        assert run(["eval", eval_cfg, "-o", tmp_path / "ev"]) == 1


class TestOutputRoot:
    def test_env_var_prefixes_relative_outdir(self, tmp_path, monkeypatch):
        monkeypatch.setenv("CMM_OUTPUT_ROOT", str(tmp_path / "root"))
        cfg = write_config(tmp_path, "curves.json", {"gammas": [1.0]})
        assert run(["curves", cfg, "-o", "rel"]) == 0
        assert (tmp_path / "root" / "rel" / "curves.csv").is_file()

    def test_absolute_outdir_ignores_root(self, tmp_path, monkeypatch):
        monkeypatch.setenv("CMM_OUTPUT_ROOT", str(tmp_path / "root"))
        cfg = write_config(tmp_path, "curves.json", {"gammas": [1.0]})
        out = tmp_path / "abs"
        assert run(["curves", cfg, "-o", out]) == 0
        assert (out / "curves.csv").is_file()

    @pytest.mark.parametrize("case", ["file", "under_file", "root_is_file"])
    def test_output_path_through_a_file_exits_1(self, tmp_path, monkeypatch, capsys, case):
        afile = tmp_path / "afile"
        afile.write_text("kept")
        out = {"file": afile, "under_file": afile / "sub", "root_is_file": "rel"}[case]
        if case == "root_is_file":
            monkeypatch.setenv("CMM_OUTPUT_ROOT", str(afile))
        cfg = write_config(tmp_path, "gc.json", {"trials": 2})
        capsys.readouterr()
        err = assert_one_line_error(capsys, run(["gradcheck", cfg, "-o", out]), 1)
        assert err.startswith(f"config error: cannot use {afile}")
        assert afile.read_text() == "kept"


class TestDeterminism:
    def test_generate_rerun_byte_identical(self, tmp_path):
        cfg = write_config(tmp_path, "gen.json", TINY_GEN)
        out_a, out_b = tmp_path / "a", tmp_path / "b"
        assert run(["generate", cfg, "-o", out_a]) == 0
        assert run(["generate", cfg, "-o", out_b]) == 0
        assert dir_bytes(out_a) == dir_bytes(out_b)

    def test_generate_dataset_bytes_pinned(self, tmp_path):
        # 480 pairs at 30% false negatives; pairs 181, 223 and 358 hold a feature
        # outside the range orjson writes as json does, so both writer paths run
        cfg = write_config(tmp_path, "gen.json", {"n_documents": 12, "pairs_per_document": 40,
                                                  "false_negative_rate": 0.3, "seed": 2})
        assert run(["generate", cfg, "-o", tmp_path / "out"]) == 0
        path = tmp_path / "out" / "dataset.jsonl"
        fallback = ~_orjson_rows(load_dataset_jsonl(str(path)).features)
        assert np.flatnonzero(fallback).tolist() == [181, 223, 358]
        assert hashlib.sha256(path.read_bytes()).hexdigest() == (
            "cda6a72d41136f7c2fa484628bc49a42fc544312822628add4521c03a5530996")

    def test_gradcheck_report_bytes_pinned(self, tmp_path):
        # the 1000 trials the benchmark runs; the report must not depend on how trials are batched
        cfg = write_config(tmp_path, "gc.json", {"trials": 1000, "seed": 2024})
        assert run(["gradcheck", cfg, "-o", tmp_path / "out"]) == 0
        report = (tmp_path / "out" / "gradcheck.json").read_bytes()
        assert hashlib.sha256(report).hexdigest() == (
            "6252b4d4584009ec9a8ca6f6ea80c695be8dc382be8bf97fff72640277206cf2")

    REPORT_BYTES = {
        "generate/distribution_report.json":
            "f00ccd1b8a6323dc60db862deaca9504d40c27923f801a3fe3b03614f7d60d37",
        "generate/effective_config.json":
            "b3aeb2a0b7e9499154670257063a4d963649d62a296e7b1605697bed8432e570",
        "compare/grid.csv":
            "8b50d51b5baf5066b54345dffbd7e138e694bd5b1c55bf73b9008bdd2b888b62",
        "eval/metrics.json":
            "4dd4560528df1f78fa9a9240e3a329a3ef624aa33c70bb804fa19fd407785747",
    }

    def test_report_bytes_pinned(self, tmp_path, tiny_dataset, tiny_dev):
        # the generator's reports at 30% false negatives; a compare grid given as
        # integers, whose cells print as floats; the metrics of a trained checkpoint
        cfg = write_config(tmp_path, "gen.json", {**TINY_GEN, "false_negative_rate": 0.3})
        assert run(["generate", cfg, "-o", tmp_path / "generate"]) == 0
        data = {"dataset": str(tiny_dataset), "dev": str(tiny_dev)}
        train = {"epochs": 2, "seed": 1, "learning_rate": 0.01, "loss": {"kind": "cmm"}}
        assert run(["compare", write_config(tmp_path, "c.json", {
            **data, "train": train, "gammas": [1, 2], "ms": [0.1, 0.4]}),
            "-o", tmp_path / "compare"]) == 0
        assert run(["train", write_config(tmp_path, "t.json", {**data, "train": train}),
                    "-o", tmp_path / "train"]) == 0
        assert run(["eval", write_config(tmp_path, "e.json", {
            "dataset": str(tiny_dev), "checkpoint": str(tmp_path / "train/cmm.checkpoint.json"),
            "gold": "true_labels"}), "-o", tmp_path / "eval"]) == 0
        got = {name: hashlib.sha256((tmp_path / name).read_bytes()).hexdigest()
               for name in self.REPORT_BYTES}
        assert got == self.REPORT_BYTES

    # train: cmm, plain and ATL arms; compare: the default kinds over a 2 x 2 grid.
    # Each case's settings go into the train config and every arm's loss.
    TRAINING_CASES = {
        1: ({"eval_every": 1}, {}),
        4: ({"eval_every": 4}, {}),
        "one_hidden_accumulate2_global_mean": (
            {"eval_every": 2, "architecture": "one_hidden", "hidden_dim": 6,
             "accumulate_documents": 2},
            {"aggregation": "global_mean"}),
    }
    TRAINING_BYTES = {
        1: {
            "compare/grid.csv":
                "68af43cce64fdfa027b78da35260801f414d7d5d21ebdbc0bf0e0ba5db318a73",
            "train/positives.csv":
                "47a59b6a2ab7644f2f6fa3716bf5727db2bb62559d1413195d55228f494edd76",
            "train/cmm.checkpoint.json":
                "a5eae9911f4dcf2873a3e2898793174355d70074078c6d6038e27adcbbc87404",
            "train/cmm.trace.csv":
                "c2fca6e8ff74e0f24ec662acb74764c3f869ad6ba5a3835236cbe5259faca1a8",
            "train/plain.checkpoint.json":
                "d4d777b0c7519ee89e8ed8c3aebd256b712d26762793af6dbcab65618a1c6b72",
            "train/plain.trace.csv":
                "fa85f916412cec2013c956ac0e099fe361240649032b45ce0adb27261fbbf369",
            "train/atl.checkpoint.json":
                "bc674d10e76ad543d5430669ae09baa40aae19129c4c606f38c229c2ef81a096",
            "train/atl.trace.csv":
                "6dcb074ff865ae68fba84d52297945ff2bbf0a257504e7cddf5c6e6db06fec87",
        },
        4: {
            "compare/grid.csv":
                "68af43cce64fdfa027b78da35260801f414d7d5d21ebdbc0bf0e0ba5db318a73",
            "train/positives.csv":
                "b2a372be0caefa67c6722038674da99e3f34d7dd7d539f2fc4719988e37d5a19",
            "train/cmm.checkpoint.json":
                "56e54b9434c01a6f6ef866f776226d5dd3100980e5d5bee6b50f2a32eedef10a",
            "train/cmm.trace.csv":
                "3fabc60d1bab6f397077659a4381f00313777788424d33dca8493fa7cfeace94",
            "train/plain.checkpoint.json":
                "f6958c52407974676a1821f5e1d04f2039b3fb5bc03830355d1bfc9aceb9ecc8",
            "train/plain.trace.csv":
                "5aa6e17895875de560f3fa3e093e52d71c5dc77ed8b4e6698e605842ed206ee2",
            "train/atl.checkpoint.json":
                "2fffa43bb29911077a5f3e6d48a3895e60d36fc26e79c928bdf92e970f135120",
            "train/atl.trace.csv":
                "a17fc6b301f1185621a8b12b638c9b4591c6457f38efac2a5b270c23d8e2a272",
        },
        "one_hidden_accumulate2_global_mean": {
            "compare/grid.csv":
                "4682a4cd3d940f34cd876e6d4596afa15b5326371ec6c8d9df930b431a5dc18e",
            "train/positives.csv":
                "8b03dd296ceef71201555786bec5a9caf21cc3eac970691905aca5dbe082780e",
            "train/cmm.checkpoint.json":
                "dd844fe4b3836ede6acb8f76cbb05b3a395665ac3b93ff9943095b797f25787c",
            "train/cmm.trace.csv":
                "1e946a099101ddf958afab8132f1e2896779e9f96a0ef4b39bdf60dde4d74590",
            "train/plain.checkpoint.json":
                "352df45301822a09f7f622032b8e335b360117b8618dc7dc7824ce15075c8853",
            "train/plain.trace.csv":
                "8b84736a8f809f6bf4c347e5f45a6fd50611febe4dd5a08aaa5d490402f3f332",
            "train/atl.checkpoint.json":
                "f143518746f238f2e195748ce33dcd14606da7467c436767fbff4b1b94558c43",
            "train/atl.trace.csv":
                "60079de4a6c53811c7b27fa5164826c3527dcce176ac5fc053c3c1215a46fe5e",
        },
    }

    @pytest.mark.parametrize("case", list(TRAINING_CASES))
    def test_training_bytes_pinned(self, tmp_path, tiny_dataset, tiny_dev, case):
        # loss values are computed only in recorded epochs; every epoch records at
        # eval_every 1, only the last at 4
        settings, loss = self.TRAINING_CASES[case]
        data = {"dataset": str(tiny_dataset), "dev": str(tiny_dev)}
        train = {"epochs": 4, "seed": 1, "learning_rate": 0.01, **settings,
                 "loss": {"kind": "cmm", "gamma": 1.2, "m": 0.3, **loss}}
        arms = [{"name": "cmm"}, {"name": "plain", "loss": {"kind": "plain_margin", **loss}},
                {"name": "atl", "loss": {"kind": "atl_reference", **loss}}]
        assert run(["train", write_config(tmp_path, "t.json", {**data, "train": train,
                                                               "arms": arms}),
                    "-o", tmp_path / "train"]) == 0
        assert run(["compare", write_config(tmp_path, "c.json", {
            **data, "train": train, "gammas": [1.0, 2.0], "ms": [0.1, 0.4]}),
            "-o", tmp_path / "compare"]) == 0
        names = ["compare/grid.csv", "train/positives.csv"] + [
            f"train/{arm['name']}.{suffix}" for arm in arms
            for suffix in ("checkpoint.json", "trace.csv")]
        got = {name: hashlib.sha256((tmp_path / name).read_bytes()).hexdigest()
               for name in names}
        assert got == self.TRAINING_BYTES[case]

    # criterion 5's shape (F = 64, R = 20) on documents of 30 and of 150 pairs: the
    # forward GEMMs run on both sides of the 57/58-row boundary where OpenBLAS
    # takes another path, and every document is a view of the loaded columns
    WIDE_TRAINING_BYTES = {
        30: {
            "positives.csv":
                "4039c3bfbdbaf184cb5c8a384d055809caad9f11310360c4ee2a36c651b6a98a",
            "cmm.checkpoint.json":
                "d6c7b4f896f45525784cbfbec217b878dbab37f1049a7776fbc800b5a37cae66",
            "cmm.trace.csv":
                "cf9946c5623a97abd352e02af78fec8cdb932ebfcfd22ac0438571db5cc9e7b7",
            "plain.checkpoint.json":
                "f1937843720240ef9a313f37393a623e774ca5095e797f173d2bef79d4ef7473",
            "plain.trace.csv":
                "53d601337373a4ea3408fc8f7a15b48e9abe7883f0ff076dc952b8b58a091532",
            "atl.checkpoint.json":
                "54760bf6a114fc396761bce440a277dc4fdd351b94d1c6f4d31a1a17138d3313",
            "atl.trace.csv":
                "0f518088e029d3bc6a83b39b6e8a38b452ddc00e98101b98d4f4306c135a6638",
        },
        150: {
            "positives.csv":
                "a0d5d5f315d034e4758d06d2da865f72770d56956401818c17e5bad4cc6bfa1a",
            "cmm.checkpoint.json":
                "b53b306e32c3ba0f6dc06d3eb4547a70c3d0fd6412de6284b3969f1fb6f02396",
            "cmm.trace.csv":
                "6e23d4c04508cbf6124f363f9494899f2efde6a08ad27f19cc978507d7d7f7cb",
            "plain.checkpoint.json":
                "7ac3c57cc5792f8dd2913a784c40150e102dbcd19449a99d35bbd3c625250310",
            "plain.trace.csv":
                "d51fa8579f96d764f35ddbd887b2497bb7af336a0101defafc46e07469509686",
            "atl.checkpoint.json":
                "beb5e3db4257abb6fa25357778e3a36c928256470d6002156070f01fc23a6369",
            "atl.trace.csv":
                "566b73f3f707d682c8975eecff957c0cf547f1c62914aa58c181ee8922cfa4e7",
        },
    }

    @pytest.mark.parametrize("pairs", list(WIDE_TRAINING_BYTES))
    def test_training_bytes_pinned_at_features_64_relations_20(self, tmp_path, pairs):
        data = {}
        for split, n_documents, seed in (("dataset", 240 // pairs, 2), ("dev", 1, 3)):
            cfg = write_config(tmp_path, f"{split}.json", {
                "n_documents": n_documents, "pairs_per_document": pairs,
                "positive_rate": 0.1, "false_negative_rate": 0.3, "seed": seed})
            assert run(["generate", cfg, "-o", tmp_path / split]) == 0
            data[split] = str(tmp_path / split / "dataset.jsonl")
        train = {"epochs": 3, "seed": 1, "learning_rate": 0.01, "eval_every": 1,
                 "loss": {"kind": "cmm", "gamma": 1.2, "m": 0.3}}
        arms = [{"name": "cmm"}, {"name": "plain", "loss": {"kind": "plain_margin"}},
                {"name": "atl", "loss": {"kind": "atl_reference"}}]
        assert run(["train", write_config(tmp_path, "t.json", {**data, "train": train,
                                                               "arms": arms}),
                    "-o", tmp_path / "train"]) == 0
        names = ["positives.csv"] + [f"{arm['name']}.{suffix}" for arm in arms
                                     for suffix in ("checkpoint.json", "trace.csv")]
        got = {name: hashlib.sha256((tmp_path / "train" / name).read_bytes()).hexdigest()
               for name in names}
        assert got == self.WIDE_TRAINING_BYTES[pairs]

    def test_train_rerun_byte_identical(self, tmp_path, tiny_dataset, tiny_dev):
        cfg = write_config(tmp_path, "train.json", {
            "dataset": str(tiny_dataset), "dev": str(tiny_dev),
            "train": {"epochs": 2, "seed": 1, "loss": {"kind": "cmm", "gamma": 1.2}},
        })
        out_a, out_b = tmp_path / "a", tmp_path / "b"
        assert run(["train", cfg, "-o", out_a]) == 0
        assert run(["train", cfg, "-o", out_b]) == 0
        assert dir_bytes(out_a) == dir_bytes(out_b)

    def test_relative_config_paths_resolve_against_config_dir(self, tmp_path,
                                                              tiny_dataset, tiny_dev):
        import shutil
        nested = tmp_path / "exp"
        nested.mkdir()
        shutil.copy(tiny_dataset, nested / "train.jsonl")
        shutil.copy(tiny_dev, nested / "dev.jsonl")
        cfg = write_config(nested, "train.json", {
            "dataset": "train.jsonl", "dev": "dev.jsonl",
            "train": {"epochs": 1, "loss": {"kind": "cmm"}},
        })
        assert run(["train", cfg, "-o", tmp_path / "o"]) == 0


def assert_one_line_error(capsys, code, expected_code):
    err = capsys.readouterr().err
    assert code == expected_code
    assert len(err.splitlines()) == 1
    assert "Traceback" not in err
    return err


def write_pairs(src, dst, mutate):
    """Copy a dataset JSONL, applying mutate to the list of pair records."""
    lines = Path(src).read_text().splitlines()
    pairs = [json.loads(line) for line in lines[1:]]
    mutate(pairs)
    dst.write_text("\n".join([lines[0]] + [json.dumps(p) for p in pairs]) + "\n")
    return dst


DATASET_MUTATIONS = {
    "seen_index_zero": lambda p: p[0].update(seen_in_train=[0]),
    "seen_index_past_r": lambda p: p[0].update(seen_in_train=[99]),
    "duplicate_pair_id": lambda p: p[1].update(pair_id=p[0]["pair_id"]),
    "nan_feature": lambda p: p[3]["features"].__setitem__(0, float("nan")),
    "ragged_features": lambda p: p[2]["features"].pop(),
    "missing_difficulty": lambda p: p[0].pop("difficulty"),
    "unknown_doc_id": lambda p: p[0].update(doc_id="nowhere"),
    "positives_string": lambda p: p[0].update(positives="12"),
    "true_positives_string": lambda p: p[0].update(true_positives="12"),
    "seen_string": lambda p: p[0].update(seen_in_train="12"),
    "positives_float": lambda p: p[0].update(positives=[1.5]),
    # the first pair's lists are read first, so a cache keyed on equal values
    # would hand [1.0] and [true] the label set built for [1]
    "true_positives_float_after_int": lambda p: (p[0].update(positives=[1], true_positives=[1]),
                                                 p[1].update(true_positives=[1.0])),
    "positives_bool_after_int": lambda p: (p[0].update(positives=[1], true_positives=[1]),
                                           p[1].update(positives=[True])),
    "positives_out_of_range": lambda p: p[0].update(positives=[99]),
    "pair_id_number": lambda p: p[0].update(pair_id=7),
    "doc_id_number": lambda p: p[0].update(doc_id=7),
    "corrupted_string": lambda p: p[0].update(corrupted="false"),
    "feature_string": lambda p: p[0]["features"].__setitem__(0, "1.5"),
    "feature_bool": lambda p: p[0]["features"].__setitem__(1, True),
    "feature_null": lambda p: p[0]["features"].__setitem__(2, None),
    "feature_nested": lambda p: p[0]["features"].__setitem__(0, [1.0]),
    "feature_huge_int": lambda p: p[0]["features"].__setitem__(0, 10 ** 400),
    "features_object": lambda p: p[0].update(features={"0": 1.0}),
}

# mutations of one record: the message names its line (the first pair is line 2)
MUTATED_LINE = {"seen_index_zero": 2, "seen_index_past_r": 2, "missing_difficulty": 2,
                "positives_string": 2, "true_positives_string": 2, "seen_string": 2,
                "positives_float": 2, "true_positives_float_after_int": 3,
                "positives_bool_after_int": 3, "positives_out_of_range": 2,
                "pair_id_number": 2, "doc_id_number": 2, "corrupted_string": 2,
                "feature_string": 2, "feature_bool": 2, "feature_null": 2, "feature_nested": 2,
                "feature_huge_int": 2, "features_object": 2}


def with_schema_field(name, value):
    """A header mutation that sets one field of the header's schema."""
    return lambda h: json.dumps({**json.loads(h),
                                 "schema": {**json.loads(h)["schema"], name: value}})


HEADER_MUTATIONS = {
    "not_json": lambda h: h[:-1],
    "not_an_object": lambda h: "[" + h + "]",
    "missing_schema": lambda h: json.dumps({k: v for k, v in json.loads(h).items()
                                            if k != "schema"}),
    "schema_not_an_object": lambda h: json.dumps({**json.loads(h), "schema": 5}),
    "documents_not_a_list": lambda h: json.dumps({**json.loads(h), "documents": "d000"}),
    "relation_names_string": with_schema_field("relation_names", "abcde"),
    # schema integers are checked like config fields, not truncated by int()
    "relation_count_float": with_schema_field("relation_count",
                                              TINY_GEN["relation_count"] + 0.9),
    "relation_count_bool": with_schema_field("relation_count", True),
    "relation_count_string": with_schema_field("relation_count",
                                               str(TINY_GEN["relation_count"])),
    "th_index_float": with_schema_field("th_index", 0.7),
    # dict() of these would load [["generator", 1]] as {"generator": 1}
    "manifest_list_of_pairs": lambda h: json.dumps({**json.loads(h),
                                                     "manifest": [["generator", 1]]}),
    "manifest_list_of_strings": lambda h: json.dumps({**json.loads(h), "manifest": ["ab", "cd"]}),
    **{f"pair_count_{name}": (lambda value: lambda h: json.dumps({**json.loads(h),
                                                                  "pair_count": value}))(value)
       for name, value in (("string", "100"), ("negative", -1), ("bool", True), ("null", None),
                           ("float", 100.0))},
}

# each train config is rejected before anything is written
BAD_TRAIN = {
    **{f"one_hidden_dim_{v}": {"architecture": "one_hidden", "hidden_dim": v}
       for v in (-1, 0, 1.5)},
    "seed_negative": {"seed": -1}, "seed_float": {"seed": 1.5},
    "epochs_float": {"epochs": 1.5}, "epochs_bool": {"epochs": True},
    "accumulate_float": {"accumulate_documents": 1.5}, "eval_every_float": {"eval_every": 1.5},
    "learning_rate_nan": {"learning_rate": float("nan")}, "epsilon_string": {"epsilon": "x"},
    "weight_decay_bool": {"weight_decay": True}, "epsilon_negative": {"epsilon": -1e-8},
}
BAD_ARMS = {
    "duplicate_name": [{"name": "a"}, {"name": "a", "loss": {"kind": "plain_margin"}}],
    "duplicate_default_name": [{"loss": {"kind": "cmm", "gamma": 1.0}},
                               {"loss": {"kind": "cmm", "gamma": 2.0}}],
    "name_with_slash": [{"name": "a/b"}],
    "name_empty": [{"name": ""}],
    "name_dot_dot": [{"name": ".."}],
    "name_not_string": [{"name": 3}],
}
# other subcommands' configs, with the fields they need
BAD_OTHER = {
    "compare_float_seed": ("compare", {"train": {"epochs": 1}, "seeds": [1.5]}),
    "compare_negative_seed": ("compare", {"train": {"epochs": 1}, "seeds": [-1]}),
    # a grid is a list of finite numbers, not bools, that LossConfig takes
    "compare_string_gammas": ("compare", {"train": {"epochs": 1}, "gammas": "12"}),
    "compare_bool_gamma": ("compare", {"train": {"epochs": 1}, "gammas": [True]}),
    "curves_nan_gamma": ("curves", {"gammas": [float("nan")]}),
    "curves_infinite_gamma": ("curves", {"gammas": [1e400]}),
    "curves_negative_gamma": ("curves", {"gammas": [-1]}),
    # the curve does not depend on m, so curves has no m field, whatever its value
    **{f"curves_m_{name}": ("curves", {"m": m}) for name, m in (
        ("string", "abc"), ("null", None), ("five", 5), ("bool", True), ("list", [1]))},
    # loss and curve numbers are finite numbers, not bools, that fit a float
    **{f"compare_loss_{field}_{name}": ("compare", {"train": {"epochs": 1,
                                                              "loss": {field: value}}})
       for field in ("gamma", "m") for name, value in (("bool", True), ("huge", 10 ** 400))},
    **{f"curves_{field}_bool": ("curves", {field: True}) for field in ("d_min", "d_max", "d_step")},
    # a grid with no arm
    "compare_no_seeds": ("compare", {"train": {"epochs": 1}, "seeds": []}),
    "compare_no_kinds": ("compare", {"train": {"epochs": 1}, "kinds": []}),
    "compare_cmm_no_gammas": ("compare", {"train": {"epochs": 1}, "kinds": ["cmm"],
                                          "gammas": []}),
    "curves_no_gammas": ("curves", {"gammas": []}),
    # kinds and seeds are lists, as the grids are, not strings or objects to iterate
    "compare_string_kinds": ("compare", {"train": {"epochs": 1}, "kinds": "cmm"}),
    "compare_scalar_seeds": ("compare", {"train": {"epochs": 1}, "seeds": 3}),
    "compare_object_seeds": ("compare", {"train": {"epochs": 1}, "seeds": {"a": 1}}),
    # a grid tuple listed twice would train twice and write two equal rows
    "compare_repeated_kind": ("compare", {"train": {"epochs": 1},
                                          "kinds": ["plain_margin", "plain_margin"]}),
    "compare_repeated_seed": ("compare", {"train": {"epochs": 1}, "kinds": ["plain_margin"],
                                          "seeds": [0, 0]}),
    "compare_equal_gammas": ("compare", {"train": {"epochs": 1}, "kinds": ["cmm"],
                                         "gammas": [1, 1.0], "ms": [0.2]}),
    "generate_float_documents": ("generate", {"n_documents": 1.5, "pairs_per_document": 5}),
    "generate_negative_seed": ("generate", {"n_documents": 2, "pairs_per_document": 5,
                                            "seed": -1}),
    "generate_nan_margin": ("generate", {**TINY_GEN, "teacher_margin": float("nan")}),
    "generate_infinite_exponent": ("generate", {**TINY_GEN, "zipf_exponent": float("inf")}),
    "generate_bool_fraction": ("generate", {**TINY_GEN, "hard_fraction": True}),
    "gradcheck_scalar_range": ("gradcheck", {"logit_range": 5}),
    "gradcheck_bool_trials": ("gradcheck", {"trials": True}),
    "gradcheck_bool_seed": ("gradcheck", {"seed": True}),
    "gradcheck_string_seed": ("gradcheck", {"seed": "7"}),
    "gradcheck_negative_seed": ("gradcheck", {"seed": -1}),
    "gradcheck_float_seed": ("gradcheck", {"seed": 1.5}),
    "gradcheck_nan_tolerance": ("gradcheck", {"tolerance": float("nan")}),
    "gradcheck_infinite_tolerance": ("gradcheck", {"tolerance": float("inf")}),
    "gradcheck_negative_tolerance": ("gradcheck", {"tolerance": -1e-5}),
    "gradcheck_nan_step": ("gradcheck", {"step": float("nan")}),
    "gradcheck_infinite_step": ("gradcheck", {"step": float("inf")}),
    "gradcheck_zero_step": ("gradcheck", {"step": 0}),
    "gradcheck_nan_range": ("gradcheck", {"logit_range": [float("nan"), 1.0]}),
    "gradcheck_overflowing_range": ("gradcheck", {"logit_range": [-1e308, 1e308]}),
    "gradcheck_beyond_float_range": ("gradcheck", {"logit_range": [-10 ** 400, 0]}),
    "gradcheck_swapped_range": ("gradcheck", {"logit_range": [1.0, -1.0]}),
    "gradcheck_empty_range": ("gradcheck", {"logit_range": [0.5, 0.5]}),
    "gradcheck_float_relation_count": ("gradcheck", {"relation_counts": [2.5]}),
    "gradcheck_zero_relation_count": ("gradcheck", {"relation_counts": [0]}),
    "gradcheck_huge_relation_count": ("gradcheck", {"relation_counts": [5000]}),
    "gradcheck_no_relation_counts": ("gradcheck", {"relation_counts": []}),
    "gradcheck_no_gammas": ("gradcheck", {"gammas": []}),
    "gradcheck_one_bound_range": ("gradcheck", {"logit_range": [1.0]}),
    "gradcheck_three_bound_range": ("gradcheck", {"logit_range": [-1.0, 0.0, 1.0]}),
    "gradcheck_string_range": ("gradcheck", {"logit_range": "ab"}),
    "gradcheck_scalar_relation_counts": ("gradcheck", {"relation_counts": 3}),
    "gradcheck_string_relation_counts": ("gradcheck", {"relation_counts": "23"}),
    "gradcheck_no_ms": ("gradcheck", {"ms": []}),
}

# (command, config without its data paths, the misspelt field)
UNKNOWN_FIELDS = {
    "generate": ("generate", {**TINY_GEN, "n_document": 3}, "n_document"),
    "train": ("train", {"train": {"epochs": 1}, "arm": [{"name": "a"}]}, "arm"),
    "train_arm": ("train", {"train": {"epochs": 1},
                            "arms": [{"name": "a", "los": {"kind": "plain_margin"}}]}, "los"),
    "compare": ("compare", {"train": {"epochs": 1}, "gamma": [1.0]}, "gamma"),
    "eval": ("eval", {"golds": "true_labels"}, "golds"),
    "gradcheck": ("gradcheck", {"trial": 5}, "trial"),
    "curves": ("curves", {"d_stp": 0.5}, "d_stp"),
    "curves_m": ("curves", {"m": 0.2}, "m"),
}

UNREGISTERED_PLUGIN = {"kind": "plugin", "plugin": "nope"}
PLUGIN_CONFIGS = {
    "train_loss": ("train", {"train": {"epochs": 1, "loss": UNREGISTERED_PLUGIN}}),
    "train_second_arm": ("train", {"train": {"epochs": 1, "loss": {"kind": "cmm"}},
                                   "arms": [{"name": "cmm"},
                                            {"name": "p", "loss": UNREGISTERED_PLUGIN}]}),
    "compare_loss": ("compare", {"train": {"epochs": 1, "loss": UNREGISTERED_PLUGIN}}),
    "compare_kind": ("compare", {"train": {"epochs": 1,
                                           "loss": {"kind": "cmm", "plugin": "nope"}},
                                 "kinds": ["cmm", "plugin"]}),
}

CHECKPOINT_MUTATIONS = {
    "unknown_architecture": lambda c: c["architecture"].update(kind="transformer"),
    "renamed_tensor": lambda c: c["parameters"][0].update(name="V"),
    "shape_not_declared": lambda c: c["architecture"].update(relation_count=4),
    # architecture fields are integers, checked like config fields
    "float_feature_dim": lambda c: c["architecture"].update(
        feature_dim=c["architecture"]["feature_dim"] + 0.7),
    "bool_relation_count": lambda c: c["architecture"].update(relation_count=True),
    "string_hidden_dim": lambda c: c["architecture"].update(hidden_dim="0"),
    "duplicate_name": lambda c: c["parameters"].append(dict(c["parameters"][-1])),
    # parameter data is a list of JSON numbers that fit a float
    "bool_weight": lambda c: c["parameters"][0]["data"].__setitem__(0, True),
    "string_weight": lambda c: c["parameters"][0]["data"].__setitem__(0, "1.5"),
    "huge_weight": lambda c: c["parameters"][0]["data"].__setitem__(0, 10 ** 400),
}


class TestMalformedInput:
    """Bad datasets and checkpoints exit 2, bad configs exit 1; one stderr line each."""

    def eval_config(self, tmp_path, dataset, checkpoint=None):
        if checkpoint is None:
            checkpoint = tmp_path / "ckpt.json"
            save_checkpoint(str(checkpoint), init_encoder("linear", TINY_GEN["feature_dim"],
                                                          TINY_GEN["relation_count"]), None)
        return write_config(tmp_path, "eval.json", {"dataset": str(dataset),
                                                    "checkpoint": str(checkpoint)})

    @pytest.mark.parametrize("mutation", sorted(DATASET_MUTATIONS))
    def test_bad_dataset_exits_2(self, tmp_path, tiny_dev, capsys, mutation):
        bad = write_pairs(tiny_dev, tmp_path / "bad.jsonl", DATASET_MUTATIONS[mutation])
        cfg = self.eval_config(tmp_path, bad)
        capsys.readouterr()
        err = assert_one_line_error(capsys, run(["eval", cfg, "-o", tmp_path / "ev"]), 2)
        assert str(bad) in err
        if mutation in MUTATED_LINE:
            assert f"{bad}:{MUTATED_LINE[mutation]}:" in err

    @pytest.mark.parametrize("mutation", sorted(CHECKPOINT_MUTATIONS))
    def test_bad_checkpoint_exits_2(self, tmp_path, tiny_dev, capsys, mutation):
        path = tmp_path / "ckpt.json"
        save_checkpoint(str(path), init_encoder("linear", TINY_GEN["feature_dim"],
                                                TINY_GEN["relation_count"]), None)
        ckpt = json.loads(path.read_text())
        CHECKPOINT_MUTATIONS[mutation](ckpt)
        path.write_text(json.dumps(ckpt))
        cfg = self.eval_config(tmp_path, tiny_dev, path)
        capsys.readouterr()
        assert_one_line_error(capsys, run(["eval", cfg, "-o", tmp_path / "ev"]), 2)

    @pytest.mark.parametrize("mutation", sorted(HEADER_MUTATIONS))
    def test_bad_header_exits_2(self, tmp_path, tiny_dev, capsys, mutation):
        lines = Path(tiny_dev).read_text().splitlines()
        bad = tmp_path / "bad.jsonl"
        bad.write_text("\n".join([HEADER_MUTATIONS[mutation](lines[0])] + lines[1:]) + "\n")
        cfg = self.eval_config(tmp_path, bad)
        capsys.readouterr()
        err = assert_one_line_error(capsys, run(["eval", cfg, "-o", tmp_path / "ev"]), 2)
        assert f"{bad}:1" in err

    @pytest.mark.parametrize("where", ["header", "line_2", "past_8_kib"])
    def test_invalid_utf8_exits_2(self, tmp_path, tiny_dev, capsys, where):
        lines = Path(tiny_dev).read_bytes().splitlines(keepends=True)
        offsets = np.cumsum([len(line) for line in lines])
        index = {"header": 0, "line_2": 1,
                 "past_8_kib": int(np.searchsorted(offsets, 8192, side="right")) + 1}[where]
        assert index < len(lines)
        lines[index] = lines[index].replace(b'":"', b'":"\xff', 1)
        bad = tmp_path / "bad.jsonl"
        bad.write_bytes(b"".join(lines))
        cfg = self.eval_config(tmp_path, bad)
        capsys.readouterr()
        err = assert_one_line_error(capsys, run(["eval", cfg, "-o", tmp_path / "ev"]), 2)
        assert f"{bad}:{index + 1}:" in err
        assert "utf-8" in err.lower()

    # the parser rejects each token as it reads the line, which it names
    @pytest.mark.parametrize("field,token", [
        ("features", "NaN"), ("features", "Infinity"), ("features", "-Infinity"),
        ("features", "1e400"), ("features", "9" * 400), ("pair_id", '"\\ud800"')],
        ids=["nan", "infinity", "minus_infinity", "1e400", "400_digit_int", "lone_surrogate"])
    def test_unrepresentable_value_exits_2(self, tmp_path, tiny_dev, capsys, field, token):
        lines = Path(tiny_dev).read_text().splitlines()
        # the field's value, or the first number of its list
        lines[2], count = re.subn(rf'("{field}":\[?)[^,\]]+', lambda m: m[1] + token, lines[2],
                                  count=1)
        assert count == 1
        bad = tmp_path / "bad.jsonl"
        bad.write_text("\n".join(lines) + "\n")
        cfg = self.eval_config(tmp_path, bad)
        capsys.readouterr()
        err = assert_one_line_error(capsys, run(["eval", cfg, "-o", tmp_path / "ev"]), 2)
        assert f"{bad}:3:" in err

    def test_invalid_utf8_config_exits_1(self, tmp_path, capsys):
        cfg = tmp_path / "gradcheck.json"
        cfg.write_bytes(b'{"trials": 2, "seed": "\xff"}')
        out = tmp_path / "out"
        capsys.readouterr()
        err = assert_one_line_error(capsys, run(["gradcheck", cfg, "-o", out]), 1)
        assert err.startswith("config error:") and str(cfg) in err
        assert not out.exists()

    def test_dataset_cut_at_a_line_boundary_exits_2(self, tmp_path, tiny_dev, capsys):
        lines = Path(tiny_dev).read_text().splitlines(keepends=True)
        bad = tmp_path / "bad.jsonl"
        bad.write_text("".join(lines[:len(lines) // 2]))
        cfg = self.eval_config(tmp_path, bad)
        capsys.readouterr()
        err = assert_one_line_error(capsys, run(["eval", cfg, "-o", tmp_path / "ev"]), 2)
        declared, found = len(lines) - 1, len(lines) // 2 - 1
        assert f"{bad}:1: the header declares {declared} pairs, but the file holds {found} " in err

    def test_header_only_dataset_exits_2(self, tmp_path, tiny_dev, capsys):
        bad = tmp_path / "bad.jsonl"
        bad.write_text(Path(tiny_dev).read_text().splitlines()[0] + "\n")
        cfg = self.eval_config(tmp_path, bad)
        capsys.readouterr()
        err = assert_one_line_error(capsys, run(["eval", cfg, "-o", tmp_path / "ev"]), 2)
        assert f"{bad}:1" in err

    @pytest.mark.parametrize("case", sorted(PLUGIN_CONFIGS))
    def test_unregistered_plugin_exits_1(self, tmp_path, tiny_dataset, tiny_dev, capsys, case):
        command, body = PLUGIN_CONFIGS[case]
        cfg = write_config(tmp_path, "plugin.json", {
            "dataset": str(tiny_dataset), "dev": str(tiny_dev), **body})
        out = tmp_path / "out"
        capsys.readouterr()
        err = assert_one_line_error(capsys, run([command, cfg, "-o", out]), 1)
        assert "nope" in err
        # rejected before anything is written, the echoed config included
        assert list(out.iterdir()) == []

    def data_config(self, tmp_path, tiny_dataset, tiny_dev, name, body):
        return write_config(tmp_path, name, {"dataset": str(tiny_dataset), "dev": str(tiny_dev),
                                             **body})

    @pytest.mark.parametrize("case", sorted(BAD_TRAIN))
    def test_bad_train_field_exits_1(self, tmp_path, tiny_dataset, tiny_dev, capsys, case):
        cfg = self.data_config(tmp_path, tiny_dataset, tiny_dev, "train.json",
                               {"train": {"epochs": 1, **BAD_TRAIN[case]}})
        out = tmp_path / "out"
        capsys.readouterr()
        assert_one_line_error(capsys, run(["train", cfg, "-o", out]), 1)
        assert list(out.iterdir()) == []

    @pytest.mark.parametrize("case", sorted(BAD_ARMS))
    def test_bad_arm_name_exits_1(self, tmp_path, tiny_dataset, tiny_dev, capsys, case):
        cfg = self.data_config(tmp_path, tiny_dataset, tiny_dev, "train.json",
                               {"train": {"epochs": 1}, "arms": BAD_ARMS[case]})
        out = tmp_path / "out"
        capsys.readouterr()
        err = assert_one_line_error(capsys, run(["train", cfg, "-o", out]), 1)
        assert "arm name" in err
        assert list(out.iterdir()) == []

    @pytest.mark.parametrize("case", sorted(BAD_OTHER))
    def test_bad_field_other_commands_exit_1(self, tmp_path, tiny_dataset, tiny_dev, capsys,
                                             case):
        command, body = BAD_OTHER[case]
        cfg = (self.data_config(tmp_path, tiny_dataset, tiny_dev, "cfg.json", body)
               if command == "compare" else write_config(tmp_path, "cfg.json", body))
        out = tmp_path / "out"
        capsys.readouterr()
        assert_one_line_error(capsys, run([command, cfg, "-o", out]), 1)
        assert list(out.iterdir()) == []

    # the hidden layers need more than 2^47 bytes, which no allocator grants, so
    # the tests touch no memory
    @pytest.mark.parametrize("command", ["train", "compare"])
    @pytest.mark.parametrize("hidden_dim", [None, 10 ** 13, 2 ** 62],
                             ids=["no_features", "hidden_1e13", "hidden_2e62"])
    def test_unbuildable_encoder_exits_2(self, tmp_path, tiny_dataset, tiny_dev, capsys,
                                         command, hidden_dim):
        train = {"epochs": 1, "architecture": "one_hidden", "hidden_dim": hidden_dim or 4}
        if hidden_dim is None:
            def drop_features(pairs):
                for p in pairs:
                    p["features"] = []
            tiny_dataset = write_pairs(tiny_dataset, tmp_path / "train.jsonl", drop_features)
            tiny_dev = write_pairs(tiny_dev, tmp_path / "dev.jsonl", drop_features)
        cfg = self.data_config(tmp_path, tiny_dataset, tiny_dev, "cfg.json", {"train": train})
        out = tmp_path / "out"
        capsys.readouterr()
        err = assert_one_line_error(capsys, run([command, cfg, "-o", out]), 2)
        assert ("training dataset's pairs have no features" if hidden_dim is None
                else "cannot hold the one_hidden encoders") in err
        assert list(out.iterdir()) == []

    def test_non_finite_logits_exit_2(self, tmp_path, tiny_dev, capsys):
        # 5 * 1e308 overflows: every logit is infinite, and no relation decodes
        def huge_features(pairs):
            for p in pairs:
                p["features"] = [1e308, 1e308] + [0.0] * (TINY_GEN["feature_dim"] - 2)
        bad = write_pairs(tiny_dev, tmp_path / "huge.jsonl", huge_features)
        params = init_encoder("linear", TINY_GEN["feature_dim"], TINY_GEN["relation_count"])
        params.flat[:] = 5.0
        ckpt = tmp_path / "ckpt.json"
        save_checkpoint(str(ckpt), params, None)
        out = tmp_path / "ev"
        capsys.readouterr()
        err = assert_one_line_error(
            capsys, run(["eval", self.eval_config(tmp_path, bad, ckpt), "-o", out]), 2)
        assert "logits to score are not all finite" in err
        assert not (out / "config.json").exists()

    @pytest.mark.parametrize("case, message", [
        ("gradcheck_one_bound_range", "logit_range must be a list of two numbers, got [1.0]"),
        ("gradcheck_string_range", "logit_range must be a list of two numbers, got 'ab'"),
        ("gradcheck_scalar_relation_counts", "relation_counts must be a list of integers, got 3"),
        ("gradcheck_string_relation_counts",
         "relation_counts must be a list of integers, got '23'"),
    ])
    def test_gradcheck_shape_error_names_the_field(self, tmp_path, capsys, case, message):
        cfg = write_config(tmp_path, "cfg.json", BAD_OTHER[case][1])
        capsys.readouterr()
        err = assert_one_line_error(capsys, run(["gradcheck", cfg, "-o", tmp_path / "out"]), 1)
        assert err.strip().endswith(message)

    @pytest.mark.parametrize("case, message", [
        ("compare_string_kinds", "kinds must be a list of loss kinds, got 'cmm'"),
        ("compare_scalar_seeds", "seeds must be a list of integers, got 3"),
        ("compare_object_seeds", "seeds must be a list of integers, got {'a': 1}"),
        ("curves_no_gammas", "gammas must not be empty"),
        ("compare_repeated_kind",
         "the grid lists (kind, gamma, m, seed) = ('plain_margin', None, None, 0) twice"),
        ("compare_repeated_seed",
         "the grid lists (kind, gamma, m, seed) = ('plain_margin', None, None, 0) twice"),
        ("compare_equal_gammas",
         "the grid lists (kind, gamma, m, seed) = ('cmm', 1.0, 0.2, 0) twice"),
    ])
    def test_grid_shape_error_names_the_field(self, tmp_path, tiny_dataset, tiny_dev, capsys,
                                              case, message):
        command, body = BAD_OTHER[case]
        cfg = (self.data_config(tmp_path, tiny_dataset, tiny_dev, "cfg.json", body)
               if command == "compare" else write_config(tmp_path, "cfg.json", body))
        capsys.readouterr()
        err = assert_one_line_error(capsys, run([command, cfg, "-o", tmp_path / "out"]), 1)
        assert err.strip().endswith(message)

    @pytest.mark.parametrize("case", sorted(UNKNOWN_FIELDS))
    def test_unknown_field_exits_1(self, tmp_path, tiny_dataset, tiny_dev, capsys, case):
        """A misspelt field is rejected, not ignored in favour of a default, and
        the directory keeps what a previous run left there."""
        command, body, field = UNKNOWN_FIELDS[case]
        if command == "eval":
            ckpt = tmp_path / "ckpt.json"
            save_checkpoint(str(ckpt), init_encoder("linear", TINY_GEN["feature_dim"],
                                                    TINY_GEN["relation_count"]), None)
            body = {"dataset": str(tiny_dev), "checkpoint": str(ckpt), **body}
        elif command in ("train", "compare"):
            body = {"dataset": str(tiny_dataset), "dev": str(tiny_dev), **body}
        cfg = write_config(tmp_path, "cfg.json", body)
        out = tmp_path / "out"
        out.mkdir()
        (out / "config.json").write_text("{}")
        capsys.readouterr()
        err = assert_one_line_error(capsys, run([command, cfg, "-o", out]), 1)
        assert repr(field) in err
        assert dir_bytes(out) == {"config.json": b"{}"}

    @pytest.mark.parametrize("command", ["train", "compare"])
    def test_feature_width_mismatch_exits_2(self, tmp_path, tiny_dataset, capsys, command):
        gen = write_config(tmp_path, "gen_wide.json",
                           {**TINY_GEN, "n_documents": 4, "seed": 4, "feature_dim": 12})
        assert run(["generate", gen, "-o", tmp_path / "wide"]) == 0
        grid = {"kinds": ["cmm"], "gammas": [1.0], "ms": [0.2]} if command == "compare" else {}
        cfg = self.data_config(tmp_path, tiny_dataset, tmp_path / "wide" / "dataset.jsonl",
                               "cfg.json", {"train": {"epochs": 1}, **grid})
        out = tmp_path / "out"
        capsys.readouterr()
        err = assert_one_line_error(capsys, run([command, cfg, "-o", out]), 2)
        assert "feature width" in err
        assert list(out.iterdir()) == []

    def test_overflowing_update_exits_2_in_one_line(self, tmp_path, tiny_dataset, tiny_dev,
                                                    capsys):
        cfg = self.data_config(tmp_path, tiny_dataset, tiny_dev, "train.json",
                               {"train": {"epochs": 2, "learning_rate": 1e308}})
        capsys.readouterr()
        with warnings.catch_warnings():
            warnings.simplefilter("error")      # a NumPy RuntimeWarning would raise here
            code = run(["train", cfg, "-o", tmp_path / "out"])
        err = assert_one_line_error(capsys, code, 2)
        assert "non-finite" in err

    def test_zero_curve_step_exits_1(self, tmp_path, capsys):
        cfg = write_config(tmp_path, "curves.json", {"d_step": 0})
        assert_one_line_error(capsys, run(["curves", cfg, "-o", tmp_path / "c"]), 1)
        assert list((tmp_path / "c").iterdir()) == []

    @pytest.mark.parametrize("bounds", [{"d_min": -1e308}, {"d_max": 1e308},
                                        {"d_min": -math.inf}, {"d_max": math.inf},
                                        {"d_min": -1e12}, {"d_max": 1e12}],
                             ids=["d_min_-1e308", "d_max_1e308", "d_min_-inf", "d_max_inf",
                                  "d_min_-1e12", "d_max_1e12"])
    def test_unbuildable_curve_grid_exits_1(self, tmp_path, capsys, bounds):
        # 1e12 asks numpy for 146 TiB, which it refuses without allocating
        cfg = write_config(tmp_path, "curves.json", bounds)
        capsys.readouterr()
        err = assert_one_line_error(capsys, run(["curves", cfg, "-o", tmp_path / "c"]), 1)
        assert "no d grid" in err
        assert list((tmp_path / "c").iterdir()) == []

    @pytest.mark.parametrize("grid", [{"kinds": ["bogus"]}, {"gammas": ["x"]}],
                             ids=["unknown_kind", "non_numeric_gamma"])
    def test_bad_compare_grid_exits_1(self, tmp_path, tiny_dataset, tiny_dev, capsys, grid):
        cfg = write_config(tmp_path, "cmp.json", {
            "dataset": str(tiny_dataset), "dev": str(tiny_dev),
            "train": {"epochs": 1, "loss": {"kind": "cmm"}}, **grid,
        })
        capsys.readouterr()
        assert_one_line_error(capsys, run(["compare", cfg, "-o", tmp_path / "c"]), 1)
        assert list((tmp_path / "c").iterdir()) == []


class TestAtomicArtifacts:
    """Output files appear complete or not at all."""

    def test_failing_arm_leaves_empty_output_dir(self, tmp_path, tiny_dataset, tiny_dev,
                                                 capsys):
        from cmm.loss import plain_margin_grad, plain_margin_loss, register_loss
        calls = []

        def grad(logits, labels, cfg):       # finite for the first epoch, NaN after
            calls.append(None)
            g = plain_margin_grad(logits, labels)
            return g if len(calls) <= 300 else np.full_like(g, np.nan)
        register_loss("nan_mid_run", lambda lg, lb, cfg: plain_margin_loss(lg, lb), grad)
        cfg = write_config(tmp_path, "train.json", {
            "dataset": str(tiny_dataset), "dev": str(tiny_dev),
            "train": {"epochs": 3, "eval_every": 1},
            "arms": [{"name": "cmm"}, {"name": "p", "loss": {"kind": "plugin",
                                                              "plugin": "nan_mid_run"}}]})
        out = tmp_path / "out"
        capsys.readouterr()
        err = assert_one_line_error(capsys, run(["train", cfg, "-o", out]), 2)
        assert "plugin arm" in err
        assert 300 < len(calls) < 900      # it failed mid-run, after whole steps
        assert list(out.iterdir()) == []

    @pytest.mark.parametrize("writer", ["json", "checkpoint", "csv"])
    def test_exception_in_json_dump_leaves_no_file(self, tmp_path, monkeypatch, writer):
        def broken_dump(obj, fh, **kwargs):
            fh.write('{"partial": ')
            raise RuntimeError("disk gone")

        def broken_rows():
            yield [1, 2.0]
            raise RuntimeError("disk gone")
        monkeypatch.setattr(json, "dump", broken_dump)
        path = tmp_path / "artifact"
        with pytest.raises(RuntimeError):
            if writer == "json":
                schema.write_json(path, {"a": 1})
            elif writer == "csv":
                schema.write_csv(path, ("a", "b"), broken_rows())
            else:
                save_checkpoint(str(path), init_encoder("linear", 2, 1), None)
        assert list(tmp_path.iterdir()) == []

    def test_failed_rewrite_keeps_the_previous_file(self, tmp_path, monkeypatch):
        path = tmp_path / "artifact.json"
        schema.write_json(path, {"a": 1})
        before = path.read_bytes()
        monkeypatch.setattr(json, "dump", lambda *a, **k: (_ for _ in ()).throw(OSError("full")))
        with pytest.raises(OSError):
            schema.write_json(path, {"a": 2})
        assert path.read_bytes() == before
        assert [p.name for p in tmp_path.iterdir()] == ["artifact.json"]

    def test_only_schema_and_the_config_copy_open_artifact_files(self):
        """Every artifact goes through schema's writers; the one other
        ``open_atomic`` call is cli.main's verbatim copy of the config."""
        callers = []
        for path in sorted(Path(schema.__file__).parent.glob("*.py")):
            tree = ast.parse(path.read_text(encoding="utf-8"))
            functions = [f for f in ast.walk(tree)
                         if isinstance(f, (ast.FunctionDef, ast.AsyncFunctionDef))]
            for node in ast.walk(tree):
                if isinstance(node, ast.Call) and "open_atomic" in (
                        getattr(node.func, "id", None), getattr(node.func, "attr", None)):
                    owner = min((f for f in functions
                                 if f.lineno <= node.lineno <= f.end_lineno),
                                key=lambda f: f.end_lineno - f.lineno, default=None)
                    callers.append((path.name, owner.name if owner else "<module>"))
        assert {c for c in callers if c[0] != "schema.py"} == {("cli.py", "main")}
        assert callers.count(("cli.py", "main")) == 1


def rerun_configs(command, tiny_dataset, tiny_dev):
    """(old, new) configs of one subcommand whose runs write the same file
    names with different bytes, and a config of the new run that is rejected
    only once the subcommand parses it."""
    data = {"dataset": str(tiny_dataset), "dev": str(tiny_dev)}
    train = {"epochs": 2, "seed": 1, "learning_rate": 1e-3}
    if command in ("train", "compare"):
        old = {**data, "train": train, **(
            {"arms": [{"name": "a"}, {"name": "b", "loss": {"kind": "plain_margin"}}]}
            if command == "train" else {"gammas": [1.0], "ms": [0.2]})}
        new = {**old, "train": {**train, "learning_rate": 5e-2}}
        return old, new, {**new, "train": {**new["train"], "bogus": 1}}
    if command == "eval":
        old = {"dataset": str(tiny_dev), "checkpoint": str(Path(tiny_dev).parent / "ckpt.json")}
        save_checkpoint(old["checkpoint"], init_encoder("linear", 10, 5, seed=2), None)
        new = {**old, "gold": "true_labels"}
        return old, new, {**new, "gold": "bogus"}
    old = {"generate": {**TINY_GEN, "n_documents": 3}, "gradcheck": {"trials": 20},
           "curves": {"d_step": 0.5}}[command]
    new = {**old, "seed": 7} if command != "curves" else {**old, "d_step": 0.25}
    return old, new, {**new, "bogus": 1}


class TestInterruptedRerun:
    """An output directory holds a complete run if and only if it holds config.json."""

    COMMANDS = ["generate", "train", "compare", "gradcheck", "curves", "eval"]

    @staticmethod
    def fail_at_write(monkeypatch, k, exc):
        """Raise exc inside the k-th atomic write (1-based): every artifact is
        written through schema's writers or by cli.main."""
        from cmm import cli
        calls, original = [], schema.open_atomic

        @contextlib.contextmanager
        def failing(path, *args, **kwargs):
            calls.append(path)
            with original(path, *args, **kwargs) as fh:
                if len(calls) == k:
                    raise exc
                yield fh
        for module in (cli, schema):
            monkeypatch.setattr(module, "open_atomic", failing)
        return calls

    @pytest.mark.parametrize("exc", [KeyboardInterrupt(), OSError("disk full")],
                             ids=["interrupt", "oserror"])
    @pytest.mark.parametrize("command", COMMANDS)
    def test_fault_sweep_never_leaves_a_complete_looking_mix(self, tmp_path, tiny_dataset,
                                                             tiny_dev, command, exc):
        old, new, _ = rerun_configs(command, tiny_dataset, tiny_dev)
        old_cfg, new_cfg = write_config(tmp_path, "old.json", old), write_config(
            tmp_path, "new.json", new)
        assert run([command, old_cfg, "-o", tmp_path / "old"]) == 0
        assert run([command, new_cfg, "-o", tmp_path / "new"]) == 0
        before, after = dir_bytes(tmp_path / "old"), dir_bytes(tmp_path / "new")
        assert before.keys() == after.keys() and before != after
        mixes = 0
        for k in range(1, len(after) + 2):
            out = tmp_path / f"rerun{k}"
            out.mkdir()
            for name, data in before.items():
                (out / name).write_bytes(data)
            with pytest.MonkeyPatch.context() as mp:
                calls = self.fail_at_write(mp, k, exc)
                try:
                    run([command, new_cfg, "-o", out])
                except type(exc):
                    failed = True
                else:
                    failed = False
            got = dir_bytes(out)
            assert sorted(p.name for p in out.iterdir()) == list(got)    # no stray temporaries
            if command == "generate":     # a sidecar of the other run is ignored
                resaved = tmp_path / "resaved.jsonl"
                save_dataset_jsonl(load_dataset_jsonl(str(out / "dataset.jsonl")), str(resaved))
                assert resaved.read_bytes() == got["dataset.jsonl"]
                mixes += (got["dataset.jsonl"], got["dataset.jsonl.columns"]) == (
                    after["dataset.jsonl"], before["dataset.jsonl.columns"])
            if failed:
                assert "config.json" not in got, k
                assert all(data in (before[name], after[name]) for name, data in got.items())
            else:
                assert len(calls) == k - 1 == len(after) and got == after
                break
        else:
            pytest.fail("the rerun never completed")
        assert mixes == (command == "generate")

    @pytest.mark.parametrize("command", COMMANDS)
    def test_rejected_config_leaves_the_directory_as_it_was(self, tmp_path, tiny_dataset,
                                                            tiny_dev, capsys, command):
        old, _, bad = rerun_configs(command, tiny_dataset, tiny_dev)
        out = tmp_path / "out"
        assert run([command, write_config(tmp_path, "old.json", old), "-o", out]) == 0
        before = dir_bytes(out)
        capsys.readouterr()
        assert_one_line_error(capsys, run([command, write_config(tmp_path, "bad.json", bad),
                                           "-o", out]), 1)
        assert dir_bytes(out) == before and "config.json" in before


PAIR_FIELDS = ("pair_id", "doc_id", "features", "positives", "true_positives",
               "seen_in_train", "difficulty", "corrupted")
# a replacement value of some other JSON type (or the field dropped)
SWAPPED = st.one_of(
    st.none(), st.booleans(), st.integers(-2, 99), st.text(max_size=3), st.just({}),
    st.floats(allow_nan=True, allow_infinity=True),
    st.lists(st.integers(-1, 6), max_size=3), st.lists(st.booleans(), max_size=2),
    st.lists(st.floats(-2.0, 2.0), max_size=3), st.just("<dropped>"))
NON_FINITE = st.sampled_from([float("nan"), float("inf"), float("-inf")])


class TestFuzzPairLines:
    """Mutated pair lines through `cmm eval`: exit 0, or 1/2 with one stderr line."""

    def test_eval_never_crashes(self, tmp_path, tiny_dev):
        lines = Path(tiny_dev).read_text().splitlines()
        ckpt = tmp_path / "ckpt.json"
        save_checkpoint(str(ckpt), init_encoder("linear", TINY_GEN["feature_dim"],
                                                TINY_GEN["relation_count"]), None)
        bad = tmp_path / "bad.jsonl"
        cfg = write_config(tmp_path, "eval.json", {"dataset": str(bad),
                                                   "checkpoint": str(ckpt)})
        n_pairs = len(lines) - 1

        @settings(max_examples=50, deadline=None, derandomize=True)
        @given(st.integers(0, n_pairs - 1),
               st.one_of(st.tuples(st.sampled_from(PAIR_FIELDS), SWAPPED),
                         st.tuples(st.just("non_finite_feature"), NON_FINITE)))
        def check(index, mutation):
            field, value = mutation
            pair = json.loads(lines[index + 1])
            if field == "non_finite_feature":
                pair["features"][index % len(pair["features"])] = value
            elif value == "<dropped>":
                del pair[field]
            else:
                pair[field] = value
            mutated = list(lines)
            mutated[index + 1] = json.dumps(pair)
            bad.write_text("\n".join(mutated) + "\n")
            err = io.StringIO()
            with contextlib.redirect_stderr(err):
                code = run(["eval", cfg, "-o", tmp_path / "ev"])
            if field == "non_finite_feature":
                assert code == 2
            if code != 0:
                assert code in (1, 2)
                assert len(err.getvalue().splitlines()) == 1
                assert "Traceback" not in err.getvalue()

        check()


# 16 replacement values of other JSON types and ranges for one config field
CONFIG_SWAPS = (None, True, False, 0, -1, 1, 10 ** 30, 1.5, -1e308, 1e308, float("nan"),
                float("inf"), float("-inf"), "x", [], {})
# valid at 10**30, where the command would run without end
UNBOUNDED_WORK = ("epochs", "trials", "n_documents")
SWEEP_TRAIN = {"epochs": 1, "seed": 0, "learning_rate": 1e-3, "beta1": 0.9, "beta2": 0.999,
               "epsilon": 1e-8, "weight_decay": 0.01, "eval_every": 1,
               "architecture": "linear", "hidden_dim": 4, "accumulate_documents": 1,
               "loss": {"kind": "cmm", "gamma": 1.0, "m": 0.2,
                        "aggregation": "per_document_sum", "plugin": None}}
SWEEP_FIELDS = (
    [("generate", (name,)) for name in (*TINY_GEN, "zipf_exponent", "teacher_margin",
                                        "false_negative_rate", "preset")]
    + [("train", (name,)) for name in ("dataset", "dev", "train", "arms")]
    + [("train", ("train", name)) for name in SWEEP_TRAIN]
    + [("train", ("train", "loss", name)) for name in SWEEP_TRAIN["loss"]]
    + [("train", ("arms", 0, name)) for name in ("name", "loss")]
    + [("compare", (name,)) for name in ("dataset", "dev", "train", "kinds", "gammas", "ms",
                                         "seeds")]
    + [("eval", (name,)) for name in ("dataset", "checkpoint", "gold")]
    + [("gradcheck", (name,)) for name in ("trials", "tolerance", "seed", "gammas", "ms",
                                           "logit_range", "relation_counts", "step")]
    + [("gradcheck", ("logit_range", 0)), ("gradcheck", ("logit_range", 1)),
       ("gradcheck", ("relation_counts", 0))]
    + [("curves", (name,)) for name in ("gammas", "d_min", "d_max", "d_step")])


class TestFuzzConfigFields:
    """Each config field of every subcommand swapped for another type or range: exit 0,
    or 1/2 with one stderr line, never a traceback."""

    def test_config_field_swaps_never_crash(self, tmp_path, tiny_dataset, tiny_dev):
        ckpt = tmp_path / "ckpt.json"
        save_checkpoint(str(ckpt), init_encoder("linear", TINY_GEN["feature_dim"],
                                                TINY_GEN["relation_count"]), None)
        data = {"dataset": str(tiny_dataset), "dev": str(tiny_dev)}
        base = {
            "generate": TINY_GEN,
            "train": {**data, "train": SWEEP_TRAIN, "arms": [{"name": "cmm", "loss": None}]},
            "compare": {**data, "train": SWEEP_TRAIN, "kinds": ["cmm", "plain_margin"],
                        "gammas": [1.0], "ms": [0.2], "seeds": [0]},
            "eval": {"dataset": str(tiny_dataset), "checkpoint": str(ckpt), "gold": "labels"},
            "gradcheck": {"trials": 5, "tolerance": 1e-5, "seed": 0, "gammas": [1.0],
                          "ms": [0.2], "logit_range": [-8.0, 8.0], "relation_counts": [3],
                          "step": 1e-5},
            "curves": {"gammas": [1.0], "d_min": -1.0, "d_max": 1.0, "d_step": 0.5},
        }
        out = tmp_path / "out"

        @settings(max_examples=600, deadline=None, derandomize=True)
        @given(st.sampled_from(SWEEP_FIELDS), st.sampled_from(CONFIG_SWAPS))
        def check(field, value):
            command, path = field
            assume(not (path[-1] in UNBOUNDED_WORK and value == 10 ** 30))
            config = copy.deepcopy(base[command])
            node = config
            for key in path[:-1]:
                node = node[key]
            node[path[-1]] = value
            cfg = write_config(tmp_path, "swapped.json", config)
            err = io.StringIO()
            with contextlib.redirect_stderr(err):
                code = run([command, cfg, "-o", out])
            assert code in (0, 1, 2)
            assert "Traceback" not in err.getvalue()
            if code != 0:
                assert len(err.getvalue().splitlines()) == 1
            if (command == "gradcheck" and path[-1] in ("tolerance", "step")
                    and isinstance(value, float) and not math.isfinite(value)):
                assert code == 1

        check()
