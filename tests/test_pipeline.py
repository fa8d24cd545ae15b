import csv
import json
import os
import xml.etree.ElementTree as ET

import numpy as np
import pytest

from loopscope.cli import main as cli_main
from loopscope.pipeline import (
    MANIFEST_FILE,
    OUTPUT_FILES,
    RANKS_FILE,
    SUMMARY_FILE,
    TRAJ_FILE,
    ExperimentConfig,
    PipelineError,
    check_output_dir,
    entropy_curves,
    run_experiment,
    verify,
)
from loopscope.training import TrainConfig
from tests.test_metrics import make_traj


def tiny_config(out, seed=0):
    return ExperimentConfig(
        n_categories=4, entities_per_category=8, n_attributes=4, n_values=6,
        n_stems=8, n_permutations=3, holdout_stems=2,
        d_model=16, n_heads=2, prelude_layers=1, recurrent_layers=1,
        coda_layers=1, k=6,
        train=TrainConfig(epochs=1, batch_size=16, warmup_steps=5),
        n_resamples=200, trace_batch=64, output_dir=str(out), seed=seed)


@pytest.fixture(scope="module")
def run(tmp_path_factory):
    out = tmp_path_factory.mktemp("exp")
    config = tiny_config(out)
    report = run_experiment(config)
    return config, report


def test_all_output_files_exist(run):
    config, report = run
    for name in OUTPUT_FILES + [MANIFEST_FILE]:
        assert os.path.exists(os.path.join(config.output_dir, name)), name
    assert set(report.manifest["files"]) == set(OUTPUT_FILES)


def test_trajectory_counts_and_shapes(run):
    config, _ = run
    from loopscope.metrics import read_trajectories_jsonl
    trajs = read_trajectories_jsonl(os.path.join(config.output_dir, TRAJ_FILE))
    assert len(trajs) == config.n_stems * 3 * config.n_permutations
    for t in trajs:
        assert t.k == config.k
        assert t.option_probs.shape == (config.k, 4)
        assert t.step_kl_series.shape == (config.k - 1,)
        assert (t.correct_index is None) == (t.variant == "NoCorrect")


def test_summary_csv_round_trip(run):
    config, report = run
    with open(os.path.join(config.output_dir, SUMMARY_FILE)) as f:
        rows = {r["statistic"]: r for r in csv.DictReader(f)}
    assert set(rows) == set(report.summary)
    for name, s in report.summary.items():
        if s is None:
            assert rows[name]["note"] == "absent"
        else:
            assert float(rows[name]["value"]) == pytest.approx(s.value, rel=1e-9)
            assert int(rows[name]["n"]) == s.n


def test_ranks_csv_shape(run):
    config, report = run
    with open(os.path.join(config.output_dir, RANKS_FILE)) as f:
        rows = list(csv.DictReader(f))
    assert [r["abandoned_answer"] for r in rows] == \
        ["most_similar", "second_similar", "least_similar", "adopted_correct"]
    # rows are present even when no events were detected
    assert all(int(r["count"]) >= 0 for r in rows)
    assert sum(int(r["count"]) for r in rows[:3]) <= report.n_events


def test_figures_parse_as_xml(run):
    config, _ = run
    for name in ("fig_trajectory.svg", "fig_entropy.svg"):
        root = ET.parse(os.path.join(config.output_dir, name)).getroot()
        assert root.get("width") and root.get("height")


def test_verify_passes_and_detects_tamper(run, tmp_path):
    config, _ = run
    assert verify(config.output_dir) == []
    # tampering with a hashed file must be caught
    path = os.path.join(config.output_dir, SUMMARY_FILE)
    original = open(path, "rb").read()
    try:
        with open(path, "ab") as f:
            f.write(b"# tampered\n")
        problems = verify(config.output_dir)
        assert any("hash mismatch" in p for p in problems)
    finally:
        with open(path, "wb") as f:
            f.write(original)
    assert verify(config.output_dir) == []
    # a directory without a manifest is a partial run
    assert verify(str(tmp_path)) != []


def _drop(key):
    def edit(manifest):
        del manifest[key]
        return json.dumps(manifest)
    return edit


def _set_config(key, value):
    def edit(manifest):
        manifest["config"][key] = value
        return json.dumps(manifest)
    return edit


@pytest.mark.parametrize("edit,named", [
    (lambda m: json.dumps(m)[:40], "not readable as JSON"),
    (_drop("files"), "lacks 'files'"),
    (_drop("config"), "lacks 'config'"),
    (_set_config("no_such_field", 1), "config rejected"),
    (_set_config("k", 0), "config rejected"),
], ids=["not_json", "no_files", "no_config", "unknown_config_field",
        "invalid_config_value"])
def test_verify_names_a_malformed_manifest(run, tmp_path, edit, named):
    config, _ = run
    with open(os.path.join(config.output_dir, MANIFEST_FILE)) as f:
        manifest = json.load(f)
    with open(tmp_path / MANIFEST_FILE, "w") as f:
        f.write(edit(manifest))
    problems = verify(str(tmp_path))
    assert len(problems) == 1 and named in problems[0], problems
    assert cli_main(["verify", "--output-dir", str(tmp_path)]) == 1


def test_rerun_is_byte_identical(run, tmp_path):
    config, report = run
    config2 = tiny_config(tmp_path / "exp2", seed=config.seed)
    report2 = run_experiment(config2)
    assert report.manifest["files"] == report2.manifest["files"]


def test_different_seed_changes_outputs(run, tmp_path):
    config, report = run
    config3 = tiny_config(tmp_path / "exp3", seed=config.seed + 1)
    report3 = run_experiment(config3)
    assert report.manifest["files"] != report3.manifest["files"]


def test_unwritable_output_dir_aborts_early(tmp_path):
    # a path nested under a regular file can never become a directory
    blocker = tmp_path / "blocker"
    blocker.write_text("not a directory")
    config = tiny_config(blocker / "sub")
    with pytest.raises(PipelineError):
        check_output_dir(config)


def test_config_json_round_trip(tmp_path):
    config = tiny_config(tmp_path / "x", seed=42)
    path = tmp_path / "config.json"
    config.write_json(path)
    loaded = ExperimentConfig.from_json(path)
    assert loaded == config


def test_config_validation():
    with pytest.raises(ValueError):
        ExperimentConfig(k=0)
    with pytest.raises(ValueError):
        ExperimentConfig(n_stems=5, holdout_stems=5)


def test_known_stems_are_a_seeded_share_of_training_stems(tmp_path):
    from loopscope.pipeline import _split_stems, known_stems, stage_gen_bench
    config = tiny_config(tmp_path, seed=3)
    _, bench = stage_gen_bench(config, write=False)
    train_ids = _split_stems(config, bench)
    known = known_stems(config, bench)
    assert known <= train_ids and len(known) == round(0.5 * len(train_ids))
    assert known_stems(config, bench) == known
    config.seed = 4
    assert known_stems(config, bench) != known


def test_cli_staged_run_matches_run_all(run, tmp_path, capsys):
    config, report = run
    out = tmp_path / "staged"
    cfg_path = tmp_path / "config.json"
    staged = tiny_config(out, seed=config.seed)
    staged.write_json(cfg_path)
    for cmd in ("gen-bench", "train", "trace", "analyze", "plot"):
        assert cli_main([cmd, "--config", str(cfg_path)]) == 0
    # staged runs write no manifest; compare file bytes to the run-all output
    import hashlib
    for name in OUTPUT_FILES:
        digest = hashlib.sha256(
            open(os.path.join(out, name), "rb").read()).hexdigest()
        assert digest == report.manifest["files"][name], name
    assert not os.path.exists(os.path.join(out, MANIFEST_FILE))


def test_cli_verify_exit_codes(run, tmp_path, capsys):
    config, _ = run
    assert cli_main(["verify", "--output-dir", config.output_dir]) == 0
    assert cli_main(["verify", "--output-dir", str(tmp_path)]) == 1


def test_cli_trace_without_checkpoint_fails(tmp_path, capsys):
    out = tmp_path / "empty"
    cfg_path = tmp_path / "c.json"
    tiny_config(out).write_json(cfg_path)
    assert cli_main(["trace", "--config", str(cfg_path)]) == 1
    assert "checkpoint" in capsys.readouterr().err


@pytest.mark.parametrize("level,z", [(0.8, 1.2815515655446004),
                                     (0.95, 1.959963984540054)])
def test_entropy_curve_band_is_the_normal_quantile_of_level(level, z):
    # entropies 1, 2, 3, 4 at every step: mean 2.5, standard error
    # sqrt(5/3) / 2
    trajs = [make_traj(f"q{i}", "Base", 0, [0, 0], correct=0, final_entropy=e)
             for i, e in enumerate((1.0, 2.0, 3.0, 4.0))]
    mean, lo, hi = entropy_curves(trajs, level=level)["Base"]
    se = np.sqrt(5.0 / 3.0) / 2.0
    assert np.allclose(mean, 2.5)
    assert np.allclose(hi - mean, z * se, rtol=1e-12)
    assert np.allclose(mean - lo, z * se, rtol=1e-12)
    with pytest.raises(ValueError):
        entropy_curves(trajs, level=1.0)
