import csv
import hashlib
import json
import os
import shutil
import xml.etree.ElementTree as ET

import numpy as np
import pytest

from loopscope.cli import main as cli_main
from loopscope.pipeline import (
    BENCH_FILE,
    CURVES_FILE,
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
        n_resamples=200, output_dir=str(out), seed=seed)


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
    n_events = report.summary["n_backtrack_events_Base"].value
    assert sum(int(r["count"]) for r in rows[:3]) <= n_events


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


def _reorder_keys(lines):
    # the same record, its keys in reverse order: equal JSON, other bytes
    lines[2] = json.dumps(dict(reversed(json.loads(lines[2]).items())))


def _edit_record(lines):
    rec = json.loads(lines[2])
    rec["correct_index"] = (rec["correct_index"] or 0) ^ 1
    lines[2] = json.dumps(rec, sort_keys=True)


@pytest.mark.parametrize("edit,line", [
    (_edit_record, 3), (_reorder_keys, 3),
    (lambda lines: lines.pop(), "last"),
    (lambda lines: lines.append(lines[0]), "past_last"),
], ids=["edited_record", "reordered_keys", "dropped_last", "appended"])
def test_verify_generates_the_benchmark_again(run, tmp_path, edit, line):
    """A benchmark.jsonl edited with its hash updated in the manifest fails
    verify with one problem naming its first line that differs from the
    benchmark the manifest's config generates."""
    config, _ = run
    out = tmp_path / "run"
    shutil.copytree(config.output_dir, out)
    path = out / BENCH_FILE
    lines = path.read_text(encoding="utf-8").splitlines()
    n = len(lines)
    edit(lines)
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    manifest = json.loads((out / MANIFEST_FILE).read_text())
    manifest["files"][BENCH_FILE] = hashlib.sha256(
        path.read_bytes()).hexdigest()
    (out / MANIFEST_FILE).write_text(json.dumps(manifest))
    line = {"last": n, "past_last": n + 1}.get(line, line)
    assert verify(str(out)) == [f"{BENCH_FILE}: line {line} differs from "
                                "the benchmark its config generates"]


def test_verify_names_a_config_that_generates_no_benchmark(run, tmp_path):
    """A manifest config that passes ExperimentConfig but from which no
    benchmark can be generated (a world of one category) is a problem, not
    a traceback."""
    config, _ = run
    out = tmp_path / "run"
    shutil.copytree(config.output_dir, out)
    manifest = json.loads((out / MANIFEST_FILE).read_text())
    manifest["config"]["n_categories"] = 1
    (out / MANIFEST_FILE).write_text(json.dumps(manifest))
    problems = verify(str(out))
    assert len(problems) == 1
    assert problems[0].startswith(
        f"{BENCH_FILE}: cannot be generated from the config (")


def _drop(key):
    def edit(manifest):
        del manifest[key]
        return json.dumps(manifest)
    return edit


def _set_config(key, value, block=()):
    def edit(manifest):
        config = manifest["config"]
        for name in block:
            config = config[name]
        config[key] = value
        return json.dumps(manifest)
    return edit


def _set_file(name, digest=None):
    """Unlist `name` from the manifest's files, or list it with `digest`."""
    def edit(manifest):
        if digest is None:
            del manifest["files"][name]
        else:
            manifest["files"][name] = digest
        return json.dumps(manifest)
    return edit


@pytest.mark.parametrize("edit,named", [
    (lambda m: json.dumps(m)[:40], "not readable as JSON"),
    (_drop("files"), "lacks 'files'"),
    (_drop("config"), "lacks 'config'"),
    (_set_config("no_such_field", 1), "config rejected"),
    (_set_config("k", 0), "config rejected"),
    (_set_config("train", "float32"), "config rejected"),
    # a manifest written before TrainConfig.precision was removed
    (_set_config("precision", "float32", ("train",)), "config rejected"),
    # a manifest written before training's depth became uniform over 1..k
    (_set_config("depth_support", [], ("train",)), "config rejected"),
    # a manifest written before the trace chunking became a constant
    (_set_config("trace_batch", 512), "config rejected"),
    (_set_file(TRAJ_FILE), f'"files" lacks {TRAJ_FILE}'),
    (_set_file("..", "0" * 64), '"files" lists ..'),
], ids=["not_json", "no_files", "no_config", "unknown_config_field",
        "invalid_config_value", "train_not_a_config",
        "removed_train_precision", "removed_depth_support",
        "removed_trace_batch",
        "unlisted_output_file", "unknown_file"])
def test_verify_names_a_malformed_manifest(run, tmp_path, edit, named):
    config, _ = run
    with open(os.path.join(config.output_dir, MANIFEST_FILE)) as f:
        manifest = json.load(f)
    with open(tmp_path / MANIFEST_FILE, "w") as f:
        f.write(edit(manifest))
    problems = verify(str(tmp_path))
    assert len(problems) == 1 and named in problems[0], problems
    assert cli_main(["verify", "--output-dir", str(tmp_path)]) == 1


@pytest.mark.parametrize("name,column", [
    (SUMMARY_FILE, 1), (RANKS_FILE, 1), (CURVES_FILE, 2), (CURVES_FILE, None),
], ids=["summary_value", "rank_count", "curve_mean", "curve_row_dropped"])
def test_verify_recomputes_every_table(run, tmp_path, name, column):
    """A table rewritten with its hash updated in the manifest fails verify,
    with a problem that names the file."""
    config, _ = run
    out = tmp_path / "run"
    shutil.copytree(config.output_dir, out)
    with open(out / name, newline="", encoding="utf-8") as f:
        rows = list(csv.reader(f))
    if column is None:
        rows.pop()
    else:
        rows[1][column] = "12345"
    with open(out / name, "w", newline="", encoding="utf-8") as f:
        csv.writer(f).writerows(rows)
    manifest = json.loads((out / MANIFEST_FILE).read_text())
    manifest["files"][name] = hashlib.sha256(
        (out / name).read_bytes()).hexdigest()
    (out / MANIFEST_FILE).write_text(json.dumps(manifest))
    problems = verify(str(out))
    assert problems and all(p.startswith(f"{name}: ") for p in problems), \
        problems


def test_trace_rows_are_decoded_in_fixed_chunks(tmp_path, monkeypatch):
    """Every traced row equals `deliberate` on the chunk of CHUNK_ROWS rows,
    cut in benchmark order, that holds it. The test patches in chunks of 20
    of 576 rows (8 stems x 3 variants x 24 orders). A row's float32 beliefs
    depend on the rows decoded with it: with OpenBLAS's SkylakeX kernel,
    decoding all 576 at once, or chunks cut one row earlier, changes more
    than 100 rows."""
    from loopscope import pipeline
    from loopscope.model import deliberate, init_params
    from loopscope.taskgen import render_tokens
    monkeypatch.setattr(pipeline, "CHUNK_ROWS", 20)
    config = tiny_config(tmp_path)
    config.n_permutations = 24
    world, bench = pipeline.stage_gen_bench(config, write=False)
    params = init_params(config.model_config(len(world.vocab)), seed=5)
    trajs = pipeline.stage_trace(config, world, bench, params, write=False)
    perms = [p for it in bench.items for p in bench.permutations_for(it)]
    assert len(trajs) == len(perms) == 576
    tokens = np.stack([world.encode(render_tokens(p)) for p in perms])
    for lo in range(0, len(perms), 20):
        probs = deliberate(tokens[lo:lo + 20], params, config.k)
        for j, (t, p) in enumerate(zip(trajs[lo:lo + 20], perms[lo:lo + 20])):
            assert (t.item_id, t.perm_index) == (p.item.item_id,
                                                 p.perm_index)
            assert np.array_equal(t.option_probs,
                                  probs[:, j, world.encode(p.options)])


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


def test_manifest_records_the_train_seed_that_training_uses(tmp_path,
                                                           monkeypatch):
    """Training takes its seed from the master seed, so two configs that
    differ only in train.seed run identically and write identical
    manifests, and the manifest records the seed stage_train passes to
    train."""
    from loopscope import pipeline
    from loopscope.training import TrainLog

    seeds = []

    def recording(params, items, world, tcfg, **kwargs):
        seeds.append(tcfg.seed)
        return TrainLog()

    monkeypatch.setattr(pipeline, "train", recording)
    for name in OUTPUT_FILES:
        (tmp_path / name).write_text(name)
    manifests = []
    for train_seed in (0, 99):
        config = tiny_config(tmp_path)
        config.train.seed = train_seed
        pipeline.stage_train(config, *pipeline.stage_gen_bench(
            config, write=False), write=False)
        pipeline.write_manifest(config)
        manifests.append((tmp_path / MANIFEST_FILE).read_bytes())
    assert manifests[0] == manifests[1]
    assert seeds[0] == seeds[1]
    assert json.loads(manifests[0])["config"]["train"]["seed"] == seeds[0]


def test_unwritable_output_dir_aborts_early(tmp_path):
    # a path nested under a regular file can never become a directory
    blocker = tmp_path / "blocker"
    blocker.write_text("not a directory")
    config = tiny_config(blocker / "sub")
    with pytest.raises(PipelineError):
        check_output_dir(config)


def _flip_argmax(rec):
    rec["argmax_series"][0] = (rec["argmax_series"][0] + 1) % 4


def _set_first(field, value):
    def edit(rec):
        rec[field][0] = value
    return edit


def _drop_last(field):
    def edit(rec):
        rec[field].pop()
    return edit


@pytest.mark.parametrize("edit", [
    _flip_argmax, _set_first("option_probs", [0.5, 0.5, 0.5, 0.0]),
    _set_first("option_probs", [-0.1, 0.3, 0.3, 0.3]),
    _set_first("full_entropy", 10.0), _set_first("full_entropy", -0.1),
    _set_first("full_entropy", float("nan")),
    _set_first("renorm_entropy", 1.5), _drop_last("step_kl"),
    _drop_last("option_probs"), _set_first("step_kl", -0.5),
    _set_first("step_kl", float("inf")),
], ids=["argmax", "mass_above_one", "negative_mass", "entropy_above_ln_vocab",
        "negative_entropy", "nan_entropy", "renorm_above_ln_4",
        "short_kl", "short_option_probs", "negative_kl", "infinite_kl"])
def test_verify_checks_trajectory_invariants(run, tmp_path, edit):
    """A trajectory row rewritten to break an invariant, with its file's
    hash updated in the manifest, fails verify with problems that name the
    file and the row."""
    config, _ = run
    out = tmp_path / "run"
    shutil.copytree(config.output_dir, out)
    lines = (out / TRAJ_FILE).read_text(encoding="utf-8").splitlines()
    rec = json.loads(lines[1])
    edit(rec)
    lines[1] = json.dumps(rec, sort_keys=True)
    (out / TRAJ_FILE).write_text("\n".join(lines) + "\n", encoding="utf-8")
    manifest = json.loads((out / MANIFEST_FILE).read_text())
    manifest["files"][TRAJ_FILE] = hashlib.sha256(
        (out / TRAJ_FILE).read_bytes()).hexdigest()
    (out / MANIFEST_FILE).write_text(json.dumps(manifest))
    problems = verify(str(out))
    row = f"({rec['item_id']}, {rec['variant']}, {rec['perm_index']})"
    assert problems and all(p.startswith(f"{TRAJ_FILE}: row {row}: ")
                            for p in problems), problems


def _wrong_type(line):
    rec = json.loads(line)
    rec["k"] = str(rec["k"])
    return json.dumps(rec)


def _first_element(field, value):
    def edit(line):
        rec = json.loads(line)
        _set_first(field, value)(rec)
        return json.dumps(rec)
    return edit


@pytest.mark.parametrize("bad_line,named", [
    (lambda line: "[1, 2]", "record is an array, not an object"),
    (lambda line: "null", "record is null, not an object"),
    (lambda line: "{}", "record lacks field 'item_id'"),
    (_wrong_type, "field 'k' is a string"),
    # array elements, which np.array would read as NaN, 1.0 or the index 1
    (_first_element("step_kl", None),
     "field 'step_kl' holds null, not a number"),
    (_first_element("full_entropy", True),
     "field 'full_entropy' holds a boolean, not a number"),
    (_first_element("option_probs", ["0.25", 0.25, 0.25, 0.25]),
     "field 'option_probs' holds a string, not a number"),
    (_first_element("argmax_series", 1.5),
     "field 'argmax_series' holds a number, not an integer"),
    (_first_element("argmax_series", 10 ** 30), "field 'argmax_series': "),
], ids=["array", "null", "no_fields", "wrong_type", "null_kl", "bool_entropy",
        "string_prob", "fractional_argmax", "argmax_overflow"])
def test_malformed_trajectory_line_is_named(run, tmp_path, capsys, bad_line,
                                            named):
    """analyze and plot print an error naming the file and the line, and
    exit 1; verify names the file as a problem."""
    config, _ = run
    out = tmp_path / "run"
    shutil.copytree(config.output_dir, out)
    path = out / TRAJ_FILE
    lines = path.read_text(encoding="utf-8").splitlines()
    lines[1] = bad_line(lines[1])
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    manifest = json.loads((out / MANIFEST_FILE).read_text())
    manifest["files"][TRAJ_FILE] = hashlib.sha256(
        path.read_bytes()).hexdigest()
    (out / MANIFEST_FILE).write_text(json.dumps(manifest))
    cfg_path = tmp_path / "config.json"
    tiny_config(out, seed=config.seed).write_json(cfg_path)
    capsys.readouterr()
    for cmd in ("analyze", "plot"):
        assert cli_main([cmd, "--config", str(cfg_path)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and f"{path} line 2: {named}" in err
    problems = verify(str(out))
    assert len(problems) == 1, problems
    assert problems[0].startswith(f"{TRAJ_FILE}: cannot be analyzed")
    assert f"line 2: {named}" in problems[0]


def test_config_json_round_trip(tmp_path):
    config = tiny_config(tmp_path / "x", seed=42)
    path = tmp_path / "config.json"
    config.write_json(path)
    loaded = ExperimentConfig.from_json(path)
    assert loaded == config


def test_config_validation():
    for bad in (dict(k=0), dict(n_stems=5, holdout_stems=5), dict(tol=0.0),
                dict(window=0), dict(min_run=0), dict(n_resamples=0),
                dict(level=0.0), dict(level=1.0), dict(level=1.5),
                # the model fields, checked as LoopedConfig checks them
                dict(n_heads=3), dict(d_model=0), dict(recurrent_layers=0),
                dict(coda_layers=0),
                # not integers, as a JSON config may hold them
                dict(d_model=64.0), dict(k=30.0), dict(n_heads=True),
                dict(prelude_layers=None), dict(coda_layers="1"),
                # and every other integer field, the train block's too
                dict(n_categories=4.0), dict(entities_per_category=True),
                dict(n_attributes=4.0), dict(n_values=6.0), dict(n_stems=240.0),
                dict(n_permutations=2.0), dict(holdout_stems=2.0),
                dict(window=3.0), dict(min_run=True), dict(n_resamples=200.0),
                dict(seed=1.5), dict(train=dict(batch_size=32.0)),
                dict(train=dict(epochs=2.0)), dict(train=dict(warmup_steps=True)),
                dict(train=dict(seed=0.5)),
                dict(category_coherence=-0.1), dict(category_coherence=1.5),
                dict(category_coherence=float("nan")),
                dict(two_hop_fraction=2.0), dict(two_hop_fraction=-1e-9),
                dict(two_hop_fraction=float("nan"))):
        with pytest.raises(ValueError):
            ExperimentConfig(**bad)


def test_cli_gen_bench_rejects_a_model_that_cannot_be_built(tmp_path,
                                                             capsys):
    out = tmp_path / "out"
    assert cli_main(["gen-bench", "--n-heads", "3",
                     "--output-dir", str(out)]) == 1
    assert "n_heads" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("flag", ["--two-hop-fraction", "--category-coherence"])
def test_cli_gen_bench_rejects_a_fraction_outside_zero_to_one(tmp_path, capsys,
                                                              flag):
    out = tmp_path / "out"
    assert cli_main(["gen-bench", flag, "2", "--output-dir", str(out)]) == 1
    assert flag[2:].replace("-", "_") in capsys.readouterr().err
    assert not out.exists()


def test_known_stems_are_a_seeded_share_of_training_stems(tmp_path):
    from loopscope.pipeline import known_stems, split_stems, stage_gen_bench
    config = tiny_config(tmp_path, seed=3)
    _, bench = stage_gen_bench(config, write=False)
    train_ids = set(split_stems(config, bench))
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


def test_cli_config_file_with_unknown_field_fails(tmp_path, capsys):
    cfg = tiny_config(tmp_path / "out").to_dict()
    cfg["train"]["precision"] = "float32"   # a field TrainConfig no longer has
    cfg_path = tmp_path / "c.json"
    cfg_path.write_text(json.dumps(cfg))
    assert cli_main(["gen-bench", "--config", str(cfg_path)]) == 1
    assert "precision" in capsys.readouterr().err


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


def test_entropy_curve_band_counts_stems_not_orderings():
    # two stems with per-step entropies that differ between their orderings
    trajs = [make_traj(stem, "Base", perm, [0, 0], correct=0, final_entropy=e)
             for stem, ents in (("q0", (1.0, 2.0)), ("q1", (4.0, 6.0)))
             for perm, e in enumerate(ents)]
    mean, lo, hi = entropy_curves(trajs)["Base"]
    # stem means 1.5 and 5.0: standard error |5.0 - 1.5| / 2
    assert np.allclose(mean, 3.25)
    assert np.allclose(hi - mean, 1.959963984540054 * 1.75, rtol=1e-12)
    # eight times as many orderings of the same stems: same mean, same band
    repeated = [t for t in trajs for _ in range(8)]
    for got, want in zip(entropy_curves(repeated)["Base"], (mean, lo, hi)):
        assert np.allclose(got, want, rtol=1e-12)
