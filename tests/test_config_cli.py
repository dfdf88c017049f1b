"""Config parsing/validation and CLI behavior (micro-scale runs)."""

import json
from pathlib import Path

import numpy as np
import pytest

from advspeaker import cli
from advspeaker import config as cfg
from advspeaker.attacks import pgd_spec
from advspeaker.losses import LossWeights, SinkhornSettings
from advspeaker.util import to_json

REPO_ROOT = Path(__file__).resolve().parents[1]
PRESET_DIR = REPO_ROOT / "configs"


def preset_dict(name):
    """The JSON document of the shipped preset ``configs/<name>.json``."""
    return json.loads((PRESET_DIR / f"{name}.json").read_text())


def white_box_grid(iterations):
    """Eval scenarios clean, fgsm, and pgd, cw and fs at ``iterations`` steps."""
    return [{"kind": "clean"}, {"kind": "fgsm"}] + [
        {"kind": kind, "iterations": iterations} for kind in ("pgd", "cw", "fs")]


def micro_config_dict(defense="standard", out="runs/micro"):
    """Fast end-to-end config: tiny corpus/model, couple of epochs."""
    c = preset_dict("desk-" + defense.replace("_", "-"))
    c["corpus"].update(num_speakers=3, utterances_per_speaker=10, duration_s=0.2,
                       sample_rate=4000)
    c["frontend"].update(sample_rate=4000, window_length=128, hop_length=64,
                         fft_size=128, mel_bins=12)
    c["model"].update(num_speakers=3, channels=[8, 8])
    c["train"].update(epochs=2, batch_size=9, segment_length=800)
    c["train"]["attack"].update(iterations=2)
    c["eval"].update(batch_size=16)
    c["output_dir"] = out
    return c


def test_shipped_presets_all_validate():
    preset_files = sorted(PRESET_DIR.glob("*.json"))
    assert len(preset_files) == 6
    for path in preset_files:
        cfg.validate(cfg.load_config(path))


def test_desk_presets_cover_all_defenses():
    kinds = {cfg.load_config(path).train.defense for path in PRESET_DIR.glob("desk-*.json")}
    assert kinds == {"standard", "fgsm_at", "pgd_at", "fs_at", "hat"}


def test_negative_epsilon_is_a_violation_naming_the_field():
    raw = micro_config_dict()
    raw["train"]["attack"]["epsilon"] = -0.5
    with pytest.raises(cfg.ConfigError, match="epsilon"):
        cfg.config_from_dict(raw)


def test_speaker_count_mismatch_is_a_violation():
    raw = micro_config_dict()
    raw["model"]["num_speakers"] = 7
    config = cfg.config_from_dict(raw)
    with pytest.raises(cfg.ConfigError, match="num_speakers"):
        cfg.validate(config)


def test_segment_below_receptive_field_is_a_violation():
    raw = micro_config_dict()
    raw["train"]["segment_length"] = 100
    with pytest.raises(cfg.ConfigError, match="receptive field"):
        cfg.validate(cfg.config_from_dict(raw))


def test_train_eval_epsilon_divergence_warns_not_errors():
    raw = micro_config_dict()
    raw["eval"]["epsilon"] = 0.01
    config = cfg.config_from_dict(raw)
    warnings_ = cfg.validate(config)
    assert any("eval.epsilon" in w for w in warnings_)


def test_nonreference_budget_warns():
    raw = micro_config_dict()
    raw["train"]["attack"]["epsilon"] = 0.004
    raw["eval"]["epsilon"] = 0.004
    warnings_ = cfg.validate(cfg.config_from_dict(raw))
    assert any("reference" in w for w in warnings_)


def test_fingerprint_stable_and_sensitive():
    a = cfg.config_from_dict(micro_config_dict())
    b = cfg.config_from_dict(micro_config_dict())
    assert a.fingerprint() == b.fingerprint()
    changed = micro_config_dict()
    changed["train"]["epochs"] = 3
    assert cfg.config_from_dict(changed).fingerprint() != a.fingerprint()


def test_overrides_parse_json_values():
    raw = apply = cfg.apply_overrides(micro_config_dict(), [
        "train.epochs=5", "eval.split=test", "train.attack.random_init=false",
    ])
    assert apply["train"]["epochs"] == 5
    assert apply["eval"]["split"] == "test"
    assert apply["train"]["attack"]["random_init"] is False
    with pytest.raises(cfg.ConfigError):
        cfg.parse_override("no-equals-sign")


def _leaves(node, name=""):
    """(JSON path, key path, value) of every leaf; an empty list counts as one."""
    if isinstance(node, dict):
        children = [(f"{name}.{k}" if name else k, k, v) for k, v in node.items()]
    elif isinstance(node, list) and node:
        children = [(f"{name}[{i}]", i, v) for i, v in enumerate(node)]
    else:
        return [(name, (), node)]
    return [(path, (key, *keys), leaf) for child_name, key, child in children
            for path, keys, leaf in _leaves(child, child_name)]


HAT_LEAVES = list(_leaves(preset_dict("desk-hat")))


def _wrong_type(value):
    """A string for a number or a list, a number for a string, 1 for a bool, [1] for null."""
    if isinstance(value, bool):
        return 1
    if isinstance(value, (int, float, list)):
        return "x"
    if isinstance(value, str):
        return 1
    assert value is None
    return [1]


def test_every_preset_leaf_is_walked():
    assert len(HAT_LEAVES) == 97
    assert "eval.scenarios[2].iterations" in {name for name, _, _ in HAT_LEAVES}


@pytest.mark.parametrize("name, keys, value", HAT_LEAVES, ids=[n for n, _, _ in HAT_LEAVES])
def test_every_field_is_type_checked_naming_its_json_path(name, keys, value):
    raw = preset_dict("desk-hat")
    node = raw
    for key in keys[:-1]:
        node = node[key]
    node[keys[-1]] = _wrong_type(value)
    with pytest.raises(cfg.ConfigError) as caught:
        cfg.config_from_dict(raw)
    assert name in str(caught.value)


def test_round_trip_through_dict():
    config = cfg.config_from_dict(micro_config_dict("hat"))
    again = cfg.config_from_dict(to_json(config))
    assert to_json(again) == to_json(config)
    assert again.fingerprint() == config.fingerprint()


# --- CLI ----------------------------------------------------------------------

def write_config(tmp_path, raw, name="config.json"):
    path = tmp_path / name
    path.write_text(json.dumps(raw))
    return str(path)


def test_cli_validate_ok_and_violation_exit_codes(tmp_path):
    good = write_config(tmp_path, micro_config_dict())
    assert cli.main(["validate", "--config", good]) == 0
    bad_raw = micro_config_dict()
    bad_raw["model"]["num_speakers"] = 99
    bad = write_config(tmp_path, bad_raw, "bad.json")
    assert cli.main(["validate", "--config", bad]) == cli.EXIT_CONFIG


def test_cli_missing_config_file_exit(tmp_path):
    assert cli.main(["validate", "--config", str(tmp_path / "nope.json")]) == cli.EXIT_MISSING


def test_cli_unparseable_config_exit(tmp_path):
    path = tmp_path / "junk.json"
    path.write_text("{not json")
    assert cli.main(["validate", "--config", str(path)]) == cli.EXIT_CONFIG


def test_cli_eval_without_checkpoint_is_missing_artifact(tmp_path):
    raw = micro_config_dict(out=str(tmp_path / "out"))
    raw["eval"]["target_checkpoint"] = str(tmp_path / "absent.npz")
    path = write_config(tmp_path, raw)
    assert cli.main(["eval", "--config", path]) == cli.EXIT_MISSING


def _write_broken_checkpoint(path, broken):
    """A non-npz file, or a micro checkpoint with a broken meta block or arrays."""
    from advspeaker import model as mdl

    if broken == "text":
        path.write_text("not an npz archive\n")
        return
    config = cfg.config_from_dict(micro_config_dict())
    mdl.save_checkpoint(path, mdl.build(config.model, config.frontend, 7))
    with np.load(path) as data:
        payload = {k: data[k] for k in data.files}
    meta = json.loads(payload["meta_json"].tobytes())
    if broken == "no-kernel-size":
        del meta["model"]["kernel_size"]
    elif broken == "no-array":
        del payload["arr__fc.b"]
    elif broken == "array-shape":  # kernel 3 under meta kernel_size 5
        payload["arr__conv0.w"] = payload["arr__conv0.w"][..., :3]
    elif broken == "v1":
        meta["version"] = 1
    elif broken in ("no-seed", "no-corpus-fingerprint"):
        del meta[NAMED_KEY[broken]]
    text = {"meta-not-json": "not json", "meta-not-object": "[]"}.get(broken, json.dumps(meta))
    payload["meta_json"] = np.frombuffer(text.encode(), dtype=np.uint8)
    np.savez(path, **payload)


# the key each broken checkpoint's error names, besides the checkpoint's path
NAMED_KEY = {"no-kernel-size": "kernel_size", "no-seed": "seed",
             "no-corpus-fingerprint": "corpus_fingerprint",
             "no-array": "arr__fc.b", "array-shape": "arr__conv0.w",
             "v1": "unsupported checkpoint version 1"}


@pytest.mark.parametrize("command, broken", [
    ("eval", "text"), ("attack", "text"), ("report", "text"),
    ("eval", "no-kernel-size"), ("eval", "meta-not-json"), ("eval", "meta-not-object"),
    ("eval", "no-seed"), ("eval", "no-corpus-fingerprint"), ("eval", "no-array"),
    ("eval", "array-shape"), ("eval", "v1")])
def test_cli_unreadable_checkpoint_is_exit_4_naming_the_path(tmp_path, capsys, command,
                                                             broken):
    checkpoint = tmp_path / "broken.npz"
    _write_broken_checkpoint(checkpoint, broken)
    raw = micro_config_dict(out=str(tmp_path / "out"))
    raw["eval"]["target_checkpoint"] = str(checkpoint)
    raw["report"]["checkpoints"] = [["broken", str(checkpoint)]]
    assert cli.main([command, "--config", write_config(tmp_path, raw)]) == cli.EXIT_MISSING
    err = capsys.readouterr().err
    assert str(checkpoint) in err
    if broken in NAMED_KEY:
        assert NAMED_KEY[broken] in err


def test_cli_train_then_eval_then_attack(tmp_path, capsys):
    out = tmp_path / "run"
    raw = micro_config_dict(defense="standard", out=str(out))
    raw["eval"]["target_checkpoint"] = str(out / "checkpoint.npz")
    raw["eval"]["scenarios"] = [
        {"kind": "clean"}, {"kind": "pgd", "iterations": 2},
        {"kind": "epsilon_sweep", "attack": "pgd", "iterations": 2,
         "epsilons": [0.0, 0.002]},
    ]
    path = write_config(tmp_path, raw)

    assert cli.main(["train", "--config", path]) == 0
    assert (out / "checkpoint.npz").exists()
    assert (out / "trainlog.jsonl").exists()
    assert (out / "config.resolved.json").exists()
    log_lines = [json.loads(l) for l in (out / "trainlog.jsonl").read_text().splitlines()]
    assert len(log_lines) == 2
    assert all("config_fingerprint" in l and "seed" in l for l in log_lines)

    eval_out = tmp_path / "eval-out"
    assert cli.main(["eval", "--config", path, "--out", str(eval_out)]) == 0
    report_lines = (eval_out / "report.jsonl").read_text().splitlines()
    header = json.loads(report_lines[0])
    assert header["record"] == "header" and header["content_hash"]
    assert (eval_out / "curves.csv").exists()
    sweep_rows = [json.loads(l) for l in report_lines[1:] if "eps=" in json.loads(l)["name"]]
    clean_row = [json.loads(l) for l in report_lines[1:]
                 if json.loads(l)["name"] == "clean"][0]
    zero_row = [r for r in sweep_rows if r["name"].endswith("eps=0")][0]
    assert zero_row["accuracy"] == clean_row["accuracy"]
    # a rerun without sweeps into the same directory leaves no stale curves
    assert cli.main(["eval", "--config", path, "--out", str(eval_out),
                     "--set", 'eval.scenarios=[{"kind": "clean"}]']) == 0
    assert len((eval_out / "report.jsonl").read_text().splitlines()) == 2
    assert not (eval_out / "curves.csv").exists()

    attack_out = tmp_path / "attack-out"
    assert cli.main(["attack", "--config", path, "--out", str(attack_out)]) == 0
    wavs = sorted((attack_out / "adv").glob("*.wav"))
    assert wavs
    stats = json.loads((attack_out / "snr_stats.json").read_text())
    assert stats["fingerprint"] and stats["samples"]


@pytest.fixture(scope="module")
def micro_checkpoints(tmp_path_factory):
    """One-epoch micro checkpoints: "target" and "source" (another model seed)
    on the micro corpus, and "drifted" on the corpus drawn with seed 777."""
    root = tmp_path_factory.mktemp("checkpoints")
    paths = {}
    for name, seed, corpus_seed in (("target", 7, None), ("source", 8, None),
                                    ("drifted", 7, 777)):
        raw = micro_config_dict(out=str(root / name))
        raw["seed"], raw["train"]["epochs"] = seed, 1
        if corpus_seed is not None:
            raw["corpus"]["seed"] = corpus_seed
        assert cli.main(["train", "--config", write_config(root, raw, f"{name}.json")]) == 0
        paths[name] = str(root / name / "checkpoint.npz")
    return paths


@pytest.mark.parametrize("command, role", [
    ("eval", "target"), ("eval", "source"), ("attack", "target"), ("report", "row")])
def test_cli_eval_refuses_mismatched_corpus(tmp_path, capsys, micro_checkpoints, command,
                                            role):
    drifted = micro_checkpoints["drifted"]
    raw = micro_config_dict(out=str(tmp_path / "out"))
    raw["eval"]["target_checkpoint"] = (drifted if role == "target"
                                        else micro_checkpoints["target"])
    if role == "source":
        raw["eval"]["source_checkpoint"] = drifted
        raw["eval"]["scenarios"] = [{"kind": "transfer", "attack": "pgd", "iterations": 1}]
    raw["report"]["checkpoints"] = [["target", micro_checkpoints["target"]],
                                    ["drifted", drifted]]
    assert cli.main([command, "--config", write_config(tmp_path, raw)]) == cli.EXIT_CONFIG
    assert drifted in capsys.readouterr().err


def test_attack_rerun_leaves_only_the_waveforms_it_lists(tmp_path, micro_checkpoints):
    out = tmp_path / "out"
    raw = micro_config_dict(out=str(out))
    raw["eval"]["target_checkpoint"] = micro_checkpoints["target"]
    raw["eval"]["scenarios"] = [{"kind": "fgsm"}]
    path = write_config(tmp_path, raw)
    for split in ("all", "test"):
        assert cli.main(["attack", "--config", path, "--set", f"eval.split={split}"]) == 0
    samples = json.loads((out / "snr_stats.json").read_text())["samples"]
    assert sorted(p.name for p in (out / "adv").glob("*.wav")) == [s["file"] for s in samples]


@pytest.mark.parametrize("scenario, code", [
    ({"kind": "clean"}, cli.EXIT_OK),
    ({"kind": "transfer", "attack": "pgd", "iterations": 1}, cli.EXIT_MISSING)])
def test_eval_loads_the_transfer_source_only_for_a_transfer_scenario(
        tmp_path, capsys, micro_checkpoints, scenario, code):
    absent = str(tmp_path / "absent.npz")
    raw = micro_config_dict(out=str(tmp_path / "out"))
    raw["eval"].update(target_checkpoint=micro_checkpoints["target"], source_checkpoint=absent,
                       scenarios=[scenario])
    assert cli.main(["eval", "--config", write_config(tmp_path, raw)]) == code
    assert (absent in capsys.readouterr().err) == (code == cli.EXIT_MISSING)


def test_eval_attack_and_report_share_one_evaluation_path(tmp_path, monkeypatch,
                                                          micro_checkpoints):
    from advspeaker import evaluate as ev

    raw = micro_config_dict(out=str(tmp_path / "out"))
    raw["eval"].update(target_checkpoint=micro_checkpoints["target"],
                       source_checkpoint=micro_checkpoints["source"])
    raw["eval"]["scenarios"] = [
        {"kind": "clean"}, {"kind": "pgd", "iterations": 2}, {"kind": "cw", "iterations": 2},
        {"kind": "fs", "iterations": 2}, {"kind": "hybrid", "iterations": 2},
        {"kind": "transfer", "attack": "pgd", "iterations": 2},
        {"kind": "epsilon_sweep", "attack": "pgd", "iterations": 2,
         "epsilons": [0.0, 0.002]},
        {"kind": "iteration_sweep", "attack": "fs", "counts": [1, 2]}]
    raw["report"] = {"checkpoints": [["target", micro_checkpoints["target"]]]}
    path = write_config(tmp_path, raw)
    sinkhorn = cfg.config_from_dict(raw).train.sinkhorn
    assert sinkhorn != SinkhornSettings()

    solvers = []
    generate = ev.generate

    def recording_generate(*args, **kwargs):
        solvers.append(kwargs.get("sinkhorn"))
        return generate(*args, **kwargs)

    monkeypatch.setattr(ev, "generate", recording_generate)
    # ablate trains seven models; its report keeps to the white-box grid
    ablate_grid = ["--set", "eval.scenarios=" + json.dumps(white_box_grid(2))]
    for command in ("eval", "attack", "report", "ablate"):
        solvers.clear()
        assert cli.main([command, "--config", path, "--out", str(tmp_path / command),
                         "--set", "train.epochs=1"]
                        + (ablate_grid if command == "ablate" else [])) == 0
        assert solvers and all(s == sinkhorn for s in solvers), command

    lines = (tmp_path / "eval" / "report.jsonl").read_text().splitlines()[1:]
    entries = {e["name"]: e for e in map(json.loads, lines)}
    attacked = [e for e in entries.values() if e["attack"] is not None]
    assert {"transfer:pgd2", "epsilon_sweep:pgd2@eps=0.002",
            "iteration_sweep:fs10@T=2"} <= {e["name"] for e in attacked}
    assert all(e["snr_mean_db"] is not None and e["snr_min_db"] is not None
               for e in attacked)
    # a report row is `eval` on its checkpoint: the same entries, and its sweep curves
    row_lines = (tmp_path / "report" / "target" / "report.jsonl").read_text().splitlines()[1:]
    assert row_lines == lines
    curves = [[l for l in (tmp_path / d / "curves.csv").read_text().splitlines()
               if not l.startswith("#")]  # the comments carry each run's fingerprint
              for d in ("report/target", "eval")]
    assert curves[0] == curves[1] and len(curves[0]) == 6
    assert_cells_match_row_reports(tmp_path / "report", ["target"])


def test_cli_validate_prints_each_warning_once(tmp_path, capsys):
    path = write_config(tmp_path, micro_config_dict())
    assert cli.main(["validate", "--config", path, "--set", "eval.epsilon=0.004"]) == 0
    out, err = capsys.readouterr()
    assert (out + err).count("warning: eval.epsilon") == 1
    assert "config ok" in out


def test_cli_set_overrides_and_seed_flag(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    path = write_config(tmp_path, micro_config_dict(out=str(tmp_path / "run")))
    assert cli.main(["train", "--config", path, "--set", "train.epochs=1",
                     "--seed", "42", "--out", "123"]) == 0
    resolved = json.loads((tmp_path / "123" / "config.resolved.json").read_text())
    assert resolved["train"]["epochs"] == 1
    assert resolved["seed"] == 42
    assert resolved["output_dir"] == "123"


def test_cli_seed_flag_meets_the_seed_rule(tmp_path, capsys):
    path = write_config(tmp_path, micro_config_dict())
    assert cli.main(["validate", "--config", path, "--seed", "-1"]) == cli.EXIT_CONFIG
    assert "error: seed: must be >= 0" in capsys.readouterr().err


def test_output_lock_excludes_concurrent_runs(tmp_path):
    out = tmp_path / "locked"
    out.mkdir()
    (out / ".lock").write_text("other run\n")
    raw = micro_config_dict(out=str(out))
    path = write_config(tmp_path, raw)
    assert cli.main(["train", "--config", path]) == cli.EXIT_CONFIG
    (out / ".lock").unlink()
    assert cli.main(["train", "--config", path, "--set", "train.epochs=1"]) == 0
    assert not (out / ".lock").exists()  # released after the run


def test_cli_report_over_two_checkpoints(tmp_path):
    out_a, out_b = tmp_path / "a", tmp_path / "b"
    raw = micro_config_dict(defense="standard", out=str(out_a))
    path = write_config(tmp_path, raw)
    assert cli.main(["train", "--config", path]) == 0
    raw_b = micro_config_dict(defense="fgsm_at", out=str(out_b))
    raw_b["train"]["attack"]["iterations"] = 1
    path_b = write_config(tmp_path, raw_b, "b.json")
    assert cli.main(["train", "--config", path_b]) == 0

    raw_r = micro_config_dict(out=str(tmp_path / "cmp"))
    # row names shorter than the "defense" header
    raw_r["report"] = {"checkpoints": [["std", str(out_a / "checkpoint.npz")],
                                       ["fgsm", str(out_b / "checkpoint.npz")]]}
    raw_r["eval"]["scenarios"] = white_box_grid(2)
    path_r = write_config(tmp_path, raw_r, "report.json")
    assert cli.main(["report", "--config", path_r]) == 0
    header, *rows = (tmp_path / "cmp" / "comparison.txt").read_text().splitlines()[1:]
    assert header.split() == ["defense", "clean", "fgsm", "pgd2", "cw2", "fs2"]
    assert [row.split()[0] for row in rows] == ["std", "fgsm"]
    assert {len(row) for row in rows} == {len(header)}  # every column lines up
    csv = (tmp_path / "cmp" / "comparison.csv").read_text()
    assert csv.splitlines()[1] == "defense,clean,fgsm,pgd2,cw2,fs2"
    assert_cells_match_row_reports(tmp_path / "cmp", ["std", "fgsm"])


def assert_cells_match_row_reports(out_dir, row_names):
    """Every comparison.csv cell is its row's report.jsonl entry of that name."""
    columns, *rows = (out_dir / "comparison.csv").read_text().splitlines()[1:]
    columns = columns.split(",")[1:]
    assert [row.split(",")[0] for row in rows] == row_names
    for row in rows:
        name, *cells = row.split(",")
        lines = (out_dir / name / "report.jsonl").read_text().splitlines()[1:]
        entries = {e["name"]: e["accuracy"] for e in map(json.loads, lines)}
        assert list(entries) == columns, name
        assert [float(c) for c in cells] == [entries[c] for c in columns], name


def wav_dir_config(tmp_path, defense="standard"):
    """A one-epoch micro config on a directory of 3 speakers x 4 WAV files."""
    from advspeaker.data import write_wav
    rng = np.random.default_rng(2)
    wav_root = tmp_path / "corpus"
    for spk in ("s0", "s1", "s2"):
        d = wav_root / spk
        d.mkdir(parents=True)
        for i in range(4):
            write_wav(d / f"u{i}.wav", rng.normal(size=800) * 0.1, 4000)
    raw = micro_config_dict(defense=defense, out=str(tmp_path / "run"))
    raw["corpus"] = {"kind": "wav_dir", "root": str(wav_root), "split_seed": 1}
    raw["train"]["epochs"] = 1
    return raw


def test_cli_train_on_wav_dir_persists_manifest(tmp_path):
    out = tmp_path / "run"
    path = write_config(tmp_path, wav_dir_config(tmp_path))
    assert cli.main(["train", "--config", path]) == 0
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["num_speakers"] == 3
    assert len(manifest["entries"]) == 12


def test_a_wav_corpus_is_read_in_one_pass(tmp_path, monkeypatch):
    from advspeaker import data as dt
    raw = wav_dir_config(tmp_path)
    wav_root = tmp_path / "corpus"
    (wav_root / "s1" / "broken.wav").write_bytes(b"not a wav file")
    read = []
    real_read_wav = dt.read_wav

    def counting_read_wav(path):
        read.append(str(path))
        return real_read_wav(path)

    monkeypatch.setattr(dt, "read_wav", counting_read_wav)
    corpus = cli.build_corpus(cfg.config_from_dict(raw))
    assert sorted(read) == sorted(str(p) for p in wav_root.glob("*/*.wav"))
    assert len(corpus.utterances) == 12


def test_a_wav_corpus_is_read_at_the_frontend_rate(tmp_path, capsys):
    from advspeaker.data import write_wav
    raw = wav_dir_config(tmp_path)
    wav_root = tmp_path / "corpus"
    stray = wav_root / "s0" / "a_stray.wav"  # sorts before the files at the frontend rate
    write_wav(stray, np.zeros(800) + 0.1, 8000)
    empty = wav_root / "s1" / "a_empty.wav"
    write_wav(empty, np.zeros(0), 4000)
    corpus = cli.build_corpus(cfg.config_from_dict(raw))
    assert corpus.sample_rate == raw["frontend"]["sample_rate"] == 4000
    assert len(corpus.utterances) == 12
    assert corpus.manifest.rejects == [f"{stray}: sample rate 8000 != corpus rate 4000",
                                       f"{empty}: no audio frames"]

    raw["frontend"]["sample_rate"] = 8000
    assert cli.main(["train", "--config", write_config(tmp_path, raw)]) == cli.EXIT_CONFIG
    assert "sample rate 4000 != corpus rate 8000" in capsys.readouterr().err


def test_a_silent_wav_is_trained_on_evaluated_and_attacked(tmp_path):
    from advspeaker.data import ingest, write_wav
    raw = wav_dir_config(tmp_path, defense="pgd_at")
    run = Path(raw["output_dir"])
    raw["eval"].update(target_checkpoint=str(run / "checkpoint.npz"), split="all",
                       scenarios=[{"kind": "clean"}, {"kind": "pgd", "iterations": 2}])
    corpus = ingest(raw["corpus"]["root"], 4000, split_seed=raw["corpus"]["split_seed"])
    silent = next(e for e in corpus.manifest.entries if e.split == "train")
    write_wav(silent.path, np.zeros(800), 4000)
    path = write_config(tmp_path, raw)

    assert cli.main(["train", "--config", path]) == cli.EXIT_OK
    assert cli.main(["eval", "--config", path, "--out", str(tmp_path / "eval")]) == cli.EXIT_OK
    lines = (tmp_path / "eval" / "report.jsonl").read_text().splitlines()
    entries = {e["name"]: e for e in map(json.loads, lines[1:])}
    assert np.isfinite(entries["pgd2"]["snr_mean_db"])
    assert cli.main(["attack", "--config", path, "--out", str(tmp_path / "attack")]) == cli.EXIT_OK
    samples = json.loads((tmp_path / "attack" / "snr_stats.json").read_text())["samples"]
    assert len(samples) == 12
    assert sum(s["snr_db"] is None for s in samples) == 1


def test_wav_dir_speaker_with_too_few_wavs_is_named(tmp_path, capsys):
    raw = wav_dir_config(tmp_path)
    short = tmp_path / "corpus" / "s2"
    for i in range(1, 4):
        (short / f"u{i}.wav").unlink()
    assert cli.main(["train", "--config", write_config(tmp_path, raw)]) == cli.EXIT_CONFIG
    assert f"error: {short}: speaker has 1 utterance(s); need >= 2" in capsys.readouterr().err


def test_wav_dir_speaker_count_must_match_the_model(tmp_path, capsys):
    raw = wav_dir_config(tmp_path)
    raw["model"]["num_speakers"] = 2
    assert cli.main(["train", "--config", write_config(tmp_path, raw)]) == cli.EXIT_CONFIG
    assert "corpus has 3 speakers != model.num_speakers 2" in capsys.readouterr().err
    assert not (tmp_path / "run" / "checkpoint.npz").exists()


def test_cli_ablate_micro(tmp_path):
    out = tmp_path / "abl"
    raw = micro_config_dict(defense="standard", out=str(out))
    raw["train"]["epochs"] = 1
    raw["train"]["attack"]["iterations"] = 1
    raw["eval"]["scenarios"] = white_box_grid(1)
    path = write_config(tmp_path, raw)
    assert cli.main(["ablate", "--config", path]) == 0
    subsets = ["CE", "FS", "M", "CE+FS", "CE+M", "FS+M", "CE+FS+M"]
    assert (out / "comparison.csv").read_text().splitlines()[1] == \
        "defense,clean,fgsm,pgd1,cw1,fs1"
    assert_cells_match_row_reports(out, subsets)
    for name in subsets:
        weights = [float(term in name.split("+")) for term in ("CE", "FS", "M")]
        resolved = json.loads((out / name / "config.resolved.json").read_text())
        assert resolved["train"]["defense"] == "hat"
        resolved_weights = resolved["train"]["attack"]["weights"]
        assert [resolved_weights[w] for w in ("beta", "gamma", "zeta")] == weights
        assert (out / name / "checkpoint.npz").exists()
        # the training consumed the subset's weights
        log = (out / name / "trainlog.jsonl").read_text().splitlines()
        assert [json.loads(record)["attack_weights"] for record in log] == [weights]


# --- the attack registry ------------------------------------------------------
# The benchmark builds its workloads through these names, so they are pinned
# here: the canonical JSON also pins int vs float, which the report hash sees.

FGSM = {"weights": [1, 0, 0], "epsilon": 0.002, "alpha": 0.002, "iterations": 1,
        "random_init": False, "margin": 50.0}
PGD10 = {"weights": [1, 0, 0], "epsilon": 0.002, "alpha": 0.0004, "iterations": 10,
         "random_init": True, "margin": 50.0}
CW10 = {"weights": [0, 0, 1], "epsilon": 0.002, "alpha": 0.0004, "iterations": 10,
        "random_init": True, "margin": 50.0}
FS10 = {"weights": [0, 1, 0], "epsilon": 0.002, "alpha": 0.0004, "iterations": 10,
        "random_init": True, "margin": 50.0}
HYBRID10 = {"weights": [1, 1, 1], "epsilon": 0.002, "alpha": 0.0004, "iterations": 10,
            "random_init": True, "margin": 50.0}


def test_desk_eval_scenarios_and_defense_attacks_are_pinned():
    from advspeaker import evaluate as ev
    from advspeaker import training as tr
    from advspeaker.util import canonical_json

    config = cfg.load_config(PRESET_DIR / "desk-standard.json")
    resolved = []
    for scenario in config.eval.scenarios:
        spec = cli._scenario_spec(scenario, config.eval)
        resolved.append([cli._scenario_name(scenario, spec), ev.attack_dict(spec)])
    assert canonical_json(resolved) == canonical_json([
        ["clean", None], ["fgsm", FGSM], ["pgd10", PGD10], ["cw10", CW10],
        ["fs10", FS10], ["hybrid10", HYBRID10]])

    base = config.train.attack
    per_defense = {d: ev.attack_dict(tr.attack_spec_for_defense(d, base))
                   for d in tr.DEFENSE_KINDS}
    assert canonical_json(per_defense) == canonical_json({
        "standard": None, "fgsm_at": FGSM, "pgd_at": PGD10, "fs_at": FS10,
        "hat": HYBRID10})
    assert tr.attack_spec_for_defense("hat", base) is base  # the ablation varies its weights


def test_default_train_alpha_follows_the_resolved_budget():
    wider = cfg.config_from_dict({"train": {"attack": {"epsilon": 0.01}}})
    assert to_json(wider)["train"]["attack"]["alpha"] is None
    assert wider.train.attack.step == 0.01 / 5
    one_step = cfg.config_from_dict({"train": {"attack": {"iterations": 1}}}).train.attack
    assert one_step.alpha is None and one_step.step == 0.002
    stated = cfg.config_from_dict({"train": {"attack": {"epsilon": 0.01, "alpha": 0.003}}})
    assert stated.train.attack.alpha == stated.train.attack.step == 0.003
    # the presets state their step, so it holds under a budget override
    for path in PRESET_DIR.glob("*.json"):
        wider = cfg.load_config(path, ["train.attack.epsilon=0.01"]).train.attack
        assert wider.alpha == wider.step == 0.0004, path.stem


REPEATED_PGD2 = ('eval.scenarios=[{"kind": "pgd", "iterations": 2}, '
                 '{"kind": "pgd", "iterations": 2, "epsilon": 0.05}]')


@pytest.mark.parametrize("command, overrides, field", [
    ("eval", ['eval.scenarios=[{"kind": "transfer", "attack": "pgdd"}]',
              "eval.source_checkpoint=src.npz"], "eval.scenarios[0].attack"),
    ("eval", ['eval.scenarios=[{"kind": "epsilon_sweep", "attack": "clean", '
              '"epsilons": [0.002]}]'], "eval.scenarios[0].attack"),
    ("eval", ['eval.scenarios=[{"kind": "pgd", "iterations": -3}]'],
     "eval.scenarios[0].iterations"),
    ("eval", ['eval.scenarios=[{"kind": "cw", "iterations": 0}]'],
     "eval.scenarios[0].iterations"),
    ("eval", ['eval.scenarios=[{"kind": "iteration_sweep", "counts": [1, 2]}]',
              "eval.epsilon=0"], "eval.epsilon"),
    ("eval", ['eval.scenarios=[{"kind": "epsilon_sweep", "epsilons": [0.0, 0.002]}]',
              "eval.epsilon=0"], "eval.epsilon"),
    ("attack", ['eval.scenarios=[{"kind": "clean"}]', "eval.epsilon=0"], "eval.epsilon"),
    ("report", ['report.checkpoints=[["comparison.csv", "a.npz"]]'], "report.checkpoints"),
    ("eval", ['eval.scenarios=[{"kind": "pgd", "iterations": "x"}]'],
     "eval.scenarios[0].iterations"),
    ("eval", ['eval.scenarios=[{"kind": "pgd", "epsilon": "x"}]'],
     "eval.scenarios[0].epsilon"),
    ("eval", ['eval.scenarios=[{"kind": "epsilon_sweep", "epsilons": ["x"]}]'],
     "eval.scenarios[0].epsilons"),
    ("eval", ['eval.scenarios=[{"kind": "iteration_sweep", "counts": [2.5]}]'],
     "eval.scenarios[0].counts"),
    ("eval", ['eval.epsilon="x"'], "eval.epsilon"),
    ("report", ['report.checkpoints=[["comparison.txt", "a.npz"]]'], "report.checkpoints"),
    ("train", ["train.epochs=2.5"], "train.epochs"),
    ("train", ['train.attack.weights.beta="x"'], "train.attack.weights.beta"),
    ("eval", ['eval.batch_size="x"'], "eval.batch_size"),
    ("eval", ["eval.batch_size=0"], "eval.batch_size"),
    ("eval", ["eval.batch_size=-3"], "eval.batch_size"),
    ("train", ["corpus.duration_s=-1"], "corpus.duration_s"),
    ("train", ["corpus.f0_range=[300, 100]"], "corpus.f0_range"),
    ("train", ["corpus.harmonics=0"], "corpus.harmonics"),
    ("train", ["corpus.rms=0"], "corpus.rms"),
    ("train", ["seed=-1"], "seed"),
    ("train", ["corpus.seed=-1"], "corpus.seed"),
    ("eval", ["eval.seed=-1"], "eval.seed"),
    ("train", ["corpus.split_seed=-1"], "corpus.split_seed"),
    ("train", ["corpus.duration_s=0.00001"], "corpus.duration_s"),
    ("train", ["frontend.sample_rate=-16000", "corpus.sample_rate=-16000"],
     "corpus.sample_rate"),
    ("train", ["train.checkpoint_every=-1"], "train.checkpoint_every"),
    ("report", ['report.checkpoints=[["..", "a.npz"]]'], "report.checkpoints"),
    ("report", ['report.checkpoints=[[".lock", "a.npz"]]'], "report.checkpoints"),
    ("train", ["train.attack.beta=1"], "train.attack.beta: unknown key"),  # weights are nested
    # two report entries of one name: a table could not tell their rows apart
    ("report", [REPEATED_PGD2], "eval.scenarios[1]: entry name 'pgd2' repeats "
                                "eval.scenarios[0]'s"),
    ("validate", [REPEATED_PGD2], "eval.scenarios[1]: entry name 'pgd2' repeats "
                                  "eval.scenarios[0]'s"),
    ("eval", ['eval.scenarios=[{"kind": "epsilon_sweep", "epsilons": [0.001, 0.002, 0.001]}]'],
     "eval.scenarios[0]: entry name 'epsilon_sweep:pgd10@eps=0.001' repeats "
     "eval.scenarios[0]'s"),
])
def test_scenarios_that_cannot_run_exit_2_naming_the_field(tmp_path, capsys, command,
                                                           overrides, field):
    raw = micro_config_dict(out=str(tmp_path / "out"))
    raw["eval"]["target_checkpoint"] = str(tmp_path / "absent.npz")
    argv = [command, "--config", write_config(tmp_path, raw)]
    for expr in overrides:
        argv += ["--set", expr]
    assert cli.main(argv) == cli.EXIT_CONFIG
    assert field in capsys.readouterr().err


@pytest.mark.parametrize("build, fields", [
    (lambda: cfg.EvalSection(batch_size=0), ["batch_size"]),
    (lambda: cfg.ScenarioSection("pgd", iterations=0, epsilon=-1), ["iterations", "epsilon"]),
    (lambda: cfg.ReportSection(checkpoints=(("comparison.txt", "a.npz"),
                                            ("comparison.csv", "b.npz"), (".lock", "c.npz"))),
     ["checkpoints"] * 3),
    (lambda: cfg.ReportSection(checkpoints=(("", "a.npz"), (".", "b.npz"), ("..", "c.npz"),
                                            ("x/y", "d.npz"), ("z", "e.npz"), ("z", "f.npz"))),
     ["checkpoints"] * 5),
    (lambda: cfg.CorpusSection(kind="wav_dir"), ["root"]),
    (lambda: cfg.TrainConfig(epochs=1, batch_size=0), ["batch_size"]),
    (lambda: cfg.SpeakerCNNConfig(kernel_size=0, pool_width=1), ["kernel_size", "pool_width"]),
    (lambda: cfg.FrontendConfig(sample_rate=0), ["sample_rate"]),
    (lambda: pgd_spec(0.002, alpha=-1.0), ["alpha"]),
    (lambda: LossWeights(gamma=-1.0), ["gamma"]),
    (lambda: SinkhornSettings(max_iters=0), ["max_iters"]),
], ids=["eval", "scenario", "report", "report-rows", "corpus", "train", "model", "frontend",
        "attack", "weights", "sinkhorn"])
def test_a_section_refuses_its_own_bad_fields_when_built(build, fields):
    with pytest.raises(cfg.ConfigError) as caught:
        build()
    assert [v.split(":")[0] for v in caught.value.errors] == fields


def test_every_config_dataclass_is_frozen():
    import dataclasses
    import typing

    from advspeaker.util import _field_types

    seen, hints = set(), [cfg.ExperimentConfig]
    while hints:
        hint = hints.pop()
        if dataclasses.is_dataclass(hint) and hint not in seen:
            seen.add(hint)
            hints += _field_types(hint).values()
        hints += typing.get_args(hint)
    assert len(seen) == 11
    assert [c.__name__ for c in seen if not c.__dataclass_params__.frozen] == []


def test_frozen_sections_hold_no_mutable_lists():
    config = cfg.config_from_dict(micro_config_dict())
    with pytest.raises(AttributeError):
        config.report.checkpoints.append(("a", "a.npz"))
    assert isinstance(config.eval.scenarios, tuple)
    assert to_json(config) == micro_config_dict()


def test_every_section_errors_are_reported_at_once(capsys):
    argv = ["validate", "--config", str(PRESET_DIR / "desk-hat.json"), "--set",
            "train.batch_size=0", "--set", "model.kernel_size=0", "--set", "model.pool_width=1"]
    assert cli.main(argv) == cli.EXIT_CONFIG
    errors = [l for l in capsys.readouterr().err.splitlines() if l.startswith("error: ")]
    assert errors == ["error: model.kernel_size: must be >= 1",
                      "error: model.pool_width: must be >= 2",
                      "error: train.batch_size: must be >= 1"]
    with pytest.raises(cfg.ConfigError) as caught:
        cfg.config_from_dict({"nope": 1, "eval": {"scenarios": [{"kind": "x"}, {"kind": "y"}]},
                              "train": {"attack": {"epsilon": -1}}})
    assert [e.split(":")[0] for e in caught.value.errors] == [
        "nope", "eval.scenarios[0].kind", "eval.scenarios[1].kind", "train.attack.epsilon"]


def test_section_errors_are_reported_under_the_section_json_path():
    raw = {"eval": {"scenarios": [{"kind": "clean"}, {"kind": "epsilon_sweep", "iterations": 0}]}}
    with pytest.raises(cfg.ConfigError) as caught:
        cfg.config_from_dict(raw)
    assert caught.value.errors == ["eval.scenarios[1].iterations: must be >= 1",
                                   "eval.scenarios[1]: epsilon_sweep needs epsilons"]


# perfbench/workloads.py builds its configs from these presets with these
# overrides ({seed} is the run's seed, the second list of each pair its smoke
# run's), plus one SynthConfig of its own for paper-attack. A rule that
# refused one of them would turn every benchmark run into a failure.
BENCHMARK_OVERRIDES = [
    ("desk-hat", ["corpus.seed={seed}"]),
    ("desk-hat", ["corpus.seed={seed}", "corpus.utterances_per_speaker=4",
                  "train.attack.iterations=2", "train.sinkhorn.max_iters=20"]),
    ("desk-standard", ["corpus.seed={seed}"]),
    ("desk-standard", ["corpus.seed={seed}", "corpus.utterances_per_speaker=4",
                       "train.attack.iterations=2", "train.sinkhorn.max_iters=20"]),
    ("desk-standard", ["train.epochs=1"]),
    ("desk-standard", ["train.epochs=1", "corpus.utterances_per_speaker=8"]),
    ("paper-hat", []),
    ("paper-hat", ["train.attack.iterations=2"]),
]


@pytest.mark.parametrize("seed", [1, 3])
def test_benchmark_configs_pass_every_rule(seed):
    from advspeaker.data import SynthConfig

    for preset, overrides in BENCHMARK_OVERRIDES:
        raw = json.loads((PRESET_DIR / f"{preset}.json").read_text())
        cfg.validate(cfg.config_from_dict(
            cfg.apply_overrides(raw, [o.format(seed=seed) for o in overrides])))
    for speakers, seconds in ((32, 3.0), (8, 1.5)):
        SynthConfig(num_speakers=speakers, utterances_per_speaker=2, duration_s=seconds,
                    sample_rate=16000, seed=seed)


def test_sinkhorn_regularization_outside_the_kernel_range_exits_2(tmp_path, capsys):
    path = write_config(tmp_path, micro_config_dict(out=str(tmp_path / "out")))
    argv = ["train", "--config", path, "--set", "train.sinkhorn.regularization=0.001"]
    assert cli.main(argv) == cli.EXIT_CONFIG
    assert "train.sinkhorn" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_sweep_entries_record_the_spec_each_point_ran(tmp_path):
    out = tmp_path / "run"
    raw = micro_config_dict(out=str(out))
    raw["train"]["epochs"] = 1
    raw["eval"]["target_checkpoint"] = str(out / "checkpoint.npz")
    raw["eval"]["scenarios"] = [
        {"kind": "epsilon_sweep", "attack": "pgd", "iterations": 2,
         "epsilons": [0.0, 0.01]},
        {"kind": "iteration_sweep", "attack": "pgd", "counts": [1, 3]},
    ]
    path = write_config(tmp_path, raw)
    assert cli.main(["train", "--config", path]) == 0
    assert cli.main(["eval", "--config", path, "--out", str(tmp_path / "e")]) == 0
    lines = (tmp_path / "e" / "report.jsonl").read_text().splitlines()[1:]
    attacks = {json.loads(l)["name"]: json.loads(l)["attack"] for l in lines}
    assert attacks["epsilon_sweep:pgd2@eps=0"] is None
    assert attacks["epsilon_sweep:pgd2@eps=0.01"] == dict(
        PGD10, epsilon=0.01, alpha=0.01 / 5, iterations=2)
    assert attacks["iteration_sweep:pgd10@T=1"] == dict(PGD10, alpha=0.002, iterations=1)
    assert attacks["iteration_sweep:pgd10@T=3"] == dict(PGD10, iterations=3)


# --- bytes the benchmark depends on ----------------------------------------
# The benchmark's reference digests embed the desk-standard config
# fingerprint, the corpus fingerprint and EpochRecord.stable_dict, and its
# desk-eval set-up round-trips a checkpoint; these literals pin the bytes.

PRESET_FINGERPRINTS = {
    "desk-standard": "cb013c632b8baeab", "desk-fgsm-at": "cb88fffa2f2827b6",
    "desk-pgd-at": "1057bc1de3e942b8", "desk-fs-at": "7365e97523a73a13",
    "desk-hat": "1efc7ec38aaef718", "paper-hat": "0096e089626e9028",
}


def test_serialized_bytes_are_pinned(tmp_path):
    import hashlib

    from advspeaker import data as dt
    from advspeaker import model as mdl

    assert sorted(p.stem for p in PRESET_DIR.glob("*.json")) == sorted(PRESET_FINGERPRINTS)
    for name, fingerprint in PRESET_FINGERPRINTS.items():
        assert cfg.load_config(PRESET_DIR / f"{name}.json").fingerprint() == fingerprint, name
    hat = cfg.load_config(PRESET_DIR / "desk-hat.json")
    assert dt.synth_corpus(hat.corpus.synth_config()).fingerprint == "c16f7580e8ebe819"
    path = tmp_path / "ckpt.npz"
    mdl.save_checkpoint(path, mdl.build(hat.model, hat.frontend, 7),
                        config_fingerprint="a", corpus_fingerprint="b", epoch=3)
    with np.load(path) as saved:
        meta_json = saved["meta_json"].tobytes()
    assert hashlib.sha256(meta_json).hexdigest()[:16] == "2c44483802552064"
    assert cfg.config_from_dict({}).fingerprint() == cfg.ExperimentConfig().fingerprint()
