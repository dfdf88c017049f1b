"""Config parsing/validation and CLI behavior (micro-scale runs)."""

import json
from pathlib import Path

import numpy as np
import pytest

from advspeaker import cli
from advspeaker import config as cfg

REPO_ROOT = Path(__file__).resolve().parents[1]
PRESET_DIR = REPO_ROOT / "configs"


def micro_config_dict(defense="standard", out="runs/micro"):
    """Fast end-to-end config: tiny corpus/model, couple of epochs."""
    c = cfg.desk_preset(defense).to_dict()
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
        config = cfg.load_config(path)
        violations, _ = cfg.validate(config)
        assert violations == [], f"{path.name}: {violations}"


def test_preset_files_match_builtin_definitions():
    for name, factory in cfg.BUILTIN_PRESETS.items():
        on_disk = json.loads((PRESET_DIR / f"{name}.json").read_text())
        assert on_disk == factory().to_dict(), name


def test_desk_presets_cover_all_defenses():
    kinds = {cfg.BUILTIN_PRESETS[n]().train.defense
             for n in cfg.BUILTIN_PRESETS if n.startswith("desk-")}
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
    violations, _ = cfg.validate(config)
    assert any("num_speakers" in v for v in violations)


def test_segment_below_receptive_field_is_a_violation():
    raw = micro_config_dict()
    raw["train"]["segment_length"] = 100
    violations, _ = cfg.validate(cfg.config_from_dict(raw))
    assert any("receptive field" in v for v in violations)


def test_train_eval_epsilon_divergence_warns_not_errors():
    raw = micro_config_dict()
    raw["eval"]["epsilon"] = 0.01
    config = cfg.config_from_dict(raw)
    violations, warnings_ = cfg.validate(config)
    assert violations == []
    assert any("eval.epsilon" in w for w in warnings_)


def test_nonreference_budget_warns():
    raw = micro_config_dict()
    raw["train"]["attack"]["epsilon"] = 0.004
    raw["eval"]["epsilon"] = 0.004
    _, warnings_ = cfg.validate(cfg.config_from_dict(raw))
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


HAT_LEAVES = list(_leaves(cfg.desk_preset("hat").to_dict()))


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
    assert len(HAT_LEAVES) == 102
    assert "eval.scenarios[2].iterations" in {name for name, _, _ in HAT_LEAVES}


@pytest.mark.parametrize("name, keys, value", HAT_LEAVES, ids=[n for n, _, _ in HAT_LEAVES])
def test_every_field_is_type_checked_naming_its_json_path(name, keys, value):
    raw = cfg.desk_preset("hat").to_dict()
    node = raw
    for key in keys[:-1]:
        node = node[key]
    node[keys[-1]] = _wrong_type(value)
    with pytest.raises(cfg.ConfigError) as caught:
        cfg.config_from_dict(raw)
    assert name in str(caught.value)


def test_round_trip_through_dict():
    config = cfg.config_from_dict(micro_config_dict("hat"))
    again = cfg.config_from_dict(config.to_dict())
    assert again.to_dict() == config.to_dict()
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
    """A non-npz file, or a micro checkpoint with a broken meta block."""
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
    elif broken.startswith("no-"):
        del meta[_missing_key(broken)]
    text = {"meta-not-json": "not json", "meta-not-object": "[]"}.get(broken, json.dumps(meta))
    payload["meta_json"] = np.frombuffer(text.encode(), dtype=np.uint8)
    np.savez(path, **payload)


def _missing_key(broken):
    """'no-corpus-fingerprint' -> 'corpus_fingerprint'."""
    return broken.removeprefix("no-").replace("-", "_")


@pytest.mark.parametrize("command, broken", [
    ("eval", "text"), ("attack", "text"), ("report", "text"),
    ("eval", "no-kernel-size"), ("eval", "meta-not-json"), ("eval", "meta-not-object"),
    ("eval", "no-seed"), ("eval", "no-corpus-fingerprint")])
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
    if broken.startswith("no-"):
        assert _missing_key(broken) in err


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
    from advspeaker.losses import SinkhornSettings

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
    raw["report"] = {"checkpoints": [["target", micro_checkpoints["target"]]],
                     "iterations": [2]}
    path = write_config(tmp_path, raw)
    sinkhorn = cfg.config_from_dict(raw).train.sinkhorn
    assert sinkhorn != SinkhornSettings()

    solvers = []
    generate = ev.generate

    def recording_generate(*args, **kwargs):
        solvers.append(kwargs.get("sinkhorn"))
        return generate(*args, **kwargs)

    monkeypatch.setattr(ev, "generate", recording_generate)
    for command in ("eval", "attack", "report"):
        solvers.clear()
        assert cli.main([command, "--config", path, "--out", str(tmp_path / command)]) == 0
        assert solvers and all(s == sinkhorn for s in solvers), command

    lines = (tmp_path / "eval" / "report.jsonl").read_text().splitlines()[1:]
    entries = {e["name"]: e for e in map(json.loads, lines)}
    attacked = [e for e in entries.values() if e["attack"] is not None]
    assert {"transfer:pgd2", "epsilon_sweep:pgd2@eps=0.002",
            "iteration_sweep:fs10@T=2"} <= {e["name"] for e in attacked}
    assert all(e["snr_mean_db"] is not None and e["snr_min_db"] is not None
               for e in attacked)
    columns, row = (tmp_path / "report" / "comparison.csv").read_text().splitlines()[1:]
    cells = dict(zip(columns.split(",")[1:], map(float, row.split(",")[1:])))
    for name in ("clean", "pgd2", "cw2", "fs2"):
        assert cells[name] == entries[name]["accuracy"], name


def test_cli_validate_prints_each_warning_once(tmp_path, capsys):
    path = write_config(tmp_path, micro_config_dict())
    assert cli.main(["validate", "--config", path, "--set", "eval.epsilon=0.004"]) == 0
    out, err = capsys.readouterr()
    assert (out + err).count("warning: eval.epsilon") == 1
    assert "config ok" in out


def test_cli_set_overrides_and_seed_flag(tmp_path):
    out = tmp_path / "run"
    raw = micro_config_dict(out=str(out))
    path = write_config(tmp_path, raw)
    assert cli.main(["train", "--config", path, "--set", "train.epochs=1",
                     "--seed", "42"]) == 0
    resolved = json.loads((out / "config.resolved.json").read_text())
    assert resolved["train"]["epochs"] == 1
    assert resolved["seed"] == 42


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
    raw_r["report"] = {"checkpoints": [["standard", str(out_a / "checkpoint.npz")],
                                       ["fgsm_at", str(out_b / "checkpoint.npz")]],
                       "iterations": [2]}
    path_r = write_config(tmp_path, raw_r, "report.json")
    assert cli.main(["report", "--config", path_r]) == 0
    table = (tmp_path / "cmp" / "comparison.txt").read_text()
    assert "standard" in table and "fgsm_at" in table
    csv = (tmp_path / "cmp" / "comparison.csv").read_text()
    assert csv.splitlines()[1].startswith("defense,clean,fgsm,pgd2,cw2,fs2")


def test_cli_train_on_wav_dir_persists_manifest(tmp_path):
    from advspeaker.data import write_wav
    rng = np.random.default_rng(2)
    wav_root = tmp_path / "corpus"
    for spk in ("s0", "s1", "s2"):
        d = wav_root / spk
        d.mkdir(parents=True)
        for i in range(4):
            write_wav(d / f"u{i}.wav", rng.normal(size=800) * 0.1, 4000)

    out = tmp_path / "run"
    raw = micro_config_dict(out=str(out))
    raw["corpus"] = {"kind": "wav_dir", "root": str(wav_root), "split_seed": 1}
    raw["train"]["epochs"] = 1
    path = write_config(tmp_path, raw)
    assert cli.main(["train", "--config", path]) == 0
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["num_speakers"] == 3
    assert len(manifest["entries"]) == 12


def test_cli_ablate_micro(tmp_path):
    raw = micro_config_dict(defense="hat", out=str(tmp_path / "abl"))
    raw["train"]["epochs"] = 1
    raw["train"]["attack"]["iterations"] = 1
    path = write_config(tmp_path, raw)
    assert cli.main(["ablate", "--config", path]) == 0
    csv = (tmp_path / "abl" / "ablation.csv").read_text()
    assert len([l for l in csv.splitlines() if l and not l.startswith(("#", "subset"))]) == 7


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

    config = cfg.BUILTIN_PRESETS["desk-standard"]()
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
    wider = cfg.config_from_dict({"train": {"attack": {"epsilon": 0.01}}}).train.attack
    assert wider.alpha == 0.01 / 5
    one_step = cfg.config_from_dict({"train": {"attack": {"iterations": 1}}}).train.attack
    assert one_step.alpha == 0.002
    stated = cfg.config_from_dict({"train": {"attack": {"epsilon": 0.01, "alpha": 0.003}}})
    assert stated.train.attack.alpha == 0.003


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
    ("report", ["report.iterations=[0]", 'report.checkpoints=[["a", "a.npz"]]'],
     "report.iterations"),
    ("eval", ['eval.scenarios=[{"kind": "pgd", "iterations": "x"}]'],
     "eval.scenarios[0].iterations"),
    ("eval", ['eval.scenarios=[{"kind": "pgd", "epsilon": "x"}]'],
     "eval.scenarios[0].epsilon"),
    ("eval", ['eval.scenarios=[{"kind": "epsilon_sweep", "epsilons": ["x"]}]'],
     "eval.scenarios[0].epsilons"),
    ("eval", ['eval.scenarios=[{"kind": "iteration_sweep", "counts": [2.5]}]'],
     "eval.scenarios[0].counts"),
    ("eval", ['eval.epsilon="x"'], "eval.epsilon"),
    ("report", ['report.iterations=["x"]', 'report.checkpoints=[["a", "a.npz"]]'],
     "report.iterations"),
    ("train", ["train.epochs=2.5"], "train.epochs"),
    ("train", ['train.attack.beta="x"'], "train.attack.beta"),
    ("eval", ['eval.batch_size="x"'], "eval.batch_size"),
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
    "desk-standard": "9beeea3f777d7557", "desk-fgsm-at": "da2e4877acd49635",
    "desk-pgd-at": "aed2248eb4d360c9", "desk-fs-at": "bf7b716ad330f3ec",
    "desk-hat": "e9460bb63660c928", "paper-hat": "691b668ace33a505",
}


def test_serialized_bytes_are_pinned(tmp_path):
    import hashlib

    from advspeaker import data as dt
    from advspeaker import model as mdl

    for name, factory in cfg.BUILTIN_PRESETS.items():
        assert factory().fingerprint() == PRESET_FINGERPRINTS[name], name
        assert cfg.load_config(PRESET_DIR / f"{name}.json").fingerprint() \
            == PRESET_FINGERPRINTS[name], name
    hat = cfg.desk_preset("hat")
    assert dt.synth_corpus(hat.corpus.synth_config()).fingerprint == "c16f7580e8ebe819"
    path = tmp_path / "ckpt.npz"
    mdl.save_checkpoint(path, mdl.build(hat.model, hat.frontend, 7),
                        config_fingerprint="a", corpus_fingerprint="b", epoch=3)
    with np.load(path) as saved:
        meta_json = saved["meta_json"].tobytes()
    assert hashlib.sha256(meta_json).hexdigest()[:16] == "653c1ad7c11a7159"
    assert cfg.config_from_dict({}).fingerprint() == cfg.ExperimentConfig().fingerprint()
