"""The benchmark's workloads.

Each workload builds its inputs from the seed during set-up, then repeats
one unit of work (a training epoch, an eval pass, an attack pass) in a
closed loop: one process, one batch at a time. The seed selects the
synthetic speakers, or for desk-eval the utterances evaluated; model
shapes, training settings and model seeds come from the shipped presets in
``configs/``. Every call into
the program goes through a module attribute (``training.train_epoch``,
``evaluate.accuracy_under_attack``, ...) so that the traced run's wrappers
see it.
"""

from __future__ import annotations

import dataclasses
import json
import math
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from advspeaker import attacks, cli, config as configs, data, evaluate, model, training
from checks import OutputChecks, digest
from tracing import patched

REPO = Path(__file__).resolve().parents[1]


@dataclass
class UnitResult:
    examples: int   # waveforms fully processed
    batches: int    # operations attempted
    failed: int     # operations that failed an output check
    digest: str     # hash of the unit's outputs, compared with references
    detail: dict    # human-readable outputs (losses, accuracies)
    # (waveforms, seconds) per timed batch; empty when the unit is timed whole
    batch_times: list[tuple[int, float]] = field(default_factory=list)


def load_preset(name: str, overrides=()) -> configs.ExperimentConfig:
    raw = json.loads((REPO / "configs" / f"{name}.json").read_text())
    return configs.config_from_dict(configs.apply_overrides(raw, list(overrides)))


def unit_result(examples: int, batches: int, checks: OutputChecks, outputs: str,
                detail: dict, failed: int = 0, batch_times=()) -> UnitResult:
    adversarial = checks.take()
    failed = max(failed, sum(1 for b in adversarial if b.problems))
    return UnitResult(examples, batches, failed,
                      digest(outputs, *(b.digest for b in adversarial)), detail,
                      list(batch_times))


class DeskTraining:
    """Training epochs of a desk preset: 12 batches of (32, 8000) per epoch.

    The model is rebuilt every ``cycle`` epochs (the preset's epoch count),
    so a long run repeats the same work instead of training past the preset.
    """

    def __init__(self, preset: str, seed: int, smoke: bool, reference_units: int):
        overrides = [f"corpus.seed={seed}"]
        if smoke:
            overrides += ["corpus.utterances_per_speaker=4", "train.attack.iterations=2",
                          "train.sinkhorn.max_iters=20"]
        self.config = load_preset(preset, overrides)
        self.cycle = self.config.train.epochs
        self.reference_units = reference_units
        self.batch_shape = (self.config.train.batch_size, self.config.train.segment_length)

    def setup(self) -> None:
        c = self.config
        self.corpus = data.synth_corpus(c.corpus.synth_config())
        self.n_train = len(self.corpus.items("train"))
        self.batches_per_unit = math.ceil(self.n_train / c.train.batch_size)
        self._fresh_model()

    def _fresh_model(self) -> None:
        c = self.config
        self.params = model.build(c.model, c.frontend, c.seed)
        self.velocity: dict[str, np.ndarray] = {}

    def prepare(self, index: int) -> None:
        if index and index % self.cycle == 0:
            self._fresh_model()

    def run_unit(self, index: int, checks: OutputChecks) -> UnitResult:
        c = self.config
        # each training example counts together with its adversary, if it has one
        per_example = 1 if c.train.defense == "standard" else 2
        asked, sizes = [], []  # when train_epoch asks batch_iter for its next batch
        batch_iter = training.batch_iter

        def timed(*args, **kwargs):
            inner = batch_iter(*args, **kwargs)
            while True:
                asked.append(time.perf_counter())
                try:
                    x, y = next(inner)
                except StopIteration:
                    return
                sizes.append(len(y))
                yield x, y

        with patched([(training, "batch_iter", timed)]):
            began = time.perf_counter()
            record = training.train_epoch(self.params, self.velocity, self.corpus, c.train,
                                          epoch=index % self.cycle + 1, seed=c.seed)
            ended = time.perf_counter()
        # a batch runs from one request to the next, so it includes producing the batch;
        # the epoch's time outside the batches is shared out evenly, so they sum to the epoch
        outside = (asked[0] - began + ended - asked[-1]) / len(sizes)
        times = [(per_example * n, asked[k + 1] - asked[k] + outside)
                 for k, n in enumerate(sizes)]
        losses = [record.clean_loss] + ([record.adv_loss] if record.adv_loss is not None else [])
        finite = bool(np.isfinite(losses).all())
        if not finite:
            checks.problems.append(f"non-finite training loss in epoch {record.epoch}")
        return unit_result(self.n_train * per_example, self.batches_per_unit, checks,
                           json.dumps(record.stable_dict(), sort_keys=True),
                           {"clean_loss": record.clean_loss, "adv_loss": record.adv_loss},
                           failed=0 if finite else self.batches_per_unit, batch_times=times)


class DeskEval:
    """The six desk eval scenarios at batch 40 against a checkpoint.

    Set-up trains desk-standard on the preset corpus for one epoch with the
    preset's seed, saves the model with ``save_checkpoint`` and evaluates
    the copy ``load_checkpoint`` reads back, so no committed checkpoint file
    can go stale. How long Sinkhorn runs depends on the model and the batch,
    so the model is the same for every seed, and the seed draws ``cycle``
    disjoint sets of 40 utterances (as many per speaker as the test split
    holds) that the units rotate over.
    """

    cycle = 4
    reference_units = 4

    def __init__(self, seed: int, smoke: bool, workdir: Path):
        overrides = ["train.epochs=1"]
        if smoke:
            overrides.append(f"corpus.utterances_per_speaker={2 * self.cycle}")
        self.seed = seed
        self.config = load_preset("desk-standard", overrides)
        ev = self.config.eval
        self.scenarios = []
        for s in ev.scenarios:  # built the way ``advspeaker eval`` builds them
            spec = cli._scenario_spec(s, ev)
            if smoke and spec is not None and spec.iterations > 1:
                spec = dataclasses.replace(spec, iterations=2)
            self.scenarios.append((cli._scenario_name(s, spec), spec))
        self.batch_shape = (ev.batch_size, self.config.train.segment_length)
        self.checkpoint = workdir / f"desk-eval-checkpoint-s{seed}.npz"

    def setup(self) -> None:
        c = self.config
        corpus = data.synth_corpus(c.corpus.synth_config())
        trained = model.build(c.model, c.frontend, c.seed)
        training.fit(trained, corpus, c.train, seed=c.seed)
        self.checkpoint.parent.mkdir(parents=True, exist_ok=True)
        model.save_checkpoint(self.checkpoint, trained, config_fingerprint=c.fingerprint(),
                              corpus_fingerprint=corpus.fingerprint, epoch=c.train.epochs)
        try:
            self.params, _ = model.load_checkpoint(self.checkpoint)
        finally:
            self.checkpoint.unlink()
        per_speaker: dict[str, list] = {}
        for u in corpus.utterances:
            per_speaker.setdefault(u.speaker_id, []).append(u)
        size = len(corpus.items(c.eval.split)) // len(per_speaker)
        rng = np.random.default_rng(self.seed)
        orders = {spk: rng.permutation(len(utts)) for spk, utts in per_speaker.items()}
        self.views = []
        for k in range(self.cycle):
            chosen = [per_speaker[spk][i] for spk, order in orders.items()
                      for i in order[k * size:(k + 1) * size]]
            self.views.append(data.Corpus(chosen, corpus.sample_rate,
                                          f"{corpus.fingerprint}/{self.seed}/{k}"))
        self.n_test = len(self.views[0].items("all"))
        self.batches_per_unit = len(self.scenarios) * math.ceil(self.n_test / c.eval.batch_size)

    def prepare(self, index: int) -> None:
        pass

    def run_unit(self, index: int, checks: OutputChecks) -> UnitResult:
        c, ev = self.config, self.config.eval
        view = self.views[index % self.cycle]
        report = evaluate.RobustnessReport(
            target_name="desk-standard", config_fingerprint=c.fingerprint(),
            corpus_fingerprint=view.fingerprint, global_seed=c.seed)
        for name, spec in self.scenarios:
            acc, _ = evaluate.accuracy_under_attack(
                self.params, view, spec, batch_size=ev.batch_size,
                segment_length=c.train.segment_length, seed=ev.seed, split="all")
            report.entries.append(evaluate.ReportEntry(name, acc, evaluate.attack_dict(spec),
                                                       None, ev.seed))
        return unit_result(self.n_test * len(self.scenarios), self.batches_per_unit, checks,
                           report.content_hash(),
                           {e.name: round(e.accuracy, 2) for e in report.entries})


class PaperAttack:
    """PGD-10 and hybrid-10 on an (8, 48000) batch against the 8-stack paper model.

    Attacks run in the training-time "attack" mode (batch statistics), as
    HAT's inner maximisation does at paper scale. Whether the 8x8 Sinkhorn
    converges at once or spends its whole budget depends on how far apart
    the batch's logits lie, so units rotate over ``cycle`` batches of
    different speakers: one unlucky batch cannot set a run's figure.
    """

    cycle = 4
    reference_units = 4

    def __init__(self, seed: int, smoke: bool):
        overrides = ["train.attack.iterations=2"] if smoke else []
        self.config = load_preset("paper-hat", overrides)
        c = self.config
        batch, seconds = (2, 1.5) if smoke else (8, 3.0)
        # the paper corpus is LibriSpeech, which is not shipped; synthetic
        # speakers stand in at the paper's 3 s segment length
        self.synth = data.SynthConfig(num_speakers=batch * self.cycle, utterances_per_speaker=2,
                                      duration_s=seconds,
                                      sample_rate=c.frontend.sample_rate, seed=seed)
        self.specs = [("pgd", training.attack_spec_for_defense("pgd_at", c.train.attack)),
                      ("hybrid", c.train.attack)]
        self.batch_shape = (batch, int(round(seconds * c.frontend.sample_rate)))
        self.batches_per_unit = len(self.specs)

    def setup(self) -> None:
        c = self.config
        corpus = data.synth_corpus(self.synth)
        first: dict[int, np.ndarray] = {}
        for samples, label in corpus.items("all"):
            first.setdefault(label, samples)
        # batch k holds speakers k, k + cycle, ...: each spans the whole f0 range
        self.batches = []
        for k in range(self.cycle):
            labels = np.arange(k, len(first), self.cycle, dtype=np.int64)
            self.batches.append((np.stack([first[label] for label in labels]), labels))
        self.params = model.build(c.model, c.frontend, c.seed)

    def prepare(self, index: int) -> None:
        pass

    def run_unit(self, index: int, checks: OutputChecks) -> UnitResult:
        c = self.config
        x, y = self.batches[index % self.cycle]
        forward = attacks.model_forward_fn(self.params)
        for _, spec in self.specs:
            attacks.generate(forward, x, y, spec, mode="attack", seed=0,
                             sinkhorn=c.train.sinkhorn)
        return unit_result(len(y) * len(self.specs), self.batches_per_unit, checks, "", {})


WORKLOADS = {
    # references cover the epochs a run reaches: about 2 of HAT, a whole cycle of standard
    "desk-hat-epoch": lambda seed, smoke, workdir: DeskTraining("desk-hat", seed, smoke, 2),
    "desk-standard-fit": lambda seed, smoke, workdir: DeskTraining("desk-standard", seed,
                                                                   smoke, 30),
    "desk-eval": lambda seed, smoke, workdir: DeskEval(seed, smoke, workdir),
    "paper-attack": lambda seed, smoke, workdir: PaperAttack(seed, smoke),
}
