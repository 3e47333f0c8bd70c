"""Loss, perturbation sampling, freezing, optimizer, and the train loop."""

import dataclasses
import hashlib
import multiprocessing

import numpy as np
import pytest

from roar3d import trainer
from roar3d.config import RunConfig
from roar3d.model import ForwardInfo, ForwardOptions, Model, rotate_latent, sharding
from roar3d.numerics import Tensor
from roar3d.rng import stream
from roar3d.trainer import (
    AdamW,
    Batch,
    apply_freeze,
    assemble_batch,
    cosine_lr,
    flow_matching_loss,
    perturbation,
    train,
    upgrade_from_single,
)
from roar3d.world import azimuth_bin

from conftest import (
    LOSS_RTOL,
    assert_gradients_close,
    micro_run_config,
    randomize_zero_init,
)

CFG = micro_run_config()


def _batch(rng, cfg, views=1, perturbed=(False,)):
    """Random batch; a perturbed sample has no primary view (index -1)."""
    pert = np.array(perturbed)
    m = cfg.model
    return Batch(
        z0=rng.normal(size=(pert.size, m.tokens, m.model_dim)),
        feats=rng.normal(size=(pert.size, views, m.patches, m.feat_dim)),
        primary_index=np.where(pert, -1, 0),
    )


# ---------------------------------------------------------------------------
# flow matching loss
# ---------------------------------------------------------------------------


class _StubModel:
    """Model whose velocity equals the exact target."""

    def __init__(self, z0, noise):
        self.target = noise - z0

    def velocity(self, z_t, t, feats, primary_index=None, opts=None):
        return Tensor(self.target), ForwardInfo()


def test_loss_zero_when_model_equals_target():
    rng = np.random.default_rng(0)
    s = _batch(rng, CFG)
    noise = rng.normal(size=s.z0.shape)
    stub = _StubModel(s.z0, noise)
    loss, _ = flow_matching_loss(stub, s, np.array([0.4]), noise)
    assert float(loss.data) == 0.0


def test_loss_zero_model_at_t_one_matches_arithmetic():
    rng = np.random.default_rng(1)
    model = Model.create(dataclasses.replace(CFG.model, arch="single"), 0)  # zero head
    s = _batch(rng, CFG)
    noise = rng.normal(size=s.z0.shape)
    loss, _ = flow_matching_loss(model, s, np.array([1.0]), noise,
                                 ForwardOptions(mode="inference"))
    expect = float(((noise - s.z0) ** 2).mean())
    assert abs(float(loss.data) - expect) < 1e-12


def test_loss_rejects_bad_noise_shape():
    rng = np.random.default_rng(2)
    s = _batch(rng, CFG)
    with pytest.raises(ValueError):
        flow_matching_loss(_StubModel(np.zeros((1, 2, 3)), np.zeros((1, 2, 3))),
                           s, np.array([0.5]), np.zeros((1, 2, 3)))


# ---------------------------------------------------------------------------
# the sharded loss: two row shards in two processes, one gradient
# ---------------------------------------------------------------------------

PRIMARY = {"mixed": (0, -1, 2, 1), "primary-absent": (-1, -1, -1, -1),
           "all-primary": (0, 0, 0, 0)}


def _loss_case(B: int, primary, seed: int = 0):
    """A warm micro routed model, a B-row batch over 3 views, t, noise and options."""
    rng = np.random.default_rng(seed)
    model = Model.create(CFG.model, seed)
    randomize_zero_init(model.params, rng)
    primary = np.array(primary[:B])
    batch = _batch(rng, CFG, views=3, perturbed=primary < 0)
    batch.primary_index = primary
    return (model, batch, rng.random(B), rng.normal(size=batch.z0.shape),
            ForwardOptions(mode="train", run_seed=seed, step=5))


def _loss_and_grads(loss_fn, model, batch, t, noise, opts):
    model.zero_grads()
    loss, info = loss_fn(model, batch, t, noise, opts)
    loss.backward()
    return loss, info, {k: p.grad for k, p in model.params.items()}


@pytest.mark.parametrize("rows", sorted(PRIMARY))
@pytest.mark.parametrize("B", (3, 4))
def test_sharded_loss_matches_the_single_graph(B, rows):
    case = _loss_case(B, PRIMARY[rows], seed=B)
    with sharding(case[0].params):
        loss, info, got = _loss_and_grads(flow_matching_loss, *case)
    ref, ref_info, want = _loss_and_grads(flow_matching_loss, *case)
    assert info.views is None and ref_info.views is not None   # joined shards, one graph
    assert abs(float(loss.data) - float(ref.data)) <= LOSS_RTOL * abs(float(ref.data))
    assert np.array_equal(info.hard_trace(), ref_info.hard_trace())
    assert abs(info.mean_entropy() - ref_info.mean_entropy()) <= 1e-12
    assert sum(w is not None and w.any() for w in want.values()) > len(want) // 2
    assert_gradients_close(got, want)


def test_loss_of_one_row_is_the_single_graph_bit_exactly():
    case = _loss_case(1, (-1,))
    model, batch, t, _, opts = case
    with sharding(model.params):
        vel, _ = model.velocity(batch.z0, t, batch.feats, batch.primary_index, opts)
        assert vel._parents   # an op output, not a gather_rows root
        loss, info, got = _loss_and_grads(flow_matching_loss, *case)
    ref, ref_info, want = _loss_and_grads(flow_matching_loss, *case)
    assert loss.data.tobytes() == ref.data.tobytes()
    assert info.mean_entropy() == ref_info.mean_entropy()
    for k, w in want.items():
        assert got[k].tobytes() == w.tobytes(), k


# ---------------------------------------------------------------------------
# orientation perturbation
# ---------------------------------------------------------------------------


def _turns(bins, draws=200, seed=3):
    """Every turn ``perturbation`` draws for these bins at p_pert 1."""
    rng = stream(seed, "turns")
    return {perturbation(bins, 1.0, rng)[0] for _ in range(draws)}


def test_perturbation_turns_exclude_occupied_bins():
    assert _turns({0}) == {90.0, 180.0, 270.0}
    assert _turns({0, 2}) == {90.0, 270.0}


def test_perturbed_rotation_frequencies_uniform():
    draw = stream(7, "pert-freq")
    counts = {90.0: 0, 180.0: 0, 270.0: 0}
    n = 30_000
    for _ in range(n):
        turn, skipped = perturbation({0}, 1.0, draw)
        assert not skipped
        counts[turn] += 1
    for rot in counts:
        assert abs(counts[rot] / n - 1 / 3) < 0.01


def _source(split, z0, view_feats):
    """(turn, view bins) of a batch row, found by matching it to the split."""
    for i in range(len(split)):
        for turn in (0.0, 90.0, 180.0, 270.0):
            if np.array_equal(rotate_latent(split.latents[i], turn, CFG.model), z0):
                pool = split.feats[i].reshape(-1, *split.feats.shape[3:])
                rows = [int(np.flatnonzero((pool == f).all(axis=(1, 2)))[0]) for f in view_feats]
                cams = split.cams[i].reshape(-1, 2)
                return turn, {azimuth_bin(cams[r, 0]) for r in rows}
    raise AssertionError("batch row matches no latent of the split")


def test_perturbed_sample_contract(micro_dataset):
    # aux_max=2 keeps every sample eligible, so p_pert=1 perturbs every sample
    cfg = micro_run_config()
    cfg.train = dataclasses.replace(cfg.train, p_pert=1.0, aux_max=2, steps_mv=60)
    split = micro_dataset.split("train")
    for step in range(3):
        batch = assemble_batch(split, cfg, step, "mv", 1.0)
        assert batch.perturbed.all() and batch.skips == 0
        assert (batch.primary_index == -1).all()
        for z0, view_feats in zip(batch.z0, batch.feats):
            turn, bins = _source(split, z0, view_feats)
            assert turn != 0.0
            assert azimuth_bin(turn) not in bins


def test_all_bins_occupied_skips():
    draw = stream(3, "z")
    assert perturbation({0, 1, 2, 3}, 1.0, draw) == (None, True)
    assert draw.random() == stream(3, "z").random()  # eligibility is checked before any draw


def test_perturbation_invariant_over_many_draws():
    draw = stream(11, "many")
    violations = 0
    for i in range(10_000):
        n_bins = int(draw.integers(1, 4))
        bins = set(draw.integers(0, 4, size=n_bins).tolist())
        turn, skipped = perturbation(bins, 1.0, draw)
        if skipped:
            continue
        if azimuth_bin(turn) in bins:
            violations += 1
    assert violations == 0


# ---------------------------------------------------------------------------
# freezing
# ---------------------------------------------------------------------------


def _grads(model, batch, seed=0):
    t = stream(seed, "t").random(batch.size)
    noise = stream(seed, "n").normal(size=batch.z0.shape)
    model.zero_grads()
    loss, _ = flow_matching_loss(model, batch, t, noise,
                                 ForwardOptions(mode="train", run_seed=seed, step=0))
    loss.backward()
    return loss


def test_fully_perturbed_batch_zeroes_and_freezes_ca_p():
    rng = np.random.default_rng(8)
    model = Model.create(CFG.model, 1)
    batch = _batch(rng, CFG, perturbed=(True, True, True))
    _grads(model, batch)
    frozen = apply_freeze(model.params, batch.perturbed)
    assert frozen == {k for k in model.params if ".ca_p." in k}
    # zero by construction: a fully perturbed batch never reaches CA_p
    for name in frozen:
        g = model.params[name].grad
        assert g is None or np.array_equal(g, np.zeros_like(g))


def test_unperturbed_batch_freezes_nothing():
    rng = np.random.default_rng(9)
    model = Model.create(CFG.model, 2)
    batch = _batch(rng, CFG, views=2, perturbed=(False, False, False))
    _grads(model, batch)
    assert apply_freeze(model.params, batch.perturbed) == set()


def test_mixed_batch_ca_p_gradient_equals_unperturbed_subset():
    """CA_p grads from a mixed batch == grads from the clean subset alone."""
    rng = np.random.default_rng(10)
    model = Model.create(CFG.model, 3)
    mixed = _batch(rng, CFG, views=2, perturbed=(False, False, True))

    t = stream(0, "t").random(mixed.size)
    noise = stream(0, "n").normal(size=mixed.z0.shape)
    model.zero_grads()
    loss, _ = flow_matching_loss(model, mixed, t, noise,
                                 ForwardOptions(mode="train", run_seed=0, step=0))
    loss.backward()
    mixed_grads = {k: p.grad.copy() for k, p in model.params.items()
                   if ".ca_p." in k and p.grad is not None}

    clean_batch = Batch(mixed.z0[:2], mixed.feats[:2], mixed.primary_index[:2])
    model.zero_grads()
    loss2, _ = flow_matching_loss(model, clean_batch, t[:2], noise[:2],
                                  ForwardOptions(mode="train", run_seed=0, step=0))
    loss2.backward()
    ratio = clean_batch.size / mixed.size  # mean-over-batch rescaling
    for k, g in mixed_grads.items():
        sub = model.params[k].grad
        sub = np.zeros_like(g) if sub is None else sub
        assert np.allclose(g, sub * ratio, rtol=1e-10, atol=1e-12), k


# ---------------------------------------------------------------------------
# upgrade
# ---------------------------------------------------------------------------


def test_upgrade_copies_parameters():
    single = Model.create(dataclasses.replace(CFG.model, arch="single"), 4)
    up = upgrade_from_single(single)
    H = CFG.model.heads
    for l in range(CFG.model.blocks):
        pre = f"blocks.{l}"
        assert np.array_equal(up.params[f"{pre}.router.w_agg"].data, np.full(H, 1.0 / H))
        for k in ("w_q", "q_gain", "w_k", "k_gain", "w_v", "w_o"):
            diff = np.abs(up.params[f"{pre}.ca_a.{k}"].data
                          - up.params[f"{pre}.ca_p.{k}"].data).max()
            assert diff == 0.0
        assert np.array_equal(up.params[f"{pre}.router.w_q"].data,
                              up.params[f"{pre}.ca_p.w_q"].data)
        assert np.array_equal(up.params[f"{pre}.router.ln_gain"].data,
                              up.params[f"{pre}.ln_ca.gain"].data)
    assert up.cfg.arch == "routed"
    with pytest.raises(ValueError):
        upgrade_from_single(up)


def test_upgrade_checkpoint_bytes_pinned(tmp_path):
    """The saved upgrade of a micro single model hashes to a fixed value (names, order, data)."""
    single = Model.create(dataclasses.replace(CFG.model, arch="single"), 4)
    upgrade_from_single(single).save(tmp_path / "up.bin")
    digest = hashlib.sha256((tmp_path / "up.bin").read_bytes()).hexdigest()
    assert digest == "6c4c52378f9e801f025696e416fb6bdd64f080be1219ba2bff0b154e47c81116"


def test_upgrade_rejects_shape_mismatch():
    single = Model.create(dataclasses.replace(CFG.model, arch="single"), 5)
    bad_cfg = dataclasses.replace(CFG.model, feat_dim=12, arch="single")
    bad = Model(bad_cfg, single.params)  # config no longer matches the tensors
    with pytest.raises(ValueError):
        upgrade_from_single(bad)


# ---------------------------------------------------------------------------
# optimizer and schedule
# ---------------------------------------------------------------------------


def test_adamw_deterministic():
    def run():
        model = Model.create(CFG.model, 6)
        opt = AdamW(model.params)
        rng = np.random.default_rng(0)
        for step in range(3):
            for p in model.params.values():
                p.grad = rng.normal(size=p.data.shape)
            opt.step(1e-3)
        return {k: p.data.copy() for k, p in model.params.items()}

    a, b = run(), run()
    for k in a:
        assert np.array_equal(a[k], b[k])


def test_adamw_skips_frozen_entirely():
    model = Model.create(CFG.model, 7)
    opt = AdamW(model.params)
    frozen = {k for k in model.params if ".ca_p." in k}
    before = {k: model.params[k].data.copy() for k in frozen}
    rng = np.random.default_rng(1)
    for step in range(5):
        for p in model.params.values():
            p.grad = rng.normal(size=p.data.shape)
        opt.step(1e-2, frozen)
    for k in frozen:
        assert np.array_equal(model.params[k].data, before[k])
        assert opt.t[k] == 0


def test_cosine_schedule_endpoints():
    tc = CFG.train
    assert abs(cosine_lr(tc, 0, 100) - tc.lr) < 1e-15
    assert abs(cosine_lr(tc, 100, 100) - tc.lr_final) < 1e-15
    assert cosine_lr(tc, 50, 100) < tc.lr


# ---------------------------------------------------------------------------
# train loop
# ---------------------------------------------------------------------------


def test_train_no_perturbation_when_p_zero(micro_cfg, micro_dataset):
    cfg = micro_run_config()
    cfg.train = dataclasses.replace(cfg.train, p_pert=0.0, steps_mv=12)
    model = Model.create(dataclasses.replace(cfg.model, arch="single"), 0)
    up = upgrade_from_single(model)
    log = train(up, micro_dataset.split("train"), cfg, phase="mv")
    assert log.pert_total == 0
    assert all(row.split(",")[3] == "0.000000" for row in log.rows)


def test_train_deterministic_loss_curve(micro_cfg, micro_dataset):
    def run():
        cfg = micro_run_config(seed=5)
        cfg.train = dataclasses.replace(cfg.train, steps_single=10)
        model = Model.create(dataclasses.replace(cfg.model, arch="single"), 3)
        log = train(model, micro_dataset.split("train"), cfg, phase="single")
        return [row.split(",")[1] for row in log.rows]

    assert run() == run()


def test_train_loss_decreases_on_micro_config(micro_cfg, micro_dataset):
    cfg = micro_run_config(seed=1)
    cfg.train = dataclasses.replace(cfg.train, steps_single=160)
    model = Model.create(dataclasses.replace(cfg.model, arch="single"), 1)
    log = train(model, micro_dataset.split("train"), cfg, phase="single")
    losses = [float(r.split(",")[1]) for r in log.rows]
    assert np.mean(losses[-16:]) < 0.6 * np.mean(losses[:16])


def test_fully_perturbed_training_leaves_ca_p_bit_identical(micro_cfg, micro_dataset):
    # aux_max=2 keeps every sample eligible (primary bin + 2 aux bins can
    # never cover all four), so p_pert=1 really perturbs 100% of samples
    cfg = micro_run_config(seed=2)
    cfg.train = dataclasses.replace(cfg.train, p_pert=1.0, aux_max=2, steps_mv=60)
    single = Model.create(dataclasses.replace(cfg.model, arch="single"), 2)
    model = upgrade_from_single(single)
    before = {k: p.data.copy() for k, p in model.params.items() if ".ca_p." in k}
    train(model, micro_dataset.split("train"), cfg, phase="mv")
    for k, v in before.items():
        assert np.array_equal(model.params[k].data, v), k


def test_two_training_phases_each_shard_their_steps_and_leave_no_process(micro_dataset,
                                                                         monkeypatch):
    """Each ``train`` forks one worker for its model's parameters and stops it when it
    returns; inside its scope a forward of other parameters is one graph."""
    cfg = micro_run_config(seed=4)
    cfg.train = dataclasses.replace(cfg.train, steps_single=3, steps_mv=3)
    split = micro_dataset.split("train")
    seen = []
    velocity = Model.velocity

    def recording(model, z_t, t, feats, primary_index=None, opts=None):
        vel, info = velocity(model, z_t, t, feats, primary_index, opts)
        twins = {k: Tensor(p.data, requires_grad=True) for k, p in model.params.items()}
        other, _ = velocity(Model(model.cfg, twins), z_t, t, feats, primary_index, opts)
        workers = [child.pid for child in multiprocessing.active_children()]
        # a gather_rows root has no parents; an op output of one graph has some
        seen.append((model.cfg.arch, not vel._parents, bool(other._parents), workers))
        return vel, info

    monkeypatch.setattr(Model, "velocity", recording)
    single = Model.create(dataclasses.replace(cfg.model, arch="single"), 4)
    train(single, split, cfg, "single")
    assert not multiprocessing.active_children()
    train(upgrade_from_single(single), split, cfg, "mv")
    assert not multiprocessing.active_children()
    assert [s[:3] for s in seen] == [("single", True, True)] * 3 + [("routed", True, True)] * 3
    workers = [s[3] for s in seen]
    assert all(len(w) == 1 for w in workers)
    assert workers[0] == workers[2] != workers[3] == workers[5]


class _Interrupted(Exception):
    """Raised from a patched ``assemble_batch``, as the benchmark ends a timed run."""


def test_a_train_that_raises_leaves_no_process(micro_dataset, monkeypatch):
    """The worker stops when the step loop raises; a diverged run is the CLI test's case."""
    cfg = micro_run_config(seed=4)
    assemble, alive = trainer.assemble_batch, []

    def assemble_batch(split, run_cfg, step, *args):
        alive.append(len(multiprocessing.active_children()))
        if step == 2:
            raise _Interrupted
        return assemble(split, run_cfg, step, *args)

    monkeypatch.setattr(trainer, "assemble_batch", assemble_batch)
    model = Model.create(dataclasses.replace(cfg.model, arch="single"), 4)
    with pytest.raises(_Interrupted):
        train(model, micro_dataset.split("train"), cfg, "single")
    assert alive == [1, 1, 1]
    assert not multiprocessing.active_children()


def test_assemble_batch_deterministic(micro_cfg, micro_dataset):
    split = micro_dataset.split("train")
    a = assemble_batch(split, micro_cfg, 7, "mv", 0.3)
    b = assemble_batch(split, micro_cfg, 7, "mv", 0.3)
    assert np.array_equal(a.z0, b.z0)
    assert np.array_equal(a.feats, b.feats)
    assert np.array_equal(a.perturbed, b.perturbed)


def test_assemble_batch_output_pinned(micro_cfg, micro_dataset):
    """Micro mv batches of steps 0-19 at p_pert 0.5 hash to a fixed value."""
    split = micro_dataset.split("train")
    h = hashlib.sha256()
    perturbed = skips = 0
    for step in range(20):
        b = assemble_batch(split, micro_cfg, step, "mv", 0.5)
        for arr in (b.z0, b.feats, b.primary_index, b.perturbed, np.int64(b.skips)):
            h.update(np.ascontiguousarray(arr).tobytes())
        perturbed += int(b.perturbed.sum())
        skips += b.skips
    assert (perturbed, skips) == (37, 6)  # both branches of the perturbation rule run
    assert h.hexdigest() == "62353c6af66d9b759460d1c83b4d3b85e25ee30885006bb91c11cf228e79e5ca"
