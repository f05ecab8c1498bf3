import pytest

from tvmask.config import ConfigError, RunConfig, from_text, load, read, to_text


def test_roundtrip_lossless():
    cfg = RunConfig(corpus_prepared="/data/prep", schedule_kind="cosine",
                    schedule_p=0.1 + 0.2, schedule_floor=0.02,
                    ptw_beta=0.97, mask_strategy="ptw",
                    lr_base=3.3e-4, train_T=777, run_seed=99)
    assert from_text(to_text(cfg)) == cfg
    # twice through the mill stays identical
    assert to_text(from_text(to_text(cfg))) == to_text(cfg)


def test_default_file_text_is_pinned():
    # the keys and their order in every config.txt train writes
    assert to_text(RunConfig()) == (
        "corpus.prepared = \n"
        "schedule.kind = fixed\n"
        "schedule.p = 0.15\n"
        "schedule.floor = 0.0\n"
        "ptw.beta = 0.99\n"
        "ptw.mu = 1.0\n"
        "ptw.loss_mode = per-token-mean\n"
        "ptw.snapshot_every = 10\n"
        "mask.strategy = random\n"
        "model.layers = 2\n"
        "model.hidden_dim = 128\n"
        "model.heads = 2\n"
        "model.ff_dim = 512\n"
        "lr.base = 0.001\n"
        "lr.warmup = 100\n"
        "lr.shape = fixed\n"
        "train.T = 2000\n"
        "train.batch_size = 16\n"
        "train.checkpoint_every = 500\n"
        "run.seed = 1234\n"
    )


def test_defaults_roundtrip():
    cfg = RunConfig()
    assert from_text(to_text(cfg)) == cfg


def test_parse_comments_and_blanks():
    cfg = from_text("# comment\n\ntrain.T = 5\nrun.seed = 7\n")
    assert cfg.train_T == 5
    assert cfg.run_seed == 7


def test_leading_byte_order_mark_ignored(tmp_path):
    # Windows editors may start a UTF-8 file with a byte-order mark
    text = "schedule.kind = cosine\ntrain.T = 50\n"
    path = tmp_path / "bom.cfg"
    path.write_bytes(b"\xef\xbb\xbf" + text.encode("utf-8"))
    assert read(path) == from_text(text)
    assert load(path) == from_text(text)


def test_unknown_key_rejected():
    for line in ("bogus.key = 1\n", "model_hidden.dim = 32\n", "model.hidden.dim = 32\n"):
        with pytest.raises(ConfigError, match="unknown config key"):
            from_text(line)


def test_key_set_twice_rejected():
    for text, lineno, first in (
        ("schedule.kind = cosine\nschedule.p = 0.2\nschedule.kind = fixed\n", 3, 1),
        ("train.T = 5\n# a comment\n\ntrain.T = 5\n", 4, 1),  # even to the same value
    ):
        key = text.split(" = ")[0]
        with pytest.raises(ConfigError,
                           match=rf"line {lineno}: {key} is already set on line {first}"):
            from_text(text)


def test_malformed_line_rejected():
    with pytest.raises(ConfigError, match="expected"):
        from_text("train.T 5\n")


def test_validate_rejects_bad_values():
    for text in (
        "schedule.kind = quadratic\n",
        "mask.strategy = everything\n",
        "ptw.loss_mode = per-word\n",
        "ptw.beta = 1.5\n",
        "ptw.beta = 0\n",
        "ptw.mu = 0\n",
        "ptw.mu = -1\n",
        "ptw.mu = 0.001\n",  # the lowest weight sigmoid(-4 / mu) underflows to 0
        "train.T = 0\n",
        "schedule.p = 0.7\n",
        "schedule.kind = cosine\nschedule.floor = 0.5\n",
        "schedule.kind = ascending\n",  # ratio 0 at step 0 at the default floor
        "lr.shape = ascending\n",  # the learning rate drops to 0 when warmup ends
    ):
        cfg = from_text(text)
        with pytest.raises(ConfigError):
            cfg.validate()


def test_validate_error_names_the_key():
    for text, key in (
        ("schedule.p = 0.7\n", "schedule.p"),
        ("schedule.kind = ascending\n", "schedule.floor"),
        ("lr.shape = steep\n", "lr.shape"),
        ("lr.shape = ascending\n", "lr.shape"),
        ("schedule.kind = ascend_then_decay\n", "schedule.kind"),  # removed kind
        ("ptw.mu = 0.001\n", "ptw.mu"),
        ("ptw.beta = 1.5\n", "ptw.beta"),
        ("model.heads = 3\n", "model.heads"),  # the hidden size must split evenly
        ("train.T = 0\n", "train.T"),  # the schedule spans the run, so it needs a step
    ):
        with pytest.raises(ConfigError, match=key.replace(".", r"\.")):
            from_text(text).validate()


def test_ascending_schedule_with_floor_validates_without_lr_shape():
    from_text("schedule.kind = ascending\nschedule.floor = 0.01\n").validate()
