"""Config parsing/echo round trips and the command-line surface."""

import argparse
import csv
import hashlib
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from mindalign import cli as cli_mod
from mindalign.cli import _build_parser, main
from mindalign.config import WORK_CAP, echo_config, load_config, parse_config
from mindalign.errors import ConfigError
from mindalign.evaluate import EvalReport
from mindalign.model import load_checkpoint, save_checkpoint
from mindalign.store import read_arrays, write_arrays
from mindalign.train import finetune
from mindalign.world import DATASET_FILE, load_dataset_dir

SMALL_CFG = """\
seed = 11
world.image_hw = 8
world.n_tokens = 8
world.d_token = 32
world.vae_hw = 4
world.n_subjects = 3
world.voxels_min = 40
world.voxels_max = 80
world.n_sessions = 3
world.trials_per_session = 12
world.n_shared = 10
model.h = 32
model.t_steps = 4
model.d_temb = 8
model.d_cond = 32
model.denoiser_hidden = 64
model.denoiser_blocks = 1
model.retr_hidden = 32
model.d_retr = 8
model.ll_hidden = 32
model.ll_trunk = 32
model.teacher_hidden = 16
model.m_tokens = 4
model.d_token_b = 8
train.epochs = 2
train.batch_size = 6
train.samples_per_subject_per_batch = 3
train.held_out_subject = s2
train.n_finetune_sessions = 2
eval.pool_size = 10
eval.repetitions = 3
"""


class TestConfig:
    def test_empty_gives_full_defaults(self):
        rc = parse_config("")
        assert rc.world.image_hw == 16
        assert rc.model.h == 256
        assert rc.train.epochs == 30
        assert rc.eval.pool_size == 50
        assert rc.train.weights.alpha1 == 0.033

    def test_echo_roundtrip_identity(self):
        for text in ("", SMALL_CFG):
            rc = parse_config(text)
            assert parse_config(echo_config(rc)) == rc

    def test_work_cap_admits_exactly_up_to_the_cap(self):
        # SMALL_CFG's epoch is 3 sessions x 12 trials in batches of 3 (the
        # smaller of its two batch sizes): 12 iterations, 999996 in 83333 epochs
        assert parse_config(SMALL_CFG.replace("train.epochs = 2", "train.epochs = 83333")
                            ).train.epochs == 83333
        with pytest.raises(ConfigError, match=r"^train.epochs = 83334 asks for up to "
                                              r"1000008 training iterations"):
            parse_config(SMALL_CFG.replace("train.epochs = 2", "train.epochs = 83334"))
        assert parse_config(f"eval.repetitions = {WORK_CAP}\n").eval.repetitions == WORK_CAP
        with pytest.raises(ConfigError, match="^eval.repetitions = 1000001 is past the cap"):
            parse_config(f"eval.repetitions = {WORK_CAP + 1}\n")

    def test_unknown_key_rejected(self):
        with pytest.raises(ConfigError, match="unknown key"):
            parse_config("train.epoches = 3\n")

    def test_type_error_identifies_key(self):
        with pytest.raises(ConfigError, match="train.epochs"):
            parse_config("train.epochs = soon\n")

    def test_negative_alpha_rejected(self):
        with pytest.raises(ConfigError):
            parse_config("train.alpha1 = -1\n")

    @pytest.mark.parametrize("line", ["train.mixco_beta_a = 0", "train.mixco_beta_b = -1",
                                      "train.alpha2 = -0.5"])
    def test_loss_parameter_out_of_range_rejected(self, line):
        with pytest.raises(ConfigError, match="alpha|mixco_beta"):
            parse_config(line + "\n")

    def test_alpha_and_beta_are_train_fields(self):
        rc = parse_config("train.alpha2 = 0.5\ntrain.mixco_beta_b = 0.25\n")
        assert (rc.train.alpha1, rc.train.alpha2) == (0.033, 0.5)
        assert (rc.train.weights.alpha1, rc.train.weights.alpha2) == (0.033, 0.5)
        assert (rc.train.mixco_beta_a, rc.train.mixco_beta_b) == (0.15, 0.25)

    def test_smooth_sigma_bounded_by_image_size(self):
        assert parse_config("world.image_hw = 4\nworld.smooth_sigma = 4\n"
                            ).world.smooth_sigma == 4.0
        with pytest.raises(ConfigError, match="world.smooth_sigma"):
            parse_config("world.image_hw = 4\nworld.smooth_sigma = 4.5\n")

    def test_pool_size_cross_check(self):
        with pytest.raises(ConfigError, match="pool_size"):
            parse_config("eval.pool_size = 300\nworld.n_shared = 50\n")

    def test_duplicate_key_rejected(self):
        with pytest.raises(ConfigError, match="duplicate"):
            parse_config("seed = 1\nseed = 2\n")

    def test_line_number_in_diagnostics(self):
        with pytest.raises(ConfigError, match="line 2"):
            parse_config("seed = 1\nthis is not a pair\n")

    @pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
    def test_non_finite_float_rejected(self, value):
        with pytest.raises(ConfigError, match="world.noise_sigma"):
            parse_config(f"world.noise_sigma = {value}\n")

    def test_master_seed_derives_streams(self):
        a = parse_config("seed = 1\n")
        b = parse_config("seed = 2\n")
        assert a.train.seed != b.train.seed
        assert a.eval.seed != b.eval.seed
        assert a.world_seed != b.world_seed

    def test_reference_config_echoes_byte_for_byte(self):
        # the committed reference run's echo names every key the config has:
        # a key dropped or renamed fails to parse it or to reproduce it
        path = Path(__file__).resolve().parents[1] / "reference" / "config.txt"
        assert echo_config(load_config(path)) == path.read_text(encoding="utf-8")

    def test_overrides(self, tmp_path):
        (tmp_path / "c.cfg").write_text(SMALL_CFG)
        out = tmp_path / "x"
        # with no data at --data the run stops (exit 3) after echoing its config
        assert main(["finetune", "--config", str(tmp_path / "c.cfg"), "--subject", "s9",
                     "--sessions", "3", "--seed", "5", "--data", str(tmp_path / "absent"),
                     "--checkpoint", str(tmp_path / "absent.me2c"), "--out", str(out)]) == 3
        rc = parse_config((out / "config.txt").read_text())
        assert rc.command == "finetune"
        assert rc.train.held_out_subject == "s9"
        assert rc.train.n_finetune_sessions == 3
        assert rc.seed == 5
        assert rc.train.seed == parse_config("seed = 5\n").train.seed
        assert rc.eval.seed == parse_config("seed = 5\n").eval.seed


def _dirhash(p: Path) -> str:
    h = hashlib.sha256()
    for f in sorted(Path(p).rglob("*")):
        if f.is_file():
            h.update(str(f.relative_to(p)).encode())
            h.update(f.read_bytes())
    return h.hexdigest()


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    root = tmp_path_factory.mktemp("cli")
    (root / "small.cfg").write_text(SMALL_CFG)
    rc = main(["gen-data", "--config", str(root / "small.cfg"),
               "--out", str(root / "data")])
    assert rc == 0
    return root


@pytest.fixture(scope="module")
def checkpoint(workdir):
    assert main(["pretrain", "--config", str(workdir / "small.cfg"),
                 "--data", str(workdir / "data"), "--out", str(workdir / "pre0")]) == 0
    return workdir / "pre0" / "checkpoint.me2c"


def _rebytes(path: Path, change) -> Path:
    path.write_bytes(change(path.read_bytes()))
    return path


def _edit(path: Path, edit) -> Path:
    """Rewrite an array file after ``edit(items, arrays)`` changed its contents."""
    items, arrays = read_arrays(path)
    edit(items, arrays)
    write_arrays(path, items, arrays)
    return path


# each breaks the checkpoint or the dataset file and returns the path it broke
MALFORMED = {
    "checkpoint cut at 7 bytes": lambda ck, ds: _rebytes(ck, lambda raw: raw[:7]),
    "checkpoint cut at 40 bytes": lambda ck, ds: _rebytes(ck, lambda raw: raw[:40]),
    "checkpoint cut at 400 bytes": lambda ck, ds: _rebytes(ck, lambda raw: raw[:400]),
    "checkpoint cut at 4000 bytes": lambda ck, ds: _rebytes(ck, lambda raw: raw[:4000]),
    "checkpoint one byte short": lambda ck, ds: _rebytes(ck, lambda raw: raw[:-1]),
    "checkpoint with a trailing byte": lambda ck, ds: _rebytes(
        ck, lambda raw: raw + b"\0"),
    "checkpoint missing a key": lambda ck, ds: _edit(
        ck, lambda items, arrays: items.pop("model.h")),
    "checkpoint key not a number": lambda ck, ds: _edit(
        ck, lambda items, arrays: items.update({"model.h": "wide"})),
    "checkpoint config builds another parameter count": lambda ck, ds: _edit(
        ck, lambda items, arrays: items.update({"model.d_retr": "9"})),
    "checkpoint shapes differ from its config": lambda ck, ds: _edit(
        ck, lambda items, arrays: arrays.update(
            {"retrieval.fc2.W": arrays["retrieval.fc2.W"].T.copy()})),
    "checkpoint names differ from its config": lambda ck, ds: _edit(
        ck, lambda items, arrays: arrays.update({"prior.out.c": arrays.pop("prior.out.b")})),
    "dataset truncated": lambda ck, ds: _rebytes(ds, lambda raw: raw[:len(raw) // 2]),
    "dataset image id out of range": lambda ck, ds: _edit(
        ds, lambda items, arrays: arrays["image_ids.s2"].__setitem__(0, 10 ** 6)),
    # s2's trial 0 is a session-0 training trial, its last one a shared test trial
    "dataset training trial shows a shared image": lambda ck, ds: _edit(
        ds, lambda items, arrays: arrays["image_ids.s2"].__setitem__(0, 0)),
    "dataset shared trial marked as training": lambda ck, ds: _edit(
        ds, lambda items, arrays: arrays["split.s2"].__setitem__(-1, False)),
    "dataset session index outside the world": lambda ck, ds: _edit(
        ds, lambda items, arrays: arrays["session_index.s2"].__setitem__(0, 3)),
    "dataset missing a key": lambda ck, ds: _edit(
        ds, lambda items, arrays: items.pop("world.n_shared")),
    # a voxel range that alone would take 745 GiB to build: the stored block
    # must be compared with the config before anything is built from it
    "dataset world block differs from the config": lambda ck, ds: _edit(
        ds, lambda items, arrays: items.update({"world.voxels_max": "100000000000"})),
}


class TestCLI:
    def test_gen_world_deterministic_manifest(self, workdir):
        for name in ("w1", "w2"):
            assert main(["gen-world", "--config", str(workdir / "small.cfg"),
                         "--out", str(workdir / name)]) == 0
        a = (workdir / "w1" / "world.txt").read_bytes()
        b = (workdir / "w2" / "world.txt").read_bytes()
        assert hashlib.sha256(a).hexdigest() == hashlib.sha256(b).hexdigest()

    def test_gen_data_rerun_bit_exact(self, workdir):
        assert main(["gen-data", "--config", str(workdir / "data" / "config.txt"),
                     "--out", str(workdir / "data2")]) == 0
        assert _dirhash(workdir / "data") == _dirhash(workdir / "data2")

    def test_full_pipeline_and_echo_reruns(self, workdir):
        cfg = str(workdir / "small.cfg")
        data = str(workdir / "data")
        assert main(["pretrain", "--config", cfg, "--data", data,
                     "--out", str(workdir / "pre")]) == 0
        assert main(["finetune", "--config", cfg, "--data", data,
                     "--checkpoint", str(workdir / "pre" / "checkpoint.me2c"),
                     "--subject", "s2", "--sessions", "2",
                     "--out", str(workdir / "ft")]) == 0
        assert main(["eval", "--config", cfg, "--data", data,
                     "--checkpoint", str(workdir / "ft" / "checkpoint.me2c"),
                     "--subject", "s2", "--out", str(workdir / "ev")]) == 0
        assert (workdir / "ev" / "report.txt").exists()
        # one array file keeps the unquantized images next to the PPMs
        recons = workdir / "ev" / "recons"
        assert not list(recons.glob("*.f32"))
        _, arrays = read_arrays(recons / "images.bin")
        assert list(arrays) == ["recon", "truth"]
        for name, images in arrays.items():
            assert images.shape == (10, 8, 8, 3)
            ppm = np.frombuffer((recons / f"{name}_003.ppm").read_bytes()[-192:], np.uint8)
            np.testing.assert_allclose(ppm.reshape(8, 8, 3) / 255.0, images[3],
                                       atol=0.5 / 255 + 1e-6)
        # rerunning each stage from its own echoed config reproduces outputs
        assert main(["finetune", "--config", str(workdir / "ft" / "config.txt"),
                     "--out", str(workdir / "ft2")]) == 0
        assert ((workdir / "ft" / "checkpoint.me2c").read_bytes()
                == (workdir / "ft2" / "checkpoint.me2c").read_bytes())
        assert ((workdir / "ft" / "trainlog.csv").read_bytes()
                == (workdir / "ft2" / "trainlog.csv").read_bytes())

    def test_subject_leak_exit_code(self, workdir):
        cfg = str(workdir / "small.cfg")
        rc = main(["finetune", "--config", cfg, "--data", str(workdir / "data"),
                   "--checkpoint", str(workdir / "pre" / "checkpoint.me2c"),
                   "--subject", "s0", "--sessions", "1",
                   "--out", str(workdir / "leak")])
        assert rc == 3

    def test_config_error_exit_code(self, workdir, tmp_path):
        bad = tmp_path / "bad.cfg"
        bad.write_text("train.alpha1 = -1\n")
        assert main(["gen-world", "--config", str(bad),
                     "--out", str(tmp_path / "o")]) == 2

    def test_negative_weight_decay_exits_2(self, tmp_path, capsys):
        bad = tmp_path / "bad.cfg"
        bad.write_text(SMALL_CFG + "train.ridge_weight_decay = -0.01\n")
        assert main(["gen-world", "--config", str(bad),
                     "--out", str(tmp_path / "o")]) == 2
        assert "train.ridge_weight_decay" in capsys.readouterr().err

    def test_unknown_flag_exits_2(self, workdir):
        proc = subprocess.run(
            [sys.executable, "-m", "mindalign.cli", "gen-world", "--nope", "x",
             "--out", str(workdir / "nf")],
            capture_output=True, text=True)
        assert proc.returncode == 2
        assert "usage" in proc.stderr.lower()

    def test_input_dataset_never_mutated(self, workdir):
        before = _dirhash(workdir / "data")
        assert main(["scratch", "--config", str(workdir / "small.cfg"),
                     "--data", str(workdir / "data"), "--subject", "s2",
                     "--sessions", "2", "--out", str(workdir / "scr")]) == 0
        assert _dirhash(workdir / "data") == before

    def test_mismatched_world_block_rejected(self, workdir, tmp_path):
        other = tmp_path / "other.cfg"
        other.write_text(SMALL_CFG.replace("world.n_shared = 10",
                                           "world.n_shared = 8")
                         .replace("eval.pool_size = 10", "eval.pool_size = 8"))
        rc = main(["pretrain", "--config", str(other),
                   "--data", str(workdir / "data"), "--out", str(tmp_path / "o")])
        assert rc == 3

    def test_scaling_outputs(self, workdir):
        rc = main(["scaling", "--config", str(workdir / "small.cfg"),
                   "--data", str(workdir / "data"), "--subject", "s2",
                   "--sessions", "1,3", "--arms", "pretrained,scratch",
                   "--out", str(workdir / "sc")])
        assert rc == 0
        for arm in ("pretrained", "scratch"):
            for k in (1, 3):
                assert (workdir / "sc" / f"report_{arm}_k{k}.txt").exists()
        with open(workdir / "sc" / "curve.csv", newline="") as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == ["arm", "k_sessions", "metric_name", "value", "seed"]
        # each value is written as the repr of the float it parses back to
        assert all(repr(float(row[3])) == row[3] for row in rows[1:])

    def test_ablate_outputs(self, workdir):
        assert main(["ablate", "--config", str(workdir / "small.cfg"),
                     "--data", str(workdir / "data"), "--subject", "s2",
                     "--sessions", "2", "--variants", "Ret,All",
                     "--out", str(workdir / "ab1")]) == 0
        rows = (workdir / "ab1" / "summary.csv").read_text().splitlines()
        assert rows[0] == "variant,metric_name,value"
        assert {row.split(",")[0] for row in rows[1:]} == {"Ret", "All"}
        assert (workdir / "ab1" / "report_Ret.txt").exists()
        assert (workdir / "ab1" / "report_All.txt").exists()

    def test_summary_csv_round_trips_every_value(self, workdir, tmp_path, monkeypatch):
        # values whose repr needs 17 digits or an exponent, a numpy float among them
        metrics = {"Ret": {"image_retrieval": 1 / 3,
                           "brain_retrieval": np.float64(0.1) + 0.2},
                   "All": {"ssim": -1e300, "pixcorr": 2.0 ** -40}}
        monkeypatch.setattr(cli_mod, "ablation_run", lambda *args, **kwargs: {
            variant: EvalReport(metrics=dict(m), protocol={})
            for variant, m in metrics.items()})
        assert main(["ablate", "--config", str(workdir / "small.cfg"),
                     "--data", str(workdir / "data"), "--out", str(tmp_path / "ab")]) == 0
        with open(tmp_path / "ab" / "summary.csv", newline="") as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == ["variant", "metric_name", "value"]
        assert [(variant, name, float(value)) for variant, name, value in rows[1:]] == [
            (variant, name, value) for variant, m in metrics.items()
            for name, value in sorted(m.items())]

    @pytest.mark.parametrize("command", ["finetune", "scratch", "eval", "scaling",
                                         "ablate"])
    def test_unknown_subject_exits_3(self, workdir, checkpoint, tmp_path, capsys,
                                     command):
        args = [command, "--config", str(workdir / "small.cfg"),
                "--data", str(workdir / "data"), "--subject", "s9",
                "--out", str(tmp_path / "o")]
        if command in ("finetune", "eval"):
            args += ["--checkpoint", str(checkpoint)]
        assert main(args) == 3
        err = capsys.readouterr().err
        assert err == "data error: subject 's9' not in dataset directory\n"

    @pytest.mark.parametrize("flag, code", [("--config", 2), ("--data", 3),
                                            ("--checkpoint", 3)])
    def test_missing_path_exits_cleanly(self, workdir, checkpoint, tmp_path, capsys,
                                        flag, code):
        paths = {"--config": str(workdir / "small.cfg"),
                 "--data": str(workdir / "data"), "--checkpoint": str(checkpoint)}
        paths[flag] = str(tmp_path / "missing")
        args = ["eval", "--subject", "s2", "--out", str(tmp_path / "o")]
        for name, path in paths.items():
            args += [name, path]
        assert main(args) == code
        err = capsys.readouterr().err
        assert err.count("\n") == 1
        assert "cannot read" in err and str(tmp_path / "missing") in err

    def test_out_naming_a_file_exits_2(self, workdir, tmp_path, capsys):
        taken = tmp_path / "taken"
        taken.write_text("")
        assert main(["gen-world", "--config", str(workdir / "small.cfg"),
                     "--out", str(taken)]) == 2
        assert capsys.readouterr().err == (f"config error: cannot create {taken}: "
                                           f"File exists\n")

    @pytest.mark.parametrize("subject", ["s2 # x", "a\nb", "s2\u2028"])
    def test_unwritable_echo_value_exits_2(self, workdir, tmp_path, capsys, subject):
        # the echo must reproduce the run, so a value it cannot hold is refused
        # before the output directory exists
        out = tmp_path / "o"
        assert main(["scratch", "--config", str(workdir / "small.cfg"),
                     "--data", str(workdir / "data"), "--subject", subject,
                     "--out", str(out)]) == 2
        assert not out.exists()
        err = capsys.readouterr().err
        assert err.startswith(f"config error: 'train.held_out_subject' = {subject!r} ")
        assert err.count("\n") == 1

    def test_config_not_utf8_exits_2(self, tmp_path, capsys):
        bad = tmp_path / "bad.cfg"
        bad.write_bytes(b"\xff\xfeseed = 1\n")
        assert main(["gen-world", "--config", str(bad), "--out", str(tmp_path / "o")]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"config error: {bad}: not UTF-8 text")
        assert err.count("\n") == 1

    @pytest.mark.parametrize("case", sorted(MALFORMED))
    def test_malformed_file_exits_3(self, workdir, checkpoint, tmp_path, capsys, case):
        data = tmp_path / "data"
        data.mkdir()
        shutil.copy(workdir / "data" / DATASET_FILE, data / DATASET_FILE)
        ck = tmp_path / "c.me2c"
        shutil.copy(checkpoint, ck)
        bad = MALFORMED[case](ck, data / DATASET_FILE)
        assert main(["eval", "--config", str(workdir / "small.cfg"), "--data", str(data),
                     "--checkpoint", str(ck), "--subject", "s2",
                     "--out", str(tmp_path / "o")]) == 3
        err = capsys.readouterr().err
        assert err.startswith(f"data error: {bad}: ")
        assert err.count("\n") == 1

    @pytest.mark.skipif(not Path("/dev/zero").exists(), reason="no /dev/zero")
    def test_endless_checkpoint_exits_3(self, workdir, tmp_path, capsys):
        # refused at its magic, not read until memory runs out
        assert main(["eval", "--config", str(workdir / "small.cfg"),
                     "--data", str(workdir / "data"), "--checkpoint", "/dev/zero",
                     "--subject", "s2", "--out", str(tmp_path / "o")]) == 3
        assert capsys.readouterr().err == ("data error: /dev/zero: not an array file "
                                           "(bad magic)\n")

    def test_cli_finetune_equals_library_finetune_of_loaded_files(self, workdir,
                                                                  checkpoint, tmp_path):
        """The files are the one f32 boundary: past them, the CLI and the library
        take the same path bit for bit."""
        assert main(["finetune", "--config", str(workdir / "small.cfg"),
                     "--data", str(workdir / "data"), "--checkpoint", str(checkpoint),
                     "--subject", "s2", "--sessions", "2",
                     "--out", str(tmp_path / "cli")]) == 0
        world, datasets = load_dataset_dir(workdir / "data",
                                           parse_config(SMALL_CFG).world)
        mp, log = finetune(load_checkpoint(checkpoint), world, datasets["s2"], 2,
                           parse_config(SMALL_CFG).train)
        save_checkpoint(mp, tmp_path / "lib.me2c")
        log.write_csv(tmp_path / "lib.csv")
        assert ((tmp_path / "cli" / "checkpoint.me2c").read_bytes()
                == (tmp_path / "lib.me2c").read_bytes())
        assert ((tmp_path / "cli" / "trainlog.csv").read_bytes()
                == (tmp_path / "lib.csv").read_bytes())


# -- argv fuzz ---------------------------------------------------------------

def _subcommand_flags() -> dict[str, list[str]]:
    """Each real subcommand and the long flags its parser accepts."""
    sub = next(a for a in _build_parser()._actions
               if isinstance(a, argparse._SubParsersAction))
    return {name: [opt for action in p._actions for opt in action.option_strings
                   if opt.startswith("--") and opt != "--help"]
            for name, p in sub.choices.items()}


SUBCOMMAND_FLAGS = _subcommand_flags()
# argv text as a shell passes it: no NUL, and undecodable bytes arrive as
# lone surrogates; no "/", so a junk --out name stays inside the fuzz root
_ARG_TEXT = st.text(st.one_of(st.sampled_from(["-", ",", "=", " ", "0", "s", "\udcff"]),
                              st.characters(blacklist_categories=("Cs",),
                                            blacklist_characters="\x00/")), max_size=12)
_NOT_HELP = _ARG_TEXT.filter(lambda t: t != "-h" and not (
    len(t) > 2 and "--help".startswith(t)))


@pytest.fixture(scope="module")
def fuzz_root(tmp_path_factory):
    """Config, data and checkpoint paths an argv may name: one small valid
    config, everything else missing or garbage, so no command trains."""
    root = tmp_path_factory.mktemp("argv")
    (root / "small.cfg").write_text(SMALL_CFG)
    (root / "garbage.cfg").write_bytes(b"seed = = 1\n\xff\x00")
    (root / "garbage.bin").write_bytes(b"mindalign-arrays\n" + bytes(range(256)))
    (root / "garbage_data").mkdir()
    (root / "garbage_data" / DATASET_FILE).write_bytes(b"\x93NUMPY junk")
    (root / "out").mkdir()
    return root


# values by flag: --config, --data and --checkpoint name files under the fuzz
# root; --config is mostly the valid one, and the other flags' values are
# mostly well-formed, so that most argvs reach a later check
_VALUES = {
    "--config": st.sampled_from(["small.cfg"] * 4 + ["garbage.cfg", "garbage.bin",
                                                     "missing.cfg", "out"]),
    "--data": st.sampled_from(["garbage_data", "garbage.bin", "missing", "out"]),
    "--checkpoint": st.sampled_from(["garbage.bin", "garbage_data", "missing.me2c"]),
    "--seed": st.integers(-2 ** 70, 2 ** 70).map(str) | _NOT_HELP,
    "--sessions": st.lists(st.integers(-2, 9), max_size=3).map(
        lambda ks: ",".join(map(str, ks))) | _NOT_HELP,
    "--subject": st.sampled_from(["s0", "s2", "s9", ""]) | _NOT_HELP,
    "--arms": st.sampled_from(["pretrained", "scratch,pretrained", "bogus", ","]) | _NOT_HELP,
    "--variants": st.sampled_from(["Ret,All", "All", "Nope", ""]) | _NOT_HELP,
}
_PATH_FLAGS = ("--config", "--data", "--checkpoint")


@settings(derandomize=True, deadline=None, max_examples=200)
@given(command=st.sampled_from(sorted(SUBCOMMAND_FLAGS)), config=_VALUES["--config"],
       out=_NOT_HELP, options=st.fixed_dictionaries({}, optional={
           flag: value for flag, value in _VALUES.items() if flag != "--config"}),
       junk=st.integers(0, 3).flatmap(lambda k: st.tuples(st.integers(0, 99), _NOT_HELP)
                                       if k == 0 else st.none()))
@example(command="ablate", config="small.cfg", out="", options={"--subject": "\udcff"},
         junk=None)
def test_fuzzed_argv_exits_with_a_contract_code(fuzz_root, command, config, out,
                                                options, junk):
    """Every argv ends in exit 0, 2, 3 or 4 (argparse exits 2), never a traceback.

    ``options`` holds values for any flags; the subcommand takes those it has.
    ``junk``, if drawn, is one more argument inserted at a drawn position.
    """
    argv = [command, "--config", str(fuzz_root / config),
            "--out", str(fuzz_root / "out" / out)]
    for flag, value in options.items():
        if flag in SUBCOMMAND_FLAGS[command]:
            argv += [flag, str(fuzz_root / value) if flag in _PATH_FLAGS else value]
    if junk is not None:
        argv.insert(1 + junk[0] % len(argv), junk[1])
    try:
        code = main(argv)
    except SystemExit as exc:
        assert exc.code == 2, argv
        return
    assert code in (0, 2, 3, 4), argv


# -- flags are config keys ---------------------------------------------------

# the key each flag sets and a value to set it to; scaling's --sessions sets
# the session grid
FLAG_CASES = {
    "--seed": ("seed", "5"),
    "--data": ("paths.data", "missing-data"),
    "--checkpoint": ("paths.checkpoint", "missing.me2c"),
    "--subject": ("train.held_out_subject", "s1"),
    "--sessions": ("train.n_finetune_sessions", "3"),
    "scaling --sessions": ("scaling.sessions", "1,3"),
    "--arms": ("scaling.arms", "scratch"),
    "--variants": ("ablate.variants", "Ret,All"),
}


@pytest.mark.parametrize("command, flag", [
    (command, flag) for command, flags in sorted(SUBCOMMAND_FLAGS.items())
    for flag in flags if flag not in ("--config", "--out")])
def test_flag_equals_its_config_key(tmp_path, command, flag):
    """A flag gives the same outputs, config echo included, as its value
    written under its key in the --config file."""
    key, value = FLAG_CASES.get(f"{command} {flag}", FLAG_CASES[flag])
    if key.startswith("paths."):
        value = str(tmp_path / value)
    # with no data at paths.data the run stops (exit 3) after echoing its config
    base = (SMALL_CFG + f"paths.data = {tmp_path / 'absent'}\n"
            + f"paths.checkpoint = {tmp_path / 'absent.me2c'}\n")
    others = [line for line in base.splitlines() if not line.startswith(f"{key} ")]
    (tmp_path / "flag.cfg").write_text(base)
    (tmp_path / "key.cfg").write_text("\n".join([*others, f"{key} = {value}"]) + "\n")
    by_flag = main([command, "--config", str(tmp_path / "flag.cfg"), flag, value,
                    "--out", str(tmp_path / "by_flag")])
    by_key = main([command, "--config", str(tmp_path / "key.cfg"),
                   "--out", str(tmp_path / "by_key")])
    assert by_flag == by_key
    echo = (tmp_path / "by_flag" / "config.txt").read_text()
    assert f"{key} = {value}" in echo.splitlines()
    assert _dirhash(tmp_path / "by_flag") == _dirhash(tmp_path / "by_key")


def test_out_flag_is_paths_out(tmp_path):
    """--out sets paths.out, which the echo never records."""
    (tmp_path / "plain.cfg").write_text(SMALL_CFG)
    (tmp_path / "out.cfg").write_text(SMALL_CFG + f"paths.out = {tmp_path / 'file'}\n")
    for name in ("plain", "out"):
        assert main(["gen-world", "--config", str(tmp_path / f"{name}.cfg"),
                     "--out", str(tmp_path / name)]) == 0
    assert not (tmp_path / "file").exists()
    assert _dirhash(tmp_path / "plain") == _dirhash(tmp_path / "out")


@pytest.mark.parametrize("command", sorted(SUBCOMMAND_FLAGS))
def test_empty_out_exits_2_and_writes_nothing(tmp_path, monkeypatch, capsys, command):
    # Path("") is the current directory, so an empty --out must stop the
    # command before it writes anything there
    monkeypatch.chdir(tmp_path)
    assert main([command, "--out", ""]) == 2
    assert capsys.readouterr().err == ("config error: this command needs --out "
                                       "(or paths.out)\n")
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("argv, line", [
    pytest.param(["scaling", "--sessions", "1,,3"], "scaling.sessions = 1,3",
                 id="empty-grid-entry"),
    pytest.param(["scratch", "--subject", ""], "train.held_out_subject = ",
                 id="empty-subject"),
    pytest.param(["scaling", "--arms", ""], "scaling.arms = ", id="empty-arms"),
    pytest.param(["ablate", "--variants", ""], "ablate.variants = ", id="empty-variants"),
])
def test_flag_value_reads_as_in_a_file(tmp_path, argv, line):
    # with no data at --data the run stops (exit 3) after echoing its config
    assert main([*argv, "--data", str(tmp_path / "absent"), "--out", str(tmp_path / "o")]) == 3
    assert line in (tmp_path / "o" / "config.txt").read_text().splitlines()


@pytest.mark.parametrize("argv, key", [
    pytest.param(["gen-world", "--seed", "x"], "seed", id="seed"),
    pytest.param(["finetune", "--sessions", "x"], "train.n_finetune_sessions",
                 id="sessions"),
])
def test_malformed_flag_value_names_its_key(tmp_path, capsys, argv, key):
    assert main([*argv, "--out", str(tmp_path / "o")]) == 2
    assert capsys.readouterr().err == f"config error: key {key!r}: expected int, got 'x'\n"
    assert not (tmp_path / "o").exists()


# conftest's tiny world and model, one epoch at a learning rate that leaves
# float64 weights beyond float32's range after the last step
OVERFLOW_CFG = """\
world.n_tokens = 8
world.d_token = 32
world.image_hw = 8
world.vae_hw = 4
world.n_subjects = 4
world.voxels_min = 40
world.voxels_max = 80
world.n_sessions = 4
world.trials_per_session = 20
world.n_shared = 16
model.h = 64
model.t_steps = 8
model.d_cond = 64
model.denoiser_hidden = 128
model.retr_hidden = 64
model.d_retr = 16
model.ll_hidden = 64
model.ll_trunk = 64
model.teacher_hidden = 32
model.m_tokens = 6
model.d_token_b = 16
train.epochs = 1
train.lr = 1e300
train.held_out_subject = s3
eval.pool_size = 10
"""


def test_checkpoint_not_finite_as_float32_exits_4_and_is_not_written(tmp_path, capsys):
    # a checkpoint its own reader would reject is never written
    cfg = tmp_path / "overflow.cfg"
    cfg.write_text(OVERFLOW_CFG)
    assert main(["gen-data", "--config", str(cfg), "--out", str(tmp_path / "data")]) == 0
    out = tmp_path / "s"
    assert main(["scratch", "--config", str(cfg), "--data", str(tmp_path / "data"),
                 "--out", str(out)]) == 4
    err = capsys.readouterr().err
    assert err.startswith(f"numeric error: {out / 'checkpoint.me2c'}: array '")
    assert err.endswith("' holds a non-finite value\n")
    assert err.count("\n") == 1
    assert not (out / "checkpoint.me2c").exists()


def test_layernorm_variance_overflow_exits_4_in_one_line(tmp_path, capsys):
    # at this learning rate the first steps leave weights whose activations'
    # squared deviations overflow inside a layernorm: one line names the op,
    # the iteration, the phase and the part of the step
    cfg = tmp_path / "overflow.cfg"
    cfg.write_text(SMALL_CFG.replace("train.epochs = 2", "train.epochs = 1")
                   + "train.lr = 1e300\n")
    assert main(["gen-data", "--config", str(cfg), "--out", str(tmp_path / "data")]) == 0
    capsys.readouterr()
    out = tmp_path / "s"
    assert main(["scratch", "--config", str(cfg), "--data", str(tmp_path / "data"),
                 "--out", str(out)]) == 4
    assert capsys.readouterr().err == ("numeric error: non-finite value in layernorm "
                                       "variance (iteration 1, softclip, forward)\n")
    assert not (out / "checkpoint.me2c").exists()


# Each config that no command can run is refused at parse, by every command,
# before anything is written, in one line that names the last key set. A key
# SMALL_CFG sets has its line replaced, or the parse would stop at the
# duplicate.
@pytest.mark.parametrize("command, line", [
    ("scratch", "train.mixco_beta_a = 0"),
    ("gen-data", "train.mixco_beta_a = 0"),
    ("gen-data", "world.smooth_sigma = 1e10"),
    ("gen-data", "model.t_steps = 8; model.schedule = linear"),
    ("scratch", "model.t_steps = 8; model.schedule = linear"),
    ("gen-data", "model.ll_seed_hw = 3"),
    ("scratch", "model.ll_seed_hw = 3"),
    ("gen-world", "world.n_subjects = 100"),
    ("gen-data", "world.n_subjects = 100"),
    ("gen-data", "ablate.variants = Bogus"),
    ("ablate", "ablate.variants = Bogus"),
    ("gen-data", "scaling.arms = bogus"),
    ("scaling", "scaling.arms = bogus"),
    ("gen-data", "scaling.sessions = ,"),
    ("scaling", "scaling.sessions = ,"),
    ("scratch", "train.n_finetune_sessions = 0"),
    ("scratch", "train.n_finetune_sessions = -1"),
    ("scaling", "scaling.sessions = 0,1"),
    # sizes past numpy's index range (2**70 elements and more)
    ("gen-data", f"world.vae_hw = {2 ** 70}"),
    ("gen-data", f"world.voxels_max = {2 ** 70}"),
    ("gen-data", f"world.trials_per_session = {2 ** 70}"),
    ("scratch", f"model.h = {2 ** 70}"),
    ("scratch", f"model.t_steps = {2 ** 70}"),
    ("scratch", f"model.d_retr = {2 ** 70}"),
    # sizes numpy can index but memory cannot hold: 65.5 TiB of backbone
    # weights, and a 543 GiB encoder
    ("gen-world", "model.h = 3000000"),
    ("scratch", "model.h = 3000000"),
    ("gen-world", "world.image_hw = 300; world.n_tokens = 300; world.d_token = 900"),
    ("gen-data", "world.image_hw = 300; world.n_tokens = 300; world.d_token = 900"),
    # the first step count whose cosine schedule reaches its floor twice
    ("gen-data", "model.t_steps = 1558451"),
    ("scratch", "model.t_steps = 1558451"),
    # work past the cap: a run that would never end, a list of 2**40 scores,
    # and the first epoch count past it (83334 x 12 iterations)
    ("scratch", f"train.epochs = {2 ** 70}"),
    ("gen-data", "train.epochs = 83334"),
    ("eval", f"eval.repetitions = {2 ** 70}"),
    ("eval", f"eval.repetitions = {2 ** 40}"),
    ("scratch", ""),  # no --data
])
def test_out_of_range_parameter_exits_2_and_writes_nothing(tmp_path, capsys, command,
                                                           line):
    settings = dict(item.split(" = ") for item in line.split("; ") if item)
    kept = [text for text in SMALL_CFG.splitlines() if text.split(" = ")[0] not in settings]
    cfg = tmp_path / "bad.cfg"
    cfg.write_text("".join(f"{text}\n" for text in kept)
                   + "".join(f"{key} = {value}\n" for key, value in settings.items()))
    out = tmp_path / "s"
    assert main([command, "--config", str(cfg), "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error: ") and err.count("\n") == 1
    assert (list(settings)[-1] if settings else "--data") in err
    assert not out.exists()


def test_one_row_pretraining_batch_exits_2_in_one_line(tmp_path, capsys):
    # one pretraining subject at one sample per subject: every batch has one
    # row, and the contrastive losses need two
    cfg = tmp_path / "one.cfg"
    cfg.write_text(SMALL_CFG.replace("world.n_subjects = 3", "world.n_subjects = 2")
                   .replace("train.samples_per_subject_per_batch = 3",
                            "train.samples_per_subject_per_batch = 1")
                   .replace("train.held_out_subject = s2", "train.held_out_subject = s1"))
    assert main(["gen-data", "--config", str(cfg), "--out", str(tmp_path / "data")]) == 0
    capsys.readouterr()
    out = tmp_path / "p"
    assert main(["pretrain", "--config", str(cfg), "--data", str(tmp_path / "data"),
                 "--out", str(out)]) == 2
    assert capsys.readouterr().err == (
        "config error: a pretraining batch of 1 subject(s) x 1 sample(s) per subject "
        "has 1 row; the contrastive losses need at least 2\n")
    assert not (out / "checkpoint.me2c").exists()


# A numpy overflow, divide-by-zero or invalid value is a numeric error: the
# run stops with exit 4 and one line, not with a warning beside a result.
@pytest.mark.parametrize("epochs, line, where", [
    # AdamW's steps overflow a matmul in the next forward pass
    pytest.param(3, "train.lr = 1e150",
                 "overflow encountered in matmul (iteration 1, bimixco, forward)",
                 id="3-train.lr = 1e150"),
    # the logits overflow AdamW's second moment, which would freeze the
    # updates and still end in a checkpoint
    pytest.param(2, "train.tau_bimixco = 1e-300",
                 "overflow encountered in multiply (iteration 0, bimixco, optimizer step)",
                 id="2-train.tau_bimixco = 1e-300"),
])
def test_numpy_floating_point_error_exits_4_in_one_line(tmp_path, capsys, epochs, line,
                                                        where):
    cfg = tmp_path / "c.cfg"
    cfg.write_text(SMALL_CFG.replace("train.epochs = 2", f"train.epochs = {epochs}")
                   + line + "\n")
    assert main(["gen-data", "--config", str(cfg), "--out", str(tmp_path / "data")]) == 0
    capsys.readouterr()
    out = tmp_path / "s"
    assert main(["scratch", "--config", str(cfg), "--data", str(tmp_path / "data"),
                 "--out", str(out)]) == 4
    err = capsys.readouterr().err
    assert err == f"numeric error: {where}\n"
    assert not (out / "checkpoint.me2c").exists()


@pytest.mark.parametrize("value", ["1e308", "-0.5", "3.0"])
def test_warmup_fraction_outside_the_unit_interval_exits_2(workdir, tmp_path, capsys,
                                                           value):
    cfg = tmp_path / "c.cfg"
    cfg.write_text(SMALL_CFG.replace("train.epochs = 2", "train.epochs = 1")
                   + f"train.warmup_frac = {value}\n")
    out = tmp_path / "s"
    assert main(["scratch", "--config", str(cfg), "--data", str(workdir / "data"),
                 "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error: train.warmup_frac must lie in [0, 1]")
    assert err.count("\n") == 1
    assert not (out / "checkpoint.me2c").exists()


@pytest.fixture(scope="module")
def scratch_checkpoint(workdir):
    assert main(["scratch", "--config", str(workdir / "small.cfg"), "--subject", "s0",
                 "--data", str(workdir / "data"), "--out", str(workdir / "scr0")]) == 0
    return workdir / "scr0" / "checkpoint.me2c"


@pytest.fixture(scope="module")
def other_worlds(workdir):
    """Data directories of two other worlds: seed 33's s0 has as many voxels
    as seed 11's, seed 12's has fewer."""
    for seed in (33, 12):
        assert main(["gen-data", "--config", str(workdir / "small.cfg"), "--seed", str(seed),
                     "--out", str(workdir / f"data{seed}")]) == 0
    return {seed: workdir / f"data{seed}" for seed in (33, 12)}


@pytest.mark.parametrize("command", ["eval", "finetune"])
@pytest.mark.parametrize("seed", [33, 12])
def test_checkpoint_of_another_world_exits_3(workdir, checkpoint, scratch_checkpoint,
                                             other_worlds, tmp_path, capsys, command, seed):
    # eval reads a model of s0, finetune a pretrained one without s2
    ck, sid = (scratch_checkpoint, "s0") if command == "eval" else (checkpoint, "s2")
    capsys.readouterr()
    out = tmp_path / "o"
    assert main([command, "--config", str(workdir / "small.cfg"), "--subject", sid,
                 "--data", str(other_worlds[seed]), "--checkpoint", str(ck),
                 "--out", str(out)]) == 3
    ck_seed = load_checkpoint(ck).meta["world_seed"]
    data_world, _ = load_dataset_dir(other_worlds[seed], parse_config(SMALL_CFG).world)
    err = capsys.readouterr().err
    assert err == (f"data error: {ck}: checkpoint was trained on another world (world "
                   f"seed {ck_seed}) than the data directory's (world seed "
                   f"{data_world.seed})\n")
    assert not (out / "report.txt").exists()
    assert not (out / "checkpoint.me2c").exists()


def test_sampling_overflow_exits_4_naming_op_and_step(workdir, scratch_checkpoint, tmp_path,
                                                      capsys):
    # the denoiser's hidden-path weights scaled to 1e38, within float32, so
    # the checkpoint saves; their products grow each sampling step until one
    # overflows
    mp = load_checkpoint(scratch_checkpoint)
    for name in ("prior.inp.W", "prior.res0.W", "prior.out.W"):
        w = mp.params[name].data
        w *= 1e38 / np.abs(w).max()
    save_checkpoint(mp, tmp_path / "big.me2c")
    capsys.readouterr()
    out = tmp_path / "e"
    assert main(["eval", "--config", str(workdir / "small.cfg"), "--subject", "s0",
                 "--data", str(workdir / "data"), "--checkpoint", str(tmp_path / "big.me2c"),
                 "--out", str(out)]) == 4
    assert capsys.readouterr().err == ("numeric error: overflow encountered in matmul "
                                       "(sampling step 1 of 4)\n")
    assert not (out / "report.txt").exists()
