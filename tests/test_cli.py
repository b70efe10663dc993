"""Command surface: synth, extract, cv, gamma-sweep, report."""

import builtins
import contextlib
import io
import json
import os
import pathlib
import shutil
import signal

import numpy as np
import pytest

import voxscreen.cli
from test_audio_io import float_wav_bytes
from test_layers import run_check, usable_cpus
from voxscreen import audio_io
from voxscreen.audio_io import load_wav
from voxscreen.cli import build_parser, main
from voxscreen.errors import (ConfigError, CorruptFileError, MalformedHeaderError,
                              NonFiniteLossError, WorkerDiedError)
from voxscreen.features_io import FEATURE_KINDS, read_feature, write_feature


@pytest.fixture(scope="module")
def corpus(tmp_path_factory):
    root = tmp_path_factory.mktemp("corpus")
    assert main(["synth", "8", "8", "--seed", "5", "--duration", "0.6",
                 "--out", str(root)]) == 0
    return root


def _counting(monkeypatch, name, fail_on=None, error=RuntimeError):
    """Replace voxscreen.cli.<name> with a wrapper that counts its calls and
    raises error on call number fail_on."""
    real, calls = getattr(voxscreen.cli, name), []

    def wrapper(*args, **kwargs):
        calls.append(args)
        if len(calls) == fail_on:
            raise error("interrupted")
        return real(*args, **kwargs)
    monkeypatch.setattr(voxscreen.cli, name, wrapper)
    return calls


def _log_opens(monkeypatch, log_dir, suffixes):
    """Make open log each path ending in one of suffixes to log_dir/<pid>, in
    this process and in the workers forked from it, where the parent can read
    it with _opened."""
    real_open = io.open
    log_dir.mkdir()

    def logging_open(file, *args, **kwargs):
        if str(file).endswith(suffixes):
            with real_open(log_dir / str(os.getpid()), "a") as log:
                log.write(f"{file}\n")
        return real_open(file, *args, **kwargs)
    monkeypatch.setattr(io, "open", logging_open)  # what pathlib opens files with
    monkeypatch.setattr(builtins, "open", logging_open)


def _opened(log_dir):
    """{pid: the paths it opened} since the last call, from _log_opens's log."""
    logged = {int(log.name): log.read_text().splitlines() for log in log_dir.iterdir()}
    for pid in logged:
        (log_dir / str(pid)).unlink()
    return logged


def _extract(corpus, out, *flags):
    return main(["extract", "--manifest", str(corpus / "manifest.csv"),
                 "--feature", "mfcc_vector", "--out", str(out), *flags])


def _cv(corpus, out, *flags):
    return main(["cv", "--manifest", str(corpus / "manifest.csv"),
                 "--feature", "mfcc_vector", "--model", "logreg",
                 "--k", "4", "--seed", "1", "--out", str(out), *flags])


class TestSynth:
    def test_writes_clips_and_manifest(self, corpus):
        assert len(list(corpus.glob("*.wav"))) == 16
        assert (corpus / "manifest.csv").exists()
        assert (corpus / "fingerprint.json").exists()

    def test_rerun_identical_bytes(self, corpus, tmp_path):
        again = tmp_path / "again"
        assert main(["synth", "8", "8", "--seed", "5", "--duration", "0.6",
                     "--out", str(again)]) == 0
        assert (again / "manifest.csv").read_bytes() == \
            (corpus / "manifest.csv").read_bytes()
        for wav in corpus.glob("*.wav"):
            assert (again / wav.name).read_bytes() == wav.read_bytes()

    def test_zero_class_is_usage_error(self, tmp_path):
        assert main(["synth", "0", "10", "--out", str(tmp_path / "x")]) == 2

    @pytest.mark.parametrize("duration", ["nan", "inf"])
    def test_non_finite_duration_is_an_error_line(self, tmp_path, capsys, duration):
        assert main(["synth", "1", "1", "--duration", duration,
                     "--out", str(tmp_path / "x")]) == 1
        assert capsys.readouterr().err == \
            f"error: duration is not a finite number of seconds: {duration}\n"
        assert not (tmp_path / "x").exists()

    def test_huge_duration_is_an_error_line(self, tmp_path, capsys):
        """1e300 s once failed in np.arange with a traceback."""
        assert main(["synth", "2", "2", "--duration", "1e300",
                     "--out", str(tmp_path / "x")]) == 1
        assert capsys.readouterr().err == "error: duration 1e+300s outside [0.5, 600.0] s\n"
        assert not (tmp_path / "x").exists()  # refused before its --out was made

    def test_duration_just_above_the_bound_is_an_error_line(self, tmp_path, capsys,
                                                            monkeypatch):
        """Checked against a 1 s bound, so even a missing check allocates little."""
        monkeypatch.setattr(audio_io, "SYNTH_MAX_DURATION_S", 1.0)
        above = repr(float(np.nextafter(1.0, 2.0)))
        assert main(["synth", "1", "1", "--duration", above, "--out", str(tmp_path / "x")]) == 1
        assert capsys.readouterr().err == f"error: duration {above}s outside [0.5, 1.0] s\n"
        assert main(["synth", "1", "1", "--duration", "1.0", "--out", str(tmp_path / "y")]) == 0


class TestExtract:
    def test_vector_features(self, corpus, tmp_path):
        out = tmp_path / "feats"
        assert main(["extract", "--manifest", str(corpus / "manifest.csv"),
                     "--feature", "mfcc_vector", "--out", str(out)]) == 0
        files = sorted(out.glob("*.vxf"))
        assert len(files) == 16
        matrix, kind = read_feature(str(files[0]))
        assert kind == "mfcc_vector"
        assert matrix.shape == (1, 40)
        assert (out / "index.csv").exists()

    def test_rerun_is_noop(self, corpus, tmp_path, capsys):
        out = tmp_path / "feats"
        main(["extract", "--manifest", str(corpus / "manifest.csv"),
              "--feature", "mfcc_vector", "--out", str(out)])
        capsys.readouterr()
        main(["extract", "--manifest", str(corpus / "manifest.csv"),
              "--feature", "mfcc_vector", "--out", str(out)])
        said = capsys.readouterr().out
        assert "16 up to date" in said

    def test_comma_in_clip_path(self, corpus, tmp_path, capsys):
        lines = (corpus / "manifest.csv").read_text().splitlines()
        clip, rest = lines[1].split(",", 1)
        shutil.copy(corpus / clip, tmp_path / "a,b.wav")
        (tmp_path / "manifest.csv").write_text(f'{lines[0]}\n"a,b.wav",{rest}\n')
        assert _extract(tmp_path, tmp_path / "feats") == 0
        assert _extract(tmp_path, tmp_path / "feats") == 0
        assert "1 up to date" in capsys.readouterr().out

    def test_clips_differing_only_in_suffix(self, corpus, tmp_path, capsys, monkeypatch):
        lines = (corpus / "manifest.csv").read_text().splitlines()
        clip, rest = lines[1].split(",", 1)
        for name in ("x.wav", "x.bin"):
            shutil.copy(corpus / clip, tmp_path / name)
        (tmp_path / "manifest.csv").write_text(f"{lines[0]}\nx.wav,{rest}\nx.bin,{rest}\n")
        _log_opens(monkeypatch, tmp_path / "opened", (".wav", ".bin"))
        assert _extract(tmp_path, tmp_path / "feats") == 1
        assert "x.bin: its feature file x.vxf belongs to x.wav" in capsys.readouterr().err
        opened = _opened(tmp_path / "opened")  # the refused clip is never read
        assert [path for paths in opened.values() for path in paths] == [str(tmp_path / "x.wav")]
        assert (tmp_path / "feats" / "index.csv").read_text().splitlines()[1].startswith("x.wav,")

    def test_image_features(self, corpus, tmp_path):
        out = tmp_path / "imgs"
        assert main(["extract", "--manifest", str(corpus / "manifest.csv"),
                     "--feature", "melspec_image", "--out", str(out)]) == 0
        matrix, kind = read_feature(str(sorted(out.glob("*.vxf"))[0]))
        assert kind == "melspec_image"
        assert matrix.shape == (150, 150)
        from voxscreen.pipeline import feature_from_matrix
        assert feature_from_matrix(matrix, "melspec_image") is matrix  # the plane is the feature

    @pytest.mark.parametrize("command", ["extract", "cv"])
    def test_reads_each_clip_once(self, corpus, tmp_path, monkeypatch, command):
        """One read per clip, in the clip pool and on one CPU: the bytes extract
        hashes for index.csv are the bytes it decodes, and cv without --features
        reads each clip it extracts in memory once."""
        _log_opens(monkeypatch, tmp_path / "opened", (".wav",))
        clips = sorted(str(p) for p in corpus.glob("*.wav"))
        assert len(clips) == 16
        for cpus in (2, 1):
            usable_cpus(monkeypatch, cpus)
            run = _extract if command == "extract" else _cv
            assert run(corpus, tmp_path / f"out{cpus}") == 0
            opened = _opened(tmp_path / "opened")
            assert sorted(path for paths in opened.values() for path in paths) == clips
            assert (os.getpid() in opened) == (cpus == 1)

    def test_unreadable_path_isolated(self, corpus, tmp_path, capsys):
        bad_manifest = tmp_path / "bad.csv"
        text = (corpus / "manifest.csv").read_text()
        lines = text.splitlines()
        lines.insert(1, "missing.wav,1,,,")
        bad_manifest.write_text("\n".join(lines) + "\n")
        # clips live next to the manifest, so copy it into the corpus dir
        target = corpus / "bad.csv"
        target.write_text("\n".join(lines) + "\n")
        out = tmp_path / "feats2"
        code = main(["extract", "--manifest", str(target),
                     "--feature", "mfcc_vector", "--out", str(out)])
        err = capsys.readouterr().err
        assert code == 1
        assert "missing.wav" in err
        assert len(list(out.glob("*.vxf"))) == 16  # others processed


class TestCv:
    def test_logreg_report(self, corpus, tmp_path, capsys):
        out = tmp_path / "run"
        code = main(["cv", "--manifest", str(corpus / "manifest.csv"),
                     "--feature", "mfcc_vector", "--model", "logreg",
                     "--k", "4", "--seed", "1", "--out", str(out)])
        assert code == 0
        said = capsys.readouterr().out
        for metric in ("accuracy", "sensitivity", "specificity", "ppv", "npv"):
            assert metric in said
        doc = json.loads((out / "report.json").read_text())
        assert doc["k"] == 4
        assert all("±" in cell or cell == "undefined"
                   for cell in doc["cells"].values())
        assert (out / "report_roc.csv").exists()
        assert (out / "fingerprint.json").exists()

    def test_identical_reruns(self, corpus, tmp_path):
        outs = []
        for name in ("r1", "r2"):
            out = tmp_path / name
            assert main(["cv", "--manifest", str(corpus / "manifest.csv"),
                         "--feature", "mfcc_vector", "--model", "svm",
                         "--k", "4", "--seed", "7", "--out", str(out)]) == 0
            outs.append((out / "report.json").read_bytes())
        assert outs[0] == outs[1]

    def test_cohort_label_in_output(self, corpus, tmp_path, capsys):
        out = tmp_path / "cohort_run"
        code = main(["cv", "--manifest", str(corpus / "manifest.csv"),
                     "--cohort", "covid_vs_cold_symptomatic",
                     "--feature", "mfcc_vector", "--model", "logreg",
                     "--k", "2", "--seed", "1", "--out", str(out)])
        assert code == 0
        assert capsys.readouterr().out == \
            "cohort: covid_vs_cold_symptomatic\n" + (out / "report.txt").read_text()

    def test_unsupported_pair_rejected(self, corpus, tmp_path, capsys):
        code = main(["cv", "--manifest", str(corpus / "manifest.csv"),
                     "--feature", "melspec_image", "--model", "svm",
                     "--k", "2", "--out", str(tmp_path / "x")])
        assert code == 1
        assert "pairing" in capsys.readouterr().err

    def test_reuses_extracted_features(self, corpus, tmp_path):
        feats = tmp_path / "feats"
        main(["extract", "--manifest", str(corpus / "manifest.csv"),
              "--feature", "mfcc_vector", "--out", str(feats)])
        out = tmp_path / "reuse_run"
        assert main(["cv", "--manifest", str(corpus / "manifest.csv"),
                     "--feature", "mfcc_vector", "--features", str(feats),
                     "--model", "logreg", "--k", "4", "--seed", "1",
                     "--out", str(out)]) == 0

    def test_fingerprint_pins_the_features_read(self, corpus, tmp_path):
        feats = tmp_path / "feats"
        _extract(corpus, feats)

        def features_sha256(name):
            assert _cv(corpus, tmp_path / name, "--features", str(feats)) == 0
            doc = json.loads((tmp_path / name / "fingerprint.json").read_text())
            return doc["config"]["features_sha256"]

        first = features_sha256("r1")
        assert features_sha256("r2") == first
        vxf = sorted(feats.glob("*.vxf"))[2]
        matrix, kind = read_feature(str(vxf))
        matrix[0, 5] += 1.0
        write_feature(str(vxf), matrix, kind)  # index.csv still lists it as current
        assert features_sha256("r3") != first

    def test_truncated_feature_file_is_an_error(self, corpus, tmp_path, capsys):
        feats = tmp_path / "feats"
        main(["extract", "--manifest", str(corpus / "manifest.csv"),
              "--feature", "mfcc_vector", "--out", str(feats)])
        vxf = sorted(feats.glob("*.vxf"))[3]
        vxf.write_bytes(vxf.read_bytes()[:40])
        capsys.readouterr()
        code = main(["cv", "--manifest", str(corpus / "manifest.csv"),
                     "--feature", "mfcc_vector", "--features", str(feats),
                     "--model", "logreg", "--k", "4", "--out", str(tmp_path / "x")])
        err = capsys.readouterr().err
        assert code == 1
        assert err.startswith("error:") and vxf.name in err
        assert "Traceback" not in err

    def test_malformed_index_is_an_error(self, corpus, tmp_path, capsys):
        """A row short of cells, or bytes that are not text: cv --features and the
        next extract into the directory both refuse index.csv as corrupt."""
        feats = tmp_path / "feats"
        main(["extract", "--manifest", str(corpus / "manifest.csv"),
              "--feature", "mfcc_vector", "--out", str(feats)])
        cv = ["cv", "--manifest", str(corpus / "manifest.csv"), "--feature", "mfcc_vector",
              "--features", str(feats), "--model", "logreg", "--k", "4",
              "--out", str(tmp_path / "x")]
        extract = ["extract", "--manifest", str(corpus / "manifest.csv"),
                   "--feature", "mfcc_vector", "--out", str(feats)]
        for damage, said in [(b"path,sha256,params,feature_path\nclip.wav,x\n", "line 2"),
                             (b"\xff\xfepath,sha256,params,feature_path\n", "not utf-8 text")]:
            (feats / "index.csv").write_bytes(damage)
            for argv in (cv, extract):
                capsys.readouterr()
                code = main(argv)
                err = capsys.readouterr().err
                assert code == 1 and err.startswith("error:") and said in err, (argv[0], err)
                assert str(feats / "index.csv") in err and "Traceback" not in err
                args = build_parser().parse_args(argv)
                with pytest.raises(CorruptFileError):
                    args.fn(args)

    def test_stale_features_refused(self, corpus, tmp_path, capsys):
        feats = tmp_path / "feats20"
        main(["extract", "--manifest", str(corpus / "manifest.csv"),
              "--feature", "mfcc_vector", "--n-mfcc", "20", "--out", str(feats)])
        capsys.readouterr()
        code = main(["cv", "--manifest", str(corpus / "manifest.csv"),
                     "--feature", "mfcc_vector", "--features", str(feats),
                     "--model", "logreg", "--k", "4", "--out", str(tmp_path / "x")])
        err = capsys.readouterr().err
        assert code == 1
        assert "mfcc_vector:2048:512:64:20" in err
        assert "mfcc_vector:2048:512:64:40" in err
        assert not (tmp_path / "x" / "report.json").exists()

    def test_same_named_clips_in_participant_folders(self, corpus, tmp_path):
        # one folder per participant, the same recording name in each
        folders = tmp_path / "folders"
        lines = (corpus / "manifest.csv").read_text().splitlines()
        rows = [lines[0]]
        for i, line in enumerate(lines[1:]):
            clip, rest = line.split(",", 1)
            (folders / f"p{i:02d}").mkdir(parents=True)
            shutil.copy(corpus / clip, folders / f"p{i:02d}" / "cough.wav")
            rows.append(f"p{i:02d}/cough.wav,{rest}")
        (folders / "manifest.csv").write_text("\n".join(rows) + "\n")
        assert _extract(folders, tmp_path / "feats") == 0
        assert len(list((tmp_path / "feats").glob("*.vxf"))) == 16
        assert (tmp_path / "feats" / "p03%2Fcough.vxf").exists()
        assert _cv(folders, tmp_path / "disk", "--features", str(tmp_path / "feats")) == 0
        assert _cv(folders, tmp_path / "memory") == 0
        assert (tmp_path / "disk" / "report.json").read_bytes() == \
            (tmp_path / "memory" / "report.json").read_bytes()

    def test_directory_without_index_refused(self, corpus, tmp_path, capsys):
        _extract(corpus, tmp_path / "feats")
        (tmp_path / "feats" / "index.csv").unlink()
        capsys.readouterr()
        assert _cv(corpus, tmp_path / "x", "--features", str(tmp_path / "feats")) == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and "index.csv" in err
        assert not (tmp_path / "x" / "report.json").exists()

    def test_interrupted_extract_leaves_no_index(self, corpus, tmp_path, monkeypatch):
        feats = tmp_path / "feats"
        assert _extract(corpus, feats) == 0
        _counting(monkeypatch, "extract_matrix", fail_on=3)
        with pytest.raises(RuntimeError):
            _extract(corpus, feats, "--n-mfcc", "20")
        assert not (feats / "index.csv").exists()

    def test_missing_listed_feature_file(self, corpus, tmp_path, capsys):
        feats = tmp_path / "feats"
        _extract(corpus, feats)
        gone = sorted(feats.glob("*.vxf"))[5]
        gone.unlink()
        capsys.readouterr()
        assert _cv(corpus, tmp_path / "x", "--features", str(feats)) == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and gone.name in err
        assert "Traceback" not in err

    def test_force_shape_mismatch_extracts_nothing(self, corpus, tmp_path, monkeypatch,
                                                   capsys):
        calls = _counting(monkeypatch, "extract_matrix")
        code = main(["cv", "--manifest", str(corpus / "manifest.csv"),
                     "--feature", "melspec_image", "--model", "svm", "--force",
                     "--k", "2", "--out", str(tmp_path / "x")])
        assert code == 1 and calls == []
        assert "vector model cannot use 'melspec_image'" in capsys.readouterr().err

    def test_too_few_per_class_for_k_extracts_nothing(self, tmp_path, monkeypatch,
                                                      capsys):
        small = tmp_path / "small"
        assert main(["synth", "3", "3", "--seed", "2", "--duration", "0.6",
                     "--out", str(small)]) == 0
        calls = _counting(monkeypatch, "extract_matrix")
        code = main(["cv", "--manifest", str(small / "manifest.csv"),
                     "--feature", "encoder", "--model", "logreg",
                     "--k", "10", "--out", str(tmp_path / "x")])
        assert code == 1 and calls == []
        assert "class 0 has 3 examples, fewer than k=10" in capsys.readouterr().err

    def test_inapplicable_hyper_flags_rejected(self, corpus, tmp_path, capsys):
        code = main(["cv", "--manifest", str(corpus / "manifest.csv"),
                     "--feature", "mfcc_vector", "--model", "logreg",
                     "--C", "7", "--tol", "3", "--k", "2", "--out", str(tmp_path / "x")])
        err = capsys.readouterr().err
        assert code == 1
        assert "'C'" in err and "epochs, lr" in err


class TestGammaSweep:
    def test_sweep_table(self, corpus, tmp_path, capsys):
        out = tmp_path / "sweep"
        code = main(["gamma-sweep", "--manifest", str(corpus / "manifest.csv"),
                     "--feature", "mfcc_vector",
                     "--gammas", "0.0001,0.001,0.001",
                     "--k", "4", "--seed", "2", "--out", str(out)])
        captured = capsys.readouterr()
        assert code == 0
        assert "duplicate gammas removed" in captured.err
        assert "<- best" in captured.out
        assert (out / "gamma_0.001.json").exists()
        assert (out / "gamma_0.0001.json").exists()

    def test_single_gamma(self, corpus, tmp_path, capsys):
        out = tmp_path / "sweep1"
        assert main(["gamma-sweep", "--manifest", str(corpus / "manifest.csv"),
                     "--feature", "mfcc_vector", "--gammas", "0.001",
                     "--k", "4", "--seed", "2", "--out", str(out)]) == 0
        lines = [l for l in capsys.readouterr().out.splitlines()
                 if l and not l.startswith("gamma")]
        assert len(lines) == 1


    def test_reads_each_feature_once(self, corpus, tmp_path, monkeypatch):
        feats = tmp_path / "feats"
        _extract(corpus, feats)
        calls = _counting(monkeypatch, "read_feature")
        assert main(["gamma-sweep", "--manifest", str(corpus / "manifest.csv"),
                     "--feature", "mfcc_vector", "--features", str(feats),
                     "--gammas", "0.0001,0.001,0.01",
                     "--k", "4", "--seed", "2", "--out", str(tmp_path / "sweep")]) == 0
        assert len(calls) == 16

    def test_fingerprint_pins_feature_and_hyper(self, corpus, tmp_path):
        lines = (corpus / "manifest.csv").read_text().splitlines()
        pos = [l for l in lines[1:] if l.split(",")[1] == "1"]
        neg = [l for l in lines[1:] if l.split(",")[1] == "0"]
        (corpus / "four.csv").write_text("\n".join([lines[0]] + pos[:2] + neg[:2]) + "\n")
        fingerprints = set()
        for name, flags in (("base", []), ("C", ["--C", "2"]),
                            ("n_mfcc", ["--n-mfcc", "20"]),
                            ("encoder", ["--feature", "encoder", "--force"])):
            out = tmp_path / name
            assert main(["gamma-sweep", "--manifest", str(corpus / "four.csv"),
                         "--feature", "mfcc_vector", "--gammas", "0.001",
                         "--k", "2", "--seed", "2", "--out", str(out), *flags]) == 0
            fingerprints.add(json.loads((out / "fingerprint.json").read_text())["fingerprint"])
        assert len(fingerprints) == 4

    def test_interrupted_sweep_leaves_no_fingerprint(self, corpus, tmp_path, monkeypatch):
        """A sweep that stops partway must not leave the fingerprint of an
        earlier run beside its new reports."""
        out = tmp_path / "sweep"
        argv = ["gamma-sweep", "--manifest", str(corpus / "manifest.csv"),
                "--feature", "mfcc_vector", "--gammas", "0.0001,0.001",
                "--k", "4", "--seed", "2", "--out", str(out)]
        assert main(argv) == 0 and (out / "fingerprint.json").exists()
        calls = _counting(monkeypatch, "cross_validate", fail_on=2, error=OSError)
        assert main(argv[:-4] + ["--seed", "3", "--out", str(out)]) == 1
        assert len(calls) == 2
        assert (out / "gamma_0.0001.json").exists()
        assert not list(out.glob("fingerprint*"))

    def test_gammas_sharing_a_report_name_refused(self, corpus, tmp_path, capsys,
                                                  monkeypatch):
        calls = _counting(monkeypatch, "cross_validate")
        out = tmp_path / "sweep"
        assert main(["gamma-sweep", "--manifest", str(corpus / "manifest.csv"),
                     "--feature", "mfcc_vector", "--gammas", "0.001,0.0010000001",
                     "--k", "4", "--seed", "2", "--out", str(out)]) == 1
        assert "gamma_0.001.json" in capsys.readouterr().err
        assert calls == [] and not out.exists()

    def test_infinite_gamma_refused_before_any_fold(self, corpus, tmp_path, capsys,
                                                    monkeypatch):
        calls = _counting(monkeypatch, "cross_validate")
        out = tmp_path / "sweep"
        assert main(["gamma-sweep", "--manifest", str(corpus / "manifest.csv"),
                     "--feature", "mfcc_vector", "--gammas", "1e-3,inf",
                     "--k", "4", "--seed", "2", "--out", str(out)]) == 1
        assert capsys.readouterr().err == ("error: svm hyperparameter gamma=inf: "
                                           "must be finite and greater than 0\n")
        assert calls == [] and not out.exists()

    def test_always_svm(self, corpus, tmp_path):
        with pytest.raises(SystemExit):
            main(["gamma-sweep", "--model", "svm", "--manifest", str(corpus / "manifest.csv"),
                  "--feature", "mfcc_vector", "--gammas", "0.001",
                  "--out", str(tmp_path / "x")])


class TestReport:
    def test_pretty_print(self, corpus, tmp_path, capsys):
        """One renderer: report prints report.txt exactly, and cv prints the
        same text (after a cohort line, when the cohort is not all)."""
        out = tmp_path / "pp"
        capsys.readouterr()
        assert main(["cv", "--manifest", str(corpus / "manifest.csv"),
                     "--feature", "mfcc_vector", "--model", "logreg",
                     "--k", "4", "--seed", "1", "--out", str(out)]) == 0
        cv_said = capsys.readouterr().out
        assert main(["report", str(out / "report.json")]) == 0
        said = capsys.readouterr().out
        assert said == cv_said == (out / "report.txt").read_text()
        lines = said.splitlines()
        assert len(lines) == 10 and lines[0].startswith("fingerprint: ")
        assert "pooled AUC" in said and lines[-1].startswith("mean fold AUC: ")


@pytest.mark.parametrize("argv", [
    ["report", "not json"],
    ["report", '{"fingerprint": "0"}'],
    ["cv", "--cohort", "positives_within_days:abc"],
    ["cv", "--cohort", "positives_within_days:0"],
    ["cv", "--k", "1"],
    ["cv", "--frame-length", "1000"],
    ["cv", "--n-mfcc", "100"],
    ["cv", "--n-mels", "0", "--n-mfcc", "0"],
    ["gamma-sweep", "--gammas", "0.1,abc"],
    ["cv", "--model", "cnn", "--feature", "melspec_image", "--batch", "0"],
    ["cv", "--model", "svm", "--gamma", "-1"],
    ["cv", "--epochs", "0"],
    ["cv", "--lr", "-1"],
    ["cv", "--model", "svm", "--C", "0"],
    ["cv", "--model", "lstm", "--dropout", "1.5"],
    ["gamma-sweep", "--gammas=-0.1,0.1"],
    ["cv", "--cohort", "everyone"],
    ["cv", "--features", "MISLABELLED"],
    ["cv", "--features", "NARROWED"],
    ["cv", "--manifest", "NOT_TEXT"],
])
def test_bad_value_is_an_error_line_not_a_traceback(argv, corpus, tmp_path, capsys):
    command, *flags = argv
    damage = flags[-1]
    if command == "report":
        (tmp_path / "report.json").write_text(flags[0])
        flags = [str(tmp_path / "report.json")]
    else:
        if damage == "NOT_TEXT":  # a manifest in UTF-16, as some spreadsheets save it
            flags[-1] = str(tmp_path / "manifest.csv")
            (tmp_path / "manifest.csv").write_bytes(
                (corpus / "manifest.csv").read_text().encode("utf-16"))
        if damage in ("MISLABELLED", "NARROWED"):
            flags[-1] = str(tmp_path / "feats")
            _extract(corpus, tmp_path / "feats")
            vxfs = sorted((tmp_path / "feats").glob("*.vxf"))
        if damage == "MISLABELLED":  # index and params match, the VXF1 tag does not
            for vxf in vxfs:
                write_feature(str(vxf), read_feature(str(vxf))[0], "encoder")
        if damage == "NARROWED":  # one file keeps 20 of its 40 MFCC columns
            write_feature(str(vxfs[-1]), read_feature(str(vxfs[-1]))[0][:, :20], "mfcc_vector")
        flags = ["--manifest", str(corpus / "manifest.csv"), "--feature", "mfcc_vector",
                 "--k", "4", "--out", str(tmp_path / "out"),
                 *(["--model", "logreg"] if command == "cv" else []), *flags]
    assert main([command, *flags]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ")
    corrupt = command == "report" or damage in ("NARROWED", "NOT_TEXT")
    if damage == "NARROWED":
        assert vxfs[-1].name in err and "(20,)" in err and "(40,)" in err
    args = build_parser().parse_args([command, *flags])
    with pytest.raises(CorruptFileError if corrupt else ConfigError):
        args.fn(args)


def test_non_integer_seed_variable_is_an_error_line(tmp_path, monkeypatch, capsys):
    """build_parser reads VOXSCREEN_SEED for every command's default seed."""
    monkeypatch.setenv("VOXSCREEN_SEED", "abc")
    assert main(["report", str(tmp_path / "report.json")]) == 1
    assert capsys.readouterr().err == "error: VOXSCREEN_SEED='abc' is not an integer\n"
    with pytest.raises(ConfigError):
        build_parser()


def test_nan_sample_clip_fails_instead_of_hanging(tmp_path, capsys):
    """A float WAV with one NaN sample once reached roc_auc, whose loop never
    ended on a NaN score. cv runs in a fresh interpreter with a time limit, so
    a hang fails the suite instead of stalling it."""
    corpus = tmp_path / "corpus"
    assert main(["synth", "4", "4", "--seed", "5", "--duration", "0.6",
                 "--out", str(corpus)]) == 0
    wav = sorted(corpus.glob("*.wav"))[0]
    samples = load_wav(wav.read_bytes()).samples.copy()
    samples[100] = np.nan
    wav.write_bytes(float_wav_bytes(samples))
    run_check(f"import test_cli; test_cli.check_cv_refuses({str(corpus)!r})", {}, timeout=60)
    capsys.readouterr()
    assert _extract(corpus, tmp_path / "feats") == 1
    assert f"FAILED {wav.name}: float data holds NaN samples" in capsys.readouterr().err


def test_cv_load_error_names_the_clip(tmp_path, capsys):
    """cv decodes clips that no index lists; a bad one is named in the error."""
    corpus = tmp_path / "corpus"
    assert main(["synth", "4", "4", "--seed", "5", "--duration", "0.6",
                 "--out", str(corpus)]) == 0
    wav = sorted(corpus.glob("*.wav"))[3]
    samples = load_wav(wav.read_bytes()).samples.copy()
    samples[100] = np.nan
    wav.write_bytes(float_wav_bytes(samples))
    capsys.readouterr()
    assert _cv(corpus, tmp_path / "out") == 1
    err = capsys.readouterr().err
    assert err == f"error: {wav.name}: float data holds NaN samples\n"


def test_pooled_fold_error_is_an_error_line(corpus, tmp_path, monkeypatch, capsys):
    """A typed error raised in a fold that trains in the fold pool reaches
    main with its type, which prints it as an error line."""
    import voxscreen.learners.models as models

    def diverge(*args):
        raise NonFiniteLossError("lstm loss is nan at epoch 1")
    usable_cpus(monkeypatch, 2)
    monkeypatch.setattr(models, "train_lstm", diverge)
    capsys.readouterr()
    assert _cv(corpus, tmp_path / "out", "--model", "lstm") == 1
    err = capsys.readouterr().err
    assert err == "error: lstm loss is nan at epoch 1\n"
    assert not (tmp_path / "out" / "report.json").exists()


def check_cv_refuses(corpus):
    err = io.StringIO()
    with contextlib.redirect_stderr(err):
        code = _cv(pathlib.Path(corpus), pathlib.Path(corpus) / "out")
    assert code == 1 and err.getvalue().startswith("error:"), (code, err.getvalue())
    assert "Traceback" not in err.getvalue()


@pytest.fixture(scope="module")
def pool_corpus(tmp_path_factory):
    """3+3 clips, and bad.csv: the same manifest with a clip cut to 40 bytes
    in the middle."""
    root = tmp_path_factory.mktemp("pool_corpus")
    assert main(["synth", "3", "3", "--seed", "7", "--duration", "0.6",
                 "--out", str(root)]) == 0
    (root / "cut.wav").write_bytes((root / "clip_0000_pos.wav").read_bytes()[:40])
    lines = (root / "manifest.csv").read_text().splitlines()
    lines.insert(4, "cut.wav,1,,,")
    (root / "bad.csv").write_text("\n".join(lines) + "\n")
    return root


def _recording_pids(monkeypatch, pid_dir):
    """Wrap voxscreen.cli.extract_matrix to leave a file named after the pid of
    each process it runs in, which the parent can see also from a worker."""
    real = voxscreen.cli.extract_matrix
    pid_dir.mkdir()

    def wrapper(*args, **kwargs):
        (pid_dir / str(os.getpid())).touch()
        return real(*args, **kwargs)
    monkeypatch.setattr(voxscreen.cli, "extract_matrix", wrapper)


def _outputs(out_dir, said):
    """Every file an extract or cv wrote, by name, and what it printed."""
    return {p.name: p.read_bytes() for p in sorted(out_dir.iterdir())}, said.out, said.err


# each feature kind with a model that reads it, and flags that keep its cv short
CV_RUNS = [("mfcc_vector", ["--model", "logreg"]), ("encoder", ["--model", "logreg"]),
           ("mfcc_image", ["--model", "cnn", "--epochs", "1", "--batch", "2"]),
           ("melspec_image", ["--model", "cnn", "--epochs", "1", "--batch", "2"])]


class TestClipPool:
    """Clips of every feature kind extract in the clip pool on several CPUs and
    serially on one; every byte written and printed is the same."""

    @pytest.mark.parametrize("cpus", [2, 1])
    def test_clips_extract_in_workers_only_on_several_cpus(self, pool_corpus, tmp_path,
                                                           monkeypatch, cpus):
        usable_cpus(monkeypatch, cpus)
        _recording_pids(monkeypatch, tmp_path / "pids")
        for kind in FEATURE_KINDS:
            assert main(["extract", "--manifest", str(pool_corpus / "manifest.csv"),
                         "--feature", kind, "--out", str(tmp_path / kind)]) == 0
            pids = {int(p.name) for p in (tmp_path / "pids").iterdir()}
            assert (os.getpid() in pids) == (cpus == 1) and pids, kind
            for p in (tmp_path / "pids").iterdir():
                p.unlink()

    def test_extract_bytes_and_reruns_match_serial(self, pool_corpus, tmp_path,
                                                   monkeypatch, capsys):
        for kind in FEATURE_KINDS:
            runs = {}
            for cpus in (2, 1):
                usable_cpus(monkeypatch, cpus)
                out = tmp_path / f"{kind}_cpus{cpus}"
                argv = ["extract", "--manifest", str(pool_corpus / "bad.csv"),
                        "--feature", kind, "--out", str(out)]
                capsys.readouterr()
                assert main(argv) == 1
                first = _outputs(out, capsys.readouterr())
                assert main(argv) == 1  # every clip up to date but the cut one
                runs[cpus] = first, _outputs(out, capsys.readouterr())
            assert runs[2] == runs[1], kind
            (files, said, err), (again, said_again, _) = runs[2]
            assert len([name for name in files if name.endswith(".vxf")]) == 6
            assert again == files
            assert said == "extracted 6 features, 0 up to date, 1 failures\n"
            assert said_again == "extracted 0 features, 6 up to date, 1 failures\n"
            assert err == "  FAILED cut.wav: no data chunk found\n"

    def test_cv_report_bytes_match_serial(self, pool_corpus, tmp_path, monkeypatch,
                                          capsys):
        for kind, flags in CV_RUNS:
            runs = {}
            for cpus in (2, 1):
                usable_cpus(monkeypatch, cpus)
                out = tmp_path / f"{kind}_cpus{cpus}"
                capsys.readouterr()
                assert main(["cv", "--manifest", str(pool_corpus / "manifest.csv"),
                             "--feature", kind, *flags, "--k", "3", "--seed", "2",
                             "--out", str(out)]) == 0
                runs[cpus] = _outputs(out, capsys.readouterr())
            assert runs[2] == runs[1], kind
            assert set(runs[2][0]) == {"fingerprint.json", "report.json", "report.txt",
                                       "report_roc.csv"}

    def test_cv_clip_error_keeps_its_type_and_names_the_clip(self, pool_corpus,
                                                             tmp_path, monkeypatch):
        errors = set()
        for cpus in (2, 1):
            usable_cpus(monkeypatch, cpus)
            args = build_parser().parse_args([
                "cv", "--manifest", str(pool_corpus / "bad.csv"), "--feature", "mfcc_vector",
                "--model", "logreg", "--k", "3", "--out", str(tmp_path / "out")])
            with pytest.raises(MalformedHeaderError) as caught:
                args.fn(args)
            errors.add(str(caught.value))
        assert errors == {"cut.wav: no data chunk found"}

    def test_dead_clip_worker_is_a_typed_error_not_a_hang(self, pool_corpus):
        run_check(f"import test_cli; test_cli.check_dead_clip_worker_raises("
                  f"{str(pool_corpus)!r})", {}, timeout=60)


def check_dead_clip_worker_raises(corpus):
    """A clip worker killed by SIGKILL ends extract with WorkerDiedError."""
    with pytest.MonkeyPatch.context() as mp:
        usable_cpus(mp, 2)
        mp.setattr(voxscreen.cli, "extract_matrix",
                   lambda *args, **kwargs: os.kill(os.getpid(), signal.SIGKILL))
        args = build_parser().parse_args([
            "extract", "--manifest", str(pathlib.Path(corpus) / "manifest.csv"),
            "--feature", "mfcc_vector", "--out", str(pathlib.Path(corpus) / "killed")])
        with pytest.raises(WorkerDiedError, match="a clip worker died"):
            args.fn(args)
