"""The campaign driver, corpus replay and the ``repro fuzz`` CLI."""

import glob
import os

import pytest

from repro.cli import _resolve_oracles, main
from repro.errors import ReproError
from repro.verify import FuzzCampaign, run_corpus_file
from repro.verify import fuzz as fuzz_mod
from repro.verify.oracles import OracleFailure

CORPUS_DIR = os.path.join(os.path.dirname(__file__), "corpus")
CORPUS_FILES = sorted(glob.glob(os.path.join(CORPUS_DIR, "*.s")))


class TestCampaign:
    def test_clean_sweep(self):
        report = FuzzCampaign(seed=0, iterations=3).run()
        assert report.ok
        assert report.failures == []
        assert "all oracles passed" in report.summary()

    def test_failure_is_shrunk_and_written(self, tmp_path, monkeypatch):
        real_check = fuzz_mod.check_case

        def failing_check(case, oracles=None):
            del case, oracles
            return [OracleFailure("fake", "injected")]

        monkeypatch.setattr(fuzz_mod, "check_case", failing_check)
        # Shrinking against a synthetic failure is covered in
        # test_shrinker; here exercise the write-out path unshrunk.
        campaign = FuzzCampaign(seed=7, iterations=1, shrink=False,
                                corpus_dir=str(tmp_path))
        report = campaign.run()
        assert not report.ok
        (seed, messages, path) = report.failures[0]
        assert seed == 7
        assert "injected" in messages[0]
        assert os.path.exists(path)
        case = fuzz_mod.parse_corpus_text(open(path).read())
        assert case.seed == 7
        # Restore the real oracle: the written case itself is healthy.
        monkeypatch.setattr(fuzz_mod, "check_case", real_check)
        _, failures = run_corpus_file(path)
        assert failures == []


class TestCorpusRegression:
    """Every checked-in reproducer must keep passing all oracles --
    including bit-identical cycles with observers attached/detached."""

    def test_corpus_is_not_empty(self):
        assert len(CORPUS_FILES) >= 5

    @pytest.mark.parametrize(
        "path", CORPUS_FILES, ids=[os.path.basename(p) for p in CORPUS_FILES])
    def test_corpus_case_passes(self, path):
        case, failures = run_corpus_file(path)
        assert failures == [], "\n".join(str(f) for f in failures)
        assert case.seed == int(
            os.path.basename(path)[len("case_seed"):-len(".s")])


class TestCli:
    def test_fuzz_smoke(self, capsys):
        assert main(["fuzz", "--seed", "0", "--iterations", "2"]) == 0
        out = capsys.readouterr().out
        assert "all oracles passed" in out

    def test_replay_corpus_file(self, capsys):
        assert main(["fuzz", "--replay", CORPUS_FILES[0]]) == 0
        assert "all oracles passed" in capsys.readouterr().out

    def test_removed_fast_oracle_rejected(self, capsys):
        with pytest.raises(ReproError, match="unknown oracle 'fast'"):
            _resolve_oracles("fast")
        assert main(["fuzz", "--oracle", "fast", "--iterations", "1"]) == 2
        assert "unknown oracle" in capsys.readouterr().err

    def test_replay_rejects_non_corpus_file(self, tmp_path):
        bogus = tmp_path / "x.s"
        bogus.write_text("s_endpgm\n")
        assert main(["fuzz", "--replay", str(bogus)]) == 2
