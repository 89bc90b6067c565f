"""Experiment scripts: public imports, streams, and end-to-end runs."""

import importlib.util
from pathlib import Path

import pytest

from walklab.rng import SplitMix64

SCRIPTS = Path(__file__).resolve().parent.parent / "scripts"


def load_script(name):
    spec = importlib.util.spec_from_file_location(name, SCRIPTS / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize("name", ["run_robustness_sweep", "run_cover_experiment"])
def test_scripts_use_only_public_api(name):
    text = (SCRIPTS / f"{name}.py").read_text()
    assert "sys.path" not in text
    assert "import _" not in text and "walklab.cli" not in text
    assert "PYTHONPATH=src" in text


@pytest.mark.parametrize("seed", [42, 0, -3])
def test_robustness_sweep_subset_stream_aliases_no_weighting(monkeypatch, capsys, seed):
    # every stream the sweep draws from (one per weighting, one for the
    # subset sampler) must be distinct; the sampler used to share weighting
    # 0's stream because seed ^ 0 == seed
    script = load_script("run_robustness_sweep")
    seeds = []

    class Recording(SplitMix64):
        __slots__ = ()

        def __init__(self, stream_seed):
            super().__init__(stream_seed)
            seeds.append(self.seed)

    monkeypatch.setattr(script, "SplitMix64", Recording)
    code = script.main(["--generate", "complete:4", "--weightings", "3", "--subsets", "2", "--seed", str(seed)])
    assert code == 0
    assert len(seeds) == 4 and len(set(seeds)) == 4
    assert "done: 3 weightings" in capsys.readouterr().out


def test_cover_experiment_runs_and_rejects_bad_spec(capsys):
    script = load_script("run_cover_experiment")
    assert script.main(["--generate", "cycle:12", "--kinds", "srw,sweep", "--trials", "40", "--seed", "5"]) == 0
    out = capsys.readouterr().out
    assert "sweep vs srw" in out
    assert script.main(["--generate", "cycle", "--trials", "4", "--seed", "5"]) == 2
    assert capsys.readouterr().err == "error: malformed generator spec 'cycle': expected cycle:<n>\n"


@pytest.mark.parametrize(
    "name, argv",
    [
        ("run_robustness_sweep", "--generate cycle --seed 1"),
        ("run_robustness_sweep", "--generate random-regular:600:3:1 --weightings 1 --subsets 1 --seed 1"),
        ("run_cover_experiment", "--generate cycle:12 --kinds srw --trials 1 --seed 1"),
        ("run_cover_experiment", "--generate cycle:3 --kinds phase --trials 2 --seed 1"),
    ],
)
def test_scripts_report_bad_input_in_one_line_and_exit_2(capsys, name, argv):
    # a walklab error used to escape as a traceback with exit code 1, which
    # for the sweep also means "failures found"
    assert load_script(name).main(argv.split()) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1 and "Traceback" not in err


@pytest.mark.parametrize("kinds", ["srw,mystery", "srw,policy"])
def test_cover_experiment_rejects_unknown_kinds_before_any_row(capsys, kinds):
    # the srw row used to print before the unknown kind died with a traceback
    script = load_script("run_cover_experiment")
    with pytest.raises(SystemExit) as exc:
        script.main(["--generate", "cycle:12", "--kinds", kinds, "--trials", "4", "--seed", "5"])
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "unknown walk kinds" in captured.err and "Traceback" not in captured.err


def test_robustness_sweep_runs_where_the_gap_bound_underflows(capsys):
    # cycle:40 has K = 326, so gap_bound is 0.0; the margin used to divide by it
    script = load_script("run_robustness_sweep")
    assert script.main(["--generate", "cycle:40", "--weightings", "1", "--subsets", "1", "--seed", "1"]) == 0
    out = capsys.readouterr().out
    assert "K=326" in out and "(10^398.6 x bound)" in out and "done: 1 weightings" in out
