"""``compare`` verdicts on synthetic result sets."""

import json

from bench.cli import CONFIG, main
from bench.compare import compare, sim_verdict, verdict

END_TO_END = json.loads(CONFIG.read_text(encoding="utf-8"))["end_to_end"]


def _results(scale=None, seeds=range(10)):
    """One run per seed of one workload; ``scale`` multiplies chosen metrics."""
    scale = scale or {}
    runs = []
    for seed in seeds:
        jitter = 1.0 + 0.002 * (seed % 5 - 2)
        runs.append({
            "workload": "w", "seed": seed, "trace": False,
            "correct": True, "attempted": 40, "failed": 0,
            "metrics": {
                m["name"]: {"value": 0.5 * jitter * scale.get(m["name"], 1.0),
                            "unit": m["unit"]}
                for m in END_TO_END
            },
        })
    return runs


def _write(path, runs):
    path.write_text("".join(json.dumps(r) + "\n" for r in runs), encoding="utf-8")
    return str(path)


def test_identical_sets_are_within_bound(tmp_path, capsys):
    a = _write(tmp_path / "a.jsonl", _results())
    b = _write(tmp_path / "b.jsonl", _results())
    assert main(["compare", a, b]) == 0
    rows = compare(_results(), _results(), END_TO_END)
    assert {r.verdict for r in rows} == {"within"}
    assert {r.sim for r in rows if r.metric.startswith("sim_")} == {"identical"}
    assert "within" in capsys.readouterr().out


def test_injected_20_percent_slowdown_is_worse(tmp_path):
    slow = {"iter_s_p50": 1.2, "iter_s_p75": 1.2, "requests_per_s": 1 / 1.2}
    a = _write(tmp_path / "a.jsonl", _results())
    b = _write(tmp_path / "b.jsonl", _results(slow))
    assert main(["compare", a, b]) == 1
    rows = {r.metric: r for r in compare(_results(), _results(slow), END_TO_END)}
    for metric in ("iter_s_p50", "iter_s_p75", "requests_per_s"):
        assert rows[metric].verdict == "worse", metric
    assert rows["peak_rss_mb"].verdict == "within"


def test_sim_metrics_are_judged_per_seed():
    lower = {"unit": "USD", "better": "lower"}
    base = [(s, 1.0 + s) for s in range(10)]
    # Seed-to-seed variation far beyond the tolerance cancels when paired.
    assert sim_verdict(base, list(base), **lower) == ("within", 0.0, "identical")
    small = [(s, v * 1.01) for s, v in base]
    assert sim_verdict(base, small, **lower)[::2] == ("within", "changed")
    one_seed = base[:-1] + [(9, base[-1][1] * 1.03)]
    assert sim_verdict(base, one_seed, **lower)[0] == "worse"
    cheaper = [(s, v * 0.9) for s, v in base]
    assert sim_verdict(base, cheaper, **lower)[0] == "better"
    # No seed on both sides: nothing to pair.
    assert sim_verdict(base, [(99, 1.0)], **lower)[0] == "missing"


def test_fraction_sim_metrics_use_an_absolute_tolerance():
    higher = {"unit": "fraction", "better": "higher"}
    done = [(s, 0.67) for s in range(10)]
    assert sim_verdict(done, [(s, 0.665) for s in range(10)], **higher)[0] == "within"
    outcome, change, _ = sim_verdict(done, done[:-1] + [(9, 0.65)], **higher)
    assert outcome == "worse"
    assert abs(change - 0.02) < 1e-12


def test_sim_change_beyond_tolerance_fails_the_command(tmp_path):
    a = _write(tmp_path / "a.jsonl", _results())
    b = _write(tmp_path / "b.jsonl", _results({"sim_done_frac": 0.95}))
    assert main(["compare", a, b]) == 1


def test_wide_spread_is_unresolved_unless_every_run_wins():
    noisy = [1.0, 1.5, 1.0, 1.5, 1.0, 1.5]
    assert verdict(noisy, [x * 1.05 for x in noisy], 0.1, "lower")[0] == "unresolved"
    assert verdict(noisy, [0.5] * 6, 0.1, "lower")[0] == "better"


def test_missing_pair_fails(tmp_path):
    b_runs = _results()
    for run in b_runs:
        del run["metrics"]["setup_s"]
    a = _write(tmp_path / "a.jsonl", _results())
    b = _write(tmp_path / "b.jsonl", b_runs)
    assert main(["compare", a, b]) == 1
