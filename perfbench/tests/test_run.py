import configparser
import json
from pathlib import Path

import pytest

import run


@pytest.mark.parametrize("n, expected", [
    (1, 500), (19, 500), (39, 500), (40, 750), (99, 750), (100, 900),
    (199, 900), (200, 950), (999, 950), (1000, 990), (9999, 990), (10000, 999),
])
def test_tail_is_the_highest_percentile_with_ten_samples_beyond(n, expected):
    assert run.tail_per_mille(n) == expected


def test_percentile_interpolates_between_ranks():
    assert run.percentile([5.0, 1.0, 3.0, 2.0, 4.0], 500) == 3.0
    assert run.percentile([0.0, 10.0], 750) == 7.5
    assert run.percentile([7.0], 990) == 7.0


def _job(tmp_path, name, ms, accuracy="0.625"):
    out = tmp_path / name
    out.mkdir()
    rows = [",".join(run.ROUNDS_COLUMNS)]
    for r in (1, 2):
        rows.append(f"7,{r},svm_margin,0.9,{accuracy},0.4,0.3,{1.0 - (r - 1) / 2!r},1;1,{ms}")
    (out / "rounds.csv").write_text("\n".join(rows) + "\n")
    (out / "summary.csv").write_text(
        "seed,rounds_to_target,final_accuracy,final_f1,final_mcc,final_loss\n"
        f"7,>2,{accuracy},0.4,0.3,0.9\n")
    return run.Job(7, False, 1.0, 1.0, {"exit_code": 0}, out)


def test_output_digest_ignores_only_the_ms_column(tmp_path):
    cfg = configparser.ConfigParser()
    cfg.read_dict({"run": {"rounds": "2", "clients_per_round": "1"},
                   "dataset": {"classes": "2"},
                   "strategy": {"name": "svm_margin", "svm_penalty_initial": "1.0",
                                "svm_penalty_floor": "0.01"}})
    workload = run.WORKLOADS["svm_c8"]
    problems = []
    first = run.check_job(workload, cfg, _job(tmp_path, "a", "1.000"), problems)
    slower = run.check_job(workload, cfg, _job(tmp_path, "b", "9.000"), problems)
    changed = run.check_job(workload, cfg, _job(tmp_path, "c", "1.000", "0.75"), problems)
    assert problems == []
    assert first.digest == slower.digest != changed.digest
    assert first.round_ms == [1.0, 1.0] and slower.round_ms == [9.0, 9.0]
    assert (first.attempted, first.completed) == (2, 2)


def test_declared_metrics_and_workloads_match_the_benchmark():
    declared = json.loads((Path(run.ROOT) / "BENCHMARK.json").read_text())
    assert [w["name"] for w in declared["workloads"]] == list(run.WORKLOADS)
    assert [(m["name"], m["unit"]) for m in declared["end_to_end"]] == list(run.END_TO_END)
    assert [(m["name"], m["unit"]) for m in declared["per_layer"]] == list(run.PER_LAYER)


def test_end_to_end_reports_the_median_over_jobs():
    ms = [float(i) for i in range(1, 51)]
    outputs = [run.JobOutput([scale * m for m in ms], 50, 50, "d", acc, f1)
               for scale, acc, f1 in ((1, 0.8, 0.4), (2, 0.6, 0.3), (4, None, None))]
    jobs = [run.Job(seed, False, wall, rss, {}, Path())
            for seed, wall, rss in ((1, 10.0, 30.0), (2, 20.0, 40.0), (1, 50.0, 35.0))]
    values, notes = run.end_to_end(jobs, outputs, seeds=2)
    # Two config seeds of 50 rounds: p90 has ten of their 100 rounds beyond
    # it, whatever the number of jobs; each job's own p90 is 45.1 ms, scaled.
    assert values["round_ms_tail"] == 2 * 45.1 and "p90 per job" in notes["round_ms_tail"]
    assert values["rounds_per_s"] == 50 / (2 * sum(ms) / 1e3)
    assert values["round_ms_p50"] == 2 * 25.5
    assert values["setup_s"] == 20.0 - 2 * sum(ms) / 1e3
    assert values["peak_rss_mb"] == 35.0
    assert values["final_accuracy"] == 0.7 and values["final_macro_f1"] == 0.35
    # A config seed without a final round leaves the accuracy undefined.
    values, _ = run.end_to_end(jobs[::-1], outputs[::-1], seeds=2)
    assert values["final_accuracy"] == values["final_macro_f1"] == 0.0
