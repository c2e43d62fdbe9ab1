"""CLI: the paper's two executables plus the query program."""

import pytest

from repro.cli import build_parser, main
from repro.runtime.metall import MetallStore


@pytest.fixture()
def store(tmp_path):
    return str(tmp_path / "idx")


def run(argv):
    return main(argv)


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_construct_requires_store(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["construct"])

    def test_dataset_choices_validated(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(
                ["construct", "--dataset", "nope", "--store", "x"])

    @pytest.mark.parametrize("command", ["construct", "repartition"])
    def test_removed_parallel_backend_is_an_argparse_error(self, command,
                                                           capsys):
        with pytest.raises(SystemExit) as exc:
            build_parser().parse_args(
                [command, "--store", "x", "--backend", "parallel"])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert "'parallel'" in err and "removed" in err and "'process'" in err


class TestWorkflow:
    def test_construct_creates_store(self, store, capsys):
        rc = run(["construct", "--dataset", "deep1b", "--n", "256",
                  "--k", "5", "--nodes", "2", "--store", store])
        assert rc == 0
        assert MetallStore.exists(store)
        out = capsys.readouterr().out
        assert "constructed deep1b" in out
        assert "type1" in out  # message table printed

    def test_optimize_then_query(self, store, capsys):
        run(["construct", "--dataset", "deep1b", "--n", "256", "--k", "5",
             "--nodes", "2", "--store", store])
        rc = run(["optimize", "--store", store, "--pruning-factor", "1.5"])
        assert rc == 0
        rc = run(["query", "--store", store, "--n-queries", "20",
                  "--epsilon", "0.2", "--threads", "2"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "qps" in out
        assert "self-recall" in out

    def test_query_without_optimize_warns(self, store, capsys):
        run(["construct", "--dataset", "deep1b", "--n", "256", "--k", "5",
             "--nodes", "2", "--store", store])
        rc = run(["query", "--store", store, "--n-queries", "5"])
        assert rc == 0
        assert "repro optimize" in capsys.readouterr().out

    def test_unoptimized_comm_flag(self, store, capsys):
        rc = run(["construct", "--dataset", "deep1b", "--n", "256",
                  "--k", "5", "--nodes", "2", "--store", store,
                  "--unoptimized-comm"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "type2 " in out or "type2" in out
        assert "type2+" not in out

    def test_sparse_dataset_workflow(self, store):
        rc = run(["construct", "--dataset", "kosarak", "--n", "128",
                  "--k", "4", "--nodes", "2", "--store", store])
        assert rc == 0
        assert run(["optimize", "--store", store]) == 0
        assert run(["query", "--store", store, "--n-queries", "10"]) == 0


class TestErrors:
    def test_optimize_missing_store(self, tmp_path, capsys):
        rc = run(["optimize", "--store", str(tmp_path / "ghost")])
        assert rc == 1
        assert "error:" in capsys.readouterr().err

    def test_construct_over_existing_store(self, store, capsys):
        run(["construct", "--dataset", "deep1b", "--n", "256", "--k", "5",
             "--nodes", "2", "--store", store])
        rc = run(["construct", "--dataset", "deep1b", "--n", "256",
                  "--k", "5", "--nodes", "2", "--store", store])
        assert rc == 1


class TestIntrospection:
    def test_datasets_listing(self, capsys):
        assert run(["datasets"]) == 0
        out = capsys.readouterr().out
        assert "kosarak" in out and "1,000,000,000" in out

    def test_experiments_listing(self, capsys):
        assert run(["experiments"]) == 0
        out = capsys.readouterr().out
        assert "fig4" in out and "bench_fig4_message_savings.py" in out


class TestObservability:
    def test_metrics_and_trace_export(self, store, tmp_path, capsys):
        import json

        metrics_out = str(tmp_path / "run.json")
        trace_out = str(tmp_path / "run.trace.json")
        rc = run(["construct", "--dataset", "deep1b", "--n", "256",
                  "--k", "5", "--nodes", "2", "--store", store,
                  "--metrics-out", metrics_out, "--trace-out", trace_out])
        assert rc == 0
        with open(metrics_out) as f:
            snap = json.load(f)
        assert snap["schema"] == "repro.metrics/1"
        assert snap["enabled"] is True
        assert snap["counters"]["messages.sent"] > 0
        assert any(name.startswith("phase.") for name in snap["timers"])
        # The barrier log rides along, one entry per superstep.
        assert len(snap["barriers"]) == snap["counters"]["comm.barriers"]
        with open(trace_out) as f:
            trace = json.load(f)
        assert any(e["ph"] == "X" for e in trace["traceEvents"])
        # Figure 4's decay curve: the per-type counters are sampled at
        # every barrier that moved them, ending at the total.
        curve = [e for e in trace["traceEvents"]
                 if e["ph"] == "C" and e["name"] == "messages.sent.type1"]
        assert len(curve) > 2
        assert [e["ts"] for e in curve] == sorted(e["ts"] for e in curve)
        assert (curve[-1]["args"]["value"]
                == snap["counters"]["messages.sent.type1"])

    def test_stats_pretty_printer(self, store, tmp_path, capsys):
        metrics_out = str(tmp_path / "run.json")
        run(["construct", "--dataset", "deep1b", "--n", "256", "--k", "5",
             "--nodes", "2", "--store", store, "--metrics-out", metrics_out])
        capsys.readouterr()
        assert run(["stats", metrics_out]) == 0
        out = capsys.readouterr().out
        assert "phase timers" in out
        assert "messages by type" in out
        assert "heap.updates" in out
        assert "iterations (from the barrier log)" in out
        assert "delta*K*N" in out and "rank evals max / mean" in out

    def test_stats_rejects_non_snapshot(self, tmp_path, capsys):
        bogus = tmp_path / "bogus.json"
        bogus.write_text('{"schema": "something/else"}')
        assert run(["stats", str(bogus)]) == 1
        assert "not a repro metrics snapshot" in capsys.readouterr().err

    def test_no_metrics_conflicts_with_export(self, store, capsys):
        rc = run(["construct", "--dataset", "deep1b", "--n", "256",
                  "--k", "5", "--nodes", "2", "--store", store,
                  "--no-metrics", "--metrics-out", "/tmp/x.json"])
        assert rc == 1
        assert "--no-metrics" in capsys.readouterr().err

    def test_no_metrics_build_succeeds(self, store, capsys):
        rc = run(["construct", "--dataset", "deep1b", "--n", "256",
                  "--k", "5", "--nodes", "2", "--store", store,
                  "--no-metrics"])
        assert rc == 0
        assert "constructed deep1b" in capsys.readouterr().out
