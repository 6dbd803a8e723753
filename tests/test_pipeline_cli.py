"""The `python -m repro` CLI: run / serve / eval / models subcommands."""

import json

import pytest

from repro.pipeline import cli


TINY_CLI = {
    "name": "cli-tiny",
    "data": {
        "days": 2, "train_days": 1, "seed": 11,
        "simulator": {"num_queries": 120, "num_items": 180, "num_ads": 60,
                      "num_users": 90, "tree_depth": 3, "tree_branching": 2},
    },
    "model": {"name": "amcad", "num_subspaces": 2, "subspace_dim": 4},
    "training": {"steps": 8, "batch_size": 32},
    "index": {"top_k": 8},
    "serving": {"measure_requests": 6, "measure_repeats": 1,
                "qps_sweep": [1000.0]},
    "eval": {"auc_samples": 40, "ranking_ks": [5], "max_queries": 20},
}


@pytest.fixture(scope="module")
def cli_artifacts(tmp_path_factory):
    root = tmp_path_factory.mktemp("cli")
    config_path = root / "config.json"
    config_path.write_text(json.dumps(TINY_CLI))
    artifact_dir = root / "artifacts"
    code = cli.main(["run", "--config", str(config_path),
                     "--artifacts", str(artifact_dir),
                     "--set", "training.steps=6", "--quiet"])
    assert code == 0
    return artifact_dir


def test_run_writes_artifacts(cli_artifacts, capsys):
    names = {p.name for p in cli_artifacts.iterdir()}
    assert {"config.json", "model.npz", "indices.npz",
            "report.json"} <= names
    # the --set override reached the persisted config and the run
    config = json.loads((cli_artifacts / "config.json").read_text())
    assert config["training"]["steps"] == 6
    report = json.loads((cli_artifacts / "report.json").read_text())
    train = [s for s in report["stages"] if s["name"] == "train"][0]
    assert train["info"]["steps"] == 6


def test_serve_explicit_queries(cli_artifacts, capsys):
    assert cli.main(["serve", "--artifacts", str(cli_artifacts),
                     "--queries", "3,14", "--preclicks", "10,42;",
                     "--k", "5"]) == 0
    out = capsys.readouterr().out
    assert "query 3" in out and "query 14" in out
    assert "served 2 request(s)" in out


def test_serve_random_requests(cli_artifacts, capsys):
    assert cli.main(["serve", "--artifacts", str(cli_artifacts),
                     "--requests", "4"]) == 0
    assert "served 4 request(s)" in capsys.readouterr().out


def test_serve_rejects_out_of_range_query(cli_artifacts):
    with pytest.raises(SystemExit, match="out of range"):
        cli.main(["serve", "--artifacts", str(cli_artifacts),
                  "--queries", "100000"])


def test_serve_rejects_out_of_range_preclicks(cli_artifacts):
    with pytest.raises(SystemExit, match="out of range"):
        cli.main(["serve", "--artifacts", str(cli_artifacts),
                  "--queries", "3", "--preclicks", "99999"])


def test_serve_rejects_preclicks_without_queries(cli_artifacts):
    with pytest.raises(SystemExit, match="requires --queries"):
        cli.main(["serve", "--artifacts", str(cli_artifacts),
                  "--preclicks", "1,2"])


def test_serve_qps_routes_through_admission(cli_artifacts, capsys):
    assert cli.main(["serve", "--artifacts", str(cli_artifacts),
                     "--requests", "5", "--qps", "200",
                     "--set", "serving.admission_deadline_ms=20"]) == 0
    out = capsys.readouterr().out
    assert "admitted 5/5 request(s) at 200 qps" in out
    assert "latency p50/p95/p99" in out
    assert "queue deadline 20 ms" in out


def test_serve_qps_rejects_nonpositive(cli_artifacts):
    with pytest.raises(SystemExit, match="--qps"):
        cli.main(["serve", "--artifacts", str(cli_artifacts),
                  "--requests", "2", "--qps", "0"])


def test_serve_rejects_non_serving_overrides(cli_artifacts):
    with pytest.raises(SystemExit, match="serving.* overrides"):
        cli.main(["serve", "--artifacts", str(cli_artifacts),
                  "--set", "training.steps=1"])


def test_index_rebuilds_and_reshards(cli_artifacts, capsys):
    try:
        assert cli.main(["index", "--artifacts", str(cli_artifacts),
                         "--set", "index.backend=sharded",
                         "--set", "index.num_shards=3"]) == 0
        out = capsys.readouterr().out
        info = json.loads(out[:out.rindex("}") + 1])
        assert info["backend"] == "sharded"
        assert info["num_shards"] == 3
        # the persisted config was updated alongside the fresh indices
        config = json.loads((cli_artifacts / "config.json").read_text())
        assert config["index"]["backend"] == "sharded"
        # and serving from the re-sharded artifacts still works
        assert cli.main(["serve", "--artifacts", str(cli_artifacts),
                         "--requests", "3"]) == 0
        assert "served 3 request(s)" in capsys.readouterr().out
    finally:
        # restore the exact layout for the other module-scoped tests
        assert cli.main(["index", "--artifacts", str(cli_artifacts),
                         "--set", "index.backend=exact"]) == 0


def test_index_rebuilds_with_ivf_backend(cli_artifacts, capsys):
    """`index --set index.backend=ivf` rebuilds without retraining and
    the reloaded artifact carries the ANN dials in its npz header."""
    from repro.io import load_index_set
    try:
        assert cli.main(["index", "--artifacts", str(cli_artifacts),
                         "--set", "index.backend=ivf",
                         "--set", "index.nprobe=4",
                         "--set", "index.rerank_k=32"]) == 0
        out = capsys.readouterr().out
        info = json.loads(out[:out.rindex("}") + 1])
        assert info["backend"] == "ivf"
        assert info["nprobe"] == 4
        assert info["rerank_k"] == 32
        stored = load_index_set(cli_artifacts / "indices.npz")
        assert stored.backend == "ivf"
        assert stored.backend_params["nprobe"] == 4
        assert stored.backend_params["rerank_k"] == 32
        # serving from the reloaded ANN artifacts still works
        assert cli.main(["serve", "--artifacts", str(cli_artifacts),
                         "--requests", "3"]) == 0
        assert "served 3 request(s)" in capsys.readouterr().out
    finally:
        assert cli.main(["index", "--artifacts", str(cli_artifacts),
                         "--set", "index.backend=exact"]) == 0


def test_index_rebuilds_sharded_over_ivf(cli_artifacts, capsys):
    """Sharded composition from the CLI: `index.backend=sharded` with
    `index.inner_backend=ivf` round-trips shard layout AND ANN dials."""
    from repro.io import load_index_set
    try:
        assert cli.main(["index", "--artifacts", str(cli_artifacts),
                         "--set", "index.backend=sharded",
                         "--set", "index.inner_backend=ivf",
                         "--set", "index.num_shards=2",
                         "--set", "index.nprobe=3"]) == 0
        out = capsys.readouterr().out
        info = json.loads(out[:out.rindex("}") + 1])
        assert info["backend"] == "sharded"
        assert info["inner_backend"] == "ivf"
        assert info["nprobe"] == 3
        stored = load_index_set(cli_artifacts / "indices.npz")
        assert stored.backend == "sharded"
        assert stored.backend_params["inner_backend"] == "ivf"
        assert stored.backend_params["num_shards"] == 2
        assert stored.backend_params["inner_kwargs"]["nprobe"] == 3
        assert cli.main(["serve", "--artifacts", str(cli_artifacts),
                         "--requests", "2"]) == 0
        assert "served 2 request(s)" in capsys.readouterr().out
    finally:
        assert cli.main(["index", "--artifacts", str(cli_artifacts),
                         "--set", "index.backend=exact"]) == 0


def test_index_rejects_non_index_overrides(cli_artifacts):
    with pytest.raises(SystemExit, match="index.* overrides"):
        cli.main(["index", "--artifacts", str(cli_artifacts),
                  "--set", "training.steps=1"])


def test_eval_rejects_non_eval_overrides(cli_artifacts):
    with pytest.raises(SystemExit, match="eval.* overrides"):
        cli.main(["eval", "--artifacts", str(cli_artifacts),
                  "--set", "data.seed=99"])


def test_eval_from_artifacts(cli_artifacts, capsys):
    assert cli.main(["eval", "--artifacts", str(cli_artifacts),
                     "--set", "eval.auc_samples=30"]) == 0
    info = json.loads(capsys.readouterr().out)
    assert 0.0 <= info["next_auc"] <= 100.0


def test_run_accepts_prefetch_workers_override(cli_artifacts, tmp_path,
                                               capsys):
    """`--set training.prefetch_workers=2` names a retired key: it is
    dropped, so the run trains what it trains without it and the
    persisted config no longer carries it."""
    config_path = tmp_path / "config.json"
    config_path.write_text(json.dumps(TINY_CLI))
    artifact_dir = tmp_path / "artifacts"
    code = cli.main(["run", "--config", str(config_path),
                     "--artifacts", str(artifact_dir),
                     "--set", "training.steps=6",
                     "--set", "training.prefetch_workers=2", "--quiet"])
    assert code == 0
    config = json.loads((artifact_dir / "config.json").read_text())
    assert "prefetch_workers" not in config["training"]

    def train_info(root):
        report = json.loads((root / "report.json").read_text())
        return [s for s in report["stages"] if s["name"] == "train"][0]["info"]

    assert train_info(artifact_dir)["losses"] == \
        train_info(cli_artifacts)["losses"]


def test_run_rejects_bad_backend_kwargs_before_training(tmp_path):
    """A backend kwarg the backend rejects stops `run` on load, naming
    `index.backend_kwargs`, before any artifact (the model) is written."""
    config_path = tmp_path / "config.json"
    config_path.write_text(json.dumps(TINY_CLI))
    artifact_dir = tmp_path / "artifacts"
    with pytest.raises(ValueError, match=r"index\.backend_kwargs"):
        cli.main(["run", "--config", str(config_path),
                  "--artifacts", str(artifact_dir),
                  "--set", 'index.backend_kwargs={"bogus": 1}', "--quiet"])
    assert not list(tmp_path.rglob("model.npz"))


def test_run_admission_overrides_smoke(tmp_path, capsys):
    """`run --set serving.admission_*` reaches the persisted config and
    the serve stage's closed-loop admission probe."""
    config_path = tmp_path / "config.json"
    config_path.write_text(json.dumps(TINY_CLI))
    artifact_dir = tmp_path / "artifacts"
    code = cli.main(["run", "--config", str(config_path),
                     "--artifacts", str(artifact_dir),
                     "--set", "serving.admission_deadline_ms=50",
                     "--set", "serving.admission_max_queue=64", "--quiet"])
    assert code == 0
    config = json.loads((artifact_dir / "config.json").read_text())
    assert config["serving"]["admission_deadline_ms"] == 50
    assert config["serving"]["admission_max_queue"] == 64
    report = json.loads((artifact_dir / "report.json").read_text())
    serve = [s for s in report["stages"] if s["name"] == "serve"][0]
    admission = serve["info"]["admission"]
    assert admission["deadline_ms"] == 50.0
    assert admission["max_queue"] == 64
    assert admission["served"] > 0
    assert admission["shed_rate"] <= 1.0
    # served requests met the queue-wait SLO by construction
    assert admission["wait_ms"]["p99"] <= 50.0 + 1e-9
    assert "admission p99" in serve["info"]["summary"]


def test_models_listing(capsys):
    assert cli.main(["models"]) == 0
    out = capsys.readouterr().out
    assert "amcad" in out and "product:<SIG>" in out
