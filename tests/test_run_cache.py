"""The suites' run cache (``helpers.run_cached``) hands back whole runs."""

import json
from dataclasses import replace

from abel_sched import config_hash, run_experiment

from helpers import run_cached, standard_config


def test_a_cached_follower_is_its_whole_run(run_root, tmp_path):
    """ABEL at lr 8 forks from the constant run at lr 8, so its own
    ``run_experiment`` returns only the epochs after the fork; criterion 08
    reads its first lr event. The cache must hold what a run from scratch
    returns, ``wall_ms`` and ``start_epoch`` aside."""
    config = standard_config("abel", base_lr=8.0)
    cached = run_cached(config, run_root)
    assert json.loads((cached.log_dir / "meta.json").read_text())["start_epoch"] > 0
    alone = run_experiment(replace(config, log_dir=str(tmp_path / "alone")))
    alone.meta["config_hash"] = config_hash(replace(config, log_dir=str(cached.log_dir)))

    def whole(result):
        meta = {key: value for key, value in result.meta.items() if key != "start_epoch"}
        return [replace(rec, wall_ms=0) for rec in result.records], result.events, meta

    assert whole(cached) == whole(alone)
