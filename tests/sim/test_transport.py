"""Result transport tests for the inline path of the grid executor.

Pooled results cross the worker pipe as pickles; inline results
(``jobs=1``) never leave the process. The inline path must move no
result bytes and must reproduce itself bit for bit from run to run.
"""

from repro.faults.generator import FailureModel
from repro.sim.cache import result_to_dict
from repro.sim.machine import RunConfig
from repro.sim.parallel import run_grid


def small_grid():
    return [
        RunConfig(workload="luindex", scale=0.1, seed=seed,
                  failure_model=FailureModel(rate=rate))
        for seed in (0, 1)
        for rate in (0.0, 0.1)
    ]


class TestPoolBitIdentity:
    def test_inline_path_unaffected(self):
        grid = small_grid()[:2]
        serial, stats = run_grid(grid, jobs=1)
        assert stats.result_bytes == 0
        again, again_stats = run_grid(grid, jobs=1)
        assert again_stats.result_bytes == 0
        assert [result_to_dict(r) for r in serial] == [
            result_to_dict(r) for r in again
        ]
