"""Random maximal-F-free process: determinism, soundness, statistics."""

import hashlib
import json
import os
import threading
from functools import partial

import pytest

import satlab.process
from satlab import (
    InputError,
    SplitMix64,
    canonical_form,
    complete_bipartite,
    complete_graph,
    estimate_expected_count,
    is_h_saturated,
    is_ks_saturated,
    pair_order,
    parse_pattern,
    path,
    run_ffree_process,
    shuffled_pair_indices,
    star,
    TrialStats,
)
from satlab.counting import check_pattern_size
from satlab.process import _trial_results
from satlab.search import count_pattern
from oracles import unanchored_ffree_process

# frozen outputs of the public-domain splitmix64 reference implementation
# (compiled C, seeds 0 / 1234567 / 0xDEADBEEFCAFEBABE)
SPLITMIX64_REFERENCE = {
    0: [
        16294208416658607535,
        7960286522194355700,
        487617019471545679,
        17909611376780542444,
        1961750202426094747,
    ],
    1234567: [
        6457827717110365317,
        3203168211198807973,
        9817491932198370423,
        4593380528125082431,
        16408922859458223821,
    ],
    0xDEADBEEFCAFEBABE: [
        972095092378118610,
        5268643614968304703,
        4787937682015542909,
    ],
}


class TestRng:
    def test_reference_vectors(self):
        for seed, expected in SPLITMIX64_REFERENCE.items():
            rng = SplitMix64(seed)
            assert [rng.next_u64() for _ in range(len(expected))] == expected

    def test_shuffle_is_permutation(self):
        for n in (2, 5, 9):
            for seed in (0, 1, 77):
                idx = shuffled_pair_indices(n, seed)
                assert sorted(idx) == list(range(n * (n - 1) // 2))

    # 2**64 - gamma makes the first draw's state 0: every lane of the
    # batched draws must match the scalar generator at the ends of its range
    @pytest.mark.parametrize("seed", [0, 1, -1, 2**64 - 1, 2**64 + 5, 2**63,
                                      2**64 - 0x9E3779B97F4A7C15])
    def test_shuffle_is_reference_fisher_yates(self, seed):
        for n in (0, 1, 2, 3, 17, 60, 120):
            idx = list(range(n * (n - 1) // 2))
            rng = SplitMix64(seed)
            for i in range(len(idx) - 1, 0, -1):
                j = rng.below(i + 1)
                idx[i], idx[j] = idx[j], idx[i]
            assert shuffled_pair_indices(n, seed) == idx, n

    def test_pair_order_fixed(self):
        assert pair_order(4) == [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)]


class TestProcess:
    def test_n3_always_path(self):
        for seed in range(20):
            trace = run_ffree_process(3, "k_3", seed)
            assert len(trace.accepted) == 2
            assert canonical_form(trace.result) == canonical_form(path(3))

    def test_n2_single_edge(self):
        trace = run_ffree_process(2, "k_3", 5)
        assert trace.result.edge_count() == 1

    def test_outputs_saturated(self):
        for seed in range(15):
            trace = run_ffree_process(10, "k_3", seed)
            assert is_ks_saturated(trace.result, 3).is_saturated
        for seed in range(10):
            trace = run_ffree_process(9, "k_4", seed)
            assert is_ks_saturated(trace.result, 4).is_saturated

    def test_pattern_f_outputs_saturated(self):
        c4 = __import__("satlab").cycle(4)
        for seed in range(8):
            trace = run_ffree_process(7, ("graph", c4), seed)
            assert is_h_saturated(trace.result, c4).is_saturated

    def test_bit_reproducible(self):
        a = run_ffree_process(12, "k_4", 99)
        b = run_ffree_process(12, "k_4", 99)
        assert a == b and a.to_json() == b.to_json()

    def test_rejected_pairs_would_create_f(self):
        from satlab import creates_ks

        trace = run_ffree_process(8, "k_3", 3)
        accepted = set(trace.accepted)
        g = trace.result
        for u, v in g.non_edges():
            assert (u, v) not in accepted
            assert creates_ks(g, u, v, 3)

    def test_incremental_matches_pattern_recheck(self):
        # clique fast paths (closed-pair masks for K_4, a clique search
        # otherwise) vs the anchored pattern test of the same clique
        for n, s, seeds in ((8, 3, range(6)), (12, 4, range(4)), (9, 5, range(4)),
                            (30, 4, range(6)), (60, 4, range(3)), (30, 5, range(3))):
            pattern = ("graph", complete_graph(s))
            for seed in seeds:
                fast = run_ffree_process(n, f"k_{s}", seed)
                slow = run_ffree_process(n, pattern, seed)
                assert fast.order == slow.order
                assert fast.accepted == slow.accepted
                assert fast.result == slow.result

    # sha256 of the 3 newline-terminated trace lines of seeds seed..seed+2
    @pytest.mark.parametrize("seed, digest", [
        (0, "195383d2b459386d5ea6a399e2482a76f98ef2a1e27bcc1306580a5dcfa5aad6"),
        (20241018, "8c930b5509e15fdaa813b7f1e972de4ed72831d3f31c97b598a44cecf6b955f9"),
    ])
    def test_frozen_3_trial_k4_traces_at_120(self, seed, digest):
        h = hashlib.sha256()
        for i in range(3):
            h.update(run_ffree_process(120, "k_4", seed + i).to_json().encode() + b"\n")
        assert h.hexdigest() == digest

    def test_trace_json_fields(self):
        trace = run_ffree_process(5, "k_3", 4)
        data = json.loads(trace.to_json())
        assert set(data) == {"seed", "n", "f", "order", "accepted", "result"}
        assert sorted(data["order"]) == list(range(10))

    def test_invalid_inputs(self):
        with pytest.raises(InputError):
            run_ffree_process(5, "k_2", 0)
        with pytest.raises(InputError):
            run_ffree_process(5, ("graph", star(1)), 0)

    def test_pattern_cap_is_the_shared_one(self):
        with pytest.raises(InputError) as raised:
            run_ffree_process(10, "k_4_5", 0)
        with pytest.raises(InputError) as shared:
            check_pattern_size(complete_bipartite(4, 5))
        assert str(raised.value) == str(shared.value)


class TestAnchoredProcess:
    """Each pair's containment test is anchored on the new edge; the
    traces must equal those of a full test of the whole graph."""

    # C_4, C_5, K_{2,3} and K_4 minus an edge (two arc orbits)
    @pytest.mark.parametrize("f", ["c_4", "c_5", "k_2_3", "g6:C^"])
    def test_traces_match_unanchored(self, f):
        for n in (2, 6, 12, 20, 30):
            for seed in range(3):
                fast = run_ffree_process(n, f, seed)
                assert fast.to_json() == unanchored_ffree_process(n, f, seed).to_json()

    # sha256 of the 20 newline-terminated trace lines of seeds seed..seed+19,
    # taken from the unanchored process
    @pytest.mark.parametrize("n, f, seed, digest", [
        (30, "c_4", 856419006,
         "7dd7411c9ed60c1dfc2094d1692faf9c5c748768ccad79e6a0607475bce2c9bc"),
        (20, "c_5", 4248111943,
         "7ca7788fdd3fd838b7460a23d6cb67e4365f83d31e8d0ab85fa90203d9c3873c"),
    ])
    def test_frozen_20_trial_traces(self, n, f, seed, digest):
        h = hashlib.sha256()
        for i in range(20):
            h.update(run_ffree_process(n, f, seed + i).to_json().encode() + b"\n")
        assert h.hexdigest() == digest


class TestStatistics:
    def test_n3_mean_exactly_one(self):
        stats = estimate_expected_count(3, "k_3", "k_1_2", 25, 11)
        assert stats.mean == 1.0 and stats.stddev == 0.0
        assert stats.min == stats.max == 1

    def test_n5_min_at_least_sat_value(self):
        stats = estimate_expected_count(5, "k_3", "k_1_2", 400, 123)
        assert stats.min >= 5

    def test_sample_min_dominates_exact_sat(self):
        from satlab import min_count_over_saturated

        for n, f, h in ((6, "k_3", "k_1_2"), (6, "k_4", "k_2"), (7, "k_3", "k_2_2")):
            exact = min_count_over_saturated(n, h, f).min_count
            stats = estimate_expected_count(n, f, h, 200, 2024)
            assert stats.min >= exact

    def test_single_trial_stddev_zero(self):
        stats = estimate_expected_count(6, "k_3", "k_2", 1, 0)
        assert stats.stddev == 0.0

    def test_deterministic(self):
        a = estimate_expected_count(7, "k_4", "k_1_2", 30, 5)
        b = estimate_expected_count(7, "k_4", "k_1_2", 30, 5)
        assert a == b


class TestTrialRunner:
    """``_trial_results`` deals trials to forked workers; its output must
    not depend on the worker count, and no worker may outlive it."""

    @staticmethod
    def _no_children_left():
        with pytest.raises(ChildProcessError):
            os.waitpid(-1, os.WNOHANG)

    @pytest.mark.parametrize("workers", [1, 2, 3])
    def test_results_in_trial_order(self, workers):
        for trials in (1, 2, 7, 50):
            assert list(_trial_results(lambda i: i * i, trials, workers)) == [
                i * i for i in range(trials)]
        self._no_children_left()

    def test_workers_are_other_processes_pinned_to_one_cpu(self):
        before = os.sched_getaffinity(0)
        seen = list(_trial_results(lambda i: (os.getpid(), os.sched_getaffinity(0)), 6, 3))
        assert [pid == os.getpid() for pid, _ in seen] == [True, False, False] * 2
        assert len({pid for pid, _ in seen}) == 3
        assert all(len(cpus) == 1 and cpus <= before for _, cpus in seen)
        assert os.sched_getaffinity(0) == before
        self._no_children_left()

    def test_serial_while_other_threads_run(self):
        stop = threading.Event()
        thread = threading.Thread(target=stop.wait)
        thread.start()
        try:
            pids = set(_trial_results(lambda i: os.getpid(), 4))
        finally:
            stop.set()
            thread.join()
        assert pids == {os.getpid()}

    def test_serial_without_fork(self, monkeypatch):
        monkeypatch.delattr(os, "fork")
        assert set(_trial_results(lambda i: os.getpid(), 4)) == {os.getpid()}

    def test_unpinned_without_setaffinity(self, monkeypatch):
        before = os.sched_getaffinity(0)
        monkeypatch.delattr(os, "sched_setaffinity")
        seen = list(_trial_results(lambda i: (os.getpid(), os.sched_getaffinity(0)), 4, 2))
        assert len({pid for pid, _ in seen}) == 2
        assert all(cpus == before for _, cpus in seen)
        self._no_children_left()

    @pytest.mark.parametrize("trial", [1, 2, 4])  # worker 1, worker 2, worker 1
    def test_worker_error_reaches_the_parent(self, trial):
        def fn(i):
            if i == trial:
                raise InputError(f"trial {i} failed")
            return i

        before = os.sched_getaffinity(0)
        with pytest.raises(InputError, match=f"^trial {trial} failed$"):
            list(_trial_results(fn, 6, 3))
        assert os.sched_getaffinity(0) == before
        self._no_children_left()

    def test_unpicklable_error_keeps_its_message(self):
        class Local(Exception):  # a local class does not pickle
            pass

        def fn(i):
            if i == 1:
                raise Local("no pickle")
            return i

        with pytest.raises(RuntimeError, match="^Local: no pickle$"):
            list(_trial_results(fn, 2, 2))
        self._no_children_left()

    def test_parent_interrupt_reaps_the_workers(self):
        def fn(i):
            if i == 2:
                raise KeyboardInterrupt
            return i

        with pytest.raises(KeyboardInterrupt):
            list(_trial_results(fn, 6, 2))
        self._no_children_left()

    def test_early_close_reaps_the_workers(self):
        before = os.sched_getaffinity(0)
        results = _trial_results(lambda i: run_ffree_process(40, "k_3", i).order, 9, 3)
        assert next(results) == run_ffree_process(40, "k_3", 0).order
        results.close()
        assert os.sched_getaffinity(0) == before
        self._no_children_left()

    @pytest.mark.parametrize("f", ["k_3", "k_4", "k_5", "c_4", "g6:C^"])
    def test_expected_count_does_not_depend_on_workers(self, monkeypatch, f):
        h = parse_pattern("k_1_2")
        for trials in (1, 2, 50):
            serial = TrialStats.from_counts(
                [count_pattern(run_ffree_process(12, f, 5 + i).result, h)
                 for i in range(trials)])
            for workers in (1, 2, 3):
                monkeypatch.setattr(satlab.process, "_trial_results",
                                    partial(_trial_results, workers=workers))
                assert estimate_expected_count(12, f, "k_1_2", trials, 5) == serial
        self._no_children_left()

    def test_checks_come_before_any_trial(self, monkeypatch):
        def never(*args):
            raise AssertionError("a trial ran")

        monkeypatch.setattr(satlab.process, "run_ffree_process", never)
        for args in ((10, "k_3", "g6:HhCGGE@", 3), (10, "k_2", "k_2", 3),
                     (-1, "k_3", "k_2", 3), (10, "k_3", "k_2", 0)):
            with pytest.raises(InputError):
                estimate_expected_count(*args, 1)
